"""The benchmark's tracer must still find every library function it wraps.

The public API is pinned, so that it changes only on purpose.
"""

import collections
import importlib.util
from pathlib import Path

import momentprop
from momentprop import _kernels, distmoments, oracle, planner, presets, sysspec

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def test_perfbench_span_targets_exist():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    tracer = spans.Tracer()
    try:
        tracer.install()
        assert tracer.missing == []
    finally:
        tracer.uninstall()
    # perfbench/run.py reads both when it records the run's metadata.
    assert callable(_kernels.run_steps)
    assert hasattr(_kernels, "HAVE_NUMBA")


def _count_calls(counts, owner, name, monkeypatch, check=None):
    """Count the calls to `owner.name` in `counts[name]`, passing each result through `check` if given,
    until `monkeypatch` undoes it."""
    original = getattr(owner, name)

    def wrapper(*args, **kwargs):
        counts[name] += 1
        result = original(*args, **kwargs)
        return result if check is None else check(result)

    monkeypatch.setattr(owner, name, wrapper)


def test_planner_seams_run_once_per_edge(dubins_reduced, monkeypatch):
    """The per-edge functions the tracer wraps are each called once per edge.

    Each tree builds one DisturbanceModel, and every edge with controls
    makes one `_kernels.run_steps` call, with the risk budget.  With
    Gaussian or degenerate heading noise that call also takes the tree's
    moment plan and the controls, and no edge calls
    DisturbanceModel.moment_table; with Uniform heading noise, which has no
    C trig path, each edge calls it once.  Every fourth kernel call whose
    edge would be accepted returns a non-finite first row instead, and the
    tree must reject it.
    """
    env = planner.parse_environment(presets.PLANNER_ENV)
    for heading, planned in ((presets.planner_noise()["wt"], True), (distmoments.Degenerate(0.0), True),
                             (distmoments.Uniform(-0.001, 0.001), False)):
        counts = collections.Counter()

        def count_edge(controls):
            counts["edges"] += len(controls) > 0
            return controls

        run_steps = _kernels.run_steps

        def budgeted(*args):
            counts["run_steps"] += 1
            assert len(args) == (21 if planned else 12) and args[11] == 0.1
            bad_t, bad_j, steps, risk = run_steps(*args)
            accepted = bad_t < 0 and risk <= args[11]
            if accepted and counts["run_steps"] % 4 == 0:
                counts["failed"] += 1
                return 1, 0, 0, args[10]  # within budget, so only the non-finite row rejects it
            counts["accepted"] += accepted
            return bad_t, bad_j, steps, risk

        _count_calls(counts, planner, "dubins_steer", monkeypatch, count_edge)
        _count_calls(counts, distmoments.DisturbanceModel, "__init__", monkeypatch)
        _count_calls(counts, distmoments.DisturbanceModel, "moment_table", monkeypatch)
        monkeypatch.setattr(_kernels, "run_steps", budgeted)
        noise = {**presets.planner_noise(), "wt": heading}
        nodes = sum(len(planner.build_rrt(env, dubins_reduced, noise, 0.1, 60, seed).nodes) - 1 for seed in (3, 4))
        monkeypatch.undo()
        assert counts["edges"] > 80 and counts["failed"] > 5, heading
        assert counts["__init__"] == 2, heading
        assert counts["run_steps"] == counts["edges"], heading
        assert counts["moment_table"] == (0 if planned else counts["edges"]), heading
        assert nodes == counts["accepted"], heading


def test_build_rrt_runs_each_edge_in_one_budgeted_kernel_call(dubins_reduced, monkeypatch):
    """One `_kernels.run_steps` call per edge gives what `stochastic_steer` and `trajectory_risk` give.

    The call holds the edge's moment table and term table where the tracer's
    term-step count reads them, and the parent's risk.  Some edges stop
    before their last step; each accepted node is, bit for bit, the one-off
    edge path's arrival state and its parent's risk plus that path's bound.
    """
    calls = []
    run_steps = _kernels.run_steps

    def recording(*args):
        calls.append((args, run_steps(*args)))
        return calls[-1][1]

    monkeypatch.setattr(_kernels, "run_steps", recording)
    env = planner.parse_environment(presets.PLANNER_ENV)
    result = planner.build_rrt(env, dubins_reduced, presets.planner_noise(), 0.1, 60, 3)
    monkeypatch.undo()
    assert len(calls) > 40
    for args, (bad_t, _, steps, risk) in calls:
        assert args[2] is dubins_reduced.term_table.target and steps <= args[1].shape[0] == args[6].shape[0] - 1
    assert any(steps < args[1].shape[0] for args, (_, _, steps, _) in calls)
    model = distmoments.DisturbanceModel(dubins_reduced, presets.planner_noise())
    assert len(result.nodes) > 10
    for node in result.nodes[1:]:
        parent = result.nodes[node.parent]
        traj = planner.stochastic_steer(parent.moment_state, node.controls, dubins_reduced, model)
        assert node.moment_state.values.tobytes() == traj.values[-1].tobytes()
        assert node.moment_state.time == traj.n_steps
        assert node.risk_to_node == parent.risk_to_node + planner.trajectory_risk(traj, env)


def test_mc_simulate_evaluates_each_update_once_per_step_and_batch(dubins_spec, dubins_system, monkeypatch):
    """The tracer's sysspec.evaluate span: one call per state variable, per step, per batch."""
    counts = collections.Counter()
    _count_calls(counts, sysspec, "evaluate", monkeypatch)
    model = distmoments.DisturbanceModel(dubins_system, dubins_spec.distributions)
    x0 = {"x": 0.0, "y": 0.0, "v": 1.0, "theta": 0.3}
    oracle.mc_simulate(dubins_spec, dubins_system, model, x0, 4, 250, 5, batch_size=100)
    assert counts["evaluate"] == len(dubins_spec.state_vars) * 4 * 3


# momentprop.__all__ as released.  A name added or removed here is an API change: list it in the README.
PUBLIC_API = [
    "BasisExplosionError", "Beta", "Degenerate", "DependenceGraph", "DisturbanceModel", "Gaussian", "MomentBasis",
    "MomentState", "MomentStateSystem", "MomentTrajectory", "MomentUpdateForm", "MultiIndex", "Polynomial",
    "PolynomialSystem", "PropagationError", "SpecError", "SystemSpec", "Uniform", "UnsupportedMomentError", "char_fn",
    "compile_moment_system", "compiler", "components_of_support", "degree_vector", "distmoments",
    "init_deterministic", "ltv_matrices", "mean_cov", "monomial_name", "parse_spec", "polyring", "propagate",
    "propagator", "raw_moment", "sysspec", "tables", "trig_encode", "trig_moment", "validate_independence",
]


def test_public_api_is_pinned():
    assert sorted(momentprop.__all__) == PUBLIC_API
