"""The benchmark's tracer must still find every library function it wraps.

The public API is pinned, so that it changes only on purpose.
"""

import collections
import importlib.util
from pathlib import Path

import numpy as np

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
    """The planner's seams run once per tree: each tree builds one DisturbanceModel and makes one `_kernels.grow_tree`
    call, which runs every edge; no edge calls `dubins_steer`, `moment_table` or `run_steps` from Python.  Gaussian,
    degenerate and Uniform heading noise take the same path, and every edge the call accepts becomes a node."""
    env = planner.parse_environment(presets.PLANNER_ENV)
    for heading in (presets.planner_noise()["wt"], distmoments.Degenerate(0.0), distmoments.Uniform(-0.001, 0.001)):
        counts = collections.Counter()
        grow_tree = _kernels.grow_tree

        def counted(*args):
            counts["grow_tree"] += 1
            controls = grow_tree(*args)
            counts["accepted"] += len(controls)
            counts["edges"] += int(np.isin(args[-1][:, 0], (0, 3, 4)).sum())  # the samples with controls
            return controls

        for owner, name in ((planner, "dubins_steer"), (_kernels, "run_steps"), (distmoments.DisturbanceModel,
                            "__init__"), (distmoments.DisturbanceModel, "moment_table")):
            _count_calls(counts, owner, name, monkeypatch)
        monkeypatch.setattr(_kernels, "grow_tree", counted)
        noise = {**presets.planner_noise(), "wt": heading}
        nodes = sum(len(planner.build_rrt(env, dubins_reduced, noise, 0.1, 60, seed).nodes) - 1 for seed in (3, 4))
        monkeypatch.undo()
        assert counts["edges"] > 80 and counts["__init__"] == counts["grow_tree"] == 2, heading
        assert counts["dubins_steer"] == counts["run_steps"] == counts["moment_table"] == 0, heading
        assert nodes == counts["accepted"] > 10, heading


def test_build_rrt_grows_the_tree_in_one_kernel_call(dubins_reduced, monkeypatch):
    """One `_kernels.grow_tree` call gives what `stochastic_steer` and `trajectory_risk` give, edge by edge.

    The call holds the tree's term table, the samples and the tree's nodes
    in rows; some edges stop before their last step (cause 4 with fewer
    steps than the edge has); each accepted node is, bit for bit, the one-off
    edge path's arrival state and its parent's risk plus that path's bound.
    """
    calls = []
    grow_tree = _kernels.grow_tree
    monkeypatch.setattr(_kernels, "grow_tree", lambda *args: calls.append(args) or grow_tree(*args))
    env = planner.parse_environment(presets.PLANNER_ENV)
    result = planner.build_rrt(env, dubins_reduced, presets.planner_noise(), 0.1, 60, 3)
    monkeypatch.undo()
    ((samples, table, target, *_),) = calls
    assert target is dubins_reduced.term_table.target and samples.shape == (60, 3)
    assert np.array_equal(result.outcomes, calls[0][-1]) and result.outcomes.shape == (60, 2)
    assert ((result.outcomes[:, 0] == 4) & (result.outcomes[:, 1] < 40)).any()
    model = distmoments.DisturbanceModel(dubins_reduced, presets.planner_noise())
    assert len(result.nodes) > 10
    for i, node in enumerate(result.nodes[1:], 1):
        parent = result.nodes[node.parent]
        traj = planner.stochastic_steer(parent.moments, node.controls, dubins_reduced, model)
        assert node.moments.tobytes() == traj.values[-1].tobytes() == table[i, 5:].tobytes()
        assert node.risk_to_node == parent.risk_to_node + planner.trajectory_risk(traj, env)


def test_mc_simulate_evaluates_each_update_once_per_step_and_batch(dubins_spec, dubins_system, monkeypatch):
    """The tracer's sysspec.evaluate span: one call per state variable, per step, per batch."""
    counts = collections.Counter()
    _count_calls(counts, sysspec, "evaluate", monkeypatch)
    model = distmoments.DisturbanceModel(dubins_system, dubins_spec.distributions)
    x0 = {"x": 0.0, "y": 0.0, "v": 1.0, "theta": 0.3}
    oracle.mc_simulate(dubins_spec, dubins_system, model, x0, 4, 250, 5, batch_size=100)
    assert counts["evaluate"] == len(dubins_spec.state_vars) * 4 * 3


# momentprop.__all__ as released.  A name added or removed here is an API change: record it in CHANGES.md, and a
# removed name in the README's table of removals.
PUBLIC_API = [
    "BasisExplosionError", "Beta", "Degenerate", "DependenceGraph", "DisturbanceModel", "Gaussian", "MomentBasis",
    "MomentStateSystem", "MomentTrajectory", "MomentUpdateForm", "MultiIndex", "Polynomial",
    "PolynomialSystem", "PropagationError", "SpecError", "SystemSpec", "Uniform", "UnsupportedMomentError", "char_fn",
    "compile_moment_system", "compiler", "components_of_support", "degree_vector", "distmoments",
    "init_deterministic", "ltv_matrices", "mean_cov", "monomial_name", "parse_spec", "polyring", "propagate",
    "propagator", "raw_moment", "sysspec", "tables", "trig_encode", "trig_moment", "validate_independence",
]


def test_public_api_is_pinned():
    assert sorted(momentprop.__all__) == PUBLIC_API
