"""The benchmark's tracer must still find every library function it wraps.

The public API is pinned, so that it changes only on purpose.
"""

import collections
import importlib.util
from pathlib import Path

import momentprop
from momentprop import _kernels, distmoments, oracle, planner, presets, propagator, sysspec

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


def test_planner_seams_run_once_per_edge(dubins_reduced, monkeypatch):
    """The per-edge functions the tracer and the reference test replace are each called once per edge.

    Each tree builds one DisturbanceModel.  Every edge with controls calls
    planner.propagate and DisturbanceModel.moment_table once; every edge
    whose propagation does not fail is then scored by planner.trajectory_risk.
    Every fourth propagation is made to fail after it runs, to exercise the
    rejection path.
    """
    counts = collections.Counter()

    def counting(owner, name, check=None):
        original = getattr(owner, name)

        def wrapper(*args, **kwargs):
            counts[name] += 1
            result = original(*args, **kwargs)
            return result if check is None else check(result)

        monkeypatch.setattr(owner, name, wrapper)

    def fail_every_fourth(traj):
        if counts["propagate"] % 4 == 0:
            counts["failed"] += 1
            raise propagator.PropagationError("injected")
        return traj

    def count_edge(controls):
        counts["edges"] += len(controls) > 0
        return controls

    counting(planner, "dubins_steer", count_edge)
    counting(distmoments.DisturbanceModel, "__init__")
    counting(planner, "propagate", fail_every_fourth)
    counting(distmoments.DisturbanceModel, "moment_table")
    counting(planner, "trajectory_risk")
    env = planner.parse_environment(presets.PLANNER_ENV)
    for seed in (3, 4):
        planner.build_rrt(env, dubins_reduced, presets.planner_noise(), 0.1, 60, seed)
    assert counts["edges"] > 80 and counts["failed"] > 20
    assert counts["__init__"] == 2
    assert counts["propagate"] == counts["moment_table"] == counts["edges"]
    assert counts["trajectory_risk"] == counts["edges"] - counts["failed"]


def _count_calls(counts, owner, name, monkeypatch):
    """Count the calls to `owner.name` in `counts[name]`, until `monkeypatch` undoes it."""
    original = getattr(owner, name)

    def wrapper(*args, **kwargs):
        counts[name] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, wrapper)


def test_build_rrt_propagates_each_edge_through_stochastic_steer(dubins_reduced, monkeypatch):
    """The tracer's planner.stochastic_steer span: one call for each edge that has controls."""
    counts = collections.Counter()
    steer = planner.dubins_steer

    def count_edge(*args):
        controls = steer(*args)
        counts["edges"] += len(controls) > 0
        return controls

    monkeypatch.setattr(planner, "dubins_steer", count_edge)
    _count_calls(counts, planner, "stochastic_steer", monkeypatch)
    env = planner.parse_environment(presets.PLANNER_ENV)
    for seed in (3, 4):
        planner.build_rrt(env, dubins_reduced, presets.planner_noise(), 0.1, 60, seed)
    assert counts["edges"] > 80
    assert counts["stochastic_steer"] == counts["edges"]


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
