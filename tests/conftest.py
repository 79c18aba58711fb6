import numpy as np
import pytest

from momentprop import _kernels, planner, presets
from momentprop.propagator import init_deterministic

import reference


@pytest.fixture(scope="session")
def dubins_reduced():
    return presets.compile_dubins(reduced=True)


@pytest.fixture(scope="session")
def dubins_unreduced():
    return presets.compile_dubins(reduced=False)


@pytest.fixture(scope="session")
def dubins_system():
    return presets.dubins_system()


@pytest.fixture(scope="session")
def dubins_spec():
    return presets.dubins_spec()


def unbind_kernels():
    """Unbind `_kernels.BACKEND` and the entry points, so that the next read of one loads the C module again."""
    for name in _kernels._BOUND:
        vars(_kernels).pop(name, None)


def use_kernel_twins(monkeypatch):
    """Set the twins from `reference` in place of `_kernels`' seven entry points, until `monkeypatch` undoes it."""
    twins = (reference.run_steps_python, reference.risk_bound_python, reference.steer_python,
             reference.grow_tree_python, reference.trig_moments_python, reference.record_moments_python,
             reference.uniform_samples_python)
    for name, twin in zip(_kernels._BOUND[1:], twins, strict=True):
        monkeypatch.setattr(_kernels, name, twin)


def grow_tree_arguments(msys, noise, samples, env=presets.PLANNER_ENV, epsilon=0.1, root=None):
    """The arguments `planner.build_rrt` passes to `_kernels.grow_tree` for `env` (text or Environment), with `samples`
    (a (k, 3) sequence) in place of its draws and the Dubins vehicle at rest at pose `root`, anywhere, in place of its
    start, as a list: fresh nodes (row 0 the root, the others 7.0) and outcomes (-7) come with it."""
    env = planner.parse_environment(env) if isinstance(env, str) else env
    captured = []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(_kernels, "grow_tree", lambda *args: captured.append(list(args)) or [])
        planner.build_rrt(env, msys, noise, epsilon, len(samples), 0)
    captured[0][0] = np.array(samples, dtype=float).reshape(-1, 3)
    captured[0][1][1:], captured[0][22][:] = 7.0, -7
    if root is not None:
        start = dict(zip(("x", "y", "theta"), root), v=planner.PlannerConfig().speed)
        captured[0][1][0, :3], captured[0][1][0, 5:] = root, init_deterministic(msys, start)
    return captured[0]


def grow_both(args):
    """`_kernels.grow_tree` and its twin on copies of the nodes and outcomes in `args`: (controls, nodes, outcomes) of
    each, after asserting that they agree bit for bit."""
    results = []
    for grow in (_kernels.grow_tree, reference.grow_tree_python):
        nodes, outcomes = args[1].copy(), np.full_like(args[-1], -7)
        controls = grow(*args[:1], nodes, *args[2:-1], outcomes)
        results.append((controls, nodes, outcomes))
    (c_controls, c_nodes, c_outcomes), (p_controls, p_nodes, p_outcomes) = results
    assert c_nodes.tobytes() == p_nodes.tobytes() and np.array_equal(c_outcomes, p_outcomes)
    assert [c.tobytes() for c in c_controls] == [c.tobytes() for c in p_controls]
    assert (c_outcomes[:, 0] == 0).sum() == len(c_controls)
    return results[0]
