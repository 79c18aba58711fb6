import logging
import math
import re
import sys
import sysconfig
import tempfile
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from momentprop import _kernels, compiler, presets, propagator
from momentprop.compiler import compile_moment_system
from momentprop.distmoments import Degenerate, DisturbanceModel, Gaussian
from momentprop.polyring import MultiIndex, Polynomial
from momentprop.propagator import (
    PropagationError,
    init_deterministic,
    mean_cov,
    propagate,
    step,
    trajectory_to_csv,
)
from momentprop.sysspec import DependenceGraph, PolynomialSystem

from randsys import monomial_arrays, poly_eval_arrays, random_system


@pytest.fixture(scope="module")
def walk():
    joint = ("x", "w")
    x, w = Polynomial.variables(joint)
    system = PolynomialSystem(
        vars=("x",), dist_vars=("w",), f=(x + w,), graph=DependenceGraph.complete(("x",))
    )
    return compile_moment_system(system, [MultiIndex((1,)), MultiIndex((2,))])


class TestInit:
    def test_point_mass_moments(self, dubins_reduced):
        state = init_deterministic(dubins_reduced, {"x": 0, "y": 0, "v": 1, "theta": 0.0})
        by_name = dict(zip(dubins_reduced.moment_names(), state.values))
        assert by_name["x"] == 0.0
        assert by_name["v^2"] == 1.0
        assert by_name["c_theta"] == 1.0
        assert by_name["c_theta*s_theta"] == 0.0
        assert by_name["x*v*c_theta"] == 0.0

    def test_zero_vector(self, dubins_reduced):
        state = init_deterministic(
            dubins_reduced, {"x": 0, "y": 0, "v": 0, "c_theta": 1.0, "s_theta": 0.0}
        )
        by_name = dict(zip(dubins_reduced.moment_names(), state.values))
        nonzero = {name for name, v in by_name.items() if v != 0.0}
        assert nonzero == {"c_theta", "c_theta^2"}

    def test_inconsistent_trig_pair_rejected(self, dubins_reduced):
        with pytest.raises(ValueError, match="trig pair"):
            init_deterministic(
                dubins_reduced, {"x": 0, "y": 0, "v": 1, "c_theta": 0.5, "s_theta": 0.5}
            )

    def test_missing_variable(self, dubins_reduced):
        with pytest.raises(KeyError):
            init_deterministic(dubins_reduced, {"x": 0, "y": 0, "theta": 0})


class TestStep:
    def test_variance_adds(self, walk):
        model = DisturbanceModel(walk, {"w": Gaussian(0.0, 1.0)})
        state = init_deterministic(walk, {"x": 1.0})
        out = step(walk, state, model)
        by_name = dict(zip(walk.moment_names(), out.values))
        assert by_name["x"] == pytest.approx(1.0)
        assert by_name["x^2"] == pytest.approx(2.0)
        assert out.time == 1

    def test_degenerate_equals_simulation(self, walk):
        model = DisturbanceModel(walk, {"w": Degenerate(0.3)})
        out = step(walk, init_deterministic(walk, {"x": 0.5}), model)
        by_name = dict(zip(walk.moment_names(), out.values))
        assert by_name["x"] == pytest.approx(0.8)
        assert by_name["x^2"] == pytest.approx(0.64)

    def test_dubins_quarter_turn(self, dubins_reduced):
        model = DisturbanceModel(
            dubins_reduced, {"wv": Degenerate(0.0), "wt": Degenerate(math.pi / 2)}
        )
        state = init_deterministic(dubins_reduced, {"x": 0, "y": 0, "v": 1, "theta": 0.0})
        out = step(dubins_reduced, state, model)
        by_name = dict(zip(dubins_reduced.moment_names(), out.values))
        assert by_name["x"] == pytest.approx(1.0)
        assert by_name["y"] == pytest.approx(0.0, abs=1e-15)
        assert by_name["c_theta"] == pytest.approx(0.0, abs=1e-15)
        assert by_name["s_theta"] == pytest.approx(1.0)

    def test_step_is_one_step_propagate_at_state_time(self, dubins_reduced):
        model = DisturbanceModel(
            dubins_reduced, {"wv": Gaussian(0.0, 1e-4), "wt": Gaussian(0.0, 1e-2)},
            shifts={"wt": [0.0, 0.3, -0.2]},
        )
        start = init_deterministic(dubins_reduced, {"x": 0, "y": 0, "v": 1, "theta": 0.2})
        state = propagator.MomentState(start.values, 1)
        out = step(dubins_reduced, state, model)
        assert out.time == 2
        assert np.array_equal(out.values, propagate(dubins_reduced, state, model, 2).values[1])
        with pytest.raises(IndexError):
            step(dubins_reduced, propagator.MomentState(start.values, 3), model)

    def test_step_overflow_raises(self, walk):
        model = DisturbanceModel(walk, {"w": Degenerate(1e154)})
        with pytest.raises(PropagationError, match=r"E\[x\^2\] became non-finite at step 1"):
            step(walk, init_deterministic(walk, {"x": 1e154}), model)


class TestPropagate:
    def test_zero_steps(self, walk):
        model = DisturbanceModel(walk, {"w": Gaussian(0, 1)})
        init = init_deterministic(walk, {"x": 2.0})
        traj = propagate(walk, init, model, 0)
        assert traj.n_steps == 0
        assert np.array_equal(traj.values[0], init.values)

    def test_long_random_walk(self, walk):
        sigma2 = 0.25
        model = DisturbanceModel(walk, {"w": Gaussian(0.0, sigma2)})
        init = init_deterministic(walk, {"x": 1.5})
        n = 10_000
        traj = propagate(walk, init, model, n)
        assert traj.moment_series("x")[-1] == pytest.approx(1.5, rel=1e-9)
        expected = 1.5**2 + n * sigma2
        assert traj.moment_series("x^2")[-1] == pytest.approx(expected, rel=1e-9)

    def test_degenerate_matches_deterministic_simulation(self):
        """All basis monomials must track the simulated point over 1000 steps.

        Stable two-state linear map (spectral radius ~ 0.56); the oracle is
        an exact rational simulation of the same dynamics.
        """
        joint = ("a", "b", "u", "w")
        a, b, u, w = Polynomial.variables(joint)
        f = (
            a * Fraction(1, 2) + b * Fraction(1, 4) + u,
            -a * Fraction(1, 4) + b * Fraction(1, 2) + w,
        )
        system = PolynomialSystem(
            vars=("a", "b"), dist_vars=("u", "w"), f=f,
            graph=DependenceGraph.complete(("a", "b")),
        )
        seed = [MultiIndex((2, 0)), MultiIndex((1, 1)), MultiIndex((0, 2))]
        msys = compile_moment_system(system, seed)
        w_values = {"u": Fraction(1, 8), "w": Fraction(-1, 4)}
        model = DisturbanceModel(
            msys, {name: Degenerate(float(v)) for name, v in w_values.items()}
        )
        init = init_deterministic(msys, {"a": 0.5, "b": 0.5})
        traj = propagate(msys, init, model, 1000)
        point_t = {"a": Fraction(1, 2), "b": Fraction(1, 2)}
        for t in range(1, 1001):
            env = {**point_t, **w_values}
            point_t = {v: p.evaluate(env) for v, p in zip(system.vars, f)}
            if t in (1, 10, 100, 1000):
                for i, alpha in enumerate(msys.basis):
                    expected = Fraction(1)
                    for v, e in zip(system.vars, alpha):
                        expected *= point_t[v] ** e
                    got = traj.values[t, i]
                    scale = max(1.0, abs(float(expected)))
                    assert abs(got - float(expected)) <= 1e-10 * scale

    def test_non_finite_detection(self):
        # x' = 2x with E[x] = 1 doubles forever; x' = x + x gives overflow past ~2^1024
        joint = ("x", "w")
        x, w = Polynomial.variables(joint)
        system = PolynomialSystem(
            vars=("x",), dist_vars=("w",), f=(2 * x + w,),
            graph=DependenceGraph.complete(("x",)),
        )
        msys = compile_moment_system(system, [MultiIndex((1,))])
        model = DisturbanceModel(msys, {"w": Degenerate(0.0)})
        init = init_deterministic(msys, {"x": 1.0})
        with pytest.raises(PropagationError, match=r"E\[x\]"):
            propagate(msys, init, model, 5000)

    def test_time_varying_shifts(self, dubins_reduced):
        controls = np.array([0.1, -0.2, 0.3])
        model = DisturbanceModel(
            dubins_reduced,
            {"wv": Degenerate(0.0), "wt": Degenerate(0.0)},
            shifts={"wt": controls},
        )
        init = init_deterministic(dubins_reduced, {"x": 0, "y": 0, "v": 1, "theta": 0.0})
        traj = propagate(dubins_reduced, init, model, 3)
        heading = np.cumsum(controls)
        assert traj.moment_series("c_theta")[1:] == pytest.approx(np.cos(heading), abs=1e-12)
        assert traj.moment_series("s_theta")[1:] == pytest.approx(np.sin(heading), abs=1e-12)

    def test_zero_shifts_equal_stationary(self, dubins_reduced):
        init = init_deterministic(dubins_reduced, {"x": 0.3, "y": -1, "v": 1.2, "theta": 0.4})
        stationary = DisturbanceModel(dubins_reduced, presets.benchmark_noise())
        zero = np.zeros(1000)
        shifted = DisturbanceModel(dubins_reduced, presets.benchmark_noise(), shifts={"wt": zero, "wv": zero})
        expected = propagate(dubins_reduced, init, stationary, 1000).values
        got = propagate(dubins_reduced, init, shifted, 1000).values
        assert np.array_equal(got.view(np.int64), expected.view(np.int64))


class TestMeanCov:
    def test_point_mass_covariance_zero(self, dubins_reduced):
        init = init_deterministic(dubins_reduced, {"x": 0.3, "y": -1, "v": 1, "theta": 0.2})
        traj = propagate(
            dubins_reduced,
            init,
            DisturbanceModel(dubins_reduced, {"wv": Degenerate(0), "wt": Degenerate(0)}),
            0,
        )
        means, covs = mean_cov(traj, ("x", "y"))
        assert means[0] == pytest.approx([0.3, -1.0])
        assert covs[0] == pytest.approx(np.zeros((2, 2)), abs=1e-15)

    def test_identity_covariance_reconstruction(self, dubins_reduced):
        values = np.zeros(len(dubins_reduced.basis))
        names = dubins_reduced.moment_names()
        for name, v in {"x": 0.0, "y": 0.0, "x^2": 1.0, "y^2": 1.0, "x*y": 0.0}.items():
            values[names.index(name)] = v
        traj = propagator.MomentTrajectory(dubins_reduced, values.reshape(1, -1))
        _, covs = mean_cov(traj, ("x", "y"))
        assert covs[0] == pytest.approx(np.eye(2))

    def test_missing_moments_rejected(self, walk):
        init = init_deterministic(walk, {"x": 1.0})
        traj = propagate(walk, init, DisturbanceModel(walk, {"w": Degenerate(0)}), 0)
        with pytest.raises(KeyError):
            mean_cov(traj, ("x", "y"))

    @pytest.mark.parametrize(
        "state, seed, names, missing",
        [
            (("b", "a"), [(0, 1)], ("b", "a"), "E[b]"),
            (("x", "y"), [(1, 0), (0, 1), (2, 0), (0, 2)], ("x", "y"), "E[x*y]"),
        ],
    )
    def test_missing_moment_named(self, state, seed, names, missing):
        joint = (*state, "w")
        p, q, w = Polynomial.variables(joint)
        system = PolynomialSystem(
            vars=state, dist_vars=("w",), f=(p + w, q + w), graph=DependenceGraph.complete(state)
        )
        msys = compile_moment_system(system, [MultiIndex(mi) for mi in seed])
        traj = propagator.MomentTrajectory(msys, np.zeros((1, len(msys.basis))))
        with pytest.raises(KeyError, match=re.escape(f"basis lacks the moment {missing}")):
            mean_cov(traj, names)

    def test_psd_along_benchmark_run(self, dubins_reduced):
        from momentprop import presets

        model = DisturbanceModel(dubins_reduced, presets.benchmark_noise())
        init = init_deterministic(dubins_reduced, {"x": 0, "y": 0, "v": 1, "theta": 0})
        traj = propagate(dubins_reduced, init, model, 200)
        _, covs = mean_cov(traj, ("x", "y"))
        eigs = np.linalg.eigvalsh(covs)
        assert eigs.min() >= -1e-9
        # second-moment consistency: Var >= 0 within slack
        assert (covs[:, 0, 0] >= -1e-9).all() and (covs[:, 1, 1] >= -1e-9).all()


class TestCsv:
    def test_header_and_rows(self, walk):
        init = init_deterministic(walk, {"x": 1.0})
        traj = propagate(walk, init, DisturbanceModel(walk, {"w": Degenerate(0.5)}), 2)
        text = trajectory_to_csv(traj, {"seed": "7"})
        lines = text.strip().splitlines()
        assert lines[0] == "# seed: 7"
        assert lines[1] == "t," + ",".join(walk.moment_names())
        assert lines[2].startswith("0,")
        assert len(lines) == 2 + 3

    def test_round_trip_values(self, walk):
        init = init_deterministic(walk, {"x": 1.0 / 3.0})
        traj = propagate(walk, init, DisturbanceModel(walk, {"w": Degenerate(0.1)}), 3)
        lines = trajectory_to_csv(traj).strip().splitlines()
        parsed = np.array([[float(v) for v in line.split(",")[1:]] for line in lines[1:]])
        assert np.array_equal(parsed, traj.values)


def oracle_systems():
    """(msys, model, init) of ten seeded random systems with linear dynamics."""
    rng = np.random.default_rng(41)
    for _ in range(10):
        system = random_system(rng)
        f_linear = tuple(
            p if p.degree() <= 1 else Polynomial.constant(p.vars, 1) for p in system.f
        )
        system = PolynomialSystem(
            vars=system.vars, dist_vars=system.dist_vars, f=f_linear, graph=system.graph
        )
        msys = compile_moment_system(system, [MultiIndex.unit(len(system.vars), 0, 2)])
        model = DisturbanceModel(
            msys, {w: Gaussian(0.1, 0.04) for w in system.dist_vars}
        )
        yield msys, model, init_deterministic(msys, {v: 0.7 for v in system.vars})


class TestKernelOracle:
    def test_matches_direct_numpy_evaluation(self):
        """Kernel result must equal a straightforward per-step reevaluation."""
        for msys, model, init in oracle_systems():
            traj = propagate(msys, init, model, 5)
            # direct evaluation of the update forms
            values = init.values.copy()
            for t in range(5):
                new = np.zeros_like(values)
                for i, form in enumerate(msys.forms):
                    for term in form.terms:
                        v = float(term.coeff) * float(model.moment(term.dist_index, t))
                        for factor in term.state_factors:
                            v *= values[msys.basis.index_of(factor)]
                        new[i] += v
                values = new
            assert traj.values[5] == pytest.approx(values, rel=1e-12, abs=1e-14)


def run_both(msys, values0, table):
    """((bad_t, bad_j), out) from the loaded backend and from the Python loop."""
    arrays = msys.term_table
    results = []
    for run in (_kernels.run_steps, _kernels.run_steps_python):
        out = np.full((table.shape[0] + 1, len(values0)), 7.0)
        with np.errstate(over="ignore", invalid="ignore"):
            bad = run(values0, table, arrays.target, arrays.coeff, arrays.req, arrays.fact, out)
        results.append((bad, out))
    return results


def assert_bit_identical(results):
    (bad, out), (ref_bad, ref_out) = results
    assert bad == ref_bad
    assert np.array_equal(out.view(np.int64), ref_out.view(np.int64))


# Every arithmetic corner the kernel meets: signed zeros, subnormals, the
# largest finite magnitudes, infinities and NaN.
SPECIAL_FLOATS = (0.0, -0.0, 5e-324, -5e-324, 1.1e-308, 1.7976931348623157e308, -1.7976931348623157e308,
                  math.inf, -math.inf, math.nan)
kernel_floats = st.one_of(st.sampled_from(SPECIAL_FLOATS), st.floats(-4.0, 4.0), st.floats(width=64))


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_kernel_matches_python_loop_on_any_term_table(data):
    """Term tables the compiler never emits: unsorted targets (a target split over
    several runs), 0 to 5 factor slots with -1 pads anywhere (4 and 5 take the
    kernel's generic loop), stride-0 and strided tables, and special values everywhere."""
    n, n_req = data.draw(st.integers(1, 5), label="n"), data.draw(st.integers(1, 4), label="n_req")
    n_terms, max_f = data.draw(st.integers(0, 12), label="n_terms"), data.draw(st.integers(0, 5), label="max_f")
    n_steps = data.draw(st.integers(0, 6), label="n_steps")

    def ints(lo, hi, size):
        return np.array(data.draw(st.lists(st.integers(lo, hi), min_size=size, max_size=size)), dtype=np.int64)

    def floats(size):
        return np.array(data.draw(st.lists(kernel_floats, min_size=size, max_size=size)), dtype=np.float64)

    target, req = ints(0, n - 1, n_terms), ints(0, n_req - 1, n_terms)
    fact = ints(-1, n - 1, n_terms * max_f).reshape(n_terms, max_f)
    coeff, values0 = floats(n_terms), floats(n)
    layout = data.draw(st.sampled_from(["contiguous", "stride 0", "every other row", "every other column"]))
    if layout == "stride 0":
        table = np.broadcast_to(floats(n_req), (n_steps, n_req))
    elif layout == "every other row":
        table = floats(2 * n_steps * n_req).reshape(2 * n_steps, n_req)[::2]
    elif layout == "every other column":
        table = floats(2 * n_steps * n_req).reshape(n_steps, 2 * n_req)[:, ::2]
    else:
        table = floats(n_steps * n_req).reshape(n_steps, n_req)
    results = []
    for run in (_kernels.run_steps, _kernels.run_steps_python):
        out = np.full((n_steps + 1, n), 7.0)
        results.append((run(values0, table, target, coeff, req, fact, out), out))
    (bad, out), (ref_bad, ref_out) = results
    assert bad == ref_bad
    # Bit for bit, except that any NaN equals any NaN: when both operands are NaN,
    # IEEE 754 leaves open whose payload the result carries, and the C compiler and
    # numpy may order the operands of + and * differently.
    assert np.array_equal(np.isnan(out), np.isnan(ref_out))
    assert np.array_equal(np.where(np.isnan(out), 0.0, out).view(np.int64),
                          np.where(np.isnan(ref_out), 0.0, ref_out).view(np.int64))


@pytest.mark.skipif(_kernels.BACKEND == "python", reason="no compiled backend loaded")
class TestCompiledKernelAgreement:
    """The compiled backend must reproduce the Python loop bit for bit."""

    def test_dubins_broadcast_row(self, dubins_reduced):
        model = DisturbanceModel(dubins_reduced, presets.benchmark_noise())
        init = init_deterministic(dubins_reduced, {"x": 0.3, "y": -1, "v": 1.2, "theta": 0.4})
        requirements = dubins_reduced.dist_requirements
        row = model.moment_table(requirements, 1)
        table = np.broadcast_to(row, (200, row.shape[1]))
        assert_bit_identical(run_both(dubins_reduced, init.values, table))

    def test_dubins_shifted_table(self, dubins_reduced):
        shifts = np.linspace(-0.3, 0.3, 60)
        model = DisturbanceModel(
            dubins_reduced, presets.benchmark_noise(), shifts={"wt": shifts, "wv": shifts / 10}
        )
        init = init_deterministic(dubins_reduced, {"x": 0.3, "y": -1, "v": 1.2, "theta": 0.4})
        requirements = dubins_reduced.dist_requirements
        table = model.moment_table(requirements, 60)
        assert_bit_identical(run_both(dubins_reduced, init.values, table))

    def test_random_systems(self):
        for msys, model, init in oracle_systems():
            requirements = msys.dist_requirements
            table = model.moment_table(requirements, 5)
            assert_bit_identical(run_both(msys, init.values, table))

    def test_overflow_reports_same_step(self):
        x, w = Polynomial.variables(("x", "w"))
        system = PolynomialSystem(
            vars=("x",), dist_vars=("w",), f=(2 * x + w,),
            graph=DependenceGraph.complete(("x",)),
        )
        msys = compile_moment_system(system, [MultiIndex((1,))])
        model = DisturbanceModel(msys, {"w": Degenerate(0.0)})
        init = init_deterministic(msys, {"x": 1.0})
        requirements = msys.dist_requirements
        table = model.moment_table(requirements, 5000)
        results = run_both(msys, init.values, table)
        assert results[1][0] != (-1, -1)
        assert_bit_identical(results)


@pytest.mark.skipif(_kernels.BACKEND != "c", reason="C backend not loaded")
class TestCKernel:
    def test_builds_into_cache_dir(self, monkeypatch, tmp_path, walk):
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
        run, _ = _kernels._load_c()
        (lib,) = (tmp_path / "momentprop").iterdir()
        assert lib.name.startswith("run_steps-") and lib.suffix == ".so"
        arrays = walk.term_table
        args = (np.array([0.5, 0.25]), np.array([[1.0, 0.1, 0.02]] * 3),
                arrays.target, arrays.coeff, arrays.req, arrays.fact)
        out, ref = np.empty((4, 2)), np.empty((4, 2))
        assert run(*args, out) == _kernels.run_steps_python(*args, ref) == (-1, -1)
        assert np.array_equal(out, ref)

    def test_rejects_bad_index_and_shape(self, walk):
        arrays = walk.term_table
        table = np.ones((3, len(walk.dist_requirements)))
        values0 = np.ones(len(walk.basis))
        out = np.empty((4, len(walk.basis)))
        bad_fact = arrays.fact.copy()
        bad_fact[0, 0] = len(walk.basis)
        with pytest.raises(IndexError):
            _kernels.run_steps(values0, table, arrays.target, arrays.coeff, arrays.req, bad_fact, out)
        with pytest.raises(ValueError):
            _kernels.run_steps(values0, table, arrays.target, arrays.coeff, arrays.req,
                               arrays.fact, out[:3])


@pytest.mark.skipif(_kernels.BACKEND != "c", reason="C backend not loaded")
def test_python_fallback_without_compiler(monkeypatch, dubins_reduced):
    model = DisturbanceModel(dubins_reduced, presets.benchmark_noise())
    init = init_deterministic(dubins_reduced, {"x": 0.3, "y": -1, "v": 1.2, "theta": 0.4})
    compiled = propagate(dubins_reduced, init, model, 200).values
    monkeypatch.setattr(_kernels.shutil, "which", lambda name: None)
    _kernels._backend.cache_clear()
    try:
        assert _kernels.BACKEND == "python"
        fallback = propagate(dubins_reduced, init, model, 200).values
    finally:
        monkeypatch.undo()
        _kernels._backend.cache_clear()
    assert np.array_equal(fallback.view(np.int64), compiled.view(np.int64))
    assert _kernels.BACKEND == "c"


@pytest.mark.skipif(_kernels.BACKEND != "c", reason="C backend not loaded")
def test_unwritable_cache_still_loads_the_c_kernel(monkeypatch, tmp_path, walk):
    """A cache path that cannot be a directory: the kernel is built and loaded from a temporary directory."""
    blocker = tmp_path / "not-a-directory"
    blocker.write_text("")
    scratch = tmp_path / "tmp"
    scratch.mkdir()
    monkeypatch.setenv("XDG_CACHE_HOME", str(blocker))
    monkeypatch.setattr(tempfile, "tempdir", str(scratch))
    _kernels._backend.cache_clear()
    try:
        assert _kernels.BACKEND == "c"
        arrays = walk.term_table
        args = (np.array([0.5, 0.25]), np.array([[1.0, 0.1, 0.02]] * 3),
                arrays.target, arrays.coeff, arrays.req, arrays.fact)
        out, ref = np.empty((4, 2)), np.empty((4, 2))
        assert _kernels.run_steps(*args, out) == _kernels.run_steps_python(*args, ref) == (-1, -1)
        assert np.array_equal(out, ref)
    finally:
        monkeypatch.undo()
        _kernels._backend.cache_clear()
    assert blocker.read_text() == "" and not any(scratch.iterdir())  # the build directory is gone


@pytest.mark.skipif(_kernels.BACKEND != "c", reason="C backend not loaded")
def test_python_fallback_without_headers(monkeypatch, tmp_path, caplog, dubins_reduced):
    """No Python.h: the warning names the header and where it was looked for, and the Python loop is used."""
    model = DisturbanceModel(dubins_reduced, presets.benchmark_noise())
    init = init_deterministic(dubins_reduced, {"x": 0.3, "y": -1, "v": 1.2, "theta": 0.4})
    compiled = propagate(dubins_reduced, init, model, 200).values
    empty = tmp_path / "include"
    empty.mkdir()
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
    monkeypatch.setattr(sysconfig, "get_paths", lambda: {"include": str(empty)})
    _kernels._backend.cache_clear()
    try:
        with caplog.at_level(logging.WARNING, logger=_kernels.__name__):
            assert _kernels.BACKEND == "python"
        fallback = propagate(dubins_reduced, init, model, 200).values
    finally:
        monkeypatch.undo()
        _kernels._backend.cache_clear()
    assert f"Python.h is not in {empty}" in caplog.text
    assert np.array_equal(fallback.view(np.int64), compiled.view(np.int64))
    assert _kernels.BACKEND == "c"


@pytest.mark.skipif(_kernels.BACKEND != "c", reason="C backend not loaded")
def test_cache_name_carries_the_abi_tag(monkeypatch, tmp_path):
    """Interpreters with different ABI tags build and load different files."""
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    suffixes = (sysconfig.get_config_var("EXT_SUFFIX"), ".cpython-399-x86_64-linux-gnu.so")
    for suffix in suffixes:
        monkeypatch.setitem(sysconfig.get_config_vars(), "EXT_SUFFIX", suffix)
        _kernels._load_c()
    hashes = dict(re.fullmatch(r"run_steps-([0-9a-f]{16})(.+)", lib.name).group(2, 1)
                  for lib in (tmp_path / "momentprop").iterdir())
    assert sorted(hashes) == sorted(suffixes)
    assert len(set(hashes.values())) == 2  # the hash covers the tag too


@pytest.mark.skipif(_kernels.BACKEND != "c", reason="C backend not loaded")
def test_kernel_releases_buffers_on_every_path(walk):
    """Every array the kernel took a buffer of is released, whether the call returns or raises."""
    arrays = walk.term_table
    bad_fact = arrays.fact.copy()
    bad_fact[0, 0] = len(walk.basis)
    frozen = np.empty((4, 2))
    frozen.flags.writeable = False
    cases = ((arrays.fact, np.empty((4, 2)), None), (bad_fact, np.empty((4, 2)), IndexError),
             (arrays.fact, np.empty((3, 2)), ValueError), (arrays.fact, frozen, ValueError))
    for fact, out, expected in cases:
        args = (np.array([0.5, 0.25]), np.array([[1.0, 0.1, 0.02]] * 3),
                arrays.target, arrays.coeff, arrays.req, fact, out)
        before = [sys.getrefcount(arr) for arr in args]
        try:
            _kernels.run_steps(*args)
            raised = None
        except (IndexError, ValueError) as exc:
            raised = type(exc)
        assert raised is expected
        assert [sys.getrefcount(arr) for arr in args] == before


# Ordinary floats round in every product and sum; small halves make a face's mean exactly 0 often;
# special values reach every branch of the bound.
risk_floats = st.one_of(st.floats(-4.0, 4.0), st.sampled_from((0.0, -0.0, 0.5, -0.5, 1.0, -1.0, 2.0)), kernel_floats)
# A variance as the planner meets it: spread, exactly 0, or slightly negative from rounding.
risk_variances = st.one_of(st.floats(0.0, 0.5), st.sampled_from((0.0, -1e-13, 1e-13)))


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_risk_bound_matches_python_reference(data):
    """Any moments, faces and first faces: T = 0 to 6 steps, 0 to 3 obstacles (any starts, as
    np.fmin.reduceat takes them), NaN, infinities, -0.0, slightly negative variances, zero means."""
    n, n_steps = data.draw(st.integers(5, 7), label="n"), data.draw(st.integers(0, 6), label="T")
    positions = np.array(data.draw(st.lists(st.integers(0, n - 1), min_size=5, max_size=5)), dtype=np.int64)
    values = np.array(data.draw(st.lists(risk_floats, min_size=(n_steps + 1) * n, max_size=(n_steps + 1) * n)))
    values = values.reshape(n_steps + 1, n)
    for t in range(1, n_steps + 1):
        if data.draw(st.booleans(), label="second moments from a mean and a covariance"):
            mx, my = values[t, positions[:2]]
            s00, s11, r = data.draw(risk_variances), data.draw(risk_variances), data.draw(st.floats(-1.0, 1.0))
            s01 = r * math.sqrt(s00 * s11) if s00 > 0 and s11 > 0 else 0.0
            with np.errstate(over="ignore", invalid="ignore"):
                values[t, positions[2:]] = s00 + mx * mx, s01 + mx * my, s11 + my * my
    n_faces = data.draw(st.integers(0, 8), label="faces")
    ax, ay, b = np.empty(n_faces), np.empty(n_faces), np.empty(n_faces)
    for f in range(n_faces):
        if data.draw(st.booleans(), label="unit normal"):
            angle = data.draw(st.floats(0.0, 2 * math.pi))
            ax[f], ay[f], b[f] = math.cos(angle), math.sin(angle), data.draw(st.floats(-3.0, 3.0))
        else:
            ax[f], ay[f], b[f] = data.draw(risk_floats), data.draw(risk_floats), data.draw(risk_floats)
    with np.errstate(over="ignore", invalid="ignore"):
        faces = np.array([ax, ay, b, ax * ax, 2.0 * ax * ay, ay * ay])
    n_obs = data.draw(st.integers(min(n_faces, 1), min(n_faces, 3)), label="obstacles")
    face = st.integers(0, max(n_faces - 1, 0))
    if data.draw(st.booleans(), label="increasing starts"):
        starts = sorted(data.draw(st.sets(face, min_size=n_obs, max_size=n_obs)))
    else:
        starts = data.draw(st.lists(face, min_size=n_obs, max_size=n_obs))
    starts = np.array(starts, dtype=np.int64)
    got = _kernels.risk_bound(values, positions, faces, starts)
    assert type(got) is float
    assert got.hex() == _kernels.risk_bound_python(values, positions, faces, starts).hex()


@pytest.mark.skipif(_kernels.BACKEND != "c", reason="C backend not loaded")
def test_risk_bound_rejects_bad_input_and_releases_buffers():
    """Wrong dtypes, layouts, shapes and indices raise; every buffer taken is released either way."""
    values, positions = np.linspace(0.0, 1.0, 18).reshape(3, 6), np.arange(5, dtype=np.int64)
    faces, starts = np.ones((6, 4)), np.array([0, 2], dtype=np.int64)
    cases = {
        "valid": ((values, positions, faces, starts), None),
        "int32 positions": ((values, positions.astype(np.int32), faces, starts), TypeError),
        "float32 faces": ((values, positions, faces.astype(np.float32), starts), TypeError),
        "float starts": ((values, positions, faces, starts.astype(float)), TypeError),
        "Fortran-ordered values": ((np.asfortranarray(values), positions, faces, starts), TypeError),
        "a list": ((values, positions, faces, [0, 2]), TypeError),
        "1-d values": ((values[0], positions, faces, starts), ValueError),
        "4 positions": ((values, positions[:4], faces, starts), ValueError),
        "5 face rows": ((values, positions, faces[:5], starts), ValueError),
        "2-d starts": ((values, positions, faces, starts.reshape(1, 2)), ValueError),
        "position past the last moment": ((values, np.array([0, 1, 2, 3, 6]), faces, starts), IndexError),
        "negative position": ((values, np.array([-1, 1, 2, 3, 4]), faces, starts), IndexError),
        "start past the last face": ((values, positions, faces, np.array([0, 4])), IndexError),
        "negative start": ((values, positions, faces, np.array([-1, 2])), IndexError),
    }
    for name, (args, expected) in cases.items():
        before = [sys.getrefcount(arr) for arr in args]
        try:
            _kernels.risk_bound(*args)
            raised = None
        except (TypeError, ValueError, IndexError) as exc:
            raised = type(exc)
            assert str(exc).startswith("risk_bound: ") or name == "a list", name
        assert raised is expected, name
        assert [sys.getrefcount(arr) for arr in args] == before, name
    with pytest.raises(TypeError, match="takes 4 arguments"):
        _kernels._backend()[2](values, positions, faces)


def test_kernel_converts_odd_inputs(dubins_reduced):
    """Inputs the C loop cannot read in place (other dtypes, other layouts) give the reference's bits."""
    shifts = np.linspace(-0.3, 0.3, 30)
    model = DisturbanceModel(dubins_reduced, presets.benchmark_noise(), shifts={"wt": shifts, "wv": shifts / 10})
    init = init_deterministic(dubins_reduced, {"x": 0.3, "y": -1, "v": 1.2, "theta": 0.4})
    table = model.moment_table(dubins_reduced.dist_requirements, 30)
    terms = dubins_reduced.term_table

    def spread(arr):
        """The same entries, every other row of an array twice as long."""
        wide = np.zeros((2 * arr.shape[0], *arr.shape[1:]), arr.dtype)
        wide[::2] = arr
        return wide[::2]

    cases = {
        "int values0": (np.rint(init.values * 4).astype(np.int64), table, *terms),
        "float32 table": (init.values, table.astype(np.float32), *terms),
        "Fortran-ordered table": (init.values, np.asfortranarray(table), *terms),
        "column-strided table": (init.values, np.repeat(table, 2, axis=1)[:, ::2], *terms),
        "non-contiguous term arrays": (init.values, table, *map(spread, terms)),
        "Fortran-ordered fact": (init.values, table, *terms[:3], np.asfortranarray(terms[3])),
    }
    for name, args in cases.items():
        results = []
        for run in (_kernels.run_steps, _kernels.run_steps_python):
            out = np.full((31, len(dubins_reduced.basis)), 7.0)
            results.append((run(*args, out), out))
        assert results[0][0] == (-1, -1), name
        assert_bit_identical(results)


def test_wrong_length_initial_state_names_both_lengths(dubins_reduced):
    model = DisturbanceModel(dubins_reduced, presets.benchmark_noise())
    with pytest.raises(ValueError, match=r"^initial state has 19 moment values, but the system has 20 moments$"):
        propagate(dubins_reduced, propagator.MomentState(np.ones(19)), model, 10)
    with pytest.raises(ValueError, match=r"^initial state has shape \(1, 20\), but the system has 20 moments$"):
        propagate(dubins_reduced, propagator.MomentState(np.ones((1, 20))), model, 10)


def test_python_fallback_overflow_raises_without_warning(monkeypatch):
    """The suite turns RuntimeWarning into an error, so a warning before PropagationError fails here."""
    x, w = Polynomial.variables(("x", "w"))
    system = PolynomialSystem(
        vars=("x",), dist_vars=("w",), f=(2 * x + w,),
        graph=DependenceGraph.complete(("x",)),
    )
    msys = compile_moment_system(system, [MultiIndex((1,))])
    model = DisturbanceModel(msys, {"w": Degenerate(0.0)})
    init = init_deterministic(msys, {"x": 1.0})
    monkeypatch.setattr(_kernels.shutil, "which", lambda name: None)
    _kernels._backend.cache_clear()
    try:
        assert _kernels.BACKEND == "python"
        with pytest.raises(PropagationError, match=r"E\[x\] became non-finite at step 1024"):
            propagate(msys, init, model, 1100)
    finally:
        monkeypatch.undo()
        _kernels._backend.cache_clear()
