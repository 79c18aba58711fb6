import inspect
import math
import os
import re
import shutil
import subprocess
import sys
import sysconfig
import tempfile
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from momentprop import _kernels, compiler, distmoments, planner, presets, propagator, sysspec
from momentprop.compiler import compile_moment_system
from momentprop.distmoments import Degenerate, DisturbanceModel, Gaussian
from momentprop.polyring import MultiIndex, Polynomial
from momentprop.propagator import (
    PropagationError,
    central_second_moments,
    init_deterministic,
    mean_cov,
    propagate,
    trajectory_to_csv,
)
from momentprop.sysspec import DependenceGraph, PolynomialSystem

from conftest import grow_both, grow_tree_arguments, unbind_kernels
from randsys import monomial_arrays, poly_eval_arrays, random_system
from reference import (
    evaluate_polynomial,
    grow_tree_python,
    moment,
    propagate_mp,
    risk_bound_python,
    run_steps_python,
    step,
    trig_moments_python,
)


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

    @pytest.mark.parametrize(
        "x0, expected",
        [
            ({"x": 1e200, "y": 1e100}, "moment E[x*y^2] became non-finite at step 0"),  # * overflows, ** does not
            ({"x": 1e100, "y": 1e200}, "moment E[x*y^2] became non-finite at step 0"),  # ** overflows
            ({"x": -1e200, "y": math.nan}, [math.nan, math.nan]),
            ({"x": -1e200, "y": math.inf}, [-math.inf, -math.inf]),
            ({"x": 2.0, "y": 3.0}, [18.0, 24.0]),
        ],
    )
    def test_overflow_from_finite_values_is_named(self, x0, expected):
        """Finite values whose moment overflows raise; a NaN or infinite value gives what * and C's pow give."""
        system = sysspec.trig_encode(sysspec.parse_spec("state x y\ndyn x' = x\ndyn y' = y\nmoments x*y^2 x^3*y\n"))
        msys = compile_moment_system(system, system.target_moments)
        assert msys.moment_names() == ("x*y^2", "x^3*y")
        if isinstance(expected, str):
            with pytest.raises(PropagationError, match=re.escape(expected) + "$"):
                init_deterministic(msys, x0)
        else:
            np.testing.assert_array_equal(init_deterministic(msys, x0).values, expected)


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
            point_t = {v: evaluate_polynomial(p, env) for v, p in zip(system.vars, f)}
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

    # Python's and numpy's scalar `** 2` call the C library's pow(), which may round a square otherwise
    # than x * x (glibc does for these two examples); numpy's array `** 2` is x * x.
    @given(st.lists(st.floats(-1e150, 1e150), min_size=5, max_size=5), st.permutations(range(5)))
    @example([5.824036061928649e-25, 1.6446543248756444e125, 1.0, 2.0, 3.0], [0, 1, 2, 3, 4])
    @settings(max_examples=300, deadline=None)
    def test_floats_numpy_scalars_and_arrays_give_the_same_bits(self, moments, positions):
        def bits(out):
            return np.array(out, dtype=np.float64).ravel().view(np.int64).tolist()

        ea, eb, eaa, eab, ebb = (moments[i] for i in positions)
        expected = bits((ea, eb, eaa - ea * ea, ebb - eb * eb, eab - ea * eb))
        for values in (moments, [np.float64(m) for m in moments], np.array(moments), np.array([moments])):
            assert bits(central_second_moments(values, positions)) == expected

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
                        v = float(term.coeff) * float(moment(model, term.dist_index, t))
                        for factor in term.state_factors:
                            v *= values[msys.basis.index_of(factor)]
                        new[i] += v
                values = new
            assert traj.values[5] == pytest.approx(values, rel=1e-12, abs=1e-14)


def run_both(msys, values0, table):
    """((bad_t, bad_j), out) from the C kernel and from its twin."""
    arrays = msys.term_table
    results = []
    for run in (_kernels.run_steps, run_steps_python):
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
    kernel's generic loop), stride-0 and row-strided tables, and special values everywhere.
    A non-empty table whose columns are not 8 bytes apart is a TypeError; its contiguous copy runs."""
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
    if layout == "every other column" and n_steps and n_req > 1:
        with pytest.raises(TypeError, match="^run_steps: the arrays must be contiguous"):
            _kernels.run_steps(values0, table, target, coeff, req, fact, np.empty((n_steps + 1, n)))
        table = table.copy()
    results = []
    for run in (_kernels.run_steps, run_steps_python):
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


class TestCompiledKernelAgreement:
    """The C kernel must reproduce its twin bit for bit."""

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


@pytest.mark.parametrize("reduced", [True, False], ids=["reduced", "unreduced"])
@pytest.mark.parametrize("noise, n_steps, shifts", [
    (presets.benchmark_noise(), 200, None),
    (presets.planner_noise(), 40, {"wt": np.linspace(-0.1, 0.15, 40)}),
], ids=["benchmark noise, 200 steps", "steered planner noise, 40 steps"])
def test_run_steps_within_rounding_bound_of_mp_reference(reduced, noise, n_steps, shifts, dubins_reduced, dubins_unreduced):
    """Every moment of every step lies within the rounding bound that the term table and the horizon give."""
    msys = dubins_reduced if reduced else dubins_unreduced
    model = DisturbanceModel(msys, noise, shifts or {})
    init = init_deterministic(msys, {"x": 0.3, "y": -1, "v": 1.2, "theta": 0.4})
    table = model.moment_table(msys.dist_requirements, n_steps)
    out = np.empty((n_steps + 1, len(msys.basis)))
    assert _kernels.run_steps(init.values, table, *msys.term_table, out) == (-1, -1)
    values, bound = propagate_mp(msys, init.values, table)
    for t, (got, ref, err) in enumerate(zip(out.tolist(), values, bound)):
        for j, (g, r, e) in enumerate(zip(got, ref, err)):
            assert abs(mpmath.mpf(g) - r) <= e, (t, msys.moment_names()[j])


class TestCKernel:
    def test_builds_into_cache_dir(self, monkeypatch, tmp_path, walk):
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
        run = _kernels._load_c().run_steps
        (lib,) = (tmp_path / "momentprop").iterdir()
        assert lib.name.startswith("run_steps-") and lib.suffix == ".so"
        arrays = walk.term_table
        args = (np.array([0.5, 0.25]), np.array([[1.0, 0.1, 0.02]] * 3),
                arrays.target, arrays.coeff, arrays.req, arrays.fact)
        out, ref = np.empty((4, 2)), np.empty((4, 2))
        assert run(*args, out) == run_steps_python(*args, ref) == (-1, -1)
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


def test_c_entry_points_are_the_extension_module_functions():
    """Four entry points are the module's own functions, with no forwarder, and C is the one backend."""
    names = ("risk_bound", "dubins_steer", "grow_tree", "trig_moments")
    module = _kernels._load_c()
    assert _kernels.BACKEND == "c"
    assert all(getattr(_kernels, name) is getattr(module, name) for name in names)


def test_every_entry_point_is_a_builtin():
    """After the first read, each bound entry point is the extension module's C function, with no Python wrapper."""
    assert _kernels.BACKEND == "c"
    module = _kernels._load_c()
    for name in _kernels._BOUND[1:]:
        assert inspect.isbuiltin(getattr(_kernels, name)), name
        assert getattr(_kernels, name) is getattr(module, name), name


def test_propagate_converts_an_odd_initial_state_once(dubins_reduced):
    """A strided or integer initial state propagates to the bits of its contiguous float64 copy."""
    model = DisturbanceModel(dubins_reduced, presets.benchmark_noise())
    values = init_deterministic(dubins_reduced, {"x": 0.3, "y": -1, "v": 1.2, "theta": 0.4}).values
    wide = np.zeros(2 * len(values))
    wide[::2] = values
    for odd in (wide[::2], np.rint(values * 4).astype(np.int64), list(values)):
        dense = np.array(odd, dtype=np.float64)
        got = propagate(dubins_reduced, propagator.MomentState(odd, 3), model, 40)
        expected = propagate(dubins_reduced, propagator.MomentState(dense, 3), model, 40)
        assert got.values.tobytes() == expected.values.tobytes()


def test_unwritable_cache_still_loads_the_c_kernel(monkeypatch, tmp_path, walk):
    """A cache path that cannot be a directory: the kernel is built and loaded from a temporary directory."""
    blocker = tmp_path / "not-a-directory"
    blocker.write_text("")
    scratch = tmp_path / "tmp"
    scratch.mkdir()
    monkeypatch.setenv("XDG_CACHE_HOME", str(blocker))
    monkeypatch.setattr(tempfile, "tempdir", str(scratch))
    unbind_kernels()
    try:
        assert _kernels.BACKEND == "c"
        arrays = walk.term_table
        args = (np.array([0.5, 0.25]), np.array([[1.0, 0.1, 0.02]] * 3),
                arrays.target, arrays.coeff, arrays.req, arrays.fact)
        out, ref = np.empty((4, 2)), np.empty((4, 2))
        assert _kernels.run_steps(*args, out) == run_steps_python(*args, ref) == (-1, -1)
        assert np.array_equal(out, ref)
    finally:
        monkeypatch.undo()
        unbind_kernels()
    assert blocker.read_text() == "" and not any(scratch.iterdir())  # the build directory is gone


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


def _compiler_runs(monkeypatch) -> list[list[str]]:
    """The command line of each subprocess.run from here on, until `monkeypatch` undoes it."""
    runs, run = [], subprocess.run
    monkeypatch.setattr(subprocess, "run", lambda args, **kwargs: runs.append(args) or run(args, **kwargs))
    return runs


def test_build_compiles_the_source_file_in_place(monkeypatch, tmp_path):
    """The cache key covers the source file's bytes, and the compiler's diagnostics name that file.  A source that
    does not compile is compiled once: only the assembler's rejection of the alignment flags is retried without them."""
    source = tmp_path / "_kernels.c"
    source.write_text(_kernels._C_PATH.read_text() + "\nint broken(void) { return }\n")
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
    monkeypatch.setattr(_kernels, "_C_PATH", source)
    runs = _compiler_runs(monkeypatch)
    with pytest.raises(OSError, match=re.escape(f"{source}:{len(source.read_text().splitlines())}:")):
        _kernels._load_c()
    assert len(runs) == 1
    assert not any((tmp_path / "cache" / "momentprop").iterdir())  # neither a module nor a build directory is left


def test_build_without_the_alignment_flag_when_the_assembler_rejects_it(monkeypatch, tmp_path):
    """A compiler whose assembler rejects the alignment flag, as GNU as before 2.34 does: the module is built again
    without it, and that build loads and runs."""
    flag, real = "-Wa,-mbranches-within-32B-boundaries", shutil.which("cc") or shutil.which("gcc")
    stand_in = tmp_path / "bin" / "cc"
    stand_in.parent.mkdir()
    stand_in.write_text(f"""#!/bin/sh
for arg in "$@"; do
    if [ "$arg" = "{flag}" ]; then echo "as: unrecognized option '{flag[4:]}'" >&2; exit 1; fi
done
exec "{real}" "$@"
""")
    stand_in.chmod(0o755)
    monkeypatch.setenv("PATH", f"{stand_in.parent}{os.pathsep}{os.environ['PATH']}")
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
    monkeypatch.setattr(_kernels, "_ALIGN_FLAGS", (flag,))
    monkeypatch.setattr(_kernels, "_built_flags", _kernels._built_flags)  # restored when the test ends
    runs = _compiler_runs(monkeypatch)
    module = _kernels._load_c()
    assert _kernels._built_flags == _kernels._C_FLAGS
    assert [run[0] for run in runs] == [str(stand_in)] * 2 and flag in runs[0] and flag not in runs[1]
    assert len(module.dubins_steer(0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.05, 0.3, 40.0)) == 20


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
    assert got.hex() == risk_bound_python(values, positions, faces, starts).hex()


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
        _kernels.risk_bound(values, positions, faces)


# Environments for a budgeted edge: the planner's two boxes, none, and one rotated square; and their obstacle tables.
BUDGET_ENV_TEXTS = (
    presets.PLANNER_ENV,
    "bounds 0 0 2.5 2.5\nstart 0.3 0.3 0\ngoal 2.1 2.1 0.25\n",
    "bounds 0 0 2.5 2.5\nstart 0.3 0.3 0\ngoal 2.1 2.1 0.25\nobstacle 1 0.6 1.4 1 1 1.4 0.6 1\n",
)
BUDGET_ENVS = [planner.parse_environment(text)._faces for text in BUDGET_ENV_TEXTS]
_sample = st.tuples(st.floats(0.0, 2.5), st.floats(0.0, 2.5), st.floats(-math.pi, math.pi))


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_budgeted_run_steps_matches_its_twin_and_the_two_pass_edge(dubins_reduced, data):
    """grow_tree's budgeted step loop: the C tree and its twin run the same rows and take the same decisions, bit for
    bit.  Against the unbudgeted `run_steps` and `risk_bound` on the first edge: an accepted edge has their last row
    and parent risk + bound, an edge stopped for risk stops at the first step where parent risk + bound passes
    epsilon, and a non-finite row is the unbudgeted call's.  Huge speeds make rows overflow part way."""
    msys = dubins_reduced
    speed = data.draw(st.one_of(st.floats(0.01, 0.2), st.sampled_from((1e152, 1e153))), label="speed")
    root = data.draw(_sample, label="root")
    pose = {"x": root[0], "y": root[1], "v": speed, "theta": root[2]}
    # The parent is the end of an earlier stretch of noise, so its variances need not be zero.
    prefix = data.draw(st.integers(0, 30), label="prefix steps")
    values0 = np.empty((prefix + 1, len(msys.basis)))
    stationary = DisturbanceModel(msys, presets.planner_noise()).moment_table(msys.dist_requirements, prefix)
    prefix_bad, _ = _kernels.run_steps(init_deterministic(msys, pose).values, stationary, *msys.term_table, values0)
    values0 = values0[-1 if prefix_bad < 0 else 0]
    env = data.draw(st.sampled_from(BUDGET_ENV_TEXTS), label="obstacles")
    epsilon = data.draw(st.floats(0.0, 2.0), label="epsilon")
    parent = data.draw(st.one_of(st.floats(0.0, 1.0).map(lambda f: f * epsilon), st.floats(0.0, 3.0)), label="parent")
    samples = data.draw(st.lists(_sample, min_size=1, max_size=3), label="samples")
    args = grow_tree_arguments(msys, presets.planner_noise(), samples, env=env, root=root)
    args[1][0, 3], args[1][0, 5:], args[9] = parent, values0, epsilon
    _, nodes, ((cause, steps), *_) = grow_both(args)
    controls = planner.dubins_steer(root, samples[0], 0.05, 0.3, 40)
    if not len(controls):
        assert (cause, steps) == (2, 0)
        return
    full = np.full((len(controls) + 1, len(msys.basis)), 7.0)
    model = DisturbanceModel(msys, presets.planner_noise(), {"wt": controls})
    bad_t, _ = _kernels.run_steps(values0, model.moment_table(msys.dist_requirements, len(controls)), *msys.term_table,
                                  full)
    positions, (faces, starts) = msys.pair_positions("x", "y"), planner.parse_environment(env)._faces

    def risk(k):  # the parent's risk plus the bound of rows 1 .. k
        return parent + _kernels.risk_bound(full[: k + 1], positions, faces, starts)

    assert steps == 1 or risk(steps - 1) <= epsilon
    if cause == 0:
        assert bad_t < 0 and steps == len(controls) and risk(steps) <= epsilon
        assert nodes[1, 5:].tobytes() == full[-1].tobytes() and nodes[1, 3].hex() == risk(steps).hex()
    elif cause == 3:
        assert bad_t == steps
    else:
        assert cause == 4 and not risk(steps) <= epsilon and not 0 <= bad_t <= steps


def test_a_row_whose_squares_overflow_adds_one_per_obstacle():
    """E[x]^2 and E[y]^2 overflow while every moment is finite: each of the planner's two boxes bounds the row by
    exactly 1.0, never NaN, in risk_bound, in grow_tree's budgeted loop and in their twins."""
    faces, starts = BUDGET_ENVS[0]
    positions = np.arange(5, dtype=np.int64)
    row = np.array([1e200, 1e200, 1e300, 1e300, 1e300])
    values = np.array([row, row])
    assert _kernels.risk_bound(values, positions, faces, starts) == risk_bound_python(values, positions, faces, starts)
    assert _kernels.risk_bound(values, positions, faces, starts) == 2.0
    # Each step copies every moment, so each row is the first one; one requirement, the plan's constant 1.0.
    terms = (np.arange(5, dtype=np.int64), np.ones(5), np.zeros(5, dtype=np.int64), np.arange(5).reshape(5, 1))
    plan = (np.ones(1), np.zeros((1, 1), dtype=np.int64), *distmoments._laurent_matrix(()), 0.0, 0.0, 0.0, False, 0)
    for epsilon, expected in ((10.0, [0, 3]), (3.0, [4, 2]), (0.5, [4, 1])):
        nodes = np.array([[0.0, 0.0, 0.0, 0.0, -1.0, *row], [7.0] * 10])
        args = [np.array([[1.0, 0.0, 0.0]]), nodes, *terms, np.array([0, 1, 2, 3, 4, 0, 1]), faces, starts, epsilon,
                0.05, 0.3, 3, *plan, np.empty((1, 2), dtype=np.int64)]
        _, nodes, outcomes = grow_both(args)  # a straight edge of three steps
        assert outcomes.tolist() == [expected]
        assert nodes[1, 3] == (6.0 if expected[0] == 0 else 7.0)


def test_budgeted_run_steps_rejects_bad_obstacles_and_releases_buffers(dubins_reduced):
    """grow_tree's obstacles are checked as risk_bound checks them, named after grow_tree; every buffer is
    released, and no node is written."""
    args = grow_tree_arguments(dubins_reduced, presets.planner_noise(), [(1.0, 1.0, 0.0)])
    positions = args[6]
    cases = {
        "valid": (None, None, None),
        "float positions": (6, positions.astype(float), TypeError),
        "the five risk positions alone": (6, positions[:5], ValueError),
        "position past the last moment": (6, np.array([*positions[:6], len(dubins_reduced.basis)]), IndexError),
        "start past the last face": (8, np.array([0, 8]), IndexError),
        "a string epsilon": (9, "0.1", TypeError),
    }
    for name, (position, bad, expected) in cases.items():
        bad_args = list(args) if position is None else [*args[:position], bad, *args[position + 1 :]]
        bad_args[1] = args[1].copy()
        before = [sys.getrefcount(arr) for arr in bad_args if isinstance(arr, np.ndarray)]
        try:
            _kernels.grow_tree(*bad_args)
            raised = None
        except (TypeError, ValueError, IndexError) as exc:
            raised = type(exc)
            assert str(exc).startswith("grow_tree: ") or name == "a string epsilon", name
            assert (bad_args[1][1:] == 7.0).all(), name
        assert raised is expected, name
        assert [sys.getrefcount(arr) for arr in bad_args if isinstance(arr, np.ndarray)] == before, name


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_planned_run_steps_builds_only_the_rows_it_runs(dubins_reduced, data):
    """grow_tree's moment plan, drawn at random: any slot row, up to four factors per requirement (so the product
    order matters), Gaussian, degenerate or uniform steered moments.  The C tree and its twin agree bit for bit, and
    the first edge, run unplanned on the rows so built for each of its steps (the slot row, `trig_moments_python` of
    the controls, then `distmoments._products`), has the same outcome and arrival row."""
    msys, n_req = dubins_reduced, len(dubins_reduced.dist_requirements)
    orders = st.tuples(st.integers(0, 3), st.integers(0, 3)).filter(any)
    pairs = tuple(data.draw(st.lists(orders, min_size=1, max_size=4, unique=True), label="pairs"))
    freqs, coefficients = distmoments._laurent_matrix(pairs)
    n_slots = data.draw(st.integers(len(pairs) + 1, len(pairs) + 4), label="slots")
    first = data.draw(st.integers(1, n_slots - len(pairs)), label="first")
    slots = np.array([1.0, *data.draw(st.lists(st.floats(0.5, 1.5), min_size=n_slots - 1, max_size=n_slots - 1))])
    slots[first : first + len(pairs)] = np.nan
    n_factors = data.draw(st.integers(1, 4), label="factors")
    columns = st.lists(st.integers(0, n_slots - 1), min_size=n_factors * n_req, max_size=n_factors * n_req)
    factors = np.array(data.draw(columns), dtype=np.int64).reshape(n_factors, n_req)
    base, p = data.draw(st.floats(-1.0, 1.0)), data.draw(st.floats(-1.0, 1.0))
    uniform = data.draw(st.booleans(), label="uniform")
    q = p + data.draw(st.floats(1e-6, 2.0)) if uniform else data.draw(st.sampled_from((0.0, 1e-8, 0.03)))
    root, sample = data.draw(_sample, label="root"), data.draw(_sample, label="sample")
    args = grow_tree_arguments(msys, presets.planner_noise(), [sample], env=data.draw(st.sampled_from(BUDGET_ENV_TEXTS)),
                               root=root)
    args[13:22] = slots, factors, freqs, coefficients, base, p, q, uniform, first
    _, nodes, ((cause, steps),) = grow_both(args)
    controls = planner.dubins_steer(root, sample, 0.05, 0.3, 40)
    if len(controls):
        slot_rows = np.tile(slots, (len(controls), 1))
        trig_moments_python(controls, base, p, q, freqs, coefficients, slot_rows[:, first:][:, : len(pairs)], uniform)
        full = np.empty((len(controls) + 1, len(msys.basis)))
        bad_t, _ = _kernels.run_steps(args[1][0, 5:].copy(), distmoments._products(slot_rows, factors),
                                      *msys.term_table, full)
        assert cause != 3 or bad_t == steps
        assert cause != 0 or nodes[1, 5:].tobytes() == full[-1].tobytes()


def test_planned_run_steps_checks_every_row_it_builds_for_a_non_real_residue(dubins_reduced):
    """A hand-made plan whose one Laurent sum is e^{ix} / 2: real at a shift of 0, not at a turning step's.  An edge
    that runs straight and then turns raises `_slot_moments`' ArithmeticError at its first turning step, in C and
    its twin, when the budget lets it get there, and not when the budget stops it after step 1: no row is built for
    a step that does not run."""
    freqs, coefficients = distmoments._laurent_matrix(((1, 0),))
    one_sided = coefficients.copy()
    one_sided[0] = 0.0
    root, sample = (0.3, 0.3, 0.0), (1.5, 0.6, math.pi / 2)
    controls = planner.dubins_steer(root, sample, 0.05, 0.3, 40)
    turn = int(np.argmax(np.abs(controls) > 1e-9))
    assert turn > 10 and not np.abs(controls[:turn]).max() > 1e-12
    with pytest.raises(ArithmeticError) as expected:
        distmoments._slot_moments(Degenerate(0.0), controls[turn : turn + 1], ((1, 0),), (0.0, freqs, one_sided),
                                  np.empty((1, 1)))
    args = grow_tree_arguments(dubins_reduced, presets.planner_noise(), [sample], env=BUDGET_ENV_TEXTS[1], root=root)
    n_req = len(dubins_reduced.dist_requirements)
    args[13:22] = np.array([1.0, np.nan]), np.ones((1, n_req), dtype=np.int64), freqs, one_sided, 0.0, 0.0, 0.0, False, 1
    for grow in (_kernels.grow_tree, grow_tree_python):
        with pytest.raises(ArithmeticError, match="^" + re.escape(str(expected.value)) + "$"):
            grow(*args[:1], args[1].copy(), *args[2:])
    args[9] = -1.0
    assert grow_both(args)[2].tolist() == [[4, 1]]


def test_planned_run_steps_rejects_a_bad_plan_and_releases_buffers(dubins_reduced):
    """grow_tree's plan is checked as the other arguments are: TypeError for a dtype or layout, ValueError for a
    shape, IndexError for a slot column out of range or too few requirements; every buffer is released, and no node
    or outcome is written."""
    msys = dubins_reduced
    args = grow_tree_arguments(msys, presets.planner_noise(), [(1.0, 1.0, 0.0)] * 2)
    slots, factors, freqs, coefficients, base, p, q, uniform, first = args[13:22]
    bad_factor, negative_factor = factors.copy(), factors.copy()
    bad_factor[-1, -1], negative_factor[0, 0] = len(slots), -1
    cases = {
        "float32 slots": (13, slots.astype(np.float32), TypeError),
        "float factors": (14, factors.astype(float), TypeError),
        "Fortran-ordered factors": (14, np.asfortranarray(factors), TypeError),
        "real coefficients": (16, coefficients.real.copy(), TypeError),
        "string base": (17, "0", TypeError),
        "float first": (21, float(first), TypeError),
        "2-d slots": (13, slots[:, None], ValueError),
        "no factors": (14, factors[:0], ValueError),
        "coefficients of another frequency count": (16, coefficients[1:], ValueError),
        "factors of fewer requirements": (14, np.ascontiguousarray(factors[:, 1:]), IndexError),
        "factor past the last slot": (14, bad_factor, IndexError),
        "negative factor": (14, negative_factor, IndexError),
        "first past the slots": (21, len(slots), IndexError),
        "negative first": (21, -1, IndexError),
    }
    for name, (position, bad, error) in cases.items():
        bad_args = [*args[:position], bad, *args[position + 1 :]]
        before = [sys.getrefcount(arg) for arg in bad_args if isinstance(arg, np.ndarray)]
        with pytest.raises(error, match="^grow_tree: " if error is not TypeError or position < 17 else None):
            _kernels.grow_tree(*bad_args)
        assert [sys.getrefcount(arg) for arg in bad_args if isinstance(arg, np.ndarray)] == before, name
        assert (args[1][1:] == 7.0).all() and (args[22] == -7).all(), name


def test_kernel_rejects_odd_inputs(dubins_reduced):
    """Inputs the C loop cannot read in place (other dtypes, other layouts) are a TypeError, and no reference leaks."""
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

    dtype, layout = "^run_steps: values0, table and coeff must be float64", "^run_steps: the arrays must be contiguous"
    cases = {
        "int values0": ((np.rint(init.values * 4).astype(np.int64), table, *terms), dtype),
        "float32 table": ((init.values, table.astype(np.float32), *terms), dtype),
        "int32 fact": ((init.values, table, *terms[:3], terms[3].astype(np.int32)), dtype),
        "Fortran-ordered table": ((init.values, np.asfortranarray(table), *terms), layout),
        "column-strided table": ((init.values, np.repeat(table, 2, axis=1)[:, ::2], *terms), layout),
        "non-contiguous term arrays": ((init.values, table, *map(spread, terms)), layout),
        "Fortran-ordered fact": ((init.values, table, *terms[:3], np.asfortranarray(terms[3])), layout),
    }
    for name, (args, message) in cases.items():
        out = np.full((31, len(dubins_reduced.basis)), 7.0)
        before = [sys.getrefcount(arg) for arg in (*args, out)]
        with pytest.raises(TypeError, match=message):
            _kernels.run_steps(*args, out)
        assert [sys.getrefcount(arg) for arg in (*args, out)] == before, name
        assert (out == 7.0).all(), name


@pytest.mark.parametrize("n_steps", [2.0, True, "3", -1])
def test_propagate_names_a_step_count_that_is_not_a_count(walk, n_steps):
    """A float, a bool, a string or a negative number of steps is a ValueError naming it, before any work."""
    model = DisturbanceModel(walk, {"w": Gaussian(0.0, 1.0)})
    message = "^" + re.escape(f"step count must be an integer of at least 0, got {n_steps!r}") + "$"
    with pytest.raises(ValueError, match=message):
        propagate(walk, init_deterministic(walk, {"x": 1.0}), model, n_steps)


def test_wrong_length_initial_state_names_both_lengths(dubins_reduced):
    model = DisturbanceModel(dubins_reduced, presets.benchmark_noise())
    with pytest.raises(ValueError, match=r"^initial state has 19 moment values, but the system has 20 moments$"):
        propagate(dubins_reduced, propagator.MomentState(np.ones(19)), model, 10)
    with pytest.raises(ValueError, match=r"^initial state has shape \(1, 20\), but the system has 20 moments$"):
        propagate(dubins_reduced, propagator.MomentState(np.ones((1, 20))), model, 10)


def test_overflow_raises_without_warning():
    """The suite turns RuntimeWarning into an error, so a warning before PropagationError fails here."""
    x, w = Polynomial.variables(("x", "w"))
    system = PolynomialSystem(
        vars=("x",), dist_vars=("w",), f=(2 * x + w,),
        graph=DependenceGraph.complete(("x",)),
    )
    msys = compile_moment_system(system, [MultiIndex((1,))])
    model = DisturbanceModel(msys, {"w": Degenerate(0.0)})
    init = init_deterministic(msys, {"x": 1.0})
    with pytest.raises(PropagationError, match=r"E\[x\] became non-finite at step 1024"):
        propagate(msys, init, model, 1100)
