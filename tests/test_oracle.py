import itertools
import math
import re
import sys
import threading
import warnings

import numpy as np
import pytest

from momentprop import _kernels, cli, distmoments, oracle, presets, propagator, sysspec
from momentprop.compiler import compile_moment_system
from momentprop.distmoments import (
    Beta,
    Degenerate,
    DisturbanceModel,
    Gaussian,
    Uniform,
    raw_moment,
)
from momentprop.oracle import (
    LinearPrediction,
    compare,
    compare_tables,
    linear_propagate,
    linearize,
    mc_simulate,
    rollouts,
)
from momentprop.polyring import MultiIndex
from momentprop.propagator import PropagationError
from momentprop.sysspec import parse_spec, trig_encode
from reference import central_second_moment_stats, record_moments_python, sampler_moments

WALK = "state x\ndisturbance w\ndyn x' = x + w\n"


def walk_setup(dist):
    spec = parse_spec(WALK)
    system = trig_encode(spec)
    from momentprop.compiler import compile_moment_system

    msys = compile_moment_system(system, [MultiIndex((1,)), MultiIndex((2,))])
    model = DisturbanceModel(msys, {"w": dist})
    return spec, system, msys, model


class TestMcSimulate:
    def test_reproducibility_bit_exact(self):
        spec, system, msys, model = walk_setup(Gaussian(0.0, 1.0))
        kwargs = dict(moments=tuple(msys.basis), batch_size=4096)
        a = mc_simulate(spec, system, model, {"x": 0.0}, 5, 20_000, seed=42, **kwargs)
        b = mc_simulate(spec, system, model, {"x": 0.0}, 5, 20_000, seed=42, **kwargs)
        assert np.array_equal(a.means, b.means)
        assert np.array_equal(a.ses, b.ses)

    def test_degenerate_has_zero_se(self):
        spec, system, msys, model = walk_setup(Degenerate(0.25))
        mc = mc_simulate(
            spec, system, model, {"x": 1.0}, 4, 10_000, seed=1, moments=tuple(msys.basis)
        )
        assert np.all(mc.ses == 0.0)
        assert mc.means[:, mc.column("x")] == pytest.approx(1.0 + 0.25 * np.arange(5))

    def test_point_mass_column_is_exact(self):
        # cos(0.4) and its square do not sum exactly over 2e5 samples
        spec, system, msys, model = walk_setup(Gaussian(0.0, 1.0))
        x0 = math.cos(0.4)
        mc = mc_simulate(
            spec, system, model, {"x": x0}, 1, 200_000, seed=9, moments=tuple(msys.basis)
        )
        assert np.all(mc.ses[0] == 0.0)
        assert mc.means[0, mc.column("x")] == x0
        assert mc.means[0, mc.column("x^2")] == x0**2

    def test_known_gaussian_moments(self):
        spec, system, msys, model = walk_setup(Gaussian(0.0, 1.0))
        mc = mc_simulate(
            spec, system, model, {"x": 0.0}, 1, 10**6, seed=7, moments=tuple(msys.basis)
        )
        j = mc.column("x^2")
        assert abs(mc.means[1, j] - 1.0) <= 5 * mc.ses[1, j]

    def test_original_trig_dynamics_simulated(self, dubins_spec, dubins_system, dubins_reduced):
        model = DisturbanceModel(
            dubins_reduced, {"wv": Degenerate(0.0), "wt": Degenerate(math.pi / 2)}
        )
        mc = mc_simulate(
            dubins_spec,
            dubins_system,
            model,
            {"x": 0, "y": 0, "v": 1, "theta": 0.0},
            1,
            100,
            seed=0,
            moments=tuple(dubins_reduced.basis),
        )
        assert mc.means[1, mc.column("x")] == pytest.approx(1.0)
        assert mc.means[1, mc.column("s_theta")] == pytest.approx(1.0)

    def test_batch_partition_covers_remainder(self):
        spec, system, msys, model = walk_setup(Gaussian(0.0, 1.0))
        mc = mc_simulate(
            spec, system, model, {"x": 0.0}, 2, 12_345, seed=3,
            moments=tuple(msys.basis), batch_size=4096,
        )
        assert mc.n_samples == 12_345
        assert mc.batch_means.shape[0] == math.ceil(12_345 / 4096)


# Recorded from the batched loop before it moved into the shared rollout
# engine: Dubins, 2,500 samples in batches of 1,000 (the last one short).
GOLDEN_NAMES = ("x", "s_theta", "x*v*c_theta")
GOLDEN_MEANS = [
    [0.0, 0.29552020666133955, 0.0],
    [0.955336489125606, 0.3313146574153811, 0.8944184568420153],
    [1.8915704412702086, 0.3670810097857884, 1.7369284596149686],
]
GOLDEN_SES = [
    [0.0, 0.0, 0.0],
    [0.0, 0.003275701091173922, 0.0012138012029458771],
    [0.0012705483531324517, 0.004412525960019263, 0.004544210496349607],
]
GOLDEN_BATCH_MEANS = [
    [
        [0.0, 0.29552020666133955, 0.0],
        [0.955336489125606, 0.32324150010742825, 0.8980594731544623],
        [1.895381680926489, 0.36389309744328585, 1.743198136840217],
    ],
    [
        [0.0, 0.29552020666133955, 0.0],
        [0.955336489125606, 0.3424459884665977, 0.8903431126014094],
        [1.8873045681595355, 0.3722722234880192, 1.727071459851758],
    ],
    [
        [0.0, 0.29552020666133955, 0.0],
        [0.955336489125606, 0.3251983099288534, 0.8952871126983324],
        [1.892479708178994, 0.363074407066332, 1.7441031046908926],
    ],
]


def test_mc_golden_values(dubins_spec, dubins_system, dubins_reduced):
    """Seed spawning, batch split and sampling order stay bit for bit the same."""
    model = DisturbanceModel(dubins_reduced, dubins_spec.distributions)
    names = dubins_reduced.moment_names()
    moments = tuple(dubins_reduced.basis[names.index(n)] for n in GOLDEN_NAMES)
    mc = mc_simulate(
        dubins_spec, dubins_system, model, {"x": 0.0, "y": 0.0, "v": 1.0, "theta": 0.3},
        2, 2500, 17, moments=moments, batch_size=1000,
    )
    assert mc.names == GOLDEN_NAMES
    assert mc.means.tolist() == GOLDEN_MEANS
    assert mc.ses.tolist() == GOLDEN_SES
    assert mc.batch_means.tolist() == GOLDEN_BATCH_MEANS


class TestSamplers:
    @pytest.mark.parametrize(
        "dist",
        [Gaussian(0.3, 0.8), Uniform(-1.0, 2.0), Beta(10, 1000), Degenerate(1.5)],
    )
    def test_first_four_moments(self, dist):
        means, ses = sampler_moments(dist, 10**6, seed=11)
        for k in range(1, 5):
            exact = raw_moment(dist, 0.0, k)
            tol = 6 * ses[k - 1] if ses[k - 1] > 0 else 1e-12
            assert abs(means[k - 1] - exact) <= tol


class TestLinearize:
    def test_linear_system_recovered(self):
        spec = parse_spec(
            "state x y\ndisturbance w\n"
            "dyn x' = 2*x - y + w\n"
            "dyn y' = x + 3*y\n"
        )
        lin = linearize(spec, {"x": 0.3, "y": -0.2}, {"w": 0.1})
        assert np.eye(2) + lin.A == pytest.approx(np.array([[2.0, -1.0], [1.0, 3.0]]))
        assert lin.B == pytest.approx(np.array([[1.0], [0.0]]))
        assert lin.c == pytest.approx(np.zeros(2), abs=1e-15)

    def test_dubins_jacobian_entries(self, dubins_spec):
        lin = linearize(dubins_spec, {"x": 0, "y": 0, "v": 1, "theta": 0.0}, {"wv": 0, "wt": 0})
        names = dubins_spec.state_vars
        i_x, i_y, i_th = names.index("x"), names.index("y"), names.index("theta")
        phi = np.eye(4) + lin.A
        assert phi[i_x, i_th] == pytest.approx(0.0)  # -v sin(0)
        assert phi[i_y, i_th] == pytest.approx(1.0)  # v cos(0)
        assert phi[i_x, names.index("v")] == pytest.approx(1.0)  # cos(0)

    def test_jacobian_matches_finite_differences(self, dubins_spec):
        from momentprop import sysspec

        x_star = {"x": 0.4, "y": -0.3, "v": 1.2, "theta": 0.6}
        w_star = {"wv": 0.05, "wt": -0.1}
        lin = linearize(dubins_spec, x_star, w_star)
        h = 1e-6
        env = {**x_star, **w_star}
        for i, name in enumerate(dubins_spec.state_vars):
            for j, other in enumerate(dubins_spec.state_vars):
                up = dict(env)
                down = dict(env)
                up[other] += h
                down[other] -= h
                fd = (
                    sysspec.evaluate(dubins_spec.updates[name], up)
                    - sysspec.evaluate(dubins_spec.updates[name], down)
                ) / (2 * h)
                assert (np.eye(4) + lin.A)[i, j] == pytest.approx(fd, abs=1e-6)

    def test_dt_must_be_positive_and_finite(self, dubins_spec):
        x_star = {"x": 0, "y": 0, "v": 1, "theta": 0.2}
        for dt in (math.nan, math.inf, 0.0, -1.0):
            with pytest.raises(ValueError, match="dt must be positive and finite"):
                linearize(dubins_spec, x_star, dt=dt)

    def test_dt_scaling(self, dubins_spec):
        x_star = {"x": 0, "y": 0, "v": 1, "theta": 0.2}
        full = linearize(dubins_spec, x_star, dt=1.0)
        half = linearize(dubins_spec, x_star, dt=0.5)
        assert half.A == pytest.approx(0.5 * full.A)
        assert half.B == pytest.approx(0.5 * full.B)


class TestLinearPropagate:
    def test_pure_accumulation(self):
        spec = parse_spec(WALK)
        lin = linearize(spec, {"x": 0.0}, {"w": 0.0})
        from momentprop.compiler import compile_moment_system

        system = trig_encode(spec)
        msys = compile_moment_system(system, [MultiIndex((1,))])
        model = DisturbanceModel(msys, {"w": Gaussian(0.0, 0.3)})
        pred = linear_propagate(lin, np.zeros(1), np.zeros((1, 1)), model, 4)
        assert pred.covs[:, 0, 0] == pytest.approx(0.3 * np.arange(5))

    def test_zero_noise_keeps_covariance(self):
        spec = parse_spec(WALK)
        lin = linearize(spec, {"x": 0.0}, {"w": 0.0})
        system = trig_encode(spec)
        from momentprop.compiler import compile_moment_system

        msys = compile_moment_system(system, [MultiIndex((1,))])
        model = DisturbanceModel(msys, {"w": Degenerate(0.5)})
        sigma0 = np.array([[0.7]])
        pred = linear_propagate(lin, np.zeros(1), sigma0, model, 3)
        assert pred.covs[:, 0, 0] == pytest.approx(0.7 * np.ones(4))
        assert pred.means[:, 0] == pytest.approx(0.5 * np.arange(4))

    def test_symmetry_and_psd(self, dubins_spec):
        lin = linearize(dubins_spec, {"x": 0, "y": 0, "v": 1, "theta": 0.3})
        system = trig_encode(dubins_spec)
        from momentprop import presets

        msys = presets.compile_dubins()
        model = DisturbanceModel(msys, presets.benchmark_noise())
        pred = linear_propagate(lin, np.array([0, 0, 1, 0.3]), np.zeros((4, 4)), model, 100)
        asym = np.abs(pred.covs - np.transpose(pred.covs, (0, 2, 1))).max()
        assert asym <= 1e-14
        assert np.linalg.eigvalsh(pred.covs).min() >= -1e-9

    def test_raw_moment_lookup(self):
        pred = LinearPrediction(
            ("x", "y"),
            np.array([[1.0, 2.0]]),
            np.array([[[0.5, 0.1], [0.1, 0.2]]]),
        )
        assert pred.series("x")[0] == 1.0
        assert pred.series("x^2")[0] == pytest.approx(0.5 + 1.0)
        assert pred.series("x*y")[0] == pytest.approx(0.1 + 2.0)
        assert pred.series("x^2*y") is None


class TestCompare:
    def test_degenerate_all_z_zero(self):
        spec, system, msys, model = walk_setup(Degenerate(0.5))
        init = propagator.init_deterministic(msys, {"x": 0.0})
        traj = propagator.propagate(msys, init, model, 3)
        mc = mc_simulate(
            spec, system, model, {"x": 0.0}, 3, 1000, seed=5, moments=tuple(msys.basis)
        )
        report = compare(traj, mc)
        assert all(r.z_exact == 0.0 for r in report.rows)
        assert report.flagged == []

    def test_horizon_mismatch_rejected(self):
        spec, system, msys, model = walk_setup(Gaussian(0, 1))
        init = propagator.init_deterministic(msys, {"x": 0.0})
        traj = propagator.propagate(msys, init, model, 3)
        mc = mc_simulate(
            spec, system, model, {"x": 0.0}, 4, 1000, seed=5, moments=tuple(msys.basis)
        )
        with pytest.raises(ValueError, match="horizon"):
            compare(traj, mc)

    def test_flagging_threshold(self):
        names = ["m"]
        exact = np.array([[0.0], [10.0]])
        mc_means = np.array([[0.0], [0.0]])
        mc_ses = np.array([[0.0], [1.0]])
        report = compare_tables(names, exact, mc_means, mc_ses)
        assert len(report.flagged) == 1
        assert report.flagged[0][2] == pytest.approx(10.0)

    def test_nan_z_flagged(self):
        exact = np.array([[0.0, 1.0], [np.nan, 2.0], [1.0, 3.0]])
        report = compare_tables(["a", "b"], exact, np.zeros((3, 2)), np.ones((3, 2)))
        assert [(t, name) for t, name, _ in report.flagged] == [(1, "a")]
        assert math.isnan(report.flagged[0][2])
        assert report.max_abs_z_exact == math.inf

    def test_zero_se_tolerance_scales_with_value(self):
        big = 1e6
        exact = np.array([[big], [big], [1.0], [1.0]])
        mc_means = np.array([[np.nextafter(big, 0.0)], [big * (1 + 1e-9)], [1.0 + 1e-13], [1.0 + 1e-9]])
        report = compare_tables(["m"], exact, mc_means, np.zeros((4, 1)))
        assert [r.z_exact for r in report.rows] == [0.0, math.inf, 0.0, math.inf]

    @staticmethod
    def _deterministic_dubins_run(dubins_spec, dubins_system, dubins_reduced, n_steps):
        model = DisturbanceModel(dubins_reduced, {"wv": Degenerate(0.01), "wt": Degenerate(0.05)})
        x0 = {"x": 0.3, "y": -1.7, "v": 1.3, "theta": 0.4}
        traj = propagator.propagate(dubins_reduced, propagator.init_deterministic(dubins_reduced, x0), model, n_steps)
        mc = mc_simulate(
            dubins_spec, dubins_system, model, x0, n_steps, 8, seed=0, moments=tuple(dubins_reduced.basis)
        )
        assert np.all(mc.ses == 0.0)
        return traj, mc

    def test_zero_se_tolerance_grows_with_steps(self, dubins_spec, dubins_system, dubins_reduced):
        # A step-independent 1e-12 * max(1, |value|) flagged E[y^2] at t = 94..96 here.
        traj, mc = self._deterministic_dubins_run(dubins_spec, dubins_system, dubins_reduced, 100)
        report = compare(traj, mc)
        assert report.flagged == []
        assert all(r.z_exact == 0.0 for r in report.rows)

    def test_zero_se_mismatch_still_flagged(self, dubins_spec, dubins_system, dubins_reduced):
        traj, mc = self._deterministic_dubins_run(dubins_spec, dubins_system, dubins_reduced, 100)
        names = list(mc.names)
        exact = np.stack([traj.moment_series(name) for name in names], axis=1)
        exact[10, names.index("x^2")] *= 1 + 1e-9
        # E[y^2] = 1.8 at t = 94 while E[x^2] = 2840: the row scale sets the tolerance.
        exact[94, names.index("y^2")] *= 1 + 1e-6
        report = compare_tables(names, exact, mc.means, mc.ses)
        assert sorted((t, name) for t, name, _ in report.flagged) == [(10, "x^2"), (94, "y^2")]
        assert report.max_abs_z_exact == math.inf

    def test_csv_includes_lin_column(self):
        names = ["x"]
        exact = np.zeros((2, 1))
        mc_means = np.zeros((2, 1))
        mc_ses = np.ones((2, 1))
        lin = {"x": np.array([0.0, 3.0])}
        report = compare_tables(names, exact, mc_means, mc_ses, lin)
        text = report.to_csv()
        last = text.strip().splitlines()[-1]
        assert last.endswith(",3,3")  # lin value and its z-score


class TestCentralStats:
    def test_matches_direct_variance(self):
        spec, system, msys, model = walk_setup(Gaussian(0.0, 1.0))
        spec2 = parse_spec("state x y\ndisturbance w u\ndyn x' = x + w\ndyn y' = y + u\n")
        system2 = trig_encode(spec2)
        from momentprop.compiler import compile_moment_system

        seed = [
            MultiIndex((1, 0)), MultiIndex((0, 1)), MultiIndex((1, 1)),
            MultiIndex((2, 0)), MultiIndex((0, 2)),
        ]
        msys2 = compile_moment_system(system2, seed)
        model2 = DisturbanceModel(msys2, {"w": Gaussian(0, 1), "u": Uniform(-1, 1)})
        mc = mc_simulate(
            spec2, system2, model2, {"x": 0, "y": 0}, 3, 200_000, seed=2,
            moments=tuple(msys2.basis), batch_size=10_000,
        )
        stats = central_second_moment_stats(mc, ("x", "y"))
        var_x, se_x = stats["var_x"]
        assert abs(var_x[3] - 3.0) <= 6 * se_x[3]
        var_y, se_y = stats["var_y"]
        assert abs(var_y[3] - 1.0) <= 6 * se_y[3]
        cov, se_c = stats["cov_xy"]
        assert abs(cov[3]) <= 6 * se_c[3]

    def test_swapped_pair_gives_swapped_keys_bit_for_bit(self):
        """The cross moment E[x*y] is found by its multi-index whichever variable comes first."""
        spec = parse_spec("state x y\ndisturbance w u\ndyn x' = x + w + u\ndyn y' = y + u*x\n")
        system = trig_encode(spec)
        seed = [MultiIndex((1, 0)), MultiIndex((0, 1)), MultiIndex((1, 1)), MultiIndex((2, 0)), MultiIndex((0, 2))]
        msys = compile_moment_system(system, seed)
        model = DisturbanceModel(msys, {"w": Gaussian(0, 1), "u": Uniform(-1, 1)})
        mc = mc_simulate(spec, system, model, {"x": 0.5, "y": -1}, 3, 4000, seed=4,
                         moments=tuple(msys.basis), batch_size=500)
        xy = central_second_moment_stats(mc, ("x", "y"))
        yx = central_second_moment_stats(mc, ("y", "x"))
        assert set(xy) == {"var_x", "var_y", "cov_xy"} and set(yx) == {"var_y", "var_x", "cov_yx"}
        for key_xy, key_yx in (("var_x", "var_x"), ("var_y", "var_y"), ("cov_xy", "cov_yx")):
            for got, want in zip(yx[key_yx], xy[key_xy]):
                assert got.tobytes() == want.tobytes()


# -- the rollout engine against a sequential reference ----------------------------


def sequential_mc(spec, system, model, x0, n_steps, n_samples, seed, moments, batch_size):
    """The Monte Carlo estimate on one thread, one step after another.

    Each step draws its disturbances inline, evaluates the updates with
    `sysspec.evaluate`, takes cos/sin of the angles afresh for the recorder
    and builds every product in a new array.
    """
    sizes = [batch_size] * (n_samples // batch_size) + ([n_samples % batch_size] if n_samples % batch_size else [])
    count = 0
    mean = np.zeros((n_steps + 1, len(moments)))
    m2 = np.zeros((n_steps + 1, len(moments)))
    batch_means = []
    for nb, child in zip(sizes, np.random.SeedSequence(seed).spawn(len(sizes))):
        rng = np.random.Generator(np.random.PCG64(child))
        state = {name: np.full(nb, float(x0[name])) for name in spec.state_vars}
        b_mean = np.empty((n_steps + 1, len(moments)))
        b_m2 = np.empty((n_steps + 1, len(moments)))
        for t in range(n_steps + 1):
            if t:
                full = dict(state)
                for w in spec.disturbance_vars:
                    full[w] = distmoments.sample(model.distributions[w], rng, nb) + float(model.shift_at(w, t - 1))
                state = {name: sysspec.evaluate(spec.updates[name], full) for name in spec.state_vars}
            by_name = dict(state)
            for pair in system.state_pairs:
                by_name[pair.cos_var] = np.cos(state[pair.source])
                by_name[pair.sin_var] = np.sin(state[pair.source])
            record_sequential([by_name[name] for name in system.vars], moments, b_mean[t], b_m2[t])
        batch_means.append(b_mean)
        delta = b_mean - mean
        total = count + nb
        mean = mean + delta * (nb / total)
        m2 = m2 + b_m2 + delta**2 * (count * nb / total)
        count = total
    return mean, np.sqrt(m2 / (count - 1) / count), np.stack(batch_means)


def record_sequential(values, moments, mean_row, m2_row):
    """Each moment's sample mean and m2 over `values`, every product (`arr**e`, then `acc * p`) a new array."""
    for j, alpha in enumerate(moments):
        acc = None
        for arr, e in zip(values, alpha):
            if e:
                p = arr if e == 1 else arr**e
                acc = p if acc is None else acc * p
        if acc is None:
            mean_row[j], m2_row[j] = 1.0, 0.0
        else:
            shift = acc[0]
            d = acc - shift
            s = np.sum(d)
            mean_row[j] = shift + s / acc.size
            m2_row[j] = max(np.sum(d * d) - s * s / acc.size, 0.0)
    for row in (mean_row, m2_row):
        row[np.isnan(row)] = np.nan


# x and y both read theta; the second spec reads cos and sin of a disturbance too.
TRIG_OF_DISTURBANCE = """\
state x theta
angle theta
disturbance w u
dyn x' = x*cos(w) + sin(theta)*u + cos(theta) - sin(w)
dyn theta' = theta + w
"""
WT = Gaussian(0.04, 0.03)
REFERENCE_CASES = {
    "degenerate": (presets.DUBINS_SPEC, {"wv": Degenerate(0.01), "wt": WT}, None, 6, 600, 600),
    "gaussian": (presets.DUBINS_SPEC, {"wv": Gaussian(0.0, 0.01), "wt": WT}, None, 6, 600, 600),
    "uniform": (presets.DUBINS_SPEC, {"wv": Uniform(-0.1, 0.2), "wt": WT}, None, 6, 600, 600),
    "beta": (presets.DUBINS_SPEC, {"wv": Beta(10, 1000), "wt": WT}, None, 6, 600, 600),
    "shift-schedule": (presets.DUBINS_SPEC, {"wv": Beta(10, 1000), "wt": WT},
                       {"wv": [0.1, 0.0, -0.2, 0.3, 0.0, 0.05], "wt": [0.2, -0.1, 0.0, 0.4, 0.3, -0.5]}, 6, 600, 600),
    "short-last-batch": (presets.DUBINS_SPEC, {"wv": Beta(10, 1000), "wt": WT}, None, 6, 1000, 300),
    "cos-of-disturbance": (TRIG_OF_DISTURBANCE, {"w": Uniform(-0.2, 0.3), "u": Gaussian(0.1, 0.5)}, None, 6, 700, 300),
    "zero-steps": (presets.DUBINS_SPEC, {"wv": Beta(10, 1000), "wt": WT}, None, 0, 600, 250),
}


@pytest.mark.parametrize("case", REFERENCE_CASES)
def test_mc_equals_sequential_reference(case):
    """Drawing a step ahead on a helper thread, sharing cos/sin and recording in C leave every bit as it was."""
    text, dists, shifts, n_steps, n_samples, batch_size = REFERENCE_CASES[case]
    spec = parse_spec(text)
    system = trig_encode(spec)
    model = DisturbanceModel(system, dists, shifts)
    x0 = {name: 0.3 + 0.1 * k for k, name in enumerate(spec.state_vars)}
    # Every monomial of degree <= 3 in the encoded variables, the constant included.
    moments = tuple(MultiIndex(alpha) for alpha in itertools.product(range(4), repeat=len(system.vars))
                    if sum(alpha) <= 3)
    mc = mc_simulate(spec, system, model, x0, n_steps, n_samples, 11, moments=moments, batch_size=batch_size)
    means, ses, batch_means = sequential_mc(spec, system, model, x0, n_steps, n_samples, 11, moments, batch_size)
    assert mc.means.tobytes() == means.tobytes()
    assert mc.ses.tobytes() == ses.tobytes()
    assert mc.batch_means.tobytes() == batch_means.tobytes()


class TestHelperThread:
    """The thread that draws a step ahead lives only as long as its batch."""

    def test_joined_when_mc_returns(self, dubins_spec, dubins_system, dubins_reduced):
        model = DisturbanceModel(dubins_reduced, dubins_spec.distributions)
        baseline = threading.active_count()
        mc_simulate(dubins_spec, dubins_system, model, {"x": 0, "y": 0, "v": 1, "theta": 0.3}, 5, 1000, 2,
                    batch_size=400)
        assert threading.active_count() == baseline

    def test_joined_when_a_distribution_is_missing(self):
        # A model of the random walk, which has no u, run on a spec that draws u.
        spec = parse_spec("state x y\ndisturbance w u\ndyn x' = x + w\ndyn y' = y + u\n")
        system = trig_encode(spec)
        model = DisturbanceModel(trig_encode(parse_spec(WALK)), {"w": Gaussian(0, 1)})
        baseline = threading.active_count()
        with pytest.raises(KeyError) as caught:
            mc_simulate(spec, system, model, {"x": 0, "y": 0}, 3, 100, 0, moments=[MultiIndex((1, 0))])
        assert caught.value.args == ("no distribution given for disturbance 'u'",)
        assert threading.active_count() == baseline

    def test_joined_when_a_batch_is_closed_partway(self, dubins_spec, dubins_reduced):
        model = DisturbanceModel(dubins_reduced, dubins_spec.distributions)
        baseline = threading.active_count()
        nb, states = next(iter(rollouts(dubins_spec, model, {"x": 0, "y": 0, "v": 1, "theta": 0.3}, 10, 500, 0, 200)))
        next(states)
        next(states)
        assert threading.active_count() == baseline + 1
        states.close()
        assert threading.active_count() == baseline


BLOW_UP = "state x\ndisturbance w\ndyn x' = 1e10*x + w\nmoments x x^2\n"


class TestNonFinite:
    """An overflowing result raises PropagationError at its first step, as propagate does, and warns nothing."""

    def setup_method(self):
        self.spec = parse_spec(BLOW_UP)
        self.system = trig_encode(self.spec)
        self.msys = compile_moment_system(self.system, self.system.target_moments)

    def test_mc_point_mass_fails_where_propagate_does(self):
        model = DisturbanceModel(self.msys, {"w": Degenerate(0.0)})
        init = propagator.init_deterministic(self.msys, {"x": 10.0})
        with pytest.raises(PropagationError) as exact:
            propagator.propagate(self.msys, init, model, 40)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(PropagationError) as mc:
                mc_simulate(self.spec, self.system, model, {"x": 10.0}, 40, 100, 0)
        assert str(mc.value) == str(exact.value) == "moment E[x^2] became non-finite at step 16"

    def test_mc_names_a_standard_error_that_overflows_first(self):
        model = DisturbanceModel(self.msys, {"w": Gaussian(0.0, 1.0)})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(PropagationError, match=r"^the standard error of moment E\[x\^2\] became "
                                                       r"non-finite at step 9$"):
                mc_simulate(self.spec, self.system, model, {"x": 10.0}, 40, 100, 0, batch_size=30)

    def test_linear_propagate_names_the_first_moment(self):
        model = DisturbanceModel(self.msys, {"w": Gaussian(0.0, 1.0)})
        lin = linearize(self.spec, {"x": 10.0})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(PropagationError, match=r"^moment Var\[x\] became non-finite at step 17$"):
                linear_propagate(lin, np.array([10.0]), np.zeros((1, 1)), model, 40)
            with pytest.raises(PropagationError, match=r"^moment E\[x\] became non-finite at step 31$"):
                linear_propagate(lin, np.array([10.0]), np.zeros((1, 1)), DisturbanceModel(
                    self.msys, {"w": Degenerate(0.0)}), 40)

    def test_finite_results_pass(self):
        model = DisturbanceModel(self.msys, {"w": Gaussian(0.0, 1.0)})
        mc = mc_simulate(self.spec, self.system, model, {"x": 10.0}, 8, 100, 0)
        pred = linear_propagate(linearize(self.spec, {"x": 10.0}), np.array([10.0]), np.zeros((1, 1)), model, 15)
        assert np.isfinite(mc.means).all() and np.isfinite(mc.ses).all()
        assert np.isfinite(pred.means).all() and np.isfinite(pred.covs).all()


class TestCountArguments:
    """A count that is not an integer (a float, a string or a bool) or is too small is a ValueError naming it."""

    @staticmethod
    def message(what, least, value):
        return "^" + re.escape(f"{what} must be an integer of at least {least}, got {value!r}") + "$"

    @pytest.mark.parametrize("what, least, value, position", [
        ("step count", 0, 2.0, 3), ("step count", 0, True, 3), ("step count", 0, -1, 3),
        ("sample count", 1, 100.5, 4), ("sample count", 1, 0, 4),
        ("batch size", 1, "10", 6), ("batch size", 1, 0, 6),
    ])
    def test_rollouts(self, what, least, value, position):
        spec, _, _, model = walk_setup(Gaussian(0.0, 1.0))
        args = [spec, model, {"x": 0.0}, 3, 100, 0, 10]
        args[position] = value
        with pytest.raises(ValueError, match=self.message(what, least, value)):
            rollouts(*args)

    @pytest.mark.parametrize("what, least, kwargs", [
        ("step count", 0, {"n_steps": True}), ("step count", 0, {"n_steps": 2.0}),
        ("sample count", 2, {"n_samples": 100.5}), ("sample count", 2, {"n_samples": 1}),
        ("batch size", 1, {"batch_size": 2.5}),
    ])
    def test_mc_simulate(self, what, least, kwargs):
        spec, system, msys, model = walk_setup(Gaussian(0.0, 1.0))
        args = {"x0": {"x": 0.0}, "n_steps": 3, "n_samples": 100, "seed": 0, "moments": tuple(msys.basis), **kwargs}
        (value,) = kwargs.values()
        with pytest.raises(ValueError, match=self.message(what, least, value)):
            mc_simulate(spec, system, model, **args)

    @pytest.mark.parametrize("value", [2.0, True, "4", -1])
    def test_linear_propagate(self, value):
        spec, _, _, model = walk_setup(Gaussian(0.0, 0.3))
        lin = linearize(spec, {"x": 0.0}, {"w": 0.0})
        with pytest.raises(ValueError, match=self.message("step count", 0, value)):
            linear_propagate(lin, np.zeros(1), np.zeros((1, 1)), model, value)


# -- the recorder against its twin ------------------------------------------------

# Exponents 0-4 of the first variable, 0-2 of the second and 0-1 of the third: the
# constant monomial, squares (x * x) and the np.power columns of 3 and 4, alone and in products.
RECORDED = tuple(MultiIndex(alpha) for alpha in itertools.product(range(5), range(3), range(2)))


def record_all(values, moments=RECORDED):
    """(mean, m2) rows of the C recorder, after checking them against its twin and the sequential reference."""
    factors, powers = oracle._factor_codes(moments, len(values))
    rows = [np.empty((2, len(moments))) for _ in range(3)]
    with np.errstate(over="ignore", invalid="ignore"):
        columns = values + [np.power(values[v], e) for v, e in powers]
        _kernels.record_moments(factors, rows[0], *columns)
        record_moments_python(factors, rows[1], *columns)
        record_sequential(values, moments, *rows[2])
    assert rows[0].tobytes() == rows[1].tobytes() == rows[2].tobytes()
    return rows[0]


@pytest.mark.parametrize("n", [*range(1, 10), 127, 128, 129, 135, 136, 137, 8192, 50_000, 100_001])
def test_recorder_matches_its_twin_at_every_pairwise_branch(n):
    """Sizes below 8, up to one block of 128, and split once or many times, as np.sum splits them."""
    rng = np.random.default_rng(n)
    values = [rng.normal(0.3, 1.0, n), rng.uniform(-2.0, 5.0, n) * 1e3, np.cos(rng.normal(0.0, 2.0, n))]
    mean, m2 = record_all(values)
    assert (mean[0], m2[0]) == (1.0, 0.0)  # the all-zero monomial
    assert oracle._factor_codes(RECORDED, 3)[1] == [(0, 3), (0, 4)]


@pytest.mark.parametrize("n", [5, 1000])
def test_recorder_gives_a_constant_column_its_value_and_zero_m2(n):
    values = [np.full(n, 0.3), np.full(n, -7.0), np.full(n, 1e-3)]
    mean, m2 = record_all(values)
    assert mean[RECORDED.index((1, 0, 0))] == 0.3 and mean[RECORDED.index((0, 1, 0))] == -7.0
    assert not m2.any()


@pytest.mark.parametrize("n", [6, 300])
def test_recorder_with_infinite_and_nan_samples(n):
    rng = np.random.default_rng(7)
    x, y, z = rng.normal(size=(3, n))
    x[5], y[1], y[3], z[0] = np.inf, np.nan, -np.inf, -np.inf
    mean, m2 = record_all([x, y, z])
    assert mean[RECORDED.index((1, 0, 0))] == np.inf and np.isnan(m2[RECORDED.index((1, 0, 0))])
    assert np.isnan(mean[RECORDED.index((0, 0, 1))])  # -inf - -inf at sample 0
    both = np.concatenate([mean, m2])
    assert (both[np.isnan(both)].view(np.int64) == np.float64(np.nan).view(np.int64)).all()  # each NaN is np.nan


@pytest.mark.parametrize("n", [3, 300])
def test_recorder_with_negative_zero_products(n):
    values = [np.full(n, -0.0), np.random.default_rng(1).uniform(0.5, 1.0, n), np.full(n, 2.0)]
    values[1][0] = 0.0
    assert np.signbit(values[0] * values[1]).all()
    record_all(values)


def test_recorder_rejects_bad_input_and_releases_buffers():
    module = _kernels._load_c()
    good = [np.array([[0, 3], [1, -1]]), np.empty((2, 2)), np.zeros(4), np.ones(4)]
    read_only = np.empty((2, 2))
    read_only.flags.writeable = False
    for position, bad, error, message in [
        (0, np.array([[0, 3], [1, -1]], dtype=np.int32), TypeError, "factors must be a C-contiguous 2-d int64"),
        (0, np.array([0, 3]), TypeError, "factors must be a C-contiguous 2-d int64"),
        (0, np.array([[0, 3]]), ValueError, r"out must be a writable C-contiguous float64 \(2, moments\) array"),
        (0, np.array([[0, 4], [1, -1]]), IndexError, "a factor code is out of range"),
        (0, np.array([[0, -2], [1, -1]]), IndexError, "a factor code is out of range"),
        (1, np.empty((2, 3)), ValueError, "out must be a writable"),
        (1, np.empty(4), ValueError, "out must be a writable"),
        (1, np.empty((2, 2), dtype=np.float32), ValueError, "out must be a writable"),
        (1, read_only, ValueError, "out must be a writable"),
        (1, "out", TypeError, None),
        (2, np.zeros(4, dtype=np.float32), TypeError, "columns must be C-contiguous 1-d float64 arrays"),
        (2, np.zeros(8)[::2], TypeError, "columns must be C-contiguous 1-d float64 arrays"),
        (2, np.zeros(3), TypeError, "of one length n >= 1"),
        (2, np.zeros((2, 2)), TypeError, "columns must be C-contiguous 1-d float64 arrays"),
        (3, np.zeros(5), TypeError, "of one length n >= 1"),
    ]:
        args = [*good[:position], bad, *good[position + 1 :]]
        before = [sys.getrefcount(arg) for arg in args]
        with pytest.raises(error, match=message and "^record_moments: .*" + message):
            module.record_moments(*args)
        assert [sys.getrefcount(arg) for arg in args] == before
    with pytest.raises(TypeError, match="^record_moments: columns must .* of one length n >= 1$"):
        module.record_moments(good[0], good[1], np.zeros(0), np.zeros(0))
    with pytest.raises(TypeError, match="takes at least 3 arguments"):
        module.record_moments(*good[:2])
    before = [sys.getrefcount(arg) for arg in good]
    assert module.record_moments(*good) is None
    assert [sys.getrefcount(arg) for arg in good] == before
    expected = np.empty((2, 2))
    record_moments_python(good[0], expected, *good[2:])
    assert good[1].tobytes() == expected.tobytes()


CONSTANT_UPDATE = "state x\ndisturbance w\ndyn x' = 0.5\nmoments x x^2\ndist w = gaussian(0, 1)\n"


def test_constant_update_is_a_point_mass(tmp_path):
    """A state update that evaluates to a float is a column of that value in every sample."""
    spec = parse_spec(CONSTANT_UPDATE)
    system = trig_encode(spec)
    model = DisturbanceModel(compile_moment_system(system, system.target_moments), spec.distributions)
    mc = mc_simulate(spec, system, model, {"x": 0.1}, 3, 1000, 0)
    assert mc.means[1:, mc.column("x")].tolist() == [0.5] * 3
    assert mc.means[1:, mc.column("x^2")].tolist() == [0.25] * 3
    assert not mc.ses.any()
    (tmp_path / "c.spec").write_text(CONSTANT_UPDATE)
    (tmp_path / "init.csv").write_text("x\n0.1\n")
    argv = ["mc", tmp_path / "c.spec", "--init", tmp_path / "init.csv", "-T", 3, "-N", 1000, "--seed", 0,
            "-o", tmp_path / "mc.csv"]
    assert cli.main([str(a) for a in argv]) == 0
    assert "\n1,0.5,0,0.25,0\n" in (tmp_path / "mc.csv").read_text()
