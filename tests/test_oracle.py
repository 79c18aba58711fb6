import math

import numpy as np
import pytest

from momentprop import oracle, propagator
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
    central_second_moment_stats,
    compare,
    compare_tables,
    linear_propagate,
    linearize,
    mc_simulate,
    sampler_moments,
)
from momentprop.polyring import MultiIndex
from momentprop.sysspec import parse_spec, trig_encode

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
        assert pred.raw_moment(("x", "y"), (1, 0))[0] == 1.0
        assert pred.raw_moment(("x", "y"), (2, 0))[0] == pytest.approx(0.5 + 1.0)
        assert pred.raw_moment(("x", "y"), (1, 1))[0] == pytest.approx(0.1 + 2.0)
        assert pred.raw_moment(("x", "y"), (2, 1)) is None


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

    def test_zero_se_tolerance_scales_with_value(self):
        big = 1e6
        exact = np.array([[big], [big], [1.0], [1.0]])
        mc_means = np.array([[np.nextafter(big, 0.0)], [big * (1 + 1e-9)], [1.0 + 1e-13], [1.0 + 1e-9]])
        report = compare_tables(["m"], exact, mc_means, np.zeros((4, 1)))
        assert [r.z_exact for r in report.rows] == [0.0, math.inf, 0.0, math.inf]

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
