"""Acceptance suite: one test per release criterion, at the stated tolerance.

Each test prints a PASS line on success (run with -s or -rP to see them);
a failed criterion fails its test.  The Monte Carlo criteria use fixed
seeds, so the whole suite is reproducible.
"""

import math
import time
from fractions import Fraction

import numpy as np
import pytest
from scipy import integrate

from momentprop import compiler, distmoments, oracle, planner, presets, propagator
from momentprop.distmoments import (
    Beta,
    Degenerate,
    DisturbanceModel,
    Gaussian,
    Uniform,
    raw_moment,
    trig_moment,
)
from momentprop.polyring import MultiIndex, monomial_name
from momentprop.propagator import init_deterministic, mean_cov, propagate, step

import reference
from randsys import monomial_arrays, poly_eval_arrays, random_system, random_target

X0 = {"x": 0.0, "y": 0.0, "v": 1.0, "theta": 0.0}


def report(criterion: int, message: str) -> None:
    print(f"ACCEPTANCE PASS {criterion}: {message}")


@pytest.fixture(scope="module")
def benchmark_mc(dubins_spec, dubins_system, dubins_reduced):
    """Shared T=100, N=1e6 Monte Carlo of the benchmark scenario (fixed seed)."""
    model = DisturbanceModel(dubins_reduced, presets.benchmark_noise())
    traj = propagate(dubins_reduced, init_deterministic(dubins_reduced, X0), model, 100)
    mc = oracle.mc_simulate(
        dubins_spec,
        dubins_system,
        model,
        X0,
        n_steps=100,
        n_samples=10**6,
        seed=2718,
        moments=tuple(dubins_reduced.basis),
        batch_size=50_000,
    )
    return traj, mc


def test_criterion_1_completion_reproduction(dubins_system):
    """Reduced completion is exactly the known 20-moment set; un-reduced adds the extras."""
    t0 = time.perf_counter()
    reduced = compiler.compile_moment_system(dubins_system, dubins_system.target_moments, reduced=True)
    unreduced = compiler.compile_moment_system(dubins_system, dubins_system.target_moments, reduced=False)
    elapsed = time.perf_counter() - t0
    expected = {
        "x", "y", "x*y", "x^2", "y^2",
        "c_theta", "s_theta", "v", "v^2",
        "x*s_theta", "y*s_theta", "x*c_theta", "y*c_theta",
        "s_theta^2", "c_theta^2", "c_theta*s_theta",
        "x*v*s_theta", "x*v*c_theta", "y*v*s_theta", "y*v*c_theta",
    }
    names = set(reduced.moment_names())
    assert names == expected, f"reduced completion mismatch: {sorted(names ^ expected)}"
    extras = {
        "v^2*s_theta^2", "v*s_theta^2", "v^2*c_theta*s_theta",
        "v*c_theta^2", "v^2*c_theta^2",
    }
    unreduced_names = set(unreduced.moment_names())
    assert extras <= unreduced_names, f"missing un-reduced extras: {sorted(extras - unreduced_names)}"
    assert elapsed < 1.0, f"compilation took {elapsed:.3f}s (budget 1s)"
    report(1, f"20-element reduced basis reproduced; un-reduced has the 5 extras ({elapsed * 1e3:.0f} ms)")


def test_criterion_2_mc_agreement(benchmark_mc, dubins_reduced):
    """Every propagated basis moment within 5 SE of the 1e6-sample MC at every step."""
    traj, mc = benchmark_mc
    worst = 0.0
    for j, name in enumerate(mc.names):
        series = traj.moment_series(name)
        for t in range(mc.n_steps + 1):
            se = mc.ses[t, j]
            diff = abs(series[t] - mc.means[t, j])
            if se == 0.0:
                assert diff <= 1e-12 * max(1.0, abs(series[t])), f"{name} at t={t}"
            else:
                z = diff / se
                worst = max(worst, z)
                assert z <= 5.0, f"|z| = {z:.2f} for {name} at t={t}"
    report(2, f"all 20 moments within 5 SE over 101 steps (max |z| = {worst:.2f})")


def test_criterion_3_linearization_divergence(benchmark_mc, dubins_spec, dubins_reduced):
    """Linearized second central moments diverge (|z| > 10) while exact stays within 5."""
    traj, mc = benchmark_mc
    noise = presets.benchmark_noise()
    w_star = {w: distmoments.mean(d) for w, d in noise.items()}
    lin = oracle.linearize(dubins_spec, X0, w_star)
    model = DisturbanceModel(dubins_reduced, noise)
    mu0 = np.array([X0[v] for v in dubins_spec.state_vars])
    pred = oracle.linear_propagate(lin, mu0, np.zeros((4, 4)), model, 100)
    stats = oracle.central_second_moment_stats(mc, ("x", "y"))
    means, covs = mean_cov(traj, ("x", "y"))
    exact_central = {
        "var_x": covs[100, 0, 0],
        "var_y": covs[100, 1, 1],
        "cov_xy": covs[100, 0, 1],
    }
    lin_central = {
        "var_x": pred.covs[100, 0, 0],
        "var_y": pred.covs[100, 1, 1],
        "cov_xy": pred.covs[100, 0, 1],
    }
    lin_z = {}
    for key in exact_central:
        est, se = stats[key]
        assert se[100] > 0
        z_exact = abs(exact_central[key] - est[100]) / se[100]
        assert z_exact <= 5.0, f"exact {key} drifted: |z| = {z_exact:.2f}"
        lin_z[key] = abs(lin_central[key] - est[100]) / se[100]
    assert max(lin_z.values()) > 10.0, f"linearization unexpectedly close: {lin_z}"
    report(
        3,
        "linearized second central moments diverge (max |z| = "
        f"{max(lin_z.values()):.0f}) while exact stays within 5",
    )


def test_criterion_4_throughput(dubins_reduced):
    """1e5 steps of the 20-moment compiled system within 100 ms.

    The warm-up call covers the one-time kernel preparation: the build of
    the C kernel when its cached library is missing.
    """
    model = DisturbanceModel(dubins_reduced, presets.benchmark_noise())
    init = init_deterministic(dubins_reduced, X0)
    propagate(dubins_reduced, init, model, 100)  # warm the kernel
    best = math.inf
    for _ in range(3):
        t0 = time.perf_counter()
        propagate(dubins_reduced, init, model, 100_000)
        best = min(best, time.perf_counter() - t0)
    assert best <= 0.100, f"1e5 steps took {best * 1e3:.1f} ms (budget 100 ms)"
    report(4, f"1e5 steps in {best * 1e3:.1f} ms ({best * 10:.2f} us/step)")


def _quad_trig(dist, m, n):
    if isinstance(dist, Gaussian):
        mu, sigma = dist.mean, math.sqrt(dist.variance)

        def integrand(z):
            x = mu + sigma * z
            return math.cos(x) ** m * math.sin(x) ** n * math.exp(-z * z / 2) / math.sqrt(2 * math.pi)

        value, _ = integrate.quad(integrand, -12, 12, epsabs=1e-13, epsrel=1e-13, limit=400)
        return value
    a, b = dist.lower, dist.upper
    value, _ = integrate.quad(
        lambda x: math.cos(x) ** m * math.sin(x) ** n, a, b,
        epsabs=1e-13, epsrel=1e-13, limit=400,
    )
    return value / (b - a)


def test_criterion_5_trig_moment_oracle():
    """Characteristic-function trig moments match adaptive quadrature to 1e-9."""
    dists = [
        Gaussian(mu, var)
        for mu in (-1.0, 0.0, 0.04, 1.0)
        for var in (1e-8, 0.03, 1.0)
    ] + [
        Uniform(center - width / 2, center + width / 2)
        for center in (-1.0, 0.0, 0.04, 1.0)
        for width in (0.1, 1.0, math.pi)
    ]
    pairs = [(m, n) for m in range(7) for n in range(7) if 1 <= m + n <= 6]
    worst = 0.0
    for dist in dists:
        for m, n in pairs:
            got = trig_moment(dist, 0.0, m, n)
            want = _quad_trig(dist, m, n)
            worst = max(worst, abs(got - want))
            assert abs(got - want) <= 1e-9, f"{dist}, m={m}, n={n}: |delta| = {abs(got - want):.2e}"
        for shift in (0.0, 0.7):
            pyth = trig_moment(dist, shift, 2, 0) + trig_moment(dist, shift, 0, 2)
            assert abs(pyth - 1.0) <= 1e-12, f"{dist} shift {shift}: c^2+s^2 = {pyth}"
    report(5, f"{len(dists) * len(pairs)} trig moments within 1e-9 of quadrature (worst {worst:.1e})")


def _random_distribution(rng) -> distmoments.Distribution:
    kind = rng.integers(0, 4)
    if kind == 0:
        return Gaussian(float(rng.uniform(-0.5, 0.5)), float(rng.uniform(0.01, 0.5)))
    if kind == 1:
        a = float(rng.uniform(-1.0, 0.0))
        return Uniform(a, a + float(rng.uniform(0.2, 1.5)))
    if kind == 2:
        return Beta(float(rng.uniform(1, 12)), float(rng.uniform(1, 1200)))
    return Degenerate(float(rng.uniform(-0.5, 0.5)))


def test_criterion_6_muf_brute_force():
    """200 random systems: one-step moments vs MC (5 SE) and exact degenerate match."""
    rng = np.random.default_rng(2024)
    n_mc = 10**6
    worst_z = 0.0
    for trial in range(200):
        system = random_system(rng)
        alpha = random_target(rng, len(system.vars))
        x0 = {v: Fraction(int(rng.integers(-4, 5)), 8) for v in system.vars}
        dists = {w: _random_distribution(rng) for w in system.dist_vars}

        reduced = trial % 2 == 1
        form = compiler.moment_update_form(system, alpha)
        if reduced:
            form = compiler.reduce_form(form, system.graph)

        # Compiled one-step moment from exact point-mass state moments.
        model = DisturbanceModel(system, dists)
        compiled = 0.0
        for term in form.terms:
            value = float(term.coeff) * float(model.moment(term.dist_index, 0))
            for factor in term.state_factors:
                for v, e in zip(system.vars, factor):
                    if e:
                        value *= float(x0[v]) ** e
            compiled += value

        # MC of the polynomial step itself.
        w_arrays = {
            w: distmoments.sample(dists[w], rng, n_mc) for w in system.dist_vars
        }
        env = {v: np.full(n_mc, float(x0[v])) for v in system.vars}
        env.update(w_arrays)
        next_state = [poly_eval_arrays(p, env) for p in system.f]
        samples = monomial_arrays(next_state, alpha)
        mc_mean = float(np.mean(samples))
        se = float(np.std(samples, ddof=1) / math.sqrt(n_mc))
        diff = abs(compiled - mc_mean)
        # The relative guard covers effectively deterministic monomials, where
        # se collapses to float noise and "within 5 SE" loses meaning.
        tol = max(5 * se, 1e-10 * max(1.0, abs(compiled)))
        if diff > 1e-10 * max(1.0, abs(compiled)) and se > 0:
            worst_z = max(worst_z, diff / se)
        assert diff <= tol, (
            f"trial {trial}: compiled {compiled} vs MC {mc_mean} +- {se} "
            f"(reduced={reduced}, alpha={tuple(alpha)})"
        )

        # Degenerate disturbances: exact rational agreement with simulation.
        w0 = {w: Fraction(int(rng.integers(-2, 3)), 4) for w in system.dist_vars}
        point = {**x0, **w0}
        x1 = [p.evaluate(point) for p in system.f]
        expected = Fraction(1)
        for value, e in zip(x1, alpha):
            expected *= value**e
        total = Fraction(0)
        for term in form.terms:
            value = term.coeff
            for w, e in zip(system.dist_vars, term.dist_index):
                if e:
                    value *= w0[w] ** e
            for factor in term.state_factors:
                for v, e in zip(system.vars, factor):
                    if e:
                        value *= x0[v] ** e
            total += value
        assert total == expected, f"trial {trial}: exact degenerate mismatch"
    report(6, f"200 random systems: MC within 5 SE (worst |z| = {worst_z:.2f}), degenerate exact")


def test_criterion_7_risk_bound_validity():
    """Cantelli bound dominates MC violation frequency; prior-work decision matches."""
    rng = np.random.default_rng(99)
    n_pool = 10**6
    pool = np.sort(rng.standard_normal(n_pool))
    checked_equiv = 0
    for _ in range(10_000):
        mu = rng.uniform(-2, 2, size=2)
        a_mat = rng.uniform(-1, 1, size=(2, 2))
        sigma = a_mat @ a_mat.T + 1e-6 * np.eye(2)
        direction = rng.normal(size=2)
        direction /= np.linalg.norm(direction)
        b = rng.uniform(-2, 2)
        mean = float(direction @ mu + b)
        var = float(direction @ sigma @ direction)
        s = math.sqrt(var)
        # g = mean + s Z, violation when g <= 0; one shared pool per criterion note
        freq = np.searchsorted(pool, -mean / s, side="right") / n_pool
        bound = reference.cantelli_bound(mean, var)
        se = math.sqrt(freq * (1 - freq) / n_pool)
        assert freq <= bound + 6 * se + 1e-12, (
            f"violation {freq} above bound {bound} (mean={mean}, var={var})"
        )
        if mean >= 0:
            eps = float(rng.uniform(1e-6, 1 - 1e-6))
            ours = bound <= eps
            prior = mean >= s * math.sqrt((1 - eps) / eps)
            assert ours == prior
            checked_equiv += 1
    report(7, f"10000 instances dominated; decision equivalence on {checked_equiv} nonneg-margin cases")


def test_criterion_8_planner_chance_constraint(dubins_spec, dubins_reduced):
    """Risk-bounded plan under N(0, 1e-8) noise; MC rollouts respect the 0.1 budget."""
    env = planner.parse_environment(presets.PLANNER_ENV)
    noise = presets.planner_noise()
    result = planner.build_rrt(
        env, dubins_reduced, noise, epsilon=0.1, iterations=400, seed=11
    )
    assert result.found, "no plan found with the fixed seed"
    assert all(n.risk_to_node <= 0.1 for n in result.nodes)
    goal = result.nodes[result.goal_node]
    controls = result.path_controls()
    freq = planner.estimate_plan_collision(
        dubins_spec, noise, env, controls,
        n_rollouts=10**5, seed=5, steer_source="wt", initial_speed=0.05,
    )
    assert freq <= 0.1, f"empirical collision frequency {freq}"
    report(
        8,
        f"plan of {len(controls)} steps, bound {goal.risk_to_node:.4f} <= 0.1, "
        f"collision frequency {freq:.2e}",
    )


def test_criterion_9_ltv_property(dubins_reduced, dubins_unreduced):
    """Un-reduced step map is affine to 1e-12; reduced == un-reduced to 1e-10 over 1000 steps."""
    noise = presets.benchmark_noise()
    model_u = DisturbanceModel(dubins_unreduced, noise)
    rng = np.random.default_rng(7)
    n = len(dubins_unreduced.basis)
    for _ in range(50):
        m1 = propagator.MomentState(rng.normal(size=n), 0)
        m2 = propagator.MomentState(rng.normal(size=n), 0)
        lam = float(rng.uniform())
        blend = propagator.MomentState(lam * m1.values + (1 - lam) * m2.values, 0)
        lhs = step(dubins_unreduced, blend, model_u).values
        rhs = lam * step(dubins_unreduced, m1, model_u).values + (1 - lam) * step(
            dubins_unreduced, m2, model_u
        ).values
        rel = np.abs(lhs - rhs) / np.maximum(1.0, np.maximum(np.abs(lhs), np.abs(rhs)))
        assert rel.max() <= 1e-12, f"affinity violated: {rel.max():.2e}"

    model_r = DisturbanceModel(dubins_reduced, noise)
    traj_r = propagate(dubins_reduced, init_deterministic(dubins_reduced, X0), model_r, 1000)
    traj_u = propagate(dubins_unreduced, init_deterministic(dubins_unreduced, X0), model_u, 1000)
    worst = 0.0
    for name in ("x", "y", "x*y", "x^2", "y^2"):
        a = traj_r.moment_series(name)
        b = traj_u.moment_series(name)
        rel = np.abs(a - b) / np.maximum(1.0, np.maximum(np.abs(a), np.abs(b)))
        worst = max(worst, float(rel.max()))
    assert worst <= 1e-10, f"reduced vs un-reduced drift {worst:.2e}"
    report(9, f"affinity holds to 1e-12; reduced/un-reduced agree to {worst:.1e} over 1000 steps")
