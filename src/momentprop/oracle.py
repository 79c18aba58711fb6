"""Ground-truth and baseline engines: Monte Carlo and linearized propagation.

Monte Carlo simulates the ORIGINAL trigonometric system (sin/cos evaluated
numerically), so it validates the trig encoding and the compiled moment
recursion independently.  Sampling is batched with per-batch seeds derived
from one root seed and reduced in batch order, so results are bit-reproducible
regardless of how batches would be scheduled.  `rollouts` is the one rollout
engine: the Monte Carlo oracle and the planner's plan check both consume it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Mapping, Sequence

import numpy as np

from . import distmoments, sysspec
from .distmoments import DisturbanceModel
from .polyring import MultiIndex, monomial_name
from .propagator import MomentTrajectory
from .sysspec import PolynomialSystem, SystemSpec


@dataclass
class McEstimate:
    """Per-step Monte Carlo estimates of a set of state moments."""

    names: tuple[str, ...]
    moments: tuple[MultiIndex, ...]
    means: np.ndarray  # (n_steps + 1, n_moments)
    ses: np.ndarray  # standard errors: sample std / sqrt(N)
    n_samples: int
    seed: int
    batch_means: np.ndarray  # (n_batches, n_steps + 1, n_moments)

    @property
    def n_steps(self) -> int:
        return self.means.shape[0] - 1

    def column(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise KeyError(f"moment {name!r} was not estimated") from None


def _encoded_arrays(
    system: PolynomialSystem, state: Mapping[str, np.ndarray]
) -> list[np.ndarray]:
    """Realize the encoded state variables from original-variable samples."""
    by_name = dict(state)
    for pair in system.state_pairs:
        theta = state[pair.source]
        by_name[pair.cos_var] = np.cos(theta)
        by_name[pair.sin_var] = np.sin(theta)
    return [by_name[name] for name in system.vars]


def rollouts(
    spec: SystemSpec,
    model: DisturbanceModel,
    x0: Mapping[str, float],
    n_steps: int,
    n_samples: int,
    seed: int,
    batch_size: int,
) -> Iterator[tuple[int, Iterator[dict[str, np.ndarray]]]]:
    """Seeded, batched rollouts of the original system, in batch order.

    Yields (batch size, states) per batch; `states` yields the batch's state
    (variable -> samples) at t = 0..n_steps.  Each batch draws from its own
    child seed spawned from `seed`, sampling the disturbances in spec order
    at every step and adding the model's shift.  A negative step count or a
    batch size below 1 raises ValueError at the call.
    """
    if n_steps < 0:
        raise ValueError("step count must be nonnegative")
    if batch_size < 1:
        raise ValueError(f"batch size must be at least 1, got {batch_size}")
    sizes = [batch_size] * (n_samples // batch_size)
    if n_samples % batch_size:
        sizes.append(n_samples % batch_size)
    children = np.random.SeedSequence(seed).spawn(len(sizes))
    return ((nb, _batch_states(spec, model, x0, n_steps, nb, child)) for nb, child in zip(sizes, children))


def _batch_states(spec, model, x0, n_steps, nb, seed_seq):
    rng = np.random.Generator(np.random.PCG64(seed_seq))
    state = {name: np.full(nb, float(x0[name])) for name in spec.state_vars}
    yield state
    for t in range(n_steps):
        full = dict(state)
        for w in spec.disturbance_vars:
            dist = model.distributions.get(w)
            if dist is None:
                raise KeyError(f"no distribution given for disturbance {w!r}")
            full[w] = distmoments.sample(dist, rng, nb) + float(model.shift_at(w, t))
        state = {name: sysspec.evaluate(spec.updates[name], full) for name in spec.state_vars}
        yield state


def mc_simulate(
    spec: SystemSpec,
    system: PolynomialSystem,
    model: DisturbanceModel,
    x0: Mapping[str, float],
    n_steps: int,
    n_samples: int,
    seed: int,
    moments: Sequence[MultiIndex] | None = None,
    batch_size: int = 100_000,
) -> McEstimate:
    """Estimate encoded state moments by simulating the original system.

    `moments` are multi-indices over the encoded state variables (default:
    the system's target moments).  Estimates carry exact standard errors
    (pooled per-sample variance) plus per-batch means for derived statistics.
    """
    if n_samples < 2:
        raise ValueError("need at least two samples")
    wanted = tuple(moments if moments is not None else system.target_moments)
    if not wanted:
        raise ValueError("no moments requested")
    n_mom = len(wanted)

    count = 0
    mean = np.zeros((n_steps + 1, n_mom))
    m2 = np.zeros((n_steps + 1, n_mom))
    batch_means = []

    for nb, states in rollouts(spec, model, x0, n_steps, n_samples, seed, batch_size):
        b_mean = np.empty((n_steps + 1, n_mom))
        b_m2 = np.empty((n_steps + 1, n_mom))
        for t, state in enumerate(states):
            _record(system, state, wanted, b_mean[t], b_m2[t])
        batch_means.append(b_mean)
        # Chan's parallel variance merge, applied in fixed batch order.
        delta = b_mean - mean
        total = count + nb
        mean = mean + delta * (nb / total)
        m2 = m2 + b_m2 + delta**2 * (count * nb / total)
        count = total

    ses = np.sqrt(m2 / (count - 1) / count)
    return McEstimate(
        names=tuple(monomial_name(system.vars, alpha) for alpha in wanted),
        moments=wanted,
        means=mean,
        ses=ses,
        n_samples=count,
        seed=seed,
        batch_means=np.stack(batch_means),
    )


def _record(system, state, wanted, mean_row, m2_row):
    values = _encoded_arrays(system, state)
    for j, alpha in enumerate(wanted):
        acc = None
        for arr, e in zip(values, alpha):
            if e:
                p = arr if e == 1 else arr**e
                acc = p if acc is None else acc * p
        if acc is None:
            mean_row[j] = 1.0
            m2_row[j] = 0.0
        else:
            # Sums about the column's first sample (Chan, Golub & LeVeque
            # 1983): a column of identical samples gives its value exactly
            # and m2 = 0, so a point mass has a standard error of exactly 0.
            shift = acc[0]
            d = acc - shift
            s = np.sum(d)
            mean_row[j] = shift + s / acc.size
            m2_row[j] = max(np.sum(d * d) - s * s / acc.size, 0.0)


def sampler_moments(dist: distmoments.Distribution, n: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """First four sample moments and their standard errors (sampler validation)."""
    rng = np.random.Generator(np.random.PCG64(seed))
    x = distmoments.sample(dist, rng, n)
    means = np.array([np.mean(x**k) for k in range(1, 5)])
    ses = np.array([np.std(x**k, ddof=1) / np.sqrt(n) for k in range(1, 5)])
    return means, ses


# -- linearized baseline --------------------------------------------------------


@dataclass
class LinearModel:
    """First-order model x_{t+1} = (I + A) x_t + B w_t + c about a fixed point."""

    A: np.ndarray
    B: np.ndarray
    c: np.ndarray
    state_vars: tuple[str, ...]
    dist_vars: tuple[str, ...]
    x_star: np.ndarray
    w_star: np.ndarray
    dt: float


def linearize(
    spec: SystemSpec,
    x_star: Mapping[str, float],
    w_star: Mapping[str, float] | None = None,
    dt: float = 1.0,
) -> LinearModel:
    """Exact symbolic Jacobians of the original update map, scaled by dt.

    With dt = 1 the affine model's step equals the first-order expansion of
    the true update about (x*, w*); other dt values rescale the deviation
    from identity as for Euler-discretized continuous dynamics.
    """
    if w_star is None:
        w_star = {}
    env: dict[str, float] = {name: float(x_star[name]) for name in spec.state_vars}
    for w in spec.disturbance_vars:
        env[w] = float(w_star.get(w, 0.0))
    n = len(spec.state_vars)
    n_w = len(spec.disturbance_vars)
    jac_x = np.empty((n, n))
    jac_w = np.empty((n, n_w))
    f_star = np.empty(n)
    for i, name in enumerate(spec.state_vars):
        update = spec.updates[name]
        f_star[i] = sysspec.evaluate(update, env)
        for j, other in enumerate(spec.state_vars):
            jac_x[i, j] = sysspec.evaluate(sysspec.differentiate(update, other), env)
        for j, w in enumerate(spec.disturbance_vars):
            jac_w[i, j] = sysspec.evaluate(sysspec.differentiate(update, w), env)
    x_vec = np.array([env[name] for name in spec.state_vars])
    w_vec = np.array([env[w] for w in spec.disturbance_vars])
    A = dt * (jac_x - np.eye(n))
    B = dt * jac_w
    c = dt * (f_star - x_vec) - A @ x_vec - B @ w_vec
    return LinearModel(A, B, c, spec.state_vars, spec.disturbance_vars, x_vec, w_vec, dt)


@dataclass
class LinearPrediction:
    """Mean/covariance trajectory of a linearized model (original variables)."""

    state_vars: tuple[str, ...]
    means: np.ndarray  # (n_steps + 1, n)
    covs: np.ndarray  # (n_steps + 1, n, n)

    @property
    def n_steps(self) -> int:
        return self.means.shape[0] - 1

    def raw_moment(self, names: Sequence[str], exponents: Sequence[int]) -> np.ndarray | None:
        """Raw moment series E[prod names^exponents], degree <= 2 only."""
        idx = []
        for name, e in zip(names, exponents):
            if e:
                if name not in self.state_vars:
                    return None
                idx.extend([self.state_vars.index(name)] * e)
        if len(idx) > 2:
            return None
        if not idx:
            return np.ones(self.means.shape[0])
        if len(idx) == 1:
            return self.means[:, idx[0]]
        i, j = idx
        return self.covs[:, i, j] + self.means[:, i] * self.means[:, j]


def linear_propagate(
    lin: LinearModel,
    mu0: np.ndarray,
    sigma0: np.ndarray,
    model: DisturbanceModel,
    n_steps: int,
) -> LinearPrediction:
    """Mean/covariance recursion of the affine model under independent noise.

    Covariances are symmetrized every step and stay PSD up to roundoff.
    """
    if n_steps < 0:
        raise ValueError("step count must be nonnegative")
    n = len(lin.state_vars)
    mus = np.empty((n_steps + 1, n))
    covs = np.empty((n_steps + 1, n, n))
    mus[0] = np.asarray(mu0, dtype=float)
    covs[0] = np.asarray(sigma0, dtype=float)
    phi = np.eye(n) + lin.A
    w_var = np.array([distmoments.variance(model.distributions[w]) for w in lin.dist_vars])
    for t in range(n_steps):
        w_mean = np.empty(len(lin.dist_vars))
        for j, w in enumerate(lin.dist_vars):
            dist = model.distributions[w]
            shift = float(model.shift_at(w, t))
            w_mean[j] = distmoments.raw_moment(dist, shift, 1)
        mus[t + 1] = phi @ mus[t] + lin.B @ w_mean + lin.c
        cov = phi @ covs[t] @ phi.T + (lin.B * w_var) @ lin.B.T
        covs[t + 1] = (cov + cov.T) / 2.0
    return LinearPrediction(lin.state_vars, mus, covs)


# -- comparison reporting --------------------------------------------------------


@dataclass
class ComparisonRow:
    t: int
    moment: str
    exact: float
    mc_mean: float
    mc_se: float
    z_exact: float
    lin_value: float | None
    z_lin: float | None


@dataclass
class ComparisonReport:
    rows: list[ComparisonRow]
    max_abs_z_exact: float
    flagged: list[tuple[int, str, float]]  # (t, moment, z) with |z| > 5

    def to_csv(self, metadata: Mapping[str, str] | None = None) -> str:
        lines = [f"# {k}: {v}" for k, v in (metadata or {}).items()]
        lines.append(f"# max |z| exact vs MC: {self.max_abs_z_exact:.3f}")
        lines.append(f"# flagged rows (|z| > 5): {len(self.flagged)}")
        lines.append("t,moment,exact,mc_mean,mc_se,z_exact,lin_value,z_lin")
        for r in self.rows:
            lin_v = "" if r.lin_value is None else format(r.lin_value, ".17g")
            lin_z = "" if r.z_lin is None else format(r.z_lin, ".6g")
            lines.append(
                f"{r.t},{r.moment},{r.exact:.17g},{r.mc_mean:.17g},{r.mc_se:.17g},"
                f"{r.z_exact:.6g},{lin_v},{lin_z}"
            )
        return "\n".join(lines) + "\n"

    def plot_data_csv(self) -> str:
        """Long-format per-moment series for external plotting."""
        lines = ["series,t,moment,value"]
        for r in self.rows:
            lines.append(f"exact,{r.t},{r.moment},{r.exact:.17g}")
            lines.append(f"mc,{r.t},{r.moment},{r.mc_mean:.17g}")
            lines.append(f"mc_se,{r.t},{r.moment},{r.mc_se:.17g}")
            if r.lin_value is not None:
                lines.append(f"linearized,{r.t},{r.moment},{r.lin_value:.17g}")
        return "\n".join(lines) + "\n"


# Relative to max(1, |value|): with no sample spread, exact and MC agree only
# up to the rounding of the two computations, which grows with the value.
_ZERO_SE_RTOL = 1e-12


def _z_score(value: float, mc_mean: float, mc_se: float) -> float:
    diff = value - mc_mean
    if mc_se == 0.0:
        return 0.0 if abs(diff) <= _ZERO_SE_RTOL * max(1.0, abs(value)) else float("inf")
    return diff / mc_se


def compare_tables(
    names: Sequence[str],
    exact: np.ndarray,
    mc_means: np.ndarray,
    mc_ses: np.ndarray,
    lin: Mapping[str, np.ndarray] | None = None,
) -> ComparisonReport:
    """Comparison report from aligned (n_steps + 1, n_moments) value tables."""
    shapes = {exact.shape, mc_means.shape, mc_ses.shape}
    if len(shapes) != 1 or exact.shape[1] != len(names):
        raise ValueError("comparison tables must share one (steps, moments) shape")
    rows: list[ComparisonRow] = []
    flagged = []
    max_z = 0.0
    for j, name in enumerate(names):
        lin_series = None if lin is None else lin.get(name)
        for t in range(exact.shape[0]):
            z = _z_score(float(exact[t, j]), float(mc_means[t, j]), float(mc_ses[t, j]))
            lin_v = None if lin_series is None else float(lin_series[t])
            lin_z = None
            if lin_v is not None:
                lin_z = _z_score(lin_v, float(mc_means[t, j]), float(mc_ses[t, j]))
            rows.append(
                ComparisonRow(t, name, float(exact[t, j]), float(mc_means[t, j]),
                              float(mc_ses[t, j]), z, lin_v, lin_z)
            )
            if abs(z) > 5:
                flagged.append((t, name, z))
            max_z = max(max_z, abs(z)) if np.isfinite(z) else float("inf")
    return ComparisonReport(rows, max_z, flagged)


def compare(
    exact: MomentTrajectory,
    mc: McEstimate,
    lin: LinearPrediction | None = None,
) -> ComparisonReport:
    """Tabulate exact vs MC (z-scores) and, when given, the linearized baseline.

    Linearized values are filled in only for moments of total degree <= 2
    in variables the linear model tracks (angle-pair moments have no
    linearized counterpart).
    """
    if exact.n_steps != mc.n_steps or (lin is not None and lin.n_steps != mc.n_steps):
        raise ValueError("trajectory, MC and linearized horizons must match")
    basis_names = exact.system.moment_names()
    kept = [(j, name) for j, name in enumerate(mc.names) if name in basis_names]
    names = [name for _, name in kept]
    exact_tbl = np.stack([exact.moment_series(name) for name in names], axis=1)
    mc_means = np.stack([mc.means[:, j] for j, _ in kept], axis=1)
    mc_ses = np.stack([mc.ses[:, j] for j, _ in kept], axis=1)
    lin_map = None
    if lin is not None:
        moments = {name: mc.moments[j] for j, name in kept}
        lin_map = linear_series(lin, exact.system.state_vars, moments)
    return compare_tables(names, exact_tbl, mc_means, mc_ses, lin_map)


def linear_series(
    lin: LinearPrediction, variables: Sequence[str], moments: Mapping[str, MultiIndex]
) -> dict[str, np.ndarray]:
    """Linearized raw-moment series by name, for the moments `lin` can express.

    `moments` maps names to multi-indices over `variables`.
    """
    out = {}
    for name, alpha in moments.items():
        series = lin.raw_moment(variables, alpha)
        if series is not None:
            out[name] = series
    return out


def central_second_moment_stats(mc: McEstimate, names: tuple[str, str]) -> dict[str, tuple[float, float]]:
    """Variance/covariance estimates with SEs from the per-batch spread.

    Each batch yields its own Var/Cov estimate from its raw moment means;
    the spread of those B estimates gives a standard error without tracking
    fourth moments.  Returns {"var_a", "var_b", "cov_ab"} -> (estimate, se).
    """
    a, b = names
    cols = {key: mc.column(key) for key in (a, b, f"{a}^2", f"{b}^2")}
    cross = f"{a}*{b}" if f"{a}*{b}" in mc.names else f"{b}*{a}"
    cols["ab"] = mc.column(cross)
    bm = mc.batch_means  # (B, T+1, M)
    out = {}
    per_batch = {
        "var_" + a: bm[:, :, cols[f"{a}^2"]] - bm[:, :, cols[a]] ** 2,
        "var_" + b: bm[:, :, cols[f"{b}^2"]] - bm[:, :, cols[b]] ** 2,
        "cov_" + a + b: bm[:, :, cols["ab"]] - bm[:, :, cols[a]] * bm[:, :, cols[b]],
    }
    n_batches = bm.shape[0]
    if n_batches < 2:
        raise ValueError("need at least two batches for central-moment standard errors")
    for key, series in per_batch.items():
        est = np.mean(series, axis=0)
        se = np.std(series, axis=0, ddof=1) / np.sqrt(n_batches)
        out[key] = (est, se)
    return out
