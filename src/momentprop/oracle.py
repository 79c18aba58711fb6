"""Ground-truth and baseline engines: Monte Carlo and linearized propagation.

Monte Carlo simulates the ORIGINAL trigonometric system (sin/cos evaluated
numerically), so it validates the trig encoding and the compiled moment
recursion independently.  Sampling is batched with per-batch seeds derived
from one root seed and reduced in batch order, so results are bit-reproducible
regardless of how batches would be scheduled.  `rollouts` is the one rollout
engine: the Monte Carlo oracle and the planner's plan check both consume it.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Iterator, Mapping, Sequence

import numpy as np

from . import _kernels, distmoments, sysspec
from .distmoments import DisturbanceModel
from .polyring import MultiIndex, _check_count, monomial_name
from .propagator import MomentTrajectory, PropagationError, initial_values
from .sysspec import PolynomialSystem, SystemSpec
from .tables import csv_text

BATCH_SIZE = 100_000  # the default number of samples simulated at once, which bounds the rollouts' memory


@dataclass
class McEstimate:
    """Per-step Monte Carlo estimates of a set of state moments."""

    state_vars: tuple[str, ...]
    moments: tuple[MultiIndex, ...]  # over state_vars
    means: np.ndarray  # (n_steps + 1, n_moments)
    ses: np.ndarray  # standard errors: sample std / sqrt(N)
    n_samples: int
    seed: int
    batch_means: np.ndarray  # (n_batches, n_steps + 1, n_moments)

    @property
    def n_steps(self) -> int:
        return self.means.shape[0] - 1

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(monomial_name(self.state_vars, alpha) for alpha in self.moments)

    def column(self, name: str) -> int:
        """Column of a moment named as in a spec's `moments` line (``x*y``, ``y*x``, ``x^2``)."""
        try:
            return self.moments.index(sysspec.parse_monomial(name, self.state_vars))
        except ValueError:  # a SpecError too
            raise KeyError(f"moment {name!r} was not estimated") from None


def _encoded_arrays(
    system: PolynomialSystem, state: Mapping[str, np.ndarray], known: Mapping[tuple[str, str], np.ndarray]
) -> list[np.ndarray]:
    """Realize the encoded state variables from original-variable samples and their angles' cos/sin."""
    by_name = dict(state)
    for pair in system.state_pairs:
        by_name[pair.cos_var] = known["cos", pair.source]
        by_name[pair.sin_var] = known["sin", pair.source]
    return [by_name[name] for name in system.vars]


def _angle_trig(angles: Sequence[str], state: Mapping[str, np.ndarray]) -> dict[tuple[str, str], np.ndarray]:
    """cos and sin of each angle of `state`, by (fn, angle)."""
    return {(fn, a): sysspec.trig(fn, state[a]) for a in angles for fn in ("cos", "sin")}


def rollouts(
    spec: SystemSpec,
    model: DisturbanceModel,
    x0: Mapping[str, float],
    n_steps: int,
    n_samples: int,
    seed: int,
    batch_size: int,
) -> Iterator[tuple[int, Iterator[tuple[dict[str, np.ndarray], dict[tuple[str, str], np.ndarray]]]]]:
    """Seeded, batched rollouts of the original system, in batch order.

    Yields (batch size, states) per batch; `states` yields, at t = 0..n_steps,
    the batch's state (variable -> samples) and the cos and sin of its angles
    (("cos" or "sin", angle) -> samples), which the next step's update reads
    too.  Each batch draws from its own child seed spawned from `seed`,
    sampling the disturbances in spec order at every step and adding the
    model's shift.  A step count that is not an integer of at least 0, or a
    sample count or batch size that is not one of at least 1, raises
    ValueError at the call, and a state missing from `x0` raises KeyError
    there.
    """
    _check_count("step count", n_steps, 0)
    _check_count("sample count", n_samples, 1)
    _check_count("batch size", batch_size, 1)
    x0 = initial_values(spec.state_vars, x0)
    sizes = [batch_size] * (n_samples // batch_size)
    if n_samples % batch_size:
        sizes.append(n_samples % batch_size)
    children = np.random.SeedSequence(seed).spawn(len(sizes))
    return ((nb, _batch_states(spec, model, x0, n_steps, nb, child)) for nb, child in zip(sizes, children))


def _batch_states(spec, model, x0, n_steps, nb, seed_seq):
    rng = np.random.Generator(np.random.PCG64(seed_seq))

    def draw(t):
        out = {}
        for w in spec.disturbance_vars:
            out[w] = distmoments.sample(model.distribution(w), rng, nb)
            out[w] += float(model.shift_at(w, t))
        return out

    state = {name: np.full(nb, x0[name]) for name in spec.state_vars}
    known = _angle_trig(spec.angle_vars, state)
    # The draws do not depend on the state, so step t + 1's are made on one
    # helper thread (numpy's samplers and ufuncs release the GIL) while this
    # thread evaluates step t and the consumer records it.  Only the helper
    # touches `rng`, one step at a time and in spec order, so the stream is
    # the sequential one.  Leaving the block, by finishing, raising or
    # close(), joins the thread.
    with ThreadPoolExecutor(max_workers=1) as helper:
        pending = helper.submit(draw, 0) if n_steps else None
        yield state, known
        for t in range(n_steps):
            env = {**state, **pending.result()}
            if t + 1 < n_steps:
                pending = helper.submit(draw, t + 1)
            state = {name: sysspec.evaluate(spec.updates[name], env, known) for name in spec.state_vars}
            state = {name: v if np.ndim(v) else np.full(nb, v, dtype=float) for name, v in state.items()}  # a constant is a float
            known = _angle_trig(spec.angle_vars, state)
            yield state, known


def mc_simulate(
    spec: SystemSpec,
    system: PolynomialSystem,
    model: DisturbanceModel,
    x0: Mapping[str, float],
    n_steps: int,
    n_samples: int,
    seed: int,
    moments: Sequence[MultiIndex] | None = None,
    batch_size: int = BATCH_SIZE,
) -> McEstimate:
    """Estimate encoded state moments by simulating the original system.

    `moments` are multi-indices over the encoded state variables (default:
    the system's target moments).  Estimates carry exact standard errors
    (pooled per-sample variance) plus per-batch means for derived statistics.
    A mean or standard error that overflows raises PropagationError naming
    the first step and moment.
    """
    _check_count("sample count", n_samples, 2)
    batches = rollouts(spec, model, x0, n_steps, n_samples, seed, batch_size)  # checks the other counts at the call
    wanted = tuple(moments if moments is not None else system.target_moments)
    if not wanted:
        raise ValueError("no moments requested")
    n_mom = len(wanted)

    factors, powers = _factor_codes(wanted, len(system.vars))
    count = 0
    mean = np.zeros((n_steps + 1, n_mom))
    m2 = np.zeros((n_steps + 1, n_mom))
    batch_means = []

    with np.errstate(over="ignore", invalid="ignore"):  # checked once, on the finished tables
        for nb, states in batches:
            stats = np.empty((n_steps + 1, 2, n_mom))  # per step, each moment's mean and m2
            for t, (state, known) in enumerate(states):
                values = _encoded_arrays(system, state, known)
                _kernels.record_moments(factors, stats[t], *values, *(np.power(values[v], e) for v, e in powers))
            b_mean, b_m2 = stats[:, 0], stats[:, 1]
            batch_means.append(b_mean)
            # Chan's parallel variance merge, applied in fixed batch order.  The
            # cross term is 0 for the first batch, whose delta**2 may overflow.
            delta = b_mean - mean
            total = count + nb
            mean = mean + delta * (nb / total)
            m2 = m2 + b_m2 + (delta**2 * (count * nb / total) if count else 0.0)
            count = total
        ses = np.sqrt(m2 / (count - 1) / count)
    estimate = McEstimate(
        state_vars=system.vars,
        moments=wanted,
        means=mean,
        ses=ses,
        n_samples=count,
        seed=seed,
        batch_means=np.stack(batch_means),
    )
    _require_finite([f"E[{name}]" for name in estimate.names], mean, ses)
    return estimate


def _factor_codes(wanted: Sequence[MultiIndex], n_vars: int) -> tuple[np.ndarray, list[tuple[int, int]]]:
    """`_kernels.record_moments`' factors for `wanted`, and the (v, e) whose np.power columns follow the variables'.

    Exponents 1 and 2 of variable v are the codes 2 * v and 2 * v + 1 (x * x).
    """
    powers = sorted({(v, e) for alpha in wanted for v, e in enumerate(alpha) if e > 2})
    rows = [[2 * (n_vars + powers.index((v, e))) if e > 2 else 2 * v + e - 1 for v, e in enumerate(alpha) if e]
            for alpha in wanted]
    width = max(map(len, rows))
    return np.array([row + [-1] * (width - len(row)) for row in rows], dtype=np.int64), powers


def _require_finite(names: Sequence[str], values: np.ndarray, ses: np.ndarray | None = None) -> None:
    """PropagationError naming the first step, then the first column, where a table is not finite."""
    bad = ~np.isfinite(values) if ses is None else ~(np.isfinite(values) & np.isfinite(ses))
    hits = np.argwhere(bad)
    if hits.size:
        t, j = hits[0]
        what = "moment" if not np.isfinite(values[t, j]) else "the standard error of moment"
        raise PropagationError(f"{what} {names[j]} became non-finite at step {t}")


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


@dataclass(frozen=True)
class _Dual:
    """A value and its gradient over the spec's variables, for forward-mode differentiation."""

    value: float
    grad: np.ndarray

    def __add__(self, other: "_Dual") -> "_Dual":
        return _Dual(self.value + other.value, self.grad + other.grad)

    def __sub__(self, other: "_Dual") -> "_Dual":
        return _Dual(self.value - other.value, self.grad - other.grad)

    def __mul__(self, other: "_Dual") -> "_Dual":
        return _Dual(self.value * other.value, self.grad * other.value + self.value * other.grad)

    def __pow__(self, exponent: int) -> "_Dual":
        if exponent == 0:
            return _Dual(self.value**0, np.zeros_like(self.grad))
        grad = float(exponent) * self.grad
        if exponent > 1:
            grad = grad * self.value ** (exponent - 1)
        return _Dual(self.value**exponent, grad)


def linearize(
    spec: SystemSpec,
    x_star: Mapping[str, float],
    w_star: Mapping[str, float] | None = None,
    dt: float = 1.0,
) -> LinearModel:
    """Exact Jacobians of the original update map, scaled by dt.

    Each update's value and gradient come from one forward-mode walk of its
    expression.  With dt = 1 the affine model's step equals the first-order
    expansion of the true update about (x*, w*); other dt values rescale the
    deviation from identity as for Euler-discretized continuous dynamics.
    dt must be positive and finite.
    """
    if not 0.0 < dt < np.inf:
        raise ValueError(f"dt must be positive and finite, got {dt}")
    if w_star is None:
        w_star = {}
    env = initial_values(spec.state_vars, x_star)
    for w in spec.disturbance_vars:
        env[w] = float(w_star.get(w, 0.0))
    n = len(spec.state_vars)
    column = {name: j for j, name in enumerate(env)}

    def leaf(node) -> _Dual:
        grad = np.zeros(len(column))
        if isinstance(node, sysspec.Const):
            return _Dual(float(node.value), grad)
        if isinstance(node, sysspec.Sym):
            grad[column[node.name]] = 1.0
            return _Dual(env[node.name], grad)
        angle = env[node.arg]
        grad[column[node.arg]] = np.cos(angle) if node.fn == "sin" else 0.0 - np.sin(angle)
        return _Dual(np.sin(angle) if node.fn == "sin" else np.cos(angle), grad)

    duals = [sysspec.fold(spec.updates[name], leaf) for name in spec.state_vars]
    f_star = np.array([d.value for d in duals], dtype=float)
    jac = np.array([d.grad for d in duals]).reshape(n, len(column))
    jac_x, jac_w = jac[:, :n], jac[:, n:]
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

    def series(self, name: str) -> np.ndarray | None:
        """Raw-moment series of a moment named as in a spec's `moments` line (``x*y``, ``x^2``).

        None for a name the linear model cannot express: one naming another
        variable (such as an angle's cos/sin) or of degree above 2.
        """
        try:
            alpha = sysspec.parse_monomial(name, self.state_vars)
        except sysspec.SpecError:
            return None
        idx = [i for i, e in enumerate(alpha) for _ in range(e)]
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

    Covariances are symmetrized every step and stay PSD up to roundoff.  A
    mean or covariance that overflows raises PropagationError naming the
    first step and the moment, as E[x], Var[x] or Cov[x, y].
    """
    _check_count("step count", n_steps, 0)
    n = len(lin.state_vars)
    mus = np.empty((n_steps + 1, n))
    covs = np.empty((n_steps + 1, n, n))
    mus[0] = np.asarray(mu0, dtype=float)
    covs[0] = np.asarray(sigma0, dtype=float)
    phi = np.eye(n) + lin.A
    w_var = np.array([distmoments.variance(model.distribution(w)) for w in lin.dist_vars])
    w_means = np.empty((n_steps, len(lin.dist_vars)))  # row t: each disturbance's mean at step t
    with np.errstate(over="ignore", invalid="ignore"):  # checked once, on the finished tables
        for j, w in enumerate(lin.dist_vars):
            w_means[:, j] = distmoments.raw_moment(model.distribution(w), model.shift_at(w, np.arange(n_steps)), 1)
        noise = (lin.B * w_var) @ lin.B.T  # the same every step
        for t in range(n_steps):
            mus[t + 1] = phi @ mus[t] + lin.B @ w_means[t] + lin.c
            cov = phi @ covs[t] @ phi.T + noise
            covs[t + 1] = (cov + cov.T) / 2.0
    i, j = np.triu_indices(n)
    v = lin.state_vars
    names = [f"E[{a}]" for a in v] + [f"Var[{v[a]}]" if a == b else f"Cov[{v[a]}, {v[b]}]" for a, b in zip(i, j)]
    _require_finite(names, np.concatenate([mus, covs[:, i, j]], axis=1))
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
    flagged: list[tuple[int, str, float]]  # (t, moment, z) with |z| > 5 or z NaN

    def to_csv(self, metadata: Mapping[str, str] | None = None) -> str:
        summary = {"max |z| exact vs MC": format(self.max_abs_z_exact, ".3f"),
                   "flagged rows (|z| > 5 or NaN)": len(self.flagged)}
        rows = [(r.t, r.moment, r.exact, r.mc_mean, r.mc_se, format(r.z_exact, ".6g"),
                 "" if r.lin_value is None else r.lin_value, "" if r.z_lin is None else format(r.z_lin, ".6g"))
                for r in self.rows]
        header = "t,moment,exact,mc_mean,mc_se,z_exact,lin_value,z_lin".split(",")
        return csv_text(header, rows, {**(metadata or {}), **summary})

    def plot_data_csv(self) -> str:
        """Long-format per-moment series for external plotting."""
        rows = []
        for r in self.rows:
            rows.append(("exact", r.t, r.moment, r.exact))
            rows.append(("mc", r.t, r.moment, r.mc_mean))
            rows.append(("mc_se", r.t, r.moment, r.mc_se))
            if r.lin_value is not None:
                rows.append(("linearized", r.t, r.moment, r.lin_value))
        return csv_text(["series", "t", "moment", "value"], rows)


# Per step and per unit of moment scale; see `compare_tables` for the rule.
_ZERO_SE_RTOL = 1e-12


def _z_score(value: float, mc_mean: float, mc_se: float, zero_se_atol: float) -> float:
    diff = value - mc_mean
    if mc_se == 0.0:
        return 0.0 if abs(diff) <= zero_se_atol else float("inf")
    return diff / mc_se


def compare_tables(
    names: Sequence[str],
    exact: np.ndarray,
    mc_means: np.ndarray,
    mc_ses: np.ndarray,
    lin: Mapping[str, np.ndarray | None] | None = None,
) -> ComparisonReport:
    """Comparison report from aligned (n_steps + 1, n_moments) value tables.

    z is (value - MC mean) / MC SE.  Where the SE is 0 (no sample spread),
    both sides are deterministic and differ only by rounding, so z is 0 when

        |value - MC mean| <= 1e-12 * (1 + t) * max(1, |value|, max_j |exact[t, j]|)

    and inf otherwise, where t is the row (steps since the first row) and
    value the exact or linearized moment.  Each step of either computation
    rounds relative to the largest moments it combines, and that rounding
    accumulates over the t steps; a moment that passes near zero keeps the
    error of its large neighbours, hence the row maximum.
    """
    shapes = {exact.shape, mc_means.shape, mc_ses.shape}
    if len(shapes) != 1 or exact.shape[1] != len(names):
        raise ValueError("comparison tables must share one (steps, moments) shape")
    step_rtol = _ZERO_SE_RTOL * (1 + np.arange(exact.shape[0]))
    zero_se_atol = step_rtol * np.max(np.abs(exact), axis=1, initial=1.0)
    rows: list[ComparisonRow] = []
    flagged = []
    max_z = 0.0
    for j, name in enumerate(names):
        lin_series = None if lin is None else lin.get(name)
        for t in range(exact.shape[0]):
            z = _z_score(float(exact[t, j]), float(mc_means[t, j]), float(mc_ses[t, j]), zero_se_atol[t])
            lin_v = None if lin_series is None else float(lin_series[t])
            lin_z = None
            if lin_v is not None:
                lin_atol = max(zero_se_atol[t], step_rtol[t] * abs(lin_v))
                lin_z = _z_score(lin_v, float(mc_means[t, j]), float(mc_ses[t, j]), lin_atol)
            rows.append(
                ComparisonRow(t, name, float(exact[t, j]), float(mc_means[t, j]),
                              float(mc_ses[t, j]), z, lin_v, lin_z)
            )
            if not abs(z) <= 5:  # NaN too
                flagged.append((t, name, z))
            max_z = max(max_z, abs(z)) if np.isfinite(z) else float("inf")
    return ComparisonReport(rows, max_z, flagged)


def compare(exact: MomentTrajectory, mc: McEstimate, lin: LinearPrediction | None = None) -> ComparisonReport:
    """Tabulate exact vs MC (z-scores) and, when given, the linearized baseline; see :func:`compare_columns`."""
    return compare_columns(exact.system.moment_names(), exact.values, mc.names, mc.means, mc.ses, lin)


def compare_columns(exact_names: Sequence[str], exact: np.ndarray, mc_names: Sequence[str], mc_means: np.ndarray,
                    mc_ses: np.ndarray, lin: LinearPrediction | None = None) -> ComparisonReport:
    """Compare the moments that both tables name, in the exact table's column order.

    Tables have one row per step and one column per name.  Linearized values
    are filled in only for moments of total degree <= 2 in variables the
    linear model tracks (angle-pair moments have no linearized counterpart).
    """
    mc_column = {name: j for j, name in enumerate(mc_names)}
    kept = [(i, mc_column[name]) for i, name in enumerate(exact_names) if name in mc_column]
    if not kept:
        raise ValueError("no common moments between the exact and MC tables")
    horizons = [("MC", mc_means.shape[0])] + ([] if lin is None else [("linearized", lin.means.shape[0])])
    for what, rows in horizons:
        if rows != exact.shape[0]:
            raise ValueError(f"horizon mismatch: exact has {exact.shape[0]} rows, {what} has {rows}")
    ex_cols, mc_cols = (list(cols) for cols in zip(*kept))
    names = [exact_names[i] for i in ex_cols]
    lin_map = None if lin is None else {name: lin.series(name) for name in names}
    return compare_tables(names, exact[:, ex_cols], mc_means[:, mc_cols], mc_ses[:, mc_cols], lin_map)
