"""Reference implementations that the tests compare the library against.

The library computes these quantities in bulk, cached or compiled; the
versions here follow the textbook definitions one value at a time, and no
library code calls them.  Each checks one production path:

- `evaluate_polynomial`: exact evaluation of a `Polynomial` at a rational
  point, the simulation that the compiled moments are checked against.
- `pow_multiindex`: f^alpha by repeated `Polynomial` products, against the
  compiler's packed, memoised powers (`compiler._packed_power_builder`).
- `moment_update_form` and `reduce_form`: one target's update form, cache-free,
  against each form of `compile_moment_system` (seen through
  `MomentStateSystem.forms`).  `reduce_form` splits blocks with the public
  `sysspec.components_of_support`, not the compiler's cached splitter.
- `is_complete`: closure of a basis under its forms, checked on compiled systems.
- `moment`: one disturbance moment E[w_t^beta_w] of a `DisturbanceModel`,
  against each column of `DisturbanceModel.moment_table`.
- `step`: one application of the recursion, a one-step `propagator.propagate`.
- `propagate_mp`: the term table's recursion in high precision, with a bound
  on a float64 run's distance from it, against `_kernels.run_steps`.
- `sampler_moments`: the first four sample moments of `distmoments.sample`.
- `central_second_moment_stats`: Monte Carlo variances and covariance with
  per-batch standard errors, from `oracle.mc_simulate`'s batch means.
- `simulate_controls`: the noise-free unicycle rollout of
  `planner.dubins_steer`'s controls.
- `cantelli_bound` and `obstacle_risk`: the scalar risk bound per step and
  obstacle, against `planner.trajectory_risk`.
- `run_steps_python`, `risk_bound_python`, `steer_python`,
  `grow_tree_python`, `trig_moments_python` and `record_moments_python`:
  numpy and Python twins of the six C entry points of `momentprop._kernels`,
  operation for operation, against which each is checked bit for bit.
  `steer_python` takes the two poses, as `_kernels.dubins_steer` does,
  checks them and measures their distance with `relative` (the C
  `edge_path`'s view of them), and finds its path with `shortest_path`,
  the word search over `dubins_words` that the C `shortest_word` repeats.
  `grow_tree_python` is the planner's iteration loop, with
  `nearest_node`'s nearest-node rule; `run_steps_python` also takes the
  risk budget and moment plan that `grow_tree` runs each edge with.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

import mpmath
import numpy as np

from momentprop import distmoments
from momentprop.compiler import MomentBasis, MomentStateSystem, MomentUpdateForm, MufTerm, second_moment_indices
from momentprop.distmoments import Degenerate, DisturbanceModel, Gaussian, Uniform, raw_moment, trig_moment
from momentprop.oracle import McEstimate
from momentprop.planner import Polytope
from momentprop.polyring import MultiIndex, Polynomial
from momentprop.propagator import MomentState, central_second_moments, propagate
from momentprop.sysspec import DependenceGraph, PolynomialSystem, components_of_support


# -- polynomials and compiled forms ------------------------------------------------


def evaluate_polynomial(p: Polynomial, assignment: Mapping[str, Fraction | int]) -> Fraction:
    """Exact evaluation at a rational point (all ambient variables assigned)."""
    values = [Fraction(assignment[name]) for name in p.vars]
    total = Fraction(0)
    for mi, coeff in p.terms.items():
        term = coeff
        for v, e in zip(values, mi):
            if e:
                term *= v**e
        total += term
    return total


def pow_multiindex(components: Sequence[Polynomial], alpha: MultiIndex) -> Polynomial:
    """Componentwise power product of a polynomial vector: prod_i p_i^alpha_i.

    The result degree is sum_i alpha_i * deg(p_i) when no component is zero.
    """
    if len(alpha) != len(components):
        raise ValueError(f"multi-index length {len(alpha)} does not match component count {len(components)}")
    if not components:
        raise ValueError("empty polynomial vector")
    result = Polynomial.constant(components[0].vars, 1)
    for p, e in zip(components, alpha):
        if e:
            result = result * p**e
    return result


def _sorted_form(target: MultiIndex, terms: list[MufTerm], reduced: bool) -> MomentUpdateForm:
    # The key is total on distinct (dist_index, state_factors), so the
    # order of `terms` on entry cannot change the result.
    terms.sort(key=lambda term: (term.dist_index.grlex_key(), tuple(f.grlex_key() for f in term.state_factors)))
    return MomentUpdateForm(target, tuple(terms), reduced)


def moment_update_form(system: PolynomialSystem, alpha: MultiIndex) -> MomentUpdateForm:
    """Un-reduced moment update form of E[x_{t+1}^alpha]."""
    if len(alpha) != len(system.vars):
        raise ValueError("target multi-index length does not match state variable count")
    terms = []
    for mi, coeff in pow_multiindex(system.f, alpha).terms.items():
        beta_x, beta_w = mi.split(len(alpha))
        terms.append(MufTerm(coeff, beta_w, () if beta_x.is_zero() else (beta_x,)))
    return _sorted_form(alpha, terms, reduced=False)


def reduce_form(form: MomentUpdateForm, graph: DependenceGraph) -> MomentUpdateForm:
    """Factor each term's state moment along the dependence graph components.

    Terms that become identical after factoring are merged by coefficient
    addition.
    """
    if form.reduced:
        raise ValueError("form is already reduced")
    merged: dict[tuple[MultiIndex, tuple[MultiIndex, ...]], Fraction] = {}
    for term in form.terms:
        blocks = ()
        if term.state_factors:
            blocks = tuple(sorted(components_of_support(graph, term.state_factors[0]), key=MultiIndex.grlex_key))
        key = (term.dist_index, blocks)
        merged[key] = merged.get(key, 0) + term.coeff
    out = [MufTerm(c, beta_w, factors) for (beta_w, factors), c in merged.items() if c]
    return _sorted_form(form.target, out, reduced=True)


def is_complete(basis: MomentBasis, forms: Sequence[MomentUpdateForm], reduced: bool) -> bool:
    """True iff every state factor used by the forms is itself in the basis."""
    for form in forms:
        if form.reduced != reduced:
            return False
        for term in form.terms:
            for factor in term.state_factors:
                if factor not in basis:
                    return False
    return True


# -- disturbance moments and propagation ---------------------------------------------


def moment(model: DisturbanceModel, beta_w: MultiIndex, t) -> float | np.ndarray:
    """E[w_t^beta_w] over the encoded disturbance variables at step t.

    Independent components multiply; each encoded (cos, sin) pair is
    resolved jointly through one trigonometric moment.  `t` may be an
    int or an array of step indices.
    """
    if len(beta_w) != len(model.dist_vars):
        raise ValueError("disturbance multi-index length mismatch")
    out = np.ones(np.shape(t)) if np.ndim(t) else 1.0
    for slot in model._raw_slots:
        k = beta_w[slot.index]
        if k:
            out = out * raw_moment(model.distributions[slot.source], model.shift_at(slot.source, t), k)
    for slot in model._trig_slots:
        m = beta_w[slot.cos_index]
        n = beta_w[slot.sin_index]
        if m or n:
            total_shift = slot.base_shift + model.shift_at(slot.source, t)
            # A pair with no source variable has its whole angle in the base shift.
            dist = model.distributions.get(slot.source, Degenerate(0.0))
            out = out * trig_moment(dist, total_shift, m, n)
    return out


def step(msys: MomentStateSystem, state: MomentState, model: DisturbanceModel) -> MomentState:
    """One application of the moment recursion: a one-step :func:`propagate`."""
    return propagate(msys, state, model, 1).state(1)


def propagate_mp(msys: MomentStateSystem, values0: np.ndarray, table: np.ndarray, dps: int = 60):
    """The term table's recursion in `dps`-digit arithmetic, and a bound on a float64 run's distance from it.

    The coefficients are `exact_coeffs`; the initial state and the disturbance
    table (row t serves step t) are its floats, taken exactly.  Returns
    (values, bound), lists of per-step lists of mpf.  A float64 run rounds each
    coefficient once, term k's product of c_k + 1 factors c_k + 1 times, and
    target j's sum of its n_j terms at most n_j times, so term k carries a
    relative error of at most gamma(n_j + c_k + 2), gamma(m) = m u / (1 - m u)
    and u = 2^-53 (Higham, Accuracy and Stability of Numerical Algorithms,
    Lemma 3.1).  With errors E in the factors, |prod(v + e) - prod(v)| <=
    prod(|v| + E) - prod(|v|), so by induction over the steps the run's error in
    moment j at step t is at most bound[t][j], where bound[0] is 0 and
    bound[t + 1][j] = sum over j's terms of |coeff * w| * ((1 + gamma) * prod(|v| + E) - prod(|v|)).
    """
    target, _, req, fact = msys.term_table
    n_terms = np.bincount(target, minlength=len(values0))
    with mpmath.workdps(dps):
        u = mpmath.mpf(2) ** -53
        terms = []
        for k, (num, den) in enumerate(msys.exact_coeffs):
            factors = [f for f in fact[k].tolist() if f >= 0]
            m = int(n_terms[target[k]]) + len(factors) + 2
            terms.append((int(target[k]), mpmath.mpf(num) / den, int(req[k]), factors, m * u / (1 - m * u)))
        values, bound = [[mpmath.mpf(float(v)) for v in values0]], [[mpmath.mpf(0)] * len(values0)]
        for row in table:
            v, e = values[-1], bound[-1]
            w = [mpmath.mpf(float(x)) for x in row]
            nxt, err = [mpmath.mpf(0)] * len(v), [mpmath.mpf(0)] * len(v)
            for j, c, r, factors, gamma in terms:
                exact, size, widened = c * w[r], abs(c * w[r]), abs(c * w[r])
                for f in factors:
                    exact, size, widened = exact * v[f], size * abs(v[f]), widened * (abs(v[f]) + e[f])
                nxt[j] += exact
                err[j] += (1 + gamma) * widened - size
            values.append(nxt)
            bound.append(err)
    return values, bound


# -- oracles -----------------------------------------------------------------------


def sampler_moments(dist: distmoments.Distribution, n: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """First four sample moments and their standard errors (sampler validation)."""
    rng = np.random.Generator(np.random.PCG64(seed))
    x = distmoments.sample(dist, rng, n)
    means = np.array([np.mean(x**k) for k in range(1, 5)])
    ses = np.array([np.std(x**k, ddof=1) / np.sqrt(n) for k in range(1, 5)])
    return means, ses


def central_second_moment_stats(mc: McEstimate, names: tuple[str, str]) -> dict[str, tuple[float, float]]:
    """Variance/covariance estimates with SEs from the per-batch spread.

    Each batch yields its own Var/Cov estimate from its raw moment means;
    the spread of those B estimates gives a standard error without tracking
    fourth moments.  Returns {"var_a", "var_b", "cov_ab"} -> (estimate, se).
    """
    a, b = names
    positions = [mc.moments.index(mi) for mi in second_moment_indices(mc.state_vars, a, b, mc.moments)]
    n_batches = mc.batch_means.shape[0]
    if n_batches < 2:
        raise ValueError("need at least two batches for central-moment standard errors")
    _, _, *per_batch = central_second_moments(mc.batch_means, positions)  # each (B, T+1)
    out = {}
    for key, series in zip(("var_" + a, "var_" + b, "cov_" + a + b), per_batch):
        est = np.mean(series, axis=0)
        se = np.std(series, axis=0, ddof=1) / np.sqrt(n_batches)
        out[key] = (est, se)
    return out


# -- planner -----------------------------------------------------------------------


def simulate_controls(pose: Sequence[float], controls: np.ndarray, speed: float) -> np.ndarray:
    """Discrete rollout of the noise-free unicycle: returns poses, t = 0..N."""
    out = np.empty((len(controls) + 1, 3))
    out[0] = pose
    x, y, h = pose
    for k, u in enumerate(controls):
        x += speed * math.cos(h)
        y += speed * math.sin(h)
        h += u
        out[k + 1] = (x, y, h)
    return out


def cantelli_bound(mean: float, variance: float) -> float:
    """One-sided tail bound on P(g <= 0) from the mean and variance of g.

    Valid for every distribution with these two moments.  The bound is 1
    when the mean is negative (the average case already violates), and the
    zero-mean zero-variance corner is defined as 0.
    """
    if variance < 0:
        raise ValueError("variance must be nonnegative")
    if mean < 0:
        return 1.0
    if variance == 0.0:
        return 0.0
    return variance / (variance + mean * mean)


def obstacle_risk(mu: np.ndarray, sigma: np.ndarray, obstacle: Polytope) -> float:
    """Upper bound on P(position inside obstacle): least risky face wins."""
    best = 1.0
    for (ax, ay), b in obstacle.halfspaces:
        mean = ax * mu[0] + ay * mu[1] + b
        var = (
            ax * ax * sigma[0, 0]
            + 2.0 * ax * ay * sigma[0, 1]
            + ay * ay * sigma[1, 1]
        )
        best = min(best, cantelli_bound(mean, max(var, 0.0)))
    return best


# -- kernel twins ------------------------------------------------------------------
# Each computes what one C entry point of `momentprop._kernels` computes, with the
# same IEEE operations on the same operands in the same order, so the two agree bit
# for bit.  conftest's `use_kernel_twins` sets them in place of the entry points.


def run_steps_python(values0, table, target, coeff, req, fact, out, *budget):
    """Evaluate the moment recursion for table.shape[0] steps: `_kernels.run_steps`' twin.

    out[t] is the moment state at step t; fact holds per-term factor indices
    padded with -1.  Returns (step, moment index) of the first non-finite
    value, or (-1, -1) on success.  With a budget (positions, faces, starts,
    parent_risk, epsilon), each finite row's bound is added as it is computed
    and the loop stops once parent_risk + bound > epsilon; the result then
    also holds the steps bounded and parent_risk + their bound.  That bound
    is `risk_bound_python` of the rows so far, whose running sum adds each
    row's obstacles in the order the C loop does.  A moment plan after the
    budget (schedule, then `DisturbanceModel.steering_plan`'s slots, factors,
    freqs, coefficients, base, p, q, uniform and first) writes row t of the
    table before step t: `trig_moments_python` of schedule[t] into a copy of
    the slot row's columns from `first` on, then `distmoments._products`.
    """
    *obstacles, parent_risk, epsilon = budget[:5] or (None, None)
    schedule, slots, factors, freqs, coefficients, base, p, q, uniform, first = budget[5:] or (None,) * 10
    if schedule is not None and len(schedule) < table.shape[0]:
        raise IndexError("run_steps: the schedule is shorter than the steps")
    slots = None if schedule is None else np.array(slots)

    def spent(rows):
        return (rows.shape[0] - 1, parent_risk + risk_bound_python(rows, *obstacles)) if budget else ()

    n = values0.shape[0]
    n_steps = table.shape[0]
    n_terms = target.shape[0]
    max_f = fact.shape[1]
    for j in range(n):
        out[0, j] = values0[j]
    # A non-finite value is reported through the return value, as the C loop
    # does, so numpy's overflow and invalid-value warnings are not raised.
    with np.errstate(over="ignore", invalid="ignore"):
        for t in range(n_steps):
            if schedule is not None:
                moments = slots[None, first : first + coefficients.shape[1]]
                residue = trig_moments_python(schedule[t : t + 1], base, p, q, freqs, coefficients, moments, uniform)
                if residue > distmoments._IMAG_RESIDUE_TOL:
                    raise ArithmeticError(f"trig moment has non-real residue {residue:g}")
                table[t] = distmoments._products(slots[None], factors)[0]
            for j in range(n):
                out[t + 1, j] = 0.0
            for k in range(n_terms):
                v = coeff[k] * table[t, req[k]]
                for fi in range(max_f):
                    idx = fact[k, fi]
                    if idx >= 0:
                        v *= out[t, idx]
                out[t + 1, target[k]] += v
            for j in range(n):
                if not np.isfinite(out[t + 1, j]):
                    return (t + 1, j, *spent(out[: t + 1]))
            if budget:
                steps, risk = spent(out[: t + 2])
                if not risk <= epsilon:
                    return -1, -1, steps, risk
    return (-1, -1, *spent(out))


def risk_bound_python(values, positions, faces, starts):
    """Union bound on P(inside an obstacle) over steps 1..T, obstacles and faces: `_kernels.risk_bound`' twin.

    values[t] is the moment state at step t; `positions` index E[x], E[y],
    E[x^2], E[x*y] and E[y^2] in it.  Columns of the (6, F) `faces` table are
    the obstacles' half-spaces ax*x + ay*y + b <= 0, as rows ax, ay, b, ax*ax,
    2*ax*ay, ay*ay; obstacle i's faces start at column starts[i].  A face's
    Cantelli bound is 0 where its variance is 0 and 1 where its mean is
    negative; an obstacle's is its least risky face's (fmin, so NaN is
    skipped), at most 1; the total is summed left to right, step by step and
    then obstacle by obstacle.  May exceed 1.
    """
    # Non-finite moments give a bound, not a warning, as in the C loop.
    with np.errstate(over="ignore", invalid="ignore"):
        mu0, mu1, s00, s11, s01 = central_second_moments(values[1:], positions)
        ax, ay, b, axx, axy2, ayy = faces[:, :, None]
        mean = ax * mu0 + ay * mu1 + b
        var = np.maximum(axx * s00 + axy2 * s01 + ayy * s11, 0.0)
        bound = np.divide(var, var + mean * mean, out=np.zeros(var.shape), where=var != 0.0)
        np.copyto(bound, 1.0, where=mean < 0)
        risks = np.fmin(np.fmin.reduceat(bound, starts, axis=0), 1.0)
    return float(risks.T.cumsum()[-1]) if risks.size else 0.0


def mod2pi(angle: float) -> float:
    return angle % (2.0 * math.pi)


def dubins_words(alpha: float, beta: float, d: float):
    """Candidate (t, p, q, word) solutions in normalized units (radius 1): the six standard word types."""
    eps = 1e-9
    sa, ca = math.sin(alpha), math.cos(alpha)
    sb, cb = math.sin(beta), math.cos(beta)
    c_ab = math.cos(alpha - beta)
    out = []

    p_sq = 2 + d * d - 2 * c_ab + 2 * d * (sa - sb)
    if p_sq >= -eps:
        tmp = math.atan2(cb - ca, d + sa - sb)
        out.append((mod2pi(-alpha + tmp), math.sqrt(max(p_sq, 0.0)), mod2pi(beta - tmp), "LSL"))

    p_sq = 2 + d * d - 2 * c_ab + 2 * d * (sb - sa)
    if p_sq >= -eps:
        tmp = math.atan2(ca - cb, d - sa + sb)
        out.append((mod2pi(alpha - tmp), math.sqrt(max(p_sq, 0.0)), mod2pi(-beta + tmp), "RSR"))

    p_sq = -2 + d * d + 2 * c_ab + 2 * d * (sa + sb)
    if p_sq >= -eps:
        p = math.sqrt(max(p_sq, 0.0))
        tmp = math.atan2(-ca - cb, d + sa + sb) - math.atan2(-2.0, p)
        out.append((mod2pi(-alpha + tmp), p, mod2pi(-mod2pi(beta) + tmp), "LSR"))

    p_sq = d * d - 2 + 2 * c_ab - 2 * d * (sa + sb)
    if p_sq >= -eps:
        p = math.sqrt(max(p_sq, 0.0))
        tmp = math.atan2(ca + cb, d - sa - sb) - math.atan2(2.0, p)
        out.append((mod2pi(alpha - tmp), p, mod2pi(beta - tmp), "RSL"))

    tmp = (6.0 - d * d + 2 * c_ab + 2 * d * (sa - sb)) / 8.0
    if abs(tmp) <= 1.0:
        p = mod2pi(2.0 * math.pi - math.acos(tmp))
        t = mod2pi(alpha - math.atan2(ca - cb, d - sa + sb) + p / 2.0)
        out.append((t, p, mod2pi(alpha - beta - t + p), "RLR"))

    tmp = (6.0 - d * d + 2 * c_ab + 2 * d * (sb - sa)) / 8.0
    if abs(tmp) <= 1.0:
        p = mod2pi(2.0 * math.pi - math.acos(tmp))
        t = mod2pi(-alpha + math.atan2(-ca + cb, d + sa - sb) + p / 2.0)
        out.append((t, p, mod2pi(mod2pi(beta) - alpha - t + p), "LRL"))
    return out


@dataclass(frozen=True)
class DubinsPath:
    """Shortest path as (mode, length) segments in real units."""

    segments: tuple[tuple[str, float], ...]
    radius: float

    @property
    def length(self) -> float:
        """Segment lengths added left to right, as the C steering adds them; sum() compensates from Python 3.12 on."""
        total = 0.0
        for _, length in self.segments:
            total += length
        return total


def relative(
    from_pose: Sequence[float], to_pose: Sequence[float], radius: float
) -> tuple[float, float, float, float, float]:
    """(dx, dy, hypot(dx, dy), h0, h1) of two poses, in floats: the view of them that the C `edge_path` takes.

    Raises ValueError, naming the values, for an infinite coordinate or a
    distance that overflows when measured in turning radii.  A NaN passes:
    no word is then found.
    """
    x0, y0, h0 = from_pose = tuple(map(float, from_pose))
    x1, y1, h1 = to_pose = tuple(map(float, to_pose))
    if any(map(math.isinf, (*from_pose, *to_pose))):
        raise ValueError(f"pose coordinates must not be infinite, got {from_pose} and {to_pose}")
    dx, dy = x1 - x0, y1 - y0
    dist = math.hypot(dx, dy)
    if math.isinf(dist / radius):
        raise ValueError(f"distance / radius must be finite, got {dist} / {radius}")
    return dx, dy, dist, h0, h1


def shortest_path(dx: float, dy: float, dist: float, h0: float, h1: float, radius: float) -> DubinsPath | None:
    """The first shortest word from `relative`'s view of two poses, or None if no word is feasible."""
    d = dist / radius
    theta = math.atan2(dy, dx) if dist > 1e-12 else 0.0
    alpha = mod2pi(h0 - theta)
    beta = mod2pi(h1 - theta)
    best = None
    for t, p, q, word in dubins_words(alpha, beta, d):
        cost = t + p + q
        if best is None or cost < best[0]:
            best = (cost, t, p, q, word)
    if best is None:
        return None
    _, t, p, q, word = best
    segments = []
    for mode, n_units in zip(word, (t, p, q)):
        length = n_units * radius
        if math.isinf(length):
            raise ValueError(f"path segment length must be finite, got {n_units} * {radius}")
        if length > 1e-12:
            segments.append((mode, length))
    return DubinsPath(tuple(segments), radius)


def steer_python(x0, y0, h0, x1, y1, h1, speed, radius, max_steps):
    """The controls from pose (x0, y0, h0) to (x1, y1, h1), or None if no word is feasible: `_kernels.dubins_steer`'
    twin, after `planner.dubins_steer`'s checks of speed, radius and max_steps."""
    dx, dy, dist, h0, h1 = relative((x0, y0, h0), (x1, y1, h1), radius)
    path = shortest_path(dx, dy, dist, h0, h1, radius)
    if path is None:
        return None
    length = path.length
    if length <= 1e-12:
        return np.zeros(0)
    steps = min(length / speed, max_steps)  # capped before the count becomes an integer
    if math.isinf(steps):
        raise ValueError(f"step count must be finite, got length {length} / speed {speed}")
    n_steps = max(1, math.ceil(steps))
    # Heading at each step's arc length s, segment by segment: each segment
    # turns by min(remaining s, its length) / radius.
    s = np.minimum(np.arange(n_steps + 1) * speed, length)
    headings = np.full(n_steps + 1, h0)
    for mode, seg_length in path.segments:
        take = np.minimum(s, seg_length)
        if mode == "L":
            headings = headings + take / radius
        elif mode == "R":
            headings = headings - take / radius
        s = s - take
    return headings[1:] - headings[:-1]


def nearest_node(poses, sample, radius) -> int:
    """First row of `poses` minimizing hypot(dx, dy) + radius * |remainder(dh, 2 pi)| to `sample`.

    Every row is scored with numpy's hypot and fmod (libm's), and the best
    row is taken when no other scores within 1e-9 of it.  |fmod(dh, 2 pi)|
    folded onto [0, pi] is that remainder exactly (Sterbenz), but libm's
    hypot may differ from math.hypot by an ulp, so a near-tie band is settled
    with the scalar key.  A NaN score (from a non-finite pose, sample or
    radius) raises ValueError naming it.
    """
    x, y, h = sample
    dx, dy, dh = (np.array((x, y, h)) - poses).T
    a = np.abs(np.fmod(dh, 2.0 * math.pi))
    score = np.hypot(dx, dy) + radius * np.minimum(a, 2.0 * math.pi - a)
    near = (score <= score.min(initial=math.inf) * (1.0 + 1e-9)).nonzero()[0].tolist()
    if not near:
        if not math.isfinite(radius):
            raise ValueError(f"nearest-node radius must be finite, got {radius}")
        bad = [tuple(pose) for pose in (sample, *poses.tolist()) if not all(map(math.isfinite, pose))]
        raise ValueError(f"nearest-node poses must be finite, got {bad[0]}" if bad else "no poses to search")
    return min(near, key=lambda i: math.hypot(x - poses[i, 0], y - poses[i, 1])
               + radius * abs(math.remainder(h - poses[i, 2], 2.0 * math.pi)))


def grow_tree_python(samples, nodes, target, coeff, req, fact, positions, faces, starts, epsilon, speed, radius,
                     max_steps, *plan_and_outcomes):
    """`planner.build_rrt`'s iteration loop over the samples: `_kernels.grow_tree`' twin.

    Per sample: `nearest_node` among the nodes so far, `steer_python` from
    its pose (no word or no steps skip the sample), then `run_steps_python`
    with the parent's risk as the budget and the plan (`steering_plan`'s
    slots ... first) building each table row; an edge whose rows stay finite
    and whose risk stays within epsilon fills the next row of `nodes`.
    Returns the accepted edges' controls; `outcomes` gets each sample's
    cause and steps run.
    """
    *plan, outcomes = plan_and_outcomes
    count, kept = 1, []
    for i, sample in enumerate(samples.tolist()):
        near = nearest_node(nodes[:count, :3], sample, radius)
        parent = nodes[near]
        controls = steer_python(*parent[:3], *sample, speed, radius, max_steps)
        if controls is None or not len(controls):
            outcomes[i] = 1 if controls is None else 2, 0
            continue
        out = np.empty((len(controls) + 1, nodes.shape[1] - 5))
        table = np.empty((len(controls), plan[1].shape[1]))
        bad_t, _, steps, risk = run_steps_python(parent[5:], table, target, coeff, req, fact, out, positions[:5], faces,
                                                 starts, parent[3], epsilon, controls, *plan)
        outcomes[i] = (3, bad_t) if bad_t >= 0 else (0 if risk <= epsilon else 4, steps)
        if outcomes[i, 0] == 0:
            arrival = out[-1]
            heading = math.atan2(arrival[positions[6]], arrival[positions[5]])
            nodes[count] = arrival[positions[0]], arrival[positions[1]], heading, risk, near, *arrival
            kept.append(controls)
            count += 1
    return kept


def numpy_trig_moments(dist, shift, freqs, coefficients, out) -> float:
    """Write E[cos^m(X + s) sin^n(X + s)] into the (steps, pairs) `out`, per step s of the 1-d `shift`.

    The pairs are those of a `distmoments._laurent_matrix`.  The
    characteristic function is evaluated in one call over all frequencies,
    and each Laurent sum is taken left to right in frequency order (a
    sequential sum, not a BLAS product, which may fuse and reorder the
    multiply-adds).  Returns the largest |imaginary part| of the sums, NaN
    if one is NaN.
    """
    if not len(freqs):  # no pairs
        return 0.0
    values = distmoments.char_fn(dist, shift, freqs[:, None])
    terms = coefficients[:, :, None] * values[:, None]
    sums = terms[0]
    for term in terms[1:]:
        sums += term
    out[...] = sums.real.T
    return float(np.maximum.reduce(np.abs(sums.imag), axis=None, initial=0.0))


def trig_moments_python(shifts, base, p, q, freqs, coefficients, out, uniform) -> float:
    """`numpy_trig_moments` of Gaussian(p, q), or Uniform(p, q) if `uniform`, at base + shifts: `_kernels.trig_moments`'
    twin.

    A variance of 0 gives Degenerate(p)'s values bit for bit: (0 * t) * t
    / 2 is +0 for every finite t, and subtracting +0 changes no bit.
    """
    return numpy_trig_moments(Uniform(p, q) if uniform else Gaussian(p, q), base + shifts, freqs, coefficients, out)


def record_moments_python(factors, out, *columns) -> None:
    """One step's Monte Carlo sample mean and m2 of each moment: `_kernels.record_moments`' twin.

    Row j of `factors` holds moment j's codes, padded with -1: 2 * c for
    column c, 2 * c + 1 for it squared (np.square).  The product is formed in
    code order.  The sums run about the first sample's product (Chan, Golub &
    LeVeque 1983), so a column of identical samples gives its value exactly
    and m2 = 0.  out[0, j] is moment j's mean and out[1, j] its m2.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        for j, codes in enumerate(factors):
            acc = None
            for code in codes[codes >= 0]:
                p = np.square(columns[code >> 1]) if code & 1 else columns[code >> 1]
                acc = p if acc is None else acc * p
            if acc is None:
                out[0, j], out[1, j] = 1.0, 0.0
            else:
                shift = acc[0]
                d = acc - shift
                s = np.sum(d)
                out[0, j] = shift + s / acc.size
                out[1, j] = max(np.sum(d * d) - s * s / acc.size, 0.0)
