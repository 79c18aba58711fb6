"""Scalar reference implementations that the tests compare the library against.

The library computes these quantities in bulk; the versions here follow the
textbook definitions one value at a time.
"""

from __future__ import annotations

import mpmath
import numpy as np

from momentprop.compiler import MomentStateSystem
from momentprop.planner import Polytope


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
