"""Scalar reference implementations that the tests compare the library against.

The library computes these quantities in bulk; the versions here follow the
textbook definitions one value at a time.
"""

from __future__ import annotations

import numpy as np

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
