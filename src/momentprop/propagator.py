"""Evaluation of compiled moment-state systems over a horizon."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from . import _kernels
from .compiler import MomentStateSystem
from .distmoments import DisturbanceModel
from .polyring import _check_count, monomial_name
from .tables import csv_text


class PropagationError(RuntimeError):
    """Raised when a propagated moment becomes non-finite."""


@dataclass
class MomentTrajectory:
    """Moment values at steps 0 .. n_steps (row k is step k), aligned with the compiled basis."""

    system: MomentStateSystem
    values: np.ndarray  # (n_steps + 1, n_basis)

    @property
    def n_steps(self) -> int:
        return self.values.shape[0] - 1

    def moment_series(self, name: str) -> np.ndarray:
        return self.values[:, self.system.moment_index(name)]


def init_deterministic(msys: MomentStateSystem, x0: Mapping[str, float]) -> np.ndarray:
    """Moment values of a point mass at `x0`, aligned with the compiled basis.

    `x0` gives each state of the spec by its name, an angle too (its cosine
    and sine are taken here, both NaN for an infinite angle); KeyError names
    the first one missing.  A moment that overflows from finite values
    raises `PropagationError` naming it at step 0; NaN and infinite values
    give their moments as they come.
    """
    read = {name: (float, name) for name in msys.state_vars}  # each encoded variable: (function, state it reads)
    for pair in msys.state_pairs:
        read[pair.cos_var], read[pair.sin_var] = (math.cos, pair.source), (math.sin, pair.source)
    given = initial_values(list(dict.fromkeys(name for _, name in read.values())), x0)
    point = [math.nan if fn is not float and math.isinf(given[name]) else fn(given[name]) for fn, name in read.values()]
    values = []
    for j, powers in enumerate(msys.basis.powers):
        v = 1.0
        for i, e in powers:
            try:
                v *= point[i] ** e
            except OverflowError:  # float ** raises where C's pow gives the signed infinity
                v *= math.copysign(math.inf, point[i]) if e % 2 else math.inf
        if not math.isfinite(v) and all(math.isfinite(point[i]) for i, _ in powers):
            name = monomial_name(msys.state_vars, msys.basis[j])
            raise PropagationError(f"moment E[{name}] became non-finite at step 0")
        values.append(v)
    return np.array(values)


def initial_values(names: Sequence[str], x0: Mapping[str, float]) -> dict[str, float]:
    """The values of `names` in `x0` as floats; KeyError names the first one missing."""
    for name in names:
        if name not in x0:
            raise KeyError(f"initial state value missing for {name!r}")
    return {name: float(x0[name]) for name in names}


def propagate(
    msys: MomentStateSystem,
    values: np.ndarray,
    model: DisturbanceModel,
    n_steps: int,
) -> MomentTrajectory:
    """Apply the compiled recursion for `n_steps` steps from the moment values `values`.

    Work is linear in n_steps times the number of terms.  The disturbance
    moments come from one `model.moment_table` call: a stationary model's
    table is one row, built once per model layout and shared by every step;
    shift schedules are evaluated over all steps at once, each from its
    first entry.
    """
    _check_count("step count", n_steps, 0)
    values0 = np.asarray(values, dtype=np.float64)
    n = len(msys.basis)
    if values0.shape != (n,):
        got = f"{values0.shape[0]} moment values" if values0.ndim == 1 else f"shape {values0.shape}"
        raise ValueError(f"initial state has {got}, but the system has {n} moments")
    out = np.empty((n_steps + 1, n))
    table = model.moment_table(msys.dist_requirements, n_steps)
    bad_t, bad_j = _kernels.run_steps(np.ascontiguousarray(values0), table, *msys.term_table, out)
    if bad_t >= 0:
        name = monomial_name(msys.state_vars, msys.basis[bad_j])
        raise PropagationError(f"moment E[{name}] became non-finite at step {bad_t}")
    return MomentTrajectory(msys, out)


def central_second_moments(values, positions: Sequence[int]) -> tuple:
    """Means, variances and covariance of a and b from their raw moments.

    `positions` index E[a], E[b], E[a^2], E[a*b] and E[b^2] along the last axis of the array `values`,
    or in a sequence of floats; returns the columns (mean_a, mean_b, var_a, var_b, cov_ab).  Squares
    are products, as a scalar's `** 2` (pow) may round otherwise: every input gives the same bits.
    """
    ea, eb, eaa, eab, ebb = (values[..., i] if isinstance(values, np.ndarray) else values[i] for i in positions)
    return ea, eb, eaa - ea * ea, ebb - eb * eb, eab - ea * eb


def mean_cov(traj: MomentTrajectory, names: Sequence[str]) -> tuple[np.ndarray, np.ndarray]:
    """Per-step mean vectors and 2x2 covariances of two state variables.

    Requires the basis to track both first moments, both second moments and
    the cross moment.  Covariances are symmetric by construction.
    """
    mean_a, mean_b, var_a, var_b, cov_ab = central_second_moments(traj.values, traj.system.pair_positions(*names))
    cov = np.stack([var_a, cov_ab, cov_ab, var_b], axis=1).reshape(-1, 2, 2)
    return np.stack([mean_a, mean_b], axis=1), cov


def trajectory_to_csv(traj: MomentTrajectory, metadata: Mapping[str, str] | None = None) -> str:
    """Render as CSV: header t,<moment names>, one row per step."""
    rows = ((k, *values) for k, values in enumerate(traj.values))
    return csv_text(["t", *traj.system.moment_names()], rows, metadata)
