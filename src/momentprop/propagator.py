"""Evaluation of compiled moment-state systems over a horizon."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from . import _kernels
from .compiler import MomentStateSystem
from .distmoments import DisturbanceModel
from .polyring import MultiIndex

_TRIG_CONSISTENCY_TOL = 1e-9


class PropagationError(RuntimeError):
    """Raised when a propagated moment becomes non-finite."""


@dataclass
class MomentState:
    """Moment values aligned with the compiled basis at one time step."""

    values: np.ndarray
    time: int = 0


@dataclass
class MomentTrajectory:
    """Moment states at steps t0 .. t0 + n_steps (row k is step t0 + k)."""

    system: MomentStateSystem
    values: np.ndarray  # (n_steps + 1, n_basis)
    t0: int = 0

    @property
    def n_steps(self) -> int:
        return self.values.shape[0] - 1

    def state(self, k: int) -> MomentState:
        return MomentState(self.values[k], self.t0 + k)

    def moment_series(self, name: str) -> np.ndarray:
        return self.values[:, self.system.moment_index(name)]


@dataclass
class _RuntimeArrays:
    """Flattened term table for the inner loop; cached per compiled system."""

    requirements: tuple[MultiIndex, ...]
    target: np.ndarray
    coeff: np.ndarray
    req: np.ndarray
    fact: np.ndarray


def _runtime_arrays(msys: MomentStateSystem) -> _RuntimeArrays:
    cached = getattr(msys, "_runtime_arrays_cache", None)
    if cached is not None:
        return cached
    requirements = msys.dist_requirements
    req_index = {mi: i for i, mi in enumerate(requirements)}
    targets, coeffs, reqs, facts = [], [], [], []
    width = max(
        [len(t.state_factors) for form in msys.forms for t in form.terms] + [1]
    )
    for i, form in enumerate(msys.forms):
        for term in form.terms:
            targets.append(i)
            coeffs.append(float(term.coeff))
            reqs.append(req_index[term.dist_index])
            row = [msys.basis.index_of(f) for f in term.state_factors]
            facts.append(row + [-1] * (width - len(row)))
    arrays = _RuntimeArrays(
        requirements=requirements,
        target=np.asarray(targets, dtype=np.int64),
        coeff=np.asarray(coeffs, dtype=np.float64),
        req=np.asarray(reqs, dtype=np.int64),
        fact=np.asarray(facts, dtype=np.int64).reshape(len(targets), width),
    )
    object.__setattr__(msys, "_runtime_arrays_cache", arrays)
    return arrays


def init_deterministic(msys: MomentStateSystem, x0: Mapping[str, float]) -> MomentState:
    """Moment state of a point mass at `x0`.

    Angle states may be given either by their original angle name (the
    cosine/sine pair is derived) or by the encoded pair directly, in which
    case the pair must sit on the unit circle to within 1e-9.
    """
    values_by_var: dict[str, float] = {}
    for pair in msys.state_pairs:
        if pair.source is not None and pair.source in x0:
            theta = float(x0[pair.source])
            values_by_var[pair.cos_var] = math.cos(theta)
            values_by_var[pair.sin_var] = math.sin(theta)
        else:
            try:
                c = float(x0[pair.cos_var])
                s = float(x0[pair.sin_var])
            except KeyError:
                raise KeyError(
                    f"initial state needs {pair.source!r} or the pair ({pair.cos_var!r}, {pair.sin_var!r})"
                ) from None
            if abs(c * c + s * s - 1.0) > _TRIG_CONSISTENCY_TOL:
                raise ValueError(
                    f"inconsistent trig pair ({pair.cos_var}, {pair.sin_var}): "
                    f"{c}^2 + {s}^2 = {c * c + s * s:.12g} != 1"
                )
            values_by_var[pair.cos_var] = c
            values_by_var[pair.sin_var] = s
    for name in msys.state_vars:
        if name not in values_by_var:
            if name not in x0:
                raise KeyError(f"initial state value missing for {name!r}")
            values_by_var[name] = float(x0[name])

    point = [values_by_var[name] for name in msys.state_vars]
    values = np.empty(len(msys.basis))
    for i, alpha in enumerate(msys.basis):
        v = 1.0
        for x, e in zip(point, alpha):
            if e:
                v *= x**e
        values[i] = v
    return MomentState(values, 0)


def propagate(
    msys: MomentStateSystem,
    init: MomentState,
    model: DisturbanceModel,
    n_steps: int,
) -> MomentTrajectory:
    """Apply the compiled recursion for `n_steps` steps from `init`.

    Work is linear in n_steps times the number of update-form terms.
    Disturbance moments are resolved once per step and shared across forms;
    shift schedules are indexed starting at `init.time`.
    """
    if n_steps < 0:
        raise ValueError("step count must be nonnegative")
    arrays = _runtime_arrays(msys)
    out = np.empty((n_steps + 1, len(msys.basis)))
    bad_t, bad_j = _kernels.run_steps(
        np.asarray(init.values, dtype=np.float64),
        model.moment_table(arrays.requirements, n_steps, start=init.time),
        arrays.target,
        arrays.coeff,
        arrays.req,
        arrays.fact,
        out,
    )
    if bad_t >= 0:
        name = msys.moment_names()[bad_j]
        raise PropagationError(
            f"moment E[{name}] became non-finite at step {init.time + int(bad_t)}"
        )
    return MomentTrajectory(msys, out, t0=init.time)


def step(msys: MomentStateSystem, state: MomentState, model: DisturbanceModel) -> MomentState:
    """One application of the moment recursion: a one-step :func:`propagate`."""
    return propagate(msys, state, model, 1).state(1)


def _pair_indices(msys: MomentStateSystem, names: Sequence[str]) -> dict[str, int]:
    """Basis positions of the moments `mean_cov` reads; cached per compiled system."""
    cache = msys.__dict__.setdefault("_pair_indices_cache", {})
    pair = tuple(names)
    if pair in cache:
        return cache[pair]
    a, b = pair
    n = len(msys.state_vars)
    try:
        ia = msys.state_vars.index(a)
        ib = msys.state_vars.index(b)
    except ValueError:
        raise KeyError(f"state variables {names!r} not present in {msys.state_vars}") from None
    needed = {
        "a": MultiIndex.unit(n, ia),
        "b": MultiIndex.unit(n, ib),
        "aa": MultiIndex.unit(n, ia, 2),
        "ab": MultiIndex.unit(n, ia).plus(MultiIndex.unit(n, ib)),
        "bb": MultiIndex.unit(n, ib, 2),
    }
    out = {}
    for key, mi in needed.items():
        if mi not in msys.basis:
            raise KeyError(f"basis lacks the moment E[{key.replace('a', a).replace('b', b)}]")
        out[key] = msys.basis.index_of(mi)
    cache[pair] = out
    return out


def mean_cov(traj: MomentTrajectory, names: Sequence[str]) -> tuple[np.ndarray, np.ndarray]:
    """Per-step mean vectors and 2x2 covariances of two state variables.

    Requires the basis to track both first moments, both second moments and
    the cross moment.  Covariances are symmetric by construction.
    """
    idx = _pair_indices(traj.system, names)
    vals = traj.values
    mean = np.stack([vals[:, idx["a"]], vals[:, idx["b"]]], axis=1)
    var_a = vals[:, idx["aa"]] - mean[:, 0] ** 2
    var_b = vals[:, idx["bb"]] - mean[:, 1] ** 2
    cov_ab = vals[:, idx["ab"]] - mean[:, 0] * mean[:, 1]
    cov = np.empty((vals.shape[0], 2, 2))
    cov[:, 0, 0] = var_a
    cov[:, 1, 1] = var_b
    cov[:, 0, 1] = cov_ab
    cov[:, 1, 0] = cov_ab
    return mean, cov


def trajectory_to_csv(traj: MomentTrajectory, metadata: Mapping[str, str] | None = None) -> str:
    """Render as CSV: header t,<moment names>, one row per step."""
    lines = [f"# {k}: {v}" for k, v in (metadata or {}).items()]
    lines.append("t," + ",".join(traj.system.moment_names()))
    for k in range(traj.values.shape[0]):
        row = ",".join(format(v, ".17g") for v in traj.values[k])
        lines.append(f"{traj.t0 + k},{row}")
    return "\n".join(lines) + "\n"
