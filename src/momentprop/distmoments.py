"""Exact raw and trigonometric moments of disturbance distributions.

Raw moments come from closed forms; trigonometric moments E[cos^m(X) sin^n(X)]
come from expanding the exponential forms of sin and cos into a Laurent
polynomial in e^{iX} (exact Gaussian-integer coefficients) and evaluating the
characteristic function at integer arguments.  All moment functions accept a
scalar shift or an ndarray of shifts (one per time step) and broadcast.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import groupby
from typing import Mapping, Sequence, Union

import numpy as np

from .polyring import MultiIndex


class UnsupportedMomentError(ValueError):
    """Raised for moment queries with no supported closed form."""


@dataclass(frozen=True)
class Degenerate:
    """Point mass: the variable equals `value` with probability one."""

    value: float


@dataclass(frozen=True)
class Gaussian:
    mean: float
    variance: float

    def __post_init__(self):
        if self.variance < 0:
            raise ValueError("gaussian variance must be >= 0")


@dataclass(frozen=True)
class Uniform:
    lower: float
    upper: float

    def __post_init__(self):
        if not self.lower < self.upper:
            raise ValueError("uniform requires lower < upper")


@dataclass(frozen=True)
class Beta:
    a: float
    b: float

    def __post_init__(self):
        if self.a <= 0 or self.b <= 0:
            raise ValueError("beta requires a > 0 and b > 0")


Distribution = Union[Degenerate, Gaussian, Uniform, Beta]


def sample(dist: Distribution, rng: np.random.Generator, size: int) -> np.ndarray:
    """Draw `size` independent samples from `dist`."""
    if isinstance(dist, Degenerate):
        return np.full(size, dist.value)
    if isinstance(dist, Gaussian):
        return rng.normal(dist.mean, math.sqrt(dist.variance), size)
    if isinstance(dist, Uniform):
        return rng.uniform(dist.lower, dist.upper, size)
    if isinstance(dist, Beta):
        return rng.beta(dist.a, dist.b, size)
    raise TypeError(f"unknown distribution {dist!r}")


def mean(dist: Distribution) -> float:
    return float(raw_moment(dist, 0.0, 1))


def variance(dist: Distribution) -> float:
    m1 = float(raw_moment(dist, 0.0, 1))
    return float(raw_moment(dist, 0.0, 2)) - m1 * m1


# -- characteristic functions ----------------------------------------------


def char_fn(dist: Distribution, shift, t: int):
    """Characteristic function of (X + shift) at integer t: E[e^{it(X+shift)}].

    `shift` may be a scalar or an ndarray; the result matches its shape.
    """
    shift = np.asarray(shift, dtype=float)
    scalar = shift.ndim == 0
    if isinstance(dist, Degenerate):
        out = np.exp(1j * t * (dist.value + shift))
    elif isinstance(dist, Gaussian):
        out = np.exp(1j * t * (dist.mean + shift) - dist.variance * t * t / 2.0)
    elif isinstance(dist, Uniform):
        if t == 0:
            out = np.ones_like(shift, dtype=complex)
        else:
            a = dist.lower + shift
            b = dist.upper + shift
            out = (np.exp(1j * t * b) - np.exp(1j * t * a)) / (1j * t * (dist.upper - dist.lower))
    elif isinstance(dist, Beta):
        raise UnsupportedMomentError("characteristic function of beta distributions is not supported")
    else:
        raise TypeError(f"unknown distribution {dist!r}")
    return complex(out) if scalar else out


# -- trigonometric moments ---------------------------------------------------


@lru_cache(maxsize=None)
def _laurent_matrix(pairs: tuple[tuple[int, int], ...]) -> tuple[tuple[int, ...], np.ndarray]:
    """Laurent coefficients in e^{ix} of cos^m(x) sin^n(x) for each (m, n) in `pairs`.

    cos^m sin^n = (e^{ix}+e^{-ix})^m (e^{ix}-e^{-ix})^n / (i^n 2^(m+n)),
    expanded with exact integer counts.  Returns the sorted frequencies that
    occur and a read-only (pairs x frequencies) matrix whose row r holds the
    coefficients of pair r, 0 at frequencies it lacks.
    """
    rows = []
    for m, n in pairs:
        counts: dict[int, int] = {}
        for j in range(m + 1):
            for k in range(n + 1):
                freq = (m - 2 * j) + (n - 2 * k)
                counts[freq] = counts.get(freq, 0) + math.comb(m, j) * math.comb(n, k) * (-1) ** k
        rows.append({freq: c for freq, c in counts.items() if c})
    freqs = sorted(set().union(*rows))
    coefficients = np.zeros((len(pairs), len(freqs)), dtype=complex)
    for r, ((m, n), row) in enumerate(zip(pairs, rows)):
        inv_re, inv_im = ((1, 0), (0, -1), (-1, 0), (0, 1))[n % 4]  # 1 / i^n
        for freq, c in row.items():
            coefficients[r, freqs.index(freq)] = complex(c * inv_re / 2 ** (m + n), c * inv_im / 2 ** (m + n))
    coefficients.flags.writeable = False
    return tuple(freqs), coefficients


_IMAG_RESIDUE_TOL = 1e-12


def _trig_moments(dist: Distribution, shift, pairs: tuple[tuple[int, int], ...]) -> np.ndarray:
    """E[cos^m(X + shift) sin^n(X + shift)] for each (m, n) in `pairs`, stacked on axis 0.

    The characteristic function is evaluated once per frequency, and each
    Laurent sum is taken left to right in frequency order (a sequential sum,
    not a BLAS product, which may fuse and reorder the multiply-adds).
    """
    if isinstance(dist, Beta):
        raise UnsupportedMomentError("trigonometric moments of beta-distributed angles are not supported")
    freqs, coefficients = _laurent_matrix(pairs)
    shift = np.asarray(shift, dtype=float)
    values = np.array([char_fn(dist, shift, f) for f in freqs])
    terms = coefficients.reshape(coefficients.shape + (1,) * shift.ndim) * values
    sums = np.cumsum(terms, axis=1)[:, -1]
    residue = float(np.max(np.abs(sums.imag), initial=0.0))
    if residue > _IMAG_RESIDUE_TOL:
        raise ArithmeticError(f"trig moment has non-real residue {residue:g}")
    return sums.real


def trig_moment(dist: Distribution, shift, m: int, n: int):
    """E[cos^m(X + shift) sin^n(X + shift)], exact up to roundoff.

    Requires m + n >= 1.  `shift` broadcasts like in :func:`char_fn`.
    """
    if m < 0 or n < 0 or m + n < 1:
        raise ValueError("trig_moment requires m, n >= 0 and m + n >= 1")
    values = _trig_moments(dist, shift, ((m, n),))[0]
    return float(values) if np.ndim(shift) == 0 else values


# -- raw moments -------------------------------------------------------------


def _gaussian_central(variance: float, j: int) -> float:
    if j % 2:
        return 0.0
    # sigma^j (j-1)!!
    return variance ** (j // 2) * math.prod(range(j - 1, 0, -2)) if j else 1.0


@lru_cache(maxsize=None)
def _beta_raw(a: float, b: float, j: int) -> float:
    out = 1.0
    for r in range(j):
        out *= (a + r) / (a + b + r)
    return out


def raw_moment(dist: Distribution, shift, k: int):
    """E[(X + shift)^k] in closed form.  `shift` broadcasts like in :func:`char_fn`."""
    if k < 0:
        raise ValueError("moment order must be nonnegative")
    shift_arr = np.asarray(shift, dtype=float)
    scalar = shift_arr.ndim == 0
    if k == 0:
        out = np.ones_like(shift_arr)
    elif isinstance(dist, Degenerate):
        out = (dist.value + shift_arr) ** k
    elif isinstance(dist, Gaussian):
        loc = dist.mean + shift_arr
        out = np.zeros_like(shift_arr)
        for j in range(0, k + 1, 2):
            out = out + math.comb(k, j) * _gaussian_central(dist.variance, j) * loc ** (k - j)
    elif isinstance(dist, Uniform):
        a = dist.lower + shift_arr
        b = dist.upper + shift_arr
        out = (b ** (k + 1) - a ** (k + 1)) / ((k + 1) * (dist.upper - dist.lower))
    elif isinstance(dist, Beta):
        out = np.zeros_like(shift_arr)
        for j in range(k + 1):
            out = out + math.comb(k, j) * _beta_raw(dist.a, dist.b, j) * shift_arr ** (k - j)
    else:
        raise TypeError(f"unknown distribution {dist!r}")
    return float(out) if scalar else out


# -- disturbance models -------------------------------------------------------


@dataclass(frozen=True)
class _RawSlot:
    index: int
    source: str


@dataclass(frozen=True)
class _TrigSlot:
    cos_index: int
    sin_index: int
    source: str | None
    base_shift: float


class DisturbanceModel:
    """Per-disturbance distributions plus optional per-step control shifts.

    Bound to the encoded disturbance layout of a polynomial or compiled
    moment system: raw disturbance variables query raw moments, encoded
    (cos, sin) pairs query trigonometric moments of their source variable,
    and independent groups multiply.
    """

    def __init__(
        self,
        system,
        distributions: Mapping[str, Distribution],
        shifts: Mapping[str, Sequence[float]] | None = None,
    ):
        dist_vars = tuple(system.dist_vars)
        pairs = tuple(system.dist_pairs)
        self._system = system
        self.dist_vars = dist_vars
        self.distributions = dict(distributions)
        self.shifts = {name: np.asarray(vals, dtype=float) for name, vals in (shifts or {}).items()}
        for name in self.shifts:
            if name not in self.distributions and not any(p.source == name for p in pairs):
                raise KeyError(f"shift schedule for unknown disturbance {name!r}")

        index = {name: i for i, name in enumerate(dist_vars)}
        paired = set()
        self._trig_slots: list[_TrigSlot] = []
        for p in pairs:
            self._trig_slots.append(
                _TrigSlot(index[p.cos_var], index[p.sin_var], p.source, float(p.shift))
            )
            paired.update((p.cos_var, p.sin_var))
        self._raw_slots = [
            _RawSlot(i, name) for i, name in enumerate(dist_vars) if name not in paired
        ]
        for slot in self._raw_slots:
            if slot.source not in self.distributions:
                raise KeyError(f"no distribution given for disturbance {slot.source!r}")
        for slot in self._trig_slots:
            if slot.source is not None and slot.source not in self.distributions:
                raise KeyError(f"no distribution given for disturbance {slot.source!r}")

    def _dist_of(self, source: str | None) -> Distribution:
        if source is None:
            return Degenerate(0.0)
        return self.distributions[source]

    def shift_at(self, source: str | None, t):
        """Control shift of `source` at step t (scalar t or array of steps)."""
        if source is None or source not in self.shifts:
            return np.zeros(np.shape(t)) if np.ndim(t) else 0.0
        schedule = self.shifts[source]
        t_arr = np.asarray(t)
        if np.any(t_arr >= len(schedule)):
            raise IndexError(
                f"shift schedule for {source!r} has length {len(schedule)}, needed step {int(np.max(t_arr))}"
            )
        return schedule[t_arr]

    def horizon(self) -> int | None:
        """Shortest shift schedule length, or None when all schedules are empty."""
        if not self.shifts:
            return None
        return min(len(s) for s in self.shifts.values())

    def moment(self, beta_w: MultiIndex, t) -> float | np.ndarray:
        """E[w_t^beta_w] over the encoded disturbance variables at step t.

        Independent components multiply; each encoded (cos, sin) pair is
        resolved jointly through one trigonometric moment.  `t` may be an
        int or an array of step indices.
        """
        if len(beta_w) != len(self.dist_vars):
            raise ValueError("disturbance multi-index length mismatch")
        out = np.ones(np.shape(t)) if np.ndim(t) else 1.0
        for slot in self._raw_slots:
            k = beta_w[slot.index]
            if k:
                out = out * raw_moment(self.distributions[slot.source], self.shift_at(slot.source, t), k)
        for slot in self._trig_slots:
            m = beta_w[slot.cos_index]
            n = beta_w[slot.sin_index]
            if m or n:
                total_shift = slot.base_shift + self.shift_at(slot.source, t)
                out = out * trig_moment(self._dist_of(slot.source), total_shift, m, n)
        return out

    def _table_layout(self, requirements: Sequence[MultiIndex]) -> "_TableLayout":
        """Layout of `requirements`, cached on the bound system (one per system)."""
        cached = getattr(self._system, "_moment_table_layout", None)
        if cached is not None and (
            cached.requirements is requirements or cached.requirements == tuple(requirements)
        ):
            return cached
        layout = _TableLayout.build(tuple(requirements), self)
        object.__setattr__(self._system, "_moment_table_layout", layout)
        return layout

    def moment_table(
        self, requirements: Sequence[MultiIndex], n_steps: int, start: int = 0
    ) -> np.ndarray:
        """(n_steps, len(requirements)) table of disturbance moments per step.

        Row k holds the moments for step `start + k`; each column equals
        :meth:`moment` of its requirement.  Every needed raw moment and
        trigonometric moment is evaluated once per slot over all steps, and
        each requirement is the product of its slot moments.  Without shift
        schedules every row is the same, so one row is evaluated and
        returned as a read-only broadcast (row stride 0).
        """
        layout = self._table_layout(requirements)
        steps = np.arange(start, start + (n_steps if self.shifts else min(n_steps, 1)))
        rows = [np.ones(len(steps))]
        for pos, orders in layout.raw:
            slot = self._raw_slots[pos]
            shift = self.shift_at(slot.source, steps)
            rows.extend(raw_moment(self.distributions[slot.source], shift, k) for k in orders)
        for pos, pairs in layout.trig:
            slot = self._trig_slots[pos]
            shift = slot.base_shift + self.shift_at(slot.source, steps)
            rows.extend(_trig_moments(self._dist_of(slot.source), shift, pairs))
        slot_moments = np.stack(rows, axis=1)
        table = slot_moments[:, layout.factors[:, 0]]
        for p in range(1, layout.factors.shape[1]):
            table = table * slot_moments[:, layout.factors[:, p]]
        return table if self.shifts else np.broadcast_to(table, (n_steps, table.shape[1]))


@dataclass(frozen=True)
class _TableLayout:
    """Which slot moments `moment_table` evaluates, and how requirements combine them.

    Slot moments are stacked as rows: row 0 is all ones, then the raw
    moments in `raw` order, then the trigonometric moments in `trig` order.
    """

    requirements: tuple[MultiIndex, ...]
    raw: tuple[tuple[int, tuple[int, ...]], ...]  # (raw slot position, orders k)
    trig: tuple[tuple[int, tuple[tuple[int, int], ...]], ...]  # (trig slot position, (m, n) pairs)
    factors: np.ndarray  # (n_req, n_factors) slot-moment rows, multiplied left to right; 0 pads

    @classmethod
    def build(cls, requirements: tuple[MultiIndex, ...], model: DisturbanceModel) -> "_TableLayout":
        if any(len(beta_w) != len(model.dist_vars) for beta_w in requirements):
            raise ValueError("disturbance multi-index length mismatch")

        def slot_keys(beta_w: MultiIndex) -> list[tuple]:
            # (0, raw slot position, k) then (1, trig slot position, (m, n)), as in `moment`
            keys: list[tuple] = [
                (0, pos, beta_w[slot.index])
                for pos, slot in enumerate(model._raw_slots)
                if beta_w[slot.index]
            ]
            for pos, slot in enumerate(model._trig_slots):
                m, n = beta_w[slot.cos_index], beta_w[slot.sin_index]
                if m or n:
                    keys.append((1, pos, (m, n)))
            return keys

        per_requirement = [slot_keys(beta_w) for beta_w in requirements]
        keys = sorted(set().union(*per_requirement))
        raw, trig = [], []
        for (kind, pos), group in groupby(keys, key=lambda key: key[:2]):
            needed = tuple(key[2] for key in group)
            (raw if kind == 0 else trig).append((pos, needed))

        row_of = {key: i + 1 for i, key in enumerate(keys)}
        factors = np.zeros((len(requirements), max([len(k) for k in per_requirement] + [1])), dtype=np.intp)
        for i, req_keys in enumerate(per_requirement):
            factors[i, : len(req_keys)] = [row_of[key] for key in req_keys]
        return cls(requirements, tuple(raw), tuple(trig), factors)
