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
from typing import Mapping, NamedTuple, Sequence, Union

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


def char_fn(dist: Distribution, shift, t):
    """Characteristic function of (X + shift) at integer t: E[e^{it(X+shift)}].

    `shift` and `t` may be scalars or ndarrays (t of integer values); the result
    has their broadcast shape, and is a complex scalar when both are scalars.
    """
    shift = np.asarray(shift, dtype=float)
    t = np.asarray(t)
    if isinstance(dist, Degenerate):
        out = np.exp(1j * t * (dist.value + shift))
    elif isinstance(dist, Gaussian):
        out = np.exp(1j * t * (dist.mean + shift) - dist.variance * t * t / 2.0)
    elif isinstance(dist, Uniform):
        a = dist.lower + shift
        b = dist.upper + shift
        with np.errstate(divide="ignore", invalid="ignore"):  # t = 0 is taken from the limit 1
            out = (np.exp(1j * t * b) - np.exp(1j * t * a)) / (1j * t * (dist.upper - dist.lower))
        out = np.where(t == 0, 1.0 + 0j, out)
    elif isinstance(dist, Beta):
        raise UnsupportedMomentError("characteristic function of beta distributions is not supported")
    else:
        raise TypeError(f"unknown distribution {dist!r}")
    return complex(out) if out.ndim == 0 else out


# -- trigonometric moments ---------------------------------------------------


@lru_cache(maxsize=None)
def _laurent_matrix(pairs: tuple[tuple[int, int], ...]) -> tuple[np.ndarray, np.ndarray]:
    """Laurent coefficients in e^{ix} of cos^m(x) sin^n(x) for each (m, n) in `pairs`.

    cos^m sin^n = (e^{ix}+e^{-ix})^m (e^{ix}-e^{-ix})^n / (i^n 2^(m+n)),
    expanded with exact integer counts.  Returns the sorted frequencies that
    occur, as a read-only array of integer-valued floats (so that
    :func:`char_fn` needs no integer casts), and a read-only (frequencies x
    pairs) matrix whose column r holds the coefficients of pair r, 0 at
    frequencies it lacks.
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
    coefficients = np.zeros((len(freqs), len(pairs)), dtype=complex)
    for r, ((m, n), row) in enumerate(zip(pairs, rows)):
        inv_re, inv_im = ((1, 0), (0, -1), (-1, 0), (0, 1))[n % 4]  # 1 / i^n
        for freq, c in row.items():
            coefficients[freqs.index(freq), r] = complex(c * inv_re / 2 ** (m + n), c * inv_im / 2 ** (m + n))
    freq_array = np.array(freqs, dtype=float)
    freq_array.flags.writeable = coefficients.flags.writeable = False
    return freq_array, coefficients


_IMAG_RESIDUE_TOL = 1e-12


def _trig_moments(dist: Distribution, shift, freqs: np.ndarray, coefficients: np.ndarray) -> np.ndarray:
    """E[cos^m(X + shift) sin^n(X + shift)] for the pairs of a :func:`_laurent_matrix`, stacked on axis 0.

    The characteristic function is evaluated in one call over all
    frequencies, and each Laurent sum is taken left to right in frequency
    order (a sequential sum, not a BLAS product, which may fuse and reorder
    the multiply-adds).
    """
    if isinstance(dist, Beta):
        raise UnsupportedMomentError("trigonometric moments of beta-distributed angles are not supported")
    shift = np.asarray(shift, dtype=float)
    values = char_fn(dist, shift, freqs.reshape(freqs.shape + (1,) * shift.ndim))
    terms = coefficients.reshape(coefficients.shape + (1,) * (values.ndim - 1)) * values[:, None]
    sums = terms[0]
    for term in terms[1:]:
        sums += term
    residue = np.maximum.reduce(np.abs(sums.imag), axis=None, initial=0.0)
    if residue > _IMAG_RESIDUE_TOL:
        raise ArithmeticError(f"trig moment has non-real residue {residue:g}")
    return sums.real


def trig_moment(dist: Distribution, shift, m: int, n: int):
    """E[cos^m(X + shift) sin^n(X + shift)], exact up to roundoff.

    Requires m + n >= 1.  `shift` broadcasts like in :func:`char_fn`.
    """
    if m < 0 or n < 0 or m + n < 1:
        raise ValueError("trig_moment requires m, n >= 0 and m + n >= 1")
    values = _trig_moments(dist, shift, *_laurent_matrix(((m, n),)))[0]
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


class _RawSlot(NamedTuple):
    index: int
    source: str


class _TrigSlot(NamedTuple):
    cos_index: int
    sin_index: int
    source: str | None
    base_shift: float


@lru_cache(maxsize=None)
def _slots(dist_vars: tuple[str, ...], pairs: tuple) -> tuple[tuple[_RawSlot, ...], tuple[_TrigSlot, ...]]:
    """Slots of an encoded disturbance layout: one per (cos, sin) pair, one per other variable."""
    index = {name: i for i, name in enumerate(dist_vars)}
    trig = tuple(_TrigSlot(index[p.cos_var], index[p.sin_var], p.source, float(p.shift)) for p in pairs)
    paired = {name for p in pairs for name in (p.cos_var, p.sin_var)}
    raw = tuple(_RawSlot(i, name) for i, name in enumerate(dist_vars) if name not in paired)
    return raw, trig


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
        self.dist_vars = tuple(system.dist_vars)
        self.distributions = dict(distributions)
        self.shifts = {name: np.ascontiguousarray(vals, dtype=float) for name, vals in (shifts or {}).items()}
        self._raw_slots, self._trig_slots = _slots(self.dist_vars, tuple(system.dist_pairs))
        for name in self.shifts:
            if name not in self.distributions and not any(slot.source == name for slot in self._trig_slots):
                raise KeyError(f"shift schedule for unknown disturbance {name!r}")
        for slot in (*self._raw_slots, *self._trig_slots):
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

    def moment_table(
        self, requirements: Sequence[MultiIndex], n_steps: int, start: int = 0
    ) -> np.ndarray:
        """(n_steps, len(requirements)) table of disturbance moments per step.

        Row k holds the moments for step `start + k`; each column equals
        :meth:`moment` of its requirement over an array of steps, and is the
        product of its slot moments.  A call evaluates only the slots whose
        source has a shift schedule, over all steps at once (one
        :func:`char_fn` call per trigonometric slot); everything else is
        cached by :func:`_table_plan`.  When no needed slot is scheduled every
        row is the same, so one row is returned as a read-only broadcast
        (row stride 0).
        """
        slot_dists = tuple(
            None if slot.source in self.shifts else self._dist_of(slot.source)
            for slot in (*self._raw_slots, *self._trig_slots)
        )
        fixed, scheduled, factors = _table_plan(tuple(requirements), self._raw_slots, self._trig_slots, slot_dists)
        slot_moments = np.empty((n_steps if scheduled else min(n_steps, 1), len(fixed)))
        slot_moments[:] = fixed
        for source, first, orders, laurent in scheduled:
            schedule, dist = self.shifts[source], self.distributions[source]
            if n_steps and not 0 <= start <= len(schedule) - n_steps:
                raise IndexError(f"shift schedule for {source!r} has length {len(schedule)}, "
                                 f"needed steps {start} to {start + n_steps - 1}")
            shift = schedule[start : start + n_steps]
            if laurent is None:
                moments = np.array([raw_moment(dist, shift, k) for k in orders])
            else:
                moments = _trig_moments(dist, laurent[0] + shift, *laurent[1:])
            slot_moments[:, first : first + len(orders)] = moments.T
        table = slot_moments.take(factors[0], axis=1)
        for factor in factors[1:]:
            table *= slot_moments.take(factor, axis=1)
        return table if scheduled else np.broadcast_to(table, (n_steps, table.shape[1]))


@lru_cache(maxsize=1024)
def _table_plan(
    requirements: tuple[MultiIndex, ...],
    raw_slots: tuple[_RawSlot, ...],
    trig_slots: tuple[_TrigSlot, ...],
    slot_dists: tuple[Distribution | None, ...],
) -> tuple[np.ndarray, tuple, np.ndarray]:
    """What `moment_table` needs besides the slots it evaluates per call.

    `slot_dists` holds each slot's distribution, raw slots first, or None
    where its source is scheduled.  Slot moments are columns: column 0 is
    all ones, then one per (slot, order) that a requirement needs, in slot
    order and then order.  Returns the read-only row of unscheduled columns
    (NaN in scheduled ones), the scheduled slots as (source, first column,
    orders, None for a raw slot or (base shift, frequencies, Laurent
    matrix)), and the read-only (n_factors, n_req) columns multiplied into
    each requirement, in order, 0 padding.  Unscheduled moments are
    evaluated at a one-element zero shift, on the array path that per-step
    evaluation takes: numpy's scalar arithmetic may round powers otherwise.
    """
    if any(len(beta_w) != len(raw_slots) + 2 * len(trig_slots) for beta_w in requirements):
        raise ValueError("disturbance multi-index length mismatch")

    def slot_keys(beta_w: MultiIndex) -> list[tuple]:
        # (slot position, order k or (m, n)), raw slots before trig slots, as in `moment`
        keys: list[tuple] = [(pos, beta_w[slot.index]) for pos, slot in enumerate(raw_slots) if beta_w[slot.index]]
        for pos, slot in enumerate(trig_slots, len(raw_slots)):
            if beta_w[slot.cos_index] or beta_w[slot.sin_index]:
                keys.append((pos, (beta_w[slot.cos_index], beta_w[slot.sin_index])))
        return keys

    per_requirement = [slot_keys(beta_w) for beta_w in requirements]
    keys = sorted(set().union(*per_requirement))
    column_of = {key: column for column, key in enumerate(keys, 1)}
    factors = np.zeros((max([1, *map(len, per_requirement)]), len(requirements)), dtype=np.intp)
    for i, req_keys in enumerate(per_requirement):
        factors[: len(req_keys), i] = [column_of[key] for key in req_keys]
    fixed = np.full(len(keys) + 1, np.nan)
    fixed[0] = 1.0
    zero, scheduled = np.zeros(1), []
    for pos, group in groupby(keys, key=lambda key: key[0]):
        orders = tuple(order for _, order in group)
        first, dist = column_of[pos, orders[0]], slot_dists[pos]
        laurent = None
        if pos >= len(raw_slots):
            laurent = (trig_slots[pos - len(raw_slots)].base_shift, *_laurent_matrix(orders))
        if dist is None:
            scheduled.append(((raw_slots + trig_slots)[pos].source, first, orders, laurent))
        elif laurent is None:
            fixed[first : first + len(orders)] = [raw_moment(dist, zero, k)[0] for k in orders]
        else:
            fixed[first : first + len(orders)] = _trig_moments(dist, laurent[0] + zero, *laurent[1:])[:, 0]
    fixed.flags.writeable = factors.flags.writeable = False
    return fixed, tuple(scheduled), factors
