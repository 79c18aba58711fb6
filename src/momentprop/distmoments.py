"""Exact raw and trigonometric moments of disturbance distributions.

Each distribution family is one frozen class with its own `sample(rng, size)`,
`char_fn(shift, t)` and `raw_moment(shift, k)` on arrays of shifts, named in
specs by its :data:`KINDS` entry: a new family is one class plus one entry.
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

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        return np.full(size, self.value)

    def char_fn(self, shift: np.ndarray, t: np.ndarray) -> np.ndarray:
        return np.exp(1j * t * (self.value + shift))

    def raw_moment(self, shift: np.ndarray, k: int) -> np.ndarray:
        return (self.value + shift) ** k


@dataclass(frozen=True)
class Gaussian:
    mean: float
    variance: float

    def __post_init__(self):
        if self.variance < 0:
            raise ValueError("gaussian variance must be >= 0")

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        return rng.normal(self.mean, math.sqrt(self.variance), size)

    def char_fn(self, shift: np.ndarray, t: np.ndarray) -> np.ndarray:
        return np.exp(1j * t * (self.mean + shift) - self.variance * t * t / 2.0)

    def raw_moment(self, shift: np.ndarray, k: int) -> np.ndarray:
        loc = self.mean + shift
        out = np.zeros_like(shift)
        for j in range(0, k + 1, 2):  # odd central moments vanish
            central = self.variance ** (j // 2) * math.prod(range(j - 1, 0, -2))  # sigma^j (j-1)!!
            out = out + math.comb(k, j) * central * loc ** (k - j)
        return out


@dataclass(frozen=True)
class Uniform:
    lower: float
    upper: float

    def __post_init__(self):
        if not self.lower < self.upper:
            raise ValueError("uniform requires lower < upper")

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        return rng.uniform(self.lower, self.upper, size)

    def char_fn(self, shift: np.ndarray, t: np.ndarray) -> np.ndarray:
        a = self.lower + shift
        b = self.upper + shift
        with np.errstate(divide="ignore", invalid="ignore"):  # t = 0 is taken from the limit 1
            out = (np.exp(1j * t * b) - np.exp(1j * t * a)) / (1j * t * (self.upper - self.lower))
        return np.where(t == 0, 1.0 + 0j, out)

    def raw_moment(self, shift: np.ndarray, k: int) -> np.ndarray:
        a = self.lower + shift
        b = self.upper + shift
        return (b ** (k + 1) - a ** (k + 1)) / ((k + 1) * (self.upper - self.lower))


@dataclass(frozen=True)
class Beta:
    a: float
    b: float

    def __post_init__(self):
        if self.a <= 0 or self.b <= 0:
            raise ValueError("beta requires a > 0 and b > 0")

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        return rng.beta(self.a, self.b, size)

    def char_fn(self, shift: np.ndarray, t: np.ndarray) -> np.ndarray:
        raise UnsupportedMomentError("trigonometric moments of beta-distributed angles are not supported")

    def raw_moment(self, shift: np.ndarray, k: int) -> np.ndarray:
        out = np.zeros_like(shift)
        unshifted = 1.0  # E[X^j] = prod_{r < j} (a + r) / (a + b + r)
        for j in range(k + 1):
            out = out + math.comb(k, j) * unshifted * shift ** (k - j)
            unshifted *= (self.a + j) / (self.a + self.b + j)
        return out


Distribution = Union[Degenerate, Gaussian, Uniform, Beta]

# The distribution family of each spec keyword; a family's parameters are its class's fields, in order.
KINDS: dict[str, type] = {"degenerate": Degenerate, "gaussian": Gaussian, "uniform": Uniform, "beta": Beta}


def _as_steps(shift) -> tuple[np.ndarray, bool]:
    """`shift` as a float array of steps, and whether it was a scalar (then one step).

    numpy's scalar `**` rounds differently from its array loop, so a scalar
    query takes the array path of a per-step table, and the two agree bit for bit.
    """
    shift = np.asarray(shift, dtype=float)
    return (shift.reshape(1), True) if shift.ndim == 0 else (shift, False)


def sample(dist: Distribution, rng: np.random.Generator, size: int) -> np.ndarray:
    """Draw `size` independent samples from `dist`."""
    return dist.sample(rng, size)


def mean(dist: Distribution) -> float:
    return raw_moment(dist, 0.0, 1)


def variance(dist: Distribution) -> float:
    """E[(X - E[X])^2], in the central form: E[X^2] - E[X]^2 cancels when the mean dwarfs the spread."""
    return raw_moment(dist, -mean(dist), 2)


def char_fn(dist: Distribution, shift, t):
    """Characteristic function of (X + shift) at integer t: E[e^{it(X+shift)}].

    `shift` and `t` may be scalars or ndarrays (t of integer values); the result
    has their broadcast shape, and is a complex scalar when both are scalars.
    """
    out = dist.char_fn(np.asarray(shift, dtype=float), np.asarray(t))
    return complex(out) if out.ndim == 0 else out


def raw_moment(dist: Distribution, shift, k: int):
    """E[(X + shift)^k] in closed form.  `shift` broadcasts like in :func:`char_fn`."""
    if k < 0:
        raise ValueError("moment order must be nonnegative")
    steps, scalar = _as_steps(shift)
    out = dist.raw_moment(steps, k) if k else np.ones_like(steps)
    return float(out[0]) if scalar else out


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


def _trig_moments(dist: Distribution, shift: np.ndarray, freqs: np.ndarray, coefficients: np.ndarray) -> np.ndarray:
    """E[cos^m(X + shift) sin^n(X + shift)] for the pairs of a :func:`_laurent_matrix`, stacked on axis 0.

    The characteristic function is evaluated in one call over all
    frequencies, and each Laurent sum is taken left to right in frequency
    order (a sequential sum, not a BLAS product, which may fuse and reorder
    the multiply-adds).
    """
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
    steps, scalar = _as_steps(shift)
    values = _trig_moments(dist, steps, *_laurent_matrix(((m, n),)))[0]
    return float(values[0]) if scalar else values


def _slot_moments(dist: Distribution, shift, orders: tuple, laurent: tuple | None) -> np.ndarray:
    """Moments of one slot at `shift`, one row per order (one value each for a scalar shift).

    Raw slots have orders k; trig slots have (m, n) pairs and `laurent` = (base shift, frequencies, Laurent matrix).
    """
    steps, scalar = _as_steps(shift)
    if laurent is None:
        moments = np.array([dist.raw_moment(steps, k) for k in orders])  # slot orders are >= 1
    else:
        moments = _trig_moments(dist, laurent[0] + steps, *laurent[1:])
    return moments[:, 0] if scalar else moments


# -- disturbance models -------------------------------------------------------


class _RawSlot(NamedTuple):
    index: int
    source: str


class _TrigSlot(NamedTuple):
    cos_index: int
    sin_index: int
    source: str | None
    base_shift: float


# The distribution of a trig pair with no source variable: the fixed angle is all in its base shift.
_NO_SOURCE = Degenerate(0.0)


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

    def shift_at(self, source: str | None, t):
        """Control shift of `source` at step t (scalar t or array of steps), each step on its schedule."""
        if source is None or source not in self.shifts:
            return np.zeros(np.shape(t)) if np.ndim(t) else 0.0
        schedule = self.shifts[source]
        t_arr = np.asarray(t)
        if t_arr.size and not 0 <= t_arr.min() <= t_arr.max() < len(schedule):
            raise IndexError(f"shift schedule for {source!r} has length {len(schedule)}, "
                             f"needed steps {t_arr.min()} to {t_arr.max()}")
        return schedule[t_arr]

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
                out = out * trig_moment(self.distributions.get(slot.source, _NO_SOURCE), total_shift, m, n)
        return out

    def moment_table(
        self, requirements: Sequence[MultiIndex], n_steps: int, start: int = 0
    ) -> np.ndarray:
        """(n_steps, len(requirements)) table of disturbance moments per step.

        Row k holds the moments for step `start + k`; each column equals
        :meth:`moment` of its requirement, and is the product of its slot
        moments.  A call evaluates only the slots whose source has a shift
        schedule, over all steps at once (one :func:`char_fn` call per
        trigonometric slot); everything else is cached by :func:`_table_plan`.
        When no needed slot is scheduled every row is the same: the plan holds
        that finished row, and the call returns it as a read-only view with
        row stride 0, so it multiplies nothing.
        """
        slot_dists = tuple(
            None if slot.source in self.shifts else self.distributions.get(slot.source, _NO_SOURCE)
            for slot in (*self._raw_slots, *self._trig_slots)
        )
        row, scheduled, factors = _table_plan(tuple(requirements), self._raw_slots, self._trig_slots, slot_dists)
        if not scheduled:
            return np.ndarray((n_steps, len(row)), row.dtype, row, 0, (0, row.itemsize))
        slot_moments = np.empty((n_steps, len(row)))
        slot_moments[:] = row
        for source, first, orders, laurent in scheduled:
            schedule = self.shifts[source]
            if n_steps and not 0 <= start <= len(schedule) - n_steps:
                raise IndexError(f"shift schedule for {source!r} has length {len(schedule)}, "
                                 f"needed steps {start} to {start + n_steps - 1}")
            moments = _slot_moments(self.distributions[source], schedule[start : start + n_steps], orders, laurent)
            slot_moments[:, first : first + len(orders)] = moments.T
        return _products(slot_moments, factors)


def _products(slot_moments: np.ndarray, factors: np.ndarray) -> np.ndarray:
    """Each requirement's column: the product of its slot-moment columns `factors`, in order."""
    table = slot_moments.take(factors[0], axis=1)
    for factor in factors[1:]:
        table *= slot_moments.take(factor, axis=1)
    return table


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
    each requirement, in order, 0 padding.  When no needed slot is
    scheduled, the row returned is instead the finished, read-only row of
    requirement moments, and the factors are None.
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
    scheduled = []
    for pos, group in groupby(keys, key=lambda key: key[0]):
        orders = tuple(order for _, order in group)
        first, dist = column_of[pos, orders[0]], slot_dists[pos]
        laurent = None
        if pos >= len(raw_slots):
            laurent = (trig_slots[pos - len(raw_slots)].base_shift, *_laurent_matrix(orders))
        if dist is None:
            scheduled.append(((raw_slots + trig_slots)[pos].source, first, orders, laurent))
        else:
            fixed[first : first + len(orders)] = _slot_moments(dist, 0.0, orders, laurent)
    factors.flags.writeable = False
    if not scheduled:
        fixed, factors = _products(fixed[None], factors)[0], None
    fixed.flags.writeable = False
    return fixed, tuple(scheduled), factors
