"""Compilation of polynomial systems into moment-state dynamical systems.

For a target moment E[x^alpha], raising the update polynomial vector to the
multi-index alpha and splitting each monomial into state and disturbance
parts yields the moment update form: E[x_{t+1}^alpha] as an exact linear
combination of products of current state moments and disturbance moments.
The completion search repeatedly expands state moments that appear on the
right-hand side but are not yet tracked, until the basis is closed under
its own update forms.  Coefficients stay exact rationals throughout.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Mapping, NamedTuple, Sequence

import numpy as np

from .polyring import MultiIndex, monomial_name, pow_multiindex
from .sysspec import DependenceGraph, PolynomialSystem, TrigPair, components_of_support


class BasisExplosionError(RuntimeError):
    """Completion search exceeded its basis-size or degree guard."""

    def __init__(self, message: str, chain: Sequence[str]):
        self.chain = tuple(chain)
        super().__init__(message + " (expansion chain: " + " -> ".join(chain) + ")")


class MufTerm(NamedTuple):
    """One term c * E[w^dist_index] * prod_i E[x^state_factors[i]]."""

    coeff: Fraction
    dist_index: MultiIndex
    state_factors: tuple[MultiIndex, ...]


@dataclass(frozen=True)
class MomentUpdateForm:
    """Exact update rule for one target state moment.

    Un-reduced forms carry the whole state part of each term as a single
    factor; reduced forms split it into independent blocks licensed by the
    dependence graph.  The trivial moment E[x^0] = 1 is folded into the
    coefficient rather than stored as a factor.
    """

    target: MultiIndex
    terms: tuple[MufTerm, ...]
    reduced: bool


def _term_sort_key(term: MufTerm):
    return (
        term.dist_index.grlex_key(),
        tuple(f.grlex_key() for f in term.state_factors),
    )


def moment_update_form(system: PolynomialSystem, alpha: MultiIndex) -> MomentUpdateForm:
    """Un-reduced moment update form of E[x_{t+1}^alpha]."""
    if len(alpha) != len(system.vars):
        raise ValueError("target multi-index length does not match state variable count")
    n = len(system.vars)
    expansion = pow_multiindex(system.f, alpha)
    terms = []
    for mi, coeff in expansion.sorted_terms():
        beta_x, beta_w = mi.split(n)
        factors = () if beta_x.is_zero() else (beta_x,)
        terms.append(MufTerm(coeff, beta_w, factors))
    terms.sort(key=_term_sort_key)
    return MomentUpdateForm(alpha, tuple(terms), reduced=False)


def reduce_form(form: MomentUpdateForm, graph: DependenceGraph) -> MomentUpdateForm:
    """Factor each term's state moment along the dependence graph components.

    Terms that become identical after factoring are merged by coefficient
    addition.
    """
    if form.reduced:
        raise ValueError("form is already reduced")
    merged: dict[tuple[MultiIndex, tuple[MultiIndex, ...]], Fraction] = {}
    for term in form.terms:
        factors: tuple[MultiIndex, ...] = ()
        if term.state_factors:
            blocks = components_of_support(graph, term.state_factors[0])
            factors = tuple(sorted(blocks, key=MultiIndex.grlex_key))
        key = (term.dist_index, factors)
        merged[key] = merged.get(key, Fraction(0)) + term.coeff
    terms = [
        MufTerm(c, beta_w, factors) for (beta_w, factors), c in merged.items() if c
    ]
    terms.sort(key=_term_sort_key)
    return MomentUpdateForm(form.target, tuple(terms), reduced=True)


class MomentBasis:
    """Ordered, duplicate-free collection of state moment multi-indices."""

    def __init__(self, elements: Iterable[MultiIndex]):
        self.elements = tuple(elements)
        self._index = {mi: i for i, mi in enumerate(self.elements)}
        if len(self._index) != len(self.elements):
            raise ValueError("duplicate multi-indices in moment basis")

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    def __contains__(self, mi) -> bool:
        return mi in self._index

    def __getitem__(self, i: int) -> MultiIndex:
        return self.elements[i]

    def index_of(self, mi: MultiIndex) -> int:
        return self._index[mi]

    def __eq__(self, other) -> bool:
        if not isinstance(other, MomentBasis):
            return NotImplemented
        return self.elements == other.elements


@dataclass(frozen=True)
class MomentStateSystem:
    """Compiled deterministic recursion on a complete vector of state moments."""

    basis: MomentBasis
    forms: tuple[MomentUpdateForm, ...]
    reduced: bool
    state_vars: tuple[str, ...]
    dist_vars: tuple[str, ...]
    state_pairs: tuple[TrigPair, ...] = ()
    dist_pairs: tuple[TrigPair, ...] = ()

    def __post_init__(self):
        if len(self.forms) != len(self.basis):
            raise ValueError("one update form per basis element required")

    @property
    def dist_requirements(self) -> tuple[MultiIndex, ...]:
        """All disturbance moment multi-indices the recursion consumes, grlex order."""
        needed = {term.dist_index for form in self.forms for term in form.terms}
        return tuple(sorted(needed, key=MultiIndex.grlex_key))

    def moment_names(self) -> tuple[str, ...]:
        return tuple(monomial_name(self.state_vars, mi) for mi in self.basis)

    @cached_property
    def _moment_positions(self) -> dict[str, int]:
        return {name: i for i, name in enumerate(self.moment_names())}

    def moment_index(self, name: str) -> int:
        try:
            return self._moment_positions[name]
        except KeyError:
            raise KeyError(f"moment {name!r} is not in the compiled basis") from None


def is_complete(
    basis: MomentBasis, forms: Sequence[MomentUpdateForm], reduced: bool
) -> bool:
    """True iff every state factor used by the forms is itself in the basis."""
    for form in forms:
        if form.reduced != reduced:
            return False
        for term in form.terms:
            for factor in term.state_factors:
                if factor not in basis:
                    return False
    return True


def complete_basis(
    system: PolynomialSystem,
    seed: Iterable[MultiIndex],
    reduced: bool = True,
    max_basis: int = 10_000,
    max_degree: int = 32,
) -> tuple[MomentBasis, tuple[MomentUpdateForm, ...]]:
    """Grow `seed` into a complete moment basis by depth-first expansion.

    Every moment added gets its (possibly reduced) update form; state
    factors not yet tracked are expanded recursively in graded-lexicographic
    order, so the resulting basis order is reproducible.  The degree and
    basis-size guards turn runaway expansions (dynamics of degree > 1
    generically never close) into a diagnosable error.
    """
    seed_list = [mi if isinstance(mi, MultiIndex) else MultiIndex(mi) for mi in seed]
    if not seed_list:
        raise ValueError("seed moment basis must be nonempty")
    for mi in seed_list:
        if len(mi) != len(system.vars):
            raise ValueError("seed multi-index length does not match state variable count")
        if mi.is_zero():
            raise ValueError("the trivial moment E[x^0] cannot seed a basis")

    def render(mi: MultiIndex) -> str:
        return monomial_name(system.vars, mi)

    def chain_of(mi: MultiIndex) -> list[str]:
        chain = [render(mi)]
        while mi in parent:
            mi = parent[mi]
            chain.append(render(mi))
        return chain[::-1]

    order: list[MultiIndex] = []
    forms: dict[MultiIndex, MomentUpdateForm] = {}
    parent: dict[MultiIndex, MultiIndex] = {}
    stack = list(reversed(seed_list))
    while stack:
        alpha = stack.pop()
        if alpha in forms:
            continue
        if alpha.total_degree() > max_degree:
            raise BasisExplosionError(
                f"moment degree guard ({max_degree}) exceeded at {render(alpha)}", chain_of(alpha)
            )
        if len(order) >= max_basis:
            raise BasisExplosionError(
                f"moment basis size guard ({max_basis}) exceeded at {render(alpha)}", chain_of(alpha)
            )
        form = moment_update_form(system, alpha)
        if reduced:
            form = reduce_form(form, system.graph)
        order.append(alpha)
        forms[alpha] = form
        children = sorted(
            {
                factor
                for term in form.terms
                for factor in term.state_factors
                if factor not in forms
            },
            key=MultiIndex.grlex_key,
        )
        for child in children:
            parent.setdefault(child, alpha)
        stack.extend(reversed(children))

    basis = MomentBasis(order)
    form_tuple = tuple(forms[mi] for mi in order)
    if not is_complete(basis, form_tuple, reduced):
        raise AssertionError("completion search produced an incomplete basis")
    return basis, form_tuple


def compile_moment_system(
    system: PolynomialSystem,
    seed: Iterable[MultiIndex],
    reduced: bool = True,
    max_basis: int = 10_000,
    max_degree: int = 32,
) -> MomentStateSystem:
    """Compile a polynomial system into an executable moment-state system."""
    basis, forms = complete_basis(system, seed, reduced, max_basis, max_degree)
    return MomentStateSystem(
        basis=basis,
        forms=forms,
        reduced=reduced,
        state_vars=system.vars,
        dist_vars=system.dist_vars,
        state_pairs=system.state_pairs,
        dist_pairs=system.dist_pairs,
    )


def ltv_matrices(
    msys: MomentStateSystem, dist_values: Mapping[MultiIndex, float]
) -> tuple[np.ndarray, np.ndarray]:
    """Affine step map (A, b) of an un-reduced system at fixed disturbance moments.

    The moment state then updates as m' = A m + b; the offset b collects the
    terms with no state factor.
    """
    if msys.reduced:
        raise ValueError("linear time-varying form requires an un-reduced system")
    n = len(msys.basis)
    A = np.zeros((n, n))
    b = np.zeros(n)
    for i, form in enumerate(msys.forms):
        for term in form.terms:
            try:
                w = dist_values[term.dist_index]
            except KeyError:
                name = monomial_name(msys.dist_vars, term.dist_index)
                raise KeyError(f"missing disturbance moment E[{name}]") from None
            if term.state_factors:
                j = msys.basis.index_of(term.state_factors[0])
                A[i, j] += float(term.coeff) * w
            else:
                b[i] += float(term.coeff) * w
    return A, b


# -- rendering & serialization --------------------------------------------------


def render_equations(msys: MomentStateSystem) -> str:
    """Human-readable listing: one update equation per basis moment."""
    lines = []
    for form in msys.forms:
        lhs = f"E[{monomial_name(msys.state_vars, form.target)}]'"
        parts = []
        for term in form.terms:
            factors = []
            if abs(term.coeff) != 1:
                factors.append(str(abs(term.coeff)))
            if not term.dist_index.is_zero():
                factors.append(f"E[{monomial_name(msys.dist_vars, term.dist_index)}]")
            for f in term.state_factors:
                factors.append(f"E[{monomial_name(msys.state_vars, f)}]")
            if not factors:
                factors.append(str(abs(term.coeff)))
            body = "*".join(factors)
            if not parts:
                parts.append(body if term.coeff > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if term.coeff > 0 else f"- {body}")
        lines.append(f"{lhs} = " + " ".join(parts))
    return "\n".join(lines)


_FORMAT_HEADER = "momentprop-system v1"


def _pair_line(pair: TrigPair) -> str:
    source = pair.source if pair.source is not None else "-"
    return f"{pair.cos_var} {pair.sin_var} {source} {pair.shift.numerator}/{pair.shift.denominator}"


def _parse_pair_line(line: str) -> TrigPair:
    cos_var, sin_var, source, shift = line.split()
    num, den = shift.split("/")
    if int(den) == 0:
        raise ValueError(f"zero denominator in pair line {line!r}")
    return TrigPair(
        cos_var,
        sin_var,
        None if source == "-" else source,
        Fraction(int(num), int(den)),
    )


def dumps(msys: MomentStateSystem) -> str:
    """Serialize to the versioned text format; round-trips losslessly."""
    lines = [
        _FORMAT_HEADER,
        f"reduced {int(msys.reduced)}",
        "statevars " + " ".join(msys.state_vars),
        "distvars " + " ".join(msys.dist_vars),
        f"statepairs {len(msys.state_pairs)}",
        *(_pair_line(p) for p in msys.state_pairs),
        f"distpairs {len(msys.dist_pairs)}",
        *(_pair_line(p) for p in msys.dist_pairs),
        f"basis {len(msys.basis)}",
        *(" ".join(map(str, mi)) for mi in msys.basis),
    ]
    term_lines = []
    for i, form in enumerate(msys.forms):
        for term in form.terms:
            beta_w = " ".join(map(str, term.dist_index))
            factor_idx = " ".join(str(msys.basis.index_of(f)) for f in term.state_factors)
            coeff = f"{term.coeff.numerator}/{term.coeff.denominator}"
            term_lines.append(f"{i} | {coeff} | {beta_w} | {factor_idx}")
    lines.append(f"terms {len(term_lines)}")
    lines.extend(term_lines)
    return "\n".join(lines) + "\n"


def loads(text: str) -> MomentStateSystem:
    """Parse the text produced by :func:`dumps`.

    Any text that is not a whole, self-consistent file (truncated, an index
    out of range, a multi-index of the wrong length, trailing lines) raises
    ValueError.
    """
    lines = [ln for ln in text.splitlines() if ln.strip()]
    it = iter(lines)

    def line() -> str:
        try:
            return next(it)
        except StopIteration:
            raise ValueError("compiled-system file is truncated") from None

    def take(prefix: str) -> str:
        ln = line()
        if not ln.startswith(prefix):
            raise ValueError(f"expected {prefix!r} line in compiled-system file, got {ln!r}")
        return ln[len(prefix):].strip()

    def count(prefix: str) -> int:
        n = int(take(prefix))
        if n < 0:
            raise ValueError(f"negative {prefix} count in compiled-system file")
        return n

    def multi_index(fields: str, width: int, what: str) -> MultiIndex:
        exps = fields.split()
        if len(exps) != width:
            raise ValueError(f"{what} multi-index {fields!r} has {len(exps)} entries, expected {width}")
        return MultiIndex(int(x) for x in exps)

    def pairs(prefix: str, names: tuple[str, ...]) -> tuple[TrigPair, ...]:
        out = tuple(_parse_pair_line(line()) for _ in range(count(prefix)))
        for p in out:
            if p.cos_var not in names or p.sin_var not in names:
                raise ValueError(f"{prefix} entry ({p.cos_var}, {p.sin_var}) names an undeclared variable")
        return out

    if line().strip() != _FORMAT_HEADER:
        raise ValueError("not a compiled moment-system file (bad header)")
    reduced_s = take("reduced")
    if reduced_s not in ("0", "1"):
        raise ValueError(f"'reduced' must be 0 or 1, got {reduced_s!r}")
    reduced = reduced_s == "1"
    state_vars = tuple(take("statevars").split())
    dist_vars = tuple(take("distvars").split())
    state_pairs = pairs("statepairs", state_vars)
    dist_pairs = pairs("distpairs", dist_vars)
    n_basis = count("basis")
    elements = [multi_index(line(), len(state_vars), "basis") for _ in range(n_basis)]
    basis = MomentBasis(elements)
    terms_per_target: list[list[MufTerm]] = [[] for _ in range(n_basis)]
    # Terms repeat few distinct coefficients and disturbance indices: parse each once.
    coeffs: dict[str, Fraction] = {}
    dist_indices: dict[str, MultiIndex] = {}
    for _ in range(count("terms")):
        ln = line()
        fields = [p.strip() for p in ln.split("|")]
        if len(fields) != 4:
            raise ValueError(f"term line needs 4 '|'-separated fields: {ln!r}")
        target_s, coeff_s, beta_w_s, factors_s = fields
        if coeff_s not in coeffs:
            num, den = coeff_s.split("/")
            if int(den) == 0:
                raise ValueError(f"zero denominator in term line {ln!r}")
            coeffs[coeff_s] = Fraction(int(num), int(den))
        if beta_w_s not in dist_indices:
            dist_indices[beta_w_s] = multi_index(beta_w_s, len(dist_vars), "disturbance")
        target = int(target_s)
        factor_idx = [int(j) for j in factors_s.split()]
        if not all(0 <= j < n_basis for j in (target, *factor_idx)):
            raise ValueError(f"basis index out of range in term line {ln!r}")
        terms_per_target[target].append(
            MufTerm(coeffs[coeff_s], dist_indices[beta_w_s], tuple(elements[j] for j in factor_idx))
        )
    extra = next(it, None)
    if extra is not None:
        raise ValueError(f"unexpected line after the terms of a compiled-system file: {extra!r}")
    forms = tuple(
        MomentUpdateForm(elements[i], tuple(terms), reduced)
        for i, terms in enumerate(terms_per_target)
    )
    msys = MomentStateSystem(
        basis=basis,
        forms=forms,
        reduced=reduced,
        state_vars=state_vars,
        dist_vars=dist_vars,
        state_pairs=state_pairs,
        dist_pairs=dist_pairs,
    )
    if not is_complete(basis, forms, reduced):
        raise ValueError("compiled-system file is not complete w.r.t. its own forms")
    return msys


def save(msys: MomentStateSystem, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps(msys))


def load(path) -> MomentStateSystem:
    with open(path, "r", encoding="utf-8") as fh:
        return loads(fh.read())
