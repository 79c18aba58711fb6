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

import math
import operator
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache, cached_property, partial
from itertools import chain, compress, islice, repeat
from typing import Callable, Container, Iterable, Iterator, Mapping, NamedTuple, Sequence

import numpy as np

from .polyring import MultiIndex, Polynomial, _is_count, degree_vector, monomial_name, signed_sum
from .sysspec import MAX_DEGREE, DependenceGraph, PolynomialSystem, SpecError, TrigPair
from .sysspec import components_of_support, parse_monomial


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


class _Packing(NamedTuple):
    """Monomials over `n` variables as one int: `width` bits per exponent, the first variable highest.

    While every exponent is below 2**width, the ints order monomials
    lexicographically, a monomial product is one integer add, and `key`
    orders monomials as `MultiIndex.grlex_key` does.
    """

    n: int
    width: int

    def pack(self, mi: Sequence[int]) -> int:
        packed = 0
        for e in mi:
            packed = (packed << self.width) | e
        return packed

    def unpack(self, packed: int) -> MultiIndex:
        ones = (1 << self.width) - 1
        return MultiIndex((packed >> (self.width * (self.n - 1 - i))) & ones for i in range(self.n))

    def key(self, mi: MultiIndex) -> int:
        """Grlex sort key: the total degree above all fields, then the complement of the packed int."""
        fields = self.width * self.n
        return (sum(mi) << fields) | ((1 << fields) - 1 - self.pack(mi))

    def unkey(self, key: int) -> MultiIndex:
        ones = (1 << self.width * self.n) - 1
        return self.unpack(ones - (key & ones))


def _field_width(f: Sequence[Polynomial], max_degree: int) -> int:
    """Bits per exponent that hold every exponent of any f^alpha with |alpha| <= max_degree."""
    return (max_degree * max([1, *degree_vector(f)])).bit_length()


def _packed_power_builder(f: Sequence[Polynomial], joint: _Packing) -> Callable[[int], tuple[dict[int, int], int]]:
    """Map packed alpha to f^alpha as packed-monomial numerators over one denominator, memoising every power.

    alpha is packed over the len(f) state variables at `joint`'s width.
    f^alpha is the cached f^(alpha - e_i) times f_i, with i the last nonzero
    entry of alpha; the chain down to a cached power is walked iteratively.
    """
    factors = []
    for p in f:
        den = math.lcm(*(c.denominator for c in p.terms.values()))
        factors.append(({joint.pack(mi): c.numerator * (den // c.denominator) for mi, c in p.terms.items()}, den))
    powers: dict[int, tuple[dict[int, int], int]] = {0: ({0: 1}, 1)}

    def power(alpha: int) -> tuple[dict[int, int], int]:
        chain = []
        while alpha not in powers:
            lowest = ((alpha & -alpha).bit_length() - 1) // joint.width
            chain.append((alpha, len(f) - 1 - lowest))
            alpha -= 1 << (joint.width * lowest)
        terms, den = powers[alpha]
        for packed, i in reversed(chain):
            out: dict[int, int] = {}
            f_terms, f_den = factors[i]
            for ka, ca in terms.items():
                for kb, cb in f_terms.items():
                    out[ka + kb] = out.get(ka + kb, 0) + ca * cb
            terms, den = powers[packed] = {k: c for k, c in out.items() if c}, den * f_den
        return terms, den

    return power


def _block_splitter(graph: DependenceGraph) -> Callable[[MultiIndex], tuple[MultiIndex, ...]]:
    """Map a state multi-index to its blocks along `graph`'s components, in grlex order.

    The components depend only on the index's support, so the returned
    function finds them once per support and keeps them for its lifetime.
    """
    components: dict[tuple[int, ...], list[tuple[int, ...]]] = {}

    def blocks(beta_x: MultiIndex) -> tuple[MultiIndex, ...]:
        support = beta_x.support()
        comps = components.get(support)
        if comps is None:
            comps = components[support] = [b.support() for b in components_of_support(graph, beta_x)]
        if len(comps) == 1:
            return (beta_x,)
        return tuple(sorted((beta_x.masked(c) for c in comps), key=MultiIndex.grlex_key))

    return blocks


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

    @cached_property
    def powers(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        """(variable position, exponent) of each nonzero entry of each element, in order."""
        return tuple(tuple((i, e) for i, e in enumerate(mi) if e) for mi in self.elements)

    def index_of(self, mi: MultiIndex) -> int:
        return self._index[mi]

    def __eq__(self, other) -> bool:
        if not isinstance(other, MomentBasis):
            return NotImplemented
        return self.elements == other.elements


class TermTable(NamedTuple):
    """Term k adds coeff[k] * E[w^req[k]] * (state moments at fact[k], -1 pads) to moment target[k]."""

    target: np.ndarray
    coeff: np.ndarray
    req: np.ndarray
    fact: np.ndarray

    def __eq__(self, other) -> bool:
        return isinstance(other, TermTable) and all(map(np.array_equal, self, other))

    def __ne__(self, other) -> bool:
        return not self == other


@dataclass(frozen=True)
class MomentStateSystem:
    """Compiled deterministic recursion on a complete vector of state moments, held as its term table.

    Rows are in target order, `req` indexes `dist_requirements` (grlex order) and `exact_coeffs` is in lowest terms.
    """

    basis: MomentBasis
    term_table: TermTable
    exact_coeffs: tuple[tuple[int, int], ...]
    dist_requirements: tuple[MultiIndex, ...]
    reduced: bool
    state_vars: tuple[str, ...]
    dist_vars: tuple[str, ...]
    state_pairs: tuple[TrigPair, ...] = ()
    dist_pairs: tuple[TrigPair, ...] = ()
    _pair_positions: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def _terms(self) -> Iterator[tuple[int, tuple[int, int], MultiIndex, list[int]]]:
        """(target, exact coefficient, disturbance multi-index, factor positions) of each term, in table order."""
        table = self.term_table
        dists = map(self.dist_requirements.__getitem__, table.req.tolist())
        factors = ([j for j in row if j >= 0] for row in table.fact.tolist())
        return zip(table.target.tolist(), self.exact_coeffs, dists, factors)

    @cached_property
    def forms(self) -> tuple[MomentUpdateForm, ...]:
        """The term table as one update form per basis moment, built on first use."""
        terms: list[list[MufTerm]] = [[] for _ in self.basis]
        for target, coeff, dist, factors in self._terms():
            terms[target].append(MufTerm(Fraction(*coeff), dist, tuple(self.basis[j] for j in factors)))
        return tuple(MomentUpdateForm(mi, tuple(t), self.reduced) for mi, t in zip(self.basis, terms))

    def pair_positions(self, a: str, b: str) -> np.ndarray:
        """Basis positions of E[a], E[b], E[a^2], E[a*b] and E[b^2], read-only int64; cached per pair."""
        if (a, b) not in self._pair_positions:
            needed = second_moment_indices(self.state_vars, a, b, self.basis)
            positions = np.array([self.basis.index_of(mi) for mi in needed], dtype=np.int64)
            positions.flags.writeable = False
            self._pair_positions[a, b] = positions
        return self._pair_positions[a, b]

    def moment_names(self) -> tuple[str, ...]:
        return tuple(monomial_name(self.state_vars, mi) for mi in self.basis)

    def moment_index(self, name: str) -> int:
        """Basis position of a moment named as in a spec's `moments` line (``x*y``, ``y*x``, ``x^2``)."""
        try:
            return self.basis.index_of(parse_monomial(name, self.state_vars))
        except (SpecError, KeyError):
            raise KeyError(f"moment {name!r} is not in the compiled basis") from None


def _coefficient_error(state_vars: Sequence[str], target: MultiIndex, problem: str) -> ValueError:
    return ValueError(f"the update of E[{monomial_name(state_vars, target)}] has an exact coefficient {problem}")


def _distinct(column: Sequence, parse: Callable) -> tuple[list, np.ndarray]:
    """`parse` of each distinct key of `column`, in first-seen order, and each row's index into that list."""
    code = {k: i for i, k in enumerate(dict.fromkeys(column))}
    return list(map(parse, code)), np.fromiter(map(code.__getitem__, column), np.intp, len(column))


def _system_from_columns(basis: MomentBasis, columns: Sequence, parsers: Sequence, **fields) -> MomentStateSystem:
    """The system whose term k has the target, coefficient, dist and factor keys `columns[0..3][k]`.

    `parsers` map each distinct key to a basis position, (num, den), disturbance multi-index or factor
    positions.  Rows are stably sorted by target, unless they already are.
    """
    (targets, target), (pairs, coeff), (dists, req), (positions, fact) = map(_distinct, columns, parsers)
    target = np.array(targets, dtype=np.int64)[target]
    order = np.argsort(target, kind="stable") if np.any(target[1:] < target[:-1]) else slice(None)
    target, coeff, req, fact = target[order], coeff[order], req[order], fact[order]
    requirements = tuple(sorted(set(dists), key=MultiIndex.grlex_key))
    rank = {mi: i for i, mi in enumerate(requirements)}
    width = max([1, *map(len, positions)])
    exact, floats = [], []
    for code, (num, den) in enumerate(pairs):
        g = math.gcd(num, den) if den > 0 else -math.gcd(num, den)
        exact.append((num // g, den // g))
        try:  # num / den on ints is correctly rounded, as float(Fraction(num, den)) is
            floats.append(num / den)
        except OverflowError:
            at = basis[target[np.argmax(coeff == code)]]
            raise _coefficient_error(fields["state_vars"], at, "too large for a float") from None
    padded = np.array([[*p, *[-1] * (width - len(p))] for p in positions], dtype=np.int64).reshape(-1, width)
    req = np.array([rank[mi] for mi in dists], dtype=np.int64)[req]
    table = TermTable(target, np.array(floats)[coeff], req, padded[fact])
    return MomentStateSystem(basis, table, tuple(map(exact.__getitem__, coeff.tolist())), requirements, **fields)


def second_moment_indices(state_vars: Sequence[str], a: str, b: str, moments: Container[MultiIndex]) -> tuple:
    """E[a], E[b], E[a^2], E[a*b] and E[b^2] over `state_vars`, each checked to be in `moments`."""
    try:
        ua, ub = (MultiIndex.unit(len(state_vars), state_vars.index(v)) for v in (a, b))
    except ValueError:
        raise KeyError(f"state variables {(a, b)!r} not present in {tuple(state_vars)}") from None
    needed = (ua, ub, ua.plus(ua), ua.plus(ub), ub.plus(ub))
    for mi in needed:
        if mi not in moments:
            raise KeyError(f"basis lacks the moment E[{monomial_name(state_vars, mi)}]")
    return needed


def compile_moment_system(
    system: PolynomialSystem,
    seed: Iterable[MultiIndex],
    reduced: bool = True,
    max_basis: int = 10_000,
    max_degree: int = MAX_DEGREE,
) -> MomentStateSystem:
    """Compile a polynomial system into an executable moment-state system.

    `seed` grows into a complete moment basis by depth-first expansion.
    Every moment added gets its (possibly reduced) update form; state
    factors not yet tracked are expanded recursively in graded-lexicographic
    order, so the resulting basis order is reproducible.  The degree and
    basis-size guards turn runaway expansions (dynamics of degree > 1
    generically never close) into a diagnosable error.
    """
    for name, guard in (("max_degree", max_degree), ("max_basis", max_basis)):
        if not _is_count(guard, 1):
            raise ValueError(f"{name} must be an integer >= 1, got {guard!r}")
    max_degree, max_basis = operator.index(max_degree), operator.index(max_basis)
    seed_list = [mi if isinstance(mi, MultiIndex) else MultiIndex(mi) for mi in seed]
    if not seed_list:
        raise ValueError("seed moment basis must be nonempty")
    for mi in seed_list:
        if len(mi) != len(system.vars):
            raise ValueError("seed multi-index length does not match state variable count")
        if mi.is_zero():
            raise ValueError("the trivial moment E[x^0] cannot seed a basis")
        if mi.total_degree() > max_degree:  # checked before packing: its exponents may not fit a field
            name = monomial_name(system.vars, mi)
            raise BasisExplosionError(f"moment degree guard ({max_degree}) exceeded at {name}", [name])

    # Below, a moment is named by its grlex key and a monomial over the joint
    # ambient (state vars, then dist vars) by its packed int.  The field
    # width holds every exponent the degree guard lets through.
    n, m = len(system.vars), len(system.dist_vars)
    width = _field_width(system.f, max_degree)
    state, dist = _Packing(n, width), _Packing(m, width)
    state_ones = (1 << width * n) - 1
    dist_bits = width * m
    dist_ones = (1 << dist_bits) - 1
    # The caches live for this call only, so memory does not grow across compiles.
    power = _packed_power_builder(system.f, _Packing(n + m, width))
    blocks = _block_splitter(system.graph)

    @cache
    def dist_part(beta_w: int) -> int:
        return dist.key(dist.unpack(beta_w))

    @cache
    def state_part(beta_x: int) -> tuple[int, ...]:
        if not beta_x:
            return ()
        factors = blocks(state.unpack(beta_x)) if reduced else (state.unpack(beta_x),)
        return tuple(map(state.key, factors))

    def explode(guard: str, key: int) -> BasisExplosionError:
        chain = [key]
        while chain[-1] in parent:
            chain.append(parent[chain[-1]])
        names = [monomial_name(system.vars, state.unkey(k)) for k in reversed(chain)]
        return BasisExplosionError(f"moment {guard} exceeded at {names[-1]}", names)

    position: dict[int, int] = {}  # basis position of each expanded moment
    parent: dict[int, int] = {}
    columns: tuple[list, ...] = ([], [], [], [])  # target, (num, den), dist key and factor keys of each term
    stack = [state.key(mi) for mi in reversed(seed_list)]
    while stack:
        key = stack.pop()
        if key in position:
            continue
        if key >> (width * n) > max_degree:
            raise explode(f"degree guard ({max_degree})", key)
        if len(position) >= max_basis:
            raise explode(f"basis size guard ({max_basis})", key)
        target = position[key] = len(position)
        terms, den = power(state_ones - (key & state_ones))
        # (dist key, factor keys) is distinct per term, so the coefficients are never compared.
        keyed = sorted((dist_part(p & dist_ones), state_part(p >> dist_bits), (num, den)) for p, num in terms.items())
        dist_keys, factor_keys, pairs = zip(*keyed) if keyed else ((),) * 3
        for column, part in zip(columns, (repeat(target, len(keyed)), pairs, dist_keys, factor_keys)):
            column.extend(part)
        children = sorted(set(chain.from_iterable(factor_keys)).difference(position))
        for child in children:
            parent.setdefault(child, key)
        stack.extend(reversed(children))

    return _system_from_columns(
        MomentBasis(map(state.unkey, position)),
        columns,
        (int, tuple, dist.unkey, lambda keys: tuple(map(position.__getitem__, keys))),
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
    missing = [mi for mi in msys.dist_requirements if mi not in dist_values]
    if missing:
        raise KeyError(f"missing disturbance moment E[{monomial_name(msys.dist_vars, missing[0])}]")
    w = np.array([dist_values[mi] for mi in msys.dist_requirements], dtype=np.float64)
    table = msys.term_table
    scaled = table.coeff * w[table.req]
    j = table.fact[:, 0]
    n = len(msys.basis)
    A = np.zeros((n, n))
    b = np.zeros(n)
    # np.add.at adds in term order, as the forms list them.
    np.add.at(A, (table.target[j >= 0], j[j >= 0]), scaled[j >= 0])
    np.add.at(b, table.target[j < 0], scaled[j < 0])
    return A, b


# -- rendering & serialization --------------------------------------------------


def render_equations(msys: MomentStateSystem) -> str:
    """Human-readable listing: one update equation per basis moment."""
    names = [f"E[{name}]" for name in msys.moment_names()]
    terms: list[list] = [[] for _ in names]
    for target, coeff, dist, factors in msys._terms():
        named = [names[j] for j in factors]
        if not dist.is_zero():
            named.insert(0, f"E[{monomial_name(msys.dist_vars, dist)}]")
        terms[target].append((Fraction(*coeff), named))
    lines = []
    try:
        for target, name in enumerate(names):
            lines.append(f"{name}' = {signed_sum(terms[target])}")
    except ValueError:  # Python's limit on the digits of an integer written as text
        raise _coefficient_error(msys.state_vars, msys.basis[target], "too long to write") from None
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
        f"terms {len(msys.exact_coeffs)}",
    ]
    # Each distinct coefficient, disturbance index and basis position is written once, then gathered per term.
    table = msys.term_table
    coeff_text = {}
    try:
        for num, den in dict.fromkeys(msys.exact_coeffs):
            coeff_text[num, den] = f" | {num}/{den} | "
    except ValueError:  # Python's limit on the digits of an integer written as text
        target = table.target[msys.exact_coeffs.index((num, den))]
        raise _coefficient_error(msys.state_vars, msys.basis[target], "too long to write") from None
    dist_text = [" ".join(map(str, mi)) + " | " for mi in msys.dist_requirements]
    # Basis positions as text, and a -1 pad, the last entry, as "".  Factor j > 0 is written after a space.
    numbers = [*map(str, range(len(msys.basis))), ""]
    spaced = [" " + s if s else "" for s in numbers]
    columns = [
        map(numbers.__getitem__, table.target.tolist()),
        map(coeff_text.__getitem__, msys.exact_coeffs),
        map(dist_text.__getitem__, table.req.tolist()),
        *(map((spaced if j else numbers).__getitem__, col) for j, col in enumerate(table.fact.T.tolist())),
    ]
    return "\n".join([*lines, *map("".join, zip(*columns))]) + "\n"


def loads(text: str) -> MomentStateSystem:
    """Parse the text produced by :func:`dumps`.

    Any text that is not a whole, self-consistent file (truncated, an index
    out of range, a multi-index of the wrong length, trailing lines) raises
    ValueError.  Term lines may come in any order; a target's terms keep their file order.
    """
    it = filter(str.strip, text.splitlines())

    def line() -> str:
        try:
            return next(it)
        except StopIteration:
            raise ValueError("compiled-system file is truncated") from None

    def take(keyword: str, is_count: bool = False) -> str:
        """The value on the next line, which is `keyword`, a space and the value (a whole number if `is_count`)."""
        ln = line()
        key, _, value = ln.partition(" ")
        if key != keyword or is_count and not value.strip().isdecimal():
            what = f"{keyword!r} and a count" if is_count else repr(keyword)
            raise ValueError(f"expected {what} in compiled-system file, got {ln!r}")
        return value.strip()

    def count(keyword: str) -> int:
        return int(take(keyword, is_count=True))

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
    state_vars = tuple(take("statevars").split())
    dist_vars = tuple(take("distvars").split())
    state_pairs = pairs("statepairs", state_vars)
    dist_pairs = pairs("distpairs", dist_vars)
    n_basis = count("basis")
    basis = MomentBasis([multi_index(line(), len(state_vars), "basis") for _ in range(n_basis)])
    n_terms = count("terms")
    term_lines = list(islice(it, n_terms))
    if len(term_lines) < n_terms:
        raise ValueError("compiled-system file is truncated")
    for extra in it:
        raise ValueError(f"unexpected line after the terms of a compiled-system file: {extra!r}")
    for bad in compress(term_lines, map((3).__ne__, map(str.count, term_lines, repeat("|")))):
        raise ValueError(f"term line needs 4 '|'-separated fields: {bad!r}")
    # Split flat, a chunk at a time; terms repeat few fields, kept as one string each and parsed once.
    columns: tuple[list, ...] = ([], [], [], [])
    seen: dict[str, str] = {}
    for start in range(0, n_terms, 2048):
        fields = "|".join(term_lines[start:start + 2048]).split("|")
        for j, column in enumerate(columns):
            column.extend(map(seen.setdefault, fields[j::4], fields[j::4]))

    def positions(j: int, key: str):
        """The target (j = 0) or factor positions (j = 3) that field j of a term line names."""
        ids = tuple(map(int, key.split())) if j else (int(key),)
        if ids and not (0 <= min(ids) and max(ids) < n_basis):
            raise ValueError(f"basis index out of range in term line {term_lines[columns[j].index(key)]!r}")
        return ids if j else ids[0]

    def coefficient(coeff_s: str) -> tuple[int, int]:
        num, den = coeff_s.split("/")
        if int(den) == 0:
            raise ValueError(f"zero denominator in term line {term_lines[columns[1].index(coeff_s)]!r}")
        return int(num), int(den)

    return _system_from_columns(
        basis,
        columns,
        (partial(positions, 0), coefficient, lambda s: multi_index(s.strip(), len(dist_vars), "disturbance"),
         partial(positions, 3)),
        reduced=reduced_s == "1",
        state_vars=state_vars,
        dist_vars=dist_vars,
        state_pairs=state_pairs,
        dist_pairs=dist_pairs,
    )


def save(msys: MomentStateSystem, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps(msys))


def load(path) -> MomentStateSystem:
    with open(path, "r", encoding="utf-8") as fh:
        return loads(fh.read())
