"""Parsing and trig-polynomial encoding of discrete-time system specs.

A spec is a line-oriented text document ('#' starts a comment):

    state x y v theta
    angle theta
    disturbance wv wt
    dyn x'     = x + v*cos(theta)
    dyn y'     = y + v*sin(theta)
    dyn v'     = v + wv
    dyn theta' = theta + wt
    independent {v} {theta}
    moments x y x*y x^2 y^2
    dist wv = beta(10, 1000)
    dist wt = gaussian(0.04, 0.03)

`trig_encode` turns the system polynomial by replacing each angle state with
a (cos, sin) state pair and each angular disturbance with a (cos, sin)
disturbance pair, using the angle-sum expansion for the pair updates.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field, fields
from fractions import Fraction
from functools import cached_property
from typing import Any, Callable, Iterable, Mapping, Sequence

import numpy as np

from . import distmoments, tables
from .polyring import MultiIndex, Polynomial


class SpecError(ValueError):
    """Input error in a system spec, with source position when available."""

    def __init__(self, message: str, line: int | None = None, col: int | None = None):
        self.line = line
        self.col = col
        if line is not None:
            message = f"line {line}" + (f", column {col}" if col is not None else "") + f": {message}"
        super().__init__(message)


# -- expression trees ---------------------------------------------------------


@dataclass(frozen=True)
class Const:
    value: Fraction


@dataclass(frozen=True)
class Sym:
    name: str


@dataclass(frozen=True)
class Trig:
    fn: str  # "sin" or "cos"
    arg: str


@dataclass(frozen=True)
class Sum:
    """Signed terms combined left to right; the first sign is +1, and a leading minus is 0 - term."""

    terms: tuple[tuple[int, "Expr"], ...]


@dataclass(frozen=True)
class Product:
    """Factors multiplied left to right."""

    factors: tuple["Expr", ...]


@dataclass(frozen=True)
class Power:
    base: "Expr"
    exponent: int


Expr = Const | Sym | Trig | Sum | Product | Power


@dataclass(frozen=True)
class Usage:
    """The names one expression uses; each tuple lists them in order of first appearance."""

    names: tuple[str, ...]  # bare or inside sin/cos
    bare: tuple[str, ...]  # outside any sin()/cos()
    trig: tuple[str, ...]  # as the argument of a sin() or cos()

    @classmethod
    def of(cls, expr: Expr) -> "Usage":
        """The usage of `expr` under :func:`fold`: each leaf gives its name, and every operator but ** merges."""
        return fold(expr, cls._leaf)

    @classmethod
    def _leaf(cls, node: Const | Sym | Trig) -> "Usage":
        if isinstance(node, Sym):
            return cls((node.name,), (node.name,), ())
        if isinstance(node, Trig):
            return cls((node.arg,), (), (node.arg,))
        return cls((), (), ())

    def __add__(self, other: "Usage") -> "Usage":
        pairs = zip((self.names, self.bare, self.trig), (other.names, other.bare, other.trig))
        return Usage(*(tuple(dict.fromkeys(a + b)) for a, b in pairs))

    __sub__ = __mul__ = __add__

    def __pow__(self, exponent: int) -> "Usage":
        return self


def fold(expr: Expr, leaf: Callable[[Const | Sym | Trig], Any]):
    """Combine the values `leaf` gives the leaves with + - * and ** in the tree's order.

    Sums and products are folded left to right, so any value type with those
    operators gets the same association as the written expression.  Recursion
    follows parenthesis nesting only, which the parser caps.
    """
    if isinstance(expr, Sum):
        terms = iter(expr.terms)
        acc = fold(next(terms)[1], leaf)
        for sign, term in terms:
            acc = acc + fold(term, leaf) if sign > 0 else acc - fold(term, leaf)
        return acc
    if isinstance(expr, Product):
        factors = iter(expr.factors)
        acc = fold(next(factors), leaf)
        for factor in factors:
            acc = acc * fold(factor, leaf)
        return acc
    if isinstance(expr, Power):
        return fold(expr.base, leaf) ** expr.exponent
    return leaf(expr)


class _Degree(int):
    """Degree bound under :func:`fold`, sin/cos counting 1: + and - take the larger, * adds, ** multiplies."""

    def __add__(self, other):
        return _Degree(max(self, other))

    __sub__ = __add__

    def __mul__(self, other):
        return _Degree(int(self) + other)

    def __pow__(self, exponent):
        return _Degree(int(self) * exponent)


def trig(fn: str, value):
    """sin or cos of `value` with numpy, as `evaluate` computes a Trig leaf."""
    return np.sin(value) if fn == "sin" else np.cos(value)


def evaluate(expr: Expr, env: Mapping[str, float | np.ndarray], known: Mapping[tuple[str, str], Any] | None = None):
    """Numeric evaluation; sin/cos evaluated with numpy, so values may be arrays.

    A sin/cos of a name is taken from `known[fn, name]` where it holds one.
    The rollout engine passes the cos and sin of the state's angles, which the
    Monte Carlo recorder reads too, so each is computed once per step; any
    other Trig leaf, such as that of a disturbance, is computed here.
    """
    known = known or {}

    def leaf(node):
        if isinstance(node, Const):
            return float(node.value)
        if isinstance(node, Sym):
            return env[node.name]
        key = (node.fn, node.arg)
        return known[key] if key in known else trig(node.fn, env[node.arg])

    return fold(expr, leaf)


# -- tokenizer / parser -------------------------------------------------------

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>\d+(?:\.\d*)?(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?)"
    r"|(?P<ident>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<punct>[-+*^(){}=',]))"
)


@dataclass(frozen=True)
class _Token:
    kind: str  # "num", "ident", "punct", "end"
    text: str
    line: int
    col: int


def _tokenize_line(text: str, line_no: int | None) -> list[_Token]:
    tokens, pos = [], 0
    while m := _TOKEN_RE.match(text, pos):
        tokens.append(_Token(m.lastgroup, m.group(m.lastgroup), line_no, m.start(m.lastgroup) + 1))
        pos = m.end()
    if rest := text[pos:].lstrip():
        raise SpecError(f"unexpected character {rest[0]!r}", line_no, len(text) - len(rest) + 1)
    tokens.append(_Token("end", "", line_no, len(text) + 1))
    return tokens


# The parser recurses four frames per parenthesis level, so deeper nesting
# would overrun Python's default recursion limit of 1000.
_MAX_PAREN_DEPTH = 200

# Moment degree beyond which compilation stops; no exponent may exceed it.
MAX_DEGREE = 32

# A literal's exact value is built from its text, so the text is checked first:
# at most this many digits, and a decimal exponent at most this large in magnitude.
_LITERAL_LIMIT = 400


class _ExprParser:
    """A cursor over one line's tokens, and the recursive-descent parser for the update-expression grammar."""

    def __init__(self, tokens: list[_Token]):
        self.tokens = tokens
        self.i = 0
        self.depth = 0

    def peek(self) -> _Token:
        return self.tokens[self.i]

    def next(self) -> _Token:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_punct(self, text: str) -> _Token:
        tok = self.next()
        if tok.kind != "punct" or tok.text != text:
            raise SpecError(f"expected {text!r}, got {tok.text!r}", tok.line, tok.col)
        return tok

    def ident(self, what: str) -> _Token:
        tok = self.next()
        if tok.kind != "ident":
            raise SpecError(f"expected {what}, got {tok.text!r}", tok.line, tok.col)
        return tok

    def expect_end(self) -> None:
        """Reject the first token left unread on the line."""
        if (tok := self.peek()).kind != "end":
            raise SpecError(f"unexpected trailing {tok.text!r}", tok.line, tok.col)

    def word(self) -> list[_Token]:
        """The tokens from the cursor to the next space or the line's end, closed by an "end" token of their own."""
        word, col = [], self.peek().col  # col: where the word ends
        while (tok := self.peek()).kind != "end" and (not word or tok.col == col):
            word.append(self.next())
            col = tok.col + len(tok.text)
        return [*word, _Token("end", "", tok.line, col)]

    def parse_expr(self) -> Expr:
        terms: list[tuple[int, Expr]] = []
        tok = self.peek()
        # Leading sign accepted as a convenience superset of the grammar.
        if tok.kind == "punct" and tok.text in "+-":
            self.next()
            if tok.text == "-":
                terms.append((1, Const(Fraction(0))))
        while True:
            terms.append((-1 if tok.text == "-" else 1, self.parse_term()))
            tok = self.peek()
            if tok.kind != "punct" or tok.text not in "+-":
                return terms[0][1] if len(terms) == 1 else Sum(tuple(terms))
            self.next()

    def parse_term(self) -> Expr:
        factors = [self.parse_factor()]
        while self.peek().kind == "punct" and self.peek().text == "*":
            self.next()
            factors.append(self.parse_factor())
        return factors[0] if len(factors) == 1 else Product(tuple(factors))

    def parse_factor(self) -> Expr:
        base = self.parse_base()
        caret = self.peek()
        exponent = self.parse_exponent()
        if exponent is None:
            return base
        # Nested powers multiply their exponents: bound the degree of the whole power.
        power = Power(base, exponent)
        if fold(power, lambda node: _Degree(0 if isinstance(node, Const) else 1)) > MAX_DEGREE:
            raise SpecError(f"power exceeds the degree limit {MAX_DEGREE}", caret.line, caret.col)
        return power

    def parse_exponent(self) -> int | None:
        """The unsigned integer after a '^', or None when no '^' follows."""
        if not (self.peek().kind == "punct" and self.peek().text == "^"):
            return None
        self.next()
        tok = self.next()
        if tok.kind != "num" or not tok.text.isdigit():
            raise SpecError("exponent must be an unsigned integer", tok.line, tok.col)
        digits = tok.text.lstrip("0") or "0"
        if len(digits) > 9 or int(digits) > MAX_DEGREE:
            raise SpecError(f"exponent exceeds the degree limit {MAX_DEGREE}", tok.line, tok.col)
        return int(digits)

    def parse_base(self) -> Expr:
        tok = self.next()
        if tok.kind == "num":
            return Const(_literal(tok))
        if tok.kind == "ident":
            if tok.text in ("sin", "cos") and self.peek().text == "(":
                self.next()
                arg = self.next()
                if arg.kind != "ident":
                    raise SpecError(f"{tok.text}() takes a single variable", arg.line, arg.col)
                self.expect_punct(")")
                return Trig(tok.text, arg.text)
            return Sym(tok.text)
        if tok.kind == "punct" and tok.text == "(":
            if self.depth == _MAX_PAREN_DEPTH:
                raise SpecError(f"parentheses nested more than {_MAX_PAREN_DEPTH} deep", tok.line, tok.col)
            self.depth += 1
            expr = self.parse_expr()
            self.expect_punct(")")
            self.depth -= 1
            return expr
        hint = ": a sign may start only an expression or a parenthesised group, as in (-0.5)*x"
        raise SpecError(f"unexpected token {tok.text!r}{hint if tok.text in ('+', '-') else ''}", tok.line, tok.col)


def _literal(tok: _Token) -> Fraction:
    """Exact value of a numeric literal; one beyond the range of a double is an input error."""
    mantissa, _, exponent = tok.text.lower().partition("e")
    exponent = exponent.lstrip("+-").lstrip("0") or "0"
    if len(mantissa.replace(".", "")) > _LITERAL_LIMIT or len(exponent) > 9 or int(exponent) > _LITERAL_LIMIT:
        raise SpecError(
            f"numeric literal exceeds {_LITERAL_LIMIT} digits or a decimal exponent of {_LITERAL_LIMIT}", tok.line, tok.col
        )
    if math.isinf(float(tok.text)):
        raise SpecError(f"numeric literal {tok.text} is too large for a double", tok.line, tok.col)
    return Fraction(tok.text)


# -- parsed spec --------------------------------------------------------------


@dataclass
class SystemSpec:
    """Parsed and structurally validated system description.

    `increments` and `trig_offsets` are filled in by :func:`parse_spec` as it
    checks the angle updates and the disturbances' trig usage.
    """

    state_vars: tuple[str, ...]
    angle_vars: tuple[str, ...]
    disturbance_vars: tuple[str, ...]
    updates: dict[str, Expr]
    independence_decls: tuple[tuple[frozenset[str], frozenset[str]], ...] = ()
    target_moments: tuple[MultiIndex, ...] = ()
    distributions: dict[str, distmoments.Distribution] = field(default_factory=dict)
    # angle -> (disturbance or None, constant offset) of its update angle + increment
    increments: dict[str, tuple[str | None, Fraction]] = field(default_factory=dict)
    # disturbance used as an angle increment or inside sin/cos -> its one constant offset,
    # angle increments first (in angle order), then the other updates' trig usage in source order
    trig_offsets: dict[str, Fraction] = field(default_factory=dict)

    @cached_property
    def usage(self) -> dict[str, Usage]:
        """Each update's :class:`Usage`, by updated state variable."""
        return {name: Usage.of(expr) for name, expr in self.updates.items()}


def _parse_dist_value(parser: _ExprParser) -> distmoments.Distribution:
    kind = parser.ident("a distribution name")
    parser.expect_punct("(")
    args = []
    while True:
        sign = 1.0
        tok = parser.next()
        if tok.kind == "punct" and tok.text == "-":
            sign = -1.0
            tok = parser.next()
        if tok.kind != "num":
            raise SpecError("expected a numeric distribution parameter", tok.line, tok.col)
        args.append(sign * float(_literal(tok)))
        tok = parser.next()
        if tok.kind == "punct" and tok.text == ")":
            break
        if not (tok.kind == "punct" and tok.text == ","):
            raise SpecError("expected ',' or ')'", tok.line, tok.col)
    if kind.text not in distmoments.KINDS:
        raise SpecError(f"unknown distribution kind {kind.text!r}", kind.line, kind.col)
    family = distmoments.KINDS[kind.text]
    arity = len(fields(family))
    if len(args) != arity:
        raise SpecError(f"{kind.text} takes {arity} parameter(s)", kind.line, kind.col)
    try:
        return family(*args)
    except ValueError as exc:
        raise SpecError(str(exc), kind.line, kind.col) from None


def parse_monomial(name: str, state_vars: Sequence[str]) -> MultiIndex:
    """Multi-index over `state_vars` of a monomial such as ``x^2*y``, read as one word of a `moments` line."""
    parser = _ExprParser(_tokenize_line(name, None))
    alpha = _monomial(parser.word(), state_vars)
    parser.expect_end()
    return alpha


def _monomial(tokens: list[_Token], state_vars: Sequence[str]) -> MultiIndex:
    """Multi-index over `state_vars` of the monomial spelt by `tokens`, which end in an "end" token."""
    parser = _ExprParser(tokens)
    exps = [0] * len(state_vars)
    while True:
        tok = parser.next()
        if tok.kind != "ident":
            raise SpecError(f"moment monomials are products of state variables, got {tok.text!r}", tok.line, tok.col)
        if tok.text not in state_vars:
            raise SpecError(f"undeclared state variable {tok.text!r} in moments", tok.line, tok.col)
        power = parser.parse_exponent()
        exps[state_vars.index(tok.text)] += 1 if power is None else power
        nxt = parser.next()
        if nxt.kind == "end":
            break
        if not (nxt.kind == "punct" and nxt.text == "*"):
            raise SpecError(f"unexpected {nxt.text!r} in moment monomial", nxt.line, nxt.col)
    return MultiIndex(exps)


def _parse_name_set(parser: _ExprParser) -> frozenset[str]:
    parser.expect_punct("{")
    names = set()
    while parser.peek().text != "}":
        names.add(parser.ident("a variable name").text)
    close = parser.next()
    if not names:
        raise SpecError("empty variable set in independence declaration", close.line, None)
    return frozenset(names)


def parse_spec(text: str) -> SystemSpec:
    """Parse a system spec document; raises SpecError with line/column on failure."""
    state_vars: dict[str, int] = {}  # each name and its declaring line, in order
    angle_vars: dict[str, int] = {}
    disturbance_vars: dict[str, int] = {}
    updates: dict[str, Expr] = {}
    update_lines: dict[str, int] = {}
    independence: list[tuple[frozenset[str], frozenset[str], int]] = []
    moment_words: list[list[_Token]] = []  # each monomial's tokens
    distributions: dict[str, distmoments.Distribution] = {}
    dist_lines: dict[str, int] = {}

    for line_no, line in tables.text_lines(text):
        # One cursor reads the line from its keyword to its end; a token left over is an error.
        parser = _ExprParser(_tokenize_line(line, line_no))
        head = parser.ident("a declaration keyword")

        if head.text in ("state", "angle", "disturbance"):
            if parser.peek().kind == "end":
                raise SpecError(f"'{head.text}' needs at least one name", line_no, head.col)
            target = {"state": state_vars, "angle": angle_vars, "disturbance": disturbance_vars}[head.text]
            while parser.peek().kind != "end":
                tok = parser.ident("a variable name")
                if tok.text in target:
                    raise SpecError(f"duplicate declaration of {tok.text!r}", line_no, tok.col)
                if tok.text in {"state": disturbance_vars, "disturbance": state_vars}.get(head.text, ()):
                    raise SpecError(f"names declared both state and disturbance: {[tok.text]}", line_no, tok.col)
                target[tok.text] = line_no
        elif head.text == "dyn":
            name_tok = parser.ident("a variable name after 'dyn'")
            parser.expect_punct("'")
            parser.expect_punct("=")
            expr = parser.parse_expr()
            if name_tok.text in updates:
                raise SpecError(f"duplicate update for {name_tok.text!r}", line_no, name_tok.col)
            updates[name_tok.text] = expr
            update_lines[name_tok.text] = line_no
        elif head.text == "independent":
            first = _parse_name_set(parser)
            second = _parse_name_set(parser)
            independence.append((first, second, line_no))
        elif head.text == "moments":
            # A space ends a monomial, so text glued to the keyword is a monomial of its own.
            if parser.peek().kind == "end":
                raise SpecError("'moments' needs at least one monomial", line_no, head.col)
            while parser.peek().kind != "end":
                moment_words.append(parser.word())
        elif head.text == "dist":
            name_tok = parser.ident("a disturbance name after 'dist'")
            if name_tok.text in distributions:
                raise SpecError(f"duplicate distribution for {name_tok.text!r}", line_no, name_tok.col)
            parser.expect_punct("=")
            distributions[name_tok.text] = _parse_dist_value(parser)
            dist_lines[name_tok.text] = line_no
        else:
            raise SpecError(f"unknown declaration {head.text!r}", line_no, head.col)
        parser.expect_end()

    state = tuple(state_vars)
    angles = tuple(angle_vars)
    dists = tuple(disturbance_vars)
    declared = set(state) | set(dists)
    for a in angles:
        if a not in state:
            raise SpecError(f"angle {a!r} is not a declared state variable", angle_vars[a])

    for name in state:
        if name not in updates:
            raise SpecError(f"state variable {name!r} has no 'dyn' update", state_vars[name])
    for name in updates:
        if name not in state:
            raise SpecError(f"'dyn' update for undeclared state variable {name!r}", update_lines[name])
    spec = SystemSpec(state, angles, dists, updates, tuple(d[:2] for d in independence), distributions=distributions)
    for name, use in spec.usage.items():
        for sym in use.names:
            if sym not in declared:
                raise SpecError(f"undeclared symbol {sym!r} in update of {name!r}", update_lines[name])

    for name, dist in distributions.items():
        if name not in dists:
            raise SpecError(f"'dist' declaration for undeclared disturbance {name!r}", dist_lines[name])

    for first, second, ln in independence:
        for group in (first, second):
            for sym in group:
                if sym not in state:
                    raise SpecError(f"independence declaration names non-state variable {sym!r}", ln)
        if first & second:
            raise SpecError(f"independence declaration groups overlap: {sorted(first & second)}", ln)

    spec.target_moments = tuple(_monomial(word, state) for word in moment_words)
    for alpha, word in zip(spec.target_moments, moment_words):
        if angle := next((name for name, e in zip(state, alpha) if e and name in angles), None):
            raise SpecError(f"moments of angle {angle!r} are not expressible after encoding; "
                            "its cosine/sine moments appear in completions automatically", word[0].line)
    spec.increments = _angle_increments(spec, update_lines)
    spec.trig_offsets = _trig_offsets(spec, update_lines)
    return spec


def _flatten_sum(expr: Expr) -> list[tuple[int, Expr]]:
    """Flatten nested sums into (sign, term) pairs, left to right."""
    out = []
    stack = [(1, expr)]
    while stack:
        sign, node = stack.pop()
        if isinstance(node, Sum):
            stack.extend((sign * s, term) for s, term in reversed(node.terms))
        else:
            out.append((sign, node))
    return out


def _angle_increment(angle: str, update: Expr, disturbances: Sequence[str]) -> tuple[str | None, Fraction]:
    """Decompose an angle update theta' = theta + delta.

    Returns (disturbance variable or None, constant offset).  Raises
    SpecError when the update is not of that shape.
    """
    terms = _flatten_sum(update)
    self_terms = [(s, t) for s, t in terms if isinstance(t, Sym) and t.name == angle]
    if len(self_terms) != 1 or self_terms[0][0] != 1:
        raise SpecError(f"angle {angle!r} update must have the form {angle} + <increment>")
    source: str | None = None
    offset = Fraction(0)
    for sign, term in terms:
        if isinstance(term, Sym) and term.name == angle:
            continue
        if isinstance(term, Const):
            offset += sign * term.value
        elif isinstance(term, Sym) and term.name in disturbances:
            if sign != 1:
                raise SpecError(f"angle {angle!r} increment must add its disturbance, not subtract it")
            if source is not None:
                raise SpecError(f"angle {angle!r} increment may reference at most one disturbance")
            source = term.name
        else:
            raise SpecError(
                f"angle {angle!r} increment may only contain one disturbance variable and constants"
            )
    return source, offset


def _angle_increments(
    spec: SystemSpec, update_lines: dict[str, int]
) -> dict[str, tuple[str | None, Fraction]]:
    """Each angle's increment; angles appear bare only in their own update, and sin/cos only of angles."""
    increments = {}
    for angle in spec.angle_vars:
        try:
            increments[angle] = _angle_increment(angle, spec.updates[angle], spec.disturbance_vars)
        except SpecError as exc:
            raise SpecError(str(exc), update_lines.get(angle)) from None
        for name, use in spec.usage.items():
            if name != angle and angle in use.bare:
                raise SpecError(
                    f"angle {angle!r} may appear only inside sin()/cos() outside its own update",
                    update_lines.get(name),
                )
    for name, use in spec.usage.items():
        for arg in use.trig:
            if arg in spec.state_vars and arg not in spec.angle_vars:
                raise SpecError(
                    f"sin/cos applied to non-angle state variable {arg!r}", update_lines.get(name)
                )
    return increments


def _trig_offsets(spec: SystemSpec, update_lines: dict[str, int]) -> dict[str, Fraction]:
    """The `trig_offsets` of a spec whose `increments` are known.

    A disturbance used both polynomially (named at its first such use) and
    trigonometrically, or trigonometrically with two constant offsets (named
    at the second), is an input error.
    """
    offsets: dict[str, dict[Fraction, int]] = {}  # each offset's first update line
    poly_used: dict[str, int] = {}  # each polynomially used name's first update line
    for angle, (source, offset) in spec.increments.items():
        if source is not None:
            offsets.setdefault(source, {}).setdefault(offset, update_lines[angle])
    for name, use in spec.usage.items():
        if name in spec.angle_vars:
            continue
        for sym in use.bare:
            poly_used.setdefault(sym, update_lines[name])
        for arg in use.trig:
            if arg in spec.disturbance_vars:
                offsets.setdefault(arg, {}).setdefault(Fraction(0), update_lines[name])
    for name, found in offsets.items():
        if name in poly_used:
            raise SpecError(f"disturbance {name!r} is used both polynomially and trigonometrically", poly_used[name])
        if len(found) > 1:
            raise SpecError(
                f"disturbance {name!r} is used trigonometrically with different constant offsets; "
                "the encoded pairs would wrongly be treated as independent",
                list(found.values())[1],
            )
    return {name: next(iter(found)) for name, found in offsets.items()}


# -- dependence graph ---------------------------------------------------------


@dataclass(frozen=True)
class DependenceGraph:
    """Undirected dependence graph on state variables."""

    vertices: tuple[str, ...]
    edges: frozenset[frozenset[str]]

    def __post_init__(self):
        vertex_set = set(self.vertices)
        for edge in self.edges:
            if len(edge) != 2:
                raise ValueError(f"edges must join two distinct vertices, got {set(edge)}")
            if not edge <= vertex_set:
                raise ValueError(f"edge {set(edge)} references unknown vertices")

    @classmethod
    def complete(cls, vertices: Sequence[str]) -> "DependenceGraph":
        verts = tuple(vertices)
        edges = frozenset(
            frozenset((a, b)) for i, a in enumerate(verts) for b in verts[i + 1 :]
        )
        return cls(verts, edges)

    def has_edge(self, a: str, b: str) -> bool:
        return frozenset((a, b)) in self.edges

    def without_edges(self, pairs: Iterable[tuple[str, str]]) -> "DependenceGraph":
        removed = {frozenset(p) for p in pairs}
        return DependenceGraph(self.vertices, self.edges - removed)

    def components(self, subset: Iterable[str]) -> list[tuple[str, ...]]:
        """Connected components of the restriction to `subset`, in vertex order."""
        order = {v: i for i, v in enumerate(self.vertices)}
        remaining = sorted(set(subset), key=order.__getitem__)
        seen: set[str] = set()
        out: list[tuple[str, ...]] = []
        allowed = set(remaining)
        for start in remaining:
            if start in seen:
                continue
            stack = [start]
            comp = []
            seen.add(start)
            while stack:
                v = stack.pop()
                comp.append(v)
                for u in allowed:
                    if u not in seen and self.has_edge(v, u):
                        seen.add(u)
                        stack.append(u)
            out.append(tuple(sorted(comp, key=order.__getitem__)))
        return out


def components_of_support(graph: DependenceGraph, beta_x: MultiIndex) -> list[MultiIndex]:
    """Factor a state multi-index along connected components of its support.

    Returns the component multi-indices in vertex order; they are disjoint
    and sum back to `beta_x`.
    """
    if len(beta_x) != len(graph.vertices):
        raise ValueError("multi-index length does not match graph vertex count")
    support = [graph.vertices[i] for i in beta_x.support()]
    index = {v: i for i, v in enumerate(graph.vertices)}
    return [
        beta_x.masked(index[v] for v in comp) for comp in graph.components(support)
    ]


# -- trig encoding -------------------------------------------------------------


@dataclass(frozen=True)
class TrigPair:
    """Encoded (cos, sin) variable pair for an angle state or angular disturbance."""

    cos_var: str
    sin_var: str
    source: str | None  # original angle/disturbance name; None for constant-only increments
    shift: Fraction = Fraction(0)  # constant offset baked into the angle increment


@dataclass(frozen=True)
class PolynomialSystem:
    """Trig-free polynomial dynamics x_{t+1} = f(x_t, w_t) with dependence graph."""

    vars: tuple[str, ...]
    dist_vars: tuple[str, ...]
    f: tuple[Polynomial, ...]
    graph: DependenceGraph
    state_pairs: tuple[TrigPair, ...] = ()
    dist_pairs: tuple[TrigPair, ...] = ()
    target_moments: tuple[MultiIndex, ...] = ()

    def __post_init__(self):
        if len(self.f) != len(self.vars):
            raise ValueError("component count of f must equal the state variable count")
        joint = self.vars + self.dist_vars
        for name, p in zip(self.vars, self.f):
            if p.vars != joint:
                raise ValueError(f"the update of {name} is over {p.vars}, not the joint ambient {joint}")


def _fresh_name(base: str, taken: set[str]) -> str:
    name = base
    k = 2
    while name in taken:
        name = f"{base}{k}"
        k += 1
    taken.add(name)
    return name


def trig_encode(spec: SystemSpec) -> PolynomialSystem:
    """Replace angle states and angular disturbances with (cos, sin) pairs.

    Each angle theta with update theta + delta becomes the state pair
    (c, s) with updates c' = c*cw - s*sw and s' = s*cw + c*sw, where
    (cw, sw) is the encoded pair of delta.  sin/cos of disturbances are
    likewise replaced.  Sample paths are preserved exactly.
    """
    taken = set(spec.state_vars) | set(spec.disturbance_vars)

    def new_pair(base: str, source: str | None, shift: Fraction = Fraction(0)) -> TrigPair:
        return TrigPair(_fresh_name(f"c_{base}", taken), _fresh_name(f"s_{base}", taken), source, shift)

    state_pairs = {angle: new_pair(angle, angle) for angle in spec.angle_vars}
    # Encoded state order: angles replaced in place by their (cos, sin) pair.
    encoded = {name: (name,) for name in spec.state_vars}
    encoded.update((angle, (pair.cos_var, pair.sin_var)) for angle, pair in state_pairs.items())
    new_vars = [var for name in spec.state_vars for var in encoded[name]]

    # One pair per (source, shift): the angle increments in angle order, then the other sin/cos usage.
    dist_pairs: dict[tuple[str | None, Fraction], TrigPair] = {}
    for key in [*spec.increments.values(), *spec.trig_offsets.items()]:
        if key not in dist_pairs:
            dist_pairs[key] = new_pair(key[0] or "u", *key)

    used = {name for use in spec.usage.values() for name in use.names}
    new_dist_vars: list[str] = [
        w for w in spec.disturbance_vars if w not in spec.trig_offsets and w in used
    ]
    for pair in dist_pairs.values():
        new_dist_vars.extend((pair.cos_var, pair.sin_var))

    joint = tuple(new_vars) + tuple(new_dist_vars)
    gens = {name: Polynomial.variable(joint, name) for name in joint}
    one = Polynomial.constant(joint, 1)

    trig_gens: dict[tuple[str, str], Polynomial] = {}
    for pair in [*state_pairs.values(), *dist_pairs.values()]:
        if pair.source is not None and pair.shift == 0:
            trig_gens[("cos", pair.source)] = gens[pair.cos_var]
            trig_gens[("sin", pair.source)] = gens[pair.sin_var]

    def leaf(node: Const | Sym | Trig) -> Polynomial:
        if isinstance(node, Const):
            return one * node.value
        if isinstance(node, Sym):
            return gens[node.name]
        return trig_gens[(node.fn, node.arg)]

    f: list[Polynomial] = []
    for name in spec.state_vars:
        if name in state_pairs:
            c, s = (gens[v] for v in encoded[name])
            wpair = dist_pairs[spec.increments[name]]
            cw, sw = gens[wpair.cos_var], gens[wpair.sin_var]
            f.append(c * cw - s * sw)
            f.append(s * cw + c * sw)
        else:
            f.append(fold(spec.updates[name], leaf))

    targets = []
    var_index = {name: i for i, name in enumerate(new_vars)}
    for alpha in spec.target_moments:
        exps = [0] * len(new_vars)
        for name, e in zip(spec.state_vars, alpha):
            if e:  # parse_spec rejects a moment of an angle
                exps[var_index[name]] = e
        targets.append(MultiIndex(exps))

    # Complete graph minus declared independences.  An angle's (c, s) pair stays
    # joined: a declaration's groups are disjoint, so no removed edge joins one pair.
    graph = DependenceGraph.complete(new_vars).without_edges(
        (ea, eb)
        for first, second in spec.independence_decls
        for a in first
        for b in second
        for ea in encoded[a]
        for eb in encoded[b]
    )
    return PolynomialSystem(
        vars=tuple(new_vars),
        dist_vars=tuple(new_dist_vars),
        f=tuple(f),
        graph=graph,
        state_pairs=tuple(state_pairs.values()),
        dist_pairs=tuple(dist_pairs.values()),
        target_moments=tuple(targets),
    )


# -- independence diagnostics ---------------------------------------------------


def validate_independence(spec: SystemSpec) -> list[str]:
    """Static check of declared independences against the update structure.

    Two groups declared independent must not reference each other's state
    transitively, nor share any disturbance symbol in their transitive
    update supports.  Returns human-readable diagnostics (empty when clean).
    """
    state = set(spec.state_vars)
    refs: dict[str, set[str]] = {}
    dists: dict[str, set[str]] = {}
    for name in spec.state_vars:
        syms = set(spec.usage[name].names)
        refs[name] = syms & state
        dists[name] = syms & set(spec.disturbance_vars)

    def closure(names: Iterable[str]) -> set[str]:
        reach = set(names)
        frontier = set(names)
        while frontier:
            nxt = set()
            for v in frontier:
                nxt |= refs[v] - reach
            reach |= nxt
            frontier = nxt
        return reach

    diagnostics = []
    for first, second in spec.independence_decls:
        reach_a = closure(first)
        reach_b = closure(second)
        label = f"{{{', '.join(sorted(first))}}} vs {{{', '.join(sorted(second))}}}"
        cross_ab = reach_a & second
        cross_ba = reach_b & first
        if cross_ab or cross_ba:
            diagnostics.append(
                f"{label}: updates reference across groups via {sorted(cross_ab | cross_ba)}"
            )
        support_a = set().union(*(dists[v] for v in reach_a)) if reach_a else set()
        support_b = set().union(*(dists[v] for v in reach_b)) if reach_b else set()
        shared = support_a & support_b
        if shared:
            diagnostics.append(f"{label}: groups share disturbance symbols {sorted(shared)}")
    return diagnostics

