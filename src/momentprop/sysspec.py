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

import re
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

import numpy as np

from . import distmoments
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
class BinOp:
    op: str  # "+", "-", "*"
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Power:
    base: "Expr"
    exponent: int


Expr = Const | Sym | Trig | BinOp | Power


def expr_symbols(expr: Expr) -> set[str]:
    """All variable names referenced, whether bare or inside sin/cos."""
    if isinstance(expr, Const):
        return set()
    if isinstance(expr, Sym):
        return {expr.name}
    if isinstance(expr, Trig):
        return {expr.arg}
    if isinstance(expr, BinOp):
        return expr_symbols(expr.left) | expr_symbols(expr.right)
    if isinstance(expr, Power):
        return expr_symbols(expr.base)
    raise TypeError(f"unknown expression node {expr!r}")


def trig_usages(expr: Expr) -> set[str]:
    """Names that appear inside a sin() or cos()."""
    if isinstance(expr, Trig):
        return {expr.arg}
    if isinstance(expr, BinOp):
        return trig_usages(expr.left) | trig_usages(expr.right)
    if isinstance(expr, Power):
        return trig_usages(expr.base)
    return set()


def bare_usages(expr: Expr) -> set[str]:
    """Names that appear outside any sin()/cos()."""
    if isinstance(expr, Sym):
        return {expr.name}
    if isinstance(expr, BinOp):
        return bare_usages(expr.left) | bare_usages(expr.right)
    if isinstance(expr, Power):
        return bare_usages(expr.base)
    return set()


def evaluate(expr: Expr, env: Mapping[str, float | np.ndarray]):
    """Numeric evaluation; sin/cos evaluated with numpy, so values may be arrays."""
    if isinstance(expr, Const):
        return float(expr.value)
    if isinstance(expr, Sym):
        return env[expr.name]
    if isinstance(expr, Trig):
        return np.sin(env[expr.arg]) if expr.fn == "sin" else np.cos(env[expr.arg])
    if isinstance(expr, BinOp):
        a = evaluate(expr.left, env)
        b = evaluate(expr.right, env)
        return a + b if expr.op == "+" else a - b if expr.op == "-" else a * b
    if isinstance(expr, Power):
        return evaluate(expr.base, env) ** expr.exponent
    raise TypeError(f"unknown expression node {expr!r}")


def differentiate(expr: Expr, name: str) -> Expr:
    """Symbolic partial derivative with respect to `name`."""
    zero = Const(Fraction(0))
    if isinstance(expr, Const):
        return zero
    if isinstance(expr, Sym):
        return Const(Fraction(1)) if expr.name == name else zero
    if isinstance(expr, Trig):
        if expr.arg != name:
            return zero
        if expr.fn == "sin":
            return Trig("cos", expr.arg)
        return BinOp("-", zero, Trig("sin", expr.arg))
    if isinstance(expr, BinOp):
        da = differentiate(expr.left, name)
        db = differentiate(expr.right, name)
        if expr.op in "+-":
            return BinOp(expr.op, da, db)
        return BinOp("+", BinOp("*", da, expr.right), BinOp("*", expr.left, db))
    if isinstance(expr, Power):
        if expr.exponent == 0:
            return zero
        inner = differentiate(expr.base, name)
        scaled = BinOp("*", Const(Fraction(expr.exponent)), inner)
        if expr.exponent == 1:
            return scaled
        return BinOp("*", scaled, Power(expr.base, expr.exponent - 1))
    raise TypeError(f"unknown expression node {expr!r}")


def to_polynomial(expr: Expr, generators: Mapping[str, Polynomial], one: Polynomial) -> Polynomial:
    """Exact conversion to a Polynomial; fails on remaining sin/cos nodes."""
    if isinstance(expr, Const):
        return one * expr.value
    if isinstance(expr, Sym):
        return generators[expr.name]
    if isinstance(expr, Trig):
        raise ValueError(f"unencoded {expr.fn}({expr.arg}) cannot become a polynomial")
    if isinstance(expr, BinOp):
        a = to_polynomial(expr.left, generators, one)
        b = to_polynomial(expr.right, generators, one)
        return a + b if expr.op == "+" else a - b if expr.op == "-" else a * b
    if isinstance(expr, Power):
        return to_polynomial(expr.base, generators, one) ** expr.exponent
    raise TypeError(f"unknown expression node {expr!r}")


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


def _tokenize_line(text: str, line_no: int) -> list[_Token]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m or m.end() == pos:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            col = pos + (len(text[pos:]) - len(stripped)) + 1
            raise SpecError(f"unexpected character {stripped[0]!r}", line_no, col)
        kind = m.lastgroup
        tokens.append(_Token(kind, m.group(kind), line_no, m.start(kind) + 1))
        pos = m.end()
    tokens.append(_Token("end", "", line_no, len(text) + 1))
    return tokens


# The parser recurses four frames per parenthesis level, so deeper nesting
# would overrun Python's default recursion limit of 1000.
_MAX_PAREN_DEPTH = 200


class _ExprParser:
    """Recursive-descent parser for the update-expression grammar."""

    def __init__(self, tokens: list[_Token], start: int = 0):
        self.tokens = tokens
        self.i = start
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

    def parse_expr(self) -> Expr:
        # Leading sign accepted as a convenience superset of the grammar.
        tok = self.peek()
        if tok.kind == "punct" and tok.text in "+-":
            self.next()
            first = self.parse_term()
            expr: Expr = first if tok.text == "+" else BinOp("-", Const(Fraction(0)), first)
        else:
            expr = self.parse_term()
        while self.peek().kind == "punct" and self.peek().text in "+-":
            op = self.next().text
            expr = BinOp(op, expr, self.parse_term())
        return expr

    def parse_term(self) -> Expr:
        expr = self.parse_factor()
        while self.peek().kind == "punct" and self.peek().text == "*":
            self.next()
            expr = BinOp("*", expr, self.parse_factor())
        return expr

    def parse_factor(self) -> Expr:
        base = self.parse_base()
        if self.peek().kind == "punct" and self.peek().text == "^":
            self.next()
            tok = self.next()
            if tok.kind != "num" or not tok.text.isdigit():
                raise SpecError("exponent must be an unsigned integer", tok.line, tok.col)
            return Power(base, int(tok.text))
        return base

    def parse_base(self) -> Expr:
        tok = self.next()
        if tok.kind == "num":
            return Const(Fraction(tok.text))
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
        raise SpecError(f"unexpected token {tok.text!r}", tok.line, tok.col)


# -- parsed spec --------------------------------------------------------------


@dataclass
class SystemSpec:
    """Parsed and structurally validated system description."""

    state_vars: tuple[str, ...]
    angle_vars: tuple[str, ...]
    disturbance_vars: tuple[str, ...]
    updates: dict[str, Expr]
    independence_decls: tuple[tuple[frozenset[str], frozenset[str]], ...] = ()
    target_moments: tuple[MultiIndex, ...] = ()
    distributions: dict[str, distmoments.Distribution] = field(default_factory=dict)


def _parse_dist_value(tokens: list[_Token], start: int) -> distmoments.Distribution:
    parser = _ExprParser(tokens, start)
    kind = parser.next()
    if kind.kind != "ident":
        raise SpecError("expected a distribution name", kind.line, kind.col)
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
        args.append(sign * float(Fraction(tok.text)))
        tok = parser.next()
        if tok.kind == "punct" and tok.text == ")":
            break
        if not (tok.kind == "punct" and tok.text == ","):
            raise SpecError("expected ',' or ')'", tok.line, tok.col)
    makers = {
        "degenerate": (1, lambda a: distmoments.Degenerate(a[0])),
        "gaussian": (2, lambda a: distmoments.Gaussian(a[0], a[1])),
        "uniform": (2, lambda a: distmoments.Uniform(a[0], a[1])),
        "beta": (2, lambda a: distmoments.Beta(a[0], a[1])),
    }
    if kind.text not in makers:
        raise SpecError(f"unknown distribution kind {kind.text!r}", kind.line, kind.col)
    arity, make = makers[kind.text]
    if len(args) != arity:
        raise SpecError(f"{kind.text} takes {arity} parameter(s)", kind.line, kind.col)
    try:
        return make(args)
    except ValueError as exc:
        raise SpecError(str(exc), kind.line, kind.col) from None


def parse_monomial(chunk: str, state_vars: Sequence[str], line_no: int | None = None) -> MultiIndex:
    """Multi-index over `state_vars` of a monomial such as ``x^2*y``."""
    tokens = _tokenize_line(chunk, line_no)
    parser = _ExprParser(tokens)
    exps = [0] * len(state_vars)
    while True:
        tok = parser.next()
        if tok.kind != "ident":
            raise SpecError(f"moment monomials are products of state variables, got {tok.text!r}", tok.line, tok.col)
        if tok.text not in state_vars:
            raise SpecError(f"undeclared state variable {tok.text!r} in moments", tok.line, tok.col)
        power = 1
        if parser.peek().text == "^":
            parser.next()
            p = parser.next()
            if p.kind != "num" or not p.text.isdigit():
                raise SpecError("exponent must be an unsigned integer", p.line, p.col)
            power = int(p.text)
        exps[state_vars.index(tok.text)] += power
        nxt = parser.next()
        if nxt.kind == "end":
            break
        if not (nxt.kind == "punct" and nxt.text == "*"):
            raise SpecError(f"unexpected {nxt.text!r} in moment monomial", nxt.line, nxt.col)
    return MultiIndex(exps)


def _parse_name_set(parser: _ExprParser) -> frozenset[str]:
    parser.expect_punct("{")
    names = set()
    while True:
        tok = parser.next()
        if tok.kind == "punct" and tok.text == "}":
            break
        if tok.kind != "ident":
            raise SpecError("expected a variable name", tok.line, tok.col)
        names.add(tok.text)
    if not names:
        raise SpecError("empty variable set in independence declaration", parser.peek().line, None)
    return frozenset(names)


def parse_spec(text: str) -> SystemSpec:
    """Parse a system spec document; raises SpecError with line/column on failure."""
    state_vars: list[str] = []
    angle_vars: list[str] = []
    disturbance_vars: list[str] = []
    updates: dict[str, Expr] = {}
    update_lines: dict[str, int] = {}
    independence: list[tuple[frozenset[str], frozenset[str]]] = []
    moment_chunks: list[tuple[str, int]] = []
    distributions: dict[str, distmoments.Distribution] = {}

    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].rstrip()
        if not line.strip():
            continue
        tokens = _tokenize_line(line, line_no)
        head = tokens[0]
        if head.kind != "ident":
            raise SpecError(f"expected a declaration keyword, got {head.text!r}", line_no, head.col)

        if head.text in ("state", "angle", "disturbance"):
            names = [t for t in tokens[1:] if t.kind != "end"]
            if not names:
                raise SpecError(f"'{head.text}' needs at least one name", line_no, head.col)
            for tok in names:
                if tok.kind != "ident":
                    raise SpecError(f"expected a variable name, got {tok.text!r}", line_no, tok.col)
                target = {"state": state_vars, "angle": angle_vars, "disturbance": disturbance_vars}[head.text]
                if tok.text in target:
                    raise SpecError(f"duplicate declaration of {tok.text!r}", line_no, tok.col)
                target.append(tok.text)
        elif head.text == "dyn":
            name_tok = tokens[1] if len(tokens) > 1 else head
            if name_tok.kind != "ident":
                raise SpecError("expected a variable name after 'dyn'", line_no, name_tok.col)
            parser = _ExprParser(tokens, 2)
            parser.expect_punct("'")
            parser.expect_punct("=")
            expr = parser.parse_expr()
            tail = parser.peek()
            if tail.kind != "end":
                raise SpecError(f"unexpected trailing {tail.text!r}", line_no, tail.col)
            if name_tok.text in updates:
                raise SpecError(f"duplicate update for {name_tok.text!r}", line_no, name_tok.col)
            updates[name_tok.text] = expr
            update_lines[name_tok.text] = line_no
        elif head.text == "independent":
            parser = _ExprParser(tokens, 1)
            first = _parse_name_set(parser)
            second = _parse_name_set(parser)
            independence.append((first, second))
        elif head.text == "moments":
            body = line.split(None, 1)
            if len(body) < 2:
                raise SpecError("'moments' needs at least one monomial", line_no, head.col)
            for chunk in body[1].split():
                moment_chunks.append((chunk, line_no))
        elif head.text == "dist":
            name_tok = tokens[1] if len(tokens) > 1 else head
            if name_tok.kind != "ident":
                raise SpecError("expected a disturbance name after 'dist'", line_no, name_tok.col)
            parser = _ExprParser(tokens, 2)
            parser.expect_punct("=")
            distributions[name_tok.text] = _parse_dist_value(tokens, parser.i)
        else:
            raise SpecError(f"unknown declaration {head.text!r}", line_no, head.col)

    state = tuple(state_vars)
    angles = tuple(angle_vars)
    dists = tuple(disturbance_vars)
    declared = set(state) | set(dists)
    if set(state) & set(dists):
        raise SpecError(f"names declared both state and disturbance: {sorted(set(state) & set(dists))}")
    for a in angles:
        if a not in state:
            raise SpecError(f"angle {a!r} is not a declared state variable")

    for name in state:
        if name not in updates:
            raise SpecError(f"state variable {name!r} has no 'dyn' update")
    for name in updates:
        if name not in state:
            raise SpecError(f"'dyn' update for undeclared state variable {name!r}", update_lines[name])
    for name, expr in updates.items():
        for sym in expr_symbols(expr):
            if sym not in declared:
                raise SpecError(f"undeclared symbol {sym!r} in update of {name!r}", update_lines[name])

    for name, dist in distributions.items():
        if name not in dists:
            raise SpecError(f"'dist' declaration for undeclared disturbance {name!r}")

    for first, second in independence:
        for group in (first, second):
            for sym in group:
                if sym not in state:
                    raise SpecError(f"independence declaration names non-state variable {sym!r}")
        if first & second:
            raise SpecError(f"independence declaration groups overlap: {sorted(first & second)}")

    spec = SystemSpec(
        state_vars=state,
        angle_vars=angles,
        disturbance_vars=dists,
        updates=updates,
        independence_decls=tuple(independence),
        target_moments=tuple(parse_monomial(chunk, state, ln) for chunk, ln in moment_chunks),
        distributions=distributions,
    )
    _check_angle_updates(spec, update_lines)
    _check_disturbance_usage(spec, update_lines)
    return spec


def _flatten_sum(expr: Expr) -> list[tuple[int, Expr]]:
    """Flatten nested +/- into (sign, term) pairs."""
    if isinstance(expr, BinOp) and expr.op in "+-":
        left = _flatten_sum(expr.left)
        right = _flatten_sum(expr.right)
        if expr.op == "-":
            right = [(-s, t) for s, t in right]
        return left + right
    return [(1, expr)]


def angle_increment(spec: SystemSpec, angle: str) -> tuple[str | None, Fraction]:
    """Decompose an angle update theta' = theta + delta.

    Returns (disturbance variable or None, constant offset).  Raises
    SpecError when the update is not of that shape.
    """
    terms = _flatten_sum(spec.updates[angle])
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
        elif isinstance(term, Sym) and term.name in spec.disturbance_vars:
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


def _check_angle_updates(spec: SystemSpec, update_lines: dict[str, int]) -> None:
    for angle in spec.angle_vars:
        try:
            angle_increment(spec, angle)
        except SpecError as exc:
            raise SpecError(str(exc), update_lines.get(angle)) from None
        for name, expr in spec.updates.items():
            if name != angle and angle in bare_usages(expr):
                raise SpecError(
                    f"angle {angle!r} may appear only inside sin()/cos() outside its own update",
                    update_lines.get(name),
                )
    for name, expr in spec.updates.items():
        for arg in trig_usages(expr):
            if arg in spec.state_vars and arg not in spec.angle_vars:
                raise SpecError(
                    f"sin/cos applied to non-angle state variable {arg!r}", update_lines.get(name)
                )


def _disturbance_usage(spec: SystemSpec) -> tuple[dict[str, set], set[str]]:
    """Map disturbance -> set of trig usage keys (base shifts), plus polynomially-used set."""
    trig_shifts: dict[str, set] = {}
    poly_used: set[str] = set()
    for angle in spec.angle_vars:
        source, offset = angle_increment(spec, angle)
        if source is not None:
            trig_shifts.setdefault(source, set()).add(offset)
    for name, expr in spec.updates.items():
        if name in spec.angle_vars:
            continue
        for sym in bare_usages(expr):
            if sym in spec.disturbance_vars:
                poly_used.add(sym)
        for arg in trig_usages(expr):
            if arg in spec.disturbance_vars:
                trig_shifts.setdefault(arg, set()).add(Fraction(0))
    return trig_shifts, poly_used


def _check_disturbance_usage(spec: SystemSpec, update_lines: dict[str, int]) -> None:
    trig_shifts, poly_used = _disturbance_usage(spec)
    for name, shifts in trig_shifts.items():
        if name in poly_used:
            raise SpecError(
                f"disturbance {name!r} is used both polynomially and trigonometrically"
            )
        if len(shifts) > 1:
            raise SpecError(
                f"disturbance {name!r} is used trigonometrically with different constant offsets; "
                "the encoded pairs would wrongly be treated as independent"
            )


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

    def with_edges(self, pairs: Iterable[tuple[str, str]]) -> "DependenceGraph":
        added = {frozenset(p) for p in pairs}
        return DependenceGraph(self.vertices, self.edges | added)

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

    @property
    def joint_vars(self) -> tuple[str, ...]:
        return self.vars + self.dist_vars

    def var_index(self, name: str) -> int:
        return self.vars.index(name)


def _fresh_name(base: str, taken: set[str]) -> str:
    name = base
    k = 2
    while name in taken:
        name = f"{base}{k}"
        k += 1
    taken.add(name)
    return name


def _substitute_trig(expr: Expr, mapping: Mapping[tuple[str, str], Expr]) -> Expr:
    if isinstance(expr, Trig):
        return mapping[(expr.fn, expr.arg)]
    if isinstance(expr, BinOp):
        return BinOp(expr.op, _substitute_trig(expr.left, mapping), _substitute_trig(expr.right, mapping))
    if isinstance(expr, Power):
        return Power(_substitute_trig(expr.base, mapping), expr.exponent)
    return expr


def trig_encode(spec: SystemSpec) -> PolynomialSystem:
    """Replace angle states and angular disturbances with (cos, sin) pairs.

    Each angle theta with update theta + delta becomes the state pair
    (c, s) with updates c' = c*cw - s*sw and s' = s*cw + c*sw, where
    (cw, sw) is the encoded pair of delta.  sin/cos of disturbances are
    likewise replaced.  Sample paths are preserved exactly.
    """
    taken = set(spec.state_vars) | set(spec.disturbance_vars)

    state_pairs: dict[str, TrigPair] = {}
    for angle in spec.angle_vars:
        c = _fresh_name(f"c_{angle}", taken)
        s = _fresh_name(f"s_{angle}", taken)
        state_pairs[angle] = TrigPair(c, s, angle)

    # Encoded state order: angles replaced in place by their (cos, sin) pair.
    new_vars: list[str] = []
    for name in spec.state_vars:
        if name in state_pairs:
            new_vars.extend((state_pairs[name].cos_var, state_pairs[name].sin_var))
        else:
            new_vars.append(name)

    trig_shifts, _ = _disturbance_usage(spec)
    dist_pairs: dict[tuple[str | None, Fraction], TrigPair] = {}

    def pair_for(source: str | None, shift: Fraction) -> TrigPair:
        key = (source, shift)
        if key not in dist_pairs:
            base = source if source is not None else "u"
            c = _fresh_name(f"c_{base}", taken)
            s = _fresh_name(f"s_{base}", taken)
            dist_pairs[key] = TrigPair(c, s, source, shift)
        return dist_pairs[key]

    for angle in spec.angle_vars:
        source, offset = angle_increment(spec, angle)
        pair_for(source, offset)
    for source in trig_shifts:
        if source not in {p.source for p in dist_pairs.values()}:
            pair_for(source, Fraction(0))

    new_dist_vars: list[str] = [
        w for w in spec.disturbance_vars if w not in trig_shifts and _used(spec, w)
    ]
    for pair in dist_pairs.values():
        new_dist_vars.extend((pair.cos_var, pair.sin_var))

    joint = tuple(new_vars) + tuple(new_dist_vars)
    gens = {name: Polynomial.variable(joint, name) for name in joint}
    one = Polynomial.constant(joint, 1)

    trig_map: dict[tuple[str, str], Expr] = {}
    for angle, pair in state_pairs.items():
        trig_map[("cos", angle)] = Sym(pair.cos_var)
        trig_map[("sin", angle)] = Sym(pair.sin_var)
    for (source, shift), pair in dist_pairs.items():
        if source is not None and shift == 0:
            trig_map[("cos", source)] = Sym(pair.cos_var)
            trig_map[("sin", source)] = Sym(pair.sin_var)

    f: list[Polynomial] = []
    for name in spec.state_vars:
        if name in state_pairs:
            pair = state_pairs[name]
            source, offset = angle_increment(spec, name)
            wpair = dist_pairs[(source, offset)]
            c, s = gens[pair.cos_var], gens[pair.sin_var]
            cw, sw = gens[wpair.cos_var], gens[wpair.sin_var]
            f.append(c * cw - s * sw)
            f.append(s * cw + c * sw)
        else:
            encoded = _substitute_trig(spec.updates[name], trig_map)
            f.append(to_polynomial(encoded, gens, one))

    targets = []
    var_index = {name: i for i, name in enumerate(new_vars)}
    for alpha in spec.target_moments:
        exps = [0] * len(new_vars)
        for name, e in zip(spec.state_vars, alpha):
            if not e:
                continue
            if name in state_pairs:
                raise SpecError(
                    f"moments of angle {name!r} are not expressible after encoding; "
                    "its cosine/sine moments appear in completions automatically"
                )
            exps[var_index[name]] = e
        targets.append(MultiIndex(exps))

    graph = _build_graph(spec, tuple(new_vars), state_pairs)
    return PolynomialSystem(
        vars=tuple(new_vars),
        dist_vars=tuple(new_dist_vars),
        f=tuple(f),
        graph=graph,
        state_pairs=tuple(state_pairs[a] for a in spec.angle_vars),
        dist_pairs=tuple(dist_pairs.values()),
        target_moments=tuple(targets),
    )


def _used(spec: SystemSpec, disturbance: str) -> bool:
    return any(disturbance in expr_symbols(expr) for expr in spec.updates.values())


def _build_graph(
    spec: SystemSpec, encoded_vars: tuple[str, ...], state_pairs: Mapping[str, TrigPair]
) -> DependenceGraph:
    """Complete graph minus declared independences; (c, s) pairs always stay joined."""

    def encode_names(name: str) -> tuple[str, ...]:
        if name in state_pairs:
            return (state_pairs[name].cos_var, state_pairs[name].sin_var)
        return (name,)

    graph = DependenceGraph.complete(encoded_vars)
    removed = []
    for first, second in spec.independence_decls:
        for a in first:
            for b in second:
                for ea in encode_names(a):
                    for eb in encode_names(b):
                        removed.append((ea, eb))
    graph = graph.without_edges(removed)
    graph = graph.with_edges(
        (pair.cos_var, pair.sin_var) for pair in state_pairs.values()
    )
    return graph


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
        syms = expr_symbols(spec.updates[name])
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

