import ast
import hashlib
import math
import re
from dataclasses import fields
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from momentprop import cli, distmoments, oracle, presets
from momentprop.polyring import MultiIndex, Polynomial
from momentprop.sysspec import (
    MAX_DEGREE,
    DependenceGraph,
    PolynomialSystem,
    SpecError,
    components_of_support,
    evaluate,
    parse_monomial,
    parse_spec,
    trig_encode,
    validate_independence,
)
from reference import evaluate_polynomial

DUBINS = """
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
"""


class TestParse:
    def test_dubins_spec(self):
        spec = parse_spec(DUBINS)
        assert spec.state_vars == ("x", "y", "v", "theta")
        assert spec.angle_vars == ("theta",)
        assert spec.disturbance_vars == ("wv", "wt")
        assert len(spec.target_moments) == 5
        assert spec.target_moments[3] == MultiIndex((2, 0, 0, 0))
        assert spec.distributions["wv"] == distmoments.Beta(10, 1000)
        assert spec.distributions["wt"] == distmoments.Gaussian(0.04, 0.03)

    def test_one_line_system(self):
        spec = parse_spec("state x\ndisturbance w\ndyn x' = x + w\n")
        assert spec.state_vars == ("x",)
        assert spec.disturbance_vars == ("w",)

    def test_angle_update_must_be_additive(self):
        text = "state theta\nangle theta\ndisturbance w\ndyn theta' = theta * w\n"
        with pytest.raises(SpecError, match="theta"):
            parse_spec(text)

    def test_undeclared_symbol_reports_line(self):
        with pytest.raises(SpecError, match="line 3"):
            parse_spec("state x\ndisturbance w\ndyn x' = x + q\n")

    def test_repeated_dist_line_rejected(self):
        """A second 'dist' line for one disturbance is an error at its name, as a second 'dyn' line is."""
        text = DUBINS + "dist wt = uniform(0, 1)\n"
        with pytest.raises(SpecError, match="duplicate distribution for 'wt'") as err:
            parse_spec(text)
        assert (err.value.line, err.value.col) == (len(DUBINS.splitlines()) + 1, 6)

    def test_syntax_error_position(self):
        with pytest.raises(SpecError) as err:
            parse_spec("state x\ndisturbance w\ndyn x' = x + * w\n")
        assert err.value.line == 3
        assert err.value.col is not None

    def test_disturbance_used_both_ways_rejected(self):
        text = (
            "state x theta\nangle theta\ndisturbance w\n"
            "dyn x' = x + w\ndyn theta' = theta + w\n"
        )
        with pytest.raises(SpecError, match="polynomially and trigonometrically"):
            parse_spec(text)

    def test_deep_nesting_reports_line(self):
        deep = "(" * 3000 + "x" + ")" * 3000
        with pytest.raises(SpecError, match="nested") as err:
            parse_spec(f"state x\ndisturbance w\ndyn x' = {deep} + w\n")
        assert err.value.line == 3
        spec = parse_spec(f"state x\ndisturbance w\ndyn x' = {'(' * 200}x{')' * 200} + w\n")
        assert spec.updates["x"] == parse_spec("state x\ndisturbance w\ndyn x' = x + w\n").updates["x"]

    def test_literal_beyond_double_range_rejected(self):
        with pytest.raises(SpecError, match="too large for a double") as err:
            parse_spec("state x\ndisturbance w\ndyn x' = 1e400*x + w\n")
        assert (err.value.line, err.value.col) == (3, 10)
        with pytest.raises(SpecError, match="too large for a double"):
            parse_spec(DUBINS.replace("gaussian(0.04, 0.03)", "gaussian(0.04, 1e309)"))
        tiny = parse_spec("state x\ndisturbance w\ndyn x' = 1e-400*x + w\n")
        assert evaluate(tiny.updates["x"], {"x": 2.0, "w": 1.0}) == 1.0

    @pytest.mark.parametrize(
        "update, col, message",
        [
            ("(x+w)^2000", 16, "exponent exceeds the degree limit 32"),
            ("x^33 + w", 12, "exponent exceeds the degree limit 32"),
            ("x^" + "9" * 5000 + " + w", 12, "exponent exceeds"),
            ("1e-5000*x + w", 10, "exceeds 400 digits or a decimal exponent of 400"),
            ("1e-30000000*x + w", 10, "exceeds 400 digits or a decimal exponent of 400"),
            ("1e" + "9" * 5000 + "*x + w", 10, "exceeds 400 digits or a decimal exponent of 400"),
            ("0." + "0" * 400 + "1*x + w", 10, "exceeds 400 digits"),
            ("((x+w)^16)^16", 20, "power exceeds the degree limit 32"),
            ("((x+w)^32)^32", 20, "power exceeds the degree limit 32"),
            ("(x*(x+w)^4)^8", 21, "power exceeds the degree limit 32"),
            ("x + ((w^8)^2 + 1)^3", 27, "power exceeds the degree limit 32"),
        ],
        ids=["power-2000", "power-33", "power-5000-digits", "1e-5000", "1e-30000000", "exponent-5000-digits",
             "402-digits", "power-16-of-16", "power-32-of-32", "power-8-of-degree-5", "power-3-of-degree-16"],
    )
    def test_oversized_token_rejected(self, update, col, message):
        with pytest.raises(SpecError, match=message) as err:
            parse_spec(f"state x\ndisturbance w\ndyn x' = {update}\n")
        assert (err.value.line, err.value.col) == (3, col)

    def test_sizes_at_the_limits_accepted(self):
        spec = parse_spec(
            "state x\ndisturbance w\n"
            f"dyn x' = x^32 + x^0032*{'1' * 400}e-400 + 1e-0000400*x + w\n"
            "moments x^32\n"
        )
        assert spec.target_moments == (MultiIndex((32,)),)
        with pytest.raises(SpecError, match="exponent exceeds the degree limit 32") as err:
            parse_spec("state x\ndisturbance w\ndyn x' = x + w\nmoments x^16*x x^33\n")
        assert err.value.line == 4

    def test_nested_power_at_the_limit_compiles(self):
        from momentprop.compiler import compile_moment_system

        spec = parse_spec(
            "state x y\ndisturbance w\ndyn x' = x + w\ndyn y' = ((x+w)^4)^8\nmoments y\n"
        )
        system = trig_encode(spec)
        assert max(mi.total_degree() for mi in system.f[1].terms) == 32
        msys = compile_moment_system(system, system.target_moments)
        assert MultiIndex((32, 0)) in msys.basis

    @pytest.mark.parametrize("kind, arity", [("degenerate", 1), ("gaussian", 2), ("uniform", 2), ("beta", 2)])
    def test_distribution_kind_parses_to_its_family(self, kind, arity):
        params = (0.25, 0.75)[:arity]
        spec = parse_spec(f"state x\ndisturbance w\ndyn x' = x + w\ndist w = {kind}({', '.join(map(str, params))})\n")
        family = distmoments.KINDS[kind]
        assert len(fields(family)) == arity
        assert type(spec.distributions["w"]) is family and spec.distributions["w"] == family(*params)

    @pytest.mark.parametrize(
        "value, message",
        [
            ("gaussian(1)", "gaussian takes 2 parameter(s)"),
            ("beta(1, 2, 3)", "beta takes 2 parameter(s)"),
            ("cauchy(0, 1)", "unknown distribution kind 'cauchy'"),
            ("uniform(1, 0)", "uniform requires lower < upper"),
        ],
    )
    def test_bad_distribution_rejected_at_its_kind(self, value, message):
        with pytest.raises(SpecError) as err:
            parse_spec(f"state x\ndisturbance w\ndyn x' = x + w\ndist w = {value}\n")
        assert str(err.value) == f"line 4, column 10: {message}"

    def test_missing_update(self):
        with pytest.raises(SpecError, match="no 'dyn' update"):
            parse_spec("state x y\ndisturbance w\ndyn x' = x + w\n")

    def test_decimal_literals_exact(self):
        spec = parse_spec("state x\ndisturbance w\ndyn x' = 0.1*x + w\n")
        joint = ("x", "w")
        gens = {"x": Polynomial.variable(joint, "x"), "w": Polynomial.variable(joint, "w")}
        system = trig_encode(spec)
        assert system.f[0].terms[MultiIndex((1, 0))] == Fraction(1, 10)

    @pytest.mark.parametrize("update, col", [("x + -0.5*x + w", 14), ("x*-2 + w", 12), ("x - -w", 14)])
    def test_sign_after_an_operator_names_the_rule(self, update, col):
        """A sign may start only an expression or a parenthesised group; the error says so at the sign."""
        with pytest.raises(SpecError, match=r"a sign may start only an expression or a parenthesised group") as err:
            parse_spec(f"state x\ndisturbance w\ndyn x' = {update}\n")
        assert "(-0.5)*x" in str(err.value)
        assert (err.value.line, err.value.col) == (3, col)

    def test_leading_minus_accepted(self):
        spec = parse_spec("state x\ndisturbance w\ndyn x' = -x + w\n")
        system = trig_encode(spec)
        assert system.f[0].terms[MultiIndex((1, 0))] == -1


def _edited(*edits):
    """DUBINS with each (old, new) edit made; each old text occurs once."""
    text = DUBINS
    for old, new in edits:
        assert text.count(old) == 1, old
        text = text.replace(old, new)
    return text


# Each malformed edit of DUBINS, with the error's message and the line it names.
SPEC_ERRORS = {
    "duplicate-dyn": ([("dyn v'     = v + wv", "dyn v'     = v + wv\ndyn x' = x")], "duplicate update for 'x'", 8),
    "empty-moments": ([("moments x y x*y x^2 y^2", "moments")], "'moments' needs at least one monomial", 10),
    "state-and-disturbance": ([("disturbance wv wt", "disturbance wv wt x")],
                              "names declared both state and disturbance: ['x']", 4),
    "undeclared-dist": ([("dist wv =", "dist wq = gaussian(0, 1)\ndist wv =")],
                        "'dist' declaration for undeclared disturbance 'wq'", 11),
    "independent-not-a-name": ([("{v} {theta}", "{v} {1}")], "expected a variable name", 9),
    "independent-empty-set": ([("{v} {theta}", "{v} {}")], "empty variable set in independence declaration", 9),
    "independent-non-state": ([("{v} {theta}", "{v} {wt}")],
                              "independence declaration names non-state variable 'wt'", 9),
    "independent-overlap": ([("{v} {theta}", "{v} {v theta}")], "independence declaration groups overlap: ['v']", 9),
    "sin-of-a-constant": ([("sin(theta)", "sin(2)")], "sin() takes a single variable", 6),
    "missing-comma": ([("gaussian(0.04, 0.03)", "gaussian(0.04 0.03)")], "expected ',' or ')'", 12),
    "subtracted-disturbance": ([("theta + wt", "theta - wt")],
                               "angle 'theta' increment must add its disturbance, not subtract it", 8),
    "two-disturbances": ([("theta + wt", "theta + wt + wv")],
                         "angle 'theta' increment may reference at most one disturbance", 8),
    "state-in-increment": ([("theta + wt", "theta + v")],
                           "angle 'theta' increment may only contain one disturbance variable and constants", 8),
    "bare-angle": ([("v + wv", "v + wv + theta")],
                   "angle 'theta' may appear only inside sin()/cos() outside its own update", 7),
    "two-trig-offsets": ([("theta + wt", "theta + wt + 1"), ("v + wv", "v + wv*cos(wt)")],
                         "disturbance 'wt' is used trigonometrically with different constant offsets", 7),
    "angle-moment": ([("moments x y x*y x^2 y^2", "moments theta")],
                     "moments of angle 'theta' are not expressible after encoding", 10),
    "angle-not-a-state": ([("angle theta", "angle theta z")], "angle 'z' is not a declared state variable", 3),
    "state-without-dyn": ([("state x y v theta", "state x y v theta q")], "state variable 'q' has no 'dyn' update", 2),
    "polynomial-and-trig-disturbance": ([("v + wv", "v + wv + wt")],
                                        "disturbance 'wt' is used both polynomially and trigonometrically", 7),
    # A line is read to its end: the first token left over is the error, at its column.
    "third-independent-group": ([("{v} {theta}", "{v} {theta} {x}")], "column 25: unexpected trailing '{'", 9),
    "text-after-dist": ([("beta(10, 1000)", "beta(10, 1000) * 3")], "column 26: unexpected trailing '*'", 11),
    "star-glued-to-moments": ([("moments x y", "moments*x y")],
                              "column 8: moment monomials are products of state variables, got '*'", 10),
    "comma-glued-to-moments": ([("moments x y", "moments,q y")],
                               "column 8: moment monomials are products of state variables, got ','", 10),
}


@pytest.mark.parametrize("edits, message, line", SPEC_ERRORS.values(), ids=SPEC_ERRORS)
def test_spec_error_names_its_line_and_compile_exits_2(tmp_path, capsys, edits, message, line):
    """Each error raises SpecError at its line, and `momentprop compile` prints it as one line and exits 2."""
    text = _edited(*edits)
    with pytest.raises(SpecError, match=re.escape(message)) as err:
        trig_encode(parse_spec(text))
    assert err.value.line == line
    assert str(err.value).startswith(f"line {line}")
    (tmp_path / "bad.spec").write_text(text)
    assert cli.main(["compile", str(tmp_path / "bad.spec"), "-o", str(tmp_path / "bad.msys")]) == cli.EXIT_INPUT
    assert capsys.readouterr().err.splitlines() == [f"error: {err.value}"]
    assert not (tmp_path / "bad.msys").exists()


# Each malformed monomial on the moments line, split at its error's column, and the message.
MOMENT_ERRORS = {
    "undeclared": ("x*", "q", "undeclared state variable 'q' in moments"),
    "big-exponent": ("y^", "99", "exponent exceeds the degree limit 32"),
    "no-exponent": ("y^", "", "exponent must be an unsigned integer"),
    "comma": ("x", ",y", "unexpected ',' in moment monomial"),
}


@pytest.mark.parametrize("before, at, message", MOMENT_ERRORS.values(), ids=MOMENT_ERRORS)
def test_moments_error_names_the_column_of_its_token(before, at, message):
    """The moments line is read from its own tokens, so a column counts from the line's start."""
    text = presets.DUBINS_SPEC.replace("moments x y x*y x^2 y^2", f"moments x y {before}{at} x^2 y^2")
    with pytest.raises(SpecError) as err:
        parse_spec(text)
    prefix = f"moments x y {before}"
    assert str(err.value) == f"line 13, column {len(prefix) + 1}: {message}"
    assert text.splitlines()[12] == f"{prefix}{at} x^2 y^2"


@pytest.mark.parametrize("moments", ["x *y", "x* y", "y^ 2", "x ,y"])
def test_a_space_ends_a_monomial(dubins_reduced, moments):
    """A space inside a monomial is an error, as each space-separated word is one monomial, in every lookup by name."""
    with pytest.raises(SpecError, match="line 10"):
        parse_spec(_edited(("moments x y x*y x^2 y^2", f"moments {moments}")))
    with pytest.raises(SpecError):
        parse_monomial(moments, dubins_reduced.state_vars)
    with pytest.raises(KeyError):
        dubins_reduced.moment_index(moments)
    n = len(dubins_reduced.basis)
    mc = oracle.McEstimate(dubins_reduced.state_vars, tuple(dubins_reduced.basis), np.zeros((1, n)),
                           np.zeros((1, n)), 1, 0, np.zeros((1, 1, n)))
    with pytest.raises(KeyError):
        mc.column(moments)


def test_spec_edge_cases_that_parse():
    """A negative distribution parameter is a number; a state named c_theta pushes theta's cosine to c_theta2."""
    spec = parse_spec(_edited(("gaussian(0.04, 0.03)", "gaussian(-0.04, 0.03)")))
    assert spec.distributions["wt"] == distmoments.Gaussian(-0.04, 0.03)
    system = trig_encode(parse_spec(_edited(("state x y v theta", "state x y v theta c_theta"),
                                            ("dyn v'     = v + wv", "dyn v'     = v + wv\ndyn c_theta' = c_theta"))))
    assert system.vars == ("x", "y", "v", "c_theta2", "s_theta", "c_theta")
    assert [(pair.source, pair.cos_var, pair.sin_var) for pair in system.state_pairs] == [("theta", "c_theta2", "s_theta")]


class TestTrigEncode:
    def test_dubins_polynomialization(self):
        system = trig_encode(parse_spec(DUBINS))
        assert system.vars == ("x", "y", "v", "c_theta", "s_theta")
        assert system.dist_vars == ("wv", "c_wt", "s_wt")
        joint = system.vars + system.dist_vars
        x, y, v, c, s = (Polynomial.variable(joint, n) for n in system.vars)
        wv, cw, sw = (Polynomial.variable(joint, n) for n in system.dist_vars)
        assert system.f[0] == x + v * c
        assert system.f[1] == y + v * s
        assert system.f[2] == v + wv
        assert system.f[3] == c * cw - s * sw
        assert system.f[4] == s * cw + c * sw

    def test_no_angles_is_identity_shape(self):
        spec = parse_spec("state x\ndisturbance w\ndyn x' = x + w\n")
        system = trig_encode(spec)
        assert system.vars == ("x",)
        assert system.dist_vars == ("w",)
        assert not system.state_pairs and not system.dist_pairs

    def test_dubins_preset_graph_edges(self):
        system = trig_encode(parse_spec(DUBINS))
        g = system.graph
        expected = {
            frozenset(p)
            for p in [
                ("x", "y"), ("x", "v"), ("x", "c_theta"), ("x", "s_theta"),
                ("y", "v"), ("y", "c_theta"), ("y", "s_theta"),
                ("c_theta", "s_theta"),
            ]
        }
        assert g.edges == expected

    def test_two_independent_angles(self):
        text = (
            "state a b\nangle a b\ndisturbance u w\n"
            "dyn a' = a + u\ndyn b' = b + w\nindependent {a} {b}\n"
        )
        system = trig_encode(parse_spec(text))
        assert len(system.state_pairs) == 2
        assert len(system.dist_pairs) == 2
        g = system.graph
        assert g.has_edge("c_a", "s_a") and g.has_edge("c_b", "s_b")
        assert not g.has_edge("c_a", "c_b") and not g.has_edge("s_a", "c_b")

    def test_angle_increment_constant_offset(self):
        text = "state theta\nangle theta\ndisturbance w\ndyn theta' = theta + w + 0.25\n"
        system = trig_encode(parse_spec(text))
        (pair,) = system.dist_pairs
        assert pair.source == "w"
        assert pair.shift == Fraction(1, 4)

    def test_sample_paths_preserved(self):
        """Simulating encoded and original systems must agree to roundoff."""
        spec = parse_spec(DUBINS)
        system = trig_encode(spec)
        rng = np.random.default_rng(3)
        state = {"x": 0.1, "y": -0.2, "v": 1.0, "theta": 0.7}
        enc = {
            "x": state["x"], "y": state["y"], "v": state["v"],
            "c_theta": math.cos(state["theta"]), "s_theta": math.sin(state["theta"]),
        }
        for _ in range(50):
            wv, wt = rng.normal(0.01, 0.05), rng.normal(0.0, 0.2)
            point = {**state, "wv": wv, "wt": wt}
            state = {
                "x": state["x"] + state["v"] * math.cos(state["theta"]),
                "y": state["y"] + state["v"] * math.sin(state["theta"]),
                "v": state["v"] + wv,
                "theta": state["theta"] + wt,
            }
            enc_point = {**enc, "wv": wv, "c_wt": math.cos(wt), "s_wt": math.sin(wt)}
            enc = {
                name: float(evaluate_polynomial(poly, {k: Fraction(v) for k, v in enc_point.items()}))
                for name, poly in zip(system.vars, system.f)
            }
            assert abs(enc["x"] - state["x"]) <= 1e-12 * max(1.0, abs(state["x"]))
            assert abs(enc["y"] - state["y"]) <= 1e-12 * max(1.0, abs(state["y"]))
            assert abs(enc["v"] - state["v"]) <= 1e-12
            # consistency of the encoded pair with the true angle
            assert abs(enc["c_theta"] - math.cos(state["theta"])) <= 1e-9
            assert abs(enc["s_theta"] - math.sin(state["theta"])) <= 1e-9

    def test_two_angle_moments_match_mc(self):
        """Encoded two-angle dynamics reproduce MC moments of the original system."""
        text = (
            "state px a b\nangle a b\ndisturbance u w q\n"
            "dyn px' = px + cos(a) + sin(b) + q\n"
            "dyn a' = a + u\n"
            "dyn b' = b + w\n"
            "independent {a} {b}\n"
            "moments px px^2\n"
        )
        spec = parse_spec(text)
        system = trig_encode(spec)
        from momentprop import oracle
        from momentprop.compiler import compile_moment_system
        from momentprop.distmoments import Gaussian, Uniform

        msys = compile_moment_system(system, system.target_moments)
        dists = {"u": Gaussian(0.1, 0.2), "w": Uniform(-0.3, 0.5), "q": Gaussian(0, 0.01)}
        model = distmoments.DisturbanceModel(msys, dists)
        from momentprop.propagator import init_deterministic, propagate

        x0 = {"px": 0.2, "a": 0.4, "b": -0.9}
        traj = propagate(msys, init_deterministic(msys, x0), model, 5)
        mc = oracle.mc_simulate(
            spec, system, model, x0, 5, 200_000, seed=21, moments=tuple(msys.basis)
        )
        report = oracle.compare(traj, mc)
        assert report.max_abs_z_exact <= 5.0
        assert report.flagged == []

    def test_unit_circle_along_deterministic_path(self):
        system = trig_encode(parse_spec(DUBINS))
        env = {
            "x": 0.0, "y": 0.0, "v": 1.0,
            "c_theta": math.cos(0.3), "s_theta": math.sin(0.3),
            "wv": 0.0, "c_wt": math.cos(0.05), "s_wt": math.sin(0.05),
        }
        for _ in range(200):
            frac_env = {k: Fraction(v) for k, v in env.items()}
            new = {n: float(evaluate_polynomial(p, frac_env)) for n, p in zip(system.vars, system.f)}
            env.update(new)
            assert abs(env["c_theta"] ** 2 + env["s_theta"] ** 2 - 1.0) <= 1e-12


class TestDependenceGraph:
    def test_edge_validation(self):
        with pytest.raises(ValueError):
            DependenceGraph(("a", "b"), frozenset({frozenset(("a",))}))
        with pytest.raises(ValueError):
            DependenceGraph(("a",), frozenset({frozenset(("a", "z"))}))

    def test_components_partition_support(self):
        # Chain a-b, c isolated
        g = DependenceGraph(("a", "b", "c"), frozenset({frozenset(("a", "b"))}))
        beta = MultiIndex((1, 2, 3))
        blocks = components_of_support(g, beta)
        assert blocks == [MultiIndex((1, 2, 0)), MultiIndex((0, 0, 3))]
        total = blocks[0]
        for other in blocks[1:]:
            total = total.plus(other)
        assert total == beta

    def test_eight_vertex_example(self):
        # Components {x1..x4}, {x5, x6}, {x7}, {x8}
        verts = tuple(f"x{i}" for i in range(1, 9))
        edges = {("x1", "x2"), ("x2", "x3"), ("x3", "x4"), ("x1", "x4"), ("x5", "x6")}
        g = DependenceGraph(verts, frozenset(frozenset(e) for e in edges))
        beta = MultiIndex((1,) * 8)
        blocks = [tuple(b.support()) for b in components_of_support(g, beta)]
        assert blocks == [(0, 1, 2, 3), (4, 5), (6,), (7,)]

    def test_complete_graph_single_component(self):
        g = DependenceGraph.complete(("a", "b", "c"))
        assert components_of_support(g, MultiIndex((1, 1, 1))) == [MultiIndex((1, 1, 1))]

    def test_edgeless_graph_splits_fully(self):
        g = DependenceGraph(("a", "b", "c"), frozenset())
        assert components_of_support(g, MultiIndex((1, 1, 0))) == [
            MultiIndex((1, 0, 0)),
            MultiIndex((0, 1, 0)),
        ]


class TestPolynomialSystemAmbient:
    """Each update must be written over the joint ambient: state vars, then dist vars."""

    def system(self, ambient):
        x = Polynomial.variable(ambient, "x")
        w = Polynomial.variable(ambient, "w") if "w" in ambient else Polynomial.zero(ambient)
        return PolynomialSystem(
            vars=("x",), dist_vars=("w",), f=(2 * x + w,), graph=DependenceGraph.complete(("x",))
        )

    def test_joint_ambient_accepted(self):
        assert self.system(("x", "w")).f[0].vars == ("x", "w")

    @pytest.mark.parametrize("ambient", [("w", "x"), ("x",), ("x", "w", "u")])
    def test_other_ambient_rejected_naming_the_update(self, ambient):
        with pytest.raises(ValueError, match=r"the update of x is over .*not the joint ambient \('x', 'w'\)"):
            self.system(ambient)


class TestValidateIndependence:
    def test_dubins_is_clean(self):
        assert validate_independence(parse_spec(DUBINS)) == []

    def test_shared_disturbance_flagged(self):
        text = (
            "state x y\ndisturbance w\n"
            "dyn x' = x + w\ndyn y' = y + w\nindependent {x} {y}\n"
        )
        out = validate_independence(parse_spec(text))
        assert len(out) == 1 and "share disturbance" in out[0]

    def test_cross_reference_flagged(self):
        text = (
            "state x y\ndisturbance w u\n"
            "dyn x' = x + y + w\ndyn y' = y + u\nindependent {x} {y}\n"
        )
        out = validate_independence(parse_spec(text))
        assert any("reference across groups" in msg for msg in out)

    def test_no_declarations_no_diagnostics(self):
        text = "state x y\ndisturbance w u\ndyn x' = x + w\ndyn y' = y + u\n"
        assert validate_independence(parse_spec(text)) == []


# Specs whose numbers are pinned below: a leading minus, subtraction chains, a
# parenthesised sum inside a sum, products of three or more factors, powers 0,
# 1 and 3, and sin/cos of an angle and of a disturbance.
MIXED = """
state x y a
angle a
disturbance w u q
dyn x' = -x + 0.5*y*cos(a)*x - (y - 0.25*x - q) + (x + (q - 0.1))
dyn y' = y - x - q - 2*x*y*q*sin(u) + cos(u)*sin(a)
dyn a' = a + w + 0.1
"""

POWERS = """
state x y z
disturbance w
dyn x' = -x^3 + x^0 - (x*w)^3 - (-(y - x) - w)*x^1
dyn y' = y^1*x^2*w*y - 0.5*(x + y)^2 + w
dyn z' = -z*(-x)^3*w
"""

PINNED = {"dubins": DUBINS, "mixed": MIXED, "powers": POWERS}


def _pin_env(spec):
    """Every sign combination of zero for the first variables, then random values."""
    names = spec.state_vars + spec.disturbance_vars
    rng = np.random.default_rng(7)
    env = {}
    for k, name in enumerate(names):
        zeros = np.where((np.arange(64) >> k) & 1, -0.0, 0.0)
        env[name] = np.concatenate([zeros, rng.normal(0.0, 1.5, 64)])
    return env


def _digest(arrays):
    return hashlib.sha256(b"".join(np.asarray(a, dtype=float).tobytes() for a in arrays)).hexdigest()[:16]


class TestExpressionPins:
    """Values recorded before the expression tree became n-ary sums and products."""

    EVALUATE = {"dubins": "5a7dd1f0ad0cda29", "mixed": "52cf37b88631dc6e", "powers": "5608a83d1e110074"}
    LINEARIZE = {"dubins": "972d0e80ef842367", "mixed": "f31961c1f640efef", "powers": "3c271094a3f3e634"}
    ENCODE = {"dubins": "353398fa43eada87", "mixed": "4a3d789eb0c86c68", "powers": "49e1c4b11fb6405c"}

    @pytest.mark.parametrize("name", sorted(PINNED))
    def test_evaluate_bits(self, name):
        spec = parse_spec(PINNED[name])
        env = _pin_env(spec)
        values = [evaluate(spec.updates[v], env) for v in spec.state_vars]
        assert _digest(values) == self.EVALUATE[name]

    @pytest.mark.parametrize("name", sorted(PINNED))
    def test_linearize_bits(self, name):
        spec = parse_spec(PINNED[name])
        rng = np.random.default_rng(11)
        arrays = []
        for dt in (1.0, 0.5):
            x_star = {v: float(rng.normal()) for v in spec.state_vars}
            w_star = {w: float(rng.normal(0.0, 0.1)) for w in spec.disturbance_vars}
            x_star[spec.state_vars[0]] = 0.0 if dt == 1.0 else -0.0
            lin = oracle.linearize(spec, x_star, w_star, dt)
            arrays += [lin.A, lin.B, lin.c]
        assert _digest(arrays) == self.LINEARIZE[name]

    @pytest.mark.parametrize("name", sorted(PINNED))
    def test_trig_encode_polynomials(self, name):
        system = trig_encode(parse_spec(PINNED[name]))
        canonical = repr((
            system.vars,
            system.dist_vars,
            [sorted((tuple(m), str(c)) for m, c in p.terms.items()) for p in system.f],
        ))
        assert hashlib.sha256(canonical.encode()).hexdigest()[:16] == self.ENCODE[name]


_LEAVES = st.sampled_from(["x", "y", "q", "2.0", "0.5", "1.5e-1", "sin(a)", "cos(a)", "sin(u)", "cos(u)"])


def _expressions(inner):
    """Update expressions in the spec grammar, built from smaller ones."""
    base = st.one_of(_LEAVES, inner.map("({})".format))
    factor = st.tuples(base, st.sampled_from(["", "^0", "^1", "^2", "^3"])).map("".join)
    term = st.lists(factor, min_size=1, max_size=4).map("*".join)
    rest = st.lists(st.tuples(st.sampled_from("+-"), term).map("".join), max_size=4).map("".join)
    return st.tuples(st.sampled_from(["", "-"]), term, rest).map("".join)


def _outcome(fn):
    try:
        with np.errstate(all="ignore"):
            value = fn()
    except OverflowError:
        return "overflow"
    return "nan" if math.isnan(value) else value


def _power_over_degree_limit(text):
    """Whether some power in `text` has a degree bound above MAX_DEGREE, read with Python's own parser.

    The bound folds as the spec grammar's: a constant is 0, a symbol or sin/cos is 1,
    + and - take the larger, * adds and ^ multiplies.
    """
    over = False

    def degree(node):
        nonlocal over
        if isinstance(node, ast.Constant):
            return 0
        if isinstance(node, (ast.Name, ast.Call)):
            return 1
        if isinstance(node, ast.UnaryOp):
            return degree(node.operand)
        left, right = degree(node.left), degree(node.right)
        if isinstance(node.op, ast.Pow):
            bound = left * node.right.value
            over = over or bound > MAX_DEGREE
            return bound
        return left + right if isinstance(node.op, ast.Mult) else max(left, right)

    degree(ast.parse(text.replace("^", "**"), mode="eval").body)
    return over


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    st.recursive(_LEAVES, _expressions, max_leaves=20),
    st.tuples(*[st.floats(-2.0, 2.0)] * 5),
)
def test_evaluate_equals_python_float_arithmetic(text, point):
    """evaluate(parse(text)) equals Python's own evaluation of the text, with ^ as **.

    A text with a power above the degree limit is not a valid update: the parser rejects it.
    """
    source = (
        "state x y a\nangle a\ndisturbance w u q\n"
        f"dyn x' = {text}\ndyn y' = y\ndyn a' = a + w\n"
    )
    if _power_over_degree_limit(text):
        with pytest.raises(SpecError, match=f"power exceeds the degree limit {MAX_DEGREE}"):
            parse_spec(source)
        return
    spec = parse_spec(source)
    env = dict(zip("xyaqu", point))
    ours = _outcome(lambda: evaluate(spec.updates["x"], env))
    python = _outcome(lambda: eval(text.replace("^", "**"), {"sin": np.sin, "cos": np.cos}, env))
    assert ours == python


def _nest(depth):
    """``(w*(x+(w*(...x...))))``: parentheses nested `depth` deep, alternating + and *."""
    text = "x"
    for level in range(depth):
        text = f"({'x+' if level % 2 else 'w*'}{text})"
    return text


def test_nesting_at_the_limit_passes_every_walk():
    spec = parse_spec(f"state x\ndisturbance w\ndyn x' = {_nest(200)}\n")
    system = trig_encode(spec)
    assert system.f[0].degree() == 101
    env = {"x": np.full(3, 0.5), "w": np.array([0.0, -0.0, 0.25])}
    expected = env["x"]
    for level in range(200):
        expected = env["x"] + expected if level % 2 else env["w"] * expected
    assert np.array_equal(evaluate(spec.updates["x"], env), expected)
    lin = oracle.linearize(spec, {"x": 0.5}, {"w": 0.0})
    assert lin.A[0, 0] == 0.0 and lin.B[0, 0] == 0.5


_JUNK = ["+", "-", "*", "^", "(", ")", "{", "}", "'", "=", ",", "2", "0.5", "1e400", "1e-400",
         "x", "theta", "wt", "sin", "cos(theta)", "state", "angle", "dyn", "moments", "dist",
         "#", "@", "x^2", "gaussian(0, 1)", "\t", ""]
_EDITS = st.lists(
    st.tuples(st.sampled_from(["drop", "swap", "junk"]), st.integers(0, 99), st.integers(0, 99), st.sampled_from(_JUNK)),
    min_size=1,
    max_size=4,
)


def _edited_dubins(edits):
    """The Dubins spec with lines dropped or swapped, or a junk token inserted into a line."""
    lines = DUBINS.strip().splitlines()
    for kind, i, j, junk in edits:
        if not lines:
            break
        i %= len(lines)
        if kind == "drop":
            del lines[i]
        elif kind == "swap":
            j %= len(lines)
            lines[i], lines[j] = lines[j], lines[i]
        else:
            words = lines[i].split(" ")
            words.insert(j % (len(words) + 1), junk)
            lines[i] = " ".join(words)
    return "\n".join(lines)


def _parse_and_encode(text):
    """Parsing ends in SpecError or a spec, and encoding a parsed spec in SpecError or a system."""
    try:
        spec = parse_spec(text)
    except SpecError:
        return
    try:
        trig_encode(spec)
    except SpecError:
        pass


class TestParseFuzz:
    @settings(max_examples=300, deadline=None)
    @given(st.text(alphabet=st.characters(codec="utf-8"), max_size=200))
    def test_arbitrary_text(self, text):
        _parse_and_encode(text)

    @settings(max_examples=300, deadline=None)
    @given(st.text(alphabet="stdynaglexwvhoc'=+-*^(){},.0123456789# \n", max_size=120))
    def test_spec_alphabet_text(self, text):
        _parse_and_encode(text)

    @settings(max_examples=300, deadline=None)
    @given(_EDITS)
    def test_edited_dubins(self, edits):
        _parse_and_encode(_edited_dubins(edits))
