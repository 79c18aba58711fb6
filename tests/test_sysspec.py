import math
from fractions import Fraction

import numpy as np
import pytest

from momentprop import distmoments
from momentprop.polyring import MultiIndex, Polynomial
from momentprop.sysspec import (
    DependenceGraph,
    SpecError,
    components_of_support,
    parse_spec,
    trig_encode,
    validate_independence,
)

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

    def test_missing_update(self):
        with pytest.raises(SpecError, match="no 'dyn' update"):
            parse_spec("state x y\ndisturbance w\ndyn x' = x + w\n")

    def test_decimal_literals_exact(self):
        spec = parse_spec("state x\ndisturbance w\ndyn x' = 0.1*x + w\n")
        joint = ("x", "w")
        gens = {"x": Polynomial.variable(joint, "x"), "w": Polynomial.variable(joint, "w")}
        system = trig_encode(spec)
        assert system.f[0].terms[MultiIndex((1, 0))] == Fraction(1, 10)

    def test_leading_minus_accepted(self):
        spec = parse_spec("state x\ndisturbance w\ndyn x' = -x + w\n")
        system = trig_encode(spec)
        assert system.f[0].terms[MultiIndex((1, 0))] == -1


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
                name: float(poly.evaluate({k: Fraction(v) for k, v in enc_point.items()}))
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
            new = {n: float(p.evaluate(frac_env)) for n, p in zip(system.vars, system.f)}
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
