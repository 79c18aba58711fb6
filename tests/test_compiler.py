from fractions import Fraction

import numpy as np
import pytest

from momentprop import compiler
from momentprop.compiler import (
    BasisExplosionError,
    MomentBasis,
    MufTerm,
    compile_moment_system,
    is_complete,
    ltv_matrices,
    moment_update_form,
    reduce_form,
)
from momentprop.polyring import MultiIndex, Polynomial
from momentprop.propagator import MomentTrajectory, mean_cov
from momentprop.sysspec import DependenceGraph, PolynomialSystem, parse_spec, trig_encode

from randsys import random_system, random_target


def scalar_walk_system():
    """x' = x + w over one state and one disturbance."""
    joint = ("x", "w")
    x, w = Polynomial.variables(joint)
    return PolynomialSystem(
        vars=("x",), dist_vars=("w",), f=(x + w,), graph=DependenceGraph.complete(("x",))
    )


def term_map(form):
    return {(t.dist_index, t.state_factors): t.coeff for t in form.terms}


class TestMomentUpdateForm:
    def test_scalar_square(self):
        # E[x'^2] = E[x^2] + 2 E[x] E[w] + E[w^2]
        form = moment_update_form(scalar_walk_system(), MultiIndex((2,)))
        expected = {
            (MultiIndex((0,)), (MultiIndex((2,)),)): Fraction(1),
            (MultiIndex((1,)), (MultiIndex((1,)),)): Fraction(2),
            (MultiIndex((2,)), ()): Fraction(1),
        }
        assert term_map(form) == expected

    def test_dubins_x_square(self, dubins_system):
        # (x + v c)^2 -> E[x^2] + 2 E[xvc] + E[v^2 c^2], no disturbance part
        n = len(dubins_system.vars)
        alpha = MultiIndex.unit(n, 0, 2)
        form = moment_update_form(dubins_system, alpha)
        zero_w = MultiIndex.zero(len(dubins_system.dist_vars))
        x2 = MultiIndex((2, 0, 0, 0, 0))
        xvc = MultiIndex((1, 0, 1, 1, 0))
        v2c2 = MultiIndex((0, 0, 2, 2, 0))
        assert term_map(form) == {
            (zero_w, (x2,)): Fraction(1),
            (zero_w, (xvc,)): Fraction(2),
            (zero_w, (v2c2,)): Fraction(1),
        }

    def test_zero_target_is_constant_one(self):
        form = moment_update_form(scalar_walk_system(), MultiIndex((0,)))
        assert term_map(form) == {(MultiIndex((0,)), ()): Fraction(1)}

    def test_unreduced_factors_are_single(self, dubins_system):
        form = moment_update_form(dubins_system, MultiIndex((1, 1, 0, 0, 0)))
        assert all(len(t.state_factors) <= 1 for t in form.terms)


class TestReduceForm:
    def test_factorizes_independent_blocks(self, dubins_system):
        # E[v^2 c^2] splits into E[v^2] E[c^2] under the preset graph
        n = len(dubins_system.vars)
        form = moment_update_form(dubins_system, MultiIndex.unit(n, 0, 2))
        reduced = reduce_form(form, dubins_system.graph)
        v2 = MultiIndex((0, 0, 2, 0, 0))
        c2 = MultiIndex((0, 0, 0, 2, 0))
        keys = {t.state_factors for t in reduced.terms}
        assert (v2, c2) in keys

    def test_complete_graph_is_identity(self):
        system = scalar_walk_system()
        form = moment_update_form(system, MultiIndex((2,)))
        reduced = reduce_form(form, system.graph)
        assert term_map(reduced) == term_map(form)
        assert reduced.reduced

    def test_connected_support_stays_whole(self, dubins_system):
        # E[xvs]: x-v and x-s edges keep the support connected, so no split
        from momentprop.sysspec import components_of_support

        xvs = MultiIndex((1, 0, 1, 0, 1))
        assert components_of_support(dubins_system.graph, xvs) == [xvs]

    def test_double_reduction_rejected(self, dubins_system):
        form = moment_update_form(dubins_system, MultiIndex((1, 0, 0, 0, 0)))
        reduced = reduce_form(form, dubins_system.graph)
        with pytest.raises(ValueError):
            reduce_form(reduced, dubins_system.graph)

    def test_merges_duplicate_terms(self):
        # x' = x*y over independent x, y: E[(x'y')^..] style merging exercised
        joint = ("a", "b", "w")
        a, b, w = Polynomial.variables(joint)
        system = PolynomialSystem(
            vars=("a", "b"),
            dist_vars=("w",),
            f=(a + w, b - w),
            graph=DependenceGraph(("a", "b"), frozenset()),
        )
        form = moment_update_form(system, MultiIndex((1, 1)))
        reduced = reduce_form(form, system.graph)
        # E[a'b'] = E[a]E[b] + (E[b]-E[a])E[w] - E[w^2]; no duplicate keys
        keys = [(t.dist_index, t.state_factors) for t in reduced.terms]
        assert len(keys) == len(set(keys))


class TestCompletion:
    def test_scalar_square_completion(self):
        basis, forms = compiler.complete_basis(scalar_walk_system(), [MultiIndex((2,))])
        assert set(basis) == {MultiIndex((2,)), MultiIndex((1,))}

    def test_dubins_reduced_is_exact_twenty(self, dubins_reduced):
        names = set(dubins_reduced.moment_names())
        expected = {
            "x", "y", "x*y", "x^2", "y^2",
            "c_theta", "s_theta", "v", "v^2",
            "x*s_theta", "y*s_theta", "x*c_theta", "y*c_theta",
            "s_theta^2", "c_theta^2", "c_theta*s_theta",
            "x*v*s_theta", "x*v*c_theta", "y*v*s_theta", "y*v*c_theta",
        }
        assert names == expected

    def test_dubins_unreduced_contains_extras(self, dubins_unreduced):
        names = set(dubins_unreduced.moment_names())
        extras = {
            "v^2*s_theta^2", "v*s_theta^2", "v^2*c_theta*s_theta",
            "v*c_theta^2", "v^2*c_theta^2",
        }
        assert extras <= names

    def test_reduced_no_larger_than_unreduced(self, dubins_reduced, dubins_unreduced):
        assert len(dubins_reduced.basis) <= len(dubins_unreduced.basis)
        seed = {"x", "y", "x*y", "x^2", "y^2"}
        assert seed <= set(dubins_reduced.moment_names())
        assert seed <= set(dubins_unreduced.moment_names())

    def test_completeness_invariant(self, dubins_reduced, dubins_unreduced):
        for msys in (dubins_reduced, dubins_unreduced):
            assert is_complete(msys.basis, msys.forms, msys.reduced)

    def test_completeness_on_random_systems(self):
        rng = np.random.default_rng(5)
        for _ in range(30):
            system = random_system(rng)
            # degree-1 systems close; restrict to linear f for termination
            f = tuple(p if p.degree() <= 1 else Polynomial.constant(p.vars, 1) for p in system.f)
            system = PolynomialSystem(
                vars=system.vars, dist_vars=system.dist_vars, f=f, graph=system.graph
            )
            seed = [random_target(rng, len(system.vars), 3)]
            msys = compile_moment_system(system, seed)
            assert is_complete(msys.basis, msys.forms, True)

    def test_deterministic_order(self, dubins_system):
        a = compile_moment_system(dubins_system, dubins_system.target_moments)
        b = compile_moment_system(dubins_system, dubins_system.target_moments)
        assert a.basis == b.basis
        assert a.forms == b.forms

    def test_incomplete_basis_detected(self):
        system = scalar_walk_system()
        form = moment_update_form(system, MultiIndex((2,)))
        basis = MomentBasis([MultiIndex((2,))])
        assert not is_complete(basis, [form], reduced=False)

    def test_empty_forms_vacuously_complete(self):
        assert is_complete(MomentBasis([]), [], reduced=False)

    def test_degree_guard_raises(self):
        # x' = x^2 forces unbounded degree growth
        joint = ("x", "w")
        x, w = Polynomial.variables(joint)
        system = PolynomialSystem(
            vars=("x",), dist_vars=("w",), f=(x * x + w,),
            graph=DependenceGraph.complete(("x",)),
        )
        with pytest.raises(BasisExplosionError) as err:
            compile_moment_system(system, [MultiIndex((2,))], max_degree=16)
        assert "x^" in str(err.value)

    def test_basis_size_guard_raises(self, dubins_system):
        with pytest.raises(BasisExplosionError):
            compile_moment_system(dubins_system, dubins_system.target_moments, max_basis=5)

    def test_zero_seed_rejected(self):
        with pytest.raises(ValueError):
            compile_moment_system(scalar_walk_system(), [MultiIndex((0,))])


class TestLtv:
    def test_random_walk_matrices(self):
        system = scalar_walk_system()
        msys = compile_moment_system(system, [MultiIndex((1,)), MultiIndex((2,))], reduced=False)
        sigma2 = 0.49
        values = {
            MultiIndex((0,)): 1.0,
            MultiIndex((1,)): 0.0,
            MultiIndex((2,)): sigma2,
        }
        A, b = ltv_matrices(msys, values)
        i1 = msys.basis.index_of(MultiIndex((1,)))
        i2 = msys.basis.index_of(MultiIndex((2,)))
        expected_A = np.zeros((2, 2))
        expected_A[i1, i1] = 1.0
        expected_A[i2, i2] = 1.0
        assert np.allclose(A, expected_A)
        assert b[i1] == 0.0 and b[i2] == pytest.approx(sigma2)

    def test_linear_system_recovers_coefficients(self):
        joint = ("x", "y", "w")
        x, y, w = Polynomial.variables(joint)
        system = PolynomialSystem(
            vars=("x", "y"), dist_vars=("w",),
            f=(2 * x - y, x + 3 * y),
            graph=DependenceGraph.complete(("x", "y")),
        )
        seed = [MultiIndex((1, 0)), MultiIndex((0, 1))]
        msys = compile_moment_system(system, seed, reduced=False)
        values = {mi: (1.0 if mi.is_zero() else 0.0) for mi in msys.dist_requirements}
        A, b = ltv_matrices(msys, values)
        ix = msys.basis.index_of(MultiIndex((1, 0)))
        iy = msys.basis.index_of(MultiIndex((0, 1)))
        assert A[ix, ix] == 2.0 and A[ix, iy] == -1.0
        assert A[iy, ix] == 1.0 and A[iy, iy] == 3.0
        assert np.all(b == 0.0)

    def test_reduced_system_rejected(self, dubins_reduced):
        with pytest.raises(ValueError):
            ltv_matrices(dubins_reduced, {})

    def test_missing_moment_reported(self):
        msys = compile_moment_system(scalar_walk_system(), [MultiIndex((2,))], reduced=False)
        with pytest.raises(KeyError, match=r"E\["):
            ltv_matrices(msys, {})


class TestSerialization:
    def test_round_trip_identity(self, dubins_reduced):
        text = compiler.dumps(dubins_reduced)
        loaded = compiler.loads(text)
        assert loaded.basis == dubins_reduced.basis
        assert loaded.forms == dubins_reduced.forms
        assert loaded.state_vars == dubins_reduced.state_vars
        assert loaded.dist_vars == dubins_reduced.dist_vars
        assert loaded.state_pairs == dubins_reduced.state_pairs
        assert loaded.dist_pairs == dubins_reduced.dist_pairs
        assert compiler.dumps(loaded) == text

    def test_term_line_format(self, dubins_reduced):
        lines = compiler.dumps(dubins_reduced).splitlines()
        terms_at = next(i for i, ln in enumerate(lines) if ln.startswith("terms "))
        sample = lines[terms_at + 1]
        target, coeff, beta_w, factors = [part.strip() for part in sample.split("|")]
        assert target.isdigit()
        num, den = coeff.split("/")
        int(num), int(den)
        assert len(beta_w.split()) == len(dubins_reduced.dist_vars)
        for idx in factors.split():
            assert 0 <= int(idx) < len(dubins_reduced.basis)

    def test_header_rejected_on_garbage(self):
        with pytest.raises(ValueError, match="header"):
            compiler.loads("not a compiled file\n")

    def test_truncated_file_rejected(self, dubins_reduced):
        lines = compiler.dumps(dubins_reduced).splitlines()
        for cut in (0, 1, 5, len(lines) // 2, len(lines) - 1):
            with pytest.raises(ValueError):
                compiler.loads("\n".join(lines[:cut]))

    @staticmethod
    def _edit_first_term(msys, edit):
        lines = compiler.dumps(msys).splitlines()
        at = next(i for i, ln in enumerate(lines) if ln.startswith("terms ")) + 1
        while not lines[at].split("|")[3].strip():  # first term with a state factor
            at += 1
        lines[at] = " | ".join(edit([p.strip() for p in lines[at].split("|")]))
        return "\n".join(lines) + "\n"

    def test_factor_index_out_of_range_rejected(self, dubins_reduced):
        n = len(dubins_reduced.basis)
        for bad in (str(n), "-1"):
            text = self._edit_first_term(dubins_reduced, lambda f: [*f[:3], bad])
            with pytest.raises(ValueError, match="out of range"):
                compiler.loads(text)

    def test_target_index_out_of_range_rejected(self, dubins_reduced):
        n = len(dubins_reduced.basis)
        text = self._edit_first_term(dubins_reduced, lambda f: [str(n), *f[1:]])
        with pytest.raises(ValueError, match="out of range"):
            compiler.loads(text)

    def test_disturbance_index_length_mismatch_rejected(self, dubins_reduced):
        for edit in (lambda f: [*f[:2], f[2] + " 0", f[3]], lambda f: [*f[:2], f[2].rsplit(" ", 1)[0], f[3]]):
            with pytest.raises(ValueError, match="disturbance multi-index"):
                compiler.loads(self._edit_first_term(dubins_reduced, edit))

    def test_trailing_line_rejected(self, dubins_reduced):
        with pytest.raises(ValueError, match="unexpected line"):
            compiler.loads(compiler.dumps(dubins_reduced) + "0 | 1/1 | 0 0 0 |\n")

    def test_lookup_caches_leave_equality_and_round_trip(self, dubins_reduced):
        text = compiler.dumps(dubins_reduced)
        msys = compiler.loads(text)
        traj = MomentTrajectory(msys, np.zeros((2, len(msys.basis))))
        assert msys.moment_index("x*y") == msys.moment_names().index("x*y")
        traj.moment_series("c_theta")
        mean_cov(traj, ("x", "y"))
        assert msys == compiler.loads(text) == dubins_reduced
        assert compiler.dumps(msys) == text
        with pytest.raises(KeyError, match="not in the compiled basis"):
            msys.moment_index("z")
        with pytest.raises(KeyError):
            mean_cov(traj, ("x", "v"))

    def test_file_round_trip(self, tmp_path, dubins_unreduced):
        path = tmp_path / "system.msys"
        compiler.save(dubins_unreduced, path)
        assert compiler.load(path).forms == dubins_unreduced.forms


class TestRenderEquations:
    def test_one_equation_per_moment(self, dubins_reduced):
        listing = compiler.render_equations(dubins_reduced)
        lines = listing.splitlines()
        assert len(lines) == len(dubins_reduced.basis)
        assert lines[0].startswith("E[x]' = ")
        assert "E[v]*E[c_theta]" in lines[0]

    def test_exact_one_step_oracle_random_systems(self):
        """Compiled one-step moments must equal deterministic simulation exactly.

        With degenerate (point mass) state and disturbances, every moment is
        a monomial of the simulated next state; the update forms must
        reproduce it in exact rational arithmetic.
        """
        rng = np.random.default_rng(17)
        for _ in range(60):
            system = random_system(rng)
            alpha = random_target(rng, len(system.vars))
            x0 = {v: Fraction(int(rng.integers(-2, 3)), 2) for v in system.vars}
            w0 = {w: Fraction(int(rng.integers(-2, 3)), 3) for w in system.dist_vars}
            point = {**x0, **w0}
            x1 = [p.evaluate(point) for p in system.f]
            expected = Fraction(1)
            for value, e in zip(x1, alpha):
                expected *= value**e
            for reduced in (False, True):
                form = moment_update_form(system, alpha)
                if reduced:
                    form = reduce_form(form, system.graph)
                total = Fraction(0)
                for term in form.terms:
                    value = term.coeff
                    for w, e in zip(system.dist_vars, term.dist_index):
                        if e:
                            value *= w0[w] ** e
                    for factor in term.state_factors:
                        for v, e in zip(system.vars, factor):
                            if e:
                                value *= x0[v] ** e
                    total += value
                assert total == expected
