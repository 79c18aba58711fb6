import functools
import hashlib
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from momentprop import compiler, oracle, presets
from momentprop.compiler import (
    BasisExplosionError,
    MomentBasis,
    MufTerm,
    compile_moment_system,
    ltv_matrices,
)
from momentprop.polyring import MultiIndex, Polynomial, monomial_name
from momentprop.distmoments import DisturbanceModel
from momentprop.propagator import MomentTrajectory, init_deterministic, mean_cov, propagate
from momentprop.sysspec import MAX_DEGREE, DependenceGraph, PolynomialSystem, parse_spec, trig_encode

from randsys import random_system, random_target
from reference import evaluate_polynomial, is_complete, moment_update_form, pow_multiindex, reduce_form


def scalar_walk_system():
    """x' = x + w over one state and one disturbance."""
    joint = ("x", "w")
    x, w = Polynomial.variables(joint)
    return PolynomialSystem(
        vars=("x",), dist_vars=("w",), f=(x + w,), graph=DependenceGraph.complete(("x",))
    )


def packed_power(f, max_degree=MAX_DEGREE):
    """The completion's packed f^alpha at the field width of `max_degree`, from a MultiIndex to a Polynomial."""
    width = compiler._field_width(f, max_degree)
    state, joint = compiler._Packing(len(f), width), compiler._Packing(len(f[0].vars), width)
    power = compiler._packed_power_builder(f, joint)

    def as_polynomial(alpha):
        terms, den = power(state.pack(alpha))
        return Polynomial(f[0].vars, {joint.unpack(k): Fraction(c, den) for k, c in terms.items()})

    return as_polynomial


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
        basis = compile_moment_system(scalar_walk_system(), [MultiIndex((2,))]).basis
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

    def test_power_cache_equals_pow_multiindex(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            system = random_system(rng)
            power = packed_power(system.f)
            alphas = [random_target(rng, len(system.vars)) for _ in range(8)]
            for alpha in [*alphas, *reversed(alphas), MultiIndex.zero(len(system.vars))]:
                assert power(alpha) == pow_multiindex(system.f, alpha)

    def test_packed_power_at_the_degree_guard(self, dubins_system):
        """|alpha| = MAX_DEGREE on degree-2 updates: f^alpha reaches degree 64 and no exponent overflows its field."""
        n = len(dubins_system.vars)
        half = MAX_DEGREE // 2
        alphas = [
            MultiIndex.unit(n, 0, MAX_DEGREE),  # x' = x + v*c
            MultiIndex.unit(n, 0, half).plus(MultiIndex.unit(n, 1, half)),
            MultiIndex.unit(n, 3, MAX_DEGREE),  # c' = c*cw - s*sw
        ]
        power = packed_power(dubins_system.f)
        for alpha in alphas:
            expected = pow_multiindex(dubins_system.f, alpha)
            assert expected.degree() == 2 * MAX_DEGREE
            assert power(alpha) == expected

    def test_completion_above_max_degree_equals_uncached_forms(self, dubins_system):
        degree = MAX_DEGREE + 8
        cases = [(scalar_walk_system(), [MultiIndex((degree,))]), (dubins_system, dubins_system.target_moments)]
        for system, seed in cases:
            for reduced in (True, False):
                msys = compile_moment_system(system, seed, reduced, max_degree=degree)
                for alpha, form in zip(msys.basis, msys.forms):
                    expected = moment_update_form(system, alpha)
                    assert form == (reduce_form(expected, system.graph) if reduced else expected)

    def test_cached_completion_equals_uncached_forms(self, dubins_system):
        """Each form of a completion equals the cache-free reference moment_update_form/reduce_form."""
        ladder = trig_encode(parse_spec(ladder_spec_text(3, 1.013, 0.947)))
        rng = np.random.default_rng(13)
        linear = []
        for _ in range(10):
            system = random_system(rng)
            f = tuple(p if p.degree() <= 1 else Polynomial.constant(p.vars, 1) for p in system.f)
            linear.append(PolynomialSystem(vars=system.vars, dist_vars=system.dist_vars, f=f, graph=system.graph))
        cases = [(dubins_system, dubins_system.target_moments), (ladder, ladder.target_moments)]
        cases += [(system, [random_target(rng, len(system.vars), 3)]) for system in linear]
        for system, seed in cases:
            for reduced in (True, False):
                msys = compile_moment_system(system, seed, reduced)
                for alpha, form in zip(msys.basis, msys.forms):
                    expected = moment_update_form(system, alpha)
                    if reduced:
                        expected = reduce_form(expected, system.graph)
                    assert form == expected

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

    def test_seed_above_the_degree_guard_raises(self):
        # x^40 does not fit the 5-bit fields that max_degree=16 gives, so it is refused before packing.
        with pytest.raises(BasisExplosionError, match=r"guard \(16\) exceeded at x\^40"):
            compile_moment_system(scalar_walk_system(), [MultiIndex((1,)), MultiIndex((40,))], max_degree=16)

    @pytest.mark.parametrize("guard", ["max_degree", "max_basis"])
    @pytest.mark.parametrize("value", [2.5, 4.0, True, False, 0, -1, "4", None])
    def test_guard_arguments_must_be_positive_ints(self, guard, value):
        with pytest.raises(ValueError, match=f"{guard} must be an integer >= 1"):
            compile_moment_system(scalar_walk_system(), [MultiIndex((2,))], **{guard: value})

    def test_numpy_integer_guards_compile_the_same_system(self, dubins_system):
        """A numpy integer is a count: max_degree=np.int64(4) compiles to the bytes that max_degree=4 gives."""
        seed = dubins_system.target_moments
        plain = compiler.dumps(compile_moment_system(dubins_system, seed, max_degree=4, max_basis=100))
        numpy = compile_moment_system(dubins_system, seed, max_degree=np.int64(4), max_basis=np.int32(100))
        assert compiler.dumps(numpy) == plain
        with pytest.raises(BasisExplosionError, match=r"basis size guard \(10\) exceeded"):
            compile_moment_system(dubins_system, seed, max_basis=np.int64(10))


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_packed_key_orders_as_grlex(data):
    """Packing round-trips, and the packed key orders multi-indices as grlex_key does, up to the field maximum."""
    n, width = data.draw(st.integers(1, 6)), data.draw(st.integers(1, 8))
    top = (1 << width) - 1
    exponent = st.one_of(st.just(top), st.integers(0, top))
    indices = data.draw(st.lists(st.lists(exponent, min_size=n, max_size=n).map(MultiIndex), min_size=2, max_size=12))
    packing = compiler._Packing(n, width)
    for a in indices:
        assert packing.unpack(packing.pack(a)) == a
        for b in indices:
            assert (packing.key(a) < packing.key(b)) == (a.grlex_key() < b.grlex_key())
            assert (packing.key(a) == packing.key(b)) == (a == b)


def test_hot_path_never_builds_the_forms_view(dubins_system):
    """compile -> dumps -> loads -> propagate -> ltv_matrices -> render_equations reads only the term table."""
    msys = compile_moment_system(dubins_system, dubins_system.target_moments, reduced=False)
    loaded = compiler.loads(compiler.dumps(msys))
    model = DisturbanceModel(loaded, presets.benchmark_noise())
    propagate(loaded, init_deterministic(loaded, {"x": 0.3, "y": -1.0, "v": 1.2, "theta": 0.4}), model, 5)
    values = {mi: 0.5 for mi in msys.dist_requirements}
    for system in (msys, loaded):
        ltv_matrices(system, values)
        compiler.render_equations(system)
    assert "forms" not in msys.__dict__ and "forms" not in loaded.__dict__


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


@functools.cache
def valid_msys_texts() -> tuple[str, ...]:
    walk = compile_moment_system(scalar_walk_system(), [MultiIndex((2,))], reduced=False)
    return tuple(compiler.dumps(m) for m in (presets.compile_dubins(True), presets.compile_dubins(False), walk))


_FIELD_VALUES = st.one_of(
    st.integers(-3, 10**6).map(str),
    st.sampled_from(["", "-", "|", "0/0", "1/0", "1/-2", "2/4", "x", "1_0", "\u0663", "\x1c"]),
    st.text(max_size=6),
)


def assert_rejected_or_round_trips(text: str) -> None:
    """`loads` raises ValueError, or loads a system whose `dumps` text loads back to it."""
    try:
        msys = compiler.loads(text)
    except ValueError:
        return
    out = compiler.dumps(msys)
    again = compiler.loads(out)
    assert again == msys
    assert compiler.dumps(again) == out


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

    @given(st.text())
    @settings(max_examples=300, deadline=None)
    def test_fuzz_arbitrary_text(self, text):
        assert_rejected_or_round_trips(text)

    @given(st.data())
    @settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_fuzz_edited_file(self, data):
        """A valid file with one line dropped or duplicated, or one field replaced."""
        lines = data.draw(st.sampled_from(valid_msys_texts())).splitlines()
        i = data.draw(st.integers(0, len(lines) - 1))
        edit = data.draw(st.sampled_from(["drop", "duplicate", "field"]))
        if edit == "drop":
            del lines[i]
        elif edit == "duplicate":
            lines.insert(i, lines[i])
        else:
            fields = lines[i].split(" ")
            j = data.draw(st.integers(0, len(fields) - 1))
            fields[j] = data.draw(_FIELD_VALUES)
            lines[i] = " ".join(fields)
        assert_rejected_or_round_trips("\n".join(lines) + "\n")

    def test_interleaved_term_lines_load_as_grouped(self, dubins_reduced):
        """Term lines may alternate between targets: each target keeps its terms in file order."""
        grouped = compiler.dumps(dubins_reduced)
        lines = grouped.splitlines()
        at = next(i for i, ln in enumerate(lines) if ln.startswith("terms ")) + 1
        per_target: dict[str, list[str]] = {}
        for ln in lines[at:]:
            per_target.setdefault(ln.split("|")[0], []).append(ln)
        queues = list(per_target.values())
        interleaved = []
        while any(queues):
            for queue in queues:
                if queue:
                    interleaved.append(queue.pop(0))
        assert interleaved != lines[at:]
        loaded = compiler.loads("\n".join(lines[:at] + interleaved) + "\n")
        assert loaded == compiler.loads(grouped) == dubins_reduced
        assert compiler.dumps(loaded) == grouped
        model = DisturbanceModel(loaded, presets.benchmark_noise())
        init = init_deterministic(loaded, {"x": 0.3, "y": -1.0, "v": 1.2, "theta": 0.4})
        ours = propagate(loaded, init, model, 20).values
        ref = propagate(dubins_reduced, init, DisturbanceModel(dubins_reduced, presets.benchmark_noise()), 20).values
        assert np.array_equal(ours.view(np.int64), ref.view(np.int64))

    def test_coefficient_too_large_for_a_float_is_named(self):
        """(10^300)^2 in the update of E[x^2] has no float: compile and load name the moment."""
        system = trig_encode(parse_spec("state x\ndisturbance w\ndyn x' = 1e300*x + w\nmoments x^2\n"))
        with pytest.raises(ValueError, match=r"the update of E\[x\^2\] has an exact coefficient too large for a float"):
            compile_moment_system(system, system.target_moments)
        text = compiler.dumps(compile_moment_system(scalar_walk_system(), [MultiIndex((2,))], reduced=False))
        assert "| 1/1 |" in text
        with pytest.raises(ValueError, match=r"the update of E\[x\^2\] has an exact coefficient too large"):
            compiler.loads(text.replace("| 1/1 |", f"| {10**400}/1 |", 1))

    def test_file_round_trip(self, tmp_path, dubins_unreduced):
        path = tmp_path / "system.msys"
        compiler.save(dubins_unreduced, path)
        assert compiler.load(path).forms == dubins_unreduced.forms


def ladder_spec_text(k: int, ax: float, ay: float) -> str:
    """Dubins with coefficients ax, ay on the position updates and targets x^a y^b, 1 <= a + b <= k."""

    def power(var: str, e: int) -> list[str]:
        return [] if e == 0 else [var] if e == 1 else [f"{var}^{e}"]

    targets = ["*".join(power("x", a) + power("y", d - a)) for d in range(1, k + 1) for a in range(d, -1, -1)]
    text = presets.DUBINS_SPEC
    for old, new in (
        ("moments x y x*y x^2 y^2", "moments " + " ".join(targets)),
        ("x + v*cos(theta)", f"x + {ax!r}*v*cos(theta)"),
        ("y + v*sin(theta)", f"y + {ay!r}*v*sin(theta)"),
    ):
        assert old in text
        text = text.replace(old, new)
    return text


# sha256 of `dumps` for each system, as the uncached compiler (`pow_multiindex` per moment) produced it.
GOLDEN_MSYS_SHA256 = {
    ("dubins", True): "ee799860be9e39859526e4060908fd64bb66cd8f706a19820e56a25c67a9a31a",
    ("dubins", False): "a36085eefcb3047d77c57ecd39748eeb49cd446d0b5a43119c212c4c2e04281e",
    ((2, 1.013, 0.947), True): "ee6bf80baafb68541dd04969ec42cd6e8328b708e4f505983a38563db6bfec10",
    ((2, 1.013, 0.947), False): "c51ba68ee2a43d7d6eeb81cbe2fc7647df314cd9bf544a514fd09431eac1787a",
    ((3, 1.013, 0.947), True): "9ca4deba4a0c4c277c553816bcd34ad387b5c516746869477cd4faf6552c8689",
    ((3, 1.013, 0.947), False): "3ec4614a60fbb1b5504f117b33cedfd55c73fbe096c5ca2465c618043b7620e2",
    ((4, 1.013, 0.947), True): "b0f77c1ddecab99c542dcf65680302d3462305863d39821f35ae8e21ffd823fe",
    ((4, 1.013, 0.947), False): "7b7222b19080243f41c3dffad9f6dd492b829622cd8e3396e4d21e15f97e3daa",
    ((5, 1.013, 0.947), True): "459233203a2dc370f94720fb6834710d608a0d02d893415b7e4c3ffc6db45ef7",
    ((5, 1.013, 0.947), False): "6cc97028e3446caaef442598eb1aa7639699c717b5973542dcd9438c04c81915",
    ((2, 0.9, 1.1), True): "b91eb931d70f0b9d32d4fdfbddc78a6129a2e26dadf2c155f7d37d272a805233",
    ((2, 0.9, 1.1), False): "4dbea66c181cd7946375fa5b594b3be4186794541bc846eb47f6e49a0fbb6562",
    ((3, 0.9, 1.1), True): "297ac63018368268f7a752ad7de6aeee6500ca2457163584f08c0ddc10748b45",
    ((3, 0.9, 1.1), False): "226f8fa25d2fc6c392eb97098128f154e9fc580ccfae7d73492029c0b1991ca9",
    ((4, 0.9, 1.1), True): "326caa2d501e643641bcb2dc34a4db77a00a369f60333dc2dcbbadd09108c0ad",
    ((4, 0.9, 1.1), False): "6d5a6b3205b4600bbfdff55eab66543d4aceade31c7fc3d3976b2bd9442bb402",
    ((5, 0.9, 1.1), True): "e22ebc20f453dd391c56022521441075c47a97483ff364b22d44aa76b911fa6e",
    ((5, 0.9, 1.1), False): "615b02fa21d2b5be2d6afd9a81f178192193dec59f33886f52fd135f01851c72",
}


@pytest.mark.parametrize("case, reduced", list(GOLDEN_MSYS_SHA256), ids=str)
def test_msys_text_matches_golden(case, reduced):
    """The `.msys` text of the paper's system and of every compile-ladder rung is pinned byte for byte."""
    if case == "dubins":
        msys = presets.compile_dubins(reduced=reduced)
    else:
        system = trig_encode(parse_spec(ladder_spec_text(*case)))
        msys = compile_moment_system(system, system.target_moments, reduced=reduced)
    digest = hashlib.sha256(compiler.dumps(msys).encode()).hexdigest()
    assert digest == GOLDEN_MSYS_SHA256[case, reduced]


@functools.lru_cache(maxsize=None)
def compiled_ladder(k: int, reduced: bool = True):
    system = trig_encode(parse_spec(ladder_spec_text(k, 1.013, 0.947)))
    return compile_moment_system(system, system.target_moments, reduced=reduced)


@pytest.mark.parametrize("reduced", [True, False])
@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_ladder_round_trips(k, reduced):
    """Every compile-ladder rung loads back to the same system, with the same array types, and writes the same bytes."""
    msys = compiled_ladder(k, reduced)
    text = compiler.dumps(msys)
    loaded = compiler.loads(text)
    assert loaded == msys
    for ours, theirs in zip(loaded.term_table, msys.term_table):
        assert ours.dtype == theirs.dtype and ours.shape == theirs.shape and ours.flags.c_contiguous
    assert compiler.dumps(loaded) == text


@pytest.mark.parametrize("reduced", [True, False])
def test_targets_without_terms_round_trip(reduced):
    """E[x*y] under x' = 0 has no terms, and E[x], E[x^2] under it make a file with no term lines at all."""
    mixed = trig_encode(parse_spec("state x y\ndisturbance w\ndyn x' = 0\ndyn y' = x*y + w\nmoments x*y y\n"))
    alone = trig_encode(parse_spec("state x\ndisturbance w\ndyn x' = 0\nmoments x x^2\n"))
    for system, lines in ((mixed, ["terms 2", "1 | 1/1 | 0 | 0", "1 | 1/1 | 1 | "]), (alone, ["terms 0"])):
        msys = compile_moment_system(system, system.target_moments, reduced=reduced)
        text = compiler.dumps(msys)
        assert text.endswith("\n".join(lines) + "\n")
        loaded = compiler.loads(text)
        assert loaded == msys
        assert loaded.term_table.fact.shape == (len(lines) - 1, 1)
        assert compiler.dumps(loaded) == text


def _fields_message(line, width):
    return f"term line needs 4 '|'-separated fields: {line!r}"


def _range_message(line, width):
    return f"basis index out of range in term line {line!r}"


def _dist_message(line, width):
    dist = line.split(" | ")[2]
    return f"disturbance multi-index {dist!r} has {len(dist.split())} entries, expected {width}"


# Each kind of defect in one term line: the edit of its fields, given the basis size, and the
# message `loads` gives for the edited line, given the disturbance width.
TERM_LINE_DEFECTS = {
    "five fields": (lambda f, n: [*f, "7"], _fields_message),
    "three fields": (lambda f, n: [f[0], f[1], f[2] + " " + f[3]], _fields_message),
    "zero denominator": (lambda f, n: [f[0], "3/0", *f[2:]], lambda line, _: f"zero denominator in term line {line!r}"),
    "target too large": (lambda f, n: [str(n), *f[1:]], _range_message),
    "negative target": (lambda f, n: ["-1", *f[1:]], _range_message),
    "factor too large": (lambda f, n: [*f[:3], f"{f[3]} {n}"], _range_message),
    "negative factor": (lambda f, n: [*f[:3], f"-1 {f[3]}"], _range_message),
    "long disturbance": (lambda f, n: [*f[:2], f[2] + " 0", f[3]], _dist_message),
    "short disturbance": (lambda f, n: [*f[:2], f[2].rsplit(" ", 1)[0], f[3]], _dist_message),
}


@pytest.mark.parametrize("where", ["middle", "last"])
@pytest.mark.parametrize("defect", list(TERM_LINE_DEFECTS))
def test_loader_names_a_defect_deep_in_the_file(defect, where):
    """One defective term line in the middle or at the end of the k = 5 file: `loads` names that line."""
    msys = compiled_ladder(5)
    lines = compiler.dumps(msys).splitlines()
    at = len(lines) - 1 if where == "last" else len(lines) - len(msys.exact_coeffs) // 2
    edit, message = TERM_LINE_DEFECTS[defect]
    lines[at] = " | ".join(edit(lines[at].split(" | "), len(msys.basis)))
    assert lines.count(lines[at]) == 1
    with pytest.raises(ValueError) as caught:
        compiler.loads("\n".join(lines) + "\n")
    assert str(caught.value) == message(lines[at], len(msys.dist_vars))


def name_lookups(msys):
    """moment_index, moment_series and McEstimate.column, each mapping a name to a basis position."""
    values = np.arange(2.0 * len(msys.basis)).reshape(2, -1)  # row 0 holds the positions
    traj = MomentTrajectory(msys, values)
    mc = oracle.McEstimate(msys.state_vars, tuple(msys.basis), values, values, 2, 0, values[None])

    def series_position(name):
        return int(traj.moment_series(name)[0])

    return msys.moment_index, series_position, mc.column


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_every_spelling_of_a_basis_moment_finds_it(data):
    """A moment's rendered name and any reordering or split of its powers resolve to its basis position."""
    msys = compiled_ladder(data.draw(st.integers(2, 5), label="k"))
    i = data.draw(st.integers(0, len(msys.basis) - 1), label="position")
    factors = []
    for var, e in zip(msys.state_vars, msys.basis[i]):
        while e:  # split x^e into powers that add up to e: x^3 as x*x^2, x*x*x, ...
            part = data.draw(st.integers(1, e))
            factors.append(var if part == 1 else f"{var}^{part}")
            e -= part
    spelling = "*".join(data.draw(st.permutations(factors), label="factors"))
    for lookup in name_lookups(msys):
        assert lookup(monomial_name(msys.state_vars, msys.basis[i])) == i
        assert lookup(spelling) == i


@pytest.mark.parametrize("name", ["q", "x^7", "x+y", "2*x", "x^", "1", ""])
def test_names_outside_the_basis_raise_key_error(dubins_reduced, name):
    for lookup in name_lookups(dubins_reduced):
        with pytest.raises(KeyError, match="not in the compiled basis|was not estimated"):
            lookup(name)


class TestRenderEquations:
    def test_one_equation_per_moment(self, dubins_reduced):
        listing = compiler.render_equations(dubins_reduced)
        lines = listing.splitlines()
        assert len(lines) == len(dubins_reduced.basis)
        assert lines[0].startswith("E[x]' = ")
        assert "E[v]*E[c_theta]" in lines[0]

    def test_coefficient_too_long_to_write_names_the_moment(self):
        """(10^-400)^11 in the update of E[x^11] has more digits than Python writes as text."""
        system = trig_encode(parse_spec("state x\ndisturbance w\ndyn x' = 1e-400*x + w\nmoments x^11\n"))
        msys = compiler.compile_moment_system(system, system.target_moments)
        message = r"^the update of E\[x\^11\] has an exact coefficient too long to write$"
        for write in (compiler.render_equations, compiler.dumps):
            with pytest.raises(ValueError, match=message):
                write(msys)

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
            x1 = [evaluate_polynomial(p, point) for p in system.f]
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
