from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from momentprop.polyring import (
    MultiIndex,
    Polynomial,
    degree_vector,
    monomial_name,
)
from reference import evaluate_polynomial, pow_multiindex

VARS = ("x", "y", "w")
X, Y, W = Polynomial.variables(VARS)
ONE = Polynomial.constant(VARS, 1)
ZERO = Polynomial.zero(VARS)


coeffs = st.fractions(min_value=-4, max_value=4, max_denominator=3)
indices = st.tuples(*(st.integers(0, 3) for _ in VARS)).map(MultiIndex)
polynomials = st.dictionaries(indices, coeffs, max_size=4).map(lambda d: Polynomial(VARS, d))
assignments = st.tuples(*(st.fractions(min_value=-3, max_value=3, max_denominator=4) for _ in VARS)).map(
    lambda vals: dict(zip(VARS, vals))
)


class TestMultiIndex:
    def test_total_degree_and_support(self):
        mi = MultiIndex((3, 0, 1))
        assert mi.total_degree() == 4
        assert mi.support() == (0, 2)
        assert not mi.is_zero()
        assert MultiIndex.zero(3).is_zero()

    def test_rejects_negative_entries(self):
        with pytest.raises(ValueError):
            MultiIndex((1, -1))

    def test_plus_and_split(self):
        a = MultiIndex((1, 2, 0))
        b = MultiIndex((0, 1, 3))
        assert a.plus(b) == MultiIndex((1, 3, 3))
        head, tail = MultiIndex((1, 2, 0, 3)).split(2)
        assert head == MultiIndex((1, 2)) and tail == MultiIndex((0, 3))

    def test_masked(self):
        assert MultiIndex((2, 1, 3)).masked([0, 2]) == MultiIndex((2, 0, 3))

    @pytest.mark.parametrize("bad", [(1, -1), (True, 0), (1, 1.0), ("1", 0), (Fraction(1), 0)], ids=repr)
    def test_constructor_rejects_invalid_entries(self, bad):
        with pytest.raises(ValueError):
            MultiIndex(bad)

    def test_plus_rejects_length_mismatch(self):
        with pytest.raises(ValueError, match="length mismatch"):
            MultiIndex((1, 2)).plus(MultiIndex((1, 2, 3)))

    @given(indices, indices)
    @settings(max_examples=60, deadline=None)
    def test_derived_indices_equal_validated_ones(self, a, b):
        """`plus`, `split` and `masked` skip re-validation; their results equal checked ones."""
        derived = [a.plus(b), *a.split(1), a.masked([0, 2])]
        checked = [
            MultiIndex(x + y for x, y in zip(a, b)),
            MultiIndex(a[:1]),
            MultiIndex(a[1:]),
            MultiIndex((a[0], 0, a[2])),
        ]
        assert derived == checked
        assert all(type(mi) is MultiIndex for mi in derived)

    def test_monomial_names(self):
        assert monomial_name(VARS, MultiIndex((0, 0, 0))) == "1"
        assert monomial_name(VARS, MultiIndex((2, 1, 0))) == "x^2*y"


class TestArithmetic:
    def test_add_cancellation(self):
        assert (X + ONE) + (-X) == ONE

    def test_add_keeps_degree(self):
        p = X * X + Y
        assert p.degree() == 2
        assert str(p) == "x^2 + y"

    def test_add_identity(self):
        p = 3 * X * Y - W
        assert p + ZERO == p

    def test_mul_difference_of_squares(self):
        assert (X + Y) * (X - Y) == X**2 - Y**2

    def test_mul_identity(self):
        p = X**2 + 2 * Y
        assert p * ONE == p

    def test_mul_example_expansion(self):
        # (x + yw)^2 = x^2 + 2xyw + y^2 w^2, degree 4
        p = (X + Y * W) * (X + Y * W)
        expected = X**2 + 2 * X * Y * W + Y**2 * W**2
        assert p == expected
        assert p.degree() == 4

    def test_ambient_mismatch_raises(self):
        other = Polynomial.variable(("a", "b"), "a")
        with pytest.raises(ValueError, match="ambient"):
            _ = X + other
        with pytest.raises(ValueError, match="ambient"):
            _ = X * other

    def test_float_coefficients_rejected(self):
        with pytest.raises(TypeError):
            Polynomial(VARS, {MultiIndex((1, 0, 0)): 0.5})

    def test_degree_rules(self):
        assert (X**2 * Y).degree() == 3
        assert Polynomial.constant(VARS, 5).degree() == 0
        assert ZERO.degree() == 0
        # deg(p^n) = n * deg(p)
        assert ((X + ONE) ** 3).degree() == 3

    def test_pow_zero_is_one(self):
        assert (X + Y) ** 0 == ONE


class TestPowMultiindex:
    def test_plain_monomial(self):
        result = pow_multiindex((X, Y), MultiIndex((3, 1)))
        assert result == X**3 * Y

    def test_all_zeros_gives_one(self):
        assert pow_multiindex((X + W, Y), MultiIndex((0, 0))) == ONE

    def test_cross_term_expansion(self):
        # (x+w)(x-w) = x^2 - w^2, degree 2 = 1*1 + 1*1
        result = pow_multiindex((X + W, X - W), MultiIndex((1, 1)))
        assert result == X**2 - W**2
        assert result.degree() == 2

    def test_degree_matches_weighted_sum(self):
        pvec = (X**2 + Y, W)
        alpha = MultiIndex((2, 1))
        sigma = degree_vector(pvec)
        assert pow_multiindex(pvec, alpha).degree() == 2 * sigma[0] + 1 * sigma[1]

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            pow_multiindex((X, Y), MultiIndex((1, 1, 1)))


class TestRingProperties:
    @given(polynomials, polynomials)
    @settings(max_examples=80, deadline=None)
    def test_commutativity(self, p, q):
        assert p + q == q + p
        assert p * q == q * p

    @given(polynomials, polynomials, polynomials)
    @settings(max_examples=60, deadline=None)
    def test_associativity_distributivity(self, p, q, r):
        assert (p + q) + r == p + (q + r)
        assert (p * q) * r == p * (q * r)
        assert p * (q + r) == p * q + p * r

    @given(polynomials)
    @settings(max_examples=60, deadline=None)
    def test_canonicalization_idempotent(self, p):
        assert Polynomial(p.vars, dict(p.terms)) == p
        assert all(c != 0 for c in p.terms.values())

    @given(polynomials, polynomials, assignments)
    @settings(max_examples=80, deadline=None)
    def test_evaluation_homomorphism(self, p, q, point):
        assert evaluate_polynomial(p * q, point) == evaluate_polynomial(p, point) * evaluate_polynomial(q, point)
        assert evaluate_polynomial(p + q, point) == evaluate_polynomial(p, point) + evaluate_polynomial(q, point)

    @given(indices, indices)
    @settings(max_examples=60, deadline=None)
    def test_disjoint_leading_monomial_degrees(self, a, b):
        p = Polynomial(VARS, {a: Fraction(1)})
        q = Polynomial(VARS, {b: Fraction(2)})
        assert (p * q).degree() == p.degree() + q.degree()

    @given(polynomials, polynomials)
    @settings(max_examples=80, deadline=None)
    def test_product_equals_validated_rebuild(self, p, q):
        """The product skips the constructor's checks; it equals a product built through them."""
        terms = {}
        for a, ca in p.terms.items():
            for b, cb in q.terms.items():
                key = MultiIndex(x + y for x, y in zip(a, b))
                terms[key] = terms.get(key, Fraction(0)) + ca * cb
        product = p * q
        assert product == Polynomial(VARS, terms)
        assert all(c != 0 and type(c) is Fraction for c in product.terms.values())
        assert all(type(mi) is MultiIndex and len(mi) == len(VARS) for mi in product.terms)

    def test_product_drops_cancelled_terms(self):
        product = (X + ONE) * (X - ONE)
        assert dict(product.terms) == {MultiIndex((2, 0, 0)): Fraction(1), MultiIndex((0, 0, 0)): Fraction(-1)}

    def test_insertion_order_irrelevant(self):
        t1 = {MultiIndex((1, 0, 0)): Fraction(1), MultiIndex((0, 2, 0)): Fraction(-2)}
        t2 = dict(reversed(list(t1.items())))
        assert Polynomial(VARS, t1) == Polynomial(VARS, t2)
