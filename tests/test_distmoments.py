import itertools
import math
import sys
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

from momentprop import _kernels, distmoments
from momentprop.distmoments import (
    Beta,
    Degenerate,
    DisturbanceModel,
    Gaussian,
    Uniform,
    UnsupportedMomentError,
    char_fn,
    raw_moment,
    sample,
    trig_moment,
)
from momentprop.polyring import MultiIndex
from momentprop.sysspec import TrigPair, parse_spec, trig_encode
from reference import moment, numpy_trig_moments, trig_moments_python


def quad_trig_moment(dist, shift, m, n):
    """Independent oracle: adaptive quadrature of cos^m sin^n against the density."""

    def integrand_gauss(z, mu, sigma):
        x = mu + sigma * z
        return math.cos(x) ** m * math.sin(x) ** n * math.exp(-z * z / 2) / math.sqrt(2 * math.pi)

    if isinstance(dist, Gaussian):
        mu = dist.mean + shift
        sigma = math.sqrt(dist.variance)
        val, err = integrate.quad(
            integrand_gauss, -12, 12, args=(mu, sigma), epsabs=1e-13, epsrel=1e-13, limit=400
        )
        return val
    if isinstance(dist, Uniform):
        a, b = dist.lower + shift, dist.upper + shift
        val, err = integrate.quad(
            lambda x: math.cos(x) ** m * math.sin(x) ** n,
            a, b, epsabs=1e-13, epsrel=1e-13, limit=400,
        )
        return val / (b - a)
    raise NotImplementedError


class TestCharFn:
    def test_degenerate_is_unit_phasor(self):
        theta = 0.73
        value = char_fn(Degenerate(theta), 0.0, 1)
        assert value == pytest.approx(complex(math.cos(theta), math.sin(theta)), abs=1e-15)

    def test_standard_gaussian_real(self):
        sigma2 = 0.5
        value = char_fn(Gaussian(0.0, sigma2), 0.0, 1)
        assert value.imag == 0.0
        assert value.real == pytest.approx(math.exp(-sigma2 / 2), rel=1e-14)

    def test_gaussian_shifted_second_harmonic(self):
        mu, sigma2, u = 0.3, 0.2, 0.11
        value = char_fn(Gaussian(mu, sigma2), u, 2)
        expected = complex(math.cos(2 * (mu + u)), math.sin(2 * (mu + u))) * math.exp(-2 * sigma2)
        assert value == pytest.approx(expected, rel=1e-13)
        # quadrature cross-check of E[e^{2iX}]
        re, _ = integrate.quad(
            lambda z: math.cos(2 * (mu + u + math.sqrt(sigma2) * z))
            * math.exp(-z * z / 2) / math.sqrt(2 * math.pi),
            -12, 12, epsabs=1e-12,
        )
        assert value.real == pytest.approx(re, abs=1e-9)

    def test_uniform_zero_frequency(self):
        assert char_fn(Uniform(-1.0, 2.0), 0.0, 0) == 1.0

    def test_beta_unsupported(self):
        with pytest.raises(UnsupportedMomentError):
            char_fn(Beta(2, 3), 0.0, 1)

    @pytest.mark.parametrize("shift", [0.0, -0.0, 1e-300, -1e-300, 0.3, 1e12, math.inf, -math.inf, math.nan])
    def test_degenerate_is_gaussian_of_variance_zero(self, shift):
        """Degenerate(v) takes the Gaussian formula with variance 0, and gets the bits of exp(1j t (v + s))."""
        t_all = np.array([-64, -1, 0, 1, 2, 64])
        for v in (0.0, -0.0, 0.73, -2.5):
            for t in (t_all, *t_all):
                with np.errstate(invalid="ignore"):  # an infinite shift gives NaN
                    got = np.asarray(char_fn(Degenerate(v), shift, t))
                    formula = np.exp(1j * np.asarray(t) * (v + np.asarray(shift)))
                    gaussian = np.asarray(char_fn(Gaussian(v, 0.0), shift, t))
                assert got.tobytes() == formula.tobytes() == gaussian.tobytes()

    def test_array_shift_broadcast(self):
        shifts = np.array([0.0, 0.1, 0.2])
        values = char_fn(Gaussian(0.0, 1.0), shifts, 1)
        assert values.shape == (3,)
        for u, v in zip(shifts, values):
            assert v == pytest.approx(char_fn(Gaussian(0.0, 1.0), float(u), 1), rel=1e-14)


class TestTrigMoments:
    def test_odd_gaussian_sine_vanishes(self):
        assert trig_moment(Gaussian(0.0, 0.4), 0.0, 0, 1) == pytest.approx(0.0, abs=1e-15)

    def test_degenerate_matches_direct(self):
        theta = 1.1
        for m, n in [(1, 0), (0, 1), (2, 1), (3, 2)]:
            expected = math.cos(theta) ** m * math.sin(theta) ** n
            assert trig_moment(Degenerate(theta), 0.0, m, n) == pytest.approx(expected, abs=1e-14)

    def test_mixed_first_moment_closed_form(self):
        mu, sigma2 = 0.37, 0.15
        expected = 0.5 * math.exp(-2 * sigma2) * math.sin(2 * mu)
        assert trig_moment(Gaussian(mu, sigma2), 0.0, 1, 1) == pytest.approx(expected, rel=1e-13)
        assert trig_moment(Gaussian(mu, sigma2), 0.0, 1, 1) == pytest.approx(
            quad_trig_moment(Gaussian(mu, sigma2), 0.0, 1, 1), abs=1e-9
        )

    @pytest.mark.parametrize("dist", [Gaussian(0.04, 0.03), Uniform(-0.4, 0.9)])
    def test_quadrature_agreement_sample(self, dist):
        for m, n in [(1, 0), (0, 2), (2, 2), (3, 1), (0, 5)]:
            expected = quad_trig_moment(dist, 0.1, m, n)
            assert trig_moment(dist, 0.1, m, n) == pytest.approx(expected, abs=1e-9)

    @pytest.mark.parametrize(
        "dist",
        [Gaussian(0.0, 1e-8), Gaussian(-1.0, 1.0), Uniform(0.0, math.pi), Degenerate(0.6)],
    )
    @pytest.mark.parametrize("shift", [0.0, -0.7, 2.5])
    def test_pythagoras(self, dist, shift):
        total = trig_moment(dist, shift, 2, 0) + trig_moment(dist, shift, 0, 2)
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_boundedness(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            dist = Gaussian(rng.uniform(-2, 2), rng.uniform(0, 2))
            m, n = int(rng.integers(0, 4)), int(rng.integers(0, 4))
            if m + n == 0:
                continue
            assert abs(trig_moment(dist, rng.uniform(-1, 1), m, n)) <= 1.0 + 1e-12

    def test_requires_positive_order(self):
        with pytest.raises(ValueError):
            trig_moment(Gaussian(0, 1), 0.0, 0, 0)

    def test_beta_unsupported(self):
        with pytest.raises(UnsupportedMomentError, match="^trigonometric moments of beta-distributed angles are not "
                                                          "supported$"):
            trig_moment(Beta(10, 1000), 0.0, 1, 0)

    def test_array_shift(self):
        shifts = np.linspace(-1, 1, 7)
        values = trig_moment(Gaussian(0.1, 0.2), shifts, 2, 1)
        for u, v in zip(shifts, values):
            assert v == pytest.approx(trig_moment(Gaussian(0.1, 0.2), float(u), 2, 1), rel=1e-12, abs=1e-15)

    @pytest.mark.parametrize("dist", [Gaussian(0.04, 0.03), Uniform(-0.4, 0.9), Degenerate(1.3)])
    def test_scalar_shift_equals_array_shift(self, dist):
        shifts = np.linspace(-3.0, 3.0, 13)
        for m in range(7):
            for n in range(0 if m else 1, 7):
                values = trig_moment(dist, shifts, m, n)
                for u, v in zip(shifts, values):
                    got = trig_moment(dist, float(u), m, n)
                    assert type(got) is float
                    assert got == v


class TestRawMoments:
    def test_beta_first_moment(self):
        assert raw_moment(Beta(10, 1000), 0.0, 1) == pytest.approx(10 / 1010, rel=1e-14)

    def test_beta_against_mc(self):
        rng = np.random.default_rng(9)
        x = sample(Beta(10, 1000), rng, 10**7)
        for k in (1, 2, 3):
            est = float(np.mean(x**k))
            se = float(np.std(x**k, ddof=1) / np.sqrt(len(x)))
            assert abs(raw_moment(Beta(10, 1000), 0.0, k) - est) <= 5 * se

    def test_zeroth_moment_is_one(self):
        for dist in (Degenerate(2.0), Gaussian(1, 2), Uniform(0, 1), Beta(2, 5)):
            assert raw_moment(dist, 0.3, 0) == 1.0

    def test_gaussian_second_moment(self):
        assert raw_moment(Gaussian(0.0, 0.7), 0.0, 2) == pytest.approx(0.7, rel=1e-14)

    def test_gaussian_fourth_moment(self):
        sigma2 = 0.9
        assert raw_moment(Gaussian(0.0, sigma2), 0.0, 4) == pytest.approx(3 * sigma2**2, rel=1e-13)

    def test_uniform_closed_form(self):
        a, b = -0.5, 1.5
        for k in range(5):
            expected = (b ** (k + 1) - a ** (k + 1)) / ((k + 1) * (b - a))
            assert raw_moment(Uniform(a, b), 0.0, k) == pytest.approx(expected, rel=1e-13)

    @pytest.mark.parametrize(
        "dist", [Gaussian(0.3, 0.5), Uniform(-1, 2), Beta(3, 4), Degenerate(1.7)]
    )
    def test_shift_consistency(self, dist):
        """E[(X+u)^k] must equal the binomial recombination of unshifted moments."""
        u = 0.37
        for k in range(5):
            recombined = sum(
                math.comb(k, j) * u ** (k - j) * raw_moment(dist, 0.0, j) for j in range(k + 1)
            )
            direct = raw_moment(dist, u, k)
            assert direct == pytest.approx(recombined, rel=1e-12, abs=1e-12)

    def test_degenerate_power(self):
        assert raw_moment(Degenerate(2.0), 1.0, 3) == pytest.approx(27.0)

    @pytest.mark.parametrize(
        "dist, expected, rel",
        [
            (Uniform(1e4, 1e4 + 0.01), 0.01**2 / 12, 1e-7),
            (Gaussian(1e5, 1e-8), 1e-8, 0.0),
            (Gaussian(0.04, 0.03), 0.03, 0.0),
        ],
        ids=["uniform-far-from-zero", "gaussian-far-from-zero", "gaussian-dubins"],
    )
    def test_variance_does_not_cancel(self, dist, expected, rel):
        """A mean that dwarfs the spread must not swamp the variance (E[X^2] - E[X]^2 does); a Gaussian's is exact."""
        assert distmoments.variance(dist) == pytest.approx(expected, rel=rel, abs=0.0)


SHIFTS_300 = np.random.default_rng(11).uniform(-3.0, 3.0, 300)


@pytest.mark.parametrize(
    "dist",
    [Degenerate(0.7), Gaussian(0.3, 0.5), Uniform(-0.4, 1.1), Beta(2.5, 4.0)],
    ids=["degenerate", "gaussian", "uniform", "beta"],
)
def test_scalar_shift_rounds_like_its_array_element(dist):
    """A scalar query gives the bits of its element in an array query, for raw and trig moments."""
    for k in range(1, 9):
        values = raw_moment(dist, SHIFTS_300, k)
        scalars = np.array([raw_moment(dist, float(u), k) for u in SHIFTS_300])
        np.testing.assert_array_equal(scalars.view(np.int64), values.view(np.int64), err_msg=f"raw order {k}")
        if isinstance(dist, Beta):
            continue
        for m, n in [(k, 0), (0, k), (k - k // 2, k // 2)]:
            values = trig_moment(dist, SHIFTS_300, m, n)
            scalars = np.array([trig_moment(dist, float(u), m, n) for u in SHIFTS_300])
            np.testing.assert_array_equal(scalars.view(np.int64), values.view(np.int64), err_msg=f"trig ({m}, {n})")


class TestDisturbanceModel:
    def setup_method(self):
        self.system = trig_encode(
            parse_spec(
                "state x theta\nangle theta\ndisturbance wv wt\n"
                "dyn x' = x + wv\ndyn theta' = theta + wt\n"
            )
        )

    def test_product_rule(self):
        model = DisturbanceModel(
            self.system,
            {"wv": Beta(10, 1000), "wt": Gaussian(0.04, 0.03)},
        )
        # dist vars are (wv, c_wt, s_wt); query E[wv * c_wt^2]
        beta_w = MultiIndex((1, 2, 0))
        expected = raw_moment(Beta(10, 1000), 0.0, 1) * trig_moment(Gaussian(0.04, 0.03), 0.0, 2, 0)
        assert moment(model, beta_w, 0) == pytest.approx(expected, rel=1e-13)

    def test_product_rule_against_mc(self):
        model = DisturbanceModel(
            self.system, {"wv": Beta(10, 1000), "wt": Gaussian(0.04, 0.03)}
        )
        rng = np.random.default_rng(4)
        n = 10**6
        wv = sample(Beta(10, 1000), rng, n)
        wt = sample(Gaussian(0.04, 0.03), rng, n)
        values = wv * np.cos(wt) ** 2
        est, se = float(np.mean(values)), float(np.std(values, ddof=1) / math.sqrt(n))
        assert abs(moment(model, MultiIndex((1, 2, 0)), 0) - est) <= 5 * se

    def test_all_zero_index_is_one(self):
        model = DisturbanceModel(self.system, {"wv": Gaussian(0, 1), "wt": Gaussian(0, 1)})
        assert moment(model, MultiIndex((0, 0, 0)), 5) == 1.0

    def test_degenerate_monomial_evaluation(self):
        model = DisturbanceModel(
            self.system, {"wv": Degenerate(0.5), "wt": Degenerate(0.2)}
        )
        beta_w = MultiIndex((2, 1, 1))
        expected = 0.25 * math.cos(0.2) * math.sin(0.2)
        assert moment(model, beta_w, 0) == pytest.approx(expected, rel=1e-13)

    def test_shift_schedule_and_horizon(self):
        model = DisturbanceModel(
            self.system,
            {"wv": Gaussian(0, 1), "wt": Gaussian(0, 1)},
            shifts={"wt": [0.1, 0.2]},
        )
        first = moment(model, MultiIndex((0, 1, 0)), 0)
        second = moment(model, MultiIndex((0, 1, 0)), 1)
        assert first == pytest.approx(trig_moment(Gaussian(0, 1), 0.1, 1, 0), rel=1e-13)
        assert second == pytest.approx(trig_moment(Gaussian(0, 1), 0.2, 1, 0), rel=1e-13)
        with pytest.raises(IndexError):
            moment(model, MultiIndex((0, 1, 0)), 2)

    @pytest.mark.parametrize(
        "steps, needed",
        [(-1, "-1 to -1"), (3, "3 to 3"), (np.array([0, 1, -1]), "-1 to 1"), (np.array([2, 3, 1]), "1 to 3")],
        ids=["negative", "past-the-end", "array-with-a-negative", "array-past-the-end"],
    )
    def test_steps_off_the_schedule_rejected(self, steps, needed):
        """A negative step is not indexed from the end of the schedule."""
        model = DisturbanceModel(
            self.system, {"wv": Gaussian(0, 1), "wt": Gaussian(0, 1)}, shifts={"wt": [0.1, 0.2, 0.3]}
        )
        message = f"shift schedule for 'wt' has length 3, needed steps {needed}"
        with pytest.raises(IndexError, match=message):
            model.shift_at("wt", steps)
        with pytest.raises(IndexError, match=message):
            moment(model, MultiIndex((0, 1, 0)), steps)
        with pytest.raises(IndexError, match="shift schedule for 'wt' has length 3, needed steps 0 to 3"):
            model.moment_table([MultiIndex((0, 1, 0))], 4)

    def test_scalar_step_moment_equals_table_row(self):
        model = DisturbanceModel(
            self.system, {"wv": Gaussian(0.1, 0.2), "wt": Gaussian(0, 1)}, shifts={"wv": [0.5, 0.6, 0.7]}
        )
        requirements = [MultiIndex((k, 0, 0)) for k in range(5)]
        table = model.moment_table(requirements, 3)
        for t in range(3):
            np.testing.assert_array_equal([moment(model, beta, t) for beta in requirements], table[t])

    def test_unknown_shift_rejected(self):
        with pytest.raises(KeyError):
            DisturbanceModel(
                self.system,
                {"wv": Gaussian(0, 1), "wt": Gaussian(0, 1)},
                shifts={"nope": [0.0]},
            )

    def test_moment_table_matches_scalar_path(self):
        model = DisturbanceModel(
            self.system,
            {"wv": Uniform(-0.1, 0.2), "wt": Gaussian(0.0, 0.5)},
            shifts={"wt": np.linspace(0, 1, 5), "wv": np.zeros(5)},
        )
        reqs = [MultiIndex((1, 0, 0)), MultiIndex((0, 2, 1)), MultiIndex((0, 0, 0))]
        table = model.moment_table(reqs, 5)
        assert table.shape == (5, 3)
        for t in range(5):
            for j, beta in enumerate(reqs):
                assert table[t, j] == pytest.approx(float(moment(model, beta, t)), rel=1e-12)

    ALL_UP_TO_4 = [
        MultiIndex((a, b, c)) for a in range(5) for b in range(5) for c in range(5) if a + b + c <= 4
    ]

    @pytest.mark.parametrize("angle", [Degenerate(0.3), Gaussian(0.04, 0.03), Uniform(-0.2, 0.5)])
    def test_moment_table_equals_per_step_moments(self, angle):
        """Shifted schedules on both slots, Beta on the raw slot, every index of degree <= 4."""
        rng = np.random.default_rng(5)
        n_steps = 12
        model = DisturbanceModel(
            self.system,
            {"wv": Beta(10, 1000), "wt": angle},
            shifts={"wt": rng.uniform(-2, 2, n_steps + 3), "wv": rng.uniform(-0.1, 0.1, n_steps + 3)},
        )
        table = model.moment_table(self.ALL_UP_TO_4, n_steps)
        assert table.shape == (n_steps, len(self.ALL_UP_TO_4))
        expected = np.array([[moment(model, beta, k) for beta in self.ALL_UP_TO_4] for k in range(n_steps)])
        np.testing.assert_allclose(table, expected, rtol=1e-14, atol=0)

    def test_moment_table_layout_follows_requirements(self):
        model = DisturbanceModel(self.system, {"wv": Gaussian(0.1, 0.2), "wt": Gaussian(0.3, 0.1)})
        first = model.moment_table(self.ALL_UP_TO_4, 2)
        assert first.strides[0] == 0 and not first.flags.writeable  # stationary: one broadcast row
        reqs = [MultiIndex((0, 1, 1)), MultiIndex((2, 0, 0))]
        columns = [self.ALL_UP_TO_4.index(r) for r in reqs]
        np.testing.assert_array_equal(model.moment_table(reqs, 2), first[:, columns])
        assert model.moment_table([], 2).shape == (2, 0)
        assert model.moment_table(reqs, 0).shape == (0, 2)

    @pytest.mark.parametrize(
        "layouts",
        [
            ((("a", "b"), ()), (("b", "a"), ())),
            ((("w", "c_u", "s_u"), (TrigPair("c_u", "s_u", "u"),)), (("c_u", "s_u", "w"), (TrigPair("c_u", "s_u", "u"),))),
        ],
        ids=["raw-swapped", "raw-and-pair-swapped"],
    )
    def test_moment_table_layout_keyed_on_disturbance_layout(self, layouts):
        """Equal requirement lists over different disturbance layouts get their own tables."""
        distributions = {"a": Gaussian(0.3, 0.2), "b": Uniform(-0.5, 1.5), "w": Beta(2, 3), "u": Gaussian(0.1, 0.4)}
        requirements = [MultiIndex((1, 0, 0)), MultiIndex((0, 2, 1)), MultiIndex((2, 1, 1)), MultiIndex((0, 0, 0))]
        tables = []
        for dist_vars, pairs in layouts:
            # A model reads only the layout of the system it is bound to.
            system = SimpleNamespace(dist_vars=dist_vars, dist_pairs=pairs)
            reqs = [MultiIndex(beta[: len(dist_vars)]) for beta in requirements]
            model = DisturbanceModel(system, distributions)
            table = model.moment_table(reqs, 3)
            expected = np.array([[moment(model, beta, t) for beta in reqs] for t in range(3)])
            np.testing.assert_array_equal(table, expected)
            tables.append(table)
        assert not np.array_equal(tables[0], tables[1])

    def test_moment_table_rejects_non_real_residue(self, monkeypatch):
        from momentprop import distmoments

        # The C trig_moments does not call char_fn (test_c_trig_moments_reject_non_real_sums covers it); its twin does.
        monkeypatch.setattr(_kernels, "trig_moments", trig_moments_python)
        original = distmoments.char_fn
        monkeypatch.setattr(distmoments, "char_fn", lambda dist, shift, t: original(dist, shift, t) + 1e-9j)
        model = DisturbanceModel(self.system, {"wv": Gaussian(0, 1), "wt": Gaussian(0, 1)})
        with pytest.raises(ArithmeticError, match="non-real residue"):
            model.moment_table([MultiIndex((0, 1, 0))], 3)

    def test_moment_table_beta_angle_unsupported(self):
        model = DisturbanceModel(self.system, {"wv": Gaussian(0, 1), "wt": Beta(2, 3)})
        assert model.moment_table([MultiIndex((1, 0, 0))], 2).shape == (2, 1)
        with pytest.raises(UnsupportedMomentError):
            model.moment_table([MultiIndex((1, 0, 0)), MultiIndex((0, 0, 1))], 2)

    @pytest.mark.parametrize("kind", list(distmoments.KINDS))
    def test_trig_answer_is_one_per_family(self, kind):
        """char_fn, trig_moment and a trig column of moment_table: all finite, or all one UnsupportedMomentError."""
        params = {"degenerate": (0.7,), "gaussian": (0.04, 0.03), "uniform": (-0.4, 0.9), "beta": (2, 3)}[kind]
        dist = distmoments.KINDS[kind](*params)
        model = DisturbanceModel(self.system, {"wv": Gaussian(0, 1), "wt": dist})
        assert model.moment_table([MultiIndex((1, 0, 0))], 2).shape == (2, 1)  # raw columns need no trig moment
        queries = (
            lambda: char_fn(dist, 0.0, 1),
            lambda: trig_moment(dist, 0.0, 0, 1),
            lambda: model.moment_table([MultiIndex((1, 0, 0)), MultiIndex((0, 0, 1))], 2)[:, 1],
        )
        answers = set()
        for query in queries:
            try:
                answers.add(bool(np.all(np.isfinite(query()))))
            except UnsupportedMomentError as exc:
                answers.add(str(exc))
        unsupported = "trigonometric moments of beta-distributed angles are not supported"
        assert answers == {unsupported if kind == "beta" else True}

    def test_missing_distribution(self):
        with pytest.raises(KeyError, match="wt"):
            DisturbanceModel(self.system, {"wv": Gaussian(0, 1)})


class TestCachedTable:
    """moment_table evaluates scheduled slots per call and takes everything else from a cache."""

    # Raw slots a (scheduled) and b, trig slots u (scheduled) and z, interleaved in the layout.
    SYSTEM = SimpleNamespace(
        dist_vars=("c_u", "a", "s_u", "c_z", "b", "s_z"),
        dist_pairs=(TrigPair("c_u", "s_u", "u"), TrigPair("c_z", "s_z", "z", Fraction(1, 3))),
    )
    REQUIREMENTS = [MultiIndex(e) for e in itertools.product(range(3), repeat=6) if sum(e) <= 3]
    N_STEPS = 7

    def model(self, raw, angle, other=Gaussian(0.2, 0.3)):
        rng = np.random.default_rng(9)
        schedule = {"a": rng.uniform(-0.5, 0.5, 10), "u": rng.uniform(-2, 2, 10)}
        return DisturbanceModel(self.SYSTEM, {"a": raw, "b": other, "u": angle, "z": angle}, schedule)

    def expected(self, model):
        steps = np.arange(self.N_STEPS)
        return np.stack([moment(model, beta, steps) for beta in self.REQUIREMENTS], axis=1)

    @pytest.mark.parametrize(
        "raw, angle",
        [
            (Degenerate(0.4), Degenerate(-0.7)),
            (Gaussian(0.3, 0.2), Gaussian(0.04, 0.03)),
            (Uniform(-0.2, 0.9), Uniform(-1.0, 0.5)),
            (Beta(2.5, 4.0), Gaussian(-0.3, 0.5)),
        ],
        ids=["degenerate", "gaussian", "uniform", "beta"],
    )
    def test_equals_moment_bit_for_bit(self, raw, angle, monkeypatch):
        """Scheduled and unscheduled slots of each kind, equal to `moment` over an array of steps."""
        model = self.model(raw, angle, other=raw)
        expected = self.expected(model)
        np.testing.assert_array_equal(model.moment_table(self.REQUIREMENTS, self.N_STEPS), expected)
        # The twin of the C trig_moments calls char_fn, so the calls can be counted.
        monkeypatch.setattr(_kernels, "trig_moments", trig_moments_python)
        calls = []
        original = distmoments.char_fn
        monkeypatch.setattr(distmoments, "char_fn", lambda *args: calls.append(args) or original(*args))
        table = model.moment_table(self.REQUIREMENTS, self.N_STEPS)  # from the cache
        np.testing.assert_array_equal(table, expected)
        assert len(calls) == 1 and np.shape(calls[0][2]) == (7, 1)  # u only: one call over its frequencies -3..3
        table[:] = np.nan  # the result is the caller's; the cache is untouched
        np.testing.assert_array_equal(model.moment_table(self.REQUIREMENTS, self.N_STEPS), expected)

    def test_stationary_table_is_one_cached_row(self, monkeypatch):
        """With no schedule the plan holds the finished row: a call multiplies nothing and returns a view of it."""
        model = DisturbanceModel(self.SYSTEM, dict.fromkeys("abuz", Gaussian(0.2, 0.3)))
        first = model.moment_table(self.REQUIREMENTS, self.N_STEPS)
        np.testing.assert_array_equal(first, self.expected(model))
        monkeypatch.setattr(distmoments, "_products", None)  # a call that multiplied would raise
        later = model.moment_table(self.REQUIREMENTS, 1000)
        assert later.strides[0] == first.strides[0] == 0 and not later.flags.writeable
        assert later.base is first.base
        np.testing.assert_array_equal(later[999], first[0])

    def test_same_layout_different_distributions(self):
        """A cache keyed on the layout alone would hand the second model the first one's table."""
        tables = []
        for other in (Gaussian(0.2, 0.3), Uniform(-0.2, 0.9)):
            model = self.model(Gaussian(0.1, 0.4), Gaussian(0.04, 0.03), other)
            table = model.moment_table(self.REQUIREMENTS, self.N_STEPS)
            np.testing.assert_array_equal(table, self.expected(model))
            tables.append(table)
        assert not np.array_equal(tables[0], tables[1])
        stationary = [
            DisturbanceModel(self.SYSTEM, dict.fromkeys("abuz", dist)).moment_table(self.REQUIREMENTS, 3)
            for dist in (Gaussian(0.2, 0.3), Gaussian(0.2, 0.4))
        ]
        assert not np.array_equal(stationary[0], stationary[1])


def test_model_bound_to_polynomial_or_compiled_system_gives_same_table(dubins_system, dubins_reduced):
    shifts = {"wt": np.linspace(-0.3, 0.3, 12), "wv": np.linspace(0.0, 0.01, 12)}
    tables = [
        DisturbanceModel(system, {"wv": Beta(10, 1000), "wt": Gaussian(0.04, 0.03)}, shifts).moment_table(
            dubins_reduced.dist_requirements, 12
        )
        for system in (dubins_system, dubins_reduced)
    ]
    assert np.array_equal(tables[0].view(np.int64), tables[1].view(np.int64))


# -- the C trigonometric moments ----------------------------------------------

ORDERS_TO_8 = [(m, n) for m in range(9) for n in range(9) if 1 <= m + n <= 8]
SPECIAL_SHIFTS = [1e6, -1e6, math.inf, -math.inf, math.nan, 0.0, -0.0]


def _out(n_steps, n_pairs, layout):
    """A (steps, pairs) float64 array of the given layout, filled with a marker."""
    if layout == "columns of a wider table":  # as moment_table passes its slot's columns
        return np.full((n_steps, n_pairs + 3), -7.0)[:, 2 : 2 + n_pairs]
    if layout == "every other column":
        return np.full((n_steps, 2 * n_pairs), -7.0)[:, ::2]
    if layout == "column-major":
        return np.asfortranarray(np.full((n_steps, n_pairs), -7.0))
    return np.full((n_steps, n_pairs), -7.0)


@settings(max_examples=400, deadline=None)
@given(data=st.data())
def test_c_trig_moments_match_numpy_twin(data):
    """The C trig_moments equals the numpy formula (`numpy_trig_moments`) bit for bit, moments and residue.

    Gaussian and degenerate angles (the C code takes the latter as variance
    0); variances whose exp(-variance t^2 / 2) underflows to a subnormal or
    to 0, where a fused and an unfused product give zeros of different signs;
    infinite and NaN shifts, which leave NaN moments and a NaN residue.
    """
    # (1, 0) always: its real coefficients at frequencies -1 and 1 are a Laurent sum whose every term can round to 0.
    others = data.draw(
        st.lists(st.sampled_from([pair for pair in ORDERS_TO_8 if pair != (1, 0)]), max_size=3, unique=True)
    )
    pairs = tuple(data.draw(st.permutations([(1, 0), *others])))
    freqs, coefficients = distmoments._laurent_matrix(pairs)
    n_steps = data.draw(st.sampled_from([0, 1, 40, 1000]))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    shifts = rng.uniform(-4.0, 4.0, n_steps) * data.draw(st.sampled_from([1e-3, 1.0, 1e3]))
    for _ in range(data.draw(st.integers(0, 4)) if n_steps else 0):
        shifts[data.draw(st.integers(0, n_steps - 1))] = data.draw(st.sampled_from(SPECIAL_SHIFTS))
    base = data.draw(st.sampled_from([0.0, -0.0, 1 / 3]) | st.floats(-4.0, 4.0))
    loc = data.draw(st.sampled_from([0.0, -0.0]) | st.floats(-4.0, 4.0))
    if data.draw(st.booleans()):
        dist, variance = Degenerate(loc), 0.0
    else:
        # At frequency t the factor is exp(-e), e = variance t^2 / 2: subnormal for e in (708.4, 744.4), and within
        # a few ulps of 0 for e near 744, where half of it rounds to zero (at the first-order pair's frequency 1).
        t = data.draw(st.sampled_from(sorted(set(np.abs(freqs).tolist()) - {0.0})))
        variance = data.draw(
            st.sampled_from([0.0, 1e-8, 1e4, 1e300])
            | st.floats(0.0, 2.0)
            | st.floats(708.0, 746.0).map(lambda e: 2 * e / t**2)
            | st.floats(743.0, 744.5).map(lambda e: 2 * e)
        )
        dist = Gaussian(loc, variance)
    out = _out(n_steps, len(pairs), data.draw(st.sampled_from(
        ["C-ordered", "columns of a wider table", "every other column", "column-major"])))
    residue = _kernels.trig_moments(shifts, base, loc, variance, freqs, coefficients, out, False)
    expected = np.empty(out.shape)
    with np.errstate(invalid="ignore", over="ignore"):  # numpy warns on the non-finite shifts
        expected_residue = numpy_trig_moments(dist, base + shifts, freqs, coefficients, expected)
    assert np.array_equal(out.view(np.int64), expected.view(np.int64))
    assert residue == expected_residue or math.isnan(residue) and math.isnan(expected_residue)


def test_c_trig_moments_keep_the_sign_of_a_product_rounded_to_zero():
    """E[cos(X + s)] where exp(-variance / 2) is a few ulps above 0: numpy's fused product keeps -0.0, and so must C."""
    freqs, coefficients = distmoments._laurent_matrix(((1, 0),))
    shifts, out, expected = np.linspace(-4.0, 4.0, 401), np.empty((401, 1)), np.empty((401, 1))
    for variance in (2 * 743.0, 2 * 743.7, 2 * 744.3):
        _kernels.trig_moments(shifts, 0.0, 0.0, variance, freqs, coefficients, out, False)
        numpy_trig_moments(Gaussian(0.0, variance), shifts, freqs, coefficients, expected)
        assert np.signbit(expected[expected == 0.0]).any()  # an unfused product makes these +0.0
        assert np.array_equal(out.view(np.int64), expected.view(np.int64))


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_c_uniform_trig_moments_match_the_numpy_formula(data):
    """Uniform angles take the C path too: its moments and residue are numpy's (exp(1j t b) - exp(1j t a)) /
    (1j t (b - a)), 1 + 0j at t = 0, bit for bit, for widths from 1e-12 to 1e3 and offsets and shifts to 4e3; a
    shift of 1e6, an infinite or a NaN one leave NaN where numpy's formula does."""
    pairs = tuple(data.draw(st.lists(st.sampled_from(ORDERS_TO_8), min_size=1, max_size=4, unique=True)))
    freqs, coefficients = distmoments._laurent_matrix(pairs)
    n_steps = data.draw(st.sampled_from([0, 1, 40, 300]))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    shifts = rng.uniform(-4.0, 4.0, n_steps) * data.draw(st.sampled_from([1e-3, 1.0, 1e3]))
    for _ in range(data.draw(st.integers(0, 3)) if n_steps else 0):
        shifts[data.draw(st.integers(0, n_steps - 1))] = data.draw(st.sampled_from(SPECIAL_SHIFTS))
    base = data.draw(st.sampled_from([0.0, -0.0, 1 / 3]) | st.floats(-4.0, 4.0))
    lower = data.draw(st.floats(-4.0, 4.0)) * data.draw(st.sampled_from([1e-6, 1.0, 1e3]))
    upper = lower + data.draw(st.sampled_from([1e-12, 1e-8, 1e-3, 1.0, 1e3]) | st.floats(1e-12, 10.0))
    out = _out(n_steps, len(pairs), data.draw(st.sampled_from(["C-ordered", "columns of a wider table"])))
    residue = _kernels.trig_moments(shifts, base, lower, upper, freqs, coefficients, out, True)
    expected = np.empty(out.shape)
    with np.errstate(invalid="ignore", over="ignore"):
        expected_residue = numpy_trig_moments(Uniform(lower, upper), base + shifts, freqs, coefficients, expected)
    nan = np.isnan(expected)
    assert np.array_equal(np.isnan(out), nan)
    assert np.array_equal(out[~nan].view(np.int64), expected[~nan].view(np.int64))
    assert residue == expected_residue or math.isnan(residue) and math.isnan(expected_residue)


def test_c_trig_moments_reject_bad_input_and_release_buffers():
    freqs, coefficients = distmoments._laurent_matrix(((1, 0), (0, 1)))
    good = [np.zeros(3), 0.0, 0.1, 0.2, freqs, coefficients, np.empty((3, 2)), False]
    read_only = np.empty((3, 2))
    read_only.flags.writeable = False
    for position, bad, error, message in [
        (0, np.zeros(3, dtype=np.float32), TypeError, "must be float64"),
        (0, np.zeros((3, 1)), ValueError, "must be 1-d"),
        (0, np.zeros(4), ValueError, r"out \(shifts, pairs\)"),
        (0, [0.0, 0.0, 0.0], TypeError, None),
        (1, "0", TypeError, None),
        (4, freqs[::-1], TypeError, "must be C-contiguous"),
        (4, freqs[:1], ValueError, r"coefficients \(freqs, pairs\)"),
        (5, coefficients.real, TypeError, "coefficients complex128"),
        (5, np.asfortranarray(coefficients), TypeError, "must be C-contiguous"),
        (6, np.empty((3, 2), dtype=np.float32), TypeError, "must be float64"),
        (6, np.empty((3, 3)), ValueError, r"out \(shifts, pairs\)"),
        (6, read_only, ValueError, "out must be writable"),
    ]:
        args = [*good[:position], bad, *good[position + 1 :]]
        before = [sys.getrefcount(arg) for arg in args]
        with pytest.raises(error, match=message and "^trig_moments: .*" + message):
            _kernels.trig_moments(*args)
        assert [sys.getrefcount(arg) for arg in args] == before
    with pytest.raises(TypeError, match="takes 8 arguments"):
        _kernels.trig_moments(*good[:7])
    before = [sys.getrefcount(arg) for arg in good]
    assert _kernels.trig_moments(*good) == 0.0
    assert [sys.getrefcount(arg) for arg in good] == before
    expected = np.empty((3, 2))
    assert trig_moments_python(*good[:6], expected, False) == 0.0
    assert np.array_equal(good[6], expected)


def test_c_trig_moments_reject_non_real_sums():
    """Coefficients of e^{ix} / 2 alone, a pure real coefficient with a non-real sum: the C path raises too."""
    freqs, coefficients = distmoments._laurent_matrix(((1, 0),))
    one_sided = coefficients.copy()
    one_sided[0] = 0.0
    shifts, out = np.linspace(0.0, 1.0, 5), np.empty((5, 1))
    residue = _kernels.trig_moments(shifts, 0.25, 0.1, 0.3, freqs, one_sided, out, False)
    assert residue == trig_moments_python(shifts, 0.25, 0.1, 0.3, freqs, one_sided, np.empty((5, 1)), False) > 0.1
    with pytest.raises(ArithmeticError, match="non-real residue"):
        distmoments._slot_moments(Gaussian(0.1, 0.3), shifts, ((1, 0),), (0.25, freqs, one_sided), out)
