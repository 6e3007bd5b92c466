from fractions import Fraction
from math import comb, gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mirrorint.series import TruncatedSeries, common_denominator

coeff = st.fractions(min_value=-5, max_value=5, max_denominator=12)


def series_strategy(order=8, first=None):
    inner = st.lists(coeff, min_size=order + 1, max_size=order + 1)
    if first is None:
        return inner.map(lambda cs: TruncatedSeries(tuple(cs)))
    return inner.map(
        lambda cs: TruncatedSeries(tuple([Fraction(first)] + cs[1:]))
    )


def geometric(order):
    return TruncatedSeries.from_coeffs([1] * (order + 1))


def central_binomials(order):
    return TruncatedSeries.from_coeffs([comb(2 * n, n) for n in range(order + 1)])


class TestRing:
    def test_difference_of_squares(self):
        a = TruncatedSeries.from_coeffs([1, 1], order=2)
        b = TruncatedSeries.from_coeffs([1, -1], order=2)
        assert a * b == TruncatedSeries.from_coeffs([1, 0, -1])

    def test_multiplicative_identity(self):
        a = central_binomials(6)
        assert a * TruncatedSeries.one(6) == a

    def test_square_coefficient(self):
        # oracle: brute-force convolution of (1, 2, 6, 20) at index 3
        c = [comb(2 * n, n) for n in range(4)]
        expected = sum(c[i] * c[3 - i] for i in range(4))
        assert expected == 64
        sq = central_binomials(3) * central_binomials(3)
        assert sq[3] == expected

    @given(a=series_strategy(6), b=series_strategy(6), c=series_strategy(6))
    @settings(max_examples=60)
    def test_ring_axioms(self, a, b, c):
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c

    def test_truncates_to_min_order(self):
        a = TruncatedSeries.from_coeffs([1, 2, 3])
        b = TruncatedSeries.from_coeffs([1, 1, 1, 1, 1])
        assert (a * b).order == 2
        assert (a + b).order == 2

    def test_integer_series_power_stays_int(self):
        cube = TruncatedSeries.from_coeffs([1, 1], order=3) ** 3
        assert cube.coeffs == (1, 3, 3, 1)
        assert all(type(c) is int for c in cube.coeffs)

    @pytest.mark.parametrize("bad", [0.5, "1/2", None])
    def test_rejects_inexact_coefficient(self, bad):
        with pytest.raises(TypeError):
            TruncatedSeries((1, bad))


class TestReciprocal:
    def test_geometric(self):
        one_minus_z = TruncatedSeries.from_coeffs([1, -1], order=10)
        assert one_minus_z.reciprocal() == geometric(10)

    def test_one(self):
        assert TruncatedSeries.one(5).reciprocal() == TruncatedSeries.one(5)

    def test_roundtrip_on_f(self):
        f = central_binomials(12)
        assert f * f.reciprocal() == TruncatedSeries.one(12)

    def test_zero_constant_term(self):
        with pytest.raises(ValueError):
            TruncatedSeries.from_coeffs([0, 1]).reciprocal()

    @pytest.mark.parametrize("coeffs", [[1, -1], [-1, 2]])
    def test_unit_constant_term_stays_on_ints(self, coeffs):
        inverse = TruncatedSeries.from_coeffs(coeffs, order=10).reciprocal()
        assert all(type(c) is int for c in inverse.coeffs), inverse.coeffs

    def test_other_constant_term_divides(self):
        inverse = TruncatedSeries.from_coeffs([2, 1], order=3).reciprocal()
        expected = tuple(Fraction((-1) ** k, 2 ** (k + 1)) for k in range(4))
        assert inverse.coeffs == expected


class TestExpLog:
    def test_exp_zero(self):
        assert TruncatedSeries.zero(5).exp() == TruncatedSeries.one(5)

    def test_exp_z(self):
        got = TruncatedSeries.from_coeffs([0, 1], order=3).exp()
        assert got == TruncatedSeries.from_coeffs(
            [1, 1, Fraction(1, 2), Fraction(1, 6)]
        )

    def test_log_one(self):
        assert TruncatedSeries.one(5).log() == TruncatedSeries.zero(5)

    def test_exp_log_one_plus_z(self):
        a = TruncatedSeries.from_coeffs([1, 1], order=10)
        assert a.log().exp() == a

    @given(a=series_strategy(12, first=0))
    @settings(max_examples=40)
    def test_log_exp_roundtrip(self, a):
        assert a.exp().log() == a

    @given(a=series_strategy(10, first=1), b=series_strategy(10, first=1))
    @settings(max_examples=40)
    def test_log_of_product(self, a, b):
        assert (a * b).log() == a.log() + b.log()

    def test_exp_nonzero_constant_rejected(self):
        with pytest.raises(ValueError):
            TruncatedSeries.one(3).exp()

    def test_log_constant_not_one_rejected(self):
        with pytest.raises(ValueError):
            TruncatedSeries.from_coeffs([2, 1]).log()


class TestRoot:
    def test_identity_root(self):
        a = central_binomials(8)
        assert a.vth_root(1) == a

    def test_perfect_square(self):
        a = TruncatedSeries.from_coeffs([1, 1], order=8)
        assert (a * a).vth_root(2) == a

    def test_binomial_series(self):
        root = TruncatedSeries.from_coeffs([1, 1], order=6).vth_root(2)
        assert root[2] == Fraction(-1, 8)

    @given(a=series_strategy(8, first=1), v=st.integers(min_value=1, max_value=5))
    @settings(max_examples=40)
    def test_power_roundtrip(self, a, v):
        assert a.vth_root(v) ** v == a

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            TruncatedSeries.from_coeffs([2, 1]).vth_root(2)
        with pytest.raises(ValueError):
            TruncatedSeries.one(3).vth_root(0)


class TestSubstitutePower:
    def test_simple(self):
        a = TruncatedSeries.from_coeffs([1, 1], order=4)
        assert a.substitute_power(2) == TruncatedSeries.from_coeffs(
            [1, 0, 1], order=4
        )

    def test_identity(self):
        a = central_binomials(7)
        assert a.substitute_power(1) == a

    def test_index_bookkeeping(self):
        got = central_binomials(8).substitute_power(3)
        assert got[6] == comb(4, 2)

    @given(
        a=series_strategy(12),
        p=st.integers(min_value=1, max_value=3),
        q=st.integers(min_value=1, max_value=3),
    )
    @settings(max_examples=40)
    def test_composition(self, a, p, q):
        assert a.substitute_power(p).substitute_power(q) == a.substitute_power(p * q)


class TestIntegrality:
    def test_integral(self):
        report = TruncatedSeries.from_coeffs([1, 1]).integrality()
        assert report.integral and report.first_bad_index is None

    def test_first_bad(self):
        report = TruncatedSeries.from_coeffs([1, Fraction(1, 2)]).integrality()
        assert not report.integral
        assert report.first_bad_index == 1
        assert report.first_bad_coefficient == Fraction(1, 2)


class TestCommonDenominator:
    @given(
        xs=st.lists(
            st.one_of(st.integers(min_value=-50, max_value=50), coeff, st.just(0)),
            max_size=12,
        )
    )
    def test_reduced_common_form(self, xs):
        w, d = common_denominator(xs)
        assert all(type(num) is int for num in w) and type(d) is int
        assert [Fraction(num, d) for num in w] == xs
        assert gcd(d, *w) == 1

    @given(xs=st.lists(st.integers(min_value=-10**30, max_value=10**30), max_size=12))
    def test_integers_need_no_denominator(self, xs):
        assert common_denominator(xs) == (xs, 1)
