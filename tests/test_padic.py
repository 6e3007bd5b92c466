import contextlib
import inspect
import math
import os
import subprocess
import sys
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mirrorint import padic
from mirrorint.landau import (
    FactorialRatioSpec,
    classify,
    harmonic,
    q_ratio,
    root_bound_dl,
)
from mirrorint.mirror import build_bundle
from mirrorint.padic import (
    INFINITE,
    PadicMembershipReport,
    congruence25_check,
    congruence_star_check,
    dwork_decomposition_check,
    dwork_exp_test,
    dwork_quotient_test,
    is_prime,
    lemma24_check,
    lemma24_scan,
    lemma_ablanc_check,
    lemma_harmonic_check,
    lemma_harmonic_scan,
    mu_and_g,
    phi,
    phi_membership_scan,
    s_membership_scan,
    s_sum,
    vp_int,
    vp_q_ratio_via_delta,
    vp_rational,
    w_term,
)
from mirrorint.series import TruncatedSeries
from mirrorint.zhou import enumerate_decompositions

S6 = FactorialRatioSpec((6,), (3, 2, 1))
S2 = FactorialRatioSpec((2,), (1, 1))
S12 = FactorialRatioSpec((12,), (4, 3, 3, 2))
TRIVIAL = FactorialRatioSpec((1,), (1,))
CASE_II = FactorialRatioSpec((30, 1), (15, 10, 6))
CORPUS_CASE_I = [S6, S12, FactorialRatioSpec((3,), (1, 1, 1)), S2]
# Case (i), but Q(4) = 12!/24^4 is not an integer: 2 divides the common
# denominator of Q, so the phi scan's 2 v_p(qd) shift is exercised.
S3_1111 = FactorialRatioSpec((3,), (1, 1, 1, 1))

# Case-(i) specs: multinomials (N)/(f) that pass the D >= 1 test, and the
# unit-fraction specs with at most four terms (k up to 42).
case_i_specs = st.one_of(
    st.lists(st.integers(1, 6), min_size=1, max_size=4)
    .map(lambda f: FactorialRatioSpec((sum(f),), tuple(f)))
    .filter(lambda spec: classify(spec).case_i),
    st.sampled_from(
        [inst.spec for n in range(1, 5) for inst in enumerate_decompositions(n)]
    ),
)


PRIMES_TO_13 = [2, 3, 5, 7, 11, 13]


def _frac(x, pl):
    """{x/pl} as an exact Fraction."""
    return Fraction(x, pl) % 1


def _floor_log(bound, p):
    """The largest e with p^e <= bound, for a rational bound in [1, 12]."""
    return max(e for e in range(4) if p**e <= bound)


def _vp(n, p):
    """v_p(n) for 1 <= n < 2^12."""
    return max(e for e in range(12) if n % p**e == 0)


@contextlib.contextmanager
def _moduli_examined():
    """Collect each p^l at which padic tests a fractional part {x/p^l}."""
    seen = set()
    real = padic._frac_below

    def spy(x, pl, big_m):
        seen.add(pl)
        return real(x, pl, big_m)

    with mock.patch.object(padic, "_frac_below", spy):
        yield seen


def _qq(spec, x, y):
    """Q(x) Q(y), with Q extended by 0 to negative arguments."""
    return q_ratio(spec, x) * q_ratio(spec, y) if x >= 0 and y >= 0 else 0


class TestValuation:
    def test_factor_seventy(self):
        assert vp_rational(Fraction(70), 7) == 1

    def test_unit(self):
        for p in (2, 3, 5, 7):
            assert vp_rational(Fraction(1), p) == 0

    def test_denominator_power(self):
        assert vp_rational(Fraction(3, 4), 2) == -2

    def test_zero_is_infinite(self):
        v = vp_rational(Fraction(0), 5)
        assert v == INFINITE
        assert v > 10**9

    def test_rejects_composite(self):
        with pytest.raises(ValueError):
            vp_rational(Fraction(1), 6)


class TestValuationViaDelta:
    def test_q_of_four(self):
        assert q_ratio(S2, 4) == 70
        assert vp_q_ratio_via_delta(S2, 4, 7) == 1

    def test_n_zero(self):
        assert vp_q_ratio_via_delta(S6, 0, 3) == 0

    def test_q_of_one(self):
        assert vp_q_ratio_via_delta(S6, 1, 5) == 1

    def test_negative_n_rejected(self):
        # Q is undefined at n < 0, as q_ratio says; the sum would read 0.
        with pytest.raises(ValueError, match="nonnegative"):
            q_ratio(S12, -3)
        with pytest.raises(ValueError, match="nonnegative"):
            vp_q_ratio_via_delta(S12, -3, 2)

    @pytest.mark.parametrize("e,f", [((2,), (1,)), ((4,), (1, 1, 1)), ((3,), (1,) * 4)])
    def test_unbalanced_spec_rejected(self, e, f):
        # For 2/1, v_2(4!/2!) = 2 but the step-function sum gives 1.
        with pytest.raises(ValueError, match="not balanced"):
            vp_q_ratio_via_delta(FactorialRatioSpec(e, f), 2, 2)

    @pytest.mark.parametrize(
        "spec", [S6, S2, S12, TRIVIAL, CASE_II, FactorialRatioSpec((1, 1), (2,))]
    )
    def test_agrees_with_direct_valuation(self, spec):
        for p in (2, 3, 5, 7, 11, 13):
            for n in range(0, 60):
                assert vp_q_ratio_via_delta(spec, n, p) == vp_rational(
                    q_ratio(spec, n), p
                )


class TestDworkQuotient:
    def test_integral_f_passes(self):
        bundle = build_bundle(S2, 27)
        assert dwork_quotient_test(TruncatedSeries(bundle.F), 3).member

    def test_constant_one(self):
        assert dwork_quotient_test(TruncatedSeries.one(10), 5).member

    def test_non_integral_fails(self):
        bad = TruncatedSeries.from_coeffs([1, Fraction(1, 3)], order=9)
        report = dwork_quotient_test(bad, 3)
        assert not report.member
        assert report.actual_valuation < 1

    @given(
        coeffs=st.lists(
            st.integers(min_value=-9, max_value=9), min_size=12, max_size=12
        ),
        p=st.sampled_from([2, 3, 5]),
    )
    @settings(max_examples=40)
    def test_lemma_both_directions(self, coeffs, p):
        # integral unit series always pass; inserting a denominator p flips it
        ser = TruncatedSeries.from_coeffs([1] + coeffs)
        assert dwork_quotient_test(ser, p).member
        corrupted = TruncatedSeries(
            ser.coeffs[:5] + (ser.coeffs[5] + Fraction(1, p),) + ser.coeffs[6:]
        )
        assert not dwork_quotient_test(corrupted, p).member


class TestDworkExp:
    def test_plain_z_fails(self):
        for p in (2, 3, 5):
            ser = TruncatedSeries.from_coeffs([0, 1], order=p + 2)
            assert not dwork_exp_test(ser, p).member

    def test_pz_passes_below_p(self):
        for p in (3, 5):
            ser = TruncatedSeries.from_coeffs([0, p], order=p - 1)
            assert dwork_exp_test(ser, p).member

    def test_case_i_ratio_passes(self):
        bundle = build_bundle(S6, 30)
        ratio = TruncatedSeries(bundle.g()) * TruncatedSeries(bundle.F).reciprocal()
        assert dwork_exp_test(ratio, 5).member

    def test_consistency_with_exponential(self):
        # both routes must agree on exp(f) being p-integral
        bundle = build_bundle(S2, 20)
        ratio = TruncatedSeries(bundle.g()) * TruncatedSeries(bundle.F).reciprocal()
        for p in (2, 3, 5):
            direct = all(
                vp_rational(c, p) >= 0 for c in ratio.exp().coeffs
            )
            assert dwork_exp_test(ratio, p).member == direct


class TestPhi:
    def test_origin(self):
        assert phi(S6, 1, 5, 0, 0) == 0

    @pytest.mark.parametrize("spec", CORPUS_CASE_I, ids=str)
    def test_origin_is_zero_at_every_level_and_prime(self, spec):
        # The phi scan reads (a, K) = (0, 0) as +inf without a residue.
        for level in range(1, spec.max_entry + 1):
            for p in (2, 3, 5, 7):
                assert phi(spec, level, p, 0, 0) == 0

    def test_scan_builds_q_once(self):
        calls = []
        real = padic.q_ratios

        def spy(spec, n):
            calls.append(n)
            return real(spec, n)

        with mock.patch.object(padic, "q_ratios", spy):
            rows = phi_membership_scan(S12, 7, a_max=6, k_max=25)
        assert len(rows) == 12 and all(r.member for r in rows)
        assert calls == [6 + 25 * 7]

    def test_hand_evaluation(self):
        value = phi(S6, 1, 5, 1, 0)
        assert value == q_ratio(S6, 0) * q_ratio(S6, 1) * (
            harmonic(0) - 5 * harmonic(1)
        )
        assert value == -300
        assert vp_rational(value, 5) >= 1 + vp_rational(Fraction(60), 5)

    def test_brute_force_oracle(self):
        # independent evaluation of the defining sum at L=2, p=3, a=0, K=1
        expected = sum(
            q_ratio(S2, 1 - j)
            * q_ratio(S2, 0 + 3 * j)
            * (harmonic(2 * (1 - j)) - 3 * harmonic(2 * (0 + 3 * j)))
            for j in range(2)
        )
        assert phi(S2, 2, 3, 0, 1) == expected
        assert vp_rational(expected, 3) >= 1

    def test_scan_case_i(self):
        for level in (1, 3, 6):
            for p in (2, 3, 5, 7):
                (report,) = phi_membership_scan(
                    S6, p, a_max=p - 1, k_max=8, level=level
                )
                assert report.member, (level, p, report.witness)

    def test_scan_trivial(self):
        (report,) = phi_membership_scan(TRIVIAL, 3, a_max=2, k_max=8, level=1)
        assert report.member

    def test_scan_refuses_case_ii(self):
        with pytest.raises(ValueError):
            phi_membership_scan(CASE_II, 3, a_max=2, k_max=5, level=1)

    def test_scan_rejects_composite(self):
        with pytest.raises(ValueError):
            phi_membership_scan(S6, 4, a_max=3, k_max=4, level=1)

    def test_scan_reports_every_level_in_order(self):
        rows = phi_membership_scan(S12, 5, a_max=4, k_max=6)
        assert rows == [
            phi_membership_scan(S12, 5, a_max=4, k_max=6, level=level)[0]
            for level in range(1, 13)
        ]
        assert [r.value_description for r in rows] == [
            f"phi(L={level}) on a<=min(4,p-1), K<=6" for level in range(1, 13)
        ]

    @given(
        spec=st.sampled_from(CORPUS_CASE_I + [S3_1111]),
        raw_level=st.integers(0, 100),
        p=st.sampled_from([2, 3, 5, 7]),
        a_max=st.integers(0, 6),
        k_max=st.integers(0, 6),
        digits=st.sampled_from([1, 40]),
    )
    @example(spec=S3_1111, raw_level=0, p=2, a_max=1, k_max=4, digits=40)
    @example(spec=S3_1111, raw_level=0, p=2, a_max=1, k_max=4, digits=1)
    @example(spec=S12, raw_level=11, p=7, a_max=6, k_max=3, digits=40)
    @settings(max_examples=60, deadline=None)
    def test_scan_matches_exact_phi(self, spec, raw_level, p, a_max, k_max, digits):
        # digits=1 keeps one p-adic digit past p^E, so most points, nonzero
        # ones included, take the exact fallback.
        level = 1 + raw_level % spec.max_entry
        grid = [(a, k) for a in range(min(a_max, p - 1) + 1) for k in range(k_max + 1)]
        valuations = [vp_rational(phi(spec, level, p, a, k), p) for a, k in grid]
        required = 1 + vp_rational(Fraction(root_bound_dl(spec, level)), p)
        failing = [pt for pt, v in zip(grid, valuations) if v < required]
        with mock.patch.object(padic, "_RESIDUE_DIGITS", digits):
            (report,) = phi_membership_scan(spec, p, a_max, k_max, level=level)
        assert (report.required_valuation, report.actual_valuation) == (
            required,
            min(valuations),
        )
        assert report.witness == (failing[0] if failing else None)


class TestSplitSum:
    def test_below_block_is_zero(self):
        assert s_sum(S2, 1, 2, 1, 3, 2) == 0  # K < m p^s

    def test_single_index_block(self):
        j = 2
        expected = q_ratio(S2, 0 + j * 3) * q_ratio(S2, 5 - j) - q_ratio(
            S2, j
        ) * q_ratio(S2, 0 + (5 - j) * 3)
        assert s_sum(S2, 0, 5, 0, 3, j) == expected

    def test_midpoint_antisymmetry(self):
        assert s_sum(S2, 1, 2, 0, 3, 1) == 0

    def test_membership_scan(self):
        for p in (2, 3, 5):
            (report,) = s_membership_scan(
                S6, p, a_max=p - 1, k_max=8, s_max=2, m_max=8
            )
            assert report.member, (p, report.witness)

    def test_scan_rejects_composite(self):
        with pytest.raises(ValueError):
            s_membership_scan(S6, 4, a_max=3, k_max=4, s_max=1, m_max=2)

    def test_scan_summary_is_the_tightest_point(self):
        (report,) = s_membership_scan(S6, 2, a_max=6, k_max=6, s_max=1, m_max=4)
        points = [
            (
                s + 1 + mu_and_g(S6, 2, m)[0],
                vp_rational(s_sum(S6, a, big_k, s, 2, m), 2),
            )
            for a in range(2)
            for big_k in range(7)
            for s in range(2)
            for m in range(5)
        ]
        margins = [actual - required for required, actual in points]
        tightest = points[margins.index(min(margins))]
        assert report.member
        assert (report.required_valuation, report.actual_valuation) == tightest
        assert tightest == (3, 3)  # at (a, K, s, m) = (0, 1, 0, 1)

    @pytest.mark.parametrize("spec", [S6, S12, S3_1111])
    @pytest.mark.parametrize("p", [2, 3, 5])
    @pytest.mark.parametrize("digits", [1, 40])
    def test_scan_matches_exact_block_sums(self, spec, p, digits):
        # digits=1 keeps one p-adic digit past p^(2 v_p(qd)), so most
        # blocks, nonzero ones included, take the exact fallback.
        a_max, k_max, s_max, m_max = 4, 9, 2, 6
        with mock.patch.object(padic, "_RESIDUE_DIGITS", digits):
            (report,) = s_membership_scan(spec, p, a_max, k_max, s_max, m_max)
        points = (
            (
                (a, big_k, s, m),
                s + 1 + mu_and_g(spec, p, m)[0],
                vp_rational(s_sum(spec, a, big_k, s, p, m), p),
            )
            for a in range(min(a_max, p - 1) + 1)
            for big_k in range(k_max + 1)
            for s in range(s_max + 1)
            for m in range(m_max + 1)
        )
        assert report == padic._grid_report(p, report.value_description, points)
        assert report.member == (spec != S3_1111)

    @given(
        spec=st.sampled_from(CORPUS_CASE_I + [S3_1111]),
        p=st.sampled_from([2, 3, 5]),
        raw_a=st.integers(0, 4),
        s=st.integers(0, 2),
        m=st.integers(0, 3),
        raw_k=st.integers(0, 24),
        truncated=st.booleans(),
    )
    @settings(max_examples=60, deadline=None)
    def test_symmetric_block_is_zero(self, spec, p, raw_a, s, m, raw_k, truncated):
        # The block [lo, hi) with lo + hi - 1 = K is symmetric about K/2: a
        # full block at K = 2 m p^s + p^s - 1, or the block m = 0 cut at
        # hi = K + 1 when K < p^s.
        if truncated:
            m, big_k = 0, raw_k % p**s
        else:
            big_k = 2 * m * p**s + p**s - 1
        assert s_sum(spec, raw_a % p, big_k, s, p, m) == 0


class TestDifferentialOracles:
    """phi and S from per-call tables against their defining sums over q_ratio."""

    @given(
        spec=case_i_specs,
        raw_level=st.integers(0, 100),
        p=st.sampled_from([2, 3, 5, 7]),
        raw_a=st.integers(0, 6),
        big_k=st.integers(0, 5),
    )
    @settings(max_examples=40, deadline=None)
    def test_phi_matches_defining_sum(self, spec, raw_level, p, raw_a, big_k):
        level, a = 1 + raw_level % spec.max_entry, raw_a % p
        expected = sum(
            (
                _qq(spec, big_k - j, a + j * p)
                * (harmonic(level * (big_k - j)) - p * harmonic(level * (a + j * p)))
                for j in range(big_k + 1)
            ),
            Fraction(0),
        )
        assert phi(spec, level, p, a, big_k) == expected

    @given(
        spec=case_i_specs,
        p=st.sampled_from([2, 3, 5]),
        raw_a=st.integers(0, 4),
        big_k=st.integers(0, 6),
        s=st.integers(0, 2),
        m=st.integers(0, 5),
    )
    @settings(max_examples=40, deadline=None)
    def test_s_sum_matches_defining_sum(self, spec, p, raw_a, big_k, s, m):
        a = raw_a % p
        # the whole block, with no cut at j = K
        expected = sum(
            _qq(spec, a + j * p, big_k - j) - _qq(spec, j, a + (big_k - j) * p)
            for j in range(m * p**s, (m + 1) * p**s)
        )
        assert s_sum(spec, a, big_k, s, p, m) == expected


class TestMuAndG:
    def test_zero(self):
        assert mu_and_g(S6, 5, 0) == (0, 1)

    def test_direct_scan(self):
        assert mu_and_g(S6, 5, 3) == (1, 5)

    def test_prime_power_argument(self):
        # all fractional parts are p^{t-l}; count those >= 1/M exactly
        p, t = 3, 2
        m = p**t
        mu, g = mu_and_g(S6, p, m)
        expected = sum(
            1
            for ell in range(1, 12)
            if Fraction(m % p**ell, p**ell) >= Fraction(1, 6)
        )
        assert (mu, g) == (expected, p**expected)


class TestWTerm:
    def test_m_zero(self):
        assert w_term(S2, 1, 1, 4, 2, 3, 0) == 0

    def test_zero_block(self):
        assert w_term(S2, 1, 1, 2, 1, 3, 2) == 0

    def test_brute_force(self):
        expected = (
            harmonic(1 * 1 * 3**0) - harmonic(1 * 0 * 3**1)
        ) * s_sum(S2, 1, 3, 0, 3, 1)
        assert w_term(S2, 1, 1, 3, 0, 3, 1) == expected


class TestDworkDecomposition:
    def test_k_zero(self):
        assert dwork_decomposition_check(S2, 1, 0, 0, 3)

    def test_worked_small_cases(self):
        assert dwork_decomposition_check(S2, 2, 2, 4, 3)
        assert dwork_decomposition_check(S6, 3, 1, 5, 2)

    def test_small_grid(self):
        for p in (2, 3):
            for a in range(p):
                for big_k in range(0, 7):
                    for level in (1, 2):
                        assert dwork_decomposition_check(S2, level, a, big_k, p)


class TestLemmaAblanc:
    def test_worked_example(self):
        assert lemma_ablanc_check(S6, 2, 1)

    def test_vacuous_when_m_smaller_than_p(self):
        assert lemma_ablanc_check(S2, 3, 7)  # beta = 0, nothing to check

    def test_prime_powers(self):
        for k in range(0, 6):
            assert lemma_ablanc_check(S6, 2, 2**k)

    def test_exhaustive_small(self):
        for p in (2, 3, 5):
            for m in range(1, 80):
                assert lemma_ablanc_check(S12, p, m)


class TestLemma24:
    def test_vacuous_empty_u_range(self):
        assert lemma24_check(3, 1, 0, 6, 4, 2)  # floor(La/p^s) = 0

    def test_single_inequality(self):
        # u = 1..4: v_p(Lm+u) = 0 and alpha = 0, one fractional-part comparison
        assert lemma24_check(5, 1, 4, 5, 1, 5)

    def test_precondition_violations(self):
        with pytest.raises(ValueError):
            lemma24_check(3, 0, 0, 6, 1, 2)
        with pytest.raises(ValueError):
            lemma24_check(3, 1, 3, 6, 1, 2)

    def test_scan_one_level(self):
        (report,) = lemma24_scan(S12, 3, 10, level=4)
        assert report.member and report.witness is None
        assert report.value_description == "lemma24 grid L=4, m<=10"
        (every_level,) = lemma24_scan(S12, 3, 10)
        assert every_level.value_description == "lemma24 grid m<=10"

    def test_scan_rejects_level_outside_range(self):
        for level in (0, 13):
            with pytest.raises(ValueError):
                lemma24_scan(S12, 3, 4, level=level)

    @given(
        p=st.sampled_from(PRIMES_TO_13),
        step=st.integers(1, 12),
        count=st.integers(1, 200),
        m_max=st.integers(0, 40),
    )
    @settings(max_examples=100, deadline=None)
    @example(p=2, step=4, count=7, m_max=3)  # (0, 7] holds 4: v = 2
    def test_interval_valuation_is_the_largest(self, p, step, count, m_max):
        expected = [
            max(padic.vp_int(step * m + u, p) for u in range(1, count + 1))
            for m in range(m_max + 1)
        ]
        assert padic._interval_valuations(p, step, count, m_max) == expected

    @given(
        p=st.sampled_from([2, 3, 5, 7]),
        big_m=st.integers(1, 12),
        raw_level=st.integers(0, 11),
        one_level=st.booleans(),
        m_max=st.integers(0, 12),
        extra=st.integers(0, 3),
    )
    @settings(max_examples=60, deadline=None)
    @example(p=3, big_m=6, raw_level=0, one_level=False, m_max=5, extra=3)
    def test_scan_matches_check(self, p, big_m, raw_level, one_level, m_max, extra):
        # The lemma holds, so extra moduli in every walk (alpha + extra) are
        # what makes points fail: the scan must fail first where the check
        # does.
        spec = FactorialRatioSpec((big_m,), (big_m,))
        level = 1 + raw_level % big_m if one_level else None
        levels = [level] if one_level else range(1, big_m + 1)
        real = padic._floor_log
        with mock.patch.object(padic, "_floor_log", lambda n, p: real(n, p) + extra):
            failing = [
                (s, a, lev, m)
                for s in (1, 2)
                for a in range(p**s)
                for lev in levels
                for m in range(m_max + 1)
                if not lemma24_check(p, s, a, big_m, m, lev)
            ]
            (report,) = lemma24_scan(spec, p, m_max, level)
        assert report.member == (not failing)
        assert report.witness == (failing[0] if failing else None)

    def test_exhaustive_small_grid(self):
        for p in (2, 3):
            for s in (1, 2):
                for big_m in range(1, 7):
                    for level in range(1, big_m + 1):
                        for a in range(p**s):
                            for m in range(0, 12):
                                assert lemma24_check(p, s, a, big_m, m, level)


class TestFractionalPartOracles:
    """mu_p, lemma A and lemma 2.4 against their Fraction definitions.

    Both lemmas hold on every input drawn here, so each walk runs to its end,
    and the moduli p^l it examines are compared too: a walk that stops short
    would still answer True.
    """

    @given(
        p=st.sampled_from(PRIMES_TO_13), big_m=st.integers(1, 12), m=st.integers(0, 200)
    )
    @settings(max_examples=200, deadline=None)
    @example(p=2, big_m=4, m=1)  # {1/4} = 1/M exactly
    def test_mu_and_g(self, p, big_m, m):
        spec = FactorialRatioSpec((big_m,), (big_m,))
        # p^l > 200 * 12 once l >= 12, and then {m/p^l} = m/p^l < 1/M.
        mu = sum(1 for ell in range(1, 12) if _frac(m, p**ell) >= Fraction(1, big_m))
        assert mu_and_g(spec, p, m) == (mu, p**mu)

    @given(
        p=st.sampled_from(PRIMES_TO_13), big_m=st.integers(1, 12), m=st.integers(1, 200)
    )
    @settings(max_examples=200, deadline=None)
    def test_lemma_ablanc(self, p, big_m, m):
        spec = FactorialRatioSpec((big_m,), (big_m,))
        v = _vp(m, p)
        levels = range(v + 1, v + _floor_log(big_m, p) + 1)
        with _moduli_examined() as seen:
            assert lemma_ablanc_check(spec, p, m) == all(
                _frac(m, p**ell) >= Fraction(1, big_m) for ell in levels
            )
        assert seen == {p**ell for ell in levels}

    @given(
        p=st.sampled_from(PRIMES_TO_13),
        big_m=st.integers(1, 12),
        raw_level=st.integers(0, 11),
        s=st.sampled_from([1, 2, 3]),
        raw_a=st.integers(0, 13**3 - 1),
        m=st.integers(0, 200),
    )
    @settings(max_examples=300, deadline=None)
    # u = 1..6 at m = 0: v_2(u) ranges over 0, 1 and 2
    @example(p=2, big_m=12, raw_level=11, s=1, raw_a=1, m=0)
    def test_lemma24(self, p, big_m, raw_level, s, raw_a, m):
        level, a = 1 + raw_level % big_m, raw_a % p**s
        alpha = _floor_log(Fraction(big_m, level), p)
        point = a + m * p**s

        def levels(u):
            return range(s, s + _vp(level * m + u, p) + alpha + 1)

        def holds(u):
            return all(_frac(point, p**ell) >= Fraction(1, big_m) for ell in levels(u))

        u_values = range(1, level * a // p**s + 1)
        with _moduli_examined() as seen:
            assert lemma24_check(p, s, a, big_m, m, level) == all(map(holds, u_values))
        assert seen == {p**ell for u in u_values for ell in levels(u)}


class TestLemmaHarmonic:
    def test_scan_summary_is_the_tightest_point(self):
        rows = lemma_harmonic_scan(S6, 2, 1, 3)
        assert len(rows) == 1 and rows[0].member
        points = [
            lemma_harmonic_check(S6, level, 2, s, m)
            for level in range(1, 7)
            for s in range(2)
            for m in range(4)
        ]
        margins = [r.actual_valuation - r.required_valuation for r in points]
        tightest = points[margins.index(min(margins))]
        assert (rows[0].required_valuation, rows[0].actual_valuation) == (
            tightest.required_valuation,
            tightest.actual_valuation,
        )

    def test_scan_lists_failing_points_first(self, monkeypatch):
        # D_2 = 3^10 asks valuation 11 of level 2, more than any of its
        # points with a nonzero block reaches; m = 0 gives H_0 - H_0 = 0.
        real = padic.root_bound_dl
        monkeypatch.setattr(
            padic,
            "root_bound_dl",
            lambda spec, level: 3**10 if level == 2 else real(spec, level),
        )
        rows = lemma_harmonic_scan(S6, 3, 1, 2)
        assert [r.witness for r in rows] == [
            (2, 0, 1), (2, 0, 2), (2, 1, 1), (2, 1, 2), None,
        ]
        assert [r.actual_valuation for r in rows[:-1]] == [3, 2, 3, 2]
        assert not rows[-1].member
        assert (rows[-1].required_valuation, rows[-1].actual_valuation) == (11, 2)

    def test_scan_reads_empty_blocks_without_the_exact_fallback(self, monkeypatch):
        # p | m makes a = L floor(m/p) p^{s+1} equal b = L m p^s, so the
        # block is exactly 0.  On the benchmark's harmonic grid those are
        # 828 of 2268 points, and none reaches harmonic_block; every other
        # block has a nonzero residue.
        calls = []
        real = padic.harmonic_block

        def counting(a, b):
            calls.append((a, b))
            return real(a, b)

        monkeypatch.setattr(padic, "harmonic_block", counting)
        for p in (2, 3, 5):
            rows = lemma_harmonic_scan(S12, p, 2, 20)
            assert rows[-1].member
        assert calls == []

    @given(
        spec=st.sampled_from(CORPUS_CASE_I + [S3_1111]),
        raw_level=st.integers(0, 100),
        p=st.sampled_from([2, 3, 5, 7]),
        s_max=st.integers(0, 2),
        m_max=st.integers(0, 12),
        digits=st.sampled_from([1, 40]),
    )
    @example(spec=S12, raw_level=0, p=7, s_max=2, m_max=12, digits=40)
    @example(spec=S12, raw_level=0, p=2, s_max=2, m_max=12, digits=1)
    @settings(max_examples=60, deadline=None)
    def test_scan_matches_exact_check(self, spec, raw_level, p, s_max, m_max, digits):
        # Asking valuation 1000 everywhere makes every point with a nonzero
        # block fail, so the scan lists each such point with its valuation.
        # digits=1 sends most of them, nonzero ones included, to the exact
        # fallback.
        level = 1 + raw_level % spec.max_entry
        with mock.patch.object(padic, "root_bound_dl", lambda spec, level: p**999):
            expected = [
                lemma_harmonic_check(spec, level, p, s, m)
                for s in range(s_max + 1)
                for m in range(m_max + 1)
            ]
            with mock.patch.object(padic, "_RESIDUE_DIGITS", digits):
                rows = lemma_harmonic_scan(spec, p, s_max, m_max, level)
        assert rows[:-1] == [r for r in expected if not r.member]
        assert rows[-1].actual_valuation == min(r.actual_valuation for r in expected)

    @pytest.mark.parametrize(
        "p,top,step",
        [
            (2, 0, 1),
            (2, 1, 1),
            (3, 27, 1),
            (3, 80, 9),
            (7, 100, 7),
            (5, 24, 25),
            # Either side of a block of inverses, with steps that do not
            # divide top, and one table crossing two block boundaries.
            (2, padic._INVERSE_BLOCK - 1, 1),
            (2, padic._INVERSE_BLOCK + 1, 1),
            (2, padic._INVERSE_BLOCK + 1, 2),
            (2, padic._INVERSE_BLOCK - 1, 4),
            (3, padic._INVERSE_BLOCK + 1, 5),
            (5, padic._INVERSE_BLOCK - 1, 3),
            (2, 2 * padic._INVERSE_BLOCK + 3, 5),
        ],
    )
    def test_residue_table_holds_every_step_th_prefix(self, p, top, step):
        e, mod, table = padic._harmonic_residues(p, top, step)
        assert len(table) == top // step + 1
        assert p**e <= max(top, 1) < p ** (e + 1)
        assert mod == p ** (e + padic._RESIDUE_DIGITS)
        for i, residue in enumerate(table):
            assert 0 <= residue < mod
            diff = p**e * harmonic(i * step) - residue
            assert vp_rational(diff, p) >= e + padic._RESIDUE_DIGITS

    @given(
        spec=st.sampled_from(CORPUS_CASE_I),
        raw_level=st.integers(0, 100),
        p=st.sampled_from([2, 3, 5]),
        s=st.integers(0, 3),
        m=st.integers(0, 10),
    )
    @settings(max_examples=200, deadline=None)
    def test_valuation_matches_harmonic_reference(self, spec, raw_level, p, s, m):
        level = 1 + raw_level % spec.max_entry
        _, g = mu_and_g(spec, p, m)
        a, b = level * (m // p) * p ** (s + 1), level * m * p**s
        expected = vp_rational(p ** (s + 1) * g * (harmonic(b) - harmonic(a)), p)
        report = lemma_harmonic_check(spec, level, p, s, m)
        assert report.actual_valuation == expected

    def test_m_zero(self):
        report = lemma_harmonic_check(S6, 3, 5, 1, 0)
        assert report.member and report.actual_valuation == INFINITE

    def test_scan_level_two(self):
        for m in range(21):
            assert lemma_harmonic_check(S6, 2, 3, 1, m).member

    def test_scan_binomial_spec(self):
        for m in range(41):
            assert lemma_harmonic_check(S2, 1, 2, 0, m).member


class TestCongruences:
    def test_j_zero_a_zero(self):
        assert congruence25_check(S6, 2, 5, 0, 0)

    def test_a_zero(self):
        for j in range(10):
            assert congruence25_check(S6, 3, 3, 0, j)

    def test_scan(self):
        for j in range(16):
            assert congruence25_check(S6, 4, 5, 3, j)

    def test_star_congruence(self):
        for level in (1, 2, 4):
            for p in (2, 3, 5):
                for a in range(p):
                    for big_k in range(6):
                        assert congruence_star_check(S6, level, p, a, big_k)

    def test_star_congruence_against_definition(self):
        # 3/1,1,1,1 is in case (i) but its Q(n) are not integers, so the
        # congruence fails at some points: both verdicts must occur.
        spec = FactorialRatioSpec((3,), (1, 1, 1, 1))
        verdicts = set()
        for level in (1, 2, 3):
            for p in (2, 3):
                required = 1 + padic.vp_int(root_bound_dl(spec, level), p)
                for a in range(p):
                    for big_k in range(5):
                        dwork = sum(
                            harmonic(level * j) * (
                                _qq(spec, a + j * p, big_k - j)
                                - _qq(spec, j, a + (big_k - j) * p)
                            )
                            for j in range(big_k + 1)
                        )
                        residual = phi(spec, level, p, a, big_k) + dwork
                        expected = vp_rational(residual, p) >= required
                        assert congruence_star_check(spec, level, p, a, big_k) == expected
                        verdicts.add(expected)
        assert verdicts == {True, False}


def test_is_prime():
    assert [n for n in range(20) if is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19]


# One valid call of every public padic entry point that takes a prime p,
# with p left free.
PRIME_CALLS = {
    "vp_rational": "vp_rational(Fraction(1), p)",
    "vp_q_ratio_via_delta": "vp_q_ratio_via_delta(S12, 3, p)",
    "dwork_quotient_test": "dwork_quotient_test(TruncatedSeries((1, 2, 3)), p)",
    "dwork_exp_test": "dwork_exp_test(TruncatedSeries((0, 2, 3)), p)",
    "phi": "phi(S12, 1, p, 0, 2)",
    "phi_membership_scan": "phi_membership_scan(S12, p, 2, 2)",
    "s_sum": "s_sum(S12, 0, 2, 0, p, 0)",
    "mu_and_g": "mu_and_g(S12, p, 3)",
    "w_term": "w_term(S12, 1, 0, 2, 0, p, 1)",
    "dwork_decomposition_check": "dwork_decomposition_check(S12, 1, 0, 2, p)",
    "lemma_ablanc_check": "lemma_ablanc_check(S12, p, 3)",
    "lemma24_check": "lemma24_check(p, 1, 0, 12, 3, 1)",
    "lemma24_scan": "lemma24_scan(S12, p, 3)",
    "lemma_harmonic_check": "lemma_harmonic_check(S12, 1, p, 0, 3)",
    "lemma_harmonic_scan": "lemma_harmonic_scan(S12, p, 1, 3)",
    "congruence25_check": "congruence25_check(S12, 1, p, 0, 2)",
    "congruence_star_check": "congruence_star_check(S12, 1, p, 0, 2)",
    "s_membership_scan": "s_membership_scan(S12, p, 2, 2, 1, 2)",
}

# Prints each call before running it, so a call that never returns is the
# last line read before the timeout.
NON_PRIME_CHILD = """
import sys
from fractions import Fraction
from mirrorint.landau import FactorialRatioSpec
from mirrorint.padic import *
from mirrorint.series import TruncatedSeries
S12 = FactorialRatioSpec((12,), (4, 3, 3, 2))
p = int(sys.argv[1])
for call in sys.argv[2:]:
    print(call, end=": ", flush=True)
    try:
        result = eval(call)
    except ValueError:
        print("ValueError", flush=True)
    else:
        print("returned", repr(result), flush=True)
"""


def test_prime_calls_cover_every_entry_point_taking_p():
    takes_p = {
        name
        for name in padic.__all__
        if inspect.isfunction(getattr(padic, name))
        and "p" in inspect.signature(getattr(padic, name)).parameters
    }
    # vp_int is hot and tests only p < 2, the one p whose loop never ends.
    assert takes_p == set(PRIME_CALLS) | {"vp_int"}


@pytest.mark.parametrize("p", [1, 4])
def test_entry_points_reject_composite(p):
    # p = 1 used to loop forever in several entry points: a child process
    # with a timeout turns a hang into a failure.
    calls = [*PRIME_CALLS.values(), *(["vp_int(5, p)"] if p < 2 else [])]
    src = os.path.dirname(os.path.dirname(padic.__file__))
    try:
        proc = subprocess.run(
            [sys.executable, "-c", NON_PRIME_CHILD, str(p), *calls],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": src},
            timeout=30,
        )
    except subprocess.TimeoutExpired as exc:
        pytest.fail(f"p = {p}: a call did not return; output so far: {exc.stdout!r}")
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.splitlines() == [f"{call}: ValueError" for call in calls]


@given(
    p=st.sampled_from([2, 3, 5, 7, 13]),
    digits=st.integers(1, 60),
    u=st.integers(1, 10**40),
    v=st.integers(0, 70),
    scale=st.integers(0, 20),
)
@settings(max_examples=200, deadline=None)
@example(p=2, digits=60, u=1, v=59, scale=0)
@example(p=13, digits=60, u=12, v=0, scale=20)
@example(p=3, digits=5, u=2, v=5, scale=1)  # residue 0: read exactly
def test_valuation_reader_matches_vp_int(p, digits, u, v, scale):
    # The scans read v_p of a residue from one gcd with the modulus.
    valuation = padic._valuation_reader(p, digits, scale)
    residue = u * p**v % p**digits
    exact = Fraction(u * p**v, p**scale)
    expected = vp_int(residue, p) - scale if residue else vp_rational(exact, p)
    assert valuation(residue, lambda: exact) == expected


def test_vp_int_tests_only_p_below_two():
    # p = 1 runs in test_entry_points_reject_composite's child process.
    assert vp_int(5, 4) == 0  # no primality test on the hot path
    with pytest.raises(ValueError, match="not prime"):
        vp_int(5, 0)


# The four grid scans on small grids.
SCANS = {
    "phi_membership_scan": lambda: phi_membership_scan(S12, 3, 2, 4),
    "s_membership_scan": lambda: s_membership_scan(S12, 3, 2, 4, 1, 3),
    "lemma_harmonic_scan": lambda: lemma_harmonic_scan(S12, 3, 1, 3),
    "lemma24_scan": lambda: lemma24_scan(S12, 3, 3),
}


@pytest.mark.parametrize("name", list(SCANS))
def test_every_scan_returns_a_list_of_rows(name):
    rows = SCANS[name]()
    assert type(rows) is list and rows
    assert all(type(row) is PadicMembershipReport for row in rows)


def test_grid_report_of_unkeyed_points_fails_without_a_witness():
    # Margins 3, -2, -2, 0: the row is the first point of least margin.
    points = [(None, 2, 5), (None, 3, 1), (None, 4, 2), (None, 1, 1)]
    report = padic._grid_report(5, "unkeyed", points)
    assert not report.member and report.witness is None
    assert (report.required_valuation, report.actual_valuation) == (3, 1)


@pytest.mark.parametrize(
    "required,actual", [(2, 3), (3, 3), (4, 3), (2, INFINITE)]
)
def test_harmonic_report_is_a_one_point_grid_report(required, actual):
    report = padic._harmonic_report(5, 2, 1, 7, required, actual)
    assert report.member == (actual >= required)
    assert report.witness == (None if report.member else (2, 1, 7))
    assert (report.required_valuation, report.actual_valuation) == (required, actual)
    assert report.value_description.endswith("L=2, s=1, m=7")


@pytest.mark.parametrize("p", [2, 3, 5])
def test_harmonic_summary_is_the_grid_report_of_every_point(p):
    # The last row reduces lemma_harmonic_check over the whole grid, unkeyed.
    rows = lemma_harmonic_scan(S6, p, 1, 4)
    points = [
        lemma_harmonic_check(S6, level, p, s, m)
        for level in range(1, 7)
        for s in range(2)
        for m in range(5)
    ]
    expected = padic._grid_report(
        p,
        rows[-1].value_description,
        [(None, r.required_valuation, r.actual_valuation) for r in points],
    )
    assert rows[-1] == expected and rows[-1].witness is None
    assert rows[:-1] == [r for r in points if not r.member]


# M = 12 for S12: levels 0 and M + 1 are outside [1, M].
LEVEL_CALLS = {
    "phi": lambda level: phi(S12, level, 2, 0, 2),
    "w_term": lambda level: w_term(S12, level, 0, 2, 0, 2, 1),
    "dwork_decomposition_check": lambda level: dwork_decomposition_check(
        S12, level, 0, 2, 2
    ),
    "congruence25_check": lambda level: congruence25_check(S12, level, 2, 0, 2),
    "congruence_star_check": lambda level: congruence_star_check(S12, level, 2, 0, 2),
    "lemma_harmonic_check": lambda level: lemma_harmonic_check(S12, level, 2, 0, 3),
    "lemma24_check": lambda level: lemma24_check(2, 1, 1, 12, 0, level),
    "lemma24_scan": lambda level: lemma24_scan(S12, 2, 5, level),
    "phi_membership_scan": lambda level: phi_membership_scan(S12, 2, 1, 2, level),
    "lemma_harmonic_scan": lambda level: lemma_harmonic_scan(S12, 2, 1, 2, level),
    "build_bundle(...).g": lambda level: build_bundle(S12, 4).g(level),
}


@pytest.mark.parametrize("level", [0, 13])
@pytest.mark.parametrize("name", list(LEVEL_CALLS))
def test_entry_points_reject_levels_outside_one_to_m(name, level):
    with pytest.raises(ValueError, match=r"level must be in \[1, 12\]"):
        LEVEL_CALLS[name](level)


# A negative index must stop at the entry point: past it, p**s is a float,
# w_term indexes its table out of range, Q is read at a negative index and
# lemma24_check gives a verdict off the lemma's m >= 0.  A negative grid
# bound must too: the grid would be empty and pass.
NEGATIVE_INDEX_CALLS = {
    "s_sum s=-1": lambda: s_sum(S12, 0, 2, -1, 2, 0),
    "s_sum m=-1": lambda: s_sum(S12, 0, 2, 0, 2, -1),
    "lemma_harmonic_check s=-1": lambda: lemma_harmonic_check(S12, 1, 2, -1, 3),
    "w_term m=-1": lambda: w_term(S12, 1, 0, 2, 0, 2, -1),
    "mu_and_g m=-3": lambda: mu_and_g(S12, 2, -3),
    "lemma_harmonic_scan s_max=-1": lambda: lemma_harmonic_scan(S12, 5, -1, 10),
    "lemma_harmonic_scan m_max=-1": lambda: lemma_harmonic_scan(S12, 5, 2, -1),
    "lemma24_scan m_max=-1": lambda: lemma24_scan(S12, 5, -1),
    "phi_membership_scan a_max=-1": lambda: phi_membership_scan(S12, 5, -1, 3),
    "phi_membership_scan k_max=-1": lambda: phi_membership_scan(S12, 5, 2, -1),
    "s_membership_scan a_max=-1": lambda: s_membership_scan(S12, 5, -1, 3, 1, 3),
    "s_membership_scan k_max=-1": lambda: s_membership_scan(S12, 5, 2, -1, 1, 3),
    "s_membership_scan s_max=-1": lambda: s_membership_scan(S12, 5, 2, 3, -1, 3),
    "s_membership_scan m_max=-1": lambda: s_membership_scan(S12, 5, 2, 3, 1, -1),
    "lemma24_check m=-1": lambda: lemma24_check(2, 1, 1, 12, -1, 1),
    "lemma24_check m=-5": lambda: lemma24_check(3, 1, 2, 12, -5, 12),
    "phi big_k=-1": lambda: phi(S12, 1, 2, 0, -1),
    "s_sum big_k=-1": lambda: s_sum(S12, 0, -1, 0, 2, 0),
    "w_term big_k=-1": lambda: w_term(S12, 1, 0, -1, 0, 2, 0),
    "congruence_star_check big_k=-1": lambda: congruence_star_check(S12, 1, 2, 0, -1),
    "dwork_decomposition_check big_k=-1": (
        lambda: dwork_decomposition_check(S12, 1, 0, -1, 2)
    ),
    "congruence25_check j=-1": lambda: congruence25_check(S12, 1, 2, 1, -1),
}


@pytest.mark.parametrize("name", list(NEGATIVE_INDEX_CALLS))
def test_entry_points_reject_negative_indices(name):
    # The message names the argument and its value: "<index> must be >= 0, got <v>".
    index, value = name.split()[-1].split("=")
    with pytest.raises(ValueError, match=f"^{index} must be >= 0, got {value}$"):
        NEGATIVE_INDEX_CALLS[name]()
