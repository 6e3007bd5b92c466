"""Acceptance suite.

Each test implements one acceptance criterion exactly, at its stated bounds,
and prints a single pass/fail line.  Run with `pytest tests/test_acceptance.py -s`
to see the lines; all checks are exact (no tolerances anywhere).
"""

import random
from fractions import Fraction

from mirrorint.landau import FactorialRatioSpec, classify, q_ratio, root_bound_dl
from mirrorint.mirror import build_bundle, nonintegrality_witness
from mirrorint.padic import (
    congruence25_check,
    dwork_decomposition_check,
    dwork_quotient_test,
    lemma24_check,
    lemma_ablanc_check,
    lemma_harmonic_check,
    phi_membership_scan,
    primes_up_to,
    s_membership_scan,
    vp_q_ratio_via_delta,
    vp_rational,
)
from mirrorint.series import TruncatedSeries
from mirrorint.zhou import batch

S6 = FactorialRatioSpec((6,), (3, 2, 1))
S12 = FactorialRatioSpec((12,), (4, 3, 3, 2))
CORPUS = [
    S6,
    S12,
    FactorialRatioSpec((3,), (1, 1, 1)),
    FactorialRatioSpec((2,), (1, 1)),
    FactorialRatioSpec((30, 1), (15, 10, 6)),
]


def _report(name, ok):
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'}")
    assert ok, name


def test_criterion_1_exponent_table():
    """Level roots of 6/3,2,1 at order 40: D = (60,6,2,1,1,1), 120 fails."""
    bundle = build_bundle(S6, 40)
    exponents = [root_bound_dl(S6, level) for level in range(1, 7)]
    ok = exponents == [60, 6, 2, 1, 1, 1]
    q_l = {
        level: TruncatedSeries(tuple(bundle.root_coeffs(level))) for level in range(1, 7)
    }
    for level, d in zip(range(1, 7), exponents):
        ok = ok and q_l[level].vth_root(d).integrality().integral
    ok = ok and not q_l[1].vth_root(120).integrality().integral
    _report("1 (level-root exponent table)", ok)


def test_criterion_2_unit_fraction_roots():
    """Every decomposition with n <= 4 parts: k-th root integral to order 30."""
    summary = batch(4, order=30)
    ok = summary.total == 19 and summary.all_passed
    ok = ok and any(v.instance.ks == (3, 4, 4, 6) for v in summary.verdicts)
    _report("2 (unit-fraction k-th roots, n <= 4)", ok)


def test_criterion_3_single_top_entry():
    """e=(p), f=(1,..,1) for p in {3,5}: p-th root integral to order 60."""
    ok = True
    for p in (3, 5):
        spec = FactorialRatioSpec((p,), (1,) * p)
        q = TruncatedSeries(tuple(build_bundle(spec, 60).root_coeffs()))
        ok = ok and q.vth_root(p).integrality().integral
    _report("3 (single-top-entry p-th roots)", ok)


def test_criterion_4_valuation_oracle_equivalence():
    """Step-function valuation formula == direct valuation, n <= 200, p <= 50."""
    primes = primes_up_to(50)
    ok = True
    for spec in CORPUS:
        for n in range(0, 201):
            q = q_ratio(spec, n)
            for p in primes:
                if vp_q_ratio_via_delta(spec, n, p) != vp_rational(q, p):
                    ok = False
    _report("4 (valuation oracle equivalence)", ok)


def test_criterion_5_proof_chain_scans():
    """Membership scans and the combinatorial decomposition on both specs."""
    ok = True
    for spec in (S6, S12):
        big_m = spec.max_entry
        for p in (2, 3, 5, 7):
            ok = ok and all(
                r.member for r in phi_membership_scan(spec, p, a_max=p - 1, k_max=10)
            )
            for level in range(1, big_m + 1):
                for s in range(3):
                    for m in range(21):
                        ok = ok and lemma_harmonic_check(spec, level, p, s, m).member
                for a in range(p):
                    for j in range(16):
                        ok = ok and congruence25_check(spec, level, p, a, j)
            (s_report,) = s_membership_scan(
                spec, p, a_max=p - 1, k_max=10, s_max=2, m_max=10
            )
            ok = ok and s_report.member
        for p in (2, 3, 5):
            for level in (1, 2, big_m):
                for a in range(p):
                    for big_k in range(13):
                        ok = ok and dwork_decomposition_check(
                            spec, level, a, big_k, p
                        )
    _report("5 (proof-chain membership scans)", ok)


def test_criterion_6_lemma_grids():
    """Exhaustive truth of the two fractional-part lemmas on their grids."""
    ok = True
    for p in (2, 3, 5):
        for s in (1, 2):
            for big_m in range(1, 9):
                for level in range(1, big_m + 1):
                    for a in range(p**s):
                        for m in range(31):
                            ok = ok and lemma24_check(p, s, a, big_m, m, level)
    for spec in CORPUS:
        for p in (2, 3, 5, 7):
            for m in range(1, 201):
                ok = ok and lemma_ablanc_check(spec, p, m)
    _report("6 (lemma grids exhaustive)", ok)


def test_criterion_7_almost_all_primes_failure():
    """30,1/15,10,6: classification and a nonintegrality witness."""
    spec = FactorialRatioSpec((30, 1), (15, 10, 6))
    verdict = classify(spec)
    ok = verdict.landau_integral and not verdict.case_i
    ok = ok and Fraction(1, 5) in verdict.zero_witnesses
    witness = nonintegrality_witness(spec, prime_bound=200, order=60)
    if witness is None:
        # enlarge the search once before failing, per the stated protocol
        witness = nonintegrality_witness(spec, prime_bound=500, order=120)
    ok = ok and witness is not None and witness.valuation < 0
    _report("7 (almost-all-primes failure witness)", ok)


def test_criterion_8_quotient_test_property_suite():
    """50 random integer unit series pass; denominator-p corruption fails."""
    rng = random.Random(20260823)
    ok = True
    for _ in range(50):
        coeffs = [1] + [rng.randint(-50, 50) for _ in range(27)]
        ser = TruncatedSeries.from_coeffs(coeffs)
        for p in (2, 3, 5):
            ok = ok and dwork_quotient_test(ser, p).member
            idx = rng.randint(1, 27)
            corrupted = list(ser.coeffs)
            corrupted[idx] += Fraction(1, p)
            ok = ok and not dwork_quotient_test(
                TruncatedSeries(tuple(corrupted)), p
            ).member
    _report("8 (quotient-test property suite)", ok)
