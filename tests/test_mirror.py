import math
from fractions import Fraction

import pytest

from mirrorint import landau, mirror, zhou
from mirrorint.landau import FactorialRatioSpec, harmonic, q_ratio, root_bound_dl
from mirrorint.mirror import (
    CaseTwoError,
    MirrorMapBundle,
    NonintegralityWitness,
    build_bundle,
    nonintegrality_witness,
    reference_exponents,
    root_exponent_for_q,
    verify_theorem1,
)
from mirrorint.series import TruncatedSeries

S6 = FactorialRatioSpec((6,), (3, 2, 1))
S2 = FactorialRatioSpec((2,), (1, 1))
S12 = FactorialRatioSpec((12,), (4, 3, 3, 2))
TRIVIAL = FactorialRatioSpec((1,), (1,))
CASE_II = FactorialRatioSpec((30, 1), (15, 10, 6))


class TestBuildBundle:
    def test_f_is_central_binomials(self):
        bundle = build_bundle(S2, 6)
        assert bundle.F[:4] == (1, 2, 6, 20)

    def test_g_first_coefficient(self):
        g = build_bundle(S2, 4).g()
        assert g[1] == 2 * (2 * harmonic(2) - 2 * harmonic(1))
        assert g[1] == 2

    def test_g_level_first_coefficient(self):
        for spec in (S6, S12):
            bundle = build_bundle(spec, 3)
            for level in range(1, spec.max_entry + 1):
                assert bundle.g(level)[1] == q_ratio(spec, 1) * harmonic(level)

    def test_g_coefficients_independent_summation(self):
        # oracle: accumulate the harmonic weight term by term, in reverse
        g = build_bundle(S6, 50).g()
        for n in range(1, 51):
            weight = Fraction(0)
            for c in reversed(S6.f):
                weight -= c * sum(Fraction(1, i) for i in range(1, c * n + 1))
            for c in reversed(S6.e):
                weight += c * sum(Fraction(1, i) for i in range(1, c * n + 1))
            assert g[n] == q_ratio(S6, n) * weight

    def test_unbalanced_rejected(self):
        with pytest.raises(ValueError):
            build_bundle(FactorialRatioSpec((2,), (1,)), 10)

    def test_constant_terms(self):
        bundle = build_bundle(S6, 8)
        assert bundle.F[0] == 1
        for level in (None, *range(1, 7)):
            assert bundle.g(level)[0] == 0
            assert next(bundle.root_coeffs(level)) == 1

    def test_integral_coefficients_are_ints(self):
        bundle = build_bundle(S6, 30)
        for c in bundle.F + tuple(bundle.root_coeffs(1)):
            assert type(c) is int, c

    @pytest.mark.parametrize("level", [0, 7, -1])
    def test_level_outside_range_rejected(self, level):
        # H_0 = 0 would make g(0) silently zero.
        bundle = build_bundle(S6, 8)
        with pytest.raises(ValueError):
            bundle.g(level)
        with pytest.raises(ValueError):
            bundle.root_integrality(level, 1)

    @pytest.mark.parametrize("level", range(1, 7))
    def test_root_coeffs_read_their_level(self, level):
        # At z^1 the root of q_L is Q(1) H_L / v, which 13 never divides here.
        bundle = build_bundle(S6, 4)
        assert list(bundle.root_coeffs(level))[1] == 60 * harmonic(level)
        report = bundle.root_integrality(level, 13)
        assert report.first_bad_index == 1
        assert report.first_bad_coefficient == 60 * harmonic(level) / 13


def _root(bundle, level=None) -> TruncatedSeries:
    """q_L for a level, or z^-1 q for level=None, as a ring element."""
    return TruncatedSeries(tuple(bundle.root_coeffs(level)))


def product_relation_check(bundle) -> bool:
    """Check exp(G/F) = prod q_{e_i}^{e_i} / prod q_{f_j}^{f_j} exactly."""
    rhs = TruncatedSeries.one(bundle.order)
    for c in bundle.spec.e:
        rhs = rhs * _root(bundle, c) ** c
    for c in bundle.spec.f:
        rhs = rhs * _root(bundle, c).reciprocal() ** c
    return rhs == _root(bundle)


class TestProductRelation:
    @pytest.mark.parametrize(
        "spec,order", [(S6, 30), (S2, 30), (TRIVIAL, 10), (S12, 20)]
    )
    def test_holds(self, spec, order):
        assert product_relation_check(build_bundle(spec, order))

    def test_trivial_both_sides_one(self):
        bundle = build_bundle(TRIVIAL, 10)
        assert _root(bundle).coeffs == (1,) + (0,) * 10


class TestVerifyTheorem1:
    def test_reference_levels(self):
        reports = verify_theorem1(S6, 40)
        assert [root_bound_dl(S6, level) for level in range(1, 7)] == [
            60, 6, 2, 1, 1, 1,
        ]
        assert all(rep.integral for rep in reports.values())

    def test_trivial(self):
        reports = verify_theorem1(TRIVIAL, 10)
        assert reports[1].integral

    def test_lian_yau_shape(self):
        reports = verify_theorem1(FactorialRatioSpec((3,), (1, 1, 1)), 60)
        assert reports[3].integral

    def test_refuses_case_ii(self):
        with pytest.raises(CaseTwoError):
            verify_theorem1(CASE_II, 10)


class TestRootExponent:
    def test_holds_for_six(self):
        verdict = root_exponent_for_q(S6, 6)
        assert verdict.hypothesis_holds
        # arithmetic behind the verdict, spelled out
        for level in (1, 2, 3, 6):
            needed = 6 // math.gcd(level, 6)
            assert root_bound_dl(S6, level) % needed == 0

    def test_theta_one_always_holds(self):
        for spec in (S6, S2, S12):
            assert root_exponent_for_q(spec, 1).hypothesis_holds

    def test_divisor_structure_for_unit_fraction_shape(self):
        # every entry divides M, so theta = M works (M/L divides D_L)
        verdict = root_exponent_for_q(S12, 12)
        assert verdict.hypothesis_holds

    def test_rejects_non_divisor(self):
        with pytest.raises(ValueError):
            root_exponent_for_q(S6, 4)

    def test_confirmed_by_series(self):
        bundle = build_bundle(S6, 40)
        assert _root(bundle).vth_root(6).integrality().integral


class TestReferenceExponents:
    def test_theta_values(self):
        ref = reference_exponents(S6)
        assert ref.theta_l[1] == 1
        assert ref.theta_l[3] == 6

    def test_divisibility_chain_all_ones(self):
        # D_L divides Q(1)/Theta_L for f = (1,...,1) shapes
        spec = FactorialRatioSpec((6,), (1,) * 6)
        ref = reference_exponents(spec)
        for level in range(1, 7):
            quotient = ref.q_one_over_theta[level]
            assert quotient.denominator == 1
            assert quotient % root_bound_dl(spec, level) == 0

    def test_shape_exponents_present(self):
        spec = FactorialRatioSpec((5,), (1,) * 5)
        ref = reference_exponents(spec)
        assert ref.xi is not None and ref.omega is not None
        assert ref.xi_exponent.denominator == 1
        assert ref.omega_exponent.denominator == 1

    def test_shape_exponents_absent_for_other_shapes(self):
        ref = reference_exponents(S6)
        assert ref.xi is None and ref.omega is None

    @pytest.mark.parametrize(
        "e,f,shaped",
        [
            ((5,), (1,) * 5, True),
            ((3,), (1,) * 3, True),
            ((2, 2), (1,) * 4, True),
            ((1,), (1,), False),
            ((4,), (2, 1, 1), False),
        ],
    )
    def test_shape_fields_are_set_together(self, e, f, shaped):
        # Xi, Omega and both exponents exist exactly for (N,...,N)/(1,...,1),
        # N >= 2; theta_l and Q(1)/theta_l exist for every spec.
        spec = FactorialRatioSpec(e, f)
        ref = reference_exponents(spec)
        fields = (ref.xi, ref.omega, ref.xi_exponent, ref.omega_exponent)
        assert [x is not None for x in fields] == [shaped] * 4
        q_one = q_ratio(spec, 1)
        if shaped:
            assert ref.xi_exponent == ref.xi * q_one
            assert ref.omega_exponent == ref.omega * q_one * len(e) * e[0]
        assert ref.spec == spec and set(ref.theta_l) == set(ref.q_one_over_theta)

    def test_xi_exponent_certified_by_series(self):
        # the predicted root of q_N must actually pass at desk order
        spec = FactorialRatioSpec((5,), (1,) * 5)
        ref = reference_exponents(spec)
        v = int(ref.xi_exponent)
        bundle = build_bundle(spec, 30)
        assert _root(bundle, 5).vth_root(v).integrality().integral


@pytest.fixture
def q_builds(monkeypatch):
    """The name of every landau call that forms Q for the bundle, in call order."""
    calls = []
    for name in ("q_ratios", "log_companion"):
        def spy(spec, order, name=name, real=getattr(landau, name)):
            calls.append(name)
            return real(spec, order)

        monkeypatch.setattr(mirror, name, spy)
    return calls


class TestOnePass:
    def test_g_then_f_forms_q_once(self, q_builds):
        bundle = build_bundle(S6, 12)
        g = bundle.g()
        assert bundle.F == tuple(q_ratio(S6, n) for n in range(13))
        weight = 6 * harmonic(6) - 3 * harmonic(3) - 2 * harmonic(2) - harmonic(1)
        assert g[1] == q_ratio(S6, 1) * weight
        assert q_builds == ["log_companion"]

    def test_f_alone_builds_no_g(self, q_builds):
        build_bundle(S6, 12).F
        assert q_builds == ["q_ratios"]

    def test_verify_zhou_runs_one_pass(self, q_builds):
        assert zhou.verify_zhou(zhou.ZhouInstance((2, 3, 7, 42)), 20).passed
        assert q_builds == ["log_companion"]

    def test_root_of_a_level_runs_no_pass(self, q_builds):
        bundle = build_bundle(S6, 40)
        assert bundle.root_integrality(2, root_bound_dl(S6, 2)).integral
        assert bundle.root_integrality(3, root_bound_dl(S6, 3)).integral
        assert q_builds == ["q_ratios"]

    def test_witness_scan_forms_q_once(self, q_builds):
        # q first, then the levels: the pass for G gives the F they read.
        witness = nonintegrality_witness(FactorialRatioSpec((6,), (1, 1, 4)), 200, 30)
        assert witness == NonintegralityWitness(2, "qL=4", 1, -1)
        assert q_builds == ["log_companion"]


class TestNonintegralityWitness:
    def test_case_ii_produces_witness(self):
        witness = nonintegrality_witness(CASE_II, prime_bound=50, order=40)
        assert witness is not None
        assert witness.valuation < 0

    def test_case_i_has_none(self):
        assert nonintegrality_witness(S6, prime_bound=20, order=20) is None

    def test_trivial_has_none(self):
        assert nonintegrality_witness(TRIVIAL, prime_bound=20, order=10) is None

    @pytest.mark.parametrize(
        "spec,expected",
        [
            (FactorialRatioSpec((6,), (1, 1, 4)), (2, "qL=4", 1, -1)),
            (FactorialRatioSpec((9,), (2, 2, 2, 3)), (3, "qL=6", 14, -1)),
            (CASE_II, (2, "q", 7, -2)),
        ],
        ids=str,
    )
    def test_scan_order(self, spec, expected):
        # Primes ascending; for each prime q, then the q_L by level.
        witness = nonintegrality_witness(spec, prime_bound=200, order=30)
        assert witness == NonintegralityWitness(*expected)

    def test_scan_builds_no_level_past_the_witness(self, monkeypatch):
        built = []
        root_coeffs = MirrorMapBundle.root_coeffs

        def spy(bundle, level=None):
            built.append(level)
            return root_coeffs(bundle, level)

        monkeypatch.setattr(MirrorMapBundle, "root_coeffs", spy)
        spec = FactorialRatioSpec((6,), (1, 1, 4))
        nonintegrality_witness(spec, prime_bound=200, order=30)
        assert built == [None, 1, 2, 3, 4]

    @pytest.mark.parametrize(
        "spec,order,drawn",
        [
            # The corpus probe: q fails at index 7 for p = 2.
            (CASE_II, 40, {None: 8}),
            # Every earlier target is read to the end at p = 2, qL=4 to index 1.
            (
                FactorialRatioSpec((6,), (1, 1, 4)),
                30,
                {None: 31, 1: 31, 2: 31, 3: 31, 4: 2},
            ),
        ],
        ids=str,
    )
    def test_scan_draws_only_the_coefficients_it_reads(
        self, monkeypatch, spec, order, drawn
    ):
        counts = {}
        root_coeffs = MirrorMapBundle.root_coeffs

        def spy(bundle, level=None):
            for c in root_coeffs(bundle, level):
                counts[level] = counts.get(level, 0) + 1
                yield c

        monkeypatch.setattr(MirrorMapBundle, "root_coeffs", spy)
        assert nonintegrality_witness(spec, prime_bound=200, order=order)
        assert counts == drawn

    def test_non_landau_rejected(self):
        with pytest.raises(ValueError):
            nonintegrality_witness(
                FactorialRatioSpec((1, 1), (2,)), prime_bound=10, order=10
            )
