import math
import pickle
from fractions import Fraction
from functools import cached_property

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mirrorint import cli, landau, mirror, padic, zhou
from mirrorint.landau import (
    FactorialRatioSpec,
    classify,
    delta_at,
    harmonic,
    log_companion,
    profile,
    q_ratio,
    q_ratios,
    root_bound_dl,
)

S6 = FactorialRatioSpec((6,), (3, 2, 1))
S12 = FactorialRatioSpec((12,), (4, 3, 3, 2))
S2 = FactorialRatioSpec((2,), (1, 1))
TRIVIAL = FactorialRatioSpec((1,), (1,))
CASE_II = FactorialRatioSpec((30, 1), (15, 10, 6))

rationals = st.fractions(min_value=-3, max_value=3, max_denominator=60)
unit_rationals = st.fractions(min_value=0, max_value=1, max_denominator=97).filter(
    lambda x: x < 1
)


class TestSpec:
    def test_rejects_zero_entries(self):
        with pytest.raises(ValueError):
            FactorialRatioSpec((6,), (0, 2))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            FactorialRatioSpec((), (1,))

    @pytest.mark.parametrize(
        "e,f", [((2.5,), (1, 1)), ((2,), (1.0, 1)), ((Fraction(2),), (1, 1))]
    )
    def test_rejects_non_integer_entries(self, e, f):
        # int() would truncate 2.5 to the valid spec 2/1,1.
        with pytest.raises(TypeError):
            FactorialRatioSpec(e, f)

    def test_invariants(self):
        assert S6.max_entry == 6
        assert S6.balanced
        assert S6.disjoint
        assert not TRIVIAL.disjoint
        assert FactorialRatioSpec((2,), (1,)).balanced is False


class TestQRatio:
    def test_worked_example(self):
        assert q_ratio(S6, 1) == 60

    def test_n_zero(self):
        assert q_ratio(S12, 0) == 1

    def test_direct_factorials(self):
        # oracle: direct big-integer evaluation
        expected = Fraction(
            math.factorial(12),
            math.factorial(4) * math.factorial(3) ** 2 * math.factorial(2),
        )
        assert expected == 277200
        assert q_ratio(S12, 1) == expected

    @pytest.mark.parametrize("spec", [S6, S12, S2, CASE_II])
    def test_landau_criterion_forward(self, spec):
        assert classify(spec).landau_integral
        for n in range(201):
            assert q_ratio(spec, n).denominator == 1

    def test_landau_criterion_reverse(self):
        bad = FactorialRatioSpec((1, 1), (2,))
        assert not classify(bad).landau_integral
        assert any(q_ratio(bad, n).denominator != 1 for n in range(1, 10))


class TestDelta:
    def test_zero(self):
        assert delta_at(S6, Fraction(0)) == 0

    def test_direct_floor(self):
        assert delta_at(S6, Fraction(1, 6)) == 1

    def test_jump_at_one_third(self):
        left = delta_at(S12, Fraction(1, 3) - Fraction(1, 1000))
        assert delta_at(S12, Fraction(1, 3)) == left - 1

    @given(x=rationals)
    def test_fractional_part_identity(self, x):
        frac = x - math.floor(x)
        expected = delta_at(S12, frac) + (sum(S12.e) - sum(S12.f)) * math.floor(x)
        assert delta_at(S12, x) == expected

    @given(x=rationals)
    @pytest.mark.parametrize("spec", [S6, S2, CASE_II])
    def test_periodicity_balanced(self, spec, x):
        assert delta_at(spec, x) == delta_at(spec, x + 1)


class TestProfile:
    def test_expected_negative_jumps(self):
        jumps = dict(profile(S12).jumps)
        for abscissa in (Fraction(1, 3), Fraction(1, 2), Fraction(2, 3)):
            assert jumps[abscissa] == -1

    def test_trivial_constant_zero(self):
        prof = profile(TRIVIAL)
        assert prof.breakpoints == (Fraction(0),)
        assert prof.values == (0,)

    def test_nondecreasing_and_zero_piece(self):
        prof = profile(S6)
        # exhaustive: value at each piece midpoint equals the stored value
        for i, b in enumerate(prof.breakpoints):
            nxt = (
                prof.breakpoints[i + 1]
                if i + 1 < len(prof.breakpoints)
                else Fraction(1)
            )
            mid = (b + nxt) / 2
            assert delta_at(S6, mid) == prof.values[i]
        assert all(a <= b for a, b in zip(prof.values, prof.values[1:]))
        zero_pieces = [b for b, v in zip(prof.breakpoints, prof.values) if v == 0]
        assert max(zero_pieces) < Fraction(1, 6)
        assert prof.values[prof.breakpoints.index(Fraction(1, 6))] >= 1

    @given(x=unit_rationals)
    @settings(max_examples=300)
    @pytest.mark.parametrize("spec", [S6, S12, CASE_II])
    def test_piece_values_match_delta(self, spec, x):
        prof = profile(spec)
        piece = max(i for i, b in enumerate(prof.breakpoints) if b <= x)
        assert prof.values[piece] == delta_at(spec, x)


class TestClassify:
    def test_case_i_spec(self):
        verdict = classify(S6)
        assert verdict.landau_integral and verdict.case_i

    def test_case_ii_spec(self):
        verdict = classify(CASE_II)
        assert verdict.landau_integral
        assert not verdict.case_i
        assert Fraction(1, 5) in verdict.zero_witnesses

    def test_trivial_vacuous(self):
        verdict = classify(TRIVIAL)
        assert verdict.landau_integral and verdict.case_i


@pytest.fixture
def table_builds(monkeypatch):
    """Every spec whose jump table gets built, one entry per build."""
    builds = []
    build = vars(FactorialRatioSpec)["jump_table"].func

    def counting(spec):
        builds.append(spec)
        return build(spec)

    table = cached_property(counting)
    table.__set_name__(FactorialRatioSpec, "jump_table")
    monkeypatch.setattr(FactorialRatioSpec, "jump_table", table)
    return builds


class TestJumpTable:
    def test_one_spec_enumerates_d_once(self, table_builds):
        spec = FactorialRatioSpec((1806,), (903, 602, 258, 42, 1))
        classify(spec)
        profile(spec)
        q_ratios(spec, 3)
        log_companion(spec, 3)
        classify(spec)
        assert table_builds == [spec]

    def test_zhou_instance_enumerates_d_once(self, table_builds):
        # classify, then one log_companion pass for F and G.
        verdict = zhou.verify_zhou(zhou.ZhouInstance((2, 3, 7, 42)), 4)
        assert verdict.passed
        assert table_builds == [FactorialRatioSpec((42,), (21, 14, 6, 1))]

    def test_spec_stays_field_only(self):
        spec = FactorialRatioSpec((30,), (15, 10, 6))
        fresh = FactorialRatioSpec(spec.e, spec.f)
        classify(spec)
        assert "jump_table" in vars(spec) and "jump_table" not in vars(fresh)
        assert spec == fresh and hash(spec) == hash(fresh)
        assert repr(spec) == repr(fresh)
        assert pickle.dumps(spec) == pickle.dumps(fresh)
        clone = pickle.loads(pickle.dumps(spec))
        assert clone == spec and "jump_table" not in vars(clone)
        assert clone.jump_table == spec.jump_table


class TestRootBound:
    def test_level_one(self):
        assert root_bound_dl(S6, 1) == 60

    def test_level_max(self):
        assert root_bound_dl(S6, 6) == 1

    def test_level_two(self):
        assert root_bound_dl(S6, 2) == 6

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            root_bound_dl(S6, 7)
        with pytest.raises(ValueError):
            root_bound_dl(S6, 0)


@pytest.mark.parametrize("level", [-2, 0])
def test_harmonic_sums_reject_levels_below_one(level):
    # H_{Ln} for a level below 1 is no harmonic number the package uses.
    with pytest.raises(ValueError, match="level must be >= 1"):
        landau.harmonic_sums(level, 3)


def test_harmonic_values():
    assert harmonic(0) == 0
    assert harmonic(1) == 1
    assert harmonic(3) == Fraction(11, 6)


def test_no_process_global_caches():
    # q_ratio and harmonic recompute from scratch and are test references:
    # no other module of the package reads them.
    assert not hasattr(q_ratio, "cache_info")
    assert not hasattr(landau, "_HARMONIC")
    for module in (padic, mirror, zhou, cli):
        assert not {"q_ratio", "harmonic"} & set(vars(module)), module.__name__
