"""The step-by-step sequences against the random-access primitives.

q_ratios is checked against q_ratio, log_companion against q_ratio times the
harmonic weight (and its Q against q_ratios), both against one step kernel
that alone forms a step's products, the symmetry of D's jumps that the
kernel pairs its factors by against delta_at, harmonic_sums and
harmonic_block against harmonic (itself against a plain sum of unit
fractions), and profile and classify against oracles that value every
candidate breakpoint i/c as a Fraction with delta_at.
"""

import sys
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mirrorint import landau
from mirrorint.landau import (
    FactorialRatioSpec,
    LandauProfile,
    classify,
    delta_at,
    harmonic,
    harmonic_block,
    harmonic_sums,
    log_companion,
    profile,
    q_ratio,
    q_ratios,
)
from mirrorint.zhou import enumerate_decompositions

ZHOU_SPECS = tuple(
    instance.spec for n in range(1, 6) for instance in enumerate_decompositions(n)
)
Z1806 = FactorialRatioSpec((1806,), (903, 602, 258, 42, 1))
UNBALANCED = FactorialRatioSpec((3,), (1, 1))
NON_LANDAU = FactorialRatioSpec((2, 2), (3, 1))
# L = 4: the down side holds only s = L/2 and s = L, no pair.
HALF_AND_WHOLE = FactorialRatioSpec((4,), (2, 2))
# L = 3 is odd, so there is no s = L/2.
ODD_LCM = FactorialRatioSpec((3,), (1, 1, 1))

entries = st.lists(st.integers(1, 12), min_size=1, max_size=4).map(tuple)
# Balanced and unbalanced, Landau and not, and every Zhou spec (k up to 1806).
specs = st.one_of(
    st.builds(FactorialRatioSpec, entries, entries),
    st.sampled_from(ZHOU_SPECS),
)


@given(spec=specs, order=st.integers(0, 8))
@settings(max_examples=60, deadline=None)
@example(spec=Z1806, order=8)
@example(spec=UNBALANCED, order=12)
@example(spec=NON_LANDAU, order=12)
@example(spec=HALF_AND_WHOLE, order=12)
@example(spec=ODD_LCM, order=12)
# L = 765765 is far above the entry sums: the jump table is sparse in 1..L.
@example(spec=FactorialRatioSpec((7, 11, 13), (5, 9, 17)), order=6)
def test_q_ratios_match_q_ratio(spec, order):
    values = q_ratios(spec, order)
    assert len(values) == order + 1
    for n, value in enumerate(values):
        expected = q_ratio(spec, n)
        assert value == expected
        assert isinstance(value, int) == (expected.denominator == 1)


@given(spec=specs, order=st.integers(0, 8))
@settings(max_examples=60, deadline=None)
@example(spec=Z1806, order=8)
@example(spec=UNBALANCED, order=12)
@example(spec=NON_LANDAU, order=12)
@example(spec=HALF_AND_WHOLE, order=12)
@example(spec=ODD_LCM, order=12)
def test_log_companion_matches_harmonic_weight(spec, order):
    q, values = log_companion(spec, order)
    # The pass's Q is q_ratios', value for value and type for type.
    expected_q = q_ratios(spec, order)
    assert q == expected_q
    assert [type(x) for x in q] == [type(x) for x in expected_q]
    assert len(values) == order + 1
    for n, value in enumerate(values):
        weight = sum(e * harmonic(e * n) for e in spec.e) - sum(
            f * harmonic(f * n) for f in spec.f
        )
        expected = q_ratio(spec, n) * weight
        assert value == expected
        assert isinstance(value, int) == (expected.denominator == 1)


@pytest.mark.parametrize("build", [landau.q_ratios, landau.log_companion])
@pytest.mark.parametrize(
    "spec, order", [(Z1806, 3), (NON_LANDAU, 7), (HALF_AND_WHOLE, 5), (ODD_LCM, 5)]
)
def test_q_and_g_step_through_one_kernel(build, spec, order, monkeypatch):
    # Each reader draws exactly N steps from landau._steps, and no other code
    # forms a step's products: every product of factors comes from the kernel.
    drawn, calls = [], []
    kernel = landau._steps

    def steps(spec):
        for step in kernel(spec):
            drawn.append(step)
            yield step

    def spy(name, real):
        def wrapper(*args):
            calls.append((name, sys._getframe(1).f_code.co_name))
            return real(*args)

        return wrapper

    monkeypatch.setattr(landau, "_steps", steps)
    for name in ("_paired_product", "_product"):
        monkeypatch.setattr(landau, name, spy(name, getattr(landau, name)))
    monkeypatch.setattr(landau.math, "prod", spy("prod", landau.math.prod))
    build(spec, order)
    assert len(drawn) == order
    # C once, then one paired product per sign and step.
    assert Counter(call for call in calls if call[0] != "_product") == {
        ("prod", "_steps"): 2,
        ("_paired_product", "_steps"): 2 * order,
    }
    assert {caller for name, caller in calls if name == "_product"} <= {
        "_paired_product",
        "_product",
    }


@given(spec=specs)
@settings(max_examples=80, deadline=None)
@example(spec=Z1806)
@example(spec=UNBALANCED)
@example(spec=NON_LANDAU)
def test_jumps_are_symmetric(spec):
    # The lemma behind the step kernel's paired ticks: eps_s = eps_{L-s}, 0 < s < L.
    lcm, ticks, eps = spec.jump_table
    jumps = dict(zip(ticks, eps))
    for s in range(1, lcm):
        assert jumps.get(s, 0) == jumps.get(lcm - s, 0)
    # Each eps_s against D itself: the step of D at s/L.
    for s, w in jumps.items():
        x = Fraction(s, lcm)
        assert w == delta_at(spec, x) - delta_at(spec, x - Fraction(1, 2 * lcm))


@given(level=st.integers(1, 40), order=st.integers(0, 12))
@settings(max_examples=60, deadline=None)
@example(level=1, order=40)
@example(level=1806, order=3)
def test_harmonic_sums_match_harmonic(level, order):
    values = harmonic_sums(level, order)
    assert len(values) == order + 1
    for n, value in enumerate(values):
        assert value == harmonic(level * n)
        assert type(value) is Fraction


@given(bounds=st.lists(st.integers(0, 400), min_size=2, max_size=2).map(sorted))
@settings(max_examples=50, deadline=None)
@example(bounds=[0, 0])
@example(bounds=[17, 17])
@example(bounds=[400, 400])  # a = b: the empty product, P = 1 and P' = 0
@example(bounds=[5, 23])  # one binary split: the block is longer than a leaf
@example(bounds=[0, 400])  # splits down to leaves of at most 16 factors
def test_harmonic_block_is_a_difference_of_harmonics(bounds):
    a, b = bounds
    assert harmonic_block(a, b) == harmonic(b) - harmonic(a)


def test_harmonic_is_the_sum_of_unit_fractions():
    for n in range(60):
        assert harmonic(n) == sum((Fraction(1, k) for k in range(1, n + 1)), Fraction(0))


def _profile_oracle(spec):
    points = sorted({Fraction(i, c) for c in spec.e + spec.f for i in range(c)})
    values = tuple(delta_at(spec, b) for b in points)
    jumps = []
    for i, b in enumerate(points):
        if i == 0 and not spec.balanced:
            continue
        jumps.append((b, values[i] - values[i - 1]))  # i = 0 wraps to the last piece
    return LandauProfile(tuple(points), values, tuple(jumps))


def _classify_oracle(spec):
    prof = _profile_oracle(spec)
    pieces = list(zip(prof.breakpoints, prof.values))
    negative = [b for b, v in pieces if v < 0]
    if delta_at(spec, Fraction(1)) < 0:
        negative.append(Fraction(1))
    zero = [b for b, v in pieces if b >= Fraction(1, spec.max_entry) and v < 1]
    return tuple(negative), tuple(zero)


@given(spec=specs)
@settings(max_examples=80, deadline=None)
@example(spec=Z1806)
@example(spec=UNBALANCED)
@example(spec=NON_LANDAU)
@example(spec=FactorialRatioSpec((30, 1), (15, 10, 6)))
def test_profile_and_classify_match_fraction_oracle(spec):
    assert profile(spec) == _profile_oracle(spec)
    verdict = classify(spec)
    negative, zero = _classify_oracle(spec)
    assert verdict.negative_witnesses == negative
    assert verdict.zero_witnesses == zero
    assert verdict.landau_integral == (not negative)
    assert verdict.case_i == (not zero)
