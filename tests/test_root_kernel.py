"""The integer exp kernel against the Fraction series ring it replaces.

For every target the oracle is (G_L * F.reciprocal()).exp().vth_root(v)
(G in place of G_L for q), built with TruncatedSeries only.
"""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mirrorint.landau import FactorialRatioSpec, classify, root_bound_dl
from mirrorint.mirror import build_bundle
from mirrorint.series import TruncatedSeries, exp_quotient_root

S6 = FactorialRatioSpec((6,), (3, 2, 1))


@st.composite
def balanced_specs(draw):
    """Small specs, with the lighter side topped up to equal weight."""
    entry = st.integers(1, 4)
    e = draw(st.lists(entry, min_size=1, max_size=2))
    f = draw(st.lists(entry, min_size=1, max_size=2))
    gap = sum(e) - sum(f)
    if gap > 0:
        f.append(gap)
    elif gap < 0:
        e.append(-gap)
    return FactorialRatioSpec(tuple(e), tuple(f))


@given(
    spec=balanced_specs(),
    order=st.integers(1, 25),
    wrong=st.integers(2, 40),
)
@settings(max_examples=40, deadline=None)
@example(spec=S6, order=25, wrong=2)  # case (i)
@example(spec=FactorialRatioSpec((3,), (1, 2)), order=25, wrong=7)  # case (ii)
@example(spec=FactorialRatioSpec((1, 1), (2,)), order=25, wrong=3)  # non-Landau
def test_kernel_matches_fraction_ring(spec, order, wrong):
    bundle = build_bundle(spec, order)
    f_inv = bundle.F.reciprocal()
    targets = [(None, bundle.G, spec.max_entry)] + [
        (level, g, root_bound_dl(spec, level)) for level, g in bundle.G_L.items()
    ]
    for level, g, natural in targets:
        exp_h = (g * f_inv).exp()
        for v in (1, natural, wrong * natural):
            oracle = exp_h.vth_root(v)
            assert list(bundle.root_coeffs(level, v)) == list(oracle.coeffs)
            assert bundle.root_integrality(level, v) == oracle.integrality()


@given(
    f_tail=st.lists(st.integers(-30, 30), min_size=1, max_size=14),
    g_tail=st.lists(
        st.fractions(-50, 50, max_denominator=40), min_size=1, max_size=14
    ),
    v=st.integers(1, 12),
)
@settings(max_examples=60, deadline=None)
@example(f_tail=[-3, 5, -7, 2], g_tail=[Fraction(1, 6), Fraction(-5, 4), 0, Fraction(7, 9)], v=1)
@example(f_tail=[-1, -1, -1], g_tail=[2, -4, 6], v=2)
def test_kernel_on_arbitrary_quotients(f_tail, g_tail, v):
    # Inputs no bundle produces: f with negative entries, g with any
    # denominators, and the two of different lengths.
    f = [1] + f_tail
    g = [0] + g_tail
    order = min(len(f), len(g)) - 1
    oracle = (
        TruncatedSeries.from_coeffs(g, order)
        * TruncatedSeries.from_coeffs(f, order).reciprocal()
    ).exp().vth_root(v)
    assert list(exp_quotient_root(g, f, v)) == list(oracle.coeffs)


def test_classes_of_examples():
    # The pinned examples above cover each classification.
    verdicts = [
        classify(s)
        for s in (S6, FactorialRatioSpec((3,), (1, 2)), FactorialRatioSpec((1, 1), (2,)))
    ]
    assert [(v.landau_integral, v.case_i) for v in verdicts] == [
        (True, True),
        (True, False),
        (False, False),
    ]


@pytest.mark.parametrize("root", [120, 7, 61])
def test_wrong_roots_caught_at_index_one(root):
    # y_1 = Q(1) H_1 / v = 60 / v for q_1 of 6/3,2,1.
    report = build_bundle(S6, 40, levels=(1,)).root_integrality(1, root)
    assert not report.integral
    assert report.first_bad_index == 1
    assert report.first_bad_coefficient == Fraction(60, root)
    assert report.order_checked == 40


def test_kernel_rejects_bad_input():
    with pytest.raises(ValueError):
        list(exp_quotient_root((1, 0), [1, 0]))
    with pytest.raises(ValueError):
        list(exp_quotient_root((0, 1), [1, 0], v=0))
    with pytest.raises(ValueError):
        list(exp_quotient_root((0, 1), (2, 1)))
    assert list(exp_quotient_root((0, 1, 0, 0), [1, 0, 0, 0])) == list(
        TruncatedSeries.from_coeffs([0, 1], order=3).exp().coeffs
    )
