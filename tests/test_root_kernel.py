"""The integer exp kernel against the Fraction series ring it replaces.

For every target the oracle is (G_L * F.reciprocal()).exp().vth_root(v)
(G in place of G_L for q), built with TruncatedSeries only.  The Dwork
certifier padic.dwork_root_index is checked against the exp kernel's
first_bad_index: a bundle falls back to the kernel whenever the certifier
does not pass, so a wrong failure index would not show in any report.
"""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mirrorint import mirror, padic
from mirrorint.landau import FactorialRatioSpec, classify, root_bound_dl
from mirrorint.mirror import build_bundle
from mirrorint.padic import dwork_root_index
from mirrorint.series import TruncatedSeries, exp_quotient_root, integrality_report
from mirrorint.zhou import enumerate_decompositions

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
    f_inv = TruncatedSeries(bundle.F).reciprocal()
    targets = [(None, spec.max_entry)] + [
        (level, root_bound_dl(spec, level)) for level in range(1, spec.max_entry + 1)
    ]
    for level, natural in targets:
        exp_h = (TruncatedSeries(bundle.g(level)) * f_inv).exp()
        for v in (1, natural, wrong * natural):
            oracle = exp_h.vth_root(v)
            root = exp_quotient_root(bundle.g(level), bundle.F, v)
            assert list(root) == list(oracle.coeffs)
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
    report = build_bundle(S6, 40).root_integrality(1, root)
    assert not report.integral
    assert report.first_bad_index == 1
    assert report.first_bad_coefficient == Fraction(60, root)
    assert report.order_checked == 40


def test_kernel_rejects_bad_input():
    with pytest.raises(ValueError):
        list(exp_quotient_root((1, 0), [1, 0], v=1))
    with pytest.raises(ValueError):
        list(exp_quotient_root((0, 1), [1, 0], v=0))
    with pytest.raises(ValueError):
        list(exp_quotient_root((0, 1), (2, 1), v=1))
    assert list(exp_quotient_root((0, 1, 0, 0), [1, 0, 0, 0], v=1)) == list(
        TruncatedSeries.from_coeffs([0, 1], order=3).exp().coeffs
    )


def _case_i_specs() -> list[FactorialRatioSpec]:
    """Balanced case-(i) specs, |e| <= 2 and |f| <= 5, with entries <= 6."""
    specs = []
    for e_len, f_len in itertools.product((1, 2), range(1, 6)):
        for e in itertools.combinations_with_replacement(range(1, 7), e_len):
            for f in itertools.combinations_with_replacement(range(1, 7), f_len):
                spec = FactorialRatioSpec(e, f)
                if spec.balanced and classify(spec).case_i:
                    specs.append(spec)
    return specs


def _exp_index(g, f, v, order):
    """first_bad_index of the exp kernel: the certifier's reference."""
    return integrality_report(exp_quotient_root(g, f, v), order).first_bad_index


@given(
    spec=st.sampled_from(_case_i_specs()),
    order=st.integers(1, 30),
    multiple=st.sampled_from((1, 2, 3, 5, 7)),
)
@settings(max_examples=150, deadline=None)
@example(spec=S6, order=29, multiple=7)
@example(spec=S6, order=6, multiple=7)  # 7 | v above the order
@example(spec=FactorialRatioSpec((6,), (1, 1, 1, 3)), order=23, multiple=2)
@example(spec=FactorialRatioSpec((4,), (1, 1, 2)), order=17, multiple=5)
def test_dwork_index_matches_exp_kernel(spec, order, multiple):
    bundle = build_bundle(spec, order)
    f = bundle.F
    targets = [(None, spec.max_entry)] + [
        (level, root_bound_dl(spec, level)) for level in range(1, spec.max_entry + 1)
    ]
    for level, natural in targets:
        g, v = bundle.g(level), natural * multiple
        expected = _exp_index(g, f, v, order)
        assert dwork_root_index(g, f, v) == expected


@pytest.mark.parametrize(
    "instance",
    [i for n in (1, 2, 3) for i in enumerate_decompositions(n)],
    ids=lambda i: ",".join(map(str, i.ks)),
)
@pytest.mark.parametrize("multiple", [1, 2, 3])
def test_dwork_index_matches_exp_kernel_on_zhou(instance, multiple):
    bundle = build_bundle(instance.spec, 30)
    g, f, v = bundle.g(), bundle.F, instance.k * multiple
    for order in range(1, 31):
        g_n, f_n = g[: order + 1], f[: order + 1]
        assert dwork_root_index(g_n, f_n, v) == _exp_index(g_n, f_n, v, order)


def test_dwork_counts_the_prime_equal_to_the_order():
    # h = sum_{k<=6} z^k/k: exp(h) = 1/(1-z) up to z^6, then y_7 = 6/7.
    # Only p = 7 sees it, through Phi_7 = g_1 - 7 g_7.
    g = [0] + [Fraction(1, k) for k in range(1, 7)] + [0]
    f = [1] + [0] * 7
    assert dwork_root_index(g, f, 1) == 7
    report = integrality_report(exp_quotient_root(g, f, 1), 7)
    assert (report.first_bad_index, report.first_bad_coefficient) == (7, Fraction(6, 7))
    assert dwork_root_index(g[:7], f[:7], 1) is None


@pytest.mark.parametrize(
    "g,v,bad",
    [
        ((0, Fraction(1, 5), 0), 1, 1),  # 5 above the order in den
        ((0, 1, Fraction(1, 2)), 5, 1),  # 5 above the order in v
        # h = 5 log(1/(1-z)): w = (0, 10, 5) over den 2, divisible by 5;
        # reduced mod 2^2 it is (0, 2, 1), which 5 does not divide.
        ((0, 5, Fraction(5, 2)), 5, None),
    ],
)
def test_dwork_primes_above_the_order(g, v, bad):
    f = (1, 0, 0)
    assert dwork_root_index(g, f, v) == _exp_index(g, f, v, 2) == bad


@pytest.mark.parametrize("bad", [None, 7])
def test_dwork_slots_wider_than_eight_bytes(bad):
    # g = f h with h = v log(1/(1-z)): exp(h/v) = 1/(1-z), unless g_bad
    # carries an extra v/2, which puts a half into y_bad.  p = 2 needs
    # m = 2^41, so a slot holds more than 64 bits.
    v = 2**40
    f = [1, 3, -2] + [0] * 10
    g = [sum(Fraction(v * f[n - k], k) for k in range(1, n + 1)) for n in range(13)]
    if bad:
        g[bad] += v // 2
    assert dwork_root_index(g, f, v) == _exp_index(g, f, v, 12) == bad


def test_dwork_rejects_bad_input():
    with pytest.raises(ValueError):
        dwork_root_index((0, 1), (1, 1), 0)
    with pytest.raises(ValueError):
        dwork_root_index((1, 1), (1, 1), 1)
    with pytest.raises(ValueError):
        dwork_root_index((0, 1), (2, 1), 1)
    with pytest.raises(ValueError):
        dwork_root_index((0, 1), (1, Fraction(1, 2)), 1)


def test_non_integral_f_takes_the_exp_route(monkeypatch):
    spec = FactorialRatioSpec((2, 2), (3, 1))
    bundle = build_bundle(spec, 20)
    assert any(c.denominator != 1 for c in bundle.F)
    with pytest.raises(ValueError):
        dwork_root_index(bundle.g(), bundle.F, 1)

    def refuse(*args):
        raise AssertionError("the Dwork certifier needs an integral F")

    monkeypatch.setattr(mirror, "dwork_root_index", refuse)
    for level in (None, *range(1, spec.max_entry + 1)):
        report = bundle.root_integrality(level, 1)
        assert report == integrality_report(bundle.root_coeffs(level), 20)
        assert not report.integral


@pytest.mark.parametrize("spec", [S6, FactorialRatioSpec((2, 2), (3, 1))])
def test_root_integrality_rejects_v_zero(spec):
    bundle = build_bundle(spec, 10)
    with pytest.raises(ValueError):
        bundle.root_integrality(None, 0)
    with pytest.raises(ValueError):
        bundle.root_integrality(1, 0)


def _phi_convolution(f, w, p, m, limit):
    """Phi_n mod m for Phi = f(z) w(z^p) - p f(z^p) w(z), one plain sum per n."""
    return [
        sum(f[n - j * p] * w[j] - p * f[j] * w[n - j * p] for j in range(n // p + 1))
        % m
        for n in range(limit + 1)
    ]


@given(
    p=st.sampled_from([2, 3, 5, 7]),
    # Terms of the series in z^p: one, a few, and the large sizes of the
    # Dwork pass at order 200 (67 at p = 3, 101 at p = 2) and above.
    terms=st.sampled_from([1, 2, 5, 67, 101, 151]),
    extra=st.integers(0, 6),
    digits=st.integers(1, 50),
    count=st.integers(1, 3),
    seed=st.integers(0, 2**32),
)
@example(p=2, terms=1, extra=0, digits=1, count=1, seed=0)  # limit = 0, m = p
@example(p=7, terms=1, extra=6, digits=1, count=3, seed=1)  # limit = p - 1
@example(p=2, terms=101, extra=1, digits=40, count=2, seed=2)
@example(p=3, terms=67, extra=0, digits=40, count=2, seed=3)
@example(p=5, terms=151, extra=4, digits=40, count=2, seed=4)
@settings(max_examples=40, deadline=None)
def test_phi_residues_match_a_plain_convolution(p, terms, extra, digits, count, seed):
    # limit = (terms - 1) p + extra, extra < p, has exactly terms terms in z^p.
    limit = (terms - 1) * p + extra % p
    m = p**digits
    rng = random.Random(seed)
    big = 10**40
    f = [rng.randrange(-big, big) for _ in range(limit + 1)]
    ws = [[rng.randrange(-big, big) for _ in range(limit + 1)] for _ in range(count)]
    got = list(padic._phi_residues(f, ws, p, m, limit))
    assert got == [_phi_convolution(f, w, p, m, limit) for w in ws]
