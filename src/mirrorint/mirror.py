"""Canonical q-coordinates and their root-exponent verifiers.

From a balanced spec we build the hypergeometric-style series F, the
harmonic-weighted companions G and G_L, the reduced canonical coordinate
exp(G/F) (that is, q with the leading z divided out) and the level maps
q_L = exp(G_L/F), each only when a caller asks for it, one level at a
time.  F, G and G_L are coefficient tuples; F and G come from one pass of
landau.log_companion, F alone from landau.q_ratios, and both step Q through
the same reduced, paired step of landau's one kernel.  On top sit the
verifiers: the per level root exponents D_L, the gcd divisibility test that
transfers roots of the q_L to roots of q, the reference exponents from the
harmonic-number literature, and a witness search for the almost-all-primes
failure in the non-increasing case.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Iterator
from fractions import Fraction
from functools import cached_property
from itertools import tee
from operator import mul

from ._record import record
from .landau import (
    Classification,
    FactorialRatioSpec,
    classify,
    harmonic_sums,
    log_companion,
    q_ratios,
    require_level,
    root_bound_dl,
)
from .padic import dwork_root_index, primes_up_to, vp_rational
from .series import (
    IntegralityReport,
    exp_quotient_root,
    integrality_report,
)

__all__ = [
    "MirrorMapBundle",
    "CaseTwoError",
    "RootHypothesisVerdict",
    "ReferenceExponents",
    "NonintegralityWitness",
    "KNOWN_WOLSTENHOLME_PRIMES",
    "build_bundle",
    "verify_theorem1",
    "root_exponent_for_q",
    "reference_exponents",
    "nonintegrality_witness",
]

# The only primes p with v_p(H_{p-1}) >= 3 found to date.
KNOWN_WOLSTENHOLME_PRIMES = frozenset({16843, 2124679})


class CaseTwoError(ValueError):
    """Raised when a verifier needs D >= 1 on [1/M, 1) but the spec fails it."""

    def __init__(self, spec: FactorialRatioSpec, classification: Classification):
        self.spec = spec
        self.classification = classification
        witnesses = ", ".join(str(w) for w in classification.zero_witnesses)
        super().__init__(
            f"spec {spec} is not in case (i); step function < 1 at {witnesses}"
        )


@record
class MirrorMapBundle:
    """F up to order, built on first use; G, G_L and their roots, per call.

    F and g(level) are tuples of int/Fraction coefficients.  F is cached
    per object.  g(None) takes Q and G from one landau.log_companion pass
    and keeps that Q as F unless F is built, so G before F, or F alone,
    forms Q once.  F read first comes from q_ratios, which reads only the Q
    half of the same steps and builds no G.  root_coeffs(level) yields q_L
    (or z^-1 q), and root_integrality(level, v) decides its v-th root.
    """

    spec: FactorialRatioSpec
    order: int

    @cached_property
    def F(self) -> tuple:
        return tuple(q_ratios(self.spec, self.order))

    def g(self, level: int | None = None) -> tuple:
        """G for level=None, else G_L for a level L in [1, M].

        Coefficient n is Q(n) (sum e_i H_{e_i n} - sum f_j H_{f_j n}), from
        the pass of landau.log_companion, or Q(n) H_{L n} from F.
        """
        spec = self.spec
        if level is None:
            q, g = log_companion(spec, self.order)
            # The cached_property's slot: F from this pass unless F came first.
            vars(self).setdefault("F", tuple(q))
            return tuple(g)
        require_level(level, spec.max_entry)
        return tuple(map(mul, self.F, harmonic_sums(level, self.order)))

    def root_coeffs(self, level: int | None = None) -> Iterator:
        """Coefficients of q_L = exp(G_L/F), or of exp(G/F) for level=None.

        Lazy: a consumer that stops early leaves the rest uncomputed.
        """
        return exp_quotient_root(self.g(level), self.F, 1)

    def root_integrality(self, level: int | None, v: int) -> IntegralityReport:
        """Integrality of q_L^{1/v} (or (z^-1 q)^{1/v}), up to the first bad index.

        An integral F lets padic.dwork_root_index certify a pass without the
        exponential.  A failure, or a non-integral F, runs the exp kernel up
        to the first bad coefficient, which the report carries exactly.
        """
        g, f = self.g(level), self.F
        integral_f = all(c.denominator == 1 for c in f)
        if integral_f and dwork_root_index(g, f, v) is None:
            return IntegralityReport(integral=True, order_checked=self.order)
        return integrality_report(exp_quotient_root(g, f, v), self.order)


def build_bundle(spec: FactorialRatioSpec, order: int) -> MirrorMapBundle:
    """F, G, G_L (coefficient tuples) and the roots, each built on first use."""
    if not spec.balanced:
        raise ValueError(f"spec {spec} is not balanced (|e| != |f|)")
    if order < 1:
        raise ValueError("order must be >= 1")
    return MirrorMapBundle(spec, order)


def verify_theorem1(
    spec: FactorialRatioSpec, order: int
) -> dict[int, IntegralityReport]:
    """Integrality of q_L^{1/D_L} for every level L, at the given order.

    Refuses outright when the case-(i) hypothesis fails: in that situation
    even q_L itself has non-integral coefficients for almost all primes, so
    a passing prefix would be misleading.
    """
    verdict = classify(spec)
    if not verdict.case_i:
        raise CaseTwoError(spec, verdict)
    bundle = build_bundle(spec, order)
    return {
        level: bundle.root_integrality(level, root_bound_dl(spec, level))
        for level in range(1, spec.max_entry + 1)
    }


@record
class RootHypothesisVerdict:
    """Outcome of the divisibility hypothesis theta/gcd(L, theta) | D_L."""

    spec: FactorialRatioSpec
    theta: int
    hypothesis_holds: bool
    failing_level: int | None = None


def root_exponent_for_q(
    spec: FactorialRatioSpec, theta: int
) -> RootHypothesisVerdict:
    """Check the exponent-transfer hypothesis for a theta-th root of z^-1 q.

    theta must divide M and the spec must be in case (i).  When the check
    passes, (z^-1 q)^{1/theta} has integer coefficients; callers can confirm
    a prefix with MirrorMapBundle.root_integrality(None, theta).
    """
    if theta < 1 or spec.max_entry % theta != 0:
        raise ValueError(f"theta={theta} does not divide M={spec.max_entry}")
    verdict = classify(spec)
    if not verdict.case_i:
        raise CaseTwoError(spec, verdict)
    for level in sorted(set(spec.e + spec.f)):
        needed = theta // math.gcd(level, theta)
        if root_bound_dl(spec, level) % needed != 0:
            return RootHypothesisVerdict(spec, theta, False, failing_level=level)
    return RootHypothesisVerdict(spec, theta, True)


@record
class ReferenceExponents:
    """Reference root exponents from the harmonic-number literature."""

    spec: FactorialRatioSpec
    theta_l: dict[int, int]                 # denominator of H_L, per level
    q_one_over_theta: dict[int, Fraction]   # Q(1)/Theta_L
    xi: Fraction | None = None
    omega: Fraction | None = None
    xi_exponent: Fraction | None = None      # Xi_N * Q(1)
    omega_exponent: Fraction | None = None   # Omega_N * Q(1) * q1 * N


def reference_exponents(spec: FactorialRatioSpec) -> ReferenceExponents:
    """Theta_L for every level, and Xi_N / Omega_N for (N,..,N)/(1,..,1) shapes.

    Xi_N = prod_{p<=N} p^{min(2+xi(p,N), v_p(H_N))} with xi(p,N)=1 iff p is a
    Wolstenholme prime or p | N; Omega_N is the analogue built on v_p(H_N - 1)
    with the condition N = +-1 mod p.  Both may be non-integers; the composite
    predictions Xi_N Q(1) and Omega_N Q(1) q1 N are the usable exponents.
    """
    big_m = spec.max_entry
    h = harmonic_sums(1, big_m)  # H_0..H_M
    theta_l = {level: h[level].denominator for level in range(1, big_m + 1)}
    q_one = q_ratios(spec, 1)[1]
    # Q(1) may be an int: Fraction keeps the quotient exact.
    q_over = {level: Fraction(q_one, theta) for level, theta in theta_l.items()}

    xi = omega = xi_exponent = omega_exponent = None
    n_val = spec.e[0]
    shaped = (
        len(set(spec.e)) == 1
        and set(spec.f) == {1}
        and spec.balanced
        and n_val >= 2
    )
    if shaped:
        h_n = h[n_val]
        xi = omega = Fraction(1)
        for p in primes_up_to(n_val):
            known = p in KNOWN_WOLSTENHOLME_PRIMES
            xi_flag = 1 if (known or n_val % p == 0) else 0
            xi *= Fraction(p) ** min(2 + xi_flag, vp_rational(h_n, p))
            om_flag = 1 if (known or n_val % p in (1, p - 1)) else 0
            shifted = h_n - 1
            v_shift = vp_rational(shifted, p) if shifted else 2 + om_flag
            omega *= Fraction(p) ** min(2 + om_flag, v_shift)
        xi_exponent = xi * q_one
        omega_exponent = omega * q_one * len(spec.e) * n_val
    return ReferenceExponents(
        spec, theta_l, q_over, xi, omega, xi_exponent, omega_exponent
    )


@record
class NonintegralityWitness:
    prime: int
    target: str           # "q" or "qL=<level>"
    index: int
    valuation: int


def nonintegrality_witness(
    spec: FactorialRatioSpec, prime_bound: int, order: int
) -> NonintegralityWitness | None:
    """First (p, series, index) with a negative p-adic coefficient valuation.

    Meant for specs in case (ii), where all but finitely many primes must
    produce such a coefficient in q or one of the q_L.  The scan order is
    deterministic: primes ascending, then q before the q_L by level, then
    coefficient index.
    """
    verdict = classify(spec)
    if not verdict.landau_integral:
        raise ValueError(f"spec {spec} fails the Landau criterion")
    if verdict.case_i:
        # Nothing to find: case (i) makes every target integral.
        return None

    # A root is started the first time the scan reaches its level, and its
    # coefficients are drawn only as far as some scan has read: each scan
    # reads one of two tees of the unread root, and the other, kept, holds
    # what the scan drew.
    bundle = build_bundle(spec, order)
    roots: dict[int | None, Iterator] = {}
    for p in primes_up_to(prime_bound):
        for level in (None, *range(1, spec.max_entry + 1)):
            if level not in roots:
                roots[level] = bundle.root_coeffs(level)
            roots[level], scan = tee(roots[level])
            hit = _first_negative_vp(scan, p)
            if hit:
                target = "q" if level is None else f"qL={level}"
                return NonintegralityWitness(p, target, hit[0], hit[1])
    return None


def _first_negative_vp(coeffs: Iterable, p: int) -> tuple[int, int] | None:
    for n, c in enumerate(coeffs):
        if c.denominator % p == 0:
            return n, vp_rational(c, p)
    return None
