"""Unit-fraction decompositions of 1 and batch root-integrality checks.

Each nondecreasing tuple (k_1, ..., k_n) with sum 1/k_i = 1 induces the
spec e = (k), f = (k/k_1, ..., k/k_n) with k = lcm(k_i); these are exactly
the instances for which the k-th root of the reduced canonical coordinate
is predicted to have integer coefficients.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction

from ._record import record
from .landau import FactorialRatioSpec, classify
from .mirror import build_bundle
from .series import IntegralityReport

__all__ = [
    "ZhouInstance",
    "ZhouVerdict",
    "BatchSummary",
    "enumerate_decompositions",
    "verify_zhou",
    "batch",
]


@record
class ZhouInstance:
    ks: tuple[int, ...]

    def __post_init__(self):
        ks = tuple(sorted(map(operator.index, self.ks)))
        object.__setattr__(self, "ks", ks)
        if any(k < 1 for k in ks):
            raise ValueError("all k_i must be >= 1")
        if sum(Fraction(1, k) for k in ks) != 1:
            raise ValueError(f"sum of 1/k_i must be exactly 1, got {self.ks}")

    @property
    def k(self) -> int:
        return math.lcm(*self.ks)

    @property
    def ws(self) -> tuple[int, ...]:
        return tuple(self.k // ki for ki in self.ks)

    @property
    def spec(self) -> FactorialRatioSpec:
        return FactorialRatioSpec(e=(self.k,), f=self.ws)


def enumerate_decompositions(n: int) -> list[ZhouInstance]:
    """All nondecreasing (k_1..k_n) with sum 1/k_i = 1, by bounded backtracking.

    At each position the denominator is at least the previous one and at
    least ceil(1/remaining), and at most remaining_count/remaining, which
    keeps the tree finite (Sylvester-style bound).
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    found: list[tuple[int, ...]] = []

    def descend(prefix: list[int], remaining: Fraction, slots: int):
        if slots == 0:
            if remaining == 0:
                found.append(tuple(prefix))
            return
        if remaining <= 0:
            return
        lo = max(prefix[-1] if prefix else 1, math.ceil(1 / remaining))
        hi = math.floor(slots / remaining)
        for k in range(lo, hi + 1):
            prefix.append(k)
            descend(prefix, remaining - Fraction(1, k), slots - 1)
            prefix.pop()

    descend([], Fraction(1), n)
    return [ZhouInstance(ks) for ks in found]


@record
class ZhouVerdict:
    """The report on (z^-1 q)^(1/instance.k), or None outside case (i)."""

    instance: ZhouInstance
    report: IntegralityReport | None

    @property
    def passed(self) -> bool:
        return self.report is not None and self.report.integral


def verify_zhou(instance: ZhouInstance, order: int) -> ZhouVerdict:
    """Check the k-th root of z^-1 q for one instance, at the given order.

    The classification is recomputed rather than assumed: a failure of the
    step-function lower bound would be a corpus-level anomaly and is
    surfaced in the verdict instead of being swallowed.
    """
    spec = instance.spec
    if not classify(spec).case_i:
        return ZhouVerdict(instance, None)
    report = build_bundle(spec, order).root_integrality(None, instance.k)
    return ZhouVerdict(instance, report)


@record
class BatchSummary:
    order: int
    verdicts: tuple[ZhouVerdict, ...]

    @property
    def total(self) -> int:
        return len(self.verdicts)

    @property
    def passed(self) -> int:
        return sum(1 for v in self.verdicts if v.passed)

    @property
    def all_passed(self) -> bool:
        return self.passed == self.total


# n = 6 has 3462 instances up to k = 3 263 442, about 85 h at order 30: it is
# refused until a pre-flight budget can bound its cost.
MAX_BATCH_PARTS = 5


def batch(n_max: int, order: int) -> BatchSummary:
    """Verify every instance with up to n_max parts, in enumeration order."""
    if not 1 <= n_max <= MAX_BATCH_PARTS:
        raise ValueError(f"n_max must be in [1, {MAX_BATCH_PARTS}]")
    verdicts = []
    for n in range(1, n_max + 1):
        for instance in enumerate_decompositions(n):
            verdicts.append(verify_zhou(instance, order))
    return BatchSummary(order=order, verdicts=tuple(verdicts))
