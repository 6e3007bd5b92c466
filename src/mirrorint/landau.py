"""Combinatorics of factorial-ratio sequences.

Everything in this module is a pure function of a pair of positive integer
tuples (e, f): the ratio Q(n) = prod (e_i n)! / prod (f_j n)!, the step
function D(x) = sum floor(e_i x) - sum floor(f_j x), its piecewise-constant
profile on [0, 1), and the derived integers M, D_L used as root exponents.
All arithmetic is exact (int / Fraction); nothing here touches floats.
"""

from __future__ import annotations

import bisect
import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction


__all__ = [
    "FactorialRatioSpec",
    "LandauProfile",
    "Classification",
    "q_ratio",
    "q_ratios",
    "delta_at",
    "profile",
    "classify",
    "root_bound_dl",
    "harmonic",
    "harmonic_block",
    "harmonic_sums",
]


@dataclass(frozen=True)
class FactorialRatioSpec:
    """A pair of positive integer tuples defining a factorial ratio."""

    e: tuple[int, ...]
    f: tuple[int, ...]

    def __post_init__(self):
        if not self.e or not self.f:
            raise ValueError("e and f must be nonempty")
        object.__setattr__(self, "e", tuple(int(c) for c in self.e))
        object.__setattr__(self, "f", tuple(int(c) for c in self.f))
        if any(c < 1 for c in self.e + self.f):
            raise ValueError("all entries of e and f must be >= 1")

    @property
    def max_entry(self) -> int:
        """M, the largest entry among e and f."""
        return max(self.e + self.f)

    @property
    def weight_e(self) -> int:
        return sum(self.e)

    @property
    def weight_f(self) -> int:
        return sum(self.f)

    @property
    def balanced(self) -> bool:
        """Equal weights; makes D 1-periodic and q well-defined."""
        return self.weight_e == self.weight_f

    @property
    def disjoint(self) -> bool:
        """No entry occurs in both e and f (multiset intersection empty)."""
        return not (Counter(self.e) & Counter(self.f))

    def __str__(self) -> str:
        return ",".join(map(str, self.e)) + "/" + ",".join(map(str, self.f))


@dataclass(frozen=True)
class LandauProfile:
    """Breakpoints and values of D on [0, 1), plus the jump at each breakpoint."""

    breakpoints: tuple[Fraction, ...]
    values: tuple[int, ...]
    jumps: tuple[tuple[Fraction, int], ...]

    def value_at(self, x: Fraction) -> int:
        """Profile value of the piece containing x in [0, 1)."""
        if not 0 <= x < 1:
            raise ValueError("x must be in [0, 1)")
        return self.values[bisect.bisect_right(self.breakpoints, x) - 1]


@dataclass(frozen=True)
class Classification:
    """Verdict of the two step-function conditions, with violating abscissas."""

    landau_integral: bool
    case_i: bool
    negative_witnesses: tuple[Fraction, ...] = ()
    zero_witnesses: tuple[Fraction, ...] = ()


def q_ratio(spec: FactorialRatioSpec, n: int) -> Fraction:
    """prod (e_i n)! / prod (f_j n)! from scratch, the reference for q_ratios."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    num = math.prod(math.factorial(c * n) for c in spec.e)
    den = math.prod(math.factorial(c * n) for c in spec.f)
    return Fraction(num, den)


def q_ratios(spec: FactorialRatioSpec, order: int) -> list[int | Fraction]:
    """Q(0), ..., Q(order), each from the one before.

    Q(n) = Q(n-1) * prod_i (e_i n)! / (e_i (n-1))! / prod_j (f_j n)! / (f_j (n-1))!.
    A value is an int when the division is exact and a Fraction otherwise
    (specs that fail the Landau criterion); both take the same path.
    """
    if order < 0:
        raise ValueError("order must be nonnegative")
    q = 1
    out = [q]
    for n in range(1, order + 1):
        q *= math.prod(math.perm(c * n, c) for c in spec.e)
        den = math.prod(math.perm(c * n, c) for c in spec.f)
        quotient, remainder = divmod(q, den)
        q = quotient if remainder == 0 else Fraction(q, den)
        out.append(q)
    return out


def delta_at(spec: FactorialRatioSpec, x: Fraction) -> int:
    """The step function sum floor(e_i x) - sum floor(f_j x)."""
    x = Fraction(x)
    return sum(math.floor(c * x) for c in spec.e) - sum(
        math.floor(c * x) for c in spec.f
    )


def _ticks(spec: FactorialRatioSpec) -> tuple[int, list[int], list[int]]:
    """D on [0, 1) as integer ticks t, meaning the abscissa t / lcm of the entries.

    The candidate breakpoints i/c (c an entry, 0 <= i < c) are exactly the
    points where some floor(c x) can jump; at tick t the value is
    sum floor(c t / lcm) over e minus the same over f.  Returns (lcm, sorted
    ticks, values).
    """
    lcm = math.lcm(*spec.e, *spec.f)
    ticks = sorted({i * (lcm // c) for c in set(spec.e + spec.f) for i in range(c)})
    values = [
        sum(c * t // lcm for c in spec.e) - sum(c * t // lcm for c in spec.f)
        for t in ticks
    ]
    return lcm, ticks, values


def profile(spec: FactorialRatioSpec) -> LandauProfile:
    """Exact piecewise-constant profile of D on [0, 1)."""
    lcm, ticks, values = _ticks(spec)
    points = [Fraction(t, lcm) for t in ticks]
    jumps = []
    for i, b in enumerate(points):
        # At i = 0, values[-1] is the left limit at 0 iff D is 1-periodic.
        if i or spec.balanced:
            jumps.append((b, values[i] - values[i - 1]))
    return LandauProfile(tuple(points), tuple(values), tuple(jumps))


def classify(spec: FactorialRatioSpec) -> Classification:
    """Check D >= 0 on [0, 1] and D >= 1 on [1/M, 1).

    The first condition is the Landau integrality criterion for Q; the second
    is the dichotomy hypothesis under which the root theorems apply.
    """
    lcm, ticks, values = _ticks(spec)
    negative = [Fraction(t, lcm) for t, v in zip(ticks, values) if v < 0]
    end = delta_at(spec, Fraction(1))
    if end < 0:
        negative.append(Fraction(1))
    # t / lcm >= 1/M
    big_m = spec.max_entry
    zero = [
        Fraction(t, lcm) for t, v in zip(ticks, values) if t * big_m >= lcm and v < 1
    ]
    return Classification(
        landau_integral=not negative,
        case_i=not zero,
        negative_witnesses=tuple(negative),
        zero_witnesses=tuple(zero),
    )


def root_bound_dl(spec: FactorialRatioSpec, level: int) -> int:
    """D_L = lcm(1, ..., floor(M/L)) for 1 <= L <= M."""
    big_m = spec.max_entry
    if not 1 <= level <= big_m:
        raise ValueError(f"level must be in [1, {big_m}], got {level}")
    top = big_m // level
    return math.lcm(*range(1, top + 1)) if top >= 1 else 1


def harmonic(n: int) -> Fraction:
    """H_n = 1 + 1/2 + ... + 1/n, with H_0 = 0.

    Summed term by term over the running lcm(1..k), the reference for the
    binary splitting in harmonic_block and harmonic_sums.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    num, den = 0, 1
    for k in range(1, n + 1):
        scale = k // math.gcd(den, k)
        num, den = num * scale + den * scale // k, den * scale
    return Fraction(num, den)


def _reciprocal_block(a: int, b: int) -> tuple[int, int]:
    """sum_{a < j <= b} 1/j as an unreduced (numerator, b!/a!), by binary splitting."""
    if b - a <= 16:
        # Short runs are cheaper term by term than split further.
        p, q = 0, 1
        for j in range(a + 1, b + 1):
            p, q = p * j + q, q * j
        return p, q
    mid = (a + b) // 2
    p1, q1 = _reciprocal_block(a, mid)
    p2, q2 = _reciprocal_block(mid, b)
    return p1 * q2 + p2 * q1, q1 * q2


def harmonic_block(a: int, b: int) -> Fraction:
    """H_b - H_a = sum_{a < j <= b} 1/j for 0 <= a <= b, by binary splitting."""
    if not 0 <= a <= b:
        raise ValueError("harmonic_block needs 0 <= a <= b")
    return Fraction(*_reciprocal_block(a, b))


def harmonic_sums(terms: tuple[tuple[int, int], ...], order: int) -> list[Fraction]:
    """sum_{(c, w) in terms} w H_{c n} for n = 0, ..., order.

    Step n adds, per term, the block sum_{c(n-1) < j <= cn} 1/j, summed by
    binary splitting (Haible-Papanikolaou).  The blocks are combined
    unreduced and the running total is reduced once per step.
    """
    if order < 0:
        raise ValueError("order must be nonnegative")
    total = Fraction(0)
    out = [total]
    for n in range(1, order + 1):
        num, den = 0, 1
        for c, w in terms:
            p, q = _reciprocal_block(c * (n - 1), c * n)
            num, den = num * q + w * p * den, den * q
        total += Fraction(num, den)
        out.append(total)
    return out
