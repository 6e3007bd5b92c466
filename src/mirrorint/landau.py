"""Combinatorics of factorial-ratio sequences.

Everything in this module is a pure function of a pair of positive integer
tuples (e, f): the ratio Q(n) = prod (e_i n)! / prod (f_j n)!, the step
function D(x) = sum floor(e_i x) - sum floor(f_j x), its piecewise-constant
profile on [0, 1), and the derived integers M, D_L used as root exponents.
D is enumerated once per spec object, by its jump table over the ticks s/L
(L the lcm of the entries), which classify, profile, q_ratios and
log_companion share.  The table steps Q(n) from Q(n-1), and its derivative
in n steps G_n = Q(n) (sum e_i H_{e_i n} - sum f_j H_{f_j n}).  One binary
split, _product, gives a product of shifted factors and its derivative; a
harmonic block is their ratio.  All arithmetic is exact (int / Fraction).
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from itertools import accumulate
from typing import Sequence


__all__ = [
    "FactorialRatioSpec",
    "LandauProfile",
    "Classification",
    "q_ratio",
    "q_ratios",
    "log_companion",
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

    @cached_property
    def jump_table(self) -> tuple[int, tuple[int, ...], tuple[int, ...]]:
        """The jumps of D: (L, ticks, eps) for the 0 < s <= L where an entry jumps.

        L is the lcm of the entries.  floor(c x) jumps by 1 at x = s/L exactly
        when L/c divides s, so eps_s counts the e-entries jumping at s/L minus
        the f-entries; eps_L = |e| - |f|.  A tick where jumps cancel stays,
        with eps_s = 0.  ticks is sorted and eps[i] is the jump at ticks[i].
        """
        lcm = math.lcm(*self.e, *self.f)
        jumps: dict[int, int] = {}
        for entries, sign in ((self.e, 1), (self.f, -1)):
            for c in entries:
                step = lcm // c
                for s in range(step, lcm + 1, step):
                    jumps[s] = jumps.get(s, 0) + sign
        ticks = tuple(sorted(jumps))
        return lcm, ticks, tuple(jumps[s] for s in ticks)

    def __getstate__(self):
        # The cached jump table derives from e and f: pickle the fields only.
        return {"e": self.e, "f": self.f}

    def __str__(self) -> str:
        return ",".join(map(str, self.e)) + "/" + ",".join(map(str, self.f))


@dataclass(frozen=True)
class LandauProfile:
    """Breakpoints and values of D on [0, 1), plus the jump at each breakpoint."""

    breakpoints: tuple[Fraction, ...]
    values: tuple[int, ...]
    jumps: tuple[tuple[Fraction, int], ...]


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


def _recurrence(spec: FactorialRatioSpec) -> tuple[int, Fraction, list[int], list[int]]:
    """(L, C, up, down) with Q(n) = Q(n-1) C prod_s (L(n-1) + s)^eps_s.

    (cn)! / (c(n-1))! = (c/L)^c prod (L(n-1) + s) over the s = iL/c, i = 1..c,
    so C = prod_f (L/f)^f / prod_e (L/e)^e, and a factor shared by an e-block
    and an f-block cancels in eps_s before anything is multiplied.  up lists
    each s with eps_s > 0 eps_s times, down each s with eps_s < 0 -eps_s times.
    """
    lcm, ticks, eps = spec.jump_table
    c = Fraction(
        math.prod((lcm // f) ** f for f in spec.f),
        math.prod((lcm // e) ** e for e in spec.e),
    )
    up = [s for s, w in zip(ticks, eps) for _ in range(w)]
    down = [s for s, w in zip(ticks, eps) for _ in range(-w)]
    return lcm, c, up, down


def _product(base: int, factors: Sequence[int], lo: int, hi: int) -> tuple[int, int]:
    """(P, P') for P = prod (base + s) over factors[lo:hi], P' = P sum 1/(base + s).

    P' is the derivative of P in base; both come from one binary split.
    """
    if hi - lo <= 16:
        # Short runs are cheaper factor by factor than split further.
        p, d = 1, 0
        for x in map(base.__add__, factors[lo:hi]):
            p, d = p * x, d * x + p
        return p, d
    mid = (lo + hi) // 2
    p1, d1 = _product(base, factors, lo, mid)
    p2, d2 = _product(base, factors, mid, hi)
    return p1 * p2, d1 * p2 + p1 * d2


def q_ratios(spec: FactorialRatioSpec, order: int) -> list[int | Fraction]:
    """Q(0), ..., Q(order), each from the one before by the jump table of D.

    Q(n) = Q(n-1) C prod_s (L(n-1) + s)^eps_s (see _recurrence): one exact
    division per step, by the negative factors and the denominator of C.
    A value is an int when the division is exact and a Fraction otherwise
    (specs that fail the Landau criterion); both take the same path.
    """
    if order < 0:
        raise ValueError("order must be nonnegative")
    lcm, c, up, down = _recurrence(spec)
    q = 1
    out = [q]
    for n in range(1, order + 1):
        base = lcm * (n - 1)
        q *= c.numerator * math.prod(map(base.__add__, up))
        den = c.denominator * math.prod(map(base.__add__, down))
        quotient, remainder = divmod(q, den)
        q = quotient if remainder == 0 else Fraction(q, den)
        out.append(q)
    return out


def log_companion(spec: FactorialRatioSpec, q: Sequence) -> list[int | Fraction]:
    """G_n = Q(n) S(n) for n < len(q), read from q = Q(0..N).

    The weight S(n) = sum e_i H_{e_i n} - sum f_j H_{f_j n} steps by
    L sum_s eps_s / (L(n-1) + s), so differentiating Q's recurrence gives
    P_- G_n = C P_+ G_{n-1} + L (C Q(n-1) P_+' - Q(n) P_-'), with P_+ and
    P_- the products of its positive and negative factors and
    P' = P sum 1/(L(n-1) + s) over the factors.  G is carried as its
    numerator over its own small denominator, so a step makes one exact
    division by P_-, and a full reduction only when G_n gains a denominator
    that G_{n-1} lacks.
    A value is an int when integral and a Fraction otherwise; a non-Landau q
    takes the same path in Fractions.
    """
    lcm, c, up, down = _recurrence(spec)
    g = 0
    out = [g]
    for n in range(1, len(q)):
        base = lcm * (n - 1)
        up_n, up_d = _product(base, up, 0, len(up))
        down_n, down_d = _product(base, down, 0, len(down))
        # num = scale P_- G_n, an integer whenever Q(n-1) and Q(n) are.
        scale = c.denominator * g.denominator
        num = c.numerator * up_n * g.numerator + lcm * g.denominator * (
            c.numerator * q[n - 1] * up_d - c.denominator * q[n] * down_d
        )
        quotient, remainder = divmod(num, down_n)
        if remainder == 0:
            g = Fraction(quotient, scale)
        else:
            g = Fraction(num, scale * down_n)
        if g.denominator == 1:
            g = g.numerator
        out.append(g)
    return out


def delta_at(spec: FactorialRatioSpec, x: Fraction) -> int:
    """The step function sum floor(e_i x) - sum floor(f_j x)."""
    x = Fraction(x)
    return sum(math.floor(c * x) for c in spec.e) - sum(
        math.floor(c * x) for c in spec.f
    )


def _ticks(spec: FactorialRatioSpec) -> tuple[int, list[int], list[int], list[int]]:
    """D on [0, 1) as integer ticks t, meaning the abscissa t / L, from the jump table.

    The ticks are 0 and every s < L where some floor(c x) jumps.  D(0) = 0
    and D steps by eps_s at s.  Returns (L, ticks, values, jumps), where
    jumps[i] is eps at ticks[i] and the jump at 0 is eps_L, the one at 1.
    """
    lcm, ticks, eps = spec.jump_table
    jumps = [*eps[-1:], *eps[:-1]]
    return lcm, [0, *ticks[:-1]], list(accumulate(eps[:-1], initial=0)), jumps


def profile(spec: FactorialRatioSpec) -> LandauProfile:
    """Exact piecewise-constant profile of D on [0, 1)."""
    lcm, ticks, values, jumps = _ticks(spec)
    points = [Fraction(t, lcm) for t in ticks]
    # The jump at 0 is a jump of D on [0, 1) only if D is 1-periodic.
    start = 0 if spec.balanced else 1
    return LandauProfile(
        tuple(points), tuple(values), tuple(zip(points[start:], jumps[start:]))
    )


def classify(spec: FactorialRatioSpec) -> Classification:
    """Check D >= 0 on [0, 1] and D >= 1 on [1/M, 1).

    The first condition is the Landau integrality criterion for Q; the second
    is the dichotomy hypothesis under which the root theorems apply.
    """
    lcm, ticks, values, jumps = _ticks(spec)
    negative = [Fraction(t, lcm) for t, v in zip(ticks, values) if v < 0]
    # D(1): the last piece plus the jump at 1.
    if values[-1] + jumps[0] < 0:
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
    binary split (_product) behind harmonic_block and harmonic_sums.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    num, den = 0, 1
    for k in range(1, n + 1):
        scale = k // math.gcd(den, k)
        num, den = num * scale + den * scale // k, den * scale
    return Fraction(num, den)


def harmonic_block(a: int, b: int) -> Fraction:
    """H_b - H_a = P'/P for 0 <= a <= b, with P = (a + 1) ... b from _product."""
    if not 0 <= a <= b:
        raise ValueError("harmonic_block needs 0 <= a <= b")
    p, d = _product(a, range(1, b - a + 1), 0, b - a)
    return Fraction(d, p)


def harmonic_sums(level: int, order: int) -> list[Fraction]:
    """H_{L n} for n = 0, ..., order, with L = level.

    Step n adds the block H_{Ln} - H_{L(n-1)} = P'/P to the running total,
    with P = prod_{s <= L} (L(n-1) + s) from _product (Haible-Papanikolaou).
    """
    if order < 0:
        raise ValueError("order must be nonnegative")
    steps = range(1, level + 1)
    total = Fraction(0)
    out = [total]
    for n in range(1, order + 1):
        p, d = _product(level * (n - 1), steps, 0, level)
        total += Fraction(d, p)
        out.append(total)
    return out
