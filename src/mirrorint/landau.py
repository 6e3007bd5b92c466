"""Combinatorics of factorial-ratio sequences.

Everything in this module is a pure function of a pair of positive integer
tuples (e, f): the ratio Q(n) = prod (e_i n)! / prod (f_j n)!, the step
function D(x) = sum floor(e_i x) - sum floor(f_j x), its piecewise-constant
profile on [0, 1), and the derived integers M, D_L used as root exponents.
D is enumerated once per spec object, by its jump table over the ticks s/L
(L the lcm of the entries), which classify, profile and the step kernel
_steps share.  _steps yields each step of Q(n) from Q(n-1), its ratio
reduced and its factors paired (s with L - s), and the derivative in n
that steps G_n = Q(n) (sum e_i H_{e_i n} - sum f_j H_{f_j n}): q_ratios
reads the Q half, log_companion both.  One binary split, _product, gives
a product of shifted factors and its derivative; a harmonic block is their
ratio.  All arithmetic is exact (int / Fraction).
"""

from __future__ import annotations

import math
import operator
from collections import Counter
from collections.abc import Iterator, Sequence
from functools import cached_property
from fractions import Fraction
from itertools import accumulate, count, islice

from ._record import record


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
    "require_level",
    "harmonic",
    "harmonic_block",
    "harmonic_sums",
]


@record
class FactorialRatioSpec:
    """A pair of positive integer tuples defining a factorial ratio.

    Entries must be integers (operator.index): a float is refused with
    TypeError, not truncated.
    """

    e: tuple[int, ...]
    f: tuple[int, ...]

    def __post_init__(self):
        if not self.e or not self.f:
            raise ValueError("e and f must be nonempty")
        object.__setattr__(self, "e", tuple(map(operator.index, self.e)))
        object.__setattr__(self, "f", tuple(map(operator.index, self.f)))
        if any(c < 1 for c in self.e + self.f):
            raise ValueError("all entries of e and f must be >= 1")

    @property
    def max_entry(self) -> int:
        """M, the largest entry among e and f."""
        return max(self.e + self.f)

    @property
    def balanced(self) -> bool:
        """Equal weights, sum(e) = sum(f): D is 1-periodic and q well-defined."""
        return sum(self.e) == sum(self.f)

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


@record
class LandauProfile:
    """Breakpoints and values of D on [0, 1), plus the jump at each breakpoint."""

    breakpoints: tuple[Fraction, ...]
    values: tuple[int, ...]
    jumps: tuple[tuple[Fraction, int], ...]


@record
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


def _product(base: int, factors: Sequence[int]) -> tuple[int, int]:
    """(P, P') for P = prod (base + s) over factors, P' = P sum 1/(base + s).

    P' is the derivative of P in base; both come from one binary split.
    """
    if len(factors) <= 16:
        # Short runs are cheaper factor by factor than split further.
        p, d = 1, 0
        for x in map(base.__add__, factors):
            p, d = p * x, d * x + p
        return p, d
    mid = len(factors) // 2
    p1, d1 = _product(base, factors[:mid])
    p2, d2 = _product(base, factors[mid:])
    return p1 * p2, d1 * p2 + p1 * d2


def _paired_product(
    base: int, lcm: int, pairs: list[int], rest: list[int]
) -> tuple[int, int]:
    """(P, P') for P = prod (base + s) over one sign's factors, split into pairs.

    A pair term s (L - s) stands for (b + s)(b + L - s) = B + s (L - s) with
    B = b (b + L), so the pairs are one _product in B, and d/db = (2b + L) d/dB.
    rest holds the unpaired s = L/2 and s = L.
    """
    p, d = _product(base * (base + lcm), pairs)
    d *= 2 * base + lcm
    for x in map(base.__add__, rest):
        p, d = p * x, d * x + p
    return p, d


def _steps(spec: FactorialRatioSpec) -> Iterator[tuple[int, int, int, int, int]]:
    """Step n = 1, 2, ... of Q's recurrence, reduced: (a', d', u, v, d).

    The one kernel behind q_ratios and log_companion.  With b = L(n-1),
    Q(n) = Q(n-1) C prod_s (b + s)^eps_s: (cn)! / (c(n-1))! is
    (c/L)^c prod (b + s) over the s = iL/c, i = 1..c, so
    C = prod_f (L/f)^f / prod_e (L/e)^e, and a factor shared by an e-block
    and an f-block cancels in eps_s before anything is multiplied.  With P_+
    and P_- the products of the factors with eps_s > 0 and eps_s < 0,
    |eps_s| times each, P' = P sum 1/(b + s), a = C_num P_+ and
    d = C_den P_-, the ratio is reduced first: a' = a/r and d' = d/r with
    r = gcd(a, d), so Q(n) = (Q(n-1)/d') a'.  S(n) = sum e_i H_{e_i n} -
    sum f_j H_{f_j n} steps by L sum_s eps_s / (b + s), the ratio's
    derivative, so with u = L C_num P_+' and v = L C_den P_-'

        G_n = Q(n) S(n) = a' G_{n-1}/d' + (Q(n-1)/d') (d' u - a' v)/d.

    At 1806/903,602,258,42,1, n = 20, d' has 1564 bits against 7613 for P_-.

    Lemma (paired ticks): eps_s = eps_{L-s} for 0 < s < L.  Proof: floor(c x)
    jumps at x = s/L exactly when s = iL/c for an integer i, and for
    0 < s < L that holds with 0 < i < c exactly when L - s = (c - i)L/c does.
    Summing over the entries, eps_s = eps_{L-s}.  So each sign's factors
    (b + s)(b + L - s) pair up into one _product over half as many terms
    (_paired_product); only s = L/2 and s = L stand alone.
    """
    lcm, ticks, eps = spec.jump_table
    c = Fraction(
        math.prod((lcm // f) ** f for f in spec.f),
        math.prod((lcm // e) ** e for e in spec.e),
    )
    # A side is (pairs, rest): s (L - s) for each s < L/2, then s = L/2, L.
    up, down = ([], []), ([], [])
    for s, w in zip(ticks, eps):
        pairs, rest = up if w > 0 else down
        if 2 * s < lcm:
            pairs += [s * (lcm - s)] * abs(w)
        elif 2 * s == lcm or s == lcm:
            rest += [s] * abs(w)
    scale_up, scale_down = lcm * c.numerator, lcm * c.denominator
    for base in count(0, lcm):
        up_p, up_d = _paired_product(base, lcm, *up)
        down_p, down_d = _paired_product(base, lcm, *down)
        a, d = c.numerator * up_p, c.denominator * down_p
        r = math.gcd(a, d)
        yield a // r, d // r, scale_up * up_d, scale_down * down_d, d


def _divide(x: int | Fraction, m: int) -> int | Fraction:
    """x/m, an int when x is an int that m divides.

    x is an int or a Fraction in lowest terms with denominator > 1, and then
    so is x/m.
    """
    if isinstance(x, int):
        quotient, remainder = divmod(x, m)
        if remainder == 0:
            return quotient
    return Fraction(x, m)


def _normal(x: int | Fraction) -> int | Fraction:
    """x as an int when it is integral."""
    return x.numerator if x.denominator == 1 else x


def q_ratios(spec: FactorialRatioSpec, order: int) -> list[int | Fraction]:
    """Q(0), ..., Q(order), each from the one before by the reduced step of _steps.

    Q(n) = (Q(n-1)/d') a': one exact division per step, by d'.  A value is
    an int while integral and a Fraction otherwise (specs that fail the
    Landau criterion); both take the same path.
    """
    if order < 0:
        raise ValueError("order must be nonnegative")
    q = 1
    out = [q]
    for a, d_red, *_ in islice(_steps(spec), order):
        q = _normal(_divide(q, d_red) * a)
        out.append(q)
    return out


def log_companion(
    spec: FactorialRatioSpec, order: int
) -> tuple[list[int | Fraction], list[int | Fraction]]:
    """(Q(0..N), G_0..G_N) with G_n = Q(n) S(n), from one pass of _steps.

    Each step takes Q(n) as q_ratios does, and reduces k/d, k = d' u - a' v,
    before it meets G.  So every division of a Q- or G-sized number is by d'
    or by the denominator of k/d, never by P_-, and the gcds are of P-sized
    numbers only.  G_n is an int when integral and a Fraction otherwise, as
    Q(n) is; a non-Landau spec takes the same path.
    """
    if order < 0:
        raise ValueError("order must be nonnegative")
    q, g = 1, 0
    qs, gs = [q], [g]
    for a, d_red, u, v, d in islice(_steps(spec), order):
        k = d_red * u - a * v
        h = math.gcd(k, d)
        t = _divide(q, d_red)  # Q(n-1)/d'
        q = _normal(t * a)
        g = _normal(a * _divide(g, d_red) + k // h * _divide(t, d // h))
        qs.append(q)
        gs.append(g)
    return qs, gs


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


def require_level(level: int, big_m: int) -> None:
    """The one guard on a level: ValueError unless 1 <= L <= M."""
    if not 1 <= level <= big_m:
        raise ValueError(f"level must be in [1, {big_m}], got {level}")


def root_bound_dl(spec: FactorialRatioSpec, level: int) -> int:
    """D_L = lcm(1, ..., floor(M/L)) for 1 <= L <= M."""
    big_m = spec.max_entry
    require_level(level, big_m)
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
    p, d = _product(a, range(1, b - a + 1))
    return Fraction(d, p)


def harmonic_sums(level: int, order: int) -> list[Fraction]:
    """H_{L n} for n = 0, ..., order, with L = level.

    Step n adds the block harmonic_block(L(n-1), Ln) to the running total.
    """
    if level < 1:
        raise ValueError(f"level must be >= 1, got {level}")
    if order < 0:
        raise ValueError("order must be nonnegative")
    blocks = (harmonic_block(level * (n - 1), level * n) for n in range(1, order + 1))
    return list(accumulate(blocks, initial=Fraction(0)))
