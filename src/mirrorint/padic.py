"""p-adic valuations and the membership predicates behind the root theorems.

Every quantity handled here is an exact rational, so p-adic membership
statements reduce to valuation comparisons or to congruences between
integers.  The module exposes the valuation formula for Q(n) through the
step function, the two Dieudonne-Dwork reduction tests, the root certifier
dwork_root_index(g, f, v) that decides the second one for exp(G/(vF)) by
congruences mod p^k, up to the order its coefficient inputs reach, the
coefficient functional phi, the split sums S and W with their correction
factor g_p(m) = p^{mu_p(m)}, and each supporting lemma as an executable
check over explicit finite grids.

Infinite sums over the level index l are truncated at the first l where all
remaining terms vanish (p^l beyond the argument times M); the cutoffs are
computed, never guessed.  Q is read from a q_ratios table built once per
scan or public call.  The phi, harmonic-lemma and S scans read each value
scaled by p^E as a residue mod p^(E+D), D = _RESIDUE_DIGITS: a nonzero
residue carries the value's exact valuation, read from one gcd with the
modulus (_valuation_reader), and a zero residue is recomputed exactly for
that point alone, so every reported valuation is exact.  Two kernels make
the residues.  _phi_residues gives
Phi = F(z) G(z^p) - p F(z^p) G(z) mod m from residues packed into slots
wide enough for terms (1 + p) (m - 1)^2, terms = limit//p + 1, so no slot
carries.  It works term by term in z^p and packs no zero slot.
_harmonic_residues gets its unit inverses from one pow(., -1, mod) per
block of 512 units.
The phi scan reads phi(0, 0) = 0 as +inf with no residue, and the
harmonic-lemma scan does the same for its empty blocks (p | m).  The S scan
reads every block from one prefix-sum pass per (a, K) and takes no residue
of a block that is exactly 0: an empty one is skipped, and one symmetric
about K/2 is +inf.  The lemma-2.4 scan reads max_u v_p(Lm+u) from one
interval per point instead of one valuation per u.  The single-point
phi, s_sum, lemma_harmonic_check and lemma24_check stay exact: phi reads
H_{Ln} from a harmonic_sums table, and each difference H_b - H_a is one
harmonic_block.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Iterator
from fractions import Fraction
from itertools import accumulate

from ._record import record
from .landau import (
    FactorialRatioSpec,
    classify,
    delta_at,
    harmonic_block,
    harmonic_sums,
    q_ratios,
    require_level,
    root_bound_dl,
)
from .series import TruncatedSeries, common_denominator

__all__ = [
    "PadicMembershipReport",
    "is_prime",
    "primes_up_to",
    "vp_int",
    "vp_rational",
    "vp_q_ratio_via_delta",
    "dwork_quotient_test",
    "dwork_exp_test",
    "dwork_root_index",
    "phi",
    "phi_membership_scan",
    "s_sum",
    "mu_and_g",
    "w_term",
    "dwork_decomposition_check",
    "lemma_ablanc_check",
    "lemma24_check",
    "lemma24_scan",
    "lemma_harmonic_check",
    "lemma_harmonic_scan",
    "congruence25_check",
    "congruence_star_check",
    "s_membership_scan",
]

INFINITE = math.inf

# p-adic digits the residue scans keep past p^E; a point whose scaled value
# is 0 mod p^(E + _RESIDUE_DIGITS) is recomputed exactly.
_RESIDUE_DIGITS = 40

# Units sharing one modular inverse in _harmonic_residues.
_INVERSE_BLOCK = 512

Valuation = int | float


@record
class PadicMembershipReport:
    """Verdict of 'value(s) lie in p^k Z_p', with the worst valuation seen."""

    prime: int
    required_valuation: int
    value_description: str
    actual_valuation: Valuation
    member: bool
    witness: tuple | None = None


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def primes_up_to(bound: int) -> list[int]:
    return [n for n in range(2, bound + 1) if is_prime(n)]


def _require_prime(p: int) -> None:
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")


def _levels(big_m: int, level: int | None):
    """The levels a scan reads: 1..M in order, or the one given if in range."""
    if level is None:
        return range(1, big_m + 1)
    require_level(level, big_m)
    return (level,)


def _require_indices(**indices: int) -> None:
    """Grid indices of a point, and bounds of a grid, must be >= 0."""
    for name, value in indices.items():
        if value < 0:
            raise ValueError(f"{name} must be >= 0, got {value}")


def vp_int(n: int, p: int) -> Valuation:
    # Hot: no primality test, only the p < 2 that would loop forever.
    if p < 2:
        raise ValueError(f"{p} is not prime")
    if n == 0:
        return INFINITE
    v = 0
    n = abs(n)
    while n % p == 0:
        n //= p
        v += 1
    return v


def vp_rational(x: int | Fraction, p: int) -> Valuation:
    """v_p of an exact rational; +inf for 0."""
    _require_prime(p)
    if x == 0:
        return INFINITE
    return vp_int(x.numerator, p) - vp_int(x.denominator, p)


def vp_q_ratio_via_delta(spec: FactorialRatioSpec, n: int, p: int) -> int:
    """v_p(Q(n)) as the sum of step-function values at {n/p^l}.

    Requires a balanced spec, so that the sum telescopes out of the Legendre
    formula for v_p(m!); Landau integrality is not needed.  Terms vanish
    once p^l exceeds n*M.
    """
    _require_prime(p)
    if not spec.balanced:
        raise ValueError(f"spec {spec} is not balanced (|e| != |f|)")
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n == 0:
        return 0
    total = 0
    pl = p
    while pl <= n * spec.max_entry:
        total += delta_at(spec, Fraction(n % pl, pl))
        pl *= p
    return total


def _coefficients_in_pz(ser: TruncatedSeries, p: int, what: str):
    """Coefficients 1..N of ser in p Z_p; the witness is the first least valuation."""
    valuations = [vp_rational(ser[idx], p) for idx in range(1, ser.order + 1)]
    worst = min(valuations, default=INFINITE)
    return PadicMembershipReport(
        prime=p,
        required_valuation=1,
        value_description=f"coefficients 1..N of {what}",
        actual_valuation=worst,
        member=worst >= 1,
        witness=None if worst >= 1 else (valuations.index(worst) + 1,),
    )


def dwork_quotient_test(f_series: TruncatedSeries, p: int) -> PadicMembershipReport:
    """Membership of F(z^p)/F(z)^p in 1 + p z Z_p[[z]].

    By the Dieudonne-Dwork lemma this holds exactly when F itself lies in
    1 + z Z_p[[z]], so the test doubles as an indirect integrality check.
    """
    _require_prime(p)
    if f_series[0] != 1:
        raise ValueError("dwork_quotient_test requires constant term 1")
    quotient = f_series.substitute_power(p) * (f_series**p).reciprocal()
    return _coefficients_in_pz(quotient, p, "F(z^p)/F(z)^p")


def dwork_exp_test(f_series: TruncatedSeries, p: int) -> PadicMembershipReport:
    """Membership of f(z^p) - p f(z) in p z Z_p[[z]].

    Equivalent to exp(f) lying in 1 + z Z_p[[z]], for f with zero constant
    term; this is the reduction that removes the exponential from q_L.
    """
    _require_prime(p)
    if f_series[0] != 0:
        raise ValueError("dwork_exp_test requires a zero constant term")
    diff = f_series.substitute_power(p) - f_series.scale(p)
    return _coefficients_in_pz(diff, p, "f(z^p) - p f(z)")


def dwork_root_index(g, f, v: int) -> int | None:
    """First n <= order with [exp(h/v)]_n not an integer, where f h = g; else None.

    f is integral with f_0 = 1 and g_0 = 0.  The order is
    min(len(g), len(f)) - 1, as in series.exp_quotient_root.  For a prime p,
    dwork_exp_test's equivalence holds coefficient by coefficient: exp(h/v)
    is p-integral up to z^n exactly when coefficients 1..n of h(z^p) - p h(z)
    lie in p^{1+v_p(v)} Z_p.  That series is Phi / (f(z) f(z^p)) with
    Phi = f(z) g(z^p) - p f(z^p) g(z), and f(z) f(z^p) is a unit, so the
    test reads Phi instead and never forms h or the exponential.

    For p > order, Phi_n = -p g_n: with g_n = w_n / den over
    common_denominator, every prime above the order in den v must divide
    w_n as often, one divisibility test by that part of den v.  Each
    p <= order (p = order included: Phi_p = g_1 - p g_p) is one
    _phi_residues call modulo m = p^{1+v_p(v)+T}, T = v_p(den), up to the
    least failure found so far; its first nonzero n >= 1 fails.  That call
    goes term by term over the limit//p + 1 terms in z^p, in slots of
    terms (1 + p) (m - 1)^2 that never carry.
    """
    if v < 1:
        raise ValueError("v must be a positive integer")
    if g[0] != 0:
        raise ValueError("dwork_root_index requires g_0 = 0")
    if f[0] != 1:
        raise ValueError("dwork_root_index requires f_0 = 1")
    order = min(len(g), len(f)) - 1
    f, f_den = common_denominator(f[: order + 1])
    if f_den != 1:
        raise ValueError("dwork_root_index requires integer f")
    # v_p(w_n) = v_p(g_n) + v_p(den) at every p.
    w, den = common_denominator(g[: order + 1])
    small = primes_up_to(order)
    moduli = [p ** (1 + vp_int(v, p) + vp_int(den, p)) for p in small]
    common = math.prod(moduli)
    # Primes above the order: Phi_n = -p g_n.  high, the part of den v free
    # of primes <= order, is coprime to common: read w before reducing it.
    high = den * v * math.prod(small) // common
    first = next((n for n in range(1, order + 1) if w[n] % high), None)
    # One pass over the large coefficients reduces them for every prime.
    f, w = [x % common for x in f], [x % common for x in w]
    for p, m in zip(small, moduli):
        limit = order if first is None else first - 1
        if limit == 0:
            break
        (phi_mod,) = _phi_residues(f, [w], p, m, limit)
        first = next((n for n in range(1, limit + 1) if phi_mod[n]), first)
    return first


def _phi_residues(
    f: list[int], ws: Iterable[list[int]], p: int, m: int, limit: int
) -> Iterator[list[int]]:
    """Phi_n mod m for n <= limit, one list per w in ws, yielded in turn.

    Phi = f(z) w(z^p) - p f(z^p) w(z) = sum_j z^{jp} (w_j f(z) - p f_j w(z))
    over the terms = limit//p + 1 terms of a series in z^p: two products
    of a packed series by one residue per term.  Residues in [0, m) are
    packed into fixed-width slots, -w held as m - w so every slot stays
    nonnegative, and f is reduced and packed once for all of ws.  Slots are
    packed high coefficient first, so z^{jp} f(z) truncated at z^limit is
    f shifted right by jp slots: each term multiplies only the slots that
    survive, and no zero slot is packed between the terms in z^p.  A slot
    sums at most terms (1 + p) products below m^2, so none carries into
    the next.
    """
    terms = limit // p + 1
    width = ((terms * (p + 1) * (m - 1) ** 2).bit_length() + 7) // 8
    shift = 8 * width * p
    fr = [x % m for x in f[: limit + 1]]

    def pack(xs) -> int:
        data = b"".join(x.to_bytes(width, "little") for x in xs)
        return int.from_bytes(data, "little")

    f_high = pack(reversed(fr))
    p_f = [p * x for x in fr[:terms]]
    for w in ws:
        w_neg = pack(-x % m for x in reversed(w[: limit + 1]))
        phi, f_cut = 0, f_high
        for j in range(terms):
            phi += w[j] % m * f_cut + p_f[j] * w_neg
            f_cut >>= shift
            w_neg >>= shift
        # No slot carries, so phi fits in its limit + 1 slots.
        buf = phi.to_bytes((limit + 1) * width, "little")
        yield [
            int.from_bytes(buf[n * width : (n + 1) * width], "little") % m
            for n in range(limit, -1, -1)
        ]


def _harmonic_residues(p: int, top: int, step: int) -> tuple[int, int, list[int]]:
    """(E, mod, P): P[i] = p^E H_{i step} mod p^(E+D) for i <= top // step.

    E = floor(log_p top) makes p^E H_x p-integral for every x <= top: with
    j = p^v u and p not dividing u, the term p^E/j is p^(E-v) u^(-1) mod
    p^(E+D).  The inverses come _INVERSE_BLOCK units at a time from one
    pow(., -1, mod) of the block's product (Montgomery's trick: prefix
    products forward, then one backward pass), so a block's prefixes are
    all the memory it holds.  Only every step-th prefix is kept.
    """
    e = _floor_log(top, p)
    mod = p ** (e + _RESIDUE_DIGITS)
    scales = [p**shift for shift in range(e + 1)]
    end = top // step * step
    total, out = 0, [0]
    for start in range(1, end + 1, _INVERSE_BLOCK):
        units = list(range(start, min(start + _INVERSE_BLOCK, end + 1)))
        weights = [scales[e]] * len(units)
        for i in range(-start % p, len(units), p):
            u, shift = units[i], e
            while u % p == 0:
                u //= p
                shift -= 1
            units[i], weights[i] = u, scales[shift]
        # terms[i] = u_0 ... u_i until the backward pass makes it p^shift / u_i.
        terms, prefix = [], 1
        for u in units:
            prefix = prefix * u % mod
            terms.append(prefix)
        inverse = pow(prefix, -1, mod)  # of u_0 ... u_i, walking i down
        for i in range(len(units) - 1, 0, -1):
            terms[i] = inverse * terms[i - 1] * weights[i]
            inverse = inverse * units[i] % mod
        terms[0] = inverse * weights[0]
        # sums[k] is the total up to j = start + k - 1; keep j = 0 mod step.
        sums = list(accumulate(terms, initial=total))
        out.extend(x % mod for x in sums[-start % step + 1 :: step])
        total = sums[-1]
    return e, mod, out


def _floor_log(n: int, p: int) -> int:
    """floor(log_p n) for n >= 1, and 0 for n = 0."""
    e = 0
    while p ** (e + 1) <= n:
        e += 1
    return e


def _frac_below(x: int, pl: int, big_m: int) -> bool:
    """{x/p^l} < 1/M, decided on integers as M (x mod p^l) < p^l."""
    return big_m * (x % pl) < pl


def _grid_report(p: int, description: str, points) -> PadicMembershipReport:
    """Reduce (key, required, actual) grid points, taken in grid order.

    member: no point lies below its required valuation; witness: the first
    failing key (None if keys are None).  The row carries the required and
    actual valuation of the point of least margin actual - required, the
    first one on a tie (0 and inf for an empty grid).
    """
    member, witness, closest = True, None, None
    for key, required, actual in points:
        if member and actual < required:
            member, witness = False, key
        if closest is None or actual - required < closest[1] - closest[0]:
            closest = (required, actual)
    required, actual = closest or (0, INFINITE)
    return PadicMembershipReport(
        prime=p,
        required_valuation=required,
        value_description=description,
        actual_valuation=actual,
        member=member,
        witness=witness,
    )


def _scan_q(spec, p: int, a_max: int, k_max: int):
    """The Q table of a case-(i) scan over a <= min(a_max, p-1), K <= k_max."""
    if not classify(spec).case_i:
        raise ValueError(f"spec {spec} is not in case (i)")
    return _tables(spec, p, min(a_max, p - 1), k_max)[0]


def _tables(spec, p: int, a: int, big_k: int, level: int | None = None):
    """Q(n), and H_{Ln} given a level, for n <= a + Kp: all points a'<=a, K'<=K read."""
    if not 0 <= a < p:
        raise ValueError("a must satisfy 0 <= a < p")
    _require_indices(big_k=big_k)
    top = a + big_k * p
    if level is None:
        return q_ratios(spec, top), None
    # H as integer numerators over one denominator: sums over it stay unreduced.
    return q_ratios(spec, top), common_denominator(harmonic_sums(level, top))


def _phi(q, h, p: int, a: int, big_k: int) -> int | Fraction:
    """The numerator of phi over h's common denominator, left unreduced."""
    nums = h[0]
    total = 0
    for j in range(big_k + 1):
        total += q[big_k - j] * q[a + j * p] * (nums[big_k - j] - p * nums[a + j * p])
    return total


def phi(
    spec: FactorialRatioSpec, level: int, p: int, a: int, big_k: int
) -> Fraction:
    """The z^{a+Kp} coefficient of F(z) G_L(z^p) - p F(z^p) G_L(z)."""
    require_level(level, spec.max_entry)
    _require_prime(p)
    q, h = _tables(spec, p, a, big_k, level)
    return Fraction(_phi(q, h, p, a, big_k), h[1])


def _required(spec: FactorialRatioSpec, level: int, p: int) -> int:
    """1 + v_p(D_L): membership in p D_L Z_p."""
    return 1 + int(vp_int(root_bound_dl(spec, level), p))


def _valuation_reader(p: int, digits: int, scale: int):
    """valuation(r, exact) = v_p(x) from r = p^scale x mod p^digits.

    A residue 0 < r < p^digits has v_p(r) = i for gcd(r, p^digits) = p^i,
    read from a table {p^i: i} built once per modulus; on a zero residue,
    exact() gives x.
    """
    mod = p**digits
    shifts = {p**i: i - scale for i in range(digits)}

    def valuation(residue: int, exact) -> Valuation:
        return shifts[math.gcd(residue, mod)] if residue else vp_rational(exact(), p)

    return valuation


def phi_membership_scan(
    spec: FactorialRatioSpec,
    p: int,
    a_max: int,
    k_max: int,
    level: int | None = None,
) -> list[PadicMembershipReport]:
    """phi in p D_L Z_p over 0 <= a <= min(a_max, p-1), 0 <= K <= k_max.

    One report per level, every level in order or only the one given.  With
    Q = w/qd over common_denominator and P(x) = p^E H_x mod p^(E+D) from
    one _harmonic_residues pass, g_n = w_n P(Ln) makes one _phi_residues
    call, every level's g at once, read p^E qd^2 phi(a, K) mod p^(E+D) at
    n = a + Kp.

    phi(0, 0) is exactly 0, so that point is +inf with no residue: its one
    term is Q(0)^2 (H_0 - p H_0), and H_0 = 0.
    """
    _require_prime(p)
    _require_indices(a_max=a_max, k_max=k_max)
    levels = _levels(spec.max_entry, level)
    q = _scan_q(spec, p, a_max, k_max)
    required = {lev: _required(spec, lev, p) for lev in levels}
    top = len(q) - 1
    w, qd = common_denominator(q)
    shift = 2 * int(vp_int(qd, p))
    e, mod, h = _harmonic_residues(p, max(levels) * top, 1)
    valuation = _valuation_reader(p, e + _RESIDUE_DIGITS, e + shift)
    w = [x % mod for x in w]
    gs = ([x * h[lev * n] for n, x in enumerate(w)] for lev in levels)
    reports = []
    for lev, phi_mod in zip(levels, _phi_residues(w, gs, p, mod, top)):
        points = (
            (
                (a, big_k),
                required[lev],
                INFINITE
                if a == big_k == 0
                else valuation(
                    phi_mod[a + big_k * p], lambda: phi(spec, lev, p, a, big_k)
                ),
            )
            for a in range(min(a_max, p - 1) + 1)
            for big_k in range(k_max + 1)
        )
        description = f"phi(L={lev}) on a<=min({a_max},p-1), K<={k_max}"
        reports.append(_grid_report(p, description, points))
    return reports


def _s_sum(q, a: int, big_k: int, s: int, p: int, m: int) -> int | Fraction:
    # Terms with j > K vanish: both products then hold a Q at a negative
    # argument (a + (K-j)p < a - p < 0), so every index read here is >= 0.
    total = 0
    for j in range(m * p**s, min((m + 1) * p**s, big_k + 1)):
        total += q[a + j * p] * q[big_k - j] - q[j] * q[a + (big_k - j) * p]
    return total


def s_sum(
    spec: FactorialRatioSpec, a: int, big_k: int, s: int, p: int, m: int
) -> int | Fraction:
    """S(a,K,s,p,m): the block sum over j in [m p^s, (m+1) p^s)."""
    _require_prime(p)
    _require_indices(s=s, m=m)
    return _s_sum(_tables(spec, p, a, big_k)[0], a, big_k, s, p, m)


def _mu(p: int, big_m: int, m: int) -> int:
    mu = 0
    pl = p
    while pl <= m * big_m:
        if not _frac_below(m, pl, big_m):
            mu += 1
        pl *= p
    return mu


def mu_and_g(spec: FactorialRatioSpec, p: int, m: int) -> tuple[int, int]:
    """mu_p(m) = #{l >= 1 : {m/p^l} in [1/M, 1)} and g_p(m) = p^mu."""
    _require_prime(p)
    _require_indices(m=m)
    mu = _mu(p, spec.max_entry, m)
    return mu, p**mu


def _w_term(q, level: int, a: int, big_k: int, s: int, p: int, m: int) -> Fraction:
    block = _s_sum(q, a, big_k, s, p, m)
    if block == 0:
        return Fraction(0)
    return harmonic_block(level * (m // p) * p ** (s + 1), level * m * p**s) * block


def w_term(
    spec: FactorialRatioSpec,
    level: int,
    a: int,
    big_k: int,
    s: int,
    p: int,
    m: int,
) -> Fraction:
    """W_L = (H_{L m p^s} - H_{L floor(m/p) p^{s+1}}) S(a,K,s,p,m)."""
    require_level(level, spec.max_entry)
    _require_prime(p)
    _require_indices(s=s, m=m)
    return _w_term(_tables(spec, p, a, big_k)[0], level, a, big_k, s, p, m)


def _dwork_sum(q, h, p: int, a: int, big_k: int) -> int | Fraction:
    """The numerator of sum_j H_{Lj} (Q(a+jp)Q(K-j) - Q(j)Q(a+(K-j)p)) over h[1]."""
    nums = h[0]
    total = 0
    for j in range(big_k + 1):
        total += nums[j] * (q[a + j * p] * q[big_k - j] - q[j] * q[a + (big_k - j) * p])
    return total


def dwork_decomposition_check(
    spec: FactorialRatioSpec, level: int, a: int, big_k: int, p: int
) -> bool:
    """Dwork's combinatorial splitting of the harmonic-weighted sum.

    Compares sum_j H_{Lj} (Q(a+jp)Q(K-j) - Q(j)Q(a+(K-j)p)) with the double
    sum of W_L over s <= r and m < p^{r+1-s}, where r is the least integer
    with K < p^r.  Both sides are evaluated exactly.
    """
    require_level(level, spec.max_entry)
    _require_prime(p)
    q, h = _tables(spec, p, a, big_k, level)
    r = 0
    while big_k >= p**r:
        r += 1
    rhs = Fraction(0)
    for s in range(r + 1):
        for m in range(p ** (r + 1 - s)):
            rhs += _w_term(q, level, a, big_k, s, p, m)
    return Fraction(_dwork_sum(q, h, p, a, big_k), h[1]) == rhs


def lemma_ablanc_check(spec: FactorialRatioSpec, p: int, m: int) -> bool:
    """{m/p^l} >= 1/M for l in [v_p(m)+1, v_p(m)+beta], beta = floor(log_p M)."""
    _require_prime(p)
    if m < 1:
        raise ValueError("m must be >= 1")
    big_m = spec.max_entry
    v = int(vp_int(m, p))
    levels = range(v + 1, v + _floor_log(big_m, p) + 1)
    return not any(_frac_below(m, p**ell, big_m) for ell in levels)


def lemma24_check(p: int, s: int, a: int, big_m: int, m: int, level: int) -> bool:
    """{(a + m p^s)/p^l} >= 1/M for l in [s, s + v_p(Lm+u) + alpha], every u.

    alpha = floor(log_p(M/L)) and u runs over 1..floor(La/p^s); an empty
    u-range is vacuously true.  Every range starts at s, so one walk up to
    the largest v_p(Lm+u) covers them all.
    """
    _require_prime(p)
    _require_indices(m=m)
    if s < 1:
        raise ValueError("s must be >= 1")
    if not 0 <= a < p**s:
        raise ValueError("a must satisfy 0 <= a < p^s")
    require_level(level, big_m)
    u_top = (level * a) // p**s
    if u_top == 0:
        return True
    # Lm + u >= 1, so each valuation is finite.
    v_max = max(int(vp_int(level * m + u, p)) for u in range(1, u_top + 1))
    point = a + m * p**s
    top = s + v_max + _floor_log(big_m // level, p)
    return not any(_frac_below(point, p**ell, big_m) for ell in range(s, top + 1))


def _interval_valuations(p: int, step: int, count: int, m_max: int) -> list[int]:
    """max v_p(step m + u) over 1 <= u <= count, for each m <= m_max; count >= 1.

    Each maximum is the largest e such that the interval (step m,
    step m + count] holds a multiple of p^e, one floor division per e,
    instead of one valuation per u.
    """
    out = []
    for m in range(m_max + 1):
        low, e, pe = step * m, 0, p
        while (low + count) // pe > low // pe:
            e += 1
            pe *= p
        out.append(e)
    return out


def lemma24_scan(
    spec: FactorialRatioSpec, p: int, m_max: int, level: int | None = None
) -> list[PadicMembershipReport]:
    """lemma24_check over s in {1, 2}, a < p^s, every level (or one), m <= m_max.

    Returns one row in a list.  The lemma is a predicate on fractional
    parts, so the row carries no valuation: required and actual are both 0,
    and member says whether every grid point passed.  The witness is the
    first failing (s, a, L, m).

    Each point is lemma24_check with the arguments checked once, alpha
    taken once per level and max_u v_p(Lm+u) read from one
    _interval_valuations row per (s, a, L).  The walk starts at l = s + 1:
    {(a + m p^s)/p^s} = a/p^s, and U = floor(La/p^s) >= 1 gives
    M a >= L a >= p^s.
    """
    _require_prime(p)
    _require_indices(m_max=m_max)
    big_m = spec.max_entry
    levels = _levels(big_m, level)
    alphas = {lev: _floor_log(big_m // lev, p) for lev in levels}

    def failing():
        for s in (1, 2):
            ps = p**s
            for a in range(ps):
                for lev in levels:
                    u_top = (lev * a) // ps
                    if u_top == 0:
                        continue
                    v_maxes = _interval_valuations(p, lev, u_top, m_max)
                    for m, v_max in enumerate(v_maxes):
                        point, pl = a + m * ps, ps * p
                        for _ in range(v_max + alphas[lev]):
                            if big_m * (point % pl) < pl:
                                yield s, a, lev, m
                                break
                            pl *= p

    witness = next(failing(), None)
    where = "" if level is None else f"L={level}, "
    description = f"lemma24 grid {where}m<={m_max}"
    return [PadicMembershipReport(p, 0, description, 0, witness is None, witness)]


def _harmonic_report(
    p: int, level: int, s: int, m: int, required: int, actual: Valuation
) -> PadicMembershipReport:
    description = f"p^(s+1) g_p(m) harmonic difference, L={level}, s={s}, m={m}"
    return _grid_report(p, description, [((level, s, m), required, actual)])


def lemma_harmonic_check(
    spec: FactorialRatioSpec, level: int, p: int, s: int, m: int
) -> PadicMembershipReport:
    """p^{s+1} g_p(m) (H_{L m p^s} - H_{L floor(m/p) p^{s+1}}) in p D_L Z_p."""
    require_level(level, spec.max_entry)
    _require_prime(p)
    _require_indices(s=s, m=m)
    mu, _ = mu_and_g(spec, p, m)
    block = harmonic_block(level * (m // p) * p ** (s + 1), level * m * p**s)
    required = _required(spec, level, p)
    actual = s + 1 + mu + vp_rational(block, p)
    return _harmonic_report(p, level, s, m, required, actual)


def lemma_harmonic_scan(
    spec: FactorialRatioSpec, p: int, s_max: int, m_max: int, level: int | None = None
) -> list[PadicMembershipReport]:
    """lemma_harmonic_check over every level (or one), s <= s_max, m <= m_max.

    Returns the report of each failing point, then a summary row: the
    _grid_report of the same points keyed None, so it has no witness, and
    it carries the valuations of the point of smallest margin
    actual - required (the first in (L, s, m) order on a tie).

    Both block endpoints are multiples of p^s, so one _harmonic_residues
    pass per s gives every block as P(b) - P(a) = p^E (H_b - H_a) mod
    p^(E+D); a zero difference is recomputed by harmonic_block.  For p | m
    the block is empty (a = L floor(m/p) p^{s+1} = L m p^s = b), so it is
    exactly 0 and the point is +inf with no residue.
    """
    _require_prime(p)
    _require_indices(s_max=s_max, m_max=m_max)
    levels = _levels(spec.max_entry, level)
    required = {lev: _required(spec, lev, p) for lev in levels}
    mus = [_mu(p, spec.max_entry, m) for m in range(m_max + 1)]
    tables = [
        (mod, h, _valuation_reader(p, e + _RESIDUE_DIGITS, e))
        for e, mod, h in (
            _harmonic_residues(p, max(levels) * m_max * p**s, p**s)
            for s in range(s_max + 1)
        )
    ]

    def actual(lev: int, s: int, m: int) -> Valuation:
        if m % p == 0:
            return INFINITE
        mod, h, valuation = tables[s]
        # In units of p^s: a = L floor(m/p) p^{s+1}, b = L m p^s.
        block = valuation(
            (h[lev * m] - h[lev * (m // p) * p]) % mod,
            lambda: harmonic_block(lev * (m // p) * p ** (s + 1), lev * m * p**s),
        )
        return s + 1 + mus[m] + block

    points = [
        ((lev, s, m), required[lev], actual(lev, s, m))
        for lev in levels
        for s in range(s_max + 1)
        for m in range(m_max + 1)
    ]
    failing = [
        _harmonic_report(p, *key, req, act) for key, req, act in points if act < req
    ]
    description = f"harmonic lemma grid s<={s_max}, m<={m_max}"
    unkeyed = ((None, req, act) for _, req, act in points)
    return failing + [_grid_report(p, description, unkeyed)]


def congruence25_check(
    spec: FactorialRatioSpec, level: int, p: int, a: int, j: int
) -> bool:
    """p H_{L(a+jp)} = H_{Lj} + sum_{i<=floor(La/p)} 1/(Lj+i)  (mod p Z_p)."""
    require_level(level, spec.max_entry)
    _require_prime(p)
    _require_indices(j=j)
    if not 0 <= a < p:
        raise ValueError("a must satisfy 0 <= a < p")
    head_and_tail = harmonic_block(0, level * j + (level * a) // p)
    diff = p * harmonic_block(0, level * (a + j * p)) - head_and_tail
    return vp_rational(diff, p) >= 1


def congruence_star_check(
    spec: FactorialRatioSpec, level: int, p: int, a: int, big_k: int
) -> bool:
    """phi + sum_j H_{Lj}(Q(a+jp)Q(K-j) - Q(j)Q(a+(K-j)p)) in p D_L Z_p."""
    require_level(level, spec.max_entry)
    _require_prime(p)
    q, h = _tables(spec, p, a, big_k, level)
    residual = _phi(q, h, p, a, big_k) + _dwork_sum(q, h, p, a, big_k)
    required = _required(spec, level, p)
    return vp_rational(residual, p) - vp_int(h[1], p) >= required


def s_membership_scan(
    spec: FactorialRatioSpec,
    p: int,
    a_max: int,
    k_max: int,
    s_max: int,
    m_max: int,
) -> list[PadicMembershipReport]:
    """S(a,K,s,p,m) in p^{s+1} g_p(m) Z_p over the lexicographic (a, K, s, m) grid.

    Returns one row in a list.  With Q = w/qd over common_denominator,
    qd^2 S is the sum over the block [lo, hi) of
    t_j = w(a+jp) w(K-j) - w(j) w(a+(K-j)p).  One prefix-sum pass of
    t_j mod p^(2 v_p(qd) + D) per (a, K) makes each block one subtraction.
    Two kinds of block are exactly 0.  An empty one (m p^s > K) is skipped:
    it never fails, and _grid_report replaces the first point (0,0,0,0) of
    a nonempty grid only on a smaller margin.  A symmetric one
    (lo + hi - 1 = K) is +inf, since t_{K-j} = -t_j.  Any other zero
    residue is recomputed by _s_sum.
    """
    _require_prime(p)
    _require_indices(a_max=a_max, k_max=k_max, s_max=s_max, m_max=m_max)
    q = _scan_q(spec, p, a_max, k_max)
    mus = [_mu(p, spec.max_entry, m) for m in range(m_max + 1)]
    w, qd = common_denominator(q)
    shift = 2 * int(vp_int(qd, p))
    mod = p ** (shift + _RESIDUE_DIGITS)
    valuation = _valuation_reader(p, shift + _RESIDUE_DIGITS, shift)
    w = [x % mod for x in w]

    def points():
        for a in range(min(a_max, p - 1) + 1):
            for big_k in range(k_max + 1):
                t = (
                    w[a + j * p] * w[big_k - j] - w[j] * w[a + (big_k - j) * p]
                    for j in range(big_k + 1)
                )
                prefix = list(accumulate(t, initial=0))
                for s in range(s_max + 1):
                    ps = p**s
                    for m in range(min(m_max, big_k // ps) + 1):
                        lo, hi = m * ps, min((m + 1) * ps, big_k + 1)
                        if lo + hi - 1 == big_k:
                            actual = INFINITE
                        else:
                            actual = valuation(
                                (prefix[hi] - prefix[lo]) % mod,
                                lambda: _s_sum(q, a, big_k, s, p, m),
                            )
                        yield (a, big_k, s, m), s + 1 + mus[m], actual

    description = f"S on a<=min({a_max},p-1), K<={k_max}, s<={s_max}, m<={m_max}"
    return [_grid_report(p, description, points())]
