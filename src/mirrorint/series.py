"""Truncated formal power series over the exact rationals.

A TruncatedSeries holds coefficients c_0..c_N as given, each an int or a
Fraction; any other type, a float included, is refused.  Integer series
stay on ints under +, -, * and powers, while reciprocal, exp and log divide
and return Fractions.  Every binary operation truncates to the smaller
operand order and never pads, so a result never claims coefficients that
were not actually computed.  exp and log are solved through the ODE
recurrence b' = a' b, which keeps everything in O(N^2) exact-rational
operations.

The certifiers do not go through that ring: mirror.MirrorMapBundle hands
out F, G and G_L as coefficient tuples, and the ring is the oracle the
tests check the certifiers against.  common_denominator puts a
sequence over the lcm delta of its denominators, and exp_quotient_root
computes exp(h/v) for h = g / f on integers over that one delta, one
coefficient at a time: it solves f h = g as it goes, never forming 1/f, so
a verifier can stop at the first non-integral coefficient.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Iterator, Sequence
from fractions import Fraction
from operator import mul

from ._record import record

__all__ = [
    "TruncatedSeries",
    "IntegralityReport",
    "integrality_report",
    "common_denominator",
    "exp_quotient_root",
]

Scalar = int | Fraction


@record
class IntegralityReport:
    """First non-integer coefficient of a series, if any, up to a given order."""

    integral: bool
    order_checked: int
    first_bad_index: int | None = None
    first_bad_coefficient: Fraction | None = None


def integrality_report(coeffs: Iterable[Scalar], order: int) -> IntegralityReport:
    """Report the first non-integral coefficient of c_0..c_order, if any.

    Consumes coeffs only up to that coefficient, so a lazy producer stops
    there too.
    """
    for n, c in enumerate(coeffs):
        if c.denominator != 1:
            return IntegralityReport(
                integral=False,
                order_checked=order,
                first_bad_index=n,
                first_bad_coefficient=c,
            )
    return IntegralityReport(integral=True, order_checked=order)


def common_denominator(xs: Sequence[Scalar]) -> tuple[list[int], int]:
    """Integers w_n and d with x_n = w_n / d, d the lcm of the reduced denominators."""
    d = math.lcm(*(x.denominator for x in xs))
    return [x.numerator * (d // x.denominator) for x in xs], d


def exp_quotient_root(
    g: Sequence[Scalar], f: Sequence[Scalar], v: int
) -> Iterator[Scalar]:
    """Yield the coefficients y_0, y_1, ... of exp(h/v), where f h = g.

    g has g_0 = 0 and f has f_0 = 1, so h is solved online from
    h_n = g_n - sum_{k=1..n-1} f_{n-k} h_k and 1/f is never formed.  With
    g_n = w_n / delta over common_denominator, every h_k * delta is an
    integer when f is integral, and y' = h' y / v becomes

        n v delta y_n = sum_{k=1..n} k (h_k delta) y_{n-k},

    which divides exactly while the root is integral.  A coefficient that
    does not divide is yielded as a Fraction, and the coefficients after it
    are computed in Fractions on the same path.  f is read as given: int
    coefficients keep the sums on integers, and a Fraction coefficient,
    integral or not, moves the sums it touches to Fractions.  Yields
    min(len(g), len(f)) coefficients.
    """
    if v < 1:
        raise ValueError("v must be a positive integer")
    if g[0] != 0:
        raise ValueError("exp_quotient_root requires g_0 = 0")
    if f[0] != 1:
        raise ValueError("exp_quotient_root requires f_0 = 1")
    order = min(len(g), len(f)) - 1
    w, delta = common_denominator(g[: order + 1])
    h_scaled: list[Scalar] = []  # h_k * delta, k = 1..n
    weights: list[Scalar] = []  # k h_k delta, k = 1..n
    y: list[Scalar] = [1]
    yield 1
    for n in range(1, order + 1):
        h = w[n] - sum(map(mul, f[1:n], reversed(h_scaled)))
        h_scaled.append(h)
        weights.append(n * h)
        total = sum(map(mul, weights, reversed(y)))
        den = n * v * delta
        quotient, remainder = divmod(total, den)
        y_n = quotient if remainder == 0 else Fraction(total, den)
        y.append(y_n)
        yield y_n


@record
class TruncatedSeries:
    coeffs: tuple[Scalar, ...]

    def __post_init__(self):
        coeffs = tuple(self.coeffs)
        if not coeffs:
            raise ValueError("a series needs at least the constant coefficient")
        for c in coeffs:
            if not isinstance(c, (int, Fraction)):
                raise TypeError(f"coefficient {c!r} is not an int or a Fraction")
        object.__setattr__(self, "coeffs", coeffs)

    @classmethod
    def from_coeffs(cls, coeffs: Iterable[Scalar], order: int | None = None
                    ) -> "TruncatedSeries":
        cs = list(coeffs)
        if order is not None:
            if order + 1 < len(cs):
                cs = cs[: order + 1]
            else:
                cs += [0] * (order + 1 - len(cs))
        return cls(cs)

    @classmethod
    def one(cls, order: int) -> "TruncatedSeries":
        return cls.from_coeffs([1], order)

    @classmethod
    def zero(cls, order: int) -> "TruncatedSeries":
        return cls.from_coeffs([0], order)

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def __getitem__(self, n: int) -> Scalar:
        return self.coeffs[n]

    def __add__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        n = min(self.order, other.order)
        return TruncatedSeries(
            tuple(self.coeffs[k] + other.coeffs[k] for k in range(n + 1))
        )

    def __sub__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        return self + (-other)

    def __neg__(self) -> "TruncatedSeries":
        return TruncatedSeries(tuple(-c for c in self.coeffs))

    def scale(self, factor: Scalar) -> "TruncatedSeries":
        return TruncatedSeries(tuple(c * factor for c in self.coeffs))

    def __mul__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        n = min(self.order, other.order)
        return TruncatedSeries(tuple(
            sum(self.coeffs[i] * other.coeffs[k - i] for i in range(k + 1))
            for k in range(n + 1)
        ))

    def __pow__(self, exponent: int) -> "TruncatedSeries":
        if exponent < 0:
            return self.reciprocal() ** (-exponent)
        result = TruncatedSeries.one(self.order)
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def reciprocal(self) -> "TruncatedSeries":
        c0 = self.coeffs[0]
        if c0 == 0:
            raise ValueError("reciprocal requires a nonzero constant term")
        # +-1 is its own inverse, which keeps an integral series on ints.
        inv0 = c0 if c0 in (1, -1) else Fraction(1, c0)
        out = [inv0]
        for k in range(1, self.order + 1):
            acc = sum(self.coeffs[i] * out[k - i] for i in range(1, k + 1))
            out.append(-inv0 * acc)
        return TruncatedSeries(tuple(out))

    def exp(self) -> "TruncatedSeries":
        """exp of a series with zero constant term, via n b_n = sum k a_k b_{n-k}."""
        if self.coeffs[0] != 0:
            raise ValueError("exp requires a zero constant term")
        out = [Fraction(1)]
        for n in range(1, self.order + 1):
            acc = sum(
                (k * self.coeffs[k] * out[n - k] for k in range(1, n + 1)),
                Fraction(0),
            )
            out.append(acc / n)
        return TruncatedSeries(tuple(out))

    def log(self) -> "TruncatedSeries":
        """log of a series with constant term 1 (inverse recurrence of exp)."""
        if self.coeffs[0] != 1:
            raise ValueError("log requires constant term 1")
        out = [Fraction(0)]
        for n in range(1, self.order + 1):
            acc = sum(
                (k * out[k] * self.coeffs[n - k] for k in range(1, n)),
                Fraction(0),
            )
            out.append((n * self.coeffs[n] - acc) / n)
        return TruncatedSeries(tuple(out))

    def vth_root(self, v: int) -> "TruncatedSeries":
        """The v-th root exp(log(a)/v) of a unit series."""
        if v < 1:
            raise ValueError("v must be a positive integer")
        if self.coeffs[0] != 1:
            raise ValueError("vth_root requires constant term 1")
        if v == 1:
            return self
        return self.log().scale(Fraction(1, v)).exp()

    def substitute_power(self, p: int) -> "TruncatedSeries":
        """The substitution z -> z^p, truncated at the original order."""
        if p < 1:
            raise ValueError("p must be a positive integer")
        out = [0] * (self.order + 1)
        for k in range(self.order // p + 1):
            out[k * p] = self.coeffs[k]
        return TruncatedSeries(tuple(out))

    def integrality(self) -> IntegralityReport:
        return integrality_report(self.coeffs, self.order)

