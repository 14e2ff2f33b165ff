"""Certified enclosures with exact rational endpoints.

Every constructor returns an interval guaranteed to contain the exact real
value; series truncations carry explicit remainder bounds and all rounding is
outward.  Every tolerance must be positive: a width <= 0 is never reached, so
the constructors raise ``ValueError`` instead of looping.

No binary floating point enters any enclosure.  The Lambert W bisection uses
a float Newton root only as a guess: it certifies the signs of w e^w - x just
below and just above that guess, and since w e^w - x is increasing on w >= 0,
those two certified signs decide every later sign test outside the tight
bracket they span.  The bisection iterates, and so the enclosure, are the
ones a bisection that certified every sign would produce.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction

from .polynomials import Poly


@dataclass(frozen=True)
class RationalInterval:
    lo: Fraction
    hi: Fraction

    def __post_init__(self):
        object.__setattr__(self, "lo", Fraction(self.lo))
        object.__setattr__(self, "hi", Fraction(self.hi))
        if self.lo > self.hi:
            raise ValueError(f"inverted interval [{self.lo}, {self.hi}]")

    @classmethod
    def point(cls, x) -> "RationalInterval":
        x = Fraction(x)
        return cls(x, x)

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo

    @property
    def midpoint(self) -> Fraction:
        return (self.lo + self.hi) / 2

    def contains(self, x) -> bool:
        return self.lo <= x <= self.hi

    def contains_interval(self, other: "RationalInterval") -> bool:
        return self.lo <= other.lo and other.hi <= self.hi

    def intersects(self, other: "RationalInterval") -> bool:
        return self.lo <= other.hi and other.lo <= self.hi

    def certainly_le(self, other) -> bool:
        other = _lift(other)
        return self.hi <= other.lo

    def certainly_lt(self, other) -> bool:
        other = _lift(other)
        return self.hi < other.lo

    def __neg__(self):
        return RationalInterval(-self.hi, -self.lo)

    def __add__(self, other):
        other = _lift(other)
        return RationalInterval(self.lo + other.lo, self.hi + other.hi)

    __radd__ = __add__

    def __sub__(self, other):
        other = _lift(other)
        return RationalInterval(self.lo - other.hi, self.hi - other.lo)

    def __rsub__(self, other):
        return _lift(other) - self

    def __mul__(self, other):
        other = _lift(other)
        products = (self.lo * other.lo, self.lo * other.hi, self.hi * other.lo, self.hi * other.hi)
        return RationalInterval(min(products), max(products))

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _lift(other)
        if other.lo <= 0 <= other.hi:
            raise ZeroDivisionError("division by an interval containing zero")
        inv = RationalInterval(1 / other.hi, 1 / other.lo)
        return self * inv

    def __rtruediv__(self, other):
        return _lift(other) / self

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("negative interval power")
        if k == 0:
            return RationalInterval.point(1)
        if k % 2 == 0 and self.lo < 0 < self.hi:
            m = max(-self.lo, self.hi)
            return RationalInterval(Fraction(0), m ** k)
        a, b = self.lo ** k, self.hi ** k
        return RationalInterval(min(a, b), max(a, b))

    def to_json(self) -> str:
        from .verdict import format_rational

        return f"[{format_rational(self.lo)}, {format_rational(self.hi)}]"


def _positive_tol(tol) -> Fraction:
    tol = Fraction(tol)
    if tol <= 0:
        raise ValueError("tolerance must be positive")
    return tol


def _lift(value) -> RationalInterval:
    if isinstance(value, RationalInterval):
        return value
    return RationalInterval.point(value)


def _atanh_series(y: Fraction, tol: Fraction) -> RationalInterval:
    """Enclosure of 2*atanh(y) = log((1+y)/(1-y)) for |y| < 1."""
    if y == 0:
        return RationalInterval.point(0)
    y2 = y * y
    term = y
    total = Fraction(0)
    k = 0
    while True:
        total += 2 * term / (2 * k + 1)
        # Tail after the k-th term, summed geometrically.
        tail = 2 * abs(term) * abs(y2) / ((2 * k + 3) * (1 - y2))
        if tail <= tol / 2:
            return RationalInterval(total - tail, total + tail)
        term *= y2
        k += 1


_LOG2_CACHE: dict[Fraction, RationalInterval] = {}


def _log2_enclosure(tol: Fraction) -> RationalInterval:
    cached = _LOG2_CACHE.get(tol)
    if cached is None:
        cached = _atanh_series(Fraction(1, 3), tol)
        _LOG2_CACHE[tol] = cached
    return cached


def log_interval(v, tol) -> RationalInterval:
    """Enclosure of log(v) for rational v > 0 with width <= tol.

    Reduces the argument by powers of two into [3/4, 3/2] and evaluates the
    atanh series with an explicit geometric remainder bound.
    """
    v = Fraction(v)
    tol = _positive_tol(tol)
    if v <= 0:
        raise ValueError("log of a nonpositive value")
    if v == 1:
        return RationalInterval.point(0)
    k = 0
    m = v
    while m > Fraction(3, 2):
        m /= 2
        k += 1
    while m < Fraction(3, 4):
        m *= 2
        k -= 1
    body = _atanh_series((m - 1) / (m + 1), tol / 2)
    if k == 0:
        return body
    log2 = _log2_enclosure(tol / (4 * abs(k)))
    return body + log2 * k


def log1p_interval(x, tol) -> RationalInterval:
    """Enclosure of log(1 + x) for rational x > -1, width <= tol."""
    x = Fraction(x)
    tol = _positive_tol(tol)
    if x <= -1:
        raise ValueError("log1p requires x > -1")
    if x == 0:
        return RationalInterval.point(0)
    return log_interval(1 + x, tol)


def exp_interval(w, tol) -> RationalInterval:
    """Enclosure of exp(w) for rational w, width <= tol, via the power series
    with a Lagrange-style geometric tail bound."""
    w = Fraction(w)
    tol = _positive_tol(tol)
    if w == 0:
        return RationalInterval.point(1)
    total = Fraction(1)
    term = Fraction(1)
    k = 0
    aw = abs(w)
    while True:
        k += 1
        term *= w
        term /= k
        total += term
        if aw < k + 2:
            tail = abs(term) * aw / ((k + 1) * (1 - aw / (k + 2)))
            if tail <= tol / 2:
                return RationalInterval(total - tail, total + tail)


def _we_w_minus(w: Fraction, x: Fraction, tol: Fraction) -> RationalInterval:
    """Enclosure of w * exp(w) - x."""
    if w == 0:
        return RationalInterval.point(-x)
    return exp_interval(w, tol / abs(w)) * w - x


def _certified_sign(w: Fraction, x: Fraction, tol_hint: Fraction) -> int:
    """Sign of w*e^w - x at a rational w != W(x), decided by refining the
    exponential enclosure as far as needed."""
    tol = tol_hint
    while True:
        box = _we_w_minus(w, x, tol)
        if box.lo > 0:
            return 1
        if box.hi < 0:
            return -1
        tol /= 16


def lambert_w_interval(x, tol) -> RationalInterval:
    """Enclosure of the nonnegative branch of the Lambert W function at a
    rational x in [0, sys.float_info.max], with width <= tol; a larger x
    raises ValueError, since the float seed needs float(x).

    Bisection on f(w) = w * e^w - x from the bracket [0, max(1, x)], or from
    the narrower bracket seed -+ pad around a float Newton root once both of
    its signs hold.  Before any of that, the signs f(s - delta) < 0 < f(s + delta)
    are certified through interval evaluation of the exponential, with s
    the seed as an exact dyadic and delta = max(s 2^-40, 2^-100).  f is
    strictly increasing on w >= 0, so a later sign test at or below the
    highest point known negative is -1 and one at or above the lowest point
    known positive is +1; only a point strictly between them needs an
    exponential enclosure.  W(x) is irrational for rational x > 0, so no test
    point is a root and every sign is a fact: the iterates and the returned
    endpoints are those of a bisection from the same start bracket that
    certifies every sign, and the tight bracket changes only the cost.
    """
    x = Fraction(x)
    tol = _positive_tol(tol)
    if x < 0:
        raise ValueError("the nonnegative Lambert W branch needs x >= 0")
    if x > sys.float_info.max:
        raise ValueError(f"lambert_w_interval supports 0 <= x <= {sys.float_info.max!r}, "
                         "the largest double (its float seed)")
    if x == 0:
        return RationalInterval.point(0)
    # f(below) < 0 < f(above), tightened by every certified sign.
    below, above = Fraction(0), max(Fraction(1), x)

    def sign(w: Fraction, tol_hint: Fraction) -> int:
        nonlocal below, above
        if w <= below:
            return -1
        if w >= above:
            return 1
        if _certified_sign(w, x, tol_hint) < 0:
            below = w
            return -1
        above = w
        return 1

    lo, hi = below, above
    seed = _float_lambert_seed(float(x))
    if seed is not None:
        s = Fraction(seed)
        delta = max(s / 2**40, Fraction(1, 2**100))
        sign(s - delta, delta)
        sign(s + delta, delta)
        pad = max(Fraction(abs(seed)).limit_denominator(10**6) / 10**7, Fraction(1, 10**9))
        cand_lo = max(lo, _dyadic(seed) - pad)
        cand_hi = min(hi, _dyadic(seed) + pad)
        if sign(cand_lo, pad) < 0 and sign(cand_hi, pad) > 0:
            lo, hi = cand_lo, cand_hi

    while hi - lo > tol:
        mid = _dyadic_between(lo, hi)
        if sign(mid, (hi - lo) / 8) < 0:
            lo = mid
        else:
            hi = mid
    return RationalInterval(lo, hi)


def _float_lambert_seed(x: float):
    if x <= 0 or not math.isfinite(x):
        return None
    w = math.log1p(x)  # rough but in the basin everywhere on x > 0
    for _ in range(60):
        ew = math.exp(w)
        f = w * ew - x
        fp = ew * (1 + w)
        step = f / fp
        w -= step
        if abs(step) < 1e-14 * max(1.0, abs(w)):
            break
    return w if w >= 0 and math.isfinite(w) else None


def _dyadic(value: float, bits: int = 64) -> Fraction:
    return Fraction(round(value * (1 << bits)), 1 << bits)


def _dyadic_between(lo: Fraction, hi: Fraction) -> Fraction:
    """floor(c 2^b + 1) / 2^b for the center c of (lo, hi) and the smallest b
    in 4, 8, 12, ... with 2^-b < (hi - lo) / 2.  It lies in (c, c + 2^-b], so
    strictly inside (lo, hi); the small power-of-two denominator keeps
    bisection iterates cheap."""
    # c = num / den and (hi - lo) / 2 = gap / den.
    den = 2 * lo.denominator * hi.denominator
    num = lo.numerator * hi.denominator + hi.numerator * lo.denominator
    gap = hi.numerator * lo.denominator - lo.numerator * hi.denominator
    # gap 2^b > den needs b >= bitlen(den) - bitlen(gap).
    bits = max(4, -(-(den.bit_length() - gap.bit_length()) // 4) * 4)
    while gap << bits <= den:
        bits += 4
    return Fraction((num << bits) // den + 1, 1 << bits)


def entropy_interval(x, tol) -> RationalInterval:
    """Enclosure of h(x) = -x log x - (1-x) log(1-x) on [0, 1], with the
    endpoint values h(0) = h(1) = 0 handled exactly."""
    x = Fraction(x)
    tol = _positive_tol(tol)
    if x < 0 or x > 1:
        raise ValueError("entropy argument outside [0, 1]")
    if x == 0 or x == 1:
        return RationalInterval.point(0)
    left = -(log_interval(x, tol / 2) * x)
    right = -(log_interval(1 - x, tol / 2) * (1 - x))
    return left + right


def free_energy_interval(z: Poly, n: int, lam, tol) -> RationalInterval:
    """Enclosure of (1/n) log(Z(lam)) for a partition-function polynomial Z."""
    tol = _positive_tol(tol)
    if n < 1:
        raise ValueError("need at least one vertex")
    value = Fraction(z.evaluate(Fraction(lam)))
    if value <= 0:
        raise ValueError("partition function evaluated nonpositive")
    return log_interval(value, tol * n) * Fraction(1, n)
