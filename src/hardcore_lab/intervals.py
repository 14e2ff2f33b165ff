"""Certified enclosures with exact rational endpoints.

Every constructor returns an interval guaranteed to contain the exact real
value; series truncations carry explicit remainder bounds and all rounding is
outward.  Every tolerance must be positive: a width <= 0 is never reached, so
the constructors raise ``ValueError`` instead of looping.

No binary floating point enters any enclosure.  The exponential is
computed in dyadic fixed point: integers at p fractional bits, rounded
outward at every step (``_exp_fixed``).  The Lambert W bisection uses a
float Newton root only as a guess: rational Newton steps refine it, and the
signs of w e^w - x are certified just below and just above the refined
point, at most 2^-20 tol apart.  Since w e^w - x is increasing on w >= 0,
those two signs decide every later sign test outside that tight bracket,
and only bisection steps inside it evaluate the exponential, by an integer
comparison.  From the start bracket on, the bisection runs on integer pairs
(num, den), and its iterates, and so the enclosure, are the ones a
bisection that certified every sign would produce.  The iterates do not
depend on tol, so ``lambert_w_bisection(x)`` keeps one bisection for x
across calls: a smaller tol resumes it from the bracket reached, a larger
one reads a recorded bracket, and ``lambert_w_interval`` is one call into a
fresh bisection, the one place where a bracket becomes an interval.

The logarithm resumes the same way.  ``log_series(v)`` records the partial
sums of its atanh series and their tail bounds once: a smaller tol sums on
from the last term, and a larger one reads a recorded term.  It is the one
entrance to the logarithm: the one-shot ``log1p_interval``,
``entropy_interval`` and ``free_energy_interval`` read fresh series at each
call.  A caller that refines comparisons round by round, as the
triangle-free checks and the combined chain do, keeps one series and one
bisection per argument across its rounds and sides, and pays only for the
terms and steps each round adds.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import cache

from .polynomials import Poly
from .verdict import format_rational


@dataclass(frozen=True)
class RationalInterval:
    lo: Fraction
    hi: Fraction

    def __post_init__(self):
        if type(self.lo) is not Fraction:
            object.__setattr__(self, "lo", Fraction(self.lo))
        if type(self.hi) is not Fraction:
            object.__setattr__(self, "hi", Fraction(self.hi))
        if self.lo > self.hi:
            raise ValueError(f"inverted interval [{self.lo}, {self.hi}]")

    @classmethod
    def point(cls, x) -> "RationalInterval":
        x = Fraction(x)
        return cls(x, x)

    def contains(self, x) -> bool:
        return self.lo <= x <= self.hi

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

    def __mul__(self, other):
        other = _lift(other)
        products = (self.lo * other.lo, self.lo * other.hi, self.hi * other.lo, self.hi * other.hi)
        return RationalInterval(min(products), max(products))

    def to_json(self) -> str:
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


@cache
def _log2_enclosure(tol: Fraction) -> RationalInterval:
    return _atanh_sums(Fraction(1, 3))(tol)


def log1p_interval(x, tol) -> RationalInterval:
    """Enclosure of log(1 + x) for rational x > -1, width <= tol."""
    x = Fraction(x)
    tol = _positive_tol(tol)
    if x <= -1:
        raise ValueError("log1p requires x > -1")
    return log_series(1 + x)(tol)


def log_series(v):
    """The series for log(v) at a rational v > 0: returns enclose(tol), an
    enclosure of log(v) with width <= tol.

    The argument is reduced by powers of two into [3/4, 3/2], v = m 2^k, and
    log(m) = 2 atanh(y), y = (m - 1) / (m + 1), is summed with an explicit
    geometric remainder bound; k copies of log 2 are added for k != 0.  The
    partial sums and their tail bounds do not depend on tol, so the series
    records them once: a call with a smaller tol extends the record term by
    term, and a call with a larger tol reads the first recorded term whose
    tail is narrow enough.  The enclosures do not depend on the calls made
    before: each is the one a fresh series gives at its tol.
    """
    v = Fraction(v)
    if v <= 0:
        raise ValueError("log of a nonpositive value")
    # 2^(e-1) < v < 2^(e+1): a jump to the loops' side of [3/4, 3/2], not past it
    e = v.numerator.bit_length() - v.denominator.bit_length()
    k = e - 2 if e > 2 else min(e + 2, 0)
    m = v / Fraction(2) ** k
    while m > Fraction(3, 2):
        m /= 2
        k += 1
    while m < Fraction(3, 4):
        m *= 2
        k -= 1
    body = _atanh_sums((m - 1) / (m + 1))

    def enclose(tol) -> RationalInterval:
        tol = _positive_tol(tol)
        if k == 0:
            return body(tol / 2)
        return body(tol / 2) + _log2_enclosure(tol / (4 * abs(k))) * k

    return enclose


def _atanh_sums(y: Fraction):
    """The series 2 atanh(y) = log((1+y)/(1-y)) at a rational |y| < 1:
    returns enclose(tol), the enclosure after the first term whose tail
    bound is <= tol / 2.  Each term's enclosure is recorded once, so a
    smaller tol sums on from the last term and a larger one reads a recorded
    term, with the enclosure a fresh series gives at that tol."""
    # (tail numerator, tail denominator, enclosure) after each term so far.
    record = []
    y2 = y * y
    term, total = y, Fraction(0)

    def enclose(tol) -> RationalInterval:
        nonlocal term, total
        tn, td = tol.numerator, tol.denominator
        for n, d, enc in record:
            if 2 * n * td <= tn * d:
                return enc
        while True:
            j = len(record)
            total += 2 * term / (2 * j + 1)
            # Tail after the j-th term, summed geometrically.
            tail = 2 * abs(term) * y2 / ((2 * j + 3) * (1 - y2))
            record.append((tail.numerator, tail.denominator,
                           RationalInterval(total - tail, total + tail)))
            term *= y2
            if 2 * tail.numerator * td <= tn * tail.denominator:
                return record[-1][2]

    return enclose


def exp_interval(w, tol) -> RationalInterval:
    """Enclosure of exp(w) for rational w, width <= tol: one ``_exp_fixed``
    call at bits with 2^-bits <= tol / max(1, e^w) (log2 e < 1443/1000), so
    the width bound that its docstring proves is at most tol."""
    w = Fraction(w)
    tol = _positive_tol(tol)
    if w == 0:
        return RationalInterval.point(1)
    n, d = w.numerator, w.denominator
    tn, td = tol.numerator, tol.denominator
    bits = td.bit_length() - tn.bit_length() + 1 + max(0, n * 1443 // (1000 * d) + 1)
    lo, hi, p = _exp_fixed(n, d, bits)
    return RationalInterval(Fraction(lo, 1 << p), Fraction(hi, 1 << p))


def _exp_fixed(n: int, d: int, bits: int) -> tuple[int, int, int]:
    """(lo, hi, p) with lo / 2^p <= exp(n / d) <= hi / 2^p, for d > 0, and
    a width (hi - lo) / 2^p below 2^-B e^(n/d) for n >= 0 and below 2^-B
    for n < 0, B = max(bits, 0).  Argument reduction, a fixed-point Taylor sum
    and repeated squaring, each step rounded outward (Brent and Zimmermann,
    *Modern Computer Arithmetic*, 2010, sections 4.3-4.4; Johansson,
    arXiv:1410.7176).  With a = |n|, an ulp 2^-p, p = B + s + g and guard
    bits g = bitlen(B + s) + 4, so 2^g > 16 (B + s) and 2^g >= 16:

    - r = a / (d 2^s) <= 2^-9.
    - The Taylor terms of e^r in ulps: term k is term k-1 times r / k,
      floored for lo and ceiled for hi, so every lower term is at most the
      exact t_k = 2^p r^k / k! and every upper term at least it.  The sum
      stops at the first K whose upper term is <= 1; each later exact term
      is below r times the one before, so they total below r / (1 - r) < 1,
      and hi adds one ulp for them.  An upper term exceeds its lower one by
      e_k < r e_(k-1) + 2 < 2 / (1 - r) < 3, so hi - lo <= 2K + 1 ulps at a
      value >= 1.  Upper term k is below 2^p r^k + 1 / (1 - r), under 2
      once 9k >= p + 1, so K <= p / 9 + 1.
    - s squarings, lo floored and hi ceiled, give e^a.  With X >= 2^p the
      exact value in ulps and tau = (hi - lo) / X, a squaring gives
      tau' <= 2 tau + tau^2 + 2^(1-p), so sigma = tau + 2^(1-p) has
      1 + sigma' <= (1 + sigma)^2.  Before them sigma <= (2K + 3) 2^-p, so
      after them tau <= (1 + sigma)^(2^s) - 1 <= e^y - 1 <= y e^y for
      y = 2^s (2K + 3) 2^-p = 2^-B (2K + 3) / 2^g.  As
      2K + 3 <= 2 (B + s + g) / 9 + 5, (2K + 3) / 2^g is below
      1/72 + 1/18 + 5/16 < 0.39 (at g = 4 for the last two), so
      tau < 0.39 e^0.39 2^-B < 0.58 2^-B.
    - For n < 0, floor(4^p / hi) and ceil(4^p / lo) enclose e^-a, and their
      width is at most 2^p (hi - lo) / (lo hi) + 2^(1-p) <= tau + 2^(1-p)
      < (0.58 + 1/8) 2^-B in value, as lo >= 2^p and g >= 4.
    """
    a = abs(n)
    s = max(0, a.bit_length() - d.bit_length() + 9)
    while a << 9 > d << s:
        s += 1
    p = max(bits, 0) + s
    p += p.bit_length() + 4
    den = d << s
    lo = hi = low = high = 1 << p
    k = 0
    while high > 1:
        k += 1
        low = low * a // (den * k)
        high = -(-high * a // (den * k))
        lo += low
        hi += high
    hi += 1
    for _ in range(s):
        lo = lo * lo >> p
        hi = -(-(hi * hi) >> p)
    if n < 0:
        lo, hi = (1 << 2 * p) // hi, -(-(1 << 2 * p) // lo)
    return lo, hi, p


def _we_sign(wn: int, wd: int, xn: int, xd: int, bits: int) -> int:
    """Sign of w e^w - x at w = wn / wd > 0 and x = xn / xd, for w != W(x):
    wn lo xd and wn hi xd against xn wd 2^p, for e^w in [lo, hi] / 2^p from
    ``_exp_fixed``, with bits raised by 32 until both fall on one side."""
    wx, xw = wn * xd, xn * wd
    while True:
        lo, hi, p = _exp_fixed(wn, wd, bits)
        if wx * lo > xw << p:
            return 1
        if wx * hi < xw << p:
            return -1
        bits += 32


def _lambert_newton(seed: float, xn: int, xd: int, q: int) -> int:
    """m with m / 2^q near W(x) for x = xn / xd: Newton steps
    w <- (w^2 + x e^-w) / (1 + w) from the float seed, in q-bit fixed point,
    at most 12 of them, until a step's square (the next error, to first
    order) is at most 2^(6-q).  A guess only: nothing relies on its
    accuracy."""
    n, d = seed.as_integer_ratio()
    one = 1 << q
    m = (n << q) // d
    for _ in range(12):
        e, _, p = _exp_fixed(m, one, q)
        nxt = (m * m * e * xd + (xn << (2 * q + p))) // (xd * (one + m) * e)
        step, m = abs(nxt - m), nxt
        if step * step <= one << 6:
            break
    return m


def lambert_w_interval(x, tol) -> RationalInterval:
    """Enclosure of the nonnegative branch of the Lambert W function at a
    rational x in [0, sys.float_info.max], with width <= tol: one call into
    a fresh ``lambert_w_bisection(x)``, its bracket as an interval."""
    ln, ld, hn, hd = lambert_w_bisection(x)(tol)
    return RationalInterval(Fraction(ln, ld), Fraction(hn, hd))


def lambert_w_bisection(x):
    """The bisection for W(x), the nonnegative branch of the Lambert W
    function, at a rational x in [0, sys.float_info.max]: returns
    enclose(tol), the first bracket of one bisection sequence whose width is
    <= tol, as the integers (ln, ld, hn, hd) of [ln / ld, hn / hd], ld and
    hd > 0, not normalised.  A larger x raises ValueError, since the float
    seed needs float(x).  A call with a smaller tol continues from the bracket already
    reached; a call with a larger tol returns the first recorded bracket
    narrow enough.

    Bisection on f(w) = w e^w - x from the bracket [0, max(1, x)], or from
    the narrower bracket seed -+ pad around a float Newton root once both of
    its signs hold.  f is strictly increasing on w >= 0, so a sign test at
    or below the highest point known negative is -1 and one at or above the
    lowest point known positive is +1; only a point strictly between them
    needs an exponential (``_we_sign``).  The lowest point known positive
    starts at max(1, bitlen(ceil x)), where e^w >= 2^w > x, so the bisection
    from [0, x] that a seedless x above about 2.56e305 runs halves down to it
    without one.  Rational Newton steps refine the float seed to a point c,
    and the signs f(c - 2^-b) < 0 < f(c + 2^-b) are certified, with
    2^(1-b) <= 2^-20 tol: a tight bracket narrower than tol.  Only bisection
    steps inside it evaluate the exponential.  The first call that bisects
    sets it up; a later call with a smaller tol sets it up again only when
    the b its tol would take exceeds the current b by more than 16, which
    keeps 2^(1-b) <= 2^-4 tol.  The brackets
    and the iterates are integer pairs (num, den), never normalised: the
    start bracket, its top point, the padded seed bracket and every
    bisection step.  W(x) is irrational for rational x > 0, so no test point
    is a root and every sign is a fact: the iterates, which do not depend on
    tol, and the returned endpoints are those of a bisection from the same
    start bracket that certifies every sign, and the tight bracket and the
    earlier calls change only the cost.
    """
    x = Fraction(x)
    xn, xd = x.numerator, x.denominator
    if xn < 0:
        raise ValueError("the nonnegative Lambert W branch needs x >= 0")
    if xn > int(sys.float_info.max) * xd:
        raise ValueError(f"Lambert W enclosures support 0 <= x <= {sys.float_info.max!r}, "
                         "the largest double (its float seed)")
    seed = _float_lambert_seed(float(x))
    # The start bracket [0, max(1, x)], once its top is known.
    top_n, top_d = (xn, xd) if xn > xd else (1, 1)
    # f(bn / bd) < 0 < f(an / ad), tightened by every certified sign; an / ad
    # starts at min(max(1, x), max(1, bitlen(ceil x))).
    top = max(1, (-(-xn // xd)).bit_length())
    bn, bd = 0, 1
    an, ad = (top_n, top_d) if top_n <= top * top_d else (top, 1)
    # The bisection's brackets (ln, ld, hn, hd) so far, the start bracket
    # first; W(0) = 0 is the point bracket.
    brackets = [] if xn else [(0, 1, 0, 1)]
    # 2^-b: the tight bracket's half-width, and the precision every sign
    # test starts from; 0 before the first call.
    b = 0

    def sign(wn: int, wd: int) -> int:
        nonlocal bn, bd, an, ad
        if wn * bd <= bn * wd:
            return -1
        if wn * ad >= an * wd:
            return 1
        if _we_sign(wn, wd, xn, xd, b) < 0:
            bn, bd = wn, wd
            return -1
        an, ad = wn, wd
        return 1

    def enclose(tol) -> tuple[int, int, int, int]:
        nonlocal b
        tol = _positive_tol(tol)
        tn, td = tol.numerator, tol.denominator

        def narrow(ln, ld, hn, hd):
            return (hn * ld - ln * hd) * td <= tn * ld * hd

        if brackets and narrow(*brackets[-1]):
            return next(br for br in brackets if narrow(*br))
        # 2^-need <= 2^-21 tol, and need <= b + 16 keeps 2^-b <= 2^-5 tol.
        need = max(0, td.bit_length() - tn.bit_length() + 1) + 21
        if need > b + 16:
            b = need
            if seed is not None:
                q = b + 8
                center = _lambert_newton(seed, xn, xd, q)
                sign(center - (1 << 8), 1 << q)
                sign(center + (1 << 8), 1 << q)
        if not brackets:
            ln, ld, hn, hd = 0, 1, top_n, top_d
            if seed is not None:
                # The padded seed bracket: the seed rounded to 64 fractional
                # bits, -+ pad = max(seed' / 10^7, 10^-9) for seed' its best
                # rational with denominator <= 10^6, cut to the start
                # bracket.  Below 0.0099, seed' < 1/100 (it is within
                # 1/(2 10^6) of the seed), so the pad is 10^-9.  Over the
                # common denominator 2^64 pd: c -+ p.
                near = (Fraction(abs(seed)).limit_denominator(10**6) if abs(seed) >= 0.0099
                        else Fraction(0))
                pn, pd = ((near.numerator, near.denominator * 10**7)
                          if 100 * near.numerator >= near.denominator else (1, 10**9))
                c, p, cd = round(seed * (1 << 64)) * pd, pn << 64, pd << 64
                cln, cld = (c - p, cd) if c >= p else (0, 1)
                chn, chd = (c + p, cd) if (c + p) * hd < hn * cd else (hn, hd)
                if sign(cln, cld) < 0 and sign(chn, chd) > 0:
                    ln, ld, hn, hd = cln, cld, chn, chd
            brackets.append((ln, ld, hn, hd))
        ln, ld, hn, hd = brackets[-1]
        while not narrow(ln, ld, hn, hd):
            mn, md = _dyadic_between(ln, ld, hn, hd)
            if sign(mn, md) < 0:
                ln, ld = mn, md
            else:
                hn, hd = mn, md
            brackets.append((ln, ld, hn, hd))
        return brackets[-1]

    return enclose


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


def _dyadic_between(ln: int, ld: int, hn: int, hd: int) -> tuple[int, int]:
    """(floor(c 2^b + 1), 2^b) for the center c of (lo, hi) = (ln / ld,
    hn / hd), ld, hd > 0, and the smallest b in 4, 8, 12, ... with
    2^-b < (hi - lo) / 2.  Its value lies in (c, c + 2^-b], so strictly
    inside (lo, hi), and depends only on the values lo and hi, not on how
    their pairs are written; the small power-of-two denominator keeps
    bisection iterates cheap."""
    # c = num / den and (hi - lo) / 2 = gap / den.
    den = 2 * ld * hd
    num = ln * hd + hn * ld
    gap = hn * ld - ln * hd
    # gap 2^b > den needs b >= bitlen(den) - bitlen(gap).
    bits = max(4, -(-(den.bit_length() - gap.bit_length()) // 4) * 4)
    while gap << bits <= den:
        bits += 4
    return (num << bits) // den + 1, 1 << bits


def entropy_interval(x, tol) -> RationalInterval:
    """Enclosure of h(x) = -x log x - (1-x) log(1-x) on [0, 1], with the
    endpoint values h(0) = h(1) = 0 handled exactly."""
    x = Fraction(x)
    tol = _positive_tol(tol)
    if x < 0 or x > 1:
        raise ValueError("entropy argument outside [0, 1]")
    if x == 0 or x == 1:
        return RationalInterval.point(0)
    return -(log_series(x)(tol / 2) * x) - log_series(1 - x)(tol / 2) * (1 - x)


def free_energy_interval(z: Poly, n: int, lam, tol) -> RationalInterval:
    """Enclosure of (1/n) log(Z(lam)) for a partition-function polynomial Z."""
    tol = _positive_tol(tol)
    if n < 1:
        raise ValueError("need at least one vertex")
    value = z.evaluate(Fraction(lam))
    if value <= 0:
        raise ValueError("partition function evaluated nonpositive")
    return log_series(value)(tol * n) * Fraction(1, n)
