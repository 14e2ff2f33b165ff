"""Positive real root isolation, and the half-line and segment
nonnegativity decisions.

Everything here is exact: interval endpoints and witnesses are rationals and
no verdict ever depends on floating point.  Polynomials are kept as
primitive integer coefficient lists (positive rescaling never changes a
sign), built with the primitive integer kernel of `polynomials` (content
split, squarefree part, Taylor shift); this module defines no gcd or
division of its own.

One route finds positive roots: Descartes bisection (`_descartes_roots`;
Collins and Akritas, SYMSAC 1976; Rouillier and Zimmermann, J. Comput.
Appl. Math. 162, 2004), which needs no remainder sequence.  A node of its
bisection of (0, B) is P(x) = c q(a + (b - a) x) on (0, 1), c > 0, for the
squarefree part q.  The sign variations of (x + 1)^n P(1 / (x + 1)) bound
the roots in (a, b) and share their parity, so a count of 0 or 1 is exact.
The halves are 2^n P(x / 2) and its shift by 1, each shift one packed
Horner pass (`polynomials._int_shift`).  A zero constant term in the right
half is an exact root at the midpoint: it is recorded and divided out, so
no node has a root at its left end.  A root at a right end, P = (x - 1) S,
multiplies the count's polynomial by x, so the count is that of S, which
has no root there.  On squarefree q the counts fall to 0 or 1 once the
intervals are small next to the distances between q's complex roots (the
one- and two-circle theorems; Krandick and Mehlhorn, J. Symb. Comput. 41,
2006), so the bisection ends.  A node whose count is 1 but one of whose
ends is an exact root is bisected on until the two part, so no open
record's end is a root.

Isolating intervals depend only on the roots.  `isolate_positive_roots`
halves (0, B], B the power of two at or above Cauchy's bound of q, while a
node holds two or more roots: each interval is the largest node of that
halving that holds its root alone, and any exact root finder gives the
same ones.  The bisection above, on the same B, splits every node that
holds two roots (two in the open node count at least 2, and a root at its
right end was found at an earlier midpoint), so each of its records is a
node at least as deep as those intervals.  A record is thus inside or
outside each node the halving visits, and the node (a, b] holds the roots
of the records whose right ends lie in (a, b]; an exact root (m, m) ends
at m.  Refining halves (lo, hi], which holds one simple root r, on the
signs of q alone: r lies in (lo, mid] exactly when q(mid) = 0, or
q(hi) != 0 and q(mid) has the sign of q(hi).

There is one half-line decision, `_halfline_witness`, on integer
coefficients: it returns nothing when the polynomial holds, else its
witness.  `nonneg_on_halfline` adds the margin p(w), and `orderings.compare`
calls it on its own integer polynomials.  Its sign probes stop at, and its
bisection covers, a positive-root bound B, a power of two: the least one at
or above Kioustelidis' bound 2 max (|c_(n-k)| / c_n)^(1/k) over the
negative c_(n-k) (J. Comput. Appl. Math. 16, 1986), or Cauchy's where that
is smaller.  For x >= B, each negative term has |c_(n-k)| x^(n-k) <=
c_n x^n 2^-k, so p(x) >= c_n x^n (1 - sum_k 2^-k) > 0; past Cauchy's bound
p has no root at all.  Probes past B are positive, so stopping there moves
no witness.

The witness depends only on the first negative gap between consecutive
roots, cap included.  The sign is constant on each gap, and the gaps below
the first root and past the last have the signs of the lowest and leading
coefficients, both positive by then, so only the inner gaps are sampled,
in increasing order.  Each is sampled at its simplest dyadic, the point of
largest 2-adic valuation between the facing ends of two records, less an
end that is an exact root (`_gap_sample`).  No point inside a dyadic
isolating interval is simpler than that interval's ends, so this is the
simplest dyadic of the whole open gap, whatever route found the roots.  A
negative sample is walked down the Stern-Brocot tree to the first negative
mediant, and two samples in one negative gap walk alike up to the first
mediant that separates them, which lies in the gap and so is negative: a
walk that ends before its 128-step cap gives the same witness from any
sample.  A walk that reaches the cap returns its sample, which the gap
fixes.

The segment decision maps [a, b] onto the half-line by one integer Horner pass.
"""

from __future__ import annotations

from bisect import bisect_right
from fractions import Fraction

from .polynomials import (
    Coeffs,
    Poly,
    _content_split,
    _int_horner,
    _int_mul,
    _int_primitive,
    _int_shift,
    _int_squarefree,
)
from .verdict import FAILS, HOLDS, Verdict


def _pow2_exponent(top: int, lc: int) -> int:
    """The least s >= 0 with lc * 2^s >= top, for lc > 0."""
    s = max(0, top.bit_length() - lc.bit_length())
    return s + 1 if lc << s < top else s


def _int_root_bound(cs: Coeffs) -> Fraction:
    """The least power of two at or above Cauchy's bound 1 + max|c_i| / |lc|."""
    lc = abs(cs[-1])
    return Fraction(1 << _pow2_exponent(lc + max((abs(c) for c in cs[:-1]), default=0), lc))


def _positive_root_bound(cs: Coeffs) -> int:
    """The power of two B past every positive root of cs, for cs[-1] > 0,
    that the module docstring describes: 2^e is at or above Kioustelidis'
    k-th term exactly when c_n 2^((e-1) k) >= |c_(n-k)|, in integers only."""
    lc = cs[-1]
    e = 1
    for k, c in enumerate(reversed(cs[:-1]), 1):
        if c < 0:
            e = max(e, 1 - (-_pow2_exponent(-c, lc) // k))
    return min(1 << e, _int_root_bound(cs).numerator)


def isolate_positive_roots(p: Poly, max_width=None) -> list[tuple[Fraction, Fraction]]:
    """Disjoint rational intervals, each containing exactly one root of p in
    (0, oo).

    Intervals are half-open (lo, hi] and sorted increasingly; pass max_width
    to refine each below a requested width, which must be positive.  The
    module docstring says which intervals these are and how they are
    counted from the Descartes records.
    """
    width = None if max_width is None else Fraction(max_width)
    if width is not None and width <= 0:
        raise ValueError("max_width must be positive")
    if p.is_zero:
        raise ValueError("cannot isolate roots of the zero polynomial")
    cs = _content_split(p)[1]
    cs = cs[next(i for i, c in enumerate(cs) if c):]  # x = 0 is excluded anyway
    if len(cs) <= 1:
        return []
    q = _int_squarefree(cs)
    bound = _int_root_bound(q)
    ends = [hi for _, hi in _descartes_roots(q, bound.numerator.bit_length() - 1)]
    intervals: list[tuple[Fraction, Fraction]] = []
    # (a, b, inside): the node (a, b] and the right ends of the records in it
    stack = [(Fraction(0), bound, ends)]
    while stack:
        a, b, inside = stack.pop()
        if len(inside) > 1:
            mid = (a + b) / 2
            i = bisect_right(inside, mid)
            stack += [(mid, b, inside[i:]), (a, mid, inside[:i])]
        elif inside:
            intervals.append((a, b))
    if width is None:
        return intervals
    refined = []
    for lo, hi in intervals:
        at_hi = _int_horner(q, hi.numerator, hi.denominator)
        while hi - lo > width:
            mid = (lo + hi) / 2
            at_mid = _int_horner(q, mid.numerator, mid.denominator)
            if not at_mid or (at_hi and (at_mid < 0) == (at_hi < 0)):
                hi, at_hi = mid, at_mid
            else:
                lo = mid
        refined.append((lo, hi))
    return refined


def _sign_changes(cs: Coeffs) -> int:
    signs = [c < 0 for c in cs if c]
    return sum(s != t for s, t in zip(signs, signs[1:]))


def _descartes_roots(q: Coeffs, e: int) -> list[tuple[Fraction, Fraction]]:
    """The distinct roots of the squarefree integer q in (0, 2^e), which
    must hold them all, sorted: (m, m) for a root m found exactly at a
    bisection midpoint, else an open interval (lo, hi) holding one root,
    whose ends are not roots."""
    found = []
    # A node (P, k, j, lo_root, hi_root) is the interval (k, k + 1) 2^(e-j):
    # P(x) is a positive multiple of q((k + x) 2^(e-j)), divided by x where
    # its left end is an exact root, and lo_root and hi_root say whether its
    # ends are exact roots.
    stack = [(tuple(c << (e * i) for i, c in enumerate(q)), 0, 0, False, False)]
    while stack:
        p, k, j, lo_root, hi_root = stack.pop()
        # P's own sign changes bound its roots on (0, oo): none, no shift.
        v = _sign_changes(p) and _sign_changes(_int_shift(p[::-1]))
        if v == 0:
            continue
        if v == 1 and not (lo_root or hi_root):
            found.append((Fraction(k << e, 1 << j), Fraction((k + 1) << e, 1 << j)))
            continue
        n = len(p) - 1
        left = tuple(c << (n - i) for i, c in enumerate(p))
        right = _int_shift(left)
        mid_root = not right[0]
        if mid_root:
            right = right[1:]
            m = Fraction((2 * k + 1) << e, 2 << j)
            found.append((m, m))
        stack.append((right, 2 * k + 1, j + 1, mid_root, hi_root))
        stack.append((left, 2 * k, j + 1, lo_root, mid_root))
    found.sort()
    return found


# -- decision procedures ----------------------------------------------------

def _gap_sample(left: tuple[Fraction, Fraction], right: tuple[Fraction, Fraction]) -> Fraction:
    """The point of largest 2-adic valuation in [hi_1, lo_2], less an end
    that is an exact root, for two consecutive records of `_descartes_roots`.
    On the grid 1/den, den twice the larger denominator, the ends are even,
    so a .. b stays nonempty; its point of most trailing zeros is b with the
    bits below the highest one where a - 1 and b differ cleared."""
    (lo1, hi1), (lo2, hi2) = left, right
    den = 2 * max(hi1.denominator, lo2.denominator)
    a = hi1.numerator * (den // hi1.denominator) + (lo1 == hi1)
    b = lo2.numerator * (den // lo2.denominator) - (lo2 == hi2)
    t = ((a - 1) ^ b).bit_length() - 1
    return Fraction(b >> t << t, den)


def _simplify_witness(cs: Coeffs, x: Fraction) -> Fraction:
    """The first mediant on the Stern-Brocot walk toward x that certifies a
    negative value, or x itself if 128 steps find none; keeps reported
    witnesses readable.  Mediants are integer pairs in lowest terms,
    compared by cross-multiplying; only the one returned becomes a Fraction.

    x must have cs(x) < 0, so the walk returns a witness even when it ends at
    its cap.  Every caller passes such a point: a power of two at or past
    Cauchy's bound when the lead is negative (no root lies there, so cs has
    the lead's sign), a negative probe or gap sample, and the first 1/2^k
    that `_witness_near_zero` finds negative."""
    num, den = x.numerator, x.denominator
    lo_n, lo_d = 0, 1
    hi_n, hi_d = 1, 0
    for _ in range(128):
        m_n, m_d = lo_n + hi_n, lo_d + hi_d
        if _int_horner(cs, m_n, m_d) < 0:
            return Fraction(m_n, m_d)
        if m_n * den < num * m_d:
            lo_n, lo_d = m_n, m_d
        else:
            hi_n, hi_d = m_n, m_d
    return x


def _witness_near_zero(cs: Coeffs) -> Fraction:
    den = 1
    while _int_horner(cs, 1, den) >= 0:
        den *= 2
    return _simplify_witness(cs, Fraction(1, den))


def _halfline_witness(cs) -> Fraction | None:
    """None when the integer polynomial cs is >= 0 on [0, oo), else the
    rational witness where it is negative.  Only the signs of its values are
    read, so any positive multiple of cs gives the same answer.

    Necessary sign checks at 0 and at infinity come first, then sign probes
    at 1/4, 1, 4, ... up to the bound B of `_positive_root_bound`, to catch
    failures early.  To certify a hold, the Descartes bisection finds the
    distinct positive roots of the squarefree part in (0, B), some exactly,
    and the sign is sampled strictly between each two consecutive ones, at
    the gap's simplest dyadic (`_gap_sample`).  Sign is constant between
    consecutive distinct roots, so the procedure is complete.  A negative
    sample becomes the witness by the Stern-Brocot walk; the module
    docstring says why that witness depends only on the gap, also where the
    walk reaches its cap.
    """
    while cs and not cs[-1]:
        cs = cs[:-1]
    if not cs:
        return None
    if cs[0] < 0:
        return Fraction(0)
    if cs[-1] < 0:  # cs has the sign of its leading coefficient past the root bound
        return _simplify_witness(cs, _int_root_bound(cs))
    if all(c >= 0 for c in cs):
        return None

    val = next(i for i, c in enumerate(cs) if c)
    r = cs[val:]
    if r[0] < 0:
        return _witness_near_zero(cs)

    bound = _positive_root_bound(r)
    num, den = 1, 4
    while num <= bound * den:
        if _int_horner(cs, num, den) < 0:
            return _simplify_witness(cs, Fraction(num, den))
        num, den = 4 * num // den, 1  # the probes are 1/4, 1, 4, 16, ...

    roots = _descartes_roots(_int_squarefree(_int_primitive(r)), bound.bit_length() - 1)
    for left, right in zip(roots, roots[1:]):
        s = _gap_sample(left, right)
        if _int_horner(cs, s.numerator, s.denominator) < 0:
            return _simplify_witness(cs, s)
    return None


def nonneg_on_halfline(p: Poly) -> Verdict:
    """Decide exactly whether p(x) >= 0 for all x >= 0.

    The decision is `_halfline_witness` on the primitive integer part of p;
    a failing verdict carries its witness w and the margin p(w).  The module
    docstring states the positive-root bound its search stops at and why
    that bound moves no witness.
    """
    if p.is_zero:
        return Verdict(HOLDS)
    w = _halfline_witness(_content_split(p)[1])
    if w is None:
        return Verdict(HOLDS)
    return Verdict(FAILS, witness=w, margin=p.evaluate(w))


def nonneg_on_segment(p: Poly, a, b) -> Verdict:
    """Decide exactly whether p >= 0 on the closed segment [a, b].

    x = (A + B t) / (L (1 + t)), with a = A/L and b = B/L, maps t in [0, oo)
    onto [a, b).  Over the primitive coefficients c_i of p, the half-line
    polynomial sum_i c_i (A + B t)^i (L (1 + t))^(n-i) is a positive multiple
    of (1 + t)^n p(x), built by one homogeneous Horner pass through `_int_mul`.
    """
    a, b = Fraction(a), Fraction(b)
    if b < a:
        raise ValueError("empty segment")
    at_b = p.evaluate(b)
    if at_b < 0:
        return Verdict(FAILS, witness=b, margin=at_b)
    if p.is_zero or a == b:
        return Verdict(HOLDS)
    den = a.denominator * b.denominator
    inner = (a.numerator * b.denominator, b.numerator * a.denominator)
    cs = _content_split(p)[1]
    seg, power = (cs[-1],), (1,)
    for c in reversed(cs[:-1]):
        power = _int_mul(power, (den, den))
        seg = tuple(x + c * y for x, y in zip(_int_mul(seg, inner), power))
    t = _halfline_witness(seg)
    if t is None:
        return Verdict(HOLDS)
    x = a + (b - a) * t / (1 + t)
    return Verdict(FAILS, witness=x, margin=p.evaluate(x))
