"""Exact univariate polynomials and rational functions over the rationals.

Polynomials are dense coefficient lists, lowest degree first, with trailing
zeros trimmed; equality is therefore canonical-form equality.  Coefficients
are Python ints or Fractions, so all arithmetic is exact.

A `Poly` records at construction whether its coefficients are all `int`, as
those of partition functions and ordering certificates are; sums, negations
and products of integer polys then skip the type scan, and the value of one
at p/q is one integer Horner pass over q^deg (`_int_horner`, also in `roots`).

Every product goes through one integer kernel, `_int_mul` (rational polys
split off their contents first): schoolbook below 6 coefficients a side,
Kronecker substitution above (Schoenhage, EUROCAM 1982; Harvey, J. Symb.
Comput. 2009).  `_pack` evaluates both factors at 2^k, one big-integer
product gives a*b there, and `_unpack` reads back signed base-2^k digits,
exact while every coefficient lies in (-2^(k-1), 2^(k-1)).  A coefficient of
a*b is at most |a|_1 max|b_j|, so k is their two bit lengths plus one.  The
cutoff is measured on engine and orderings shapes: schoolbook is 1.4-1.7x
faster at 2 coefficients a side, they tie at 5, Kronecker leads 1.1-2x at 6-8.
The same packing gives the Taylor shift p(x + 1) that the Descartes
bisection in `roots` runs on (`_int_shift`): one Horner pass in x + 1 at
x = 2^k, then one `_unpack`.

The one variance numerator kernel, `var_numerator`, is here too: the
profile's V, `var_of_polynomial` and the VAR certificate all read it.

This module also holds the library's one exact gcd kernel.  A polynomial
splits into a positive rational content times a primitive integer part, and
gcds, exact quotients and squarefree parts are computed on the integer parts.
`RatFunc` reduction and the squarefree part in `roots` both run on
`_int_cofactors`, which returns the gcd h with the quotients f/h and g/h:
the Descartes bisection that decides half-line signs, and the Sturm chains
that only isolate roots, both start from that squarefree part.
It is the heuristic gcd GCDHEU (Char, Geddes and Gonnet, J. Symb. Comput.
1989; Geddes, Czapor and Labahn, "Algorithms for Computer Algebra", 1992,
sec. 7.7) at x = 2^k with 2^(k-1) >= 1 + min(|f|_inf, |g|_inf), on the same
packing as the products: gamma = gcd(f(2^k), g(2^k)) in integers.  Write
f = G F and g = G H with G the primitive gcd, lead positive, and F, H
coprime.  Every root of G is a root of f and of g, inside Cauchy's bound
1 + min(|f|_inf, |g|_inf) <= 2^(k-1), so each factor 2^k - alpha of G(2^k)
exceeds 2^(k-1) in size, and a nonconstant G has G(2^k) > 2^(k-1).

- Exactness: a candidate C, gamma's balanced base-2^k digits, whose
  primitive part h divides f and g is G.  h divides G, say G = h Q, and
  C = c h with c the content of C, so C(2^k) = gamma = G(2^k) e gives
  c = Q(2^k) e for an integer e >= 1.  A nonconstant Q would have
  |Q(2^k)| > 2^(k-1) >= |C|_inf >= |c|; so Q = 1.  gamma < 2^(k-1) gives
  the candidate 1 at once: gcd 1 is certified without a division.
- Termination: gamma = G(2^k) e with e = gcd(F(2^k), H(2^k)).  As F and H
  are coprime, A F + B H = Res(F, H) != 0 for integer polynomials A and B,
  so 1 <= e <= |Res(F, H)| at every k.  Once 2^(k-1) > |Res(F, H)| |G|_inf,
  the balanced digits of gamma are those of e G, whose primitive part G
  divides both sides.  That bound does not depend on k, and each failed
  candidate doubles k, so the loop ends.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .verdict import format_rational

Coeffs = tuple[int, ...]


def _norm_coeff(c):
    c = Fraction(c) if not isinstance(c, (int, Fraction)) else c
    if isinstance(c, Fraction) and c.denominator == 1:
        return c.numerator
    return c


_KRONECKER_CUTOFF = 6  # coefficients of the shorter factor


def _all_int(cs) -> bool:
    for c in cs:
        if type(c) is not int:
            return False
    return True


def _pack(cs, k: int) -> int:
    """The value at 2^k of the polynomial with integer coefficients cs."""
    acc = 0
    for c in reversed(cs):
        acc = (acc << k) + c
    return acc


def _unpack(value: int, k: int, n: int) -> Coeffs:
    """The n coefficients in (-2^(k-1), 2^(k-1)) of the polynomial with this
    value at 2^k; a digit of 2^(k-1) or more is negative and borrowed one."""
    mask = (1 << k) - 1
    half = 1 << (k - 1)
    out = []
    for _ in range(n):
        digit = value & mask
        value >>= k
        if digit >= half:
            digit -= 1 << k
            value += 1
        out.append(digit)
    return tuple(out)


def _int_shift(cs: Coeffs) -> Coeffs:
    """The coefficients of p(x + 1) for integer cs, by one Horner pass in
    x + 1 at x = 2^k: each is at most |p|_1 2^deg in size, so k is that
    bound's bit length plus one."""
    k = (sum(map(abs, cs)) << (len(cs) - 1)).bit_length() + 1
    acc = 0
    for c in reversed(cs):
        acc = (acc << k) + acc + c
    return _unpack(acc, k, len(cs))


def _int_mul(a: Coeffs, b: Coeffs) -> Coeffs:
    """The len(a) + len(b) - 1 coefficients of a*b, for nonempty a and b."""
    if len(a) > len(b):
        a, b = b, a
    if len(a) < _KRONECKER_CUTOFF:
        out = [0] * (len(a) + len(b) - 1)
        for i, c in enumerate(a):
            if c:
                for j, d in enumerate(b, i):
                    out[j] += c * d
        return tuple(out)
    k = sum(map(abs, a)).bit_length() + max(map(abs, b)).bit_length() + 1
    return _unpack(_pack(a, k) * _pack(b, k), k, len(a) + len(b) - 1)


def _int_var_numerator(cs: Coeffs) -> Coeffs:
    """The 2 len(cs) - 2 coefficients of N = (theta^2 p) p - (theta p)^2,
    theta = x d/dx, for integer cs: N_m = sum_{i+j=m} (i-j)^2 a_i a_j / 2, so
    |N|_1 <= S2 S0 - S1^2, S_r = sum_j j^r |a_j|, and N is one value at 2^k."""
    t1 = [j * c for j, c in enumerate(cs)]
    t2 = [j * c for j, c in enumerate(t1)]
    s1 = sum(map(abs, t1))
    k = (sum(map(abs, t2)) * sum(map(abs, cs)) - s1 * s1).bit_length() + 1
    t = _pack(t1, k)
    return _unpack(_pack(t2, k) * _pack(cs, k) - t * t, k, 2 * len(cs) - 2)


def _int_horner(cs: Coeffs, num: int, den: int) -> int:
    """den^deg * p(num/den) for integer coefficients cs, in integers only."""
    acc = 0
    dp = 1
    for c in reversed(cs):
        acc = acc * num + c * dp
        dp *= den
    return acc


class Poly:
    """Univariate polynomial with exact rational coefficients."""

    __slots__ = ("coeffs", "_int")

    def __init__(self, coeffs=()):
        cs = list(coeffs)
        is_int = _all_int(cs)
        if not is_int:
            cs = [_norm_coeff(c) for c in cs]
            is_int = _all_int(cs)
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)
        self._int = is_int

    # -- construction ----------------------------------------------------

    @classmethod
    def from_text(cls, text: str) -> "Poly":
        """Parse the comma-separated coefficient format, e.g. "1,9,30,44,24".

        Coefficients may be rationals "p/q"; a field that is not one raises ValueError.
        """
        coeffs = []
        for field in text.split(","):
            try:
                coeffs.append(Fraction(field))
            except ZeroDivisionError:
                raise ValueError(f"zero denominator in coefficient {field!r}") from None
        return cls(coeffs)

    # -- basic queries ----------------------------------------------------

    @property
    def degree(self) -> int:
        """Degree; the zero polynomial has degree -1."""
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def lc(self):
        """Leading coefficient (0 for the zero polynomial)."""
        return self.coeffs[-1] if self.coeffs else 0

    def coefficient(self, k: int):
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else 0

    def __eq__(self, other) -> bool:
        if isinstance(other, Poly):
            return self.coeffs == other.coeffs
        if isinstance(other, (int, Fraction)):
            return self == Poly([other])
        return NotImplemented

    def to_text(self) -> str:
        if not self.coeffs:
            return "0"
        return ",".join(format_rational(c) for c in self.coeffs)

    # -- arithmetic -------------------------------------------------------

    def __neg__(self) -> "Poly":
        cs = tuple(-c for c in self.coeffs)
        return _int_poly(cs) if self._int else Poly(cs)

    def __add__(self, other) -> "Poly":
        if not isinstance(other, Poly):
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            other = Poly([other])
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = out[i] + c
        return _int_poly(tuple(out)) if self._int and other._int else Poly(out)

    def __sub__(self, other) -> "Poly":
        return self + (-other) if isinstance(other, (Poly, int, Fraction)) else NotImplemented

    def __mul__(self, other) -> "Poly":
        if not isinstance(other, Poly):
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            return Poly([c * other for c in self.coeffs])
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return Poly()
        if self._int and other._int:
            return _int_poly(_int_mul(a, b))
        ca, ia = _content_split(self)
        cb, ib = _content_split(other)
        scale = ca * cb
        return Poly([c * scale for c in _int_mul(ia, ib)])

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "Poly":
        if k < 0:
            raise ValueError("negative polynomial power")
        result = Poly([1])
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    # -- calculus and evaluation -------------------------------------------

    def derivative(self) -> "Poly":
        return Poly([i * c for i, c in enumerate(self.coeffs)][1:])

    def evaluate(self, x):
        """Exact Horner evaluation at a rational point."""
        cs = self.coeffs
        if self._int and type(x) is Fraction and cs:
            return Fraction(_int_horner(cs, x.numerator, x.denominator),
                            x.denominator ** (len(cs) - 1))
        acc = 0
        for c in reversed(cs):
            acc = acc * x + c
        return acc


def _int_poly(cs: Coeffs) -> Poly:
    """The Poly of a tuple of ints, without the constructor's type scan."""
    while cs and not cs[-1]:
        cs = cs[:-1]
    p = object.__new__(Poly)
    p.coeffs, p._int = cs, True
    return p


# -- the primitive integer kernel ---------------------------------------------

def _content_split(p: Poly) -> tuple[Fraction, Coeffs]:
    """(c, q) with p = c * q, c a positive rational and q primitive integer
    coefficients; the zero polynomial gives (0, ()).  An integer p skips the
    denominators, and a primitive one is its own q."""
    den = 1 if p._int else lcm(*(c.denominator for c in p.coeffs))
    coeffs = p.coeffs if den == 1 else tuple(int(c * den) for c in p.coeffs)
    g = gcd(*coeffs)
    if g > 1:
        coeffs = tuple(c // g for c in coeffs)
    return Fraction(g, den), coeffs


def var_numerator(p: Poly) -> Poly:
    """(x^2 p'' + x p') p - x^2 p'^2, the numerator of V_p over p^2, on the
    primitive integer part: N(c P) = c^2 N(P)."""
    c, cs = _content_split(p)
    ns = _int_var_numerator(cs)
    return _int_poly(ns) if c == 1 else Poly([x * c * c for x in ns])


def _int_primitive(cs) -> Coeffs:
    g = gcd(*cs)
    if g in (0, 1):
        return tuple(cs)
    return tuple(c // g for c in cs)


def _pseudo_rem(f: Coeffs, g: Coeffs) -> tuple[list[int], int]:
    """Integer pseudo-remainder: (r, s) with r = lc(g)^s * (f mod g)."""
    work = list(f)
    lg = g[-1]
    steps = 0
    while work and len(work) >= len(g):
        top = work.pop()
        shift = len(work) - (len(g) - 1)
        for i in range(len(work)):
            work[i] *= lg
        for i in range(len(g) - 1):
            work[shift + i] -= top * g[i]
        steps += 1
        while work and work[-1] == 0:
            work.pop()
    return work, steps


def _int_cofactors(f: Coeffs, g: Coeffs) -> tuple[Coeffs, Coeffs, Coeffs]:
    """(h, f / h, g / h) for primitive f and g, both nonzero (`RatFunc`
    returns first on a zero numerator and refuses a zero denominator, and
    `_int_squarefree` gets only nonconstant input): h is their primitive gcd
    with a positive leading coefficient, by GCDHEU (the module docstring
    proves that its loop ends)."""
    k = (2 * min(max(map(abs, f)), max(map(abs, g))) + 1).bit_length()
    while True:
        gamma = gcd(_pack(f, k), _pack(g, k))
        if gamma < 1 << (k - 1):
            return (1,), f, g
        # gamma > 0, so its top balanced digit is positive.
        digits = list(_unpack(gamma, k, gamma.bit_length() // k + 2))
        while not digits[-1]:
            digits.pop()
        h = _int_primitive(digits)
        try:
            return h, _int_exact_div(f, h), _int_exact_div(g, h)
        except ArithmeticError:
            k *= 2


def _int_exact_div(f: Coeffs, g: Coeffs) -> Coeffs:
    """Quotient f / g when the division is exact over the rationals and the
    quotient is integral (both inputs primitive)."""
    work = list(f)
    out = [0] * (len(f) - len(g) + 1)
    for i in range(len(out) - 1, -1, -1):
        c = work[i + len(g) - 1]
        q, r = divmod(c, g[-1])
        if r:
            raise ArithmeticError("inexact integer polynomial division")
        out[i] = q
        if q:
            for j in range(len(g)):
                work[i + j] -= q * g[j]
    if any(work):
        raise ArithmeticError("inexact integer polynomial division")
    return tuple(out)


def _derivative(cs: Coeffs) -> Coeffs:
    return tuple(i * c for i, c in enumerate(cs) if i)


def _int_squarefree(cs: Coeffs) -> Coeffs:
    """cs / gcd(cs, cs') for nonconstant primitive cs (each `roots` caller
    returns first on a constant); the quotient is primitive (Gauss's lemma)
    and keeps the sign of the leading coefficient."""
    return _int_cofactors(cs, _int_primitive(_derivative(cs)))[1]


class RatFunc:
    """Ratio of two polynomials, stored gcd-reduced with a monic denominator.

    Reduction splits off the rational contents and divides the primitive
    integer parts by their integer gcd.  A RatFunc is a value: the lab
    compares E and V for identity and evaluates them, and does no arithmetic
    on them, so the canonical form makes equality a plain comparison.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: Poly, den: Poly = Poly([1])):
        if den.is_zero:
            raise ZeroDivisionError("rational function with zero denominator")
        if num.is_zero:
            num, den = Poly(), Poly([1])
        else:
            num_c, num_i = _content_split(num)
            den_c, den_i = _content_split(den)
            _, num_i, den_i = _int_cofactors(num_i, den_i)
            lc = den_i[-1]
            scale = num_c / (den_c * lc)
            num = Poly([c * scale for c in num_i])
            den = Poly([Fraction(c, lc) for c in den_i])
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    @property
    def is_zero(self) -> bool:
        return self.num.is_zero

    def __eq__(self, other) -> bool:
        if isinstance(other, RatFunc):
            return self.num == other.num and self.den == other.den
        return NotImplemented

    def __hash__(self):
        return hash((self.num.coeffs, self.den.coeffs))

    def evaluate(self, x) -> Fraction:
        dv = self.den.evaluate(x)
        if dv == 0:
            raise ZeroDivisionError(f"evaluation at a pole: {x}")
        return Fraction(self.num.evaluate(x), 1) / dv

