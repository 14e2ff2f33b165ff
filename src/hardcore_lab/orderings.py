"""Decision procedures for the seven comparison orderings between generating
polynomials with nonnegative coefficients and constant term one, plus the
implication-web harness.

The pointwise kinds PART, OCC and VAR each build one integer polynomial from
the padded pair and hand it to the one half-line decision,
`roots._halfline_witness`: PART p - q; OCC p' q - q' p, one packed product
at 2^k; VAR the certificate N_p q^2 - N_q p^2, which reads both variance
numerators from the one kernel in `polynomials` and is one packed product
too.  A rational pair is first scaled by one common denominator L, which
changes no sign and so no witness.  A failing margin, PART/L, x c/(p q) or
c/(p q)^2 at the witness x, is one Fraction of integer Horner values."""

from __future__ import annotations

import enum
from fractions import Fraction
from math import lcm

from .polynomials import (
    Coeffs,
    Poly,
    _content_split,
    _int_horner,
    _int_poly,
    _int_var_numerator,
    _pack,
    _unpack,
)
from .roots import _halfline_witness
from .verdict import FAILS, HOLDS, Verdict


class OrderingKind(enum.Enum):
    COUNT = "COUNT"
    PART = "PART"
    COEF = "COEF"
    OCC = "OCC"
    MAX = "MAX"
    FV = "FV"
    VAR = "VAR"


# Implications provable from the definitions for generating polynomials with
# positive support up to their degree (constant term one).
IMPLICATIONS: tuple[tuple[OrderingKind, OrderingKind], ...] = (
    (OrderingKind.VAR, OrderingKind.OCC),
    (OrderingKind.FV, OrderingKind.OCC),
    (OrderingKind.FV, OrderingKind.COEF),
    (OrderingKind.COEF, OrderingKind.PART),
    (OrderingKind.OCC, OrderingKind.PART),
    (OrderingKind.PART, OrderingKind.COUNT),
    (OrderingKind.PART, OrderingKind.MAX),
)


def _padded(p: Poly, q: Poly) -> tuple[list, list, int]:
    if p.coefficient(0) != 1 or q.coefficient(0) != 1:
        raise ValueError("orderings require constant term 1 on both sides")
    if min(p.coeffs) < 0 or min(q.coeffs) < 0:
        raise ValueError("orderings require nonnegative coefficients")
    n = max(p.degree, q.degree)
    return ([*p.coeffs] + [0] * (n - p.degree), [*q.coeffs] + [0] * (n - q.degree), n)


def compare(kind: OrderingKind | str, p: Poly, q: Poly, *, padded=None) -> Verdict:
    """Decide whether p dominates q in the given ordering, exactly.

    Coefficient-indexed kinds fail with the offending index as witness; the
    pointwise kinds fail with an exact rational point where the defining
    inequality is violated, found by `_halfline_witness` (see the module
    docstring).  `compare_all` validates and pads the pair once
    and hands the result over as `padded`.
    """
    kind = OrderingKind(kind) if not isinstance(kind, OrderingKind) else kind
    a, b, n = padded if padded is not None else _padded(p, q)

    if kind is OrderingKind.COUNT:
        pa, qa = sum(a), sum(b)
        if pa >= qa:
            return Verdict(HOLDS, margin=pa - qa)
        return Verdict(FAILS, witness=Fraction(1), margin=pa - qa)

    if kind is OrderingKind.MAX:
        if a[n] >= b[n]:
            return Verdict(HOLDS, margin=a[n] - b[n])
        return Verdict(FAILS, witness=n, margin=a[n] - b[n])

    if kind is OrderingKind.COEF:
        for k in range(1, n + 1):
            if a[k] < b[k]:
                return Verdict(FAILS, witness=k, margin=a[k] - b[k])
        return Verdict(HOLDS)

    if kind is OrderingKind.FV:
        for k in range(n):
            if b[k] * a[k + 1] < a[k] * b[k + 1]:
                return Verdict(FAILS, witness=k, margin=b[k] * a[k + 1] - a[k] * b[k + 1])
        return Verdict(HOLDS)

    if kind is OrderingKind.PART or kind is OrderingKind.OCC or kind is OrderingKind.VAR:
        # One common denominator L makes the pair integral and changes no sign.
        den = 1
        if not (p._int and q._int):
            den = lcm(*(c.denominator for c in a), *(c.denominator for c in b))
            a = [c.numerator * (den // c.denominator) for c in a]
            b = [c.numerator * (den // c.denominator) for c in b]
        if kind is OrderingKind.PART:
            cs = [x - y for x, y in zip(a, b)]
        elif kind is OrderingKind.OCC:
            cs = _int_occ_numerator(a, b)
        else:
            cs = _int_var_certificate(a, b)
        w = _halfline_witness(cs)
        if w is None:
            return Verdict(HOLDS)
        # Horner values carry w's denominator d to the power len - 1: cs
        # gives d^(len(cs) - 1) cs(w), and p q gives d^(2n) L^2 p(w) q(w).
        num, d = w.numerator, w.denominator
        value = _int_horner(cs, num, d)
        if kind is OrderingKind.PART:
            return Verdict(FAILS, witness=w, margin=Fraction(value, den * d ** n))
        pq = _int_horner(a, num, d) * _int_horner(b, num, d)
        margin = Fraction(num * value, pq) if kind is OrderingKind.OCC else Fraction(value * d, pq * pq)
        return Verdict(FAILS, witness=w, margin=margin)


def compare_all(p: Poly, q: Poly) -> dict[OrderingKind, Verdict]:
    padded = _padded(p, q)
    return {kind: compare(kind, p, q, padded=padded) for kind in OrderingKind}


def _int_occ_numerator(a, b) -> Coeffs:
    """The len(a) + len(b) - 2 coefficients of a' b - b' a for integer a and
    b: x a'/a >= x b'/b on x >= 0 reduces to it being >= 0 there, both sides
    being positive.  Each coefficient is at most |a'|_1 |b|_1 + |b'|_1 |a|_1
    in size, so one value at 2^k past that gives it."""
    da = [i * c for i, c in enumerate(a)][1:]
    db = [i * c for i, c in enumerate(b)][1:]
    k = (sum(map(abs, da)) * sum(map(abs, b)) + sum(map(abs, db)) * sum(map(abs, a))).bit_length() + 1
    return _unpack(_pack(da, k) * _pack(b, k) - _pack(db, k) * _pack(a, k), k, len(a) + len(b) - 2)


def _int_var_certificate(a, b) -> Coeffs:
    """The 2 (len(a) + len(b)) - 4 coefficients of N_a b^2 - N_b a^2 for
    integer a and b.  Each is at most |N_a|_1 |b|_1^2 + |N_b|_1 |a|_1^2 in
    size, so one value at 2^k past that gives it."""
    na, nb = _int_var_numerator(a), _int_var_numerator(b)
    a_l1, b_l1 = sum(map(abs, a)), sum(map(abs, b))
    k = (sum(map(abs, na)) * b_l1 * b_l1 + sum(map(abs, nb)) * a_l1 * a_l1).bit_length() + 1
    pa, pb = _pack(a, k), _pack(b, k)
    return _unpack(_pack(na, k) * pb * pb - _pack(nb, k) * pa * pa, k, 2 * (len(a) + len(b)) - 4)


def var_difference_certificate(p: Poly, q: Poly) -> Poly:
    """The exact polynomial p^2 q^2 (V_p - V_q) = N_p q^2 - N_q p^2, with N_p
    = var_numerator(p); nonnegative on the half-line iff p dominates q in the
    variance ordering.  Contents are split off first, cert(c P, d Q) =
    (c d)^2 cert(P, Q)."""
    c, a = _content_split(p)
    d, b = _content_split(q)
    cs = _int_var_certificate(a, b)
    scale = 1 if c == d == 1 else (c * d) ** 2
    return _int_poly(cs) if scale == 1 else Poly([x * scale for x in cs])


def implication_web_check(p: Poly, q: Poly) -> dict:
    """Evaluate all seven orderings and flag any violated implication.

    A violation would be a counterexample to this implementation, not to the
    implication web itself, which is provable for this polynomial class.
    """
    verdicts = compare_all(p, q)
    violations = [
        (src.value, dst.value)
        for src, dst in IMPLICATIONS
        if verdicts[src].holds and not verdicts[dst].holds
    ]
    return {
        "verdicts": {kind.value: v for kind, v in verdicts.items()},
        "violations": violations,
    }


def random_generating_pair(rng, max_degree: int = 8, max_coeff: int = 50) -> tuple[Poly, Poly]:
    """A random pair of generating polynomials: constant term one and strictly
    positive coefficients up to an independently chosen degree each, the shape
    partition functions take."""
    def draw() -> Poly:
        degree = 1 + rng.randrange(max_degree)
        return Poly([1] + [1 + rng.randrange(max_coeff) for _ in range(degree)])

    return draw(), draw()
