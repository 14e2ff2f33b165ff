"""Root isolation and the half-line nonnegativity decision.

Descartes bisection decides the half-line sign; the Sturm chain only
isolates.  The chain, and the decision as it ran on it
(`halfline_from_cauchy`), are the independent route each decision here is
checked against."""

import hashlib
import random
from fractions import Fraction as F

import pytest

from hardcore_lab.polynomials import (
    Poly,
    _content_split,
    _int_exact_div,
    _int_horner,
    _int_squarefree,
)
from hardcore_lab.roots import (
    _descartes_roots,
    _halfline_witness,
    _int_chain,
    _int_root_bound,
    _isolate,
    _positive_root_bound,
    _refine,
    _simplify_witness,
    _witness_near_zero,
    isolate_positive_roots,
    nonneg_on_halfline,
    nonneg_on_segment,
)
from hardcore_lab.sampler import SplitMix64
from hardcore_lab.verdict import FAILS, HOLDS, Verdict


def test_perfect_square_holds():
    assert nonneg_on_halfline(Poly([1, -2, 1])).holds


def test_nonnegative_coefficients_hold():
    assert nonneg_on_halfline(Poly([3, 32, 118, 176, 86])).holds


def test_zero_polynomial_holds():
    assert nonneg_on_halfline(Poly()).holds


def test_cubic_fails_with_witness():
    p = Poly([1, -3, 0, 1])
    v = nonneg_on_halfline(p)
    assert v.fails
    assert p.evaluate(v.witness) < 0
    assert v.margin == p.evaluate(v.witness)


def test_negative_at_zero():
    v = nonneg_on_halfline(Poly([-1, 5]))
    assert v.fails and v.witness == 0


def test_negative_leading_coefficient():
    p = Poly([100, -1, -1])
    v = nonneg_on_halfline(p)
    assert v.fails and p.evaluate(v.witness) < 0


def test_dip_near_zero_after_stripping():
    # x * (x - 1)^2 - tiny dip is absent; use x(2x - 1) which dips after 0
    p = Poly([0, -1, 2])
    v = nonneg_on_halfline(p)
    assert v.fails and 0 < v.witness < F(1, 2)


def test_isolate_sqrt2():
    iv = isolate_positive_roots(Poly([-2, 0, 1]), max_width=F(1, 10**6))
    assert len(iv) == 1
    lo, hi = iv[0]
    assert hi - lo <= F(1, 10**6)
    assert lo * lo < 2 <= hi * hi


def test_isolate_refuses_a_nonpositive_width():
    # Refinement halves until the width is at most max_width, which never
    # happens for max_width <= 0: the call is refused before any isolation.
    for width in (0, -1, F(-1, 2)):
        with pytest.raises(ValueError, match="max_width must be positive"):
            isolate_positive_roots(Poly([-2, 0, 1]), max_width=width)


def test_isolate_two_integer_roots():
    iv = isolate_positive_roots(Poly([2, -3, 1]))
    assert len(iv) == 2
    (a1, b1), (a2, b2) = iv
    assert a1 < 1 <= b1 and a2 < 2 <= b2 and b1 <= a2


def test_isolate_known_random_roots():
    rng = SplitMix64(99)
    for _ in range(50):
        roots = sorted({rng.randrange(50) + 1 for _ in range(rng.randrange(4) + 1)})
        p = Poly([1])
        for r in roots:
            p = p * Poly([-r, 1])
        iv = isolate_positive_roots(p, max_width=F(1, 4))
        assert len(iv) == len(roots)
        for (lo, hi), r in zip(iv, roots):
            assert lo < r <= hi


def _count_roots(chain, a, b):
    """Distinct real roots in (a, b] by Sturm's theorem, in Fraction arithmetic."""
    def variations(x):
        signs = [s for s in ((p.evaluate(x) > 0) - (p.evaluate(x) < 0) for p in chain) if s]
        return sum(s != t for s, t in zip(signs, signs[1:]))
    return variations(a) - variations(b)


def test_sign_change_across_odd_root():
    p = Poly([-6, 11, -6, 1])  # (x-1)(x-2)(x-3)
    chain = [Poly(cs) for cs in _int_chain(p.coeffs)]
    for lo, hi in isolate_positive_roots(p, max_width=F(1, 8)):
        assert _count_roots(chain, lo, hi) == 1
        assert p.evaluate(lo) * p.evaluate(hi) <= 0


def test_agrees_with_dense_sampling():
    # Reduced-scale version of the sampling cross-check: the verdict and a
    # 200-point scan on [0, 100] must never disagree.
    rng = SplitMix64(2024)
    checked_fails = 0
    for _ in range(400):
        p = Poly([rng.randrange(101) - 50 for _ in range(rng.randrange(9) + 1)])
        if p.is_zero:
            continue
        v = nonneg_on_halfline(p)
        if v.fails:
            checked_fails += 1
            assert p.evaluate(v.witness) < 0
        else:
            for i in range(201):
                assert p.evaluate(F(i, 2)) >= 0
    assert checked_fails > 100  # the scan exercises both branches


def test_touching_root_holds():
    # (x - 3)^2 (x^2 + 1): nonnegative with a touch at x = 3
    p = Poly([9, -6, 1]) * Poly([1, 0, 1])
    assert nonneg_on_halfline(p).holds


def test_segment_decision():
    # y^4 (1 - 2 y^2) is nonnegative exactly up to |y| = 1/sqrt(2)
    p = Poly([0, 0, 0, 0, 1, 0, -2])
    assert nonneg_on_segment(p, F(-1, 2), F(1, 2)).holds
    v = nonneg_on_segment(p, F(-1, 2), F(1))
    assert v.fails and p.evaluate(v.witness) < 0
    assert nonneg_on_segment(Poly([1]), 0, 0).holds


def _segment_by_fractions(p: Poly, a, b) -> Verdict:
    """The segment decision with the substitution built as Fraction Poly
    powers: (1 + t)^n p(a + (b - a) t / (1 + t)) = sum_i c_i (a + b t)^i
    (1 + t)^(n-i), decided on the half-line."""
    a, b = F(a), F(b)
    if b < a:
        raise ValueError("empty segment")
    if p.evaluate(b) < 0:
        return Verdict(FAILS, witness=b, margin=p.evaluate(b))
    if p.is_zero or a == b:
        return Verdict(HOLDS)
    seg = Poly()
    for i, c in enumerate(p.coeffs):
        seg = seg + Poly([a, b]) ** i * Poly([1, 1]) ** (p.degree - i) * c
    v = nonneg_on_halfline(seg)
    if v.fails:
        x = a + (b - a) * v.witness / (1 + v.witness)
        return Verdict(FAILS, witness=x, margin=p.evaluate(x))
    return v


def _segment_cases():
    rng = SplitMix64(2026)
    y = Poly([0, 1])
    series = (Poly([1]) - y) * (Poly([1]) + y + y**2 + y**3 + 2 * y**4 + 2 * y**5) - 1
    cases = [(series, F(-1, 2), F(1, 2)), (series, F(-1, 2), F(1)),
             (Poly([0, 0, 0, 0, 1, 0, -2]), F(-1, 2), F(1, 2)), (Poly([1]), 0, 0),
             (Poly(), F(-1), F(2)), (Poly([-1]), F(1, 3), F(1, 3)), (Poly([0, 1]), 0, 0)]

    def point():
        return F(rng.randrange(49) - 24, 1 + rng.randrange(8))

    for i in range(1300):
        degree = rng.randrange(8)
        if i % 3 == 2:  # rational coefficients
            p = Poly([F(rng.randrange(41) - 20, 1 + rng.randrange(9)) for _ in range(degree + 1)])
        else:
            p = Poly([rng.randrange(41) - 20 for _ in range(degree + 1)])
        if i % 4 == 1:  # a square plus a small shift: holds on many segments
            p = p * p + rng.randrange(5) - 2
        a, b = sorted((point(), point()))
        if i % 10 == 0:
            b = a
        cases.append((p, a, b))
    return cases


def test_segment_decision_matches_the_fraction_substitution():
    # The integer Horner pass against the Fraction Poly substitution: status,
    # witness and margin are all equal.
    seen = {"holds": 0, "fails": 0, "endpoint": 0, "point": 0, "rational": 0}
    for p, a, b in _segment_cases():
        got, want = nonneg_on_segment(p, a, b), _segment_by_fractions(p, a, b)
        assert got == want, (p, a, b)
        seen[got.status] += 1
        seen["endpoint"] += got.fails and got.witness == b
        seen["point"] += a == b
        seen["rational"] += not p._int
    assert min(seen.values()) > 100, seen
    with pytest.raises(ValueError, match="empty segment"):
        nonneg_on_segment(Poly([1, 1]), 1, F(1, 2))


def test_segment_decision_builds_no_fraction_poly(monkeypatch):
    made = []
    init = Poly.__init__

    def record(self, coeffs=()):
        init(self, coeffs)
        made.append(self)

    monkeypatch.setattr(Poly, "__init__", record)
    p = Poly([F(1, 3), F(-5, 2), 0, 7, F(-2, 9)])
    made.clear()
    for a, b in ((F(-2), F(3, 4)), (F(1, 7), F(5, 3)), (F(-1, 2), F(1, 2))):
        nonneg_on_segment(p, a, b)
    assert [q for q in made if not q._int] == []


def test_isolate_refuses_the_zero_polynomial():
    # Every point is a root of 0: there are no isolating intervals to return.
    for width in (None, F(1, 2)):
        with pytest.raises(ValueError, match="^cannot isolate roots of the zero polynomial$"):
            isolate_positive_roots(Poly(), max_width=width)


def test_witness_prefers_small_denominators():
    p = Poly([1, -3, 0, 1])  # negative on an interval around 1
    v = nonneg_on_halfline(p)
    assert v.witness.denominator <= 8


def test_inexact_integer_division_raises():
    assert _int_exact_div((-1, 0, 1), (1, 1)) == (-1, 1)
    with pytest.raises(ArithmeticError):
        _int_exact_div((1, 0, 1), (1, 2))
    with pytest.raises(ArithmeticError):
        _int_exact_div((1, 1, 2), (1, 2))


def _fraction_root_bound(cs):
    """The Cauchy bound rounded up to a power of two in Fraction arithmetic,
    as the root bound was computed before it moved to integers."""
    lc = abs(cs[-1])
    bound = 1 + F(max(abs(c) for c in cs[:-1]), lc) if len(cs) > 1 else F(1)
    b = F(1)
    while b < bound:
        b *= 2
    return b


def test_integer_root_bound_matches_the_fraction_definition():
    rng = SplitMix64(47)
    cases = [(1,), (-7,), (0, 1), (5, -1), (1, 0, 0, 3), (-8, 4), (4, -4), (9, 3)]
    for _ in range(500):
        scale = 10 ** rng.randrange(8)
        cs = [rng.randrange(2 * scale + 1) - scale for _ in range(rng.randrange(10))]
        cs.append((rng.randrange(scale) + 1) * (1 if rng.randrange(2) else -1))
        cases.append(tuple(cs))
    for cs in cases:
        got = _int_root_bound(cs)
        assert got == _fraction_root_bound(cs) and type(got) is F, cs


def _sign_at(cs, x):
    value = Poly(cs).evaluate(x)
    return (value > 0) - (value < 0)


def _fraction_walk(cs, x):
    """The Stern-Brocot witness walk in Fraction arithmetic, as it ran before
    it moved to integer pairs, from a candidate x with cs(x) < 0."""
    lo_n, lo_d = 0, 1
    hi_n, hi_d = 1, 0
    for _ in range(128):
        m_n, m_d = lo_n + hi_n, lo_d + hi_d
        m = F(m_n, m_d)
        if _sign_at(cs, m) < 0:
            return m
        if m < x:
            lo_n, lo_d = m_n, m_d
        else:
            hi_n, hi_d = m_n, m_d
    return x


def test_integer_witness_walk_matches_the_fraction_walk():
    rng = SplitMix64(123)
    checked = 0
    for _ in range(300):
        cs = tuple(rng.randrange(81) - 40 for _ in range(2 + rng.randrange(8)))
        if not any(cs):
            continue
        for x in (F(1 + rng.randrange(200), 1 + rng.randrange(50)), F(1, 2 ** rng.randrange(40)),
                  F(rng.randrange(2 ** 20), 2 ** 17)):
            if _sign_at(cs, x) < 0:
                got = _simplify_witness(cs, x)
                assert got == _fraction_walk(cs, x) and type(got) is F
                checked += 1
    # (x - 10^-6)^2 - 10^-30 dips below zero only in a window no mediant
    # within 128 steps reaches: the walk gives the candidate back
    narrow = Poly([10 ** 24 - 1, -2 * 10 ** 30, 10 ** 36]).coeffs
    x = F(1, 10 ** 6)
    assert _simplify_witness(narrow, x) == _fraction_walk(narrow, x) == x
    assert checked > 200


def test_isolation_digest_is_pinned():
    # sha256 over the isolating intervals, plain and refined to width 1/1000,
    # of 160 seeded polynomials with planted positive rational roots, some
    # of them double.  Recorded before the chain variations were memoized.
    rng = random.Random(1013)
    h = hashlib.sha256()
    for _ in range(160):
        p = Poly([rng.randint(-20, 20) for _ in range(1 + rng.randrange(7))])
        if p.is_zero:
            p = Poly([1])
        for _ in range(rng.randrange(5)):
            num, den = 1 + rng.randrange(40), 1 + rng.randrange(12)
            p = p * Poly([-num, den]) ** (1 + rng.randrange(2))
        for width in (None, F(1, 1000)):
            intervals = isolate_positive_roots(p, width)
            h.update(repr([(str(lo), str(hi)) for lo, hi in intervals]).encode())
    assert h.hexdigest() == "c05eda0fa75c1b2e8e48025b919f5a844c6aa9f24131abaeed2a7a06638846ee"


def halfline_from_cauchy(p: Poly) -> Verdict:
    """The half-line decision as it ran before its search started at the
    positive-root bound: sign probes up to twice Cauchy's bound of the
    polynomial stripped of its zero root, and isolation from Cauchy's bound
    of its squarefree part.  The reference for `nonneg_on_halfline` and the
    pointwise orderings."""
    if p.is_zero:
        return Verdict(HOLDS)
    cs = _content_split(p)[1]

    def fail_at(w):
        return Verdict(FAILS, witness=w, margin=p.evaluate(w))

    if cs[0] < 0:
        return fail_at(F(0))
    if cs[-1] < 0:
        return fail_at(_simplify_witness(cs, _int_root_bound(cs)))
    if all(c >= 0 for c in cs):
        return Verdict(HOLDS)
    r = cs[next(i for i, c in enumerate(cs) if c):]
    if r[0] < 0:
        return fail_at(_witness_near_zero(cs))
    limit = 2 * _int_root_bound(r).numerator
    num, den = 1, 4
    while num <= limit * den:
        if _int_horner(cs, num, den) < 0:
            return fail_at(_simplify_witness(cs, F(num, den)))
        num, den = 4 * num // den, 1
    chain = _int_chain(r)
    seen: dict = {}
    intervals = _isolate(chain, _int_root_bound(chain[0]), seen)
    for i in range(len(intervals) - 1):
        (lo1, hi1), (lo2, hi2) = intervals[i], intervals[i + 1]
        while hi1 >= lo2:
            lo1, hi1 = _refine(chain, lo1, hi1, (hi1 - lo1) / 2, seen)
            lo2, hi2 = _refine(chain, lo2, hi2, (hi2 - lo2) / 2, seen)
        intervals[i], intervals[i + 1] = (lo1, hi1), (lo2, hi2)
    samples = [(hi1 + lo2) / 2 for (_, hi1), (lo2, _) in zip(intervals, intervals[1:])]
    if intervals:
        samples.append(intervals[-1][1] + 1)
    for x in samples:
        if p.evaluate(x) < 0:
            return fail_at(_simplify_witness(cs, x))
    return Verdict(HOLDS)


def typed(v: Verdict):
    """A verdict's status, witness and margin, each with its type."""
    return [(x, type(x)) for x in (v.status, v.witness, v.margin)]


def _planted(roots, extra=Poly([1])) -> Poly:
    p = extra
    for r in roots:
        r = F(r)
        p = p * Poly([-r.numerator, r.denominator])
    return p


def _root_bound_cases():
    rng = SplitMix64(31)
    cases = [_planted([1]), _planted([2]), _planted([2 ** 20]), _planted([10 ** 6]),
             _planted([F(1, 3), 2 ** 7]), _planted([10 ** 6, 10 ** 6 + 1]),
             _planted([F(1, 1000)], Poly([1000, 0, 1])), _planted([4, 4, 4]),
             _planted([2 ** 10], Poly([1, -1, 1]))]
    for _ in range(300):
        roots = [F(1 + rng.randrange(10 ** (1 + rng.randrange(6))), 1 + rng.randrange(50))
                 for _ in range(1 + rng.randrange(4))]
        extra = Poly([1 + rng.randrange(20), rng.randrange(41) - 20, 1 + rng.randrange(20)])
        cases.append(_planted(roots, extra * (1 + rng.randrange(9))))
    return cases


def test_positive_root_bound_is_a_power_of_two_past_every_root():
    # On polynomials with planted positive roots, some at a power of two and
    # one at 10^6: the bound is a power of two, at least every isolated root
    # and at most Cauchy's; isolation from it finds every root, and from half
    # of it some case loses one.
    missed = 0
    for p in _root_bound_cases():
        cs = _content_split(p)[1]
        bound = _positive_root_bound(cs)
        assert bound & (bound - 1) == 0 and 1 <= bound <= _int_root_bound(cs), p
        roots = isolate_positive_roots(p, F(1, 1000))
        assert all(lo < bound for lo, _ in roots), p
        chain = _int_chain(cs)
        assert len(_isolate(chain, F(bound), {})) == len(roots), p
        missed += len(_isolate(chain, F(bound, 2), {})) < len(roots)
    assert missed > 10


def _bisection_cases():
    """Roots where the bisection of (0, B) lands exactly: at B/2, B/4 and
    3B/4, at 1/2, 1 and 2, two adjacent dyadic roots, double dyadic roots,
    and an exact dyadic root with an irrational one in the next cell, whose
    interval touches it until the bisection parts them."""
    cases = [_planted(roots) for roots in ([1, 2], [2, 4], [4, 6], [F(1, 2), 1], [2, 6],
                                           [F(1, 2), 2], [F(3, 2), 2], [F(3, 4), 1])]
    cases += [_planted(roots, Poly([1, -1, 1]))
              for roots in ([1, 1, 2, 2], [2, 2, 4, 4], [F(1, 2)] * 2)]
    cases += [_planted([r], Poly([-n, 0, 1])) for r, n in ((2, 5), (1, 2), (2, 3), (4, 17),
                                                            (F(1, 2), 3), (3, 10))]
    cases += [_planted([r], Poly([n, 0, -1]) * -1) for r, n in ((2, 5), (F(3, 2), 2))]
    cases.append(_planted([2, 2], Poly([-5, 0, 1]) * Poly([-6, 0, 1])))
    # B = 2: a root in (1, 5/4) makes the bisection split (1, 2) at 3/2 = 3B/4
    cases.append(_planted([F(3, 2)], Poly([-2, -5, -1, 2, 4])))
    return cases


def _root_counts(p: Poly):
    """The distinct positive roots of p that the Descartes bisection finds in
    (0, B) and that the Sturm chain isolates there; None for a constant or
    a negative lead, which the bisection never sees."""
    cs = _content_split(p)[1]
    r = cs[next(i for i, c in enumerate(cs) if c):] if cs else ()
    if len(r) < 2 or r[-1] < 0:
        return None
    bound = _positive_root_bound(r)
    found = _descartes_roots(_int_squarefree(r), bound.bit_length() - 1)
    return found, bound, len(_isolate(_int_chain(r), F(bound), {}))


def test_halfline_matches_the_cauchy_start():
    # The positive-root bound moves where the probes stop and isolation
    # starts, not the verdict, the witness or the margin, and neither does
    # deciding by Descartes bisection in place of the chain: every sample in
    # one negative gap walks to the same witness.  Narrow negative gaps, as
    # in the narrow case above (whose walk ends at its cap), planted double
    # roots and exact dyadic roots included.  The bisection finds as many
    # distinct positive roots as the chain isolates.
    rng = SplitMix64(77)
    cases = [Poly([10 ** 24 - 1, -2 * 10 ** 30, 10 ** 36]), Poly([1, -3, 0, 1])]
    for e in range(1, 9):
        # (x - r)^2 - 10^(-2e), negative on (r - 10^-e, r + 10^-e), r = 10^e
        cases.append(Poly([10 ** (4 * e) - 1, -2 * 10 ** (3 * e), 10 ** (2 * e)]) * Poly([1, 1]))
        cases.append(_planted([F(1, 10 ** e), F(1, 10 ** e) + F(1, 10 ** (2 * e))]))
    cases += _root_bound_cases()
    cases += _bisection_cases()
    for _ in range(400):
        cases.append(Poly([rng.randrange(101) - 50 for _ in range(rng.randrange(10) + 1)]))
        roots = [F(1 + rng.randrange(100), 1 + rng.randrange(9)) for _ in range(rng.randrange(4))]
        cases.append(_planted(roots + roots[:1], Poly([1 + rng.randrange(30), -rng.randrange(30),
                                                       1 + rng.randrange(30)])))
    fails = 0
    exact: set = set()
    for p in cases:
        got, want = nonneg_on_halfline(p), halfline_from_cauchy(p)
        assert typed(got) == typed(want), p
        if got.fails:
            fails += 1
            assert got.witness == _halfline_witness(_content_split(p)[1])
        counts = _root_counts(p)
        if counts is not None:
            found, bound, isolated = counts
            assert len(found) == isolated, p
            exact |= {(lo, lo / bound) for lo, hi in found if lo == hi}
    assert fails > 300
    at = {x for x, _ in exact}
    assert {F(1, 2), F(1), F(2)} <= at and {F(1, 4), F(1, 2), F(3, 4)} <= {y for _, y in exact}
