"""Sturm machinery: isolation and the half-line nonnegativity decision."""

from fractions import Fraction as F

import pytest

from hardcore_lab.polynomials import Poly, _int_exact_div
from hardcore_lab.roots import (
    _int_root_bound,
    count_roots,
    isolate_positive_roots,
    nonneg_on_halfline,
    nonneg_on_segment,
    sturm_chain,
)
from hardcore_lab.sampler import SplitMix64


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


def test_sign_change_across_odd_root():
    p = Poly([-6, 11, -6, 1])  # (x-1)(x-2)(x-3)
    chain = sturm_chain(p)
    for lo, hi in isolate_positive_roots(p, max_width=F(1, 8)):
        assert count_roots(chain, lo, hi) == 1
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
