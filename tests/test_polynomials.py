"""Exact polynomial and rational-function arithmetic."""

import random
import re
from fractions import Fraction as F
from math import comb

import pytest

from hardcore_lab import corpus, orderings, polynomials
from hardcore_lab.graphs import generate
from hardcore_lab.hardcore import HardCoreProfile
from hardcore_lab.polynomials import (
    _KRONECKER_CUTOFF,
    Poly,
    RatFunc,
    _content_split,
    _int_cofactors,
    _int_mul,
    _int_primitive,
    _int_shift,
    _int_squarefree,
    _int_var_certificate,
    _int_var_numerator,
    _pack,
    var_numerator,
)
from hardcore_lab.sampler import SplitMix64

X = Poly([0, 1])


def test_canonical_form_trims_trailing_zeros():
    assert Poly([0, 1, 0, 0]) == Poly([0, 1])
    assert Poly([]).is_zero and Poly([0, 0]).is_zero
    assert Poly([F(4, 2)]).coeffs == (2,)  # integral fractions normalize to int
    assert type(Poly([F(4, 2), 1]).coeffs[0]) is int
    mixed = Poly([1, F(1, 2), F(6, 3), 0]).coeffs
    assert mixed == (1, F(1, 2), 2) and [type(c) for c in mixed] == [int, F, int]
    assert Poly(iter([1, 2, 0])).coeffs == (1, 2)


def test_derivative():
    assert Poly([1, 3, 1]).derivative() == Poly([3, 2])
    assert Poly([5]).derivative().is_zero


def test_cube_of_quadratic_expands():
    assert (Poly([1, 3, 1]) ** 3).coeffs == (1, 9, 30, 45, 30, 9, 1)


def test_cube_times_linear_expands():
    assert (Poly([1, 2]) ** 3 * Poly([1, 3])).coeffs == (1, 9, 30, 44, 24)


def test_text_round_trip():
    p = Poly.from_text("1,9,30,44,24")
    assert p.coeffs == (1, 9, 30, 44, 24)
    assert p.to_text() == "1,9,30,44,24"
    q = Poly.from_text("1/2, -3, 5/7")
    assert q.coeffs == (F(1, 2), -3, F(5, 7))
    assert Poly().to_text() == "0" and Poly.from_text("0").is_zero


@pytest.mark.parametrize("text", ["1,,2", ",1,2", "1,2,", "1, ,2", "", ","])
def test_text_with_an_empty_field_is_refused(text):
    with pytest.raises(ValueError, match="Invalid literal for Fraction"):
        Poly.from_text(text)


@pytest.mark.parametrize("text, field", [("1,1/0", "'1/0'"), ("1,-1/0", "'-1/0'")])
def test_text_with_a_zero_denominator_names_the_field(text, field):
    with pytest.raises(ValueError, match=f"^zero denominator in coefficient {field}$"):
        Poly.from_text(text)


def test_evaluation_is_a_homomorphism():
    rng = SplitMix64(7)
    for _ in range(200):
        a = Poly([rng.randrange(21) - 10 for _ in range(6)])
        b = Poly([rng.randrange(21) - 10 for _ in range(6)])
        x = F(rng.randrange(40) - 20, rng.randrange(9) + 1)
        assert (a * b).evaluate(x) == a.evaluate(x) * b.evaluate(x)
        assert (a + b).evaluate(x) == a.evaluate(x) + b.evaluate(x)


def _primitive(p: Poly):
    return _content_split(p)[1]


def _pseudo_rem(f, g):
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


def _prs_gcd(f, g):
    """Primitive gcd with a positive leading coefficient (() if both are
    zero), by the primitive pseudo-remainder sequence (Brown, "On Euclid's
    algorithm and the computation of polynomial greatest common divisors",
    J. ACM 1971): the reference the heuristic gcd is tested against."""
    f, g = _int_primitive(f), _int_primitive(g)
    while g:
        f, g = g, _int_primitive(_pseudo_rem(f, g)[0])
    return tuple(-c for c in f) if f and f[-1] < 0 else f


def _prs_cofactors(f, g):
    """(h, f / h, g / h) for the PRS gcd h, divided over the rationals."""
    h = _prs_gcd(f, g)
    out = [h]
    for side in (f, g):
        quo, rem = _divmod(Poly(side), Poly(h))
        assert rem.is_zero
        out.append(quo.coeffs)
    return tuple(out)


def test_gcd_is_monic_and_idempotent():
    # The primitive gcd has a positive leading coefficient, so a gcd that is
    # monic over the rationals comes out monic, by both routes.
    a = Poly([1, 2, 1]) * Poly([3, 1])
    b = Poly([1, 1]) * Poly([5, 7])
    for f, g in ((_primitive(a), _primitive(b)), ((1, 1), (1, 1)), ((-1, -1), (1, 1))):
        assert _int_cofactors(f, g) == _prs_cofactors(f, g)
        assert _int_cofactors(f, g)[0] == (1, 1)
    assert _prs_gcd((-2, -2), (3, 3)) == (1, 1)
    assert _prs_gcd((), ()) == ()


def _planted_pair(rng, bits: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """f = x^i c a and g = x^j c b for random c, a and b with coefficients
    below 2^bits in size, each side's sign flipped at random."""
    def poly(degree):
        cs = [rng.randint(-(1 << bits), 1 << bits) for _ in range(degree)]
        return Poly(cs + [rng.choice((-1, 1)) * rng.randint(1, 1 << bits)])
    common = poly(rng.randrange(5))
    f = X ** rng.randrange(3) * common * poly(rng.randrange(7)) * rng.choice((-1, 1))
    g = X ** rng.randrange(3) * common * poly(rng.randrange(7)) * rng.choice((-1, 1))
    return f.coeffs, g.coeffs


def _gcd_cases(monkeypatch) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Seeded nonzero integer pairs for the gcd kernel: planted common
    factors and powers of x, constants, coefficients near C(64, 32), the
    engine's marginal and variance pairs, and the (p, p') pairs of the
    squarefree step that the orderings' half-line decisions take before
    their Descartes bisection."""
    rng = random.Random(2626)
    cases = [_planted_pair(rng, bits) for bits in (1, 3, 8, 30) for _ in range(40)]
    cases += [((5,), (1, 2, 1)), ((-3,), (-6,)), ((0, 0, 1), (0, 1)), ((0, 2), (0, 0, -4)),
              ((-1, -1), (1, 1))]
    top = comb(64, 32)
    for _ in range(20):
        f = Poly([top - rng.randrange(1 << 20) for _ in range(2 + rng.randrange(8))])
        g = Poly([top - rng.randrange(1 << 20) for _ in range(2 + rng.randrange(8))])
        cases += [(f.coeffs, g.coeffs), ((f * (X + 1)).coeffs, (g * (X + 1) ** 2).coeffs)]
    graph_rng = SplitMix64(2627)
    graphs = [generate(name) for name in ("petersen + empty:1", "path:24", "cycle:24",
                                          "2*petersen + kab:3,3", "kab:2,5 + path:3")]
    graphs += [corpus.random_graph(18, graph_rng, 1, 5) for _ in range(3)]
    for g in graphs:
        prof = HardCoreProfile(g)
        z = prof.z
        cases += [((0,) + rest, z.coeffs) for rest in {r.coeffs for r in prof.residuals}]
        cases.append((prof.variance_numerator.coeffs, (z * z).coeffs))
    seen = []
    with monkeypatch.context() as m:
        m.setattr(polynomials, "_int_cofactors",
                  lambda f, g, kernel=_int_cofactors: seen.append((f, g)) or kernel(f, g))
        pair_rng = SplitMix64(2628)
        for _ in range(480):
            orderings.implication_web_check(*orderings.random_generating_pair(pair_rng))
    assert len(seen) >= 80
    cases += seen
    for _ in range(40):
        p = _planted_pair(rng, 4)[0]
        p = (Poly(p) * Poly(p[-2:])).coeffs  # a repeated factor
        cases.append((p, Poly(p).derivative().coeffs))
    return cases


def test_gcd_heuristic_matches_the_prs_route(monkeypatch):
    cases = [(_int_primitive(f), _int_primitive(g)) for f, g in _gcd_cases(monkeypatch)]
    heuristic = [_int_cofactors(f, g) for f, g in cases]
    assert heuristic == [_prs_cofactors(f, g) for f, g in cases]
    assert sum(len(h) > 1 for h, _, _ in heuristic) >= 150


def _evaluation_points(monkeypatch, f, g):
    """_int_cofactors(f, g) and the k of each point 2^k it evaluated at."""
    ks = []
    with monkeypatch.context() as m:
        m.setattr(polynomials, "_pack", lambda cs, k, pack=_pack: ks.append(k) or pack(cs, k))
        got = _int_cofactors(f, g)
    assert ks[::2] == ks[1::2]  # f and g at each point
    return got, ks[::2]


def test_heuristic_gcd_doubles_k_until_a_candidate_divides(monkeypatch):
    # p = 35 + 12x - 24x^2 + 28x^3 and p'/12 = 1 - 4x + 7x^2 are coprime, but
    # at the first point, 2^4, their values share 13 >= 2^3: the candidate
    # x - 3 divides neither, and the second point, 2^8, certifies gcd 1.
    f, g = (35, 12, -24, 28), (1, -4, 7)
    assert (2 * 7 + 1).bit_length() == 4 and _pack(g, 4) % 13 == _pack(f, 4) % 13 == 0
    assert _evaluation_points(monkeypatch, f, g) == (((1,), f, g), [4, 8])
    # x^3 - 1 and 9x^4 + 7x^3 - 4x^2 - 5x + 8 are coprime, and none of the
    # candidates at 2^2, 2^4 and 2^8 (x - 1, x^2 + 4x - 5, x - 61) divides
    # both: at 2^16 the values share 315 < 2^15, which certifies gcd 1.
    f, g = (-1, 0, 0, 1), (8, -5, -4, 7, 9)
    assert _evaluation_points(monkeypatch, f, g) == (((1,), f, g), [2, 4, 8, 16])
    r = RatFunc(Poly(f), Poly(g))
    assert (r.num.to_text(), r.den.to_text()) == ("-1/9,0,0,1/9", "8/9,-5/9,-4/9,7/9,1")


def test_squarefree_part():
    p = Poly([1, 1]) ** 3 * Poly([-2, 1])
    assert _int_squarefree(_primitive(p)) == (-2, -1, 1)  # (1 + x)(x - 2), primitive


def test_squarefree_part_keeps_a_negative_leading_sign():
    for k in (2, 3):
        p = Poly([1, 1]) ** k * Poly([-2, 1]) * F(-3, 2)
        assert p.lc < 0
        assert _int_squarefree(_primitive(p)) == (2, 1, -1)  # -(1 + x)(x - 2)
    assert _int_squarefree(_primitive(Poly([1, 1]) ** 2 * F(-1, 2))) == (-1, -1)
    assert _int_squarefree(_primitive(Poly([F(3, 2), F(-9, 4)]))) == (2, -3)


def test_primitive_preserves_sign():
    # The content is positive, so the primitive part keeps every sign.
    assert _content_split(Poly([F(2, 3), -2])) == (F(2, 3), (1, -3))
    assert _content_split(Poly([-4, 6, -8])) == (F(2), (-2, 3, -4))


def _divmod(a: Poly, b: Poly) -> tuple[Poly, Poly]:
    """Division with remainder over the rationals, coefficient by coefficient."""
    rem = list(a.coeffs)
    quo = [F(0)] * max(0, len(rem) - len(b.coeffs) + 1)
    for i in range(len(quo) - 1, -1, -1):
        q = F(rem[i + b.degree]) / b.lc
        quo[i] = q
        for j, c in enumerate(b.coeffs):
            rem[i + j] -= q * c
    return Poly(quo), Poly(rem)


def _monic(p: Poly) -> Poly:
    return p * (1 / F(p.lc))


def _rational_euclid_form(num: Poly, den: Poly) -> tuple[Poly, Poly]:
    """The canonical RatFunc form by the rational Euclidean algorithm."""
    a, b = num, den
    while not b.is_zero:
        a, b = b, _divmod(a, b)[1]
    g = _monic(a)
    num, den = _divmod(num, g)[0], _divmod(den, g)[0]
    return num * (1 / F(den.lc)), _monic(den)


def _random_rational_poly(rng, max_degree):
    return Poly([F(rng.randrange(21) - 10, rng.randrange(6) + 1)
                 for _ in range(rng.randrange(max_degree + 1) + 1)])


def test_ratfunc_matches_the_rational_euclid_reference():
    rng = SplitMix64(2024)
    planted = negative = 0
    for _ in range(300):
        common = _random_rational_poly(rng, 3)
        num = _random_rational_poly(rng, 4) * common
        den = _random_rational_poly(rng, 4) * common
        if num.is_zero or den.is_zero:
            continue
        planted += common.degree > 0
        negative += num.lc < 0 or den.lc < 0
        f = RatFunc(num, den)
        assert (f.num, f.den) == _rational_euclid_form(num, den)
        assert f.den.lc == 1
    assert planted >= 150 and negative >= 150


def test_ratfunc_canonical_equality():
    f = RatFunc(Poly([0, 2]), Poly([2, 2]))
    g = RatFunc(Poly([0, 1]), Poly([1, 1]))
    assert f == g
    assert hash(f) == hash(g)


def test_ratfunc_reduction():
    f = RatFunc(Poly([0, 1]) * Poly([1, 1]), Poly([1, 1]) ** 2)
    assert f == RatFunc(Poly([0, 1]), Poly([1, 1]))


def test_ratfunc_evaluate():
    f = RatFunc(Poly([0, 1]), Poly([1, 6]))
    assert f.evaluate(F(1, 6)) == F(1, 12)


@pytest.mark.parametrize("call, error, message", [
    (lambda: Poly([1, 1]) ** -1, ValueError, "negative polynomial power"),
    (lambda: Poly() ** -2, ValueError, "negative polynomial power"),
    (lambda: RatFunc(Poly([1, 1]), Poly()), ZeroDivisionError,
     "rational function with zero denominator"),
    (lambda: RatFunc(Poly(), Poly([0, 0])), ZeroDivisionError,
     "rational function with zero denominator"),
    (lambda: Poly([1, 1]) + object(), TypeError,
     "unsupported operand type(s) for +: 'Poly' and 'object'"),
    (lambda: Poly([1, 1]) * object(), TypeError,
     "unsupported operand type(s) for *: 'Poly' and 'object'"),
], ids=["negative_power", "negative_power_of_zero", "zero_denominator", "zero_over_zero",
        "add_foreign", "mul_foreign"])
def test_undefined_operations_are_refused(call, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call()


def test_equality_with_a_rational_or_a_foreign_object():
    assert Poly([3]) == 3 and Poly([F(1, 2)]) == F(1, 2) and Poly() == 0
    assert Poly([0, 1]) != 3 and not Poly([0, 1]) == "x"
    f = RatFunc(Poly([0, 1]), Poly([1, 6]))
    assert not f == object() and f != "x"


def test_ratfunc_pole_raises():
    f = RatFunc(Poly([1]), Poly([1, 1]))
    try:
        f.evaluate(-1)
    except ZeroDivisionError:
        pass
    else:
        raise AssertionError("expected pole error")


def _reference_horner(coeffs, x):
    """Horner in Fraction arithmetic over the raw coefficients, the route
    every polynomial took before the integer fast path."""
    acc = 0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def test_evaluate_matches_the_fraction_horner():
    rng = SplitMix64(31)
    points = [F(0), 0, F(7, 1), F(-3, 1), -5, 4, F(1, 2), F(-2, 3), F(-7, 4), F(22, 7)]
    polys = [Poly(), Poly([F(1, 2), 3, F(-5, 3)])]
    for _ in range(200):
        polys.append(Poly([rng.randrange(201) - 100 for _ in range(1 + rng.randrange(12))]))
    for p in polys:
        for x in points + [F(rng.randrange(41) - 20, 1 + rng.randrange(30))]:
            got, want = p.evaluate(x), _reference_horner(p.coeffs, x)
            assert got == want and type(got) is type(want), (p, x)


def _schoolbook(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, c in enumerate(a):
        for j, d in enumerate(b):
            out[i + j] += c * d
    return tuple(out)


def test_int_mul_matches_schoolbook_on_both_sides_of_the_cutoff():
    rng = random.Random(77)
    lengths = [1, 2, _KRONECKER_CUTOFF - 1, _KRONECKER_CUTOFF, _KRONECKER_CUTOFF + 1, 9, 17, 40]
    cases = []
    for la in lengths:
        for lb in lengths:
            for bits in (1, 7, 40, 130):
                top = (1 << bits) - 1
                # all coefficients at +-(2^bits - 1): the size bound on the
                # product's coefficients is reached exactly
                cases.append(((top,) * la, (top,) * lb))
                cases.append(((-top,) * la, (top,) * lb))
                cases.append((tuple(top if i % 2 else -top for i in range(la)), (-top,) * lb))
                for _ in range(3):
                    a = [rng.randint(-top, top) for _ in range(la)]
                    b = [rng.randint(-top, top) for _ in range(lb)]
                    for cs in (a, b):  # zeros inside and at both ends
                        for _ in range(rng.randrange(3)):
                            cs[rng.randrange(len(cs))] = 0
                    cases.append((tuple(a), tuple(b)))
    cases += [((0,), (5,)), ((0, 0, 3), (-1, 0, 0, 0, 0, 0, 0)), ((0,) * 8, (0,) * 6),
              ((0, 0, 0, 0, 0, 1, 0), (2, 0, 0, 0, 0, 0, 0, -3))]
    for a, b in cases:
        got = _int_mul(a, b)
        assert got == _schoolbook(a, b) and _int_mul(b, a) == got, (a, b)
        assert all(type(c) is int for c in got)


def test_int_shift_matches_the_binomial_expansion():
    # p(x + 1) has coefficients sum_i c_i C(i, j); equal signs at full size
    # push them toward the |p|_1 2^deg bound the packing width covers.
    rng = random.Random(78)
    cases = [(0,), (5,), (-1, 1), (0, 0, 0, 1), (1, 0, 0, 0, 0)]
    for n in (1, 2, 5, 9, 17, 40):
        for bits in (1, 7, 40, 130):
            top = (1 << bits) - 1
            cases += [(top,) * n, (-top,) * n, tuple(top if i % 2 else -top for i in range(n))]
            cases += [tuple(rng.randint(-top, top) for _ in range(n)) for _ in range(3)]
    for cs in cases:
        want = tuple(sum(c * comb(i, j) for i, c in enumerate(cs)) for j in range(len(cs)))
        assert _int_shift(cs) == want, cs


def test_integer_polys_stay_integer():
    a, b = Poly([3, -1, 0, 2, 7, 1, 5]), Poly([1, 2, 3, 4, 5, 6, -6])
    for p in (a * b, a + b, a - b, -a, a * 3, a ** 3, Poly([F(4, 2), F(6, 3)])):
        assert p._int and all(type(c) is int for c in p.coeffs)
    assert (a - a).coeffs == () and (a * 0).coeffs == ()
    half = Poly([F(1, 2), 3])
    assert not half._int and not (a * half)._int and not (a + half)._int
    assert (half * 2)._int and (half * 2).coeffs == (1, 6)
    rng = SplitMix64(5)
    for _ in range(100):
        # rational products take the integer kernel after a content split
        p, q = _random_rational_poly(rng, 8), _random_rational_poly(rng, 8)
        got = p * q
        want = Poly(_schoolbook(p.coeffs, q.coeffs)) if p and q else Poly()
        assert got == want and [type(c) for c in got.coeffs] == [type(c) for c in want.coeffs]


def test_var_numerator_matches_the_derivative_formula():
    # theta^2 p * p - (theta p)^2 against the definition it replaces
    def by_derivatives(p):
        d1 = p.derivative()
        d2 = d1.derivative()
        return (X * X * d2 + X * d1) * p - X * X * d1 * d1

    rng = SplitMix64(177)
    for degree in range(13):
        for _ in range(8):
            p = Poly([rng.randrange(41) - 20 for _ in range(degree + 1)])
            assert var_numerator(p) == by_derivatives(p)
    assert var_numerator(Poly([])) == Poly([])
    p = Poly([1, F(1, 3), F(-5, 2)])
    assert var_numerator(p) == by_derivatives(p)


def _var_by_products(p: Poly) -> Poly:
    """(theta^2 p) p - (theta p)^2 as two Poly products."""
    theta = Poly([k * c for k, c in enumerate(p.coeffs)])
    theta2 = Poly([k * k * c for k, c in enumerate(p.coeffs)])
    return theta2 * p - theta * theta


def test_var_numerator_matches_the_two_product_formula():
    # The binomial a + b x^m has N = m^2 a b x^m: its one coefficient is the
    # l1 bound S2 S0 - S1^2 the kernel's width is taken from, so a width one
    # bit short fails on it.
    rng, rational = random.Random(4242), SplitMix64(4243)
    top = 1 << 200
    polys = [Poly(), Poly([7]), Poly([-top]), Poly([F(-3, 5)])]
    for m in range(1, 9):
        polys.append(Poly([0] * m + [-top]))
        for a, b in ((1, 1), (top - 1, top), (-top, top - 3), (top, -top), (top, top)):
            polys.append(Poly([a] + [0] * (m - 1) + [b]))
    for degree in range(16):
        for bits in (3, 40, 200):
            bound = 1 << bits
            polys += [Poly([bound] * (degree + 1)),
                      Poly([bound if i % 2 else -bound for i in range(degree + 1)])]
            for _ in range(4):
                cs = [rng.randint(-bound, bound) for _ in range(degree + 1)]
                for _ in range(rng.randrange(3)):  # zeros inside and at both ends
                    cs[rng.randrange(len(cs))] = 0
                polys.append(Poly(cs))
        polys += [_random_rational_poly(rational, degree) for _ in range(8)]
    for p in polys:
        got, want = var_numerator(p), _var_by_products(p)
        assert got == want, p
        assert [type(c) for c in got.coeffs] == [type(c) for c in want.coeffs]


def test_var_kernels_at_their_edges_match_the_products():
    # The numerator and the VAR certificate N_a b^2 - N_b a^2, which reads
    # N_a and N_b packed at its own width, against Poly products on length-1
    # and length-2 inputs, 1 + x^d up to d = 64, alternating signs and
    # coefficients near 2^200.  1 + x^d has N = d^2 x^d while |p|_1^2 = 4,
    # so a width without the deg^2 factor fails on it.
    top = 1 << 200
    inputs = [(7,), (-top,), (1, 1), (3, -5), (top, -top), (1, 0), (0, top)]
    inputs += [(1,) + (0,) * (d - 1) + (1,) for d in range(1, 65)]
    for n in (3, 8, 17, 40):
        inputs += [tuple((-1) ** i * (i + 1) for i in range(n)),
                   tuple((-1) ** i * (top - i) for i in range(n)),
                   tuple(top - 3 * i for i in range(n))]
    for cs in inputs:
        ns = _int_var_numerator(cs)
        assert len(ns) == 2 * len(cs) - 2 and Poly(ns) == _var_by_products(Poly(cs)), cs
    partners = inputs[:7] + [inputs[16], inputs[70]] + inputs[-9:-6] + inputs[-3:]
    for a in inputs:
        for b in partners:
            p, q = Poly(a), Poly(b)
            cert = _int_var_certificate(a, b)
            assert len(cert) == 2 * (len(a) + len(b)) - 4, (a, b)
            assert Poly(cert) == _var_by_products(p) * q * q - _var_by_products(q) * p * p, (a, b)
