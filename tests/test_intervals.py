"""Certified enclosures: arithmetic, logs, Lambert W, entropy.

High-precision references come from the decimal module (an independent
implementation), never from the enclosures themselves.
"""

import math
import random
import re
import sys
from decimal import Decimal, getcontext, localcontext
from fractions import Fraction as F

import pytest

from hardcore_lab import bounds, intervals
from hardcore_lab.graphs import generate
from hardcore_lab.intervals import (
    RationalInterval,
    _dyadic_between,
    _float_lambert_seed,
    entropy_interval,
    exp_interval,
    free_energy_interval,
    lambert_w_bisection,
    lambert_w_interval,
    log1p_interval,
    log_series,
)
from hardcore_lab.polynomials import Poly
from hardcore_lab.sampler import SplitMix64

getcontext().prec = 60


def _dec_to_frac(d: Decimal) -> F:
    return F(str(d))


def _dec_lambert(x: Decimal) -> Decimal:
    w = Decimal("0.5") if x < 3 else x.ln()
    for _ in range(80):
        ew = w.exp()
        w = w - (w * ew - x) / (ew * (1 + w))
    return w


def test_interval_endpoints_are_fractions_and_kept_as_given():
    lo, hi = F(1, 3), F(7, 2)
    enc = RationalInterval(lo, hi)
    assert enc.lo is lo and enc.hi is hi  # a Fraction endpoint is not copied
    for a, b in ((0, 5), (-3, F(1, 2)), (F(-7, 4), 2), (F(6, 3), F(6, 2))):
        enc = RationalInterval(a, b)
        assert type(enc.lo) is F and type(enc.hi) is F
        assert (enc.lo, enc.hi) == (a, b)
    assert type(RationalInterval.point(3).lo) is F
    with pytest.raises(ValueError):
        RationalInterval(2, F(3, 2))


def test_interval_arithmetic_examples():
    a = RationalInterval(1, 2)
    b = RationalInterval(3, 4)
    assert (a + b) == RationalInterval(4, 6)
    c = RationalInterval(-1, 1)
    assert c * c == RationalInterval(-1, 1)


def test_log1p_exact_zero():
    assert log1p_interval(0, F(1, 10**9)) == RationalInterval.point(0)


def test_log1p_of_one_encloses_log2():
    tol = F(1, 10**9)
    enc = log1p_interval(1, tol)
    assert enc.hi - enc.lo <= tol
    ref = _dec_to_frac(Decimal(2).ln())
    assert enc.lo <= ref <= enc.hi


def test_log_two_against_independent_series():
    # Independent oracle: log 2 = sum_{k>=1} 1/(k 2^k) with an explicit tail.
    total = F(0)
    k = 0
    while True:
        k += 1
        total += F(1, k * 2**k)
        tail = F(1, (k + 1) * 2**k)
        if tail < F(1, 10**15):
            break
    oracle = RationalInterval(total, total + tail)
    enc = log_series(2)(F(1, 10**15))
    assert enc.intersects(oracle)


def test_log1p_lower_endpoint_is_positive():
    # The triangle-free weight divides by the lower endpoint of log(1 + lam)
    # without refining it: it is positive at every lam > 0 and tol > 0, by
    # the atanh tail bound.
    rng = random.Random(20000)
    for _ in range(300):
        lam = F(rng.randrange(1, 10**6), rng.randrange(1, 10**6)) * F(10) ** rng.randrange(-300, 301)
        tol = F(rng.randrange(1, 10), 10) * F(10) ** rng.randrange(-40, 9)
        enc = log1p_interval(lam, tol)
        assert enc.lo > 0, (lam, tol)
        assert enc.lo / enc.hi > F(1, 2), (lam, tol)


def test_log1p_inverse_relationship():
    # Rational brackets of e - 1 must map to brackets of 1.
    lo = F(17182818284, 10**10)
    hi = F(17182818285, 10**10)
    assert log1p_interval(lo, F(1, 10**12)).lo <= 1 <= log1p_interval(hi, F(1, 10**12)).hi


def test_log_argument_reduction():
    for v in (F(390625), F(1, 390625), F(22, 7), F(3), F(10) ** 12):
        enc = log_series(v)(F(1, 10**18))
        ref = _dec_to_frac(Decimal(v.numerator).ln() - Decimal(v.denominator).ln())
        assert enc.lo <= ref <= enc.hi
        assert enc.hi - enc.lo <= F(1, 10**18)


def _halving_reduction(v):
    """log_series' argument reduction as it was: one halving or doubling
    per step."""
    k, m = 0, v
    while m > F(3, 2):
        m /= 2
        k += 1
    while m < F(3, 4):
        m *= 2
        k -= 1
    return m, k


def test_log_argument_jump_ends_where_the_halving_loops_did(monkeypatch):
    # Each series returns its argument as a point and log 2 returns 1, so the
    # enclosure is the point y + k with y = (m - 1) / (m + 1) the body's
    # argument: equal to the halving loops' m and k, no endpoint moves.
    seen = []
    monkeypatch.setattr(intervals, "_atanh_sums",
                        lambda y: seen.append(y) or (lambda tol: RationalInterval.point(y)))
    monkeypatch.setattr(intervals, "_log2_enclosure", lambda tol: RationalInterval.point(1))
    rng = random.Random(9151)
    values = [F(3, 2) * F(2) ** j for j in range(-70, 71)]
    values += [F(3, 4) * F(2) ** j for j in range(-70, 71)]
    values += [F(2) ** j for j in range(-70, 71) if j]
    values += [F(rng.randrange(1, 10 ** rng.randrange(1, 40)),
                 rng.randrange(1, 10 ** rng.randrange(1, 40))) for _ in range(400)]
    values += [F(10**9001 + 7, 3), F(3, 10**9001 + 7)]
    for v in values:
        m, k = _halving_reduction(v)
        seen.clear()
        assert log_series(v)(F(1, 10**6)) == RationalInterval.point((m - 1) / (m + 1) + k), v
        assert seen == [(m - 1) / (m + 1)], v


# Reference copies of the one-shot log enclosure: the atanh series summed
# from its first term at every call.

def _reference_atanh_series(y, tol):
    if y == 0:
        return RationalInterval.point(0)
    y2 = y * y
    term = y
    total = F(0)
    k = 0
    while True:
        total += 2 * term / (2 * k + 1)
        tail = 2 * abs(term) * abs(y2) / ((2 * k + 3) * (1 - y2))
        if tail <= tol / 2:
            return RationalInterval(total - tail, total + tail)
        term *= y2
        k += 1


def _reference_log_interval(v, tol):
    v = F(v)
    if v == 1:
        return RationalInterval.point(0)
    m, k = _halving_reduction(v)
    body = _reference_atanh_series((m - 1) / (m + 1), tol / 2)
    if k == 0:
        return body
    return body + _reference_atanh_series(F(1, 3), tol / (4 * abs(k))) * k


def test_resumed_log_series_matches_a_fresh_one():
    # One series per v walks the tolerance down from 10^-6 to 10^-30, each
    # call summing on from the last, then back up, each call reading a
    # recorded term: every rung gives what a fresh series and the one-shot
    # reference give.
    values = [1 + F(1, 100 * delta**4) for delta in (1, 2, 3, 4, 5, 6, 63)]
    values += [F(1), F(7, 3), F(3, 5), F(10) ** 30, F(10) ** -30]
    ladder = [F(1, 10**k) for k in range(6, 31)] + [F(1, 10**k) for k in range(29, 5, -1)]
    for v in values:
        enclose = log_series(v)
        for tol in ladder:
            enc = enclose(tol)
            assert enc == log_series(v)(tol) == _reference_log_interval(v, tol), (v, tol)
            assert enc.hi - enc.lo <= tol, (v, tol)


def test_exp_enclosure():
    for w in (F(0), F(1), F(-1), F(5, 2), F(1, 1000)):
        enc = exp_interval(w, F(1, 10**15))
        ref = _dec_to_frac((Decimal(w.numerator) / Decimal(w.denominator)).exp())
        assert enc.lo <= ref <= enc.hi


def _dec_exp(w: F, digits: int) -> F:
    with localcontext() as ctx:
        ctx.prec = digits
        return _dec_to_frac((Decimal(w.numerator) / Decimal(w.denominator)).exp())


def test_exp_enclosure_against_decimal_at_twice_the_precision():
    # The enclosure needs about log10(max(1, e^w)) + log10(1/tol) digits;
    # the reference carries twice as many.
    rng = random.Random(1410)
    ws = [F(rng.randrange(-50 * 10**6, 700 * 10**6), 10**6) for _ in range(40)]
    ws += [F(rng.randrange(1, 10**9), rng.randrange(1, 10**12)) for _ in range(10)]
    ws += [F(-50), F(1, 512), F(-1, 512), F(1, 513), F(690), F(6931, 10), F(700)]
    assert any(w > 1000 * F(6932, 10**4) for w in ws)  # e^w above 2^1000
    for w in ws:
        tol = F(rng.randrange(1, 10), 10 ** rng.randrange(6, 61))
        enc = exp_interval(w, tol)
        digits = 2 * (max(0, int(w * F(4343, 10**4))) + len(str(tol.denominator)) + 5)
        assert enc.lo <= _dec_exp(w, digits) <= enc.hi, (w, tol)
        assert enc.hi - enc.lo <= tol, (w, tol)


def _dec_exp_series(w: F, digits: int) -> F:
    """e^w to about `digits` significant digits, as (e^(1/d))^n for
    w = n / d, with e^(1/d) summed term by term in decimal arithmetic:
    Decimal.exp takes seconds at the 19,000 digits that e^(3 10^5 / 7) to
    10^-300 needs."""
    with localcontext() as ctx:
        ctx.prec = digits + 10
        term = total = Decimal(1)
        k = 0
        while term > total.scaleb(-digits - 10):
            k += 1
            term /= k * w.denominator
            total += term
        return F(*(total ** w.numerator).as_integer_ratio())


def test_exp_width_at_the_first_precision_on_the_corner_grid():
    # exp_interval makes one _exp_fixed call: the error analysis in its
    # docstring, not a retry, gives the width.  Corners: w = 0, tiny, unit,
    # non-dyadic, e^|w| past 10^1000 and 10^18000, a near-dyadic w; tol from
    # 10^6 down to 10^-300 and a dyadic one.
    ws = [F(0), F(1, 10**9), F(1), F(7, 3), F(10**4, 3), F(3 * 10**5, 7)]
    ws = ws + [-w for w in ws[1:]] + [1 + F(1, 2**40)]
    tols = [F(10**6), F(1), F(1, 2), F(1, 10**9), F(1, 10**30), F(1, 10**100),
            F(1, 10**300), F(3, 2**200)]
    for w in ws:
        ref = _dec_exp_series(w, max(0, int(w * F(4343, 10**4))) + 331)
        for tol in tols:
            enc = exp_interval(w, tol)
            assert enc.hi - enc.lo <= tol, (w, tol)
            assert enc.lo <= ref <= enc.hi, (w, tol)


def test_exp_fixed_rounds_outward_at_every_precision():
    # At a few bits every rounding is a large part of the width, so rounding
    # one step inward shows up as a missed reference.  The one exception is
    # the ceiling in the squarings of hi: the tail ulp leaves hi nearly one
    # ulp above e^r, each squaring about doubles that margin, and a floored
    # square loses under one ulp, so hi would stay above e^|w| without it.
    rng = random.Random(44)
    ws = [F(1, 512), F(-1, 512), F(1, 2**20), F(3, 1024), F(1), F(-1), F(7, 3), F(-7, 3),
          F(50), F(-50)]
    ws += [F(rng.randrange(-10**6, 10**6), rng.randrange(1, 10**5)) for _ in range(60)]
    for w in ws:
        ref = _dec_exp(w, 120)
        for bits in range(-8, 40):
            lo, hi, p = intervals._exp_fixed(w.numerator, w.denominator, bits)
            assert F(lo, 2**p) <= ref <= F(hi, 2**p), (w, bits)


def test_lambert_sign_test_raises_its_precision(monkeypatch):
    # m / 2^100 and (m + 1) / 2^100 bracket W(1) within 2^-100, so neither
    # sign of w e^w - 1 is decided before e^w is known to about 96 bits.
    with localcontext() as ctx:
        ctx.prec = 80
        m = int(_dec_lambert(Decimal(1)) * 2**100)
    honest, precisions = intervals._exp_fixed, []

    def exp_fixed(n, d, bits):
        precisions.append(bits)
        return honest(n, d, bits)

    monkeypatch.setattr(intervals, "_exp_fixed", exp_fixed)
    for wn, sign in ((m, -1), (m + 1, 1)):
        precisions.clear()
        assert intervals._we_sign(wn, 2**100, 1, 1, 0) == sign
        assert precisions == [0, 32, 64, 96]


def test_lambert_at_zero():
    assert lambert_w_interval(0, F(1, 10**9)) == RationalInterval.point(0)


def test_lambert_of_one_against_newton():
    tol = F(1, 10**9)
    enc = lambert_w_interval(1, tol)
    assert enc.hi - enc.lo <= tol
    ref = _dec_to_frac(_dec_lambert(Decimal(1)))
    assert enc.lo <= ref <= enc.hi


def test_lambert_of_e_encloses_one():
    lo = F(27182818284, 10**10)
    hi = F(27182818285, 10**10)
    assert lambert_w_interval(lo, F(1, 10**12)).lo <= 1 <= lambert_w_interval(hi, F(1, 10**12)).hi


def test_lambert_defining_identity_at_interval_level():
    for x in (F(1), F(3, 1000), F(17, 5), F(1, 10**6)):
        enc = lambert_w_interval(x, F(1, 10**12))
        image_lo = exp_interval(enc.lo, F(1, 10**15)) * enc.lo
        image_hi = exp_interval(enc.hi, F(1, 10**15)) * enc.hi
        image = RationalInterval(image_lo.lo, image_hi.hi)
        assert image.contains(x)


def test_lambert_random_against_newton():
    rng = SplitMix64(5)
    for _ in range(25):
        x = F(rng.randrange(10**6) + 1, 10**4)
        enc = lambert_w_interval(x, F(1, 10**12))
        ref = _dec_to_frac(_dec_lambert(Decimal(x.numerator) / Decimal(x.denominator)))
        assert enc.lo <= ref <= enc.hi


def test_entropy_endpoints_exact():
    assert entropy_interval(0, F(1, 10)) == RationalInterval.point(0)
    assert entropy_interval(1, F(1, 10)) == RationalInterval.point(0)


def test_entropy_maximum_encloses_log2():
    enc = entropy_interval(F(1, 2), F(1, 10**12))
    assert enc.lo <= _dec_to_frac(Decimal(2).ln()) <= enc.hi


def test_entropy_quarter_reference():
    enc = entropy_interval(F(1, 4), F(1, 10**9))
    q = Decimal(1) / 4
    ref = -(q * q.ln()) - (1 - q) * (1 - q).ln()
    assert enc.lo <= _dec_to_frac(ref) <= enc.hi
    assert enc.hi - enc.lo <= F(1, 10**9)


def test_free_energy_examples():
    assert free_energy_interval(Poly([1, 1]), 1, 0, F(1, 10**9)) == RationalInterval.point(0)
    enc = free_energy_interval(Poly([1, 4]), 4, 1, F(1, 10**12))
    ref = _dec_to_frac(Decimal(5).ln() / 4)
    assert enc.lo <= ref <= enc.hi
    enc = free_energy_interval(Poly([1, 1]) ** 2, 2, 3, F(1, 10**12))
    ref = _dec_to_frac(Decimal(4).ln())
    assert enc.lo <= ref <= enc.hi


def test_containment_monotone_under_refinement():
    for make in (
        lambda t: log1p_interval(F(7, 3), t),
        lambda t: lambert_w_interval(F(5, 7), t),
        lambda t: entropy_interval(F(1, 3), t),
    ):
        outer = make(F(1, 10**6))
        inner = make(F(1, 10**9))
        assert outer.lo <= inner.lo and inner.hi <= outer.hi


def test_midpoints_track_reference():
    rng = SplitMix64(11)
    for _ in range(50):
        v = F(rng.randrange(10**5) + 1, rng.randrange(100) + 1)
        enc = log_series(v)(F(1, 10**12))
        ref = _dec_to_frac(Decimal(v.numerator).ln() - Decimal(v.denominator).ln())
        assert abs((enc.lo + enc.hi) / 2 - ref) <= enc.hi - enc.lo


# -- Lambert W against the bisection that certifies every sign ---------------
#
# Reference copies of the plain bisection: every sign test goes through
# _certified_sign, Fraction interval arithmetic over exp_interval, and
# midpoints come from a Fraction loop.  The library, which decides most signs
# from its certified tight bracket and the rest by an integer comparison,
# must return the same endpoints, bit for bit.

def _certified_sign(w, x, tol):
    """Sign of w e^w - x at a rational w > 0, w != W(x), from enclosures of
    w e^w - x refined as far as needed."""
    while True:
        box = exp_interval(w, tol / w) * w - x
        if box.lo > 0:
            return 1
        if box.hi < 0:
            return -1
        tol /= 16


def _dyadic(value: float) -> F:
    return F(round(value * (1 << 64)), 1 << 64)


def _reference_dyadic_between(lo, hi):
    center = (lo + hi) / 2
    bits = 4
    while True:
        scale = 1 << bits
        if F(1, scale) < (hi - lo) / 2:
            mid = F(math.floor(center * scale) + 1, scale)
            if lo < mid < hi:
                return mid
        bits += 4


def _reference_lambert_w(x, tol):
    x = F(x)
    tol = F(tol)
    if x == 0:
        return RationalInterval.point(0)
    lo = F(0)
    hi = max(F(1), x)
    seed = intervals._float_lambert_seed(float(x))
    if seed is not None:
        pad = max(F(abs(seed)).limit_denominator(10**6) / 10**7, F(1, 10**9))
        cand_lo = max(lo, _dyadic(seed) - pad)
        cand_hi = min(hi, _dyadic(seed) + pad)
        if cand_lo < cand_hi:
            if (cand_lo == 0 or _certified_sign(cand_lo, x, pad) < 0) and _certified_sign(
                cand_hi, x, pad
            ) > 0:
                lo, hi = cand_lo, cand_hi
    while hi - lo > tol:
        mid = _reference_dyadic_between(lo, hi)
        sign = _certified_sign(mid, x, (hi - lo) / 8)
        if sign < 0:
            lo = mid
        else:
            hi = mid
    return RationalInterval(lo, hi)


def _random_tol(rng):
    return F(rng.randrange(9) + 1, 10 ** (6 + rng.randrange(25)))


def _lambert_cases():
    rng = SplitMix64(404)
    cases = []
    for _ in range(80):
        cases.append((F(rng.randrange(10**6) + 1, 10**12 + rng.randrange(10**9)), _random_tol(rng)))
    for _ in range(80):
        cases.append((F(rng.randrange(10**6 - 1) + 1, 10**6) + F(1, 10**7), _random_tol(rng)))
    for _ in range(80):
        cases.append((1 + F(rng.randrange(49 * 10**5 + 1), 10**5), _random_tol(rng)))
    cases += [(F(1), F(1, 10**30)), (F(50), F(1, 10**30)), (F(1, 10**200), F(1, 10**30))]
    cases += [(F(1, 10**400), F(1, 10**6)), (F(1, 10**400), F(1, 10**30))]
    # The endpoints bounds._tf_weights passes: d log(1+lam) enclosed at tol / 4.
    for d in range(1, 8):
        for lam in (F(1, 100 * d**4), F(1, 100), F(1), F(4)):
            tol = _random_tol(rng)
            arg = log1p_interval(lam, tol / 4) * d
            cases += [(arg.lo, tol / 4), (arg.hi, tol / 4)]
    return cases


def test_lambert_matches_the_certify_every_sign_bisection():
    cases = _lambert_cases()
    assert len(cases) >= 300
    assert any(_float_lambert_seed(float(x)) is None for x, _ in cases)
    for x, tol in cases:
        enc = lambert_w_interval(x, tol)
        assert enc == _reference_lambert_w(x, tol), (x, tol)
        assert enc.hi - enc.lo <= tol


# x = w e^w, rounded, for w in [0.0098, 0.0101]: float seeds on both sides
# of 0.0099, below which the pad skips limit_denominator, and of 1/100, where
# the pad turns from 10^-9 into seed' / 10^7.
_PAD_BOUNDARY = [F(n, 10**12) for n in (
    9896512137, 9998486555, 9998496754, 9998506954, 10049496675, 10099991596, 10100501671,
    10100909731, 10202526889)]


def test_resumed_bisection_matches_a_fresh_one():
    # One bisection per x walks the tolerance down from 10^-6 to 10^-30,
    # each call resuming the last, then back up between those rungs, each
    # call reading a recorded bracket: every rung gives what a fresh
    # bisection gives.  The certify-every-sign reference costs milliseconds
    # a call, so it runs at every rung for one case in 50, the pad boundary
    # and the seedless x.
    seeds = [_float_lambert_seed(float(x)) for x in _PAD_BOUNDARY]
    assert min(seeds) < 0.0099 <= max(seeds) and min(seeds) < 0.01 < max(seeds)
    cases = list(dict.fromkeys([x for x, _ in _lambert_cases()] + [F(0), F(1, 10**400), F(50)]))
    ladder = [F(1, 10**k) for k in range(6, 31, 2)] + [F(1, 10**k) for k in range(29, 6, -2)]
    for i, x in enumerate(cases + _PAD_BOUNDARY):
        enclose = lambert_w_bisection(x)
        referenced = i % 50 == 0 or i >= len(cases) or _float_lambert_seed(float(x)) is None
        for tol in ladder:
            ln, ld, hn, hd = enclose(tol)
            enc = RationalInterval(F(ln, ld), F(hn, hd))
            assert enc == lambert_w_interval(x, tol), (x, tol)
            if referenced:
                assert enc == _reference_lambert_w(x, tol), (x, tol)
            assert enc.hi - enc.lo <= tol


@pytest.mark.parametrize("wrong", [
    lambda w: w * (1 + 1e-3),
    lambda w: w * (1 - 1e-3),
    lambda w: 0.0,
    lambda w: None,
])
def test_lambert_wrong_seed_changes_no_sign(monkeypatch, wrong):
    # The seed also places the padded start bracket, so a wrong seed moves
    # the bisection iterates in the reference too; the tight bracket it
    # certifies must not move them any further.
    honest = intervals._float_lambert_seed

    def seed(x):
        w = honest(x)
        return None if w is None else wrong(w)

    monkeypatch.setattr(intervals, "_float_lambert_seed", seed)
    for x in (F(1, 10**9), F(3, 1000), F(5, 7), F(1), F(17, 5), F(50), F(1, 10**400)):
        for tol in (F(1, 10**9), F(1, 10**25)):
            enc = lambert_w_interval(x, tol)
            assert enc == _reference_lambert_w(x, tol), (x, tol)
            assert enc.hi - enc.lo <= tol
            if x > F(1, 10**100):
                ref = _dec_lambert(Decimal(x.numerator) / Decimal(x.denominator))
                assert enc.contains(_dec_to_frac(ref))


def test_dyadic_between_matches_the_fraction_loop():
    rng = random.Random(2024)
    for i in range(10**4):
        kind = i % 4
        if kind == 0:
            # The padded seed bracket: a 64-bit dyadic minus a non-dyadic pad.
            seed = rng.random() * 10 ** rng.randrange(-3, 4)
            pad = max(F(seed).limit_denominator(10**6) / 10**7, F(1, 10**9))
            lo = max(F(0), _dyadic(seed) - pad)
            hi = _dyadic(seed) + pad
        else:
            den = rng.randrange(1, 10 ** rng.randrange(1, 61))
            lo = F(rng.randrange(-5 * den, 5 * den), den)
            width = F(rng.randrange(1, 2**20 + 1), 2**20) / 2 ** rng.randrange(201)
            if kind == 2:
                width *= F(rng.randrange(1, 10**9 + 1), 10**9 + 7)
            hi = lo + width
        # Any writing of the endpoints gives the same pair.
        k, j = rng.randrange(1, 10**6), rng.randrange(1, 10**6)
        mid = _dyadic_between(lo.numerator, lo.denominator, hi.numerator, hi.denominator)
        scaled = _dyadic_between(k * lo.numerator, k * lo.denominator,
                                 j * hi.numerator, j * hi.denominator)
        assert mid == scaled, (lo, hi, k, j)
        assert F(*mid) == _reference_dyadic_between(lo, hi), (lo, hi)
        assert lo < F(*mid) < hi


def test_nonpositive_tolerance_raises():
    g = generate("cycle:5")
    calls = (
        log_series(3),
        lambda t: log1p_interval(F(1, 2), t),
        lambda t: exp_interval(F(1, 2), t),
        lambda t: exp_interval(0, t),
        lambda t: lambert_w_interval(F(1, 2), t),
        lambda t: lambert_w_interval(0, t),
        lambda t: entropy_interval(F(1, 3), t),
        lambda t: free_energy_interval(Poly([1, 5, 5]), 5, 1, t),
        lambda t: bounds._interval_le("test", g, 1, lambda _: 0, lambda _: 1, t),
    )
    for call in calls:
        for tol in (0, -1, F(-1, 10**9)):
            with pytest.raises(ValueError, match="tolerance must be positive"):
                call(tol)
        call(F(1, 10**6))


@pytest.mark.parametrize("x", [F(10) ** 40, F(10) ** 300, F(10) ** 306, F(10) ** 308,
                               F(sys.float_info.max)])
def test_lambert_at_large_arguments(x):
    # From about 2.56e305 on the float seed overflows and the bisection
    # starts from [0, x]; a test point from max(1, bitlen(ceil x)) up is
    # positive without an exponential.
    assert (_float_lambert_seed(float(x)) is None) == (x > F(10) ** 306 / 4)
    ref = _dec_to_frac(_dec_lambert(Decimal(x.numerator) / Decimal(x.denominator)))
    for tol in (F(1, 10**12), F(1, 10**30)):
        enc = lambert_w_interval(x, tol)
        assert enc.contains(ref), (x, tol)
        assert enc.hi - enc.lo <= tol


_TOL = F(1, 10**9)


@pytest.mark.parametrize("call, message", [
    (lambda: log1p_interval(-1, _TOL), "log1p requires x > -1"),
    (lambda: log1p_interval(F(-7, 3), _TOL), "log1p requires x > -1"),
    (lambda: log_series(0), "log of a nonpositive value"),
    (lambda: log_series(F(-1, 10**30)), "log of a nonpositive value"),
    (lambda: lambert_w_interval(F(-1, 10**30), _TOL),
     "the nonnegative Lambert W branch needs x >= 0"),
    (lambda: lambert_w_bisection(-1), "the nonnegative Lambert W branch needs x >= 0"),
    (lambda: entropy_interval(F(-1, 10**30), _TOL), "entropy argument outside [0, 1]"),
    (lambda: entropy_interval(1 + F(1, 10**30), _TOL), "entropy argument outside [0, 1]"),
    (lambda: free_energy_interval(Poly([1, 5, 5]), 0, 1, _TOL), "need at least one vertex"),
    (lambda: free_energy_interval(Poly([1, 5, 5]), -1, 1, _TOL), "need at least one vertex"),
    (lambda: free_energy_interval(Poly([1, -1]), 1, 1, _TOL),
     "partition function evaluated nonpositive"),
    (lambda: free_energy_interval(Poly([1, -2]), 1, 1, _TOL),
     "partition function evaluated nonpositive"),
], ids=["log1p_at_minus_one", "log1p_below_minus_one", "log_of_zero", "log_of_negative",
        "lambert_w_negative", "lambert_w_bisection_negative", "entropy_below_zero",
        "entropy_above_one", "free_energy_no_vertices", "free_energy_negative_n",
        "free_energy_zero_z", "free_energy_negative_z"])
def test_arguments_outside_the_domain_are_refused(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()


def test_lambert_beyond_the_largest_double_is_a_range_error():
    for x in (10**400, F(10**400, 3), F(sys.float_info.max) + 1):
        with pytest.raises(ValueError, match=re.escape(repr(sys.float_info.max))):
            lambert_w_interval(x, F(1, 10**12))
