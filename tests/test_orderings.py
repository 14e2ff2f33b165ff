"""The seven polynomial orderings and the implication web."""

import hashlib
from fractions import Fraction as F

import pytest

from hardcore_lab.hardcore import var_of_polynomial
from hardcore_lab.orderings import (
    IMPLICATIONS,
    OrderingKind,
    compare,
    compare_all,
    implication_web_check,
    random_generating_pair,
    var_difference_certificate,
)
from hardcore_lab.polynomials import Poly, var_numerator
from hardcore_lab.sampler import SplitMix64
from hardcore_lab.verdict import FAILS, Verdict
from test_roots import halfline_from_cauchy, typed

P_CUBE = Poly([1, 3, 1]) ** 3                       # 1+9x+30x^2+45x^3+30x^4+9x^5+x^6
Q_CLIQUES = Poly([1, 2]) ** 3 * Poly([1, 3])        # 1+9x+30x^2+44x^3+24x^4


def test_first_pair_fv_and_var():
    assert compare("FV", P_CUBE, Q_CLIQUES).holds
    assert compare("VAR", P_CUBE, Q_CLIQUES).holds


def test_first_pair_certificate_factored_form():
    cert = var_difference_certificate(P_CUBE, Q_CLIQUES)
    factored = (3 * Poly([0, 0, 0, 1]) * Poly([1, 2]) ** 4 * Poly([1, 3, 1]) ** 4
                * Poly([3, 32, 118, 176, 86]))
    assert cert == factored


def test_second_pair_var_without_fv():
    q = Poly([1, 9, 30, 44, 24, 9])
    v = compare("FV", P_CUBE, q)
    assert v.fails and v.witness == 4
    # the failing cross product: 24 * 9 < 30 * 9
    assert v.margin == 24 * 9 - 30 * 9
    assert compare("VAR", P_CUBE, q).holds


def test_second_pair_certificate_display():
    q = Poly([1, 9, 30, 44, 24, 9])
    cert = var_difference_certificate(P_CUBE, q)
    assert cert == Poly([
        0, 0, 0, 9, 276, 3651, 27864, 137304, 460512, 1074906, 1748244,
        1950525, 1472832, 864699, 739620, 926244, 887748, 554664, 223380,
        56373, 8136, 513,
    ])


def test_third_pair_var_without_coef():
    q = Poly([1, 9, 30, 44, 24, 10])
    v = compare("COEF", P_CUBE, q)
    assert v.fails and v.witness == 5
    assert compare("VAR", P_CUBE, q).holds


def test_fourth_lemma_pairs_fv_without_var():
    pairs = [
        (Poly([1, 4, 2, 2]), Poly([1, 2, 1, 1])),
        (Poly([1, 10, 210, 21, 21, 21]), Poly([1, 10, 10, 1, 1, 1])),
        (Poly([1, 10, 1, 20010, 2001, 2001]), Poly([1, 10, 1, 10, 1, 1])),
    ]
    values = [
        (F(26, 25), F(74, 81)),
        (F(53, 48), F(18619, 20164)),
        (F(293, 192), F(68604293, 192384192)),
    ]
    for (p, q), (vq, vp) in zip(pairs, values):
        assert compare("FV", p, q).holds
        v = compare("VAR", p, q)
        assert v.fails
        assert var_of_polynomial(q).evaluate(1) == vq
        assert var_of_polynomial(p).evaluate(1) == vp
        # the variance gap at the witness must indeed be negative
        assert var_of_polynomial(p).evaluate(v.witness) < var_of_polynomial(q).evaluate(v.witness)


def test_first_pair_var_witness_at_one():
    p, q = Poly([1, 4, 2, 2]), Poly([1, 2, 1, 1])
    v = compare("VAR", p, q)
    assert v.fails and v.witness == 1
    assert v.margin == F(74, 81) - F(26, 25)


def test_certificate_of_equal_polynomials_is_zero():
    assert var_difference_certificate(P_CUBE, P_CUBE).is_zero


def test_preconditions():
    with pytest.raises(ValueError):
        compare("COUNT", Poly([2, 1]), Poly([1, 1]))
    with pytest.raises(ValueError):
        compare("COUNT", Poly([1, -1]), Poly([1, 1]))


def test_padding_to_common_length():
    p = Poly([1, 1, 1])
    q = Poly([1, 2])
    # MAX compares the padded top coefficient: a_2 = 1 >= b_2 = 0
    assert compare("MAX", p, q).holds
    v = compare("MAX", q, p)
    assert v.fails and v.witness == 2


def test_count_witness_is_evaluation_at_one():
    v = compare("COUNT", Poly([1, 1]), Poly([1, 5]))
    assert v.fails and v.witness == 1 and v.margin == 2 - 6


def test_reflexivity_all_kinds():
    rng = SplitMix64(12)
    for _ in range(25):
        p, _ = random_generating_pair(rng)
        for kind in OrderingKind:
            assert compare(kind, p, p).holds, kind


def test_transitivity_where_links_hold():
    rng = SplitMix64(13)
    found = 0
    for _ in range(300):
        p, q = random_generating_pair(rng, max_degree=5, max_coeff=12)
        q2, r = random_generating_pair(rng, max_degree=5, max_coeff=12)
        for kind in OrderingKind:
            if compare(kind, p, q).holds and compare(kind, q, r).holds:
                found += 1
                assert compare(kind, p, r).holds, (kind, p, q, r)
    assert found > 50


def test_var_agrees_with_dense_sampling():
    rng = SplitMix64(14)
    for _ in range(60):
        p, q = random_generating_pair(rng, max_degree=5, max_coeff=12)
        v = compare("VAR", p, q)
        vp, vq = var_of_polynomial(p), var_of_polynomial(q)
        if v.holds:
            for i in range(1, 101):
                x = F(i, 1)
                assert vp.evaluate(x) >= vq.evaluate(x)
        else:
            x = v.witness
            assert vp.evaluate(x) < vq.evaluate(x)


def test_implication_web_reflexive_pair():
    report = implication_web_check(P_CUBE, P_CUBE)
    assert not report["violations"]
    assert all(v.holds for v in report["verdicts"].values())


def test_implication_web_random_pairs():
    rng = SplitMix64(15)
    for _ in range(500):
        p, q = random_generating_pair(rng)
        assert not implication_web_check(p, q)["violations"]


def test_implication_list_is_the_provable_seven():
    names = {(a.value, b.value) for a, b in IMPLICATIONS}
    assert names == {
        ("VAR", "OCC"), ("FV", "OCC"), ("FV", "COEF"), ("COEF", "PART"),
        ("OCC", "PART"), ("PART", "COUNT"), ("PART", "MAX"),
    }


def test_interior_zero_coefficients_break_fv_implications():
    # With an interior zero on both sides, FV holds vacuously while COEF and
    # OCC fail: the implications require positive support up to the degree,
    # which is the shape partition functions have and the generator draws.
    p = Poly([1, 0, 1])
    q = Poly([1, 0, 2])
    assert compare("FV", p, q).holds
    assert compare("COEF", p, q).fails
    assert compare("OCC", p, q).fails


def test_compare_all_returns_every_kind():
    verdicts = compare_all(P_CUBE, Q_CLIQUES)
    assert set(verdicts) == set(OrderingKind)


def test_implication_web_regression_pin():
    # sha256 over every verdict, witness and margin (repr, so the value types
    # count too) of 512 seeded random pairs.  The digest was recorded before
    # Poly gained its integer-coefficient fast path; any change to a verdict,
    # a witness, a margin or their types shows here.
    rng = SplitMix64(2024)
    h = hashlib.sha256()
    for _ in range(512):
        p, q = random_generating_pair(rng)
        report = implication_web_check(p, q)
        for kind, v in report["verdicts"].items():
            h.update(repr((kind, v.status, v.witness, v.margin)).encode())
        h.update(repr(report["violations"]).encode())
    assert h.hexdigest() == "cb324223999f6d797db3331719da675f946e4ea06d4af8f0054efdb77a42a556"


def test_certificate_matches_the_product_route():
    # The one-shot Kronecker certificate against
    # var_numerator(p) q^2 - var_numerator(q) p^2 in Poly products.
    rng = SplitMix64(4096)
    pairs = [random_generating_pair(rng) for _ in range(512)]
    for _ in range(64):  # signed, with zeros, of any length
        pairs.append(tuple(Poly([rng.randrange(201) - 100 for _ in range(rng.randrange(12))])
                           for _ in range(2)))
    def rational():
        return Poly([F(rng.randrange(61) - 30, 1 + rng.randrange(12))
                     for _ in range(1 + rng.randrange(8))])
    for _ in range(64):  # rational coefficients on one side or both
        p, q = rational(), rational()
        pairs += [(p, q), (p, Poly([1, 3, 1]) ** 2), (Poly([1, 4, 2, 2]) * 6, q)]
    for a in range(1, 9):  # one nonzero coefficient, as large as the size bound allows
        for m in (1, 2, 50, 10 ** 9):
            pairs += [(Poly([1] + [0] * (a - 1) + [m]), Poly([1])),
                      (Poly([1]), Poly([1] + [0] * (a - 1) + [m]))]
    pairs += [(Poly(), Poly([1, 2])), (Poly([3]), Poly([5])), (Poly([F(1, 2)]), Poly([1, 1]))]
    for p, q in pairs:
        cert = var_difference_certificate(p, q)
        want = var_numerator(p) * q * q - var_numerator(q) * p * p
        assert cert == want, (p, q)
        assert [type(c) for c in cert.coeffs] == [type(c) for c in want.coeffs]


def test_certificate_pins_on_the_web_pairs():
    # sha256 of the certificates' coefficients on the 4,096 generating pairs
    # of seed 20260809 and on 512 rational pairs, recorded from the
    # certificate built out of its own theta series before it read the shared
    # numerator kernel.
    def digest(pairs):
        h = hashlib.sha256()
        for p, q in pairs:
            h.update(repr(var_difference_certificate(p, q).coeffs).encode())
        return h.hexdigest()

    rng = SplitMix64(20260809)
    web = [random_generating_pair(rng) for _ in range(4096)]
    rng = SplitMix64(99)
    rational = [tuple(Poly([F(rng.randrange(61) - 30, 1 + rng.randrange(12))
                            for _ in range(1 + rng.randrange(8))]) for _ in range(2))
                for _ in range(512)]
    assert digest(web) == "fbfe0d860c9ea526a19fdebd1cb0a19f50f50147e04f0cc6acdc6d8fd00b1888"
    assert digest(rational) == "0cb723abe6d9b44dca27dcf4b271fa0517977d132d8a48b1d390b02a216e2fa8"


def _pointwise_by_polys(kind: str, p: Poly, q: Poly) -> Verdict:
    """PART, OCC and VAR as `compare` decided them before they moved to
    integer coefficients: p - q, p' q - q' p and the variance certificate as
    Polys, each through the half-line decision from Cauchy's bound, with the
    margin divided back in Fractions."""
    if kind == "PART":
        return halfline_from_cauchy(p - q)
    occ = kind == "OCC"
    v = halfline_from_cauchy(p.derivative() * q - q.derivative() * p if occ
                             else var_difference_certificate(p, q))
    if v.fails:
        x = v.witness
        pq = p.evaluate(x) * q.evaluate(x)
        return Verdict(FAILS, witness=x, margin=x * v.margin / pq if occ else v.margin / (pq * pq))
    return v


def _lemma_pairs():
    return [(P_CUBE, Q_CLIQUES), (P_CUBE, Poly([1, 9, 30, 44, 24, 9])),
            (P_CUBE, Poly([1, 9, 30, 44, 24, 10])), (Poly([1, 4, 2, 2]), Poly([1, 2, 1, 1])),
            (Poly([1, 10, 210, 21, 21, 21]), Poly([1, 10, 10, 1, 1, 1])),
            (Poly([1, 10, 1, 20010, 2001, 2001]), Poly([1, 10, 1, 10, 1, 1]))]


def _interior_zero_pairs():
    rng = SplitMix64(808)
    pairs = [(Poly([1, 0, 1]), Poly([1, 0, 2])), (Poly([1, 0, 0, 5]), Poly([1, 3])),
             (Poly([1, 2]), Poly([1, 0, 0, 0, 1]))]
    for _ in range(300):
        pairs.append(tuple(Poly([1] + [rng.randrange(4) * rng.randrange(30)
                                       for _ in range(1 + rng.randrange(8))]) for _ in range(2)))
    return pairs


def _assert_pointwise_match(pairs):
    fails = 0
    for p, q in pairs:
        for kind in ("PART", "OCC", "VAR"):
            got, want = compare(kind, p, q), _pointwise_by_polys(kind, p, q)
            assert typed(got) == typed(want), (kind, p, q)
            fails += got.fails
    return fails


def test_pointwise_orderings_match_the_poly_route():
    # compare decides PART, OCC and VAR on integer coefficients, from the
    # positive-root bound; the Poly route from Cauchy's bound must give the
    # same status, witness and margin, types included.
    rng = SplitMix64(20260809)
    web = [random_generating_pair(rng) for _ in range(4096)]
    assert _assert_pointwise_match(web) > 1000
    assert _assert_pointwise_match(_lemma_pairs()) == 3
    assert _assert_pointwise_match(_interior_zero_pairs()) > 200


def test_pointwise_orderings_on_rational_pairs():
    # Rational coefficients on one side, the other or both are scaled by one
    # common denominator before the integer decision; every kind runs, and
    # the pointwise ones match the Poly route.
    rng = SplitMix64(2718)

    def draw(rational):
        cs = [1 + rng.randrange(30) for _ in range(1 + rng.randrange(6))]
        if rational:
            cs = [F(c, 1 + rng.randrange(12)) for c in cs]
        return Poly([1] + cs)

    pairs = [(Poly([1, F(1, 2)]), Poly([1, F(1, 3)])), (Poly([1, F(1, 2), F(1, 5)]), Poly([1, F(1, 3)])),
             (Poly([1, F(4, 2), F(6, 3)]), Poly([1, 2, 2])), (Poly([1, F(1, 2)]), Poly([1, F(1, 2)]))]
    for i in range(600):
        pairs.append((draw(i % 3 != 1), draw(i % 3 != 0)))
    for p, q in pairs:
        verdicts = compare_all(p, q)
        assert not implication_web_check(p, q)["violations"]
        assert all(verdicts[kind] == compare(kind, p, q) for kind in OrderingKind)
    assert _assert_pointwise_match(pairs) > 300
    v = compare("VAR", Poly([1, F(1, 2), F(1, 5)]), Poly([1, F(1, 3)]))
    assert v.fails and v.witness == 45 and v.margin == F(-3615, 188018944)


def _violates(kind: str, p: Poly, q: Poly, w) -> bool:
    """Whether p < q in the pointwise kind's defining quantity at w: the
    partition function, the occupancy fraction x p'/p, or the variance
    x (x p'/p)', each evaluated from p and q in Fractions."""
    def quantities(f: Poly):
        d = f.derivative()
        z, d1, d2 = f.evaluate(w), d.evaluate(w), d.derivative().evaluate(w)
        e = w * d1 / z
        return z, e, e + w * w * d2 / z - e * e

    index = ("PART", "OCC", "VAR").index(kind)
    return quantities(p)[index] < quantities(q)[index]


def test_every_failing_witness_violates_its_definition():
    # On the repro web's 2,000 pairs and the lemma pairs, every failing PART
    # and VAR witness, and every OCC witness above 0, shows p below q in the
    # ordering's own quantity.  An OCC witness of 0, where both occupancy
    # fractions are 0, shows nothing: that count is pinned until the OCC
    # decision returns a positive point.
    rng = SplitMix64(20260809)
    pairs = [random_generating_pair(rng) for _ in range(2000)] + _lemma_pairs()
    fails = {"PART": 0, "OCC": 0, "VAR": 0}
    occ_at_zero = 0
    for p, q in pairs:
        for kind in fails:
            v = compare(kind, p, q)
            if v.holds:
                continue
            fails[kind] += 1
            if kind == "OCC" and v.witness == 0:
                occ_at_zero += 1
                continue
            assert v.witness > 0 and _violates(kind, p, q, v.witness), (kind, p, q)
    assert min(fails.values()) > 100, fails
    assert occ_at_zero == 974
