"""Mechanical verification of the displayed extremal bounds at exact or
certified precision.

Exact comparisons clear logarithms to integer-power comparisons of rationals
and never return inconclusive.  Transcendental comparisons go through
rational-interval enclosures; when enclosures overlap, the tolerance is
refined by factors of ten down to a floor before reporting inconclusive, so
rounding can never masquerade as a verdict.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from math import lcm, log10

from .graphs import Graph, bits_of, generate, path_graph
from .hardcore import (
    HardCoreProfile,
    _profile_of,
    _require_vertices,
    cycle_polynomial,
)
from .intervals import RationalInterval, _lift, _positive_tol, lambert_w_bisection, log_series
from .polynomials import Poly, RatFunc, _int_horner, var_numerator
from .roots import isolate_positive_roots
from .verdict import FAILS, HOLDS, INCONCLUSIVE, _jsonify, _refuse_digits, format_rational

DEFAULT_TOL = Fraction(1, 10**9)
TOL_FLOOR = Fraction(1, 10**30)
# The local-occupancy check enumerates all 2^d subsets of each neighborhood.
MAX_DEGREE_BUDGET = 20


@dataclass
class BoundCheck:
    """One verified comparison, in the report currency shared by the corpus
    runner and the command line."""

    name: str
    graph: str
    lam: Fraction | None
    status: str
    lhs: object = None
    rhs: object = None
    margin: object = None
    witness: object = None
    note: str | None = None

    @property
    def holds(self) -> bool:
        return self.status == HOLDS

    def to_json(self) -> dict:
        out = {
            "bound": self.name,
            "graph": self.graph,
            "lambda": _jsonify(self.lam),
            "status": self.status,
            "lhs": _jsonify(self.lhs),
            "rhs": _jsonify(self.rhs),
            "margin": _jsonify(self.margin),
        }
        if self.witness is not None:
            out["witness"] = _jsonify(self.witness)
        if self.note:
            out["note"] = self.note
        return out


def _positive_lam(lam) -> Fraction:
    """The fugacity as a Fraction; every bound here needs lam > 0."""
    lam = Fraction(lam)
    if lam <= 0:
        raise ValueError("fugacity must be positive")
    return lam


def _inputs(g: Graph | HardCoreProfile, lam) -> tuple[HardCoreProfile, Graph, Fraction]:
    """The one input contract of a per-graph check: lam > 0, then a graph or
    profile with at least one vertex.  Returns (profile, its graph, lam)."""
    lam = _positive_lam(lam)
    prof = _profile_of(g)
    _require_vertices(prof.graph)
    return prof, prof.graph, lam


def _exact_le(name: str, g: Graph, lam: Fraction, lhs: Fraction, rhs: Fraction,
              note: str | None = None) -> BoundCheck:
    return BoundCheck(name, g.display_name(), lam, HOLDS if lhs <= rhs else FAILS,
                      lhs=lhs, rhs=rhs, margin=rhs - lhs, note=note)


def _interval_le(name: str, g: Graph, lam: Fraction, make_lhs, make_rhs, tol) -> BoundCheck:
    """Certify lhs <= rhs where either side is an enclosure factory tol -> value."""
    tol = _positive_tol(tol)
    while True:
        lhs = make_lhs(tol)
        rhs = make_rhs(tol)
        lhs_i, rhs_i = _lift(lhs), _lift(rhs)
        if lhs_i.certainly_le(rhs_i):
            return BoundCheck(name, g.display_name(), lam, HOLDS,
                              lhs=lhs, rhs=rhs, margin=rhs_i.lo - lhs_i.hi)
        if rhs_i.certainly_lt(lhs_i):
            return BoundCheck(name, g.display_name(), lam, FAILS,
                              lhs=lhs, rhs=rhs, margin=rhs_i.hi - lhs_i.lo,
                              witness=(lhs_i, rhs_i))
        if tol <= TOL_FLOOR:
            return BoundCheck(name, g.display_name(), lam, INCONCLUSIVE,
                              lhs=lhs, rhs=rhs,
                              margin=RationalInterval(rhs_i.lo - lhs_i.hi, rhs_i.hi - lhs_i.lo))
        tol /= 10


# -- partition-function helpers ----------------------------------------------

def bipartite_partition_value(a: int, b: int, lam: Fraction) -> Fraction:
    """Z of the complete bipartite graph on parts a, b at a rational point."""
    return (1 + lam) ** a + (1 + lam) ** b - 1


def bipartite_occupancy_value(a: int, b: int, lam: Fraction) -> Fraction:
    """Expected occupied fraction of K_{a,b}, a, b >= 1:
    lam (a (1+lam)^(a-1) + b (1+lam)^(b-1)) / ((a+b) Z), whose numerator and
    denominator times q^max(a, b) are integers at lam = p/q, with 1+lam = s/q."""
    p, q = lam.numerator, lam.denominator
    s, m = q + p, max(a, b)
    qa, qb = q ** (m - a), q ** (m - b)
    return Fraction(p * (a * s ** (a - 1) * qa + b * s ** (b - 1) * qb),
                    (a + b) * (s ** a * qa + s ** b * qb - q ** m))


def clique_occupancy_value(d: int, lam: Fraction) -> Fraction:
    """Expected occupied fraction of the (d+1)-clique: lam / (1 + (d+1) lam),
    which is p / (q + (d+1) p) at lam = p/q."""
    p = lam.numerator
    return Fraction(p, lam.denominator + (d + 1) * p)


# -- free energy -----------------------------------------------------------

def _cleared(*powers: tuple[Fraction, int]) -> Fraction:
    """The product of base ** exp over powers, one side of a comparison
    cleared of logarithms, which a report prints in full.  A side whose
    numerator or denominator would pass Python's integer-to-string digit
    limit is refused before any power is taken, as the powers alone can
    cost tens of seconds on a dense 20-vertex graph; the estimate, the sum
    of exp log10(part) over the factors, ignores cancellation between them."""
    for digits in (sum(exp * log10(base.numerator) for base, exp in powers),
                   sum(exp * log10(base.denominator) for base, exp in powers)):
        _refuse_digits(digits, "a cleared side")
    out = Fraction(1)
    for base, exp in powers:
        out *= base ** exp
    return out


def check_free_energy_bounds(g: Graph | HardCoreProfile, lam) -> list[BoundCheck]:
    """Every displayed free-energy comparison, decided exactly by clearing
    logarithms to cross-power comparisons over the rationals."""
    prof, g, lam = _inputs(g, lam)
    zv = prof.z.evaluate(lam)
    n = g.n
    out = []

    # (1/n) log(1 + n lam) <= (1/n) log Z  <=>  1 + n lam <= Z
    out.append(_exact_le("free_energy.complete_floor", g, lam, 1 + n * lam, _cleared((zv, 1))))
    # (1/n) log Z <= log(1 + lam)  <=>  Z <= (1 + lam)^n
    out.append(_exact_le("free_energy.edgeless_ceiling", g, lam, zv, _cleared((1 + lam, n))))

    delta = g.max_degree
    if delta >= 1:
        # (1/(d+1)) log(1+(d+1)lam) <= (1/n) log Z, valid for max degree d.
        out.append(_exact_le(
            "free_energy.clique_floor", g, lam,
            _cleared((1 + (delta + 1) * lam, n)), _cleared((zv, delta + 1))))
        if all(d == delta for d in g.degrees()):
            # (1/n) log Z <= (1/2d) log(2(1+lam)^d - 1), regular graphs only.
            out.append(_exact_le(
                "free_energy.biregular_ceiling", g, lam,
                _cleared((zv, 2 * delta)), _cleared((2 * (1 + lam) ** delta - 1, n))))

    # Degree-sequence floor: prod_u Z_{K_{d_u+1}}^{1/(d_u+1)} <= Z, cleared by
    # the lcm of the exponent denominators.
    m = lcm(*(d + 1 for d in g.degrees()))
    floor_prod = _cleared(*((1 + (d + 1) * lam, m // (d + 1)) for d in g.degrees()))
    out.append(_exact_le("free_energy.degree_floor", g, lam, floor_prod, _cleared((zv, m))))

    # Degree-sequence ceiling: edge-based product of biclique terms, with the
    # separate edgeless-vertex factor as displayed.
    edges = g.edges()
    isolated = sum(1 for d in g.degrees() if d == 0)
    me = lcm(*(g.degree(u) * g.degree(v) for u, v in edges))
    ceil_prod = _cleared(
        *((bipartite_partition_value(g.degree(u), g.degree(v), lam),
           me // (g.degree(u) * g.degree(v))) for u, v in edges),
        (1 + lam, isolated * me))
    out.append(_exact_le("free_energy.degree_ceiling", g, lam, _cleared((zv, me)), ceil_prod))
    return out


def check_vertex_f_upper_counterexample(g: Graph | HardCoreProfile, lam) -> BoundCheck:
    """The vertex-based biclique ceiling (1/n) sum_u F_{K_{d_u, d_u}}: a
    natural guess that fails; the comparison is decided exactly and the
    verdict simply reports which way it went."""
    prof, g, lam = _inputs(g, lam)
    if min(g.degrees()) < 1:
        raise ValueError("vertex-based ceiling needs minimum degree one")
    zv = prof.z.evaluate(lam)
    m = lcm(*(2 * d for d in g.degrees()))
    rhs = _cleared(*((2 * (1 + lam) ** d - 1, m // (2 * d)) for d in g.degrees()))
    return _exact_le("free_energy.vertex_biregular_ceiling", g, lam, _cleared((zv, m)), rhs)


# -- occupancy ---------------------------------------------------------------

def check_occupancy_bounds(g: Graph | HardCoreProfile, lam) -> list[BoundCheck]:
    prof, g, lam = _inputs(g, lam)
    e = prof.expectation_at(lam)
    # The complete floor and the edgeless ceiling are the occupancy of K_n
    # and of K_1.
    out = [
        _exact_le("occupancy.complete_floor", g, lam, clique_occupancy_value(g.n - 1, lam), e),
        _exact_le("occupancy.edgeless_ceiling", g, lam, e, clique_occupancy_value(0, lam)),
    ]
    delta = g.max_degree
    if delta >= 1:
        out.append(_exact_le(
            "occupancy.clique_floor", g, lam, clique_occupancy_value(delta, lam), e))
        if all(d == delta for d in g.degrees()):
            out.append(_exact_le(
                "occupancy.biregular_ceiling", g, lam,
                e, bipartite_occupancy_value(delta, delta, lam)))
    in_range = lam.numerator * (delta + 1) ** 2 <= 3 * lam.denominator
    out.append(_exact_le(
        "occupancy.degree_floor", g, lam, degree_floor_value(g, lam), e,
        note=None if in_range else "outside the guaranteed fugacity range; exploratory"))
    return out


def degree_floor_value(g: Graph, lam: Fraction) -> Fraction:
    """(1/n) sum_u lam / (1 + (d_u + 1) lam).  At lam = p/q each term is
    p / (q + (d + 1) p), so the c_d vertices of degree d add the pair
    (c_d p, q + (d + 1) p) to one common-denominator mean."""
    _, g, lam = _inputs(g, lam)
    p, q = lam.numerator, lam.denominator
    return _pair_mean(((c * p, q + (d + 1) * p) for d, c in Counter(g.degrees()).items()), g.n)


def check_occupancy_tf(g: Graph | HardCoreProfile, lam, tol=DEFAULT_TOL) -> BoundCheck:
    """Triangle-free degree-sequence floor with the Lambert-W weight,
    certified by enclosures: (1/n) sum_u (lam/(1+lam)) W(d_u L)/(d_u L) with
    L = log(1+lam) must not exceed the exact occupancy fraction."""
    prof, g, lam = _inputs(g, lam)
    tol = _positive_tol(tol)
    if not g.is_triangle_free():
        raise ValueError("triangle-free floor requires a triangle-free graph")
    e = prof.expectation_at(lam)
    degree_counts = Counter(g.degrees())
    weights = _tf_weights(lam)

    def lhs(tol: Fraction) -> RationalInterval:
        w = weights(degree_counts, tol / (2 * len(degree_counts)))
        # (1/n) sum_d count_d w(d) at each endpoint.
        return RationalInterval(*(
            _pair_mean(((count * w[d][end][0], w[d][end][1])
                        for d, count in degree_counts.items()), g.n)
            for end in (0, 1)))

    return _interval_le("occupancy.triangle_free_degree_floor", g, lam,
                        lhs, lambda _: e, tol)


def _pair_mean(pairs, n: int) -> Fraction:
    """(1/n) sum num / den over the integer pairs (num, den), den > 0, as one
    Fraction over the product of the denominators."""
    num, den = 0, 1
    for pn, pd in pairs:
        num, den = num * pd + pn * den, den * pd
    return Fraction(num, den * n)


def _tf_weights(lam: Fraction):
    """weights(degrees, tol): endpoints (lo, hi) of enclosures of the
    triangle-free weight w(d) = s W(d L) / (d L), with s = lam / (1 + lam)
    and L = log(1 + lam), for each d in degrees, at lam > 0, each endpoint
    an integer pair (num, den), den > 0, not normalised.  Callers pass
    lam > 0 and tol > 0, so the enclosure of L has L.lo > 0 (proved where it
    is read).  One enclosure of L at tol / 4 serves every d; W is enclosed
    at d L.lo and at d L.hi, each at tol / 4, and a W enclosure whose lower
    end is 0 takes the lower bound x / (1 + x) there.  Every factor is
    positive, so
    lo = s W(d L.lo).lo / (d L.hi) > 0 and hi = s W(d L.hi).hi / (d L.lo);
    w(0) = s exactly.

    weights owns one ``log_series(1 + lam)`` and one ``lambert_w_bisection``
    per argument of W, the integer pair (d L.num, L.den).  A check calls it
    in each refinement round: the series sums on from the terms the last
    round reached, the argument repeats while the enclosure of L does, and
    the round resumes its bisection, with the enclosures of a fresh start."""
    s = lam / (1 + lam)
    sn, sd = s.numerator, s.denominator
    log = log_series(1 + lam)

    @cache
    def bisection(xn: int, xd: int):
        return lambert_w_bisection(Fraction(xn, xd))

    def weights(degrees, tol: Fraction) -> dict[int, tuple[tuple[int, int], tuple[int, int]]]:
        quarter = tol / 4
        log_enc = log(quarter)
        # The weights divide by L.lo, which is > 0 at every lam > 0 and
        # tol > 0.  log_series halves 1 + lam k times into m in (3/4, 3/2] and
        # sums 2 atanh(y), y = (m - 1) / (m + 1), |y| <= 1/5, so each series
        # tail is at most 1/72 of the first term 2|y|.  For k = 0,
        # y = lam / (2 + lam) > 0 and L.lo >= (71/72) 2y.  For k >= 1, the
        # reduced term's lo is at least log(3/4) - 1/252 and the lo of each of
        # the k copies of log 2 at least 2/3 - 1/36, so L.lo > 0.34.
        lln, lld = log_enc.lo.numerator, log_enc.lo.denominator
        lhn, lhd = log_enc.hi.numerator, log_enc.hi.denominator
        out = {}
        for d in degrees:
            if d == 0:
                out[d] = ((sn, sd), (sn, sd))
                continue
            ln, ld, _, _ = bisection(d * lln, lld)(quarter)
            if not ln:
                # W(d L.lo) lies below the enclosure's resolution.  W(x) <= log(1 + x)
                # at x >= 0, as (1 + x) log(1 + x) >= x, so W(x) = x e^-W(x) >= x / (1 + x).
                ln, ld = d * lln, lld + d * lln
            _, _, hn, hd = bisection(d * lhn, lhd)(quarter)
            out[d] = ((sn * ln * lhd, sd * ld * d * lhn), (sn * hn * lld, sd * hd * d * lln))
        return out

    return weights


# -- variance -----------------------------------------------------------------

def check_variance_bounds(g: Graph | HardCoreProfile, lam) -> list[BoundCheck]:
    prof, g, lam = _inputs(g, lam)
    v = prof.variance_at(lam)
    n = g.n
    # lam / (1 + k lam)^2 is p q / (q + k p)^2 at lam = p/q.
    p, q = lam.numerator, lam.denominator
    floor_note = None if p * (2 * n - 1) < q else \
        "outside the guaranteed fugacity window; exploratory"
    ceil_note = None if p * n <= q else \
        "outside the guaranteed fugacity window; exploratory"
    return [
        _exact_le("variance.complete_floor", g, lam,
                  Fraction(p * q, (q + n * p) ** 2), v, note=floor_note),
        _exact_le("variance.edgeless_ceiling", g, lam,
                  v, Fraction(p * q, (q + p) ** 2), note=ceil_note),
        _exact_le("variance.clique_floor_conjecture", g, lam,
                  Fraction(p * q, (q + (g.max_degree + 1) * p) ** 2), v,
                  note="conjectured range-unrestricted floor; exploratory"),
    ]


def check_p5_threshold() -> list[BoundCheck]:
    """The five-vertex path has variance fraction above the edgeless ceiling
    from 33 on: strict inequality at 33 exactly, the last sign change pinned
    inside (32, 33], and failure at 1."""
    g = path_graph(5)
    prof = HardCoreProfile(g)
    # The numerator of V - lam/(1+lam)^2 over the manifestly positive
    # denominator n Z^2 (1+lam)^2.
    z, one_plus = prof.z, Poly([1, 1])
    gap = prof.variance_numerator * one_plus * one_plus - g.n * Poly([0, 1]) * z * z
    out = []

    v33 = prof.variance_at(33)
    ceiling33 = Fraction(33, 34 ** 2)
    out.append(BoundCheck(
        "variance.p5_exceeds_ceiling_at_33", g.display_name(), Fraction(33),
        HOLDS if v33 > ceiling33 else FAILS, lhs=ceiling33, rhs=v33,
        margin=v33 - ceiling33))

    out.append(_exact_le("variance.p5_below_ceiling_at_1", g, Fraction(1),
                         prof.variance_at(1), Fraction(1, 4)))

    intervals = isolate_positive_roots(gap, max_width=Fraction(1, 1000))
    last = intervals[-1] if intervals else None
    pinned = last is not None and Fraction(32) <= last[0] and last[1] <= Fraction(33)
    positive_tail = gap.lc > 0 and gap.evaluate(33) > 0
    out.append(BoundCheck(
        "variance.p5_threshold_root", g.display_name(), None,
        HOLDS if pinned and positive_tail else FAILS,
        lhs=last, rhs=(Fraction(32), Fraction(33)),
        note="largest sign change of the gap numerator, isolated to width 1/1000"))
    return out


def check_cycle_growth(n: int, lams) -> BoundCheck:
    """Finite-size growth of V_{C_n}(lam) / (lam/(1+lam)^2), exactly, along a
    fugacity ladder (the limiting statement is out of scope at desk scale)."""
    lams = [_positive_lam(l) for l in lams]
    if not lams:
        raise ValueError("fugacity ladder is empty")
    z = cycle_polynomial(n)
    num = var_numerator(z)
    ratios = [num.evaluate(l) * (1 + l) ** 2 / (n * z.evaluate(l) ** 2 * l) for l in lams]
    increasing = all(a < b for a, b in zip(ratios, ratios[1:]))
    return BoundCheck(
        "variance.cycle_ratio_growth", f"cycle:{n}", lams[-1],
        HOLDS if increasing else FAILS,
        lhs=tuple(ratios), rhs=None,
        note="exact ratios along the fugacity ladder " + ",".join(map(format_rational, lams)))


# -- local occupancy -----------------------------------------------------------

def check_local_occupancy(g: Graph | HardCoreProfile, beta, gamma, lam) -> BoundCheck:
    """Exhaustive check of the per-vertex neighborhood inequality family:
    for every u and every induced subgraph F of G[N(u)],
    beta (lam/(1+lam)) / Z_F + gamma lam Z_F' / Z_F >= 1.  The left side
    depends on F only through Z_F, so the strict minimum over the profile's
    neighborhood table (first (u, F) per Z_F) is the one over every (u, F).

    Every caller in the lab passes beta = 1 + 1/lam and gamma = 1.  There
    beta lam/(1+lam) = 1 and the inequality clears to
    sum_{k>=2} (k-1) i_k(F) lam^k >= 0, so the minimum is 1, reached at
    F empty, and the margin is exactly 0."""
    prof, g, lam = _inputs(g, lam)
    beta, gamma = Fraction(beta), Fraction(gamma)
    if g.max_degree > MAX_DEGREE_BUDGET:
        raise ValueError("neighborhood subset enumeration budget exceeded")
    # The value for F is (bn cd q^D + cn bd p H') / (bd cd H) at lam = p/q,
    # with beta s = bn / bd, gamma = cn / cd, H = q^D Z_F(lam) and
    # H' = q^(D-1) Z_F'(lam): values compare as numerator over H, by
    # cross-multiplying, and only the worst becomes a Fraction.
    p, q = lam.numerator, lam.denominator
    bs = beta * lam / (1 + lam)
    bn, bd, cn, cd = bs.numerator, bs.denominator, gamma.numerator, gamma.denominator
    worst = None
    for zf, dzf, u, mask in prof.neighborhood_table:
        num = bn * cd * q ** zf.degree + cn * bd * p * _int_horner(dzf.coeffs, p, q)
        h = _int_horner(zf.coeffs, p, q)
        if worst is None or num * worst[1] < worst[0] * h:
            worst = (num, h, u, mask)
    num, h, u, mask = worst
    value = Fraction(num, bd * cd * h)
    status = HOLDS if value >= 1 else FAILS
    return BoundCheck(
        "local_occupancy.certificate", g.display_name(), lam, status,
        lhs=1, rhs=value, margin=value - 1,
        witness=None if status == HOLDS else (u, sorted(bits_of(mask))),
        note=f"beta={format_rational(beta)} gamma={format_rational(gamma)}")


def _marginal_mass(prof: HardCoreProfile, lam: Fraction) -> dict[int, Fraction]:
    """For each degree d, the sum of the vertex marginals lam Z(G - N[u]) / Z
    at lam over the vertices u of degree d, from the profile."""
    rests = {}
    for rest, d in zip(prof.residuals, prof.graph.degrees()):
        rests[d] = rests.get(d, 0) + rest.evaluate(lam)
    scale = lam / prof.z.evaluate(lam)
    return {d: r * scale for d, r in rests.items()}


def check_clique_weighted_marginals(g: Graph | HardCoreProfile, lam) -> BoundCheck:
    """Average marginal weighted by the reciprocal clique occupancy weight
    lam / (1 + (d_u + 1) lam) is at least one, decided exactly."""
    prof, g, lam = _inputs(g, lam)
    total = sum(m / clique_occupancy_value(d, lam)
                for d, m in _marginal_mass(prof, lam).items()) / g.n
    return _exact_le("local_occupancy.clique_weighted_marginals", g, lam, Fraction(1), total)


def check_tf_weighted_marginals(g: Graph | HardCoreProfile, lam, tol=DEFAULT_TOL) -> BoundCheck:
    """Average marginal weighted by the reciprocal triangle-free Lambert-W
    weight is at least one, certified by enclosures."""
    prof, g, lam = _inputs(g, lam)
    tol = _positive_tol(tol)
    if not g.is_triangle_free():
        raise ValueError("triangle-free weight requires a triangle-free graph")
    mass = _marginal_mass(prof, lam)
    weights = _tf_weights(lam)

    def rhs(tol: Fraction) -> RationalInterval:
        # (1/n) sum_d mass_d / w(d): lo divides by w(d).hi and hi by w(d).lo.
        w = weights(mass, tol / (2 * g.n))
        return RationalInterval(*(
            _pair_mean(((m.numerator * w[d][end][1], m.denominator * w[d][end][0])
                        for d, m in mass.items()), g.n)
            for end in (1, 0)))

    return _interval_le("local_occupancy.tf_weighted_marginals", g, lam,
                        lambda _: Fraction(1), rhs, tol)


# -- combined chain -----------------------------------------------------------

def check_combined_chain(g: Graph | HardCoreProfile, lam, tol=DEFAULT_TOL) -> list[BoundCheck]:
    """The chain linking expectation and free energy:

        ((1+lam) log(1+lam)/lam) E <= F <= E log(lam) + h(E) <= E log(e lam / E)

    certified with outward-rounded enclosures at the given tolerance."""
    prof, g, lam = _inputs(g, lam)
    tol = _positive_tol(tol)
    # 0 < E < 1: each vertex is occupied with probability in (0, lam / (1 + lam)].
    e = prof.expectation_at(lam)
    # Each of the four comparisons prints a side built from E: an E past the
    # print limit is refused before the enclosures, which take seconds there.
    for part in (e.numerator, e.denominator):
        _refuse_digits(log10(part), "the occupancy fraction")

    # One series per argument serves every side and every refinement round.
    log_lam, log_1p, log_z, log_e, log_1me = (
        log_series(lam), log_series(1 + lam), log_series(prof.z.evaluate(lam)),
        log_series(e), log_series(1 - e))

    # Three comparisons read the free energy and two each the other
    # ceilings: each is enclosed once per tolerance within this call.
    @cache
    def free_energy(tol):
        return log_z(tol * g.n) * Fraction(1, g.n)

    def lower(tol):
        return log_1p(tol * lam / (2 * (1 + lam))) * ((1 + lam) / lam) * e

    @cache
    def entropy_form(tol):
        # E log lam + h(E), h(E) = -E log E - (1 - E) log(1 - E)
        return log_lam(tol / 2) * e - log_e(tol / 4) * e - log_1me(tol / 4) * (1 - e)

    @cache
    def final_form(tol):
        # E log(e lam / E) = E (1 + log lam - log E)
        return (1 + (log_lam(tol / 2) - log_e(tol / 2))) * e

    return [
        _interval_le("combined.expectation_floor", g, lam, lower, free_energy, tol),
        _interval_le("combined.entropy_ceiling", g, lam, free_energy, entropy_form, tol),
        _interval_le("combined.relaxed_ceiling", g, lam, entropy_form, final_form, tol),
        _interval_le("combined.free_energy_vs_relaxed", g, lam, free_energy, final_form, tol),
    ]


# -- edge-based occupancy counterexamples --------------------------------------

def edge_occupancy_sum(g: Graph, lam) -> Fraction:
    """(1/n) sum over edges of ((d_u+d_v)/(d_u d_v)) E_{K_{d_u, d_v}}(lam)."""
    _, g, lam = _inputs(g, lam)
    total = Fraction(0)
    for u, v in g.edges():
        du, dv = g.degree(u), g.degree(v)
        total += Fraction(du + dv, du * dv) * bipartite_occupancy_value(du, dv, lam)
    return total / g.n


DISPLAYED_OCCUPANCY = {
    "g1": (Poly([0, 6, 16, 12, 4]), 6 * Poly([1, 6, 8, 4, 1])),
    "g2": (Poly([0, 6, 18, 12, 4]), 6 * Poly([1, 6, 9, 4, 1])),
    "pasch": (Poly([0, 10, 66, 126, 80, 30, 6]), 10 * Poly([1, 10, 33, 42, 20, 6, 1])),
}


def check_edge_occ_counterexamples(lam=5) -> list[BoundCheck]:
    """For the three counterexample graphs: the engine-computed occupancy
    fraction matches the pinned closed form identically, and at the given
    fugacity the edge-based sum falls strictly below it."""
    lam = _positive_lam(lam)
    out = []
    for name in ("g1", "g2", "pasch"):
        prof = HardCoreProfile(generate(name))
        g = prof.graph
        num, den = DISPLAYED_OCCUPANCY[name]
        displayed = RatFunc(num, den)
        engine = prof.expectation
        out.append(BoundCheck(
            "occupancy.closed_form_identity", g.display_name(), None,
            HOLDS if engine == displayed else FAILS,
            lhs=f"{engine.num.to_text()} / {engine.den.to_text()}",
            rhs=f"{displayed.num.to_text()} / {displayed.den.to_text()}"))
        e = prof.expectation_at(lam)
        edge_sum = edge_occupancy_sum(g, lam)
        out.append(BoundCheck(
            "occupancy.edge_ceiling_violation", g.display_name(), lam,
            HOLDS if edge_sum < e else FAILS,
            lhs=edge_sum, rhs=e, margin=e - edge_sum,
            note="the would-be edge-based ceiling falls below the true value"))
    return out
