"""Bound checks: free energy, occupancy, variance, local occupancy, chain."""

import json
import random
import time
from collections import Counter
from fractions import Fraction as F

import pytest

from hardcore_lab import bounds, cli, corpus, graphs
from hardcore_lab.cli import main
from hardcore_lab.graphs import (
    bits_of,
    complete_bipartite,
    complete_graph,
    cycle_graph,
    empty_graph,
    encode_graph6,
    from_edges,
    generate,
    pasch_graph,
    path_graph,
    petersen_graph,
)
from hardcore_lab.hardcore import (
    HardCoreProfile,
    independence_polynomial,
    subset_polynomial,
)
from hardcore_lab.intervals import (
    RationalInterval,
    entropy_interval,
    free_energy_interval,
    lambert_w_interval,
    log1p_interval,
    log_series,
)
from hardcore_lab.polynomials import Poly, var_numerator
from hardcore_lab.sampler import SplitMix64
from hardcore_lab.verdict import FAILS, HOLDS, INCONCLUSIVE


def _by_name(checks, name):
    return [c for c in checks if c.name == name][0]


def test_free_energy_bounds_hold_on_sample():
    for spec in ("path:3", "kn:4", "kab:2,2", "cycle:5", "pasch"):
        g = generate(spec)
        for lam in (F(1, 2), F(1), F(2)):
            for c in bounds.check_free_energy_bounds(g, lam):
                assert c.holds, (spec, lam, c.name)


def test_free_energy_clique_floor_equality():
    c = _by_name(bounds.check_free_energy_bounds(complete_graph(4), 1),
                 "free_energy.clique_floor")
    assert c.holds and c.margin == 0


def test_free_energy_biregular_ceiling_equality():
    c = _by_name(bounds.check_free_energy_bounds(complete_bipartite(2, 2), 1),
                 "free_energy.biregular_ceiling")
    assert c.holds and c.margin == 0


def test_free_energy_degree_floor_path3():
    # at fugacity 1 the cleared comparison is 11664 <= 15625
    c = _by_name(bounds.check_free_energy_bounds(path_graph(3), 1),
                 "free_energy.degree_floor")
    assert c.holds and c.lhs == 11664 and c.rhs == 15625


def test_free_energy_isolated_vertex_term():
    g = generate("kn:2 + empty:1")
    c = _by_name(bounds.check_free_energy_bounds(g, 1), "free_energy.degree_ceiling")
    assert c.holds


def test_vertex_ceiling_counterexample():
    c = bounds.check_vertex_f_upper_counterexample(path_graph(4), 1)
    assert c.status == FAILS and c.lhs == 4096 and c.rhs == 3969

    # The violation is not a single-point accident: the cleared gap is
    # exactly the fourth power of the fugacity, positive for every lam > 0.
    lam = Poly([0, 1])
    z = Poly([1, 4, 3])
    gap = z ** 2 - Poly([1, 2]) ** 2 * Poly([1, 4, 2])
    assert gap == lam ** 4
    assert bounds.check_vertex_f_upper_counterexample(path_graph(4), F(1, 100)).status == FAILS

    # For regular graphs the vertex form collapses to the biregular ceiling.
    c = bounds.check_vertex_f_upper_counterexample(cycle_graph(4), 1)
    assert c.holds and c.margin == 0  # the 4-cycle is the extremal biclique

    # An isolated vertex has no biclique K_{d,d} to compare with.
    with pytest.raises(ValueError, match="^vertex-based ceiling needs minimum degree one$"):
        bounds.check_vertex_f_upper_counterexample(generate("path:3 + empty:1"), 1)


def test_occupancy_bounds_sample():
    for spec in ("kn:4", "kab:1,3", "pasch", "petersen"):
        g = generate(spec)
        lam = F(3, (g.max_degree + 1) ** 2)
        for c in bounds.check_occupancy_bounds(g, lam):
            assert c.holds, (spec, c.name)


def test_occupancy_degree_floor_equality_on_cliques():
    c = _by_name(bounds.check_occupancy_bounds(complete_graph(5), F(7, 3)),
                 "occupancy.degree_floor")
    assert c.holds and c.margin == 0


def test_occupancy_degree_floor_strict_on_star():
    c = _by_name(bounds.check_occupancy_bounds(generate("kab:1,3"), F(3, 16)),
                 "occupancy.degree_floor")
    assert c.holds and c.margin > 0


def test_occupancy_out_of_range_is_noted():
    c = _by_name(bounds.check_occupancy_bounds(path_graph(3), F(10)),
                 "occupancy.degree_floor")
    assert c.note is not None


def test_occupancy_tf_exact_on_edgeless():
    c = bounds.check_occupancy_tf(empty_graph(4), F(1, 2))
    assert c.holds and c.margin == 0


def test_occupancy_tf_named():
    for g, lam in [(petersen_graph(), F(1, 10**4)), (cycle_graph(5), F(1, 100))]:
        c = bounds.check_occupancy_tf(g, lam)
        assert c.status == HOLDS and c.margin > 0


def test_interval_le_fails_on_disjoint_enclosures():
    # lhs lies certainly above rhs: both enclosures are the witness and the
    # margin is rhs.hi - lhs.lo.
    lhs, rhs = RationalInterval(F(2), F(3)), RationalInterval(F(0), F(1))
    c = bounds._interval_le("planted", path_graph(2), F(1), lambda _: lhs, lambda _: rhs,
                            bounds.DEFAULT_TOL)
    assert (c.status, c.witness, c.margin) == (FAILS, (lhs, rhs), -1)
    assert c.to_json()["witness"] == ["[2, 3]", "[0, 1]"]


def test_occupancy_tf_fails_with_a_witness_under_planted_weights(monkeypatch, capsys):
    # Weights 1% too large put the floor of cycle:5 at lambda = 1/1600 above
    # its occupancy fraction: the certified comparison fails, end to end.
    honest = bounds._tf_weights

    def inflated(lam):
        weights = honest(lam)
        return lambda degrees, tol: {
            d: tuple((101 * num, 100 * den) for num, den in ends)
            for d, ends in weights(degrees, tol).items()}

    monkeypatch.setattr(bounds, "_tf_weights", inflated)
    witness = ["[83184119726103/132023863000170496, 2599503953607/4125745450319872]",
               "[1602/2568005, 1602/2568005]"]
    c = bounds.check_occupancy_tf(cycle_graph(5), F(1, 1600))
    assert c.status == FAILS
    assert c.margin == F(1602, 2568005) - F(83184119726103, 132023863000170496)  # about -6.24e-6
    assert c.to_json()["witness"] == witness
    assert main(["bound", "occupancy_tf", "cycle:5", "--lambda", "1/1600"]) == 2
    line = json.loads(capsys.readouterr().out)
    assert (line["status"], line["witness"]) == ("fails", witness)


def test_occupancy_tf_rejects_triangles():
    with pytest.raises(ValueError):
        bounds.check_occupancy_tf(complete_graph(3), F(1, 10))


def test_variance_window():
    for spec in ("kn:4", "path:5", "cycle:6", "kab:2,3"):
        g = generate(spec)
        for lam in (F(1, 2 * g.n), F(1, g.n)):
            for c in bounds.check_variance_bounds(g, lam):
                if "conjecture" in c.name:
                    continue
                assert c.holds, (spec, lam, c.name)


def test_variance_equalities():
    c = _by_name(bounds.check_variance_bounds(complete_graph(6), F(1, 12)),
                 "variance.complete_floor")
    assert c.margin == 0
    c = _by_name(bounds.check_variance_bounds(empty_graph(6), F(1, 6)),
                 "variance.edgeless_ceiling")
    assert c.margin == 0


def test_p5_threshold():
    checks = bounds.check_p5_threshold()
    by_name = {c.name: c for c in checks}
    at33 = by_name["variance.p5_exceeds_ceiling_at_33"]
    assert at33.holds and at33.margin == F(11355003, 214439624180)
    at1 = by_name["variance.p5_below_ceiling_at_1"]
    assert at1.holds and at1.lhs == F(94, 845)
    root = by_name["variance.p5_threshold_root"]
    assert root.holds
    lo, hi = root.lhs
    assert F(32) <= lo < hi <= F(33)


def test_cycle_growth_ladder():
    c = bounds.check_cycle_growth(500, (100, 1000, 10000))
    assert c.holds
    assert c.lhs[-1] > 10
    # n = 4 smoke value: V_{C4}(1) = 5/49, so the ratio is 4 * 5/49
    assert bounds.check_cycle_growth(4, (1,)).lhs[0] == F(20, 49)
    # The ratio and V_{C_n} against the derivative route
    # V = lam ((Z' + lam Z'') Z - lam Z'^2) / (n Z^2).
    for n in (3, 4, 7):
        g = cycle_graph(n)
        z = independence_polynomial(g)
        d1 = z.derivative()
        for lam in (F(1), F(1, 3), F(7, 2), F(100)):
            zv, d1v, d2v = z.evaluate(lam), d1.evaluate(lam), d1.derivative().evaluate(lam)
            v = lam * ((d1v + lam * d2v) * zv - lam * d1v * d1v) / (n * zv * zv)
            assert HardCoreProfile(g).variance_at(lam) == v
            assert bounds.check_cycle_growth(n, (lam,)).lhs[0] == v * (1 + lam) ** 2 / lam


def test_cycle_growth_refuses_an_empty_ladder():
    with pytest.raises(ValueError, match="^fugacity ladder is empty$"):
        bounds.check_cycle_growth(5, ())


def test_local_occupancy_default_parameters():
    for spec in ("kn:2", "cycle:5", "pasch", "kab:2,3"):
        g = generate(spec)
        for lam in (F(1, 2), F(1), F(2)):
            c = bounds.check_local_occupancy(g, 1 + 1 / lam, 1, lam)
            assert c.holds, (spec, lam)


def test_local_occupancy_zero_parameters_fail():
    c = bounds.check_local_occupancy(complete_graph(2), 0, 0, 1)
    assert c.status == FAILS
    u, subset = c.witness
    assert subset == []  # the empty neighborhood subgraph already fails


def _full_enumeration(g, beta, gamma, lam):
    """(status, rhs, margin, witness) of the local-occupancy certificate by
    evaluating every induced subgraph of every neighborhood, strict < for
    the worst: the check's behaviour before the neighborhood table."""
    s = lam / (1 + lam)
    worst = None
    for u in range(g.n):
        neighbors = list(bits_of(g.adj[u]))
        for picks in range(1 << len(neighbors)):
            mask = sum(1 << v for i, v in enumerate(neighbors) if picks >> i & 1)
            zf = subset_polynomial(g, mask)
            zfv = F(zf.evaluate(lam))
            value = beta * s / zfv + gamma * lam * zf.derivative().evaluate(lam) / zfv
            if worst is None or value < worst[0]:
                worst = (value, u, mask)
    value, u, mask = worst
    if value >= 1:
        return HOLDS, value, value - 1, None
    return FAILS, value, value - 1, (u, sorted(bits_of(mask)))


def test_local_occupancy_matches_full_enumeration():
    # The table keeps one entry per distinct Z_F at its first (u, F), so the
    # worst value and its witness must be those of the full enumeration,
    # for a graph and for one profile shared across the parameter sets.
    params = [(F(3), F(1), F(1, 2)), (F(1), F(1, 2), F(1)), (F(1, 2), F(1, 3), F(2)),
              (F(0), F(1), F(1)), (F(2), F(0), F(1, 3))]
    cases = failing = 0
    for g in corpus.connected_corpus(6):
        prof = HardCoreProfile(g)
        for beta, gamma, lam in params:
            expected = _full_enumeration(g, beta, gamma, lam)
            for source in (g, prof):
                c = bounds.check_local_occupancy(source, beta, gamma, lam)
                assert (c.status, c.rhs, c.margin, c.witness) == expected, (g.label, lam)
            cases += 1
            failing += expected[0] == FAILS
    assert (cases, failing) == (715, 572)


def test_local_occupancy_budget():
    with pytest.raises(ValueError):
        bounds.check_local_occupancy(generate("kab:1,21"), 2, 1, 1)


def test_triangle_free_neighborhoods_are_edgeless():
    for g in (cycle_graph(5), petersen_graph()):
        for u in range(g.n):
            neighbors = g.adj[u]
            sub = subset_polynomial(g, neighbors)
            assert sub == Poly([1, 1]) ** neighbors.bit_count()


def test_weighted_marginals_clique_equality():
    c = bounds.check_clique_weighted_marginals(complete_graph(4), F(1, 2))
    assert c.holds and c.margin == 0


def test_weighted_marginals_sample():
    for spec in ("path:4", "cycle:6", "kab:2,3", "pasch"):
        g = generate(spec)
        for lam in (F(1, 2), F(1), F(2)):
            c = bounds.check_clique_weighted_marginals(g, lam)
            assert c.holds, (spec, lam)


def test_weighted_marginals_tf():
    c = bounds.check_tf_weighted_marginals(petersen_graph(), F(1, 100))
    assert c.status == HOLDS


def test_weighted_marginals_tf_refines_past_a_zero_weight_end():
    # At lam = 10^-12 the first round's W(d L.lo) lies below the resolution of
    # its enclosure, whose lower end is then 0.  The weight's lower end falls
    # back to x / (1 + x) <= W(x), so every round is a finite enclosure: the
    # check refines to the floor, where the sum is still within 10^-20 of 1.
    lam = F(1, 10**12)
    coarse = _fractions(bounds._tf_weights(lam)({3}, F(1, 10**9) / 20)[3])
    tight = _fractions(bounds._tf_weights(lam)({3}, F(1, 10**40))[3])
    assert lambert_w_interval(3 * log1p_interval(lam, F(1, 10**9) / 80).lo,
                              F(1, 10**9) / 80).lo == 0
    assert 0 < coarse[0] <= tight[0] <= tight[1] <= coarse[1]
    c = bounds.check_tf_weighted_marginals(petersen_graph(), lam)
    assert c.status == INCONCLUSIVE
    assert F(-31, 10**22) < c.margin.lo < F(-29, 10**22) and c.margin.hi > 0


def test_weighted_marginals_tf_command_at_a_small_fugacity(capsys):
    code = main(["bound", "weighted_marginals_tf", "petersen", "--lambda", "1/1000000000000"])
    captured = capsys.readouterr()
    assert (code, captured.err) == (3, "")
    assert json.loads(captured.out)["status"] == INCONCLUSIVE


def test_weighted_marginals_tf_rejects_triangles():
    with pytest.raises(ValueError):
        bounds.check_tf_weighted_marginals(complete_graph(3), 1)


def _grid_edges():
    """The edges of the 8x8 grid, which is triangle-free."""
    edges = [(8 * r + c, 8 * r + c + 1) for r in range(8) for c in range(7)]
    return edges + [(8 * r + c, 8 * r + c + 8) for r in range(7) for c in range(8)]


def _grid_with_a_triangle():
    """The 8x8 grid plus the chord (0, 9), which closes the triangle 0, 1, 9."""
    return from_edges(64, _grid_edges() + [(0, 9)], "grid:8x8+chord")


def test_tf_weighted_marginals_refuse_a_triangle_before_any_engine_work():
    # The 64 residuals Z(G - N[u]) of this graph take seconds: the refusal
    # comes before them, and leaves the profile's memo empty.
    prof = HardCoreProfile(_grid_with_a_triangle())
    start = time.perf_counter()
    with pytest.raises(ValueError, match="triangle-free weight requires a triangle-free graph"):
        bounds.check_tf_weighted_marginals(prof, 1)
    assert time.perf_counter() - start < 0.5
    assert prof._memo == {}


def test_weighted_marginals_tf_command_refuses_a_triangle_at_once(capsys):
    spec = "g6:" + encode_graph6(_grid_with_a_triangle())
    start = time.perf_counter()
    code = main(["bound", "weighted_marginals_tf", spec, "--lambda", "1"])
    assert time.perf_counter() - start < 0.5
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (
        1, "", "error: triangle-free weight requires a triangle-free graph\n")


# The bounds whose checks read a tolerance.
_TOLERANT_BOUNDS = sorted(name for name, (_, reads) in cli.BOUNDS.items() if "--tol" in reads)


@pytest.mark.parametrize("name", _TOLERANT_BOUNDS)
def test_nonpositive_tolerance_is_refused_before_any_engine_work(name):
    # Z, E and the residuals of the grid take 0.2-3 s; a nonpositive tol is
    # refused before them.
    prof = HardCoreProfile(from_edges(64, _grid_edges(), "grid:8x8"))
    start = time.perf_counter()
    with pytest.raises(ValueError, match="tolerance must be positive"):
        cli.BOUNDS[name][0](prof, F(1, 100), 0)
    assert time.perf_counter() - start < 0.5
    assert prof._memo == {}


@pytest.mark.parametrize("command", [("bound", name) for name in _TOLERANT_BOUNDS]
                         + [("quantities",)], ids=lambda command: command[-1])
def test_nonpositive_tolerance_command_refuses_at_once(command, capsys):
    spec = "g6:" + encode_graph6(from_edges(64, _grid_edges()))
    start = time.perf_counter()
    code = main([*command, spec, "--lambda", "1/100", "--tol", "0"])
    assert time.perf_counter() - start < 0.5
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (1, "", "error: tolerance must be positive\n")


def test_combined_chain_samples():
    for spec in ("path:4", "kn:5", "cycle:5"):
        g = generate(spec)
        for lam in (F(1, 4), F(1), F(4)):
            for c in bounds.check_combined_chain(g, lam):
                assert c.holds, (spec, lam, c.name)


def test_combined_chain_edgeless_is_inconclusive_by_design():
    # The first inequality is an equality on edgeless graphs; enclosures can
    # never separate the sides, so the checker must refine to the floor and
    # say so instead of inventing a verdict.
    checks = bounds.check_combined_chain(empty_graph(2), F(1), tol=F(1, 10**28))
    first = [c for c in checks if c.name == "combined.expectation_floor"][0]
    assert first.status == INCONCLUSIVE


# -- combined chain: the one-shot enclosures as references ---------------------
#
# The chain's sides were first built from one-shot enclosures, each summing
# its log series afresh per side and per tolerance.  The library now reads
# one series per argument; a series read at tol gives the enclosure a fresh
# one gives there, so every check must be the same.

def _reference_combined_chain(g, lam, tol):
    prof = HardCoreProfile(g)
    e = prof.expectation_at(lam)

    def free_energy(tol):
        return free_energy_interval(prof.z, g.n, lam, tol)

    def lower(tol):
        return log1p_interval(lam, tol * lam / (2 * (1 + lam))) * ((1 + lam) / lam) * e

    def entropy_form(tol):
        return log_series(lam)(tol / 2) * e + entropy_interval(e, tol / 2)

    def final_form(tol):
        return (1 + (log_series(lam)(tol / 2) - log_series(e)(tol / 2))) * e

    return [
        bounds._interval_le("combined.expectation_floor", g, lam, lower, free_energy, tol),
        bounds._interval_le("combined.entropy_ceiling", g, lam, free_energy, entropy_form, tol),
        bounds._interval_le("combined.relaxed_ceiling", g, lam, entropy_form, final_form, tol),
        bounds._interval_le("combined.free_energy_vs_relaxed", g, lam, free_energy, final_form,
                            tol),
    ]


def test_combined_chain_matches_the_one_shot_enclosures():
    cases = [(g, lam, bounds.DEFAULT_TOL)
             for g in corpus.connected_corpus(6) if g.n >= 2
             for lam in (F(1, 4), F(1), F(4), F(1, 10**6), F(10**6), F(7, 3))]
    cases += [(generate(spec), F(1), F(1, 10**28)) for spec in ("empty:2", "empty:3")]
    cases += [(generate(spec), F(1), bounds.DEFAULT_TOL)
              for spec in ("path:4", "kn:5", "petersen")]
    assert len(cases) == 857
    fields = ("name", "status", "lhs", "rhs", "margin", "witness")
    for g, lam, tol in cases:
        got = bounds.check_combined_chain(g, lam, tol)
        want = _reference_combined_chain(g, lam, tol)
        assert [[getattr(c, f) for f in fields] for c in got] == \
            [[getattr(c, f) for f in fields] for c in want], (g.label, lam)
        assert json.dumps([c.to_json() for c in got]) == \
            json.dumps([c.to_json() for c in want]), (g.label, lam)


# -- triangle-free weight: the interval compositions as references -----------
#
# The weight and both triangle-free checks were first written as chained
# RationalInterval arithmetic, one log(1 + lam) enclosure per degree.  The
# library now encloses log(1 + lam) once per round and writes each endpoint
# directly; every endpoint must be the same rational.  The library's
# intervals no longer divide, so the compositions divide here.

def _quotient(a, b):
    """a / b: a times [1/b.hi, 1/b.lo], refused when b contains zero."""
    if b.lo <= 0 <= b.hi:
        raise ZeroDivisionError("division by an interval containing zero")
    return a * RationalInterval(1 / b.hi, 1 / b.lo)


def _fractions(weight):
    """A weight's endpoints, integer pairs (num, den), as Fractions."""
    return tuple(F(*end) for end in weight)


def _reference_tf_weight(d, lam, tol):
    s = lam / (1 + lam)
    if d == 0:
        return RationalInterval.point(s)
    log_enc = log1p_interval(lam, tol / 4)
    arg = log_enc * d
    # A W enclosure whose lower end is 0 falls back to W(x) >= x / (1 + x).
    w_enc = RationalInterval(
        lambert_w_interval(arg.lo, tol / 4).lo or arg.lo / (1 + arg.lo),
        lambert_w_interval(arg.hi, tol / 4).hi,
    )
    return _quotient(w_enc, log_enc * d) * s


def _reference_occupancy_tf(g, lam):
    e = HardCoreProfile(g).expectation_at(lam)
    counts = Counter(g.degrees())

    def lhs(tol):
        acc = RationalInterval.point(0)
        for d, count in counts.items():
            acc = acc + _reference_tf_weight(d, lam, tol / (2 * len(counts))) * F(count, g.n)
        return acc

    return bounds._interval_le("occupancy.triangle_free_degree_floor", g, lam,
                               lhs, lambda _: e, bounds.DEFAULT_TOL)


def _marginals_at(prof, lam):
    """Every vertex marginal lam Z(G - N[u]) / Z at lam, one Fraction per
    vertex: the route of the weighted-marginal checks before they summed the
    marginals per degree."""
    zv = F(prof.z.evaluate(lam))
    return [lam * rest.evaluate(lam) / zv for rest in prof.residuals]


def _reference_tf_weighted_marginals(g, lam):
    marginals = _marginals_at(HardCoreProfile(g), lam)

    def rhs(tol):
        acc = RationalInterval.point(0)
        for u, p in enumerate(marginals):
            enc = _reference_tf_weight(g.degree(u), lam, tol / (2 * g.n))
            acc = acc + _quotient(RationalInterval.point(p), enc) * F(1, g.n)
        return acc

    return bounds._interval_le("local_occupancy.tf_weighted_marginals", g, lam,
                               lambda _: F(1), rhs, bounds.DEFAULT_TOL)


def _same_check(check, ref):
    assert (check.status, check.lhs, check.rhs, check.margin, check.witness) == (
        ref.status, ref.lhs, ref.rhs, ref.margin, ref.witness)
    assert check.to_json() == ref.to_json()


def test_tf_weights_match_the_interval_composition():
    rng = random.Random(1983)
    cases, samples = 0, []
    for _ in range(60):
        lam = F(rng.randrange(1, 10**4), rng.randrange(1, 10**4)) * F(10) ** rng.randrange(-8, 4)
        tol = F(rng.randrange(1, 10), 10 ** rng.randrange(3, 31))
        degrees = sorted(set(rng.sample(range(13), 4)) | {0})
        samples.append((lam, degrees))
        # One call for several degrees shares one log enclosure; each
        # degree alone must give the same endpoints.
        together = bounds._tf_weights(lam)(degrees, tol)
        for d in degrees:
            ref = _reference_tf_weight(d, lam, tol)
            alone = bounds._tf_weights(lam)([d], tol)[d]
            assert _fractions(together[d]) == _fractions(alone) == (ref.lo, ref.hi), (d, lam, tol)
            cases += 1
    assert cases >= 250
    # One weights object walked down tenfold tolerances resumes its log
    # series and bisections from rung to rung, and every rung must equal the
    # one-shot reference.  The samples reach lam > 1/2, where log(1 + lam) is
    # reduced by a power of two; at lam = 10^-12 the W enclosure of 3 L.lo
    # has lower end 0 down to tol = 10^-10 and a positive one after.
    walks = samples[:10] + [(F(1, 10**12), [0, 3])]
    assert any(lam > F(1, 2) for lam, _ in walks)
    assert lambert_w_interval(3 * log1p_interval(F(1, 10**12), F(1, 4000)).lo, F(1, 4000)).lo == 0
    for lam, degrees in walks:
        weights = bounds._tf_weights(lam)
        for k in range(3, 31):
            tol = F(1, 10**k)
            got = weights(degrees, tol)
            for d in degrees:
                ref = _reference_tf_weight(d, lam, tol)
                assert _fractions(got[d]) == (ref.lo, ref.hi), (d, lam, tol)


def _criterion_05_stream():
    named = [cycle_graph(5), complete_bipartite(3, 3), petersen_graph()]
    rng = SplitMix64(50505)
    randoms = []
    while len(randoms) < 100:
        g = corpus.random_triangle_free_graph(4 + rng.randrange(9), rng)
        if g.max_degree >= 1:
            randoms.append(g)
    return named + randoms


def test_occupancy_tf_matches_the_interval_composition():
    for g in _criterion_05_stream():
        lam = F(1, 100 * g.max_degree ** 4)
        _same_check(bounds.check_occupancy_tf(g, lam), _reference_occupancy_tf(g, lam))
    for spec in ("empty:3", "path:3 + empty:1", "kab:2,3"):
        g = generate(spec)
        for lam in (F(1, 100), F(1), F(4)):
            _same_check(bounds.check_occupancy_tf(g, lam), _reference_occupancy_tf(g, lam))


def test_tf_weighted_marginals_match_the_interval_composition():
    # The check sums the marginals of each degree once and resumes one log
    # series across its rounds; the reference sums vertex by vertex through
    # one-shot enclosures.
    for spec in ("cycle:5", "kab:3,3", "petersen", "path:3 + empty:1"):
        g = generate(spec)
        for lam in (F(1, 100 * g.max_degree ** 4), F(1, 100), F(1), F(4)):
            check = bounds.check_tf_weighted_marginals(g, lam)
            _same_check(check, _reference_tf_weighted_marginals(g, lam))
    for g in _criterion_05_stream()[3:23]:
        lam = F(1, 100 * g.max_degree ** 4)
        _same_check(bounds.check_tf_weighted_marginals(g, lam),
                    _reference_tf_weighted_marginals(g, lam))
    for g in _criterion_05_stream()[23:29]:
        for lam in (F(1, 3), F(1), F(7, 2)):
            _same_check(bounds.check_tf_weighted_marginals(g, lam),
                        _reference_tf_weighted_marginals(g, lam))


def test_clique_weighted_marginals_match_the_per_vertex_sum():
    # The check sums the marginals of each degree once; the reference divides
    # every vertex's marginal by its own clique weight.
    rng = SplitMix64(3535)
    graphs = [generate(spec) for spec in
              ("kn:4", "path:4", "cycle:6", "kab:2,3", "pasch", "petersen", "path:3 + empty:2")]
    graphs += [corpus.random_graph(3 + rng.randrange(8), rng) for _ in range(12)]
    for g in graphs:
        for lam in (F(1, 100), F(1, 3), F(1), F(7, 2)):
            ref = sum(p / bounds.clique_occupancy_value(g.degree(u), lam)
                      for u, p in enumerate(_marginals_at(HardCoreProfile(g), lam))) / g.n
            check = bounds.check_clique_weighted_marginals(g, lam)
            assert (check.lhs, check.rhs, check.margin) == (1, ref, ref - 1), (g, lam)


def _count_resumed(monkeypatch, name):
    """Patch bounds.name, a factory x -> enclose(tol) such as
    lambert_w_bisection or log_series, with a wrapper; return the list of
    the arguments it is called at and the list of the (argument, tolerance)
    pairs their enclosures are asked for."""
    arguments, enclosures = [], []
    original = getattr(bounds, name)

    def counted(x):
        arguments.append(x)
        enclose = original(x)

        def counted_enclose(tol):
            enclosures.append((x, tol))
            return enclose(tol)

        return counted_enclose

    monkeypatch.setattr(bounds, name, counted)
    return arguments, enclosures


def test_occupancy_tf_encloses_the_log_once_per_round(monkeypatch):
    series, logs = _count_resumed(monkeypatch, "log_series")
    arguments, enclosures = _count_resumed(monkeypatch, "lambert_w_bisection")
    for spec, positive_degrees, rounds in (("petersen", 1, 6), ("path:5", 2, 6),
                                           ("path:3 + empty:1", 2, 6)):
        series.clear()
        logs.clear()
        arguments.clear()
        enclosures.clear()
        assert bounds.check_occupancy_tf(generate(spec), F(1, 10**4)).status == HOLDS
        # Each round refines the tolerance tenfold, so the rounds are the
        # distinct tolerances: one enclosure of the check's one log series
        # at each, and two Lambert enclosures per positive degree.  A
        # bisection starts once per distinct argument, and a repeated
        # argument resumes it.
        assert series == [1 + F(1, 10**4)], spec
        tols = [tol for _, tol in logs]
        assert len(tols) == len(set(tols)) == len({tol for _, tol in enclosures}) == rounds, spec
        assert len(enclosures) == 2 * positive_degrees * rounds, spec
        assert len(arguments) == len(set(arguments)) == len({x for x, _ in enclosures}), spec
        assert len(arguments) < len(enclosures), spec


def test_triangle_free_checks_start_their_bisections_on_every_call(monkeypatch):
    # The bisections live for one check: a second call on the same input
    # starts as many as the first, makes its own log series, and returns
    # the same check, so nothing carries over from one call to the next.
    arguments, _ = _count_resumed(monkeypatch, "lambert_w_bisection")
    series, _ = _count_resumed(monkeypatch, "log_series")
    g, lam = petersen_graph(), F(1, 100 * 3**4)
    for check in (bounds.check_occupancy_tf, bounds.check_tf_weighted_marginals):
        runs = []
        for _ in range(2):
            arguments.clear()
            series.clear()
            runs.append((check(g, lam), len(arguments), len(series)))
        assert runs[0] == runs[1], check.__name__
        assert runs[0][0].status == HOLDS and runs[0][1] > 0, check.__name__
        assert runs[0][2] == 1, check.__name__


def test_combined_chain_encloses_the_free_energy_once_per_tolerance(monkeypatch):
    series, logs = _count_resumed(monkeypatch, "log_series")
    g, lam = empty_graph(2), F(1)
    z, e = F(4), F(1, 2)  # Z = (1 + lam)^2 and E = lam / (1 + lam)
    for _ in range(2):
        series.clear()
        logs.clear()
        checks = bounds.check_combined_chain(g, lam, tol=F(1, 10**28))
        # Each call makes one series per argument: lam, 1 + lam, Z(lam), E
        # and 1 - E.  Two comparisons refine to the floor; the free energy,
        # which three of them read, reads the Z series once at each
        # tolerance any of them reaches, times n.
        assert [c.status for c in checks].count(INCONCLUSIVE) == 2
        assert Counter(series) == Counter([lam, 1 + lam, z, e, 1 - e])
        assert sorted((tol for v, tol in logs if v == z), reverse=True) == \
            [2 * F(1, 10**28), 2 * F(1, 10**29), 2 * bounds.TOL_FLOOR]


def test_edge_counterexamples():
    checks = bounds.check_edge_occ_counterexamples(5)
    assert len(checks) == 6
    for c in checks:
        assert c.holds, (c.name, c.graph)
    margins = {c.graph: c.margin for c in checks
               if c.name == "occupancy.edge_ceiling_violation"}
    assert all(m > 0 for m in margins.values())


def test_edge_sum_formula_matches_brute_force_on_pasch():
    # every edge joins degrees 2 and 3, so the sum collapses to a single term
    g = pasch_graph()
    lam = F(5)
    total = bounds.edge_occupancy_sum(g, lam)
    single = F(5, 6) * bounds.bipartite_occupancy_value(2, 3, lam)
    assert total == 12 * single / 10


# Every entry of bounds that takes a graph: each states its inputs through
# bounds._inputs.
_GRAPH_CALLS = [
    bounds.check_free_energy_bounds,
    bounds.check_vertex_f_upper_counterexample,
    bounds.check_occupancy_bounds,
    bounds.degree_floor_value,
    bounds.check_occupancy_tf,
    bounds.check_variance_bounds,
    lambda g, lam: bounds.check_local_occupancy(g, 1, 1, lam),
    bounds.check_clique_weighted_marginals,
    bounds.check_tf_weighted_marginals,
    bounds.check_combined_chain,
    bounds.edge_occupancy_sum,
]


def test_nonpositive_fugacity_raises():
    g = cycle_graph(5)
    calls = [lambda lam, call=call: call(g, lam) for call in _GRAPH_CALLS] + [
        lambda lam: bounds.check_cycle_growth(5, (lam,)).lhs[0],
        lambda lam: bounds.check_cycle_growth(5, (1, lam)),
        lambda lam: bounds.check_edge_occ_counterexamples(lam),
    ]
    for call in calls:
        for lam in (0, F(-1, 2)):
            with pytest.raises(ValueError, match="fugacity must be positive"):
                call(lam)


def test_graph_without_vertices_raises():
    # One refusal for every entry that averages over the vertices, the
    # vertex-based ceiling included, for a graph and for its profile alike.
    g = path_graph(0)
    for call in _GRAPH_CALLS:
        for arg in (g, HardCoreProfile(g)):
            with pytest.raises(ValueError, match="^graph has no vertices$"):
                call(arg, 1)


def _reports(checks) -> list[dict]:
    return [c.to_json() for c in (checks if isinstance(checks, list) else [checks])]


def test_checks_accept_a_profile_for_the_graph():
    # One profile, reused across fugacities, gives every per-graph check the
    # same report as the graph itself.
    checks = [
        bounds.check_free_energy_bounds,
        bounds.check_vertex_f_upper_counterexample,
        bounds.check_occupancy_bounds,
        bounds.check_occupancy_tf,
        bounds.check_variance_bounds,
        bounds.check_combined_chain,
        lambda g, lam: bounds.check_local_occupancy(g, 1 + 1 / lam, 1, lam),
        lambda g, lam: bounds.check_clique_weighted_marginals(g, lam),
        lambda g, lam: bounds.check_tf_weighted_marginals(g, lam),
    ]
    for spec in ("cycle:5", "petersen", "kab:2,3"):
        g = generate(spec)
        prof = HardCoreProfile(g)
        for lam in (F(1, 2), F(1), F(2)):
            for i, check in enumerate(checks):
                assert _reports(check(g, lam)) == _reports(check(prof, lam)), (spec, lam, i)


def test_boundcheck_json_schema():
    c = bounds.check_occupancy_bounds(path_graph(3), F(1, 2))[0]
    out = c.to_json()
    assert set(out) >= {"bound", "graph", "lambda", "status", "lhs", "rhs", "margin"}
    assert out["lambda"] == "1/2"


def test_exact_evaluations_match_the_fraction_references():
    # E, V and the degree floor are each one Fraction built from integers:
    # they equal the Fraction expressions they replaced.  E and V take lam
    # as a Fraction, an int or a "p/q" string alike.
    specs = ("path:1", "kn:1", "empty:3")
    for g in corpus.connected_corpus(6) + tuple(generate(spec) for spec in specs):
        prof = HardCoreProfile(g)
        z, n = prof.z, g.n
        for lam in (F(1, 3), F(1), F(7, 2), F(100), F(1, 10**12)):
            zv = z.evaluate(lam)
            e, v = prof.expectation_at(lam), prof.variance_at(lam)
            assert e == lam * z.derivative().evaluate(lam) / (n * zv), (g.label, lam)
            assert v == var_numerator(z).evaluate(lam) / (n * zv * zv)
            for same in [str(lam)] + ([int(lam)] if lam.denominator == 1 else []):
                assert (prof.expectation_at(same), prof.variance_at(same)) == (e, v), same
            assert bounds.degree_floor_value(g, lam) == \
                sum(_reference_clique_occupancy(d, lam) for d in g.degrees()) / n


def _reference_clique_occupancy(d, lam):
    return lam / (1 + (d + 1) * lam)


def _reference_bipartite_occupancy(a, b, lam):
    num = lam * (a * (1 + lam) ** (a - 1) + b * (1 + lam) ** (b - 1))
    return num / ((a + b) * ((1 + lam) ** a + (1 + lam) ** b - 1))


def _reference_closed_form_checks(g, lam):
    """check_occupancy_bounds and check_variance_bounds with every closed-form
    side and every note stated as a chain of Fraction operations in lam;
    E, V and the degree floor come from the library."""
    prof = HardCoreProfile(g)
    e, v = prof.expectation_at(lam), prof.variance_at(lam)
    n, delta = g.n, g.max_degree

    def le(name, lhs, rhs, note=None):
        return bounds.BoundCheck(name, g.display_name(), lam, HOLDS if lhs <= rhs else FAILS,
                                 lhs=lhs, rhs=rhs, margin=rhs - lhs, note=note)

    occupancy = [le("occupancy.complete_floor", lam / (1 + n * lam), e),
                 le("occupancy.edgeless_ceiling", e, lam / (1 + lam))]
    if delta >= 1:
        occupancy.append(le("occupancy.clique_floor", _reference_clique_occupancy(delta, lam), e))
        if all(d == delta for d in g.degrees()):
            occupancy.append(le("occupancy.biregular_ceiling",
                                e, _reference_bipartite_occupancy(delta, delta, lam)))
    occupancy.append(le(
        "occupancy.degree_floor", bounds.degree_floor_value(g, lam), e,
        None if lam <= F(3, (delta + 1) ** 2)
        else "outside the guaranteed fugacity range; exploratory"))
    window = "outside the guaranteed fugacity window; exploratory"
    variance = [
        le("variance.complete_floor", lam / (1 + n * lam) ** 2, v,
           None if lam < F(1, 2 * n - 1) else window),
        le("variance.edgeless_ceiling", v, lam / (1 + lam) ** 2,
           None if lam <= F(1, n) else window),
        le("variance.clique_floor_conjecture", lam / (1 + (delta + 1) * lam) ** 2, v,
           "conjectured range-unrestricted floor; exploratory"),
    ]
    return occupancy, variance


def test_closed_form_sides_match_the_fraction_references():
    # Each occupancy and variance side is one Fraction built from integers at
    # lam = p/q, and each note an integer comparison: every report equals the
    # Fraction expressions they replaced, at each note's boundary and 10^-9
    # to either side of it too.
    specs = ("petersen", "kab:3,3", "cycle:5", "path:1", "kn:1", "empty:3")
    eps = F(1, 10**9)
    for g in corpus.connected_corpus(6) + tuple(generate(spec) for spec in specs):
        edges = (F(1, 2 * g.n - 1), F(1, g.n), F(3, (g.max_degree + 1) ** 2))
        lams = {F(1, 3), F(1), F(7, 2), F(100), F(1, 10**12)}
        lams.update(edge + k * eps for edge in edges for k in (-1, 0, 1))
        for lam in sorted(lams):
            ref_occupancy, ref_variance = _reference_closed_form_checks(g, lam)
            for checks, refs in ((bounds.check_occupancy_bounds(g, lam), ref_occupancy),
                                 (bounds.check_variance_bounds(g, lam), ref_variance)):
                assert [c.name for c in checks] == [r.name for r in refs]
                for check, ref in zip(checks, refs):
                    assert (check.status, check.lhs, check.rhs, check.margin, check.note) == (
                        ref.status, ref.lhs, ref.rhs, ref.margin, ref.note), \
                        (g.display_name(), lam, ref.name)
                    assert check.to_json() == ref.to_json()
    for a in range(1, 7):
        for b in range(1, 7):
            for lam in (F(1, 3), F(1), F(7, 2), F(100), F(1, 10**12)):
                assert bounds.bipartite_occupancy_value(a, b, lam) == \
                    _reference_bipartite_occupancy(a, b, lam)
                assert bounds.clique_occupancy_value(a, lam) == \
                    _reference_clique_occupancy(a, lam)


def test_one_graph6_encode_per_graph(monkeypatch):
    # An unlabeled graph's display name is encoded once, however many checks
    # and comparisons report it.
    encode = graphs.encode_graph6
    calls = []
    monkeypatch.setattr(graphs, "encode_graph6", lambda g: calls.append(g) or encode(g))
    g = from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (1, 3)])
    assert g.label is None
    bounds.check_occupancy_bounds(g, F(1, 2))
    bounds.check_variance_bounds(g, F(1, 2))
    bounds.check_local_occupancy(g, 3, 1, F(1, 2))
    assert calls == [g]
