"""Reproduction suite: every verification this laboratory performs, packaged
as stable ids emitting machine-readable records.

Output is deterministic: exact arithmetic or fixed seeds throughout, items
emitted sorted by id, so repeated runs are byte-identical.
"""

from __future__ import annotations

import sys
import traceback
from dataclasses import dataclass
from fractions import Fraction

from . import bounds, corpus, orderings, series
from .graphs import (
    complete_bipartite,
    complete_graph,
    cycle_graph,
    empty_graph,
    generate,
    path_graph,
    pasch_graph,
    petersen_graph,
)
from .hardcore import (
    HardCoreProfile,
    brute_force_polynomial,
    cycle_polynomial,
    independence_polynomial,
    var_of_polynomial,
    variance_via_marginals,
)
from .intervals import log1p_interval, free_energy_interval
from .polynomials import Poly
from .sampler import CROSS_VALIDATION_CASES, SplitMix64, estimate
from .verdict import FAILS, HOLDS, INCONCLUSIVE, format_rational

VERIFIED = "verified"
FAILED = "failed"


@dataclass
class ReproItem:
    id: str
    status: str  # verified | failed | inconclusive
    payload: dict

    def to_json(self) -> dict:
        return {"id": self.id, "status": self.status, "payload": self.payload}


def _status_from_checks(checks: list[bounds.BoundCheck]) -> str:
    statuses = {c.status for c in checks}
    if FAILS in statuses:
        return FAILED
    if INCONCLUSIVE in statuses:
        return INCONCLUSIVE
    return VERIFIED


def _item_from_checks(checks: list[bounds.BoundCheck],
                      note: str | None = None) -> tuple[str, dict]:
    payload = {"checks": [c.to_json() for c in checks]}
    if note:
        payload["note"] = note
    return _status_from_checks(checks), payload


def _verdict_ok(flag: bool) -> str:
    return VERIFIED if flag else FAILED


# -- individual items ---------------------------------------------------------

def _lemma_pairs() -> dict[str, tuple[Poly, Poly]]:
    p = Poly([1, 3, 1]) ** 3
    return {
        "first": (p, Poly([1, 2]) ** 3 * Poly([1, 3])),
        "second": (p, Poly([1, 9, 30, 44, 24, 9])),
        "third": (p, Poly([1, 9, 30, 44, 24, 10])),
    }


def item_lemmas_fv_and_var_hold() -> tuple[str, dict]:
    p, q = _lemma_pairs()["first"]
    fv = orderings.compare("FV", p, q)
    var = orderings.compare("VAR", p, q)
    cert = orderings.var_difference_certificate(p, q)
    factored = 3 * Poly([0, 0, 0, 1]) * Poly([1, 2]) ** 4 * Poly([1, 3, 1]) ** 4 \
        * Poly([3, 32, 118, 176, 86])
    ok = fv.holds and var.holds and cert == factored
    return _verdict_ok(ok), {
        "p": p.to_text(), "q": q.to_text(),
        "fv": fv.to_json(), "var": var.to_json(),
        "certificate": cert.to_text(),
        "certificate_factored_check": cert == factored,
    }


def item_lemmas_var_without_fv() -> tuple[str, dict]:
    p, q = _lemma_pairs()["second"]
    fv = orderings.compare("FV", p, q)
    var = orderings.compare("VAR", p, q)
    cert = orderings.var_difference_certificate(p, q)
    ok = fv.fails and fv.witness == 4 and var.holds \
        and cert.degree == 21 and cert.lc == 513
    return _verdict_ok(ok), {
        "p": p.to_text(), "q": q.to_text(),
        "fv": fv.to_json(), "var": var.to_json(),
        "certificate": cert.to_text(),
    }


def item_lemmas_var_without_coef() -> tuple[str, dict]:
    p, q = _lemma_pairs()["third"]
    coef = orderings.compare("COEF", p, q)
    var = orderings.compare("VAR", p, q)
    ok = coef.fails and coef.witness == 5 and var.holds
    return _verdict_ok(ok), {"p": p.to_text(), "q": q.to_text(),
                             "coef": coef.to_json(), "var": var.to_json()}


def item_lemmas_fv_without_var() -> tuple[str, dict]:
    pairs = [
        (Poly([1, 4, 2, 2]), Poly([1, 2, 1, 1])),
        (Poly([1, 10, 210, 21, 21, 21]), Poly([1, 10, 10, 1, 1, 1])),
        (Poly([1, 10, 1, 20010, 2001, 2001]), Poly([1, 10, 1, 10, 1, 1])),
    ]
    expected = [
        (Fraction(26, 25), Fraction(74, 81)),
        (Fraction(53, 48), Fraction(18619, 20164)),
        (Fraction(293, 192), Fraction(68604293, 192384192)),
    ]
    rows = []
    ok = True
    for (p, q), (vq1, vp1) in zip(pairs, expected):
        fv = orderings.compare("FV", p, q)
        var = orderings.compare("VAR", p, q)
        got_q = var_of_polynomial(q).evaluate(1)
        got_p = var_of_polynomial(p).evaluate(1)
        ok = ok and fv.holds and var.fails and got_q == vq1 and got_p == vp1
        rows.append({
            "p": p.to_text(), "q": q.to_text(),
            "fv": fv.to_json(), "var": var.to_json(),
            "V_q_at_1": format_rational(got_q), "V_p_at_1": format_rational(got_p),
        })
    return _verdict_ok(ok), {"pairs": rows}


def item_counterexamples_edge_occupancy() -> tuple[str, dict]:
    return _item_from_checks(bounds.check_edge_occ_counterexamples(5))


def item_counterexamples_vertex_free_energy() -> tuple[str, dict]:
    violated = bounds.check_vertex_f_upper_counterexample(path_graph(4), 1)
    small = bounds.check_vertex_f_upper_counterexample(path_graph(4), Fraction(1, 100))
    regular = bounds.check_vertex_f_upper_counterexample(cycle_graph(4), 1)
    ok = violated.status == FAILS and small.status == FAILS and regular.holds
    return _verdict_ok(ok), {
        "checks": [violated.to_json(), small.to_json(), regular.to_json()],
        "note": "the four-vertex path violates the vertex-based ceiling at "
                "every positive fugacity (the cleared gap is the fourth "
                "power of the fugacity), so the small-fugacity probe fails "
                "too; the regular case collapses to the biregular ceiling",
    }


def item_counterexamples_six_vertex_search() -> tuple[str, dict]:
    found = {name: corpus.find_six_vertex_counterexamples(*signature)
             for name, signature in corpus.SIGNATURES.items()}
    ok = all(len(graphs) == 1 and corpus.are_isomorphic(graphs[0], generate(name))
             for name, graphs in found.items())
    payload = {f"{name}_candidates": [g.edges() for g in graphs]
               for name, graphs in found.items()}
    payload.update({f"pinned_{name}": generate(name).edges() for name in found})
    return _verdict_ok(ok), payload


_NAMED_SAMPLE = ("path:3", "kn:4", "kab:2,2", "cycle:5", "kab:1,3", "pasch", "petersen")
_CORPUS_MAX_N = 6


def item_free_energy_named() -> tuple[str, dict]:
    checks = []
    for spec in _NAMED_SAMPLE:
        prof = HardCoreProfile(generate(spec))
        for lam in (Fraction(1, 2), Fraction(1), Fraction(2)):
            checks.extend(bounds.check_free_energy_bounds(prof, lam))
    return _item_from_checks(checks)


def item_free_energy_corpus() -> tuple[str, dict]:
    checks = []
    for g in corpus.connected_corpus(_CORPUS_MAX_N):
        checks.extend(bounds.check_free_energy_bounds(g, Fraction(1)))
    return _status_from_checks(checks), _summarize(checks)


def item_occupancy_named() -> tuple[str, dict]:
    checks = []
    for spec in _NAMED_SAMPLE:
        g = generate(spec)
        delta = g.max_degree
        lam = Fraction(3, (delta + 1) ** 2)
        checks.extend(bounds.check_occupancy_bounds(g, lam))
    return _item_from_checks(checks)


def item_occupancy_degree_floor_corpus() -> tuple[str, dict]:
    graphs = corpus.connected_corpus(_CORPUS_MAX_N)
    ok = True
    equality_mismatch = 0
    for g in graphs:
        lam = Fraction(3, (g.max_degree + 1) ** 2)
        check = [c for c in bounds.check_occupancy_bounds(g, lam)
                 if c.name == "occupancy.degree_floor"][0]
        ok = ok and check.holds
        if (check.margin == 0) != g.is_disjoint_union_of_cliques():
            equality_mismatch += 1
    return _verdict_ok(ok and equality_mismatch == 0), {
        "graphs": len(graphs),
        "equality_classification_mismatches": equality_mismatch,
        "note": "fugacity 3/(max_degree+1)^2 for each graph; equality expected "
                "exactly on disjoint unions of cliques",
    }


def item_occupancy_triangle_free_floor() -> tuple[str, dict]:
    cases = [
        (cycle_graph(5), Fraction(1, 100)),
        (complete_bipartite(3, 3), Fraction(1, 100)),
        (petersen_graph(), Fraction(1, 10**4)),
        (pasch_graph(), Fraction(1, 100)),
    ]
    checks = [bounds.check_occupancy_tf(g, lam) for g, lam in cases]
    return _item_from_checks(checks)


def item_variance_window_corpus() -> tuple[str, dict]:
    ok = True
    counted = 0
    graphs = corpus.connected_corpus(_CORPUS_MAX_N)
    for g in graphs:
        prof, n = HardCoreProfile(g), g.n
        for lam in (Fraction(1, 2 * n), Fraction(1, n)):
            for c in bounds.check_variance_bounds(prof, lam):
                if "conjecture" in c.name:
                    continue
                counted += 1
                ok = ok and c.holds
    return _verdict_ok(ok), {
        "graphs": len(graphs),
        "comparisons": counted,
        "note": "floor at fugacity 1/(2n), ceiling at 1/n",
    }


def item_variance_conjectured_floor() -> tuple[str, dict]:
    ok = True
    for g in corpus.connected_corpus(5):
        prof = HardCoreProfile(g)
        for lam in (Fraction(1, 2), Fraction(1), Fraction(2), Fraction(5)):
            c = [c for c in bounds.check_variance_bounds(prof, lam)
                 if c.name == "variance.clique_floor_conjecture"][0]
            ok = ok and c.holds
    return _verdict_ok(ok), {"note": "exploratory sweep of the range-unrestricted "
                                     "clique floor; not an acceptance gate",
                             "corpus_max_n": 5}


def item_variance_p5_threshold() -> tuple[str, dict]:
    return _item_from_checks(bounds.check_p5_threshold())


def item_variance_cycle_growth() -> tuple[str, dict]:
    check = bounds.check_cycle_growth(500, (100, 1000, 10000))
    small = bounds.check_cycle_growth(4, (1,)).lhs[0]
    return _status_from_checks([check]), {
        "checks": [check.to_json()],
        "smoke_ratio_cycle4_at_1": format_rational(small),
    }


def item_variance_marginal_identity() -> tuple[str, dict]:
    sample = [empty_graph(2), complete_graph(3), path_graph(5), cycle_graph(6),
              generate("kab:2,3"), petersen_graph()]
    failing = []
    for g in sample:
        try:
            # raises unless the two routes agree
            variance_via_marginals(HardCoreProfile(g))
        except ArithmeticError as exc:
            failing.append({"graph": g.display_name(), "error": str(exc)})
    payload = {"graphs": [g.display_name() for g in sample],
               "note": "pair-marginal expansion agrees with the derivative route "
                       "as reduced rational functions"}
    if failing:
        payload["failing"] = failing
    return _verdict_ok(not failing), payload


def item_local_occupancy_corpus() -> tuple[str, dict]:
    ok = True
    counted = 0
    graphs = corpus.connected_corpus(5)
    for g in graphs:
        prof = HardCoreProfile(g)
        for lam in (Fraction(1, 2), Fraction(1), Fraction(2)):
            c = bounds.check_local_occupancy(prof, 1 + 1 / lam, 1, lam)
            counted += 1
            ok = ok and c.holds
    return _verdict_ok(ok), {"graphs": len(graphs), "cases": counted,
                             "note": "beta = 1 + 1/fugacity, gamma = 1, every induced "
                                     "neighborhood subgraph enumerated"}


def item_local_occupancy_weighted() -> tuple[str, dict]:
    checks = []
    for g in [complete_graph(4), path_graph(5), cycle_graph(6), generate("kab:2,3")]:
        prof = HardCoreProfile(g)
        for lam in (Fraction(1, 2), Fraction(1), Fraction(2)):
            checks.append(bounds.check_clique_weighted_marginals(prof, lam))
    for g, lam in [(petersen_graph(), Fraction(1, 100)),
                   (cycle_graph(5), Fraction(1, 100))]:
        checks.append(bounds.check_tf_weighted_marginals(g, lam))
    note = ("the clique weight is the occupancy fraction of the clique, "
            "lam/(1+(d+1)lam); the source text conflates it with the clique "
            "partition function in one place, and every downstream use needs "
            "the occupancy form used here")
    return _item_from_checks(checks, note=note)


def item_combined_chain() -> tuple[str, dict]:
    checks = []
    for g in [path_graph(4), complete_graph(5), cycle_graph(5)]:
        prof = HardCoreProfile(g)
        for lam in (Fraction(1, 4), Fraction(1), Fraction(4)):
            checks.extend(bounds.check_combined_chain(prof, lam))
    # Edgeless graphs make the first inequality an equality; exhibit the
    # near-equality with tight enclosures instead of a verdict.
    g = empty_graph(3)
    lam = Fraction(1)
    z = independence_polynomial(g)
    tol = Fraction(1, 10**16)
    lower = log1p_interval(lam, tol) * ((1 + lam) / lam) * Fraction(1, 2)
    fe = free_energy_interval(z, 3, lam, tol)
    gap_width = max(abs(fe.hi - lower.lo), abs(lower.hi - fe.lo))
    exhibit = {
        "graph": g.display_name(),
        "lambda": "1",
        "lower_enclosure": lower.to_json(),
        "free_energy_enclosure": fe.to_json(),
        "overlap": lower.intersects(fe),
        "gap_bound": format_rational(gap_width),
    }
    status = _status_from_checks(checks)
    if not exhibit["overlap"] or gap_width > Fraction(1, 10**15):
        status = FAILED
    return status, {"checks": [c.to_json() for c in checks], "edgeless_equality": exhibit}


def item_series_ratio() -> tuple[str, dict]:
    rep = series.verify_t_coefficients()
    return _verdict_ok(rep["ok"]), rep


def item_series_correction() -> tuple[str, dict]:
    rep = series.verify_tprime_coefficients()
    rep["a4_grid_min"] = format_rational(rep["a4_grid_min"])
    return _verdict_ok(rep["ok"]), rep


def item_series_cubic() -> tuple[str, dict]:
    rep = series.verify_g_cubic()
    return _verdict_ok(rep["ok"]), rep


def item_series_clique_identity() -> tuple[str, dict]:
    rep = series.verify_fidentity()
    return _verdict_ok(rep["ok"]), rep


def item_series_averaged_expansion() -> tuple[str, dict]:
    rows = []
    ok = True
    for g in [cycle_graph(5), petersen_graph(), generate("kab:1,2"),
              complete_bipartite(3, 3)]:
        rep = series.verify_b_coefficients(g)
        ok = ok and rep["ok"]
        rows.append({
            "graph": g.display_name(),
            "b": [format_rational(b) for b in rep["b"]],
            "checks": rep["checks"],
        })
    note = ("the quartic tail inside the averaged product uses the 37 cubic "
            "constant of the term definitions; one displayed aggregate writes "
            "36 instead, an apparent constant drift that does not reach the "
            "cubic coefficients extracted here")
    return _verdict_ok(ok), {"graphs": rows, "note": note}


def item_orderings_web() -> tuple[str, dict]:
    rng = SplitMix64(20260809)
    violations = 0
    trials = 2000
    for _ in range(trials):
        p, q = orderings.random_generating_pair(rng)
        rep = orderings.implication_web_check(p, q)
        violations += len(rep["violations"])
    return _verdict_ok(violations == 0), {"trials": trials, "violations": violations,
                                          "seed": 20260809}


def item_engine_oracle() -> tuple[str, dict]:
    mismatches = 0
    graphs = corpus.connected_corpus(_CORPUS_MAX_N)
    for g in graphs:
        if independence_polynomial(g) != brute_force_polynomial(g):
            mismatches += 1
    rng = SplitMix64(7)
    random_checked = 0
    for _ in range(60):
        n = 9 + rng.randrange(4)
        g = corpus.random_graph(n, rng)
        random_checked += 1
        if independence_polynomial(g) != brute_force_polynomial(g):
            mismatches += 1
    cycles_ok = all(
        cycle_polynomial(n) == independence_polynomial(cycle_graph(n))
        for n in range(3, 21)
    )
    return _verdict_ok(mismatches == 0 and cycles_ok), {
        "corpus_graphs": len(graphs),
        "random_graphs": random_checked, "mismatches": mismatches,
        "cycle_recurrence_ok": cycles_ok,
    }


def item_engine_multiplicativity() -> tuple[str, dict]:
    ok = True
    for spec in ("kab:1,2", "kn:3", "path:4"):
        one = HardCoreProfile(generate(spec))
        three = HardCoreProfile(generate(" + ".join([spec] * 3)))
        ok = ok and three.z == one.z ** 3 and three.expectation == one.expectation
    return _verdict_ok(ok), {"note": "partition functions multiply over disjoint unions; "
                                     "occupancy fractions of k-fold copies match one copy"}


def item_sampler_cross_validation() -> tuple[str, dict]:
    rows = []
    ok = True
    for spec, lam, seed in CROSS_VALIDATION_CASES:
        prof = HardCoreProfile(generate(spec))
        g = prof.graph
        rep = estimate(g, lam, 10**6, 10**4, seed=seed)
        ne = float(g.n * prof.expectation_at(lam))
        nv = float(g.n * prof.variance_at(lam))
        ze = abs(rep.mean_size - ne) / rep.se_mean
        zv = abs(rep.var_size - nv) / rep.se_var
        ok = ok and ze <= 3 and zv <= 3
        rows.append({
            "graph": spec, "lambda": format_rational(lam), "seed": seed,
            "mean_size": repr(rep.mean_size), "exact_mean": repr(ne),
            "z_mean": repr(ze), "var_size": repr(rep.var_size),
            "exact_var": repr(nv), "z_var": repr(zv),
        })
    return _verdict_ok(ok), {"cases": rows, "steps": 10**6}


def _summarize(checks: list[bounds.BoundCheck]) -> dict:
    by_status: dict[str, int] = {}
    for c in checks:
        by_status[c.status] = by_status.get(c.status, 0) + 1
    failing = [c.to_json() for c in checks if c.status != HOLDS]
    out = {"comparisons": len(checks), "by_status": by_status}
    if failing:
        out["failing"] = failing
    return out


REGISTRY = {
    "lemmas.fv_and_var_hold": item_lemmas_fv_and_var_hold,
    "lemmas.var_without_fv": item_lemmas_var_without_fv,
    "lemmas.var_without_coef": item_lemmas_var_without_coef,
    "lemmas.fv_without_var": item_lemmas_fv_without_var,
    "counterexamples.edge_occupancy": item_counterexamples_edge_occupancy,
    "counterexamples.vertex_free_energy": item_counterexamples_vertex_free_energy,
    "counterexamples.six_vertex_search": item_counterexamples_six_vertex_search,
    "free_energy.named_bounds": item_free_energy_named,
    "free_energy.small_corpus": item_free_energy_corpus,
    "occupancy.named_bounds": item_occupancy_named,
    "occupancy.degree_floor_corpus": item_occupancy_degree_floor_corpus,
    "occupancy.triangle_free_floor": item_occupancy_triangle_free_floor,
    "variance.window_corpus": item_variance_window_corpus,
    "variance.conjectured_floor_sweep": item_variance_conjectured_floor,
    "variance.p5_threshold": item_variance_p5_threshold,
    "variance.cycle_growth": item_variance_cycle_growth,
    "variance.pair_marginal_identity": item_variance_marginal_identity,
    "local_occupancy.certificate_corpus": item_local_occupancy_corpus,
    "local_occupancy.weighted_marginals": item_local_occupancy_weighted,
    "combined.chain_samples": item_combined_chain,
    "series.ratio_coefficients": item_series_ratio,
    "series.correction_coefficients": item_series_correction,
    "series.cubic_truncation": item_series_cubic,
    "series.clique_weight_identity": item_series_clique_identity,
    "series.averaged_expansion": item_series_averaged_expansion,
    "orderings.implication_web": item_orderings_web,
    "engine.oracle_equivalence": item_engine_oracle,
    "engine.union_multiplicativity": item_engine_multiplicativity,
    "sampler.cross_validation": item_sampler_cross_validation,
}


def run(ids: list[str] | None = None) -> list[ReproItem]:
    """Run the requested items (all of them by default), sorted by id.

    An item that raises is reported as failed with payload
    {"error": "<Type>: <message>"}; the rest of the run goes on."""
    if not ids:
        ids = sorted(REGISTRY)
    else:
        unknown = [i for i in ids if i not in REGISTRY]
        if unknown:
            raise KeyError(f"unknown repro ids: {', '.join(unknown)}")
        ids = sorted(set(ids))
    return [_run_item(item_id) for item_id in ids]


def _run_item(item_id: str) -> ReproItem:
    """One item's record, the only place a ReproItem is built.  An exception
    the item raises becomes its own failed record, so the other items still
    run.  The traceback goes to stderr, outside the report."""
    try:
        status, payload = REGISTRY[item_id]()
    except Exception as exc:
        traceback.print_exc(file=sys.stderr)
        status, payload = FAILED, {"error": f"{type(exc).__name__}: {exc}"}
    return ReproItem(item_id, status, payload)
