"""Acceptance suite: one test per criterion, each printing a pass line with
its runtime against the stated budget.

Every check lives once, in the library; a criterion only chooses inputs and
asserts the verdict.  A criterion whose inputs are those of `repro` items
runs the items and asserts that each record is *verified*; the larger-scale
criteria call the library check those items call, on a larger corpus:

    01 lemma suite            lemmas.fv_and_var_hold, lemmas.var_without_fv,
                              lemmas.var_without_coef, lemmas.fv_without_var
    02 edge counterexamples   counterexamples.six_vertex_search,
                              counterexamples.edge_occupancy
    03 degree floor           bounds.check_occupancy_bounds (occupancy.degree_floor)
    04 variance window        bounds.check_variance_bounds (no conjecture record),
                              on one HardCoreProfile per graph
    05 triangle-free floor    bounds.check_occupancy_tf
    06 series prover          the five series.* items
    07 five-vertex path       variance.p5_threshold
    08 oracle equivalence     brute_force_polynomial, cycle_polynomial,
                              the pinned all_graphs(8) digest
    09 local occupancy        bounds.check_local_occupancy,
                              bounds.check_clique_weighted_marginals,
                              on one HardCoreProfile per graph
    10 implication web        orderings.implication_web_check
    11 combined chain         bounds.check_combined_chain
    12 sampler                sampler.cross_validation, its line pinned by sha256

Every `repro.REGISTRY` id that no criterion claims is asserted *verified* by
`test_unclaimed_repro_item_is_verified`, so each item's status is asserted
here exactly once.  `tests/test_repro_bytes.py` also pins the JSON line of
every deterministic item by sha256, status included.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete.
"""

import hashlib
import json
import time
from fractions import Fraction as F

import pytest

from hardcore_lab import bounds, corpus, orderings, repro
from hardcore_lab.graphs import (
    complete_bipartite,
    cycle_graph,
    empty_graph,
    generate,
    petersen_graph,
)
from hardcore_lab.hardcore import (
    HardCoreProfile,
    brute_force_polynomial,
    cycle_polynomial,
    independence_polynomial,
)
from hardcore_lab.sampler import CROSS_VALIDATION_CASES, SplitMix64, estimate
from hardcore_lab.verdict import HOLDS

# The repro items each criterion runs.
CLAIMED = {
    1: ("lemmas.fv_and_var_hold", "lemmas.var_without_fv",
        "lemmas.var_without_coef", "lemmas.fv_without_var"),
    2: ("counterexamples.six_vertex_search", "counterexamples.edge_occupancy"),
    6: ("series.ratio_coefficients", "series.correction_coefficients",
        "series.cubic_truncation", "series.clique_weight_identity",
        "series.averaged_expansion"),
    7: ("variance.p5_threshold",),
    12: ("sampler.cross_validation",),
}
UNCLAIMED = sorted(set(repro.REGISTRY).difference(*CLAIMED.values()))


def _assert_verified(ids) -> list:
    records = repro.run(list(ids))
    assert [r.id for r in records] == sorted(ids)
    for record in records:
        assert record.status == repro.VERIFIED, \
            json.dumps(record.to_json(), sort_keys=True)
    return records


def _pass(number: int, label: str, start: float, budget: float) -> None:
    elapsed = time.monotonic() - start
    print(f"\ncriterion {number:02d} ({label}): PASS in {elapsed:.1f}s "
          f"(budget {budget:.0f}s)")
    assert elapsed < budget, f"runtime budget exceeded: {elapsed:.1f}s"


def test_criterion_01_lemma_suite():
    start = time.monotonic()
    _assert_verified(CLAIMED[1])
    _pass(1, "lemma suite", start, 5)


def test_criterion_02_edge_counterexamples():
    start = time.monotonic()
    _assert_verified(CLAIMED[2])
    _pass(2, "edge-based occupancy counterexamples", start, 60)


def _degree_floor_holds(g) -> None:
    lam = F(3, (g.max_degree + 1) ** 2)
    check = next(c for c in bounds.check_occupancy_bounds(g, lam)
                 if c.name == "occupancy.degree_floor")
    assert check.holds, check.to_json()
    assert (check.margin == 0) == g.is_disjoint_union_of_cliques(), check.to_json()


def test_criterion_03_degree_floor_corpus():
    start = time.monotonic()
    graphs = corpus.connected_corpus(7)
    assert len(graphs) == 996
    for g in graphs:
        _degree_floor_holds(g)

    rng = SplitMix64(30303)
    for _ in range(10**4):
        n = 2 + rng.randrange(11)
        _degree_floor_holds(corpus.random_graph(n, rng))
    _pass(3, "degree-sequence occupancy floor corpus", start, 600)


def _variance_window(g, lam) -> dict:
    return {c.name: c for c in bounds.check_variance_bounds(g, lam)
            if c.name != "variance.clique_floor_conjecture"}


def test_criterion_04_variance_window_corpus():
    start = time.monotonic()
    checked = 0
    for n in range(1, 8):
        for g in corpus.all_graphs(n):
            prof = HardCoreProfile(g)
            for lam in (F(1, 2 * n), F(1, n)):
                for check in _variance_window(prof, lam).values():
                    assert check.holds, check.to_json()
            checked += 1
    assert checked == 1 + 2 + 4 + 11 + 34 + 156 + 1044

    # extremal graphs achieve equality
    for n in range(2, 8):
        floor = _variance_window(generate(f"kn:{n}"), F(1, 2 * n))
        assert floor["variance.complete_floor"].margin == 0
        ceiling = _variance_window(empty_graph(n), F(1, n))
        assert ceiling["variance.edgeless_ceiling"].margin == 0
    _pass(4, "variance window corpus", start, 300)


def test_criterion_05_triangle_free_spot_checks():
    start = time.monotonic()
    named = [cycle_graph(5), complete_bipartite(3, 3), petersen_graph()]
    rng = SplitMix64(50505)
    randoms = []
    while len(randoms) < 100:
        g = corpus.random_triangle_free_graph(4 + rng.randrange(9), rng)
        if g.max_degree >= 1:
            randoms.append(g)
    for g in named + randoms:
        lam = F(1, 100 * g.max_degree ** 4)
        check = bounds.check_occupancy_tf(g, lam)
        assert check.status == HOLDS, (g.display_name(), check.status)
        assert check.margin > 0
    _pass(5, "triangle-free occupancy floor spot checks", start, 300)


def test_criterion_06_series_prover():
    start = time.monotonic()
    _assert_verified(CLAIMED[6])
    _pass(6, "series prover", start, 60)


def test_criterion_07_p5_threshold():
    start = time.monotonic()
    _assert_verified(CLAIMED[7])
    _pass(7, "five-vertex path threshold", start, 5)


def test_criterion_08_oracle_equivalence():
    start = time.monotonic()
    total = 0
    for n in range(1, 9):
        for g in corpus.all_graphs(n):
            assert independence_polynomial(g) == brute_force_polynomial(g)
            total += 1
    assert total == 13598
    # The eight-vertex corpus, representatives and order, as enumerated by the
    # unpruned individualization-refinement search it was first built with.
    adjs = repr([g.adj for g in corpus.all_graphs(8)]).encode()
    assert hashlib.sha256(adjs).hexdigest() == (
        "605736f29dc8a8d491feda4d5a5fb7f97f32c932869aa22da5a46f55e8d492d5")

    rng = SplitMix64(80808)
    for _ in range(200):
        n = 9 + rng.randrange(4)
        g = corpus.random_graph(n, rng)
        assert independence_polynomial(g) == brute_force_polynomial(g)

    for n in range(3, 21):
        assert cycle_polynomial(n) == independence_polynomial(cycle_graph(n))
    _pass(8, "oracle equivalence", start, 300)


def test_criterion_09_local_occupancy_corpus():
    start = time.monotonic()
    for g in corpus.connected_corpus(7):
        # one profile per graph: the neighborhood table and the marginals
        # are computed once and swept over the fugacities
        prof = HardCoreProfile(g)
        for lam in (F(1, 2), F(1), F(2)):
            # neighborhood certificate at beta = 1 + 1/lam, gamma = 1
            check = bounds.check_local_occupancy(prof, 1 + 1 / lam, 1, lam)
            assert check.holds, check.to_json()
            # clique-weighted marginal averages are at least one
            check = bounds.check_clique_weighted_marginals(prof, lam)
            assert check.holds, check.to_json()
    _pass(9, "local occupancy corpus", start, 600)


def test_criterion_10_implication_web():
    start = time.monotonic()
    rng = SplitMix64(101010)
    for _ in range(10**4):
        p, q = orderings.random_generating_pair(rng)
        report = orderings.implication_web_check(p, q)
        assert not report["violations"], (p, q, report["violations"])
    _pass(10, "implication web", start, 120)


def test_criterion_11_combined_chain():
    start = time.monotonic()
    pool = [g for g in corpus.connected_corpus(8) if g.edge_count >= 1]
    rng = SplitMix64(111111)
    picked: list[int] = []
    while len(picked) < 50:
        i = rng.randrange(len(pool))
        if i not in picked:
            picked.append(i)
    for i in sorted(picked):
        g = pool[i]
        for lam in (F(1, 4), F(1), F(4)):
            for check in bounds.check_combined_chain(g, lam):
                assert check.holds, (g.label, lam, check.name, check.status)
    # The edgeless equality case is combined.chain_samples' exhibit: the item
    # is verified only if its two enclosures overlap within 1e-15, and its
    # line is pinned in tests/test_repro_bytes.py.
    _pass(11, "expectation / free-energy chain", start, 300)


def test_criterion_12_sampler_cross_validation():
    start = time.monotonic()
    assert len(CROSS_VALIDATION_CASES) == 20
    [record] = _assert_verified(CLAIMED[12])
    # The item's JSON line, hashed as in tests/test_repro_bytes.py.
    line = json.dumps(record.to_json(), sort_keys=True).encode()
    assert hashlib.sha256(line).hexdigest() == \
        "f981f769b7a40a060243cfb6f0be07738e2af2afbe8e60bd948b75bb1592aaaa"

    # byte-level reproducibility of a fixed-seed report
    g = generate("kab:3,3")
    a = estimate(g, F(1), 10**5, 10**3, seed=77)
    b = estimate(g, F(1), 10**5, 10**3, seed=77)
    assert a.to_json() == b.to_json()
    _pass(12, "sampler cross-validation", start, 300)


def test_edge_count_identity_exhaustive():
    # companion invariant, riding on the cached n <= 8 enumeration
    for n in range(1, 9):
        for g in corpus.all_graphs(n):
            if not g.is_triangle_free():
                continue
            for u in range(g.n):
                assert g.tf_edge_count_identity(u)


def test_claimed_repro_ids_are_registered_once():
    claimed = [item_id for ids in CLAIMED.values() for item_id in ids]
    assert len(claimed) == len(set(claimed))
    assert set(claimed) <= set(repro.REGISTRY)


@pytest.mark.parametrize("item_id", UNCLAIMED)
def test_unclaimed_repro_item_is_verified(item_id):
    _assert_verified((item_id,))
