"""Extremal bounds, verified mechanically.

Free-energy comparisons clear logarithms into integer-power comparisons of
exact rationals; occupancy and variance bounds evaluate exactly; the famous
failures are reproduced with explicit margins.
"""

from fractions import Fraction

from hardcore_lab import HardCoreProfile, bounds, generate
from hardcore_lab.corpus import connected_corpus

# Free energy of any graph sits between the clique and the edgeless graph;
# regular graphs are pinched between the clique and the balanced biclique.
for spec in ("path:3", "cycle:5", "kab:2,2", "pasch"):
    g = generate(spec)
    for check in bounds.check_free_energy_bounds(g, Fraction(1)):
        print(f"{spec:8s} {check.name:32s} {check.status}")

# Equality cases land exactly on the extremal graphs.
c = [c for c in bounds.check_free_energy_bounds(generate("kn:4"), 1)
     if c.name == "free_energy.clique_floor"][0]
print(f"\nclique floor margin on kn:4: {c.margin} (extremal graph, exact tie)")

# The degree-sequence occupancy floor holds at fugacity 3/(max degree + 1)^2
# across the whole small-graph corpus, with equality exactly on disjoint
# unions of cliques.
strict = ties = 0
for g in connected_corpus(5):
    lam = Fraction(3, (g.max_degree + 1) ** 2)
    e = HardCoreProfile(g).expectation_at(lam)
    floor = bounds.degree_floor_value(g, lam)
    assert floor <= e
    if floor == e:
        ties += 1
    else:
        strict += 1
print(f"\ndegree floor on the n<=5 corpus: {strict} strict, {ties} ties (the cliques)")

# A natural vertex-based upper bound on the free energy is false: on the
# four-vertex path the cleared comparison misses by exactly x^4.
check = bounds.check_vertex_f_upper_counterexample(generate("path:4"), 1)
print(f"\nvertex-based ceiling on path:4 at fugacity 1: {check.status} "
      f"({check.lhs} > {check.rhs})")

# And the edge-based upper bound cannot be strengthened from free energy to
# occupancy: three counterexamples, checked at fugacity 5 with exact margins.
for check in bounds.check_edge_occ_counterexamples(5):
    if check.name == "occupancy.edge_ceiling_violation":
        print(f"  {check.graph:8s} edge-sum {check.lhs} < E = {check.rhs}")

# The five-vertex path eventually beats the edgeless variance ceiling: the
# crossing is pinned between 32 and 33 by exact root isolation.
for check in bounds.check_p5_threshold():
    print(f"{check.name:40s} {check.status}")

# Long cycles: the variance-to-ceiling ratio grows along a fugacity ladder.
growth = bounds.check_cycle_growth(500, (100, 1000, 10000))
print("cycle:500 ratio ladder:", [round(float(r), 3) for r in growth.lhs])

# Local occupancy: every graph satisfies the neighborhood certificate at
# beta = 1 + 1/fugacity, gamma = 1, over all induced neighborhood subgraphs.
lam = Fraction(1)
check = bounds.check_local_occupancy(generate("pasch"), 1 + 1 / lam, 1, lam)
print(f"\nlocal occupancy certificate on pasch: {check.status}, "
      f"worst slack {check.margin}")
