"""Hard-core engine: partition functions, marginals, moments."""

from fractions import Fraction as F
from math import comb

import pytest

from hardcore_lab import corpus, hardcore
from hardcore_lab.bounds import MAX_DEGREE_BUDGET
from hardcore_lab.graphs import (
    MAX_VERTICES,
    bits_of,
    complete_bipartite,
    complete_graph,
    cycle_graph,
    empty_graph,
    from_edges,
    generate,
    pasch_graph,
    path_graph,
    petersen_graph,
)
from hardcore_lab.hardcore import (
    HardCoreProfile,
    MemoLimitExceeded,
    brute_force_polynomial,
    cycle_polynomial,
    independence_polynomial,
    path_polynomial,
    profile,
    subset_polynomial,
    var_of_polynomial,
    variance_fraction,
    variance_via_marginals,
)
from hardcore_lab.polynomials import Poly, RatFunc
from hardcore_lab.roots import nonneg_on_halfline
from hardcore_lab.sampler import SplitMix64

X = Poly([0, 1])
ONE_PLUS = Poly([1, 1])


def test_partition_examples():
    assert independence_polynomial(complete_graph(7)) == Poly([1, 7])
    assert independence_polynomial(generate("kab:1,2")) == Poly([1, 3, 1])
    assert independence_polynomial(pasch_graph()) == Poly([1, 10, 33, 42, 20, 6, 1])
    assert independence_polynomial(path_graph(4)) == Poly([1, 4, 3])


def test_brute_force_examples():
    assert brute_force_polynomial(empty_graph(3)) == ONE_PLUS ** 3
    assert brute_force_polynomial(cycle_graph(5)) == Poly([1, 5, 5])
    assert brute_force_polynomial(complete_bipartite(2, 2)) == Poly([1, 4, 2])
    with pytest.raises(ValueError):
        brute_force_polynomial(empty_graph(31))


def test_path_cycle_recurrences():
    assert path_polynomial(0) == Poly([1])
    assert path_polynomial(2) == Poly([1, 2])
    assert cycle_polynomial(4) == Poly([1, 4, 2])
    assert cycle_polynomial(20) == independence_polynomial(cycle_graph(20))
    assert path_polynomial(6) == independence_polynomial(path_graph(6))
    with pytest.raises(ValueError):
        cycle_polynomial(2)
    with pytest.raises(ValueError):
        path_polynomial(-1)


def test_oracle_equivalence_small():
    for g in corpus.connected_corpus(6):
        assert independence_polynomial(g) == brute_force_polynomial(g), g.label
    rng = SplitMix64(606)
    for _ in range(40):
        g = corpus.random_graph(9 + rng.randrange(4), rng)
        assert independence_polynomial(g) == brute_force_polynomial(g)


def test_partition_invariants():
    rng = SplitMix64(42)
    for _ in range(30):
        g = corpus.random_graph(2 + rng.randrange(9), rng)
        z = independence_polynomial(g)
        assert z.coefficient(0) == 1
        assert all(c > 0 for c in z.coeffs)
        # degree equals the independence number per the brute-force oracle
        assert z.degree == brute_force_polynomial(g).degree


def test_engine_matches_brute_force_on_random_graphs():
    # Densities from 1/2 down to 1/7, so the sample has disconnected graphs
    # and isolated vertices, which the component split handles separately.
    rng = SplitMix64(2025)
    disconnected = with_isolated = 0
    for i in range(200):
        g = corpus.random_graph(1 + rng.randrange(14), rng, 1, 2 + i % 6)
        disconnected += not g.is_connected()
        with_isolated += 0 in g.degrees()
        assert independence_polynomial(g) == brute_force_polynomial(g), g.adj
    assert disconnected >= 50 and with_isolated >= 30


def test_subset_polynomial_matches_brute_force():
    rng = SplitMix64(77)
    g = corpus.random_graph(13, rng, 1, 4)
    masks = [0, (1 << g.n) - 1] + [rng.randrange(1 << g.n) for _ in range(80)]
    for mask in masks:
        assert subset_polynomial(g, mask) == brute_force_polynomial(g.induced(mask)), mask


def test_engine_at_64_vertices():
    assert independence_polynomial(path_graph(64)) == path_polynomial(64)
    assert independence_polynomial(cycle_graph(64)) == cycle_polynomial(64)
    z_petersen = brute_force_polynomial(petersen_graph())
    assert independence_polynomial(generate("6*petersen")) == z_petersen ** 6


def test_packed_digits_do_not_carry_at_the_cap():
    # Every engine value is Z of an induced subgraph on at most MAX_VERTICES
    # vertices, packed at 2^64: its largest possible coefficient,
    # C(MAX_VERTICES, MAX_VERTICES // 2), must fit one digit.
    assert comb(MAX_VERTICES, MAX_VERTICES // 2) < 2 ** hardcore._DIGIT_BITS == 2 ** 64
    assert independence_polynomial(empty_graph(MAX_VERTICES)) == ONE_PLUS ** 64
    assert independence_polynomial(generate("kab:32,32")) == 2 * ONE_PLUS ** 32 - Poly([1])
    # _digits reads the words of the one little-endian layout: the pure
    # integer digits, with no trailing zero word (33 of them for wide).
    mask = 2 ** 64 - 1
    wide = sum((i * 0x9E3779B97F4A7C15 & mask) << 64 * i for i in range(1, 33))
    for value in (0, 1, mask, 2 ** 64, 7 + (9 << 64 * 4), wide):
        n = (value.bit_length() + 63) // 64
        assert hardcore._digits(value) == tuple((value >> 64 * i) & mask for i in range(n))


def test_memo_limit(monkeypatch):
    # Paths and cycles are one-entry leaves, so the limit is exercised on
    # graphs that still branch.
    monkeypatch.setattr(hardcore, "DEFAULT_MEMO_LIMIT", 4)
    with pytest.raises(MemoLimitExceeded):
        independence_polynomial(petersen_graph())
    monkeypatch.setattr(hardcore, "DEFAULT_MEMO_LIMIT", 10)
    with pytest.raises(MemoLimitExceeded):
        subset_polynomial(generate("6*petersen"), (1 << 60) - 1)


def test_closed_form_rows_match_the_transfer_recurrences():
    for k in range(1, 65):
        assert hardcore._digits(hardcore._path_row(k)) == path_polynomial(k).coeffs, k
    for k in range(3, 65):
        assert hardcore._digits(hardcore._cycle_row(k)) == cycle_polynomial(k).coeffs, k


def test_path_and_cycle_components_take_one_memo_entry():
    for g, z in ((path_graph(64), path_polynomial(64)), (cycle_graph(64), cycle_polynomial(64))):
        prof = HardCoreProfile(g)
        assert prof.z == z
        assert {mask: hardcore._digits(value) for mask, value in prof._memo.items()} == {
            (1 << 64) - 1: z.coeffs}
    # A tree of maximum degree 3 or more is one leaf too: the star K(1, 63).
    prof = HardCoreProfile(generate("kab:1,63"))
    z = ONE_PLUS ** 63 + X
    assert prof.z == z
    assert {mask: hardcore._digits(value) for mask, value in prof._memo.items()} == {
        (1 << 64) - 1: z.coeffs}
    prof = HardCoreProfile(generate("petersen + cycle:30"))
    assert prof.z == brute_force_polynomial(petersen_graph()) * cycle_polynomial(30)
    cycle = ((1 << 30) - 1) << 10
    assert {mask: hardcore._digits(value) for mask, value in prof._memo.items()
            if mask & cycle} == {cycle: cycle_polynomial(30).coeffs}


def _degree_two_rich_graph(rng: SplitMix64):
    """A graph of 10 to 20 vertices made mostly of degree-2 pieces: pendant
    paths and cycles hung on a Petersen or K4 core, a caterpillar, or a
    disjoint union of paths, cycles and isolated vertices."""
    n_max = 10 + rng.randrange(11)
    kind = rng.randrange(3)
    if kind == 0:
        core = petersen_graph() if rng.randrange(2) else complete_graph(4)
        edges, n = core.edges(), core.n
    elif kind == 1:
        spine = 2 + rng.randrange(n_max // 2)
        edges, n = [(i, i + 1) for i in range(spine - 1)], spine
        while n < n_max:
            edges.append((rng.randrange(spine), n))
            n += 1
        return from_edges(n, edges)
    else:
        edges, n = [], 0
    while n < n_max:
        size = 1 + rng.randrange(min(8, n_max - n))
        cyclic = size >= 3 and rng.randrange(2)
        edges += [(n + i, n + i + 1) for i in range(size - 1)]
        if cyclic:
            edges.append((n, n + size - 1))
        if kind == 0:
            edges.append((rng.randrange(n), n + rng.randrange(size)))
        n += size
    return from_edges(n, edges)


def _engine_matches_brute_force(seed: int, graph, is_leaf) -> None:
    """Z of 24 graphs drawn by graph(rng) from SplitMix64(seed) equals the
    oracle's, and at least 24 of their memo entries are leaves of the kind
    is_leaf(g, mask) names, so the sample reaches the shortcut it targets."""
    rng = SplitMix64(seed)
    leaves = 0
    for _ in range(24):
        g = graph(rng)
        prof = HardCoreProfile(g)
        assert prof.z == brute_force_polynomial(g), g.adj
        leaves += sum(is_leaf(g, mask) for mask in prof._memo)
    assert leaves >= 24


def _is_degree_two_leaf(g, mask: int) -> bool:
    """The memo entry for mask has at least 3 vertices and none of degree
    more than 2 within it: a path or cycle component."""
    return mask.bit_count() >= 3 and max((g.adj[v] & mask).bit_count() for v in bits_of(mask)) <= 2


def test_engine_matches_brute_force_on_degree_two_rich_graphs():
    _engine_matches_brute_force(1818, _degree_two_rich_graph, _is_degree_two_leaf)


def _random_tree_edges(rng: SplitMix64, first: int, size: int) -> list[tuple[int, int]]:
    """A random tree on vertices first, ..., first + size - 1: each vertex
    after the first hangs on one of the three lowest or on any earlier one,
    so most trees have a vertex of degree 3 or more."""
    return [(first + (rng.randrange(min(i, 3)) if rng.randrange(2) else rng.randrange(i)),
             first + i) for i in range(1, size)]


def _tree_rich_graph(rng: SplitMix64):
    """A graph of 10 to 20 vertices made mostly of trees: trees hung by one
    edge each on a Petersen or K4 core, or a forest with isolated vertices."""
    n_max = 10 + rng.randrange(11)
    if rng.randrange(2):
        core = petersen_graph() if rng.randrange(2) else complete_graph(4)
        edges, n, hung = core.edges(), core.n, True
    else:
        edges, n, hung = [], 0, False
    while n < n_max:
        size = 1 + rng.randrange(min(9, n_max - n))
        edges += _random_tree_edges(rng, n, size)
        if hung:
            edges.append((rng.randrange(n), n + rng.randrange(size)))
        n += size
    return from_edges(n, edges)


def _is_tree_leaf(g, mask: int) -> bool:
    """The memo entry for mask, a connected component, is a tree with a
    vertex of degree 3 or more: a component the engine no longer branches on."""
    degrees = [(g.adj[v] & mask).bit_count() for v in bits_of(mask)]
    return max(degrees) >= 3 and sum(degrees) == 2 * (mask.bit_count() - 1)


def test_engine_matches_brute_force_on_tree_rich_graphs():
    _engine_matches_brute_force(2626, _tree_rich_graph, _is_tree_leaf)


def _unicyclic_rich_graph(rng: SplitMix64):
    """A graph of 8 to 20 vertices made mostly of unicyclic pieces: a cycle
    of length 3 to 12 and one to five more vertices, each hanging on a random
    earlier vertex of the piece, so trees grow on the cycle.  The pieces
    stand alone or hang by one edge each on a Petersen or K4 core."""
    if rng.randrange(2):
        core = petersen_graph() if rng.randrange(2) else complete_graph(4)
        edges, n, hung = core.edges(), core.n, True
    else:
        edges, n, hung = [], 0, False
    n_max = n + 8 + rng.randrange(13 - n)
    while n_max - n >= 4:
        k = 3 + rng.randrange(min(10, n_max - n - 3))
        size = k + 1 + rng.randrange(min(5, n_max - n - k))
        edges += [(n + i, n + (i + 1) % k) for i in range(k)]
        edges += [(n + rng.randrange(i), n + i) for i in range(k, size)]
        if hung:
            edges.append((rng.randrange(n), n + rng.randrange(size)))
        n += size
    return from_edges(n, edges)


def _is_unicyclic_leaf(g, mask: int) -> bool:
    """The memo entry for mask, a connected component, has as many edges as
    vertices and a vertex of degree 3 or more: one cycle with trees on it."""
    degrees = [(g.adj[v] & mask).bit_count() for v in bits_of(mask)]
    return max(degrees) >= 3 and sum(degrees) == 2 * mask.bit_count()


def test_engine_matches_brute_force_on_unicyclic_rich_graphs():
    _engine_matches_brute_force(2828, _unicyclic_rich_graph, _is_unicyclic_leaf)


def test_unicyclic_components_take_one_memo_entry():
    # A triangle with a pendant on each vertex and a path of two on one of
    # them: the peeled rest is a 3-cycle, the shortest close.
    g = from_edges(8, [(0, 1), (1, 2), (0, 2), (0, 3), (1, 4), (2, 5), (5, 6), (6, 7)])
    prof = HardCoreProfile(g)
    assert prof.z == brute_force_polynomial(g)
    assert list(prof._memo) == [(1 << 8) - 1]
    # The 64-vertex sun: cycle:32 with one pendant on each cycle vertex.
    sun = from_edges(64, [(i, (i + 1) % 32) for i in range(32)] + [(i, 32 + i) for i in range(32)])
    prof = HardCoreProfile(sun)
    full = (1 << 64) - 1
    assert prof.z.coeffs == hardcore._digits(_branching_z_packed(sun.adj, full, {}))
    assert list(prof._memo) == [full]


def _branching_z_packed(adj, mask, memo):
    """The engine without tree leaves, kept as a reference: components come
    from a plain BFS, and each new one gets a separate degree scan in index
    order, whose first vertex of maximum degree is the branch vertex.  Only
    paths and cycles are leaves."""
    cached = memo.get(mask)
    if cached is not None:
        return cached
    out, isolated, rest = 1, 0, mask
    while rest:
        low = rest & -rest
        comp = frontier = low
        while frontier:
            bit = frontier & -frontier
            frontier ^= bit
            grow = adj[bit.bit_length() - 1] & rest & ~comp
            comp |= grow
            frontier |= grow
        rest ^= comp
        if comp == low:
            isolated += 1
            continue
        z = memo.get(comp)
        if z is None:
            best_v, best_d, degrees = -1, -1, 0
            for v in bits_of(comp):
                d = (adj[v] & comp).bit_count()
                degrees += d
                if d > best_d:
                    best_d, best_v = d, v
            k = comp.bit_count()
            if best_d <= 2:
                z = hardcore._path_row(k) if degrees < 2 * k else hardcore._cycle_row(k)
            else:
                z = (_branching_z_packed(adj, comp & ~(1 << best_v), memo)
                     + (_branching_z_packed(adj, comp & ~(adj[best_v] | 1 << best_v), memo) << 64))
            memo[comp] = z
        out *= z
    return out * ((1 << 64) + 1) ** isolated


def test_one_pass_engine_matches_the_branching_reference():
    # Same values, and memo keys a subset of the reference's: the one pass
    # picks the same branch vertex (maximum degree, lowest index), and a tree
    # or unicyclic leaf stores one entry where the reference stores its whole
    # recursion.
    rng = SplitMix64(4040)
    graphs = [corpus.random_graph(20 + rng.randrange(21), rng, 1, 4 + i % 8) for i in range(24)]
    graphs += [_tree_rich_graph(rng) for _ in range(8)] + [generate("kab:1,39 + petersen")]
    graphs += [_unicyclic_rich_graph(rng) for _ in range(8)]
    fewer = 0
    for g in graphs:
        prof = HardCoreProfile(g)
        prof.residuals
        memo: dict[int, int] = {}
        full = (1 << g.n) - 1
        for mask in [full] + [full & ~g.closed_mask(u) for u in range(g.n)]:
            assert hardcore._z_packed(g.adj, mask, prof._memo) == _branching_z_packed(
                g.adj, mask, memo), (g.adj, mask)
        assert prof._memo.keys() <= memo.keys(), g.adj
        fewer += len(prof._memo) < len(memo)
    assert fewer >= 16


def test_marginal_examples():
    assert profile(complete_graph(2)).marginals == (RatFunc(X, Poly([1, 2])),) * 2
    assert HardCoreProfile(empty_graph(2)).pair_marginal(0, 1) == RatFunc(X * X, ONE_PLUS ** 2)
    path3 = HardCoreProfile(path_graph(3))
    assert path3.pair_marginal(0, 2) == RatFunc(X * X, Poly([1, 3, 1]))
    assert path3.pair_marginal(0, 1).is_zero
    with pytest.raises(ValueError):
        path3.pair_marginal(1, 1)


@pytest.mark.parametrize("call", [
    lambda g: HardCoreProfile(g).pair_marginal(-2, 3),
    lambda g: HardCoreProfile(g).pair_marginal(0, 11),
    lambda g: HardCoreProfile(g).pair_marginal(0, -1),
    lambda g: subset_polynomial(g, 1 << 12),
    lambda g: subset_polynomial(g, -1),
], ids=["negative_vertex", "vertex_past_n", "negative_second_vertex", "mask_past_2n",
        "negative_mask"])
def test_engine_entrances_refuse_vertices_and_masks_outside_the_graph(call):
    # Unchecked, a negative vertex indexes adj from its end and reads another
    # vertex's neighbours, so the range is checked before any lookup.
    with pytest.raises(ValueError, match=r"outside (0\.\.9|\[0, 2\^10\))"):
        call(petersen_graph())


def test_occupancy_closed_forms():
    e = HardCoreProfile(complete_bipartite(3, 3)).expectation
    assert e == RatFunc(X * ONE_PLUS ** 2, 2 * ONE_PLUS ** 3 - 1)
    v = variance_fraction(complete_graph(5))
    assert v == RatFunc(X, Poly([1, 5]) ** 2)
    e3 = HardCoreProfile(pasch_graph()).expectation
    displayed = RatFunc(X * Poly([10, 66, 126, 80, 30, 6]),
                        10 * Poly([1, 10, 33, 42, 20, 6, 1]))
    assert e3 == displayed


def test_occupancy_is_mean_marginal():
    # E = (1/n) sum_u p_u, with E from Z' and each p_u from its residual,
    # as a Poly identity over the product of the marginals' denominators.
    for g in [path_graph(5), cycle_graph(6), generate("kab:2,3"), petersen_graph()]:
        prof = profile(g)
        total, den = Poly(), Poly([1])
        for p in prof.marginals:
            total, den = total * p.den + p.num * den, den * p.den
        e = prof.expectation
        assert total * e.den == g.n * e.num * den, g.label


def test_variance_via_marginals_examples():
    assert variance_via_marginals(empty_graph(2)) == RatFunc(X, ONE_PLUS ** 2)
    assert variance_via_marginals(complete_graph(3)) == RatFunc(X, Poly([1, 3]) ** 2)
    assert variance_via_marginals(path_graph(5)) == variance_fraction(path_graph(5))


def test_variance_via_marginals_raises_on_disagreement(monkeypatch):
    monkeypatch.setattr(HardCoreProfile, "variance", property(lambda self: RatFunc(Poly())))
    with pytest.raises(ArithmeticError, match="path:4"):
        variance_via_marginals(generate("path:4"))


def test_variance_via_marginals_raises_on_a_perturbed_pair_residual():
    # The marginal route's own data, not only the closed form, is checked:
    # one pair residual off by one is caught.
    prof = HardCoreProfile(generate("cycle:6"))
    exact = prof._pair_residual
    assert variance_via_marginals(prof) == prof.variance
    prof._pair_residual = lambda u, v: exact(u, v) + (1 if (u, v) == (0, 2) else 0)
    with pytest.raises(ArithmeticError, match="cycle:6"):
        variance_via_marginals(prof)


def test_variance_via_marginals_sums_pair_residuals_in_carry_free_chunks():
    # Every pair residual of these graphs has a coefficient C(62, 31) or
    # close to it, so 2^64 / C(62, 31) < 40 of them fill a digit: their
    # exact sum carries unless it is unpacked in chunks.
    for spec, pairs in (("empty:64", 2016), ("kab:1,63", 1953), ("kab:2,62", 1892)):
        g = generate(spec)
        assert comb(64, 2) - g.edge_count == pairs
        assert variance_via_marginals(g) == HardCoreProfile(g).variance, spec
    assert pairs * comb(62, 31) >= 2 ** 64 > 39 * comb(62, 31)


def test_variance_via_marginals_reads_the_given_profile(monkeypatch):
    prof = HardCoreProfile(generate("petersen + kab:2,3"))
    z, variance = prof.z, prof.variance
    assert variance_via_marginals(prof.graph) == variance

    def second_profile(self, graph):
        raise AssertionError("a second profile was built")

    monkeypatch.setattr(HardCoreProfile, "__init__", second_profile)
    assert variance_via_marginals(prof) == variance
    assert prof.z is z and prof.variance is variance
    # A planted V on this profile alone is what the marginal route is
    # compared against.
    prof.variance = RatFunc(Poly())
    with pytest.raises(ArithmeticError, match="petersen"):
        variance_via_marginals(prof)


def test_variance_is_x_times_the_derivative_of_expectation():
    # The closed form V = var_numerator(Z) / (n Z^2) against the definition
    # V = x dE/dx.  With E = N/D the quotient rule gives
    # V = x (N'D - ND') / D^2, checked as a Poly identity over the common
    # denominator.
    graphs = list(corpus.connected_corpus(5)) + [path_graph(24), generate("2*petersen + kab:3,3")]
    for g in graphs:
        prof = HardCoreProfile(g)
        n, d = prof.expectation.num, prof.expectation.den
        v = prof.variance
        assert v.num * d * d == X * (n.derivative() * d - n * d.derivative()) * v.den, g.label


@pytest.mark.parametrize("read", [
    lambda g: HardCoreProfile(g).expectation, variance_fraction, profile, variance_via_marginals,
    lambda g: HardCoreProfile(g).expectation_at(1),
    lambda g: HardCoreProfile(g).variance_at(F(1, 2)),
], ids=["occupancy_fraction", "variance_fraction", "profile", "variance_via_marginals",
        "occupancy_value", "variance_value"])
def test_empty_graph_has_no_quantities(read):
    with pytest.raises(ValueError, match="graph has no vertices"):
        read(empty_graph(0))


def test_variance_via_marginals_on_corpus_sample():
    rng = SplitMix64(8)
    for _ in range(15):
        g = corpus.random_graph(2 + rng.randrange(7), rng)
        assert variance_via_marginals(g) == variance_fraction(g)


def test_var_of_polynomial():
    assert var_of_polynomial(Poly([1, 2])) == RatFunc(2 * X, Poly([1, 2]) ** 2)
    assert var_of_polynomial(ONE_PLUS ** 3) == RatFunc(3 * X, ONE_PLUS ** 2)
    assert var_of_polynomial(Poly([1, 4, 2, 2])).evaluate(1) == F(74, 81)
    with pytest.raises(ValueError):
        var_of_polynomial(Poly([2, 1]))
    with pytest.raises(ValueError):
        var_of_polynomial(Poly([1, -1]))


def test_var_of_partition_is_scaled_variance_fraction():
    g = cycle_graph(6)
    z = independence_polynomial(g)
    v = variance_fraction(g)
    assert var_of_polynomial(z) == RatFunc(v.num * g.n, v.den)


def test_pointwise_evaluation_paths_agree():
    rng = SplitMix64(33)
    for _ in range(20):
        g = corpus.random_graph(2 + rng.randrange(8), rng)
        lam = F(1 + rng.randrange(8), 1 + rng.randrange(8))
        prof = HardCoreProfile(g)
        assert prof.expectation_at(lam) == prof.expectation.evaluate(lam)
        assert prof.variance_at(lam) == prof.variance.evaluate(lam)


def test_union_multiplicativity():
    one = generate("kab:1,2")
    three = generate("kab:1,2 + kab:1,2 + kab:1,2")
    assert independence_polynomial(three) == independence_polynomial(one) ** 3
    assert HardCoreProfile(three).expectation == HardCoreProfile(one).expectation
    assert variance_fraction(three) == variance_fraction(one)


def test_edge_removal_increases_partition():
    rng = SplitMix64(100)
    for _ in range(25):
        g = corpus.random_graph(3 + rng.randrange(6), rng)
        edges = g.edges()
        if not edges:
            continue
        u, v = edges[rng.randrange(len(edges))]
        adj = list(g.adj)
        adj[u] &= ~(1 << v)
        adj[v] &= ~(1 << u)
        removed = type(g)(g.n, tuple(adj))
        diff = independence_polynomial(removed) - independence_polynomial(g)
        assert all(c >= 0 for c in diff.coeffs)
        assert not diff.is_zero


def test_marginal_bounds_as_rational_functions():
    # p_u <= lam/(1+lam) and p_uv <= (lam/(1+lam)) p_v on the whole half-line.
    rng = SplitMix64(55)
    for _ in range(10):
        g = corpus.random_graph(3 + rng.randrange(5), rng)
        z = independence_polynomial(g)
        full = (1 << g.n) - 1
        for u in range(g.n):
            rest = subset_polynomial(g, full & ~g.closed_mask(u))
            assert nonneg_on_halfline(z - ONE_PLUS * rest).holds
        for u in range(g.n):
            for v in range(g.n):
                if u == v or g.has_edge(u, v):
                    continue
                both = subset_polynomial(g, full & ~(g.closed_mask(u) | g.closed_mask(v)))
                single = subset_polynomial(g, full & ~g.closed_mask(v))
                assert nonneg_on_halfline(single - ONE_PLUS * both).holds


def test_profile_lazy_pairs():
    g = path_graph(4)
    prof = profile(g)
    assert prof.z == Poly([1, 4, 3])
    assert len(prof.marginals) == 4
    p02 = prof.pair_marginal(0, 2)
    assert prof.pair_marginal(2, 0) == p02 == RatFunc(X * X, Poly([1, 4, 3]))
    assert prof.pair_marginal(0, 1).is_zero


def test_profile_marginals_match_marginal():
    # p_u = x Z(G - N[u]) / Z and p_uv = x^2 Z(G - N[u] - N[v]) / Z, with
    # every Z from the brute-force oracle on the induced subgraph.
    for g in [path_graph(7), generate("petersen + kab:2,3 + empty:2"),
              corpus.random_graph(10, SplitMix64(5), 1, 3)]:
        prof = profile(g)
        full = (1 << g.n) - 1
        z = brute_force_polynomial(g)
        assert prof.z == z
        for u in range(g.n):
            rest = brute_force_polynomial(g.induced(full & ~g.closed_mask(u)))
            assert prof.marginals[u] == RatFunc(X * rest, z), u
            for v in range(u + 1, g.n):
                both = full & ~(g.closed_mask(u) | g.closed_mask(v))
                expected = RatFunc(Poly()) if g.has_edge(u, v) else \
                    RatFunc(X * X * brute_force_polynomial(g.induced(both)), z)
                assert prof.pair_marginal(u, v) == expected, (u, v)


def _assert_residuals_match_the_oracle(g):
    # Every residual Z(G - N[u]) and pair residual Z(G - N[u] - N[v]), the
    # latter for adjacent pairs too, against the oracle on the subgraph.
    prof = HardCoreProfile(g)
    full = (1 << g.n) - 1
    for u in range(g.n):
        rest = full & ~g.closed_mask(u)
        assert prof.residuals[u] == brute_force_polynomial(g.induced(rest)), (g.adj, u)
        for v in range(u + 1, g.n):
            both = rest & ~g.closed_mask(v)
            assert prof._outside(full & ~both) == brute_force_polynomial(g.induced(both)), \
                (g.adj, u, v)


def test_residuals_match_the_oracle_on_every_small_graph():
    for n in range(7):
        for g in corpus.all_graphs(n):
            _assert_residuals_match_the_oracle(g)


def test_residuals_match_the_oracle_on_seeded_graphs():
    rng = SplitMix64(2323)
    for n in range(7, 15):
        for p_denom in (2, 4, 8):
            _assert_residuals_match_the_oracle(corpus.random_graph(n, rng, 1, p_denom))


def test_pair_residuals_count_ordered_pairs_of_an_independent_set():
    # x^2 Z(G - N[u] - N[v]) counts the independent sets holding both of the
    # non-adjacent u and v, so its sum over ordered pairs is the sum of
    # j (j - 1) i_j x^j = 2 C(j, 2) i_j x^j.
    g = corpus.random_graph(30, SplitMix64(3030), 1, 8)
    prof = HardCoreProfile(g)
    pair_sum = sum((Poly(hardcore._digits(prof._pair_residual(u, v)))
                    for u in range(g.n) for v in range(g.n)
                    if u != v and not g.has_edge(u, v)), Poly())
    assert X * X * pair_sum == Poly([2 * comb(j, 2) * c for j, c in enumerate(prof.z.coeffs)])
    assert prof.z.degree >= 8


def _subset_scan(g, z_of):
    """The neighborhood table by its definition: each neighborhood subset
    mask summed bit by bit, subsets in picks order, Z_F = z_of(mask), first
    (u, mask) kept per Z_F."""
    expected = {}
    for u in range(g.n):
        neighbors = list(bits_of(g.adj[u]))
        for picks in range(1 << len(neighbors)):
            mask = sum(1 << v for i, v in enumerate(neighbors) if picks >> i & 1)
            zf = z_of(mask)
            expected.setdefault(zf.coeffs, (zf, zf.derivative(), u, mask))
    return tuple(expected.values())


def test_neighborhood_table_matches_the_subset_scan():
    # Reference Z_F from the oracle on the induced subgraph.
    for g in [petersen_graph(), pasch_graph(), generate("kn:4 + cycle:5 + path:3"),
              corpus.random_graph(12, SplitMix64(31), 1, 2)]:
        expected = _subset_scan(g, lambda mask: brute_force_polynomial(g.induced(mask)))
        assert HardCoreProfile(g).neighborhood_table == expected, g.adj
    # Dense seeded graphs, maximum degree up to 12 and neighborhoods with
    # edges, where the oracle is too slow: reference Z_F from one engine call
    # per subset, on a second profile's memo.
    degrees = []
    for seed, (p_numer, p_denom) in [(7, (2, 3)), (8, (3, 4)), (9, (5, 6))]:
        g = corpus.random_graph(13, SplitMix64(seed), p_numer, p_denom)
        engine = HardCoreProfile(g)
        expected = _subset_scan(g, lambda mask: Poly(engine._coeffs(mask)))
        assert HardCoreProfile(g).neighborhood_table == expected, g.adj
        assert not g.is_triangle_free()
        degrees.append(g.max_degree)
    assert max(degrees) == 12


def test_neighborhood_table_at_the_degree_budget():
    # The centre of kab:1,20 has MAX_DEGREE_BUDGET independent neighbors:
    # its first subset of each size j gives the row (1 + x)^j, and the
    # leaves add nothing new.  The largest coefficient, C(20, 10), stays
    # below 2^21, the bound on a packed digit at k = 22.
    g = generate("kab:1,20")
    assert g.max_degree == MAX_DEGREE_BUDGET == 20
    assert comb(20, 10) < 2 ** 21
    assert HardCoreProfile(g).neighborhood_table == tuple(
        (ONE_PLUS ** j, (ONE_PLUS ** j).derivative(), 0, sum(1 << v for v in range(1, j + 1)))
        for j in range(21))
