"""Enumeration up to isomorphism and the six-vertex search."""

import hashlib
import time

from hardcore_lab import corpus
from hardcore_lab.graphs import Graph, bits_of, disjoint_union, generate
from hardcore_lab.hardcore import brute_force_polynomial
from hardcore_lab.sampler import SplitMix64

# Counts of graphs (all / connected) up to isomorphism, cross-checked against
# the standard enumerations.
KNOWN_COUNTS = {
    1: (1, 1), 2: (2, 1), 3: (4, 2), 4: (11, 6), 5: (34, 21), 6: (156, 112),
    7: (1044, 853),
}


# sha256 of repr([g.adj for g in all_graphs(n)]): the representatives and
# their order as the unpruned individualization-refinement search (the
# reference copy below) enumerated them. Criterion 08 pins n = 8.
CORPUS_DIGESTS = {
    0: "b18a48f02566e6150fce7a3ece72478f44afc0341489d43f01f25f0351984bab",
    1: "78fce9491f4b0e3b895728f3c6efe71e16e4ae77f5f6db9148e6e0584bc5fd42",
    2: "3639c5501f6c3f516eb14a915d6ae1583a1c70be2c1a5b8618c0ad78858d6ace",
    3: "d2d084da6594fe6a90aad21a7d7fb1e291fefb8c8e6c6d40b5a4998a44ea19fc",
    4: "ce2747c99fead6fb0530df503efa710a2b344c660480c28f4eb7e98b5de84862",
    5: "a37b8f0208ca9fd16237387cbda995c18d0bba65eb822d38eb1725f7a0ba37e9",
    6: "86721f36d12f0abd2f71a04d99a6805ed2a9c5d484271846d3d4b24e75d0cb7f",
    7: "a9c1bd4d78b8b0497cb57c4f28dcd8f050dd94cdd68cc75d04fd041eea3f11a5",
}


def test_enumeration_is_pinned():
    for n, digest in CORPUS_DIGESTS.items():
        adjs = repr([g.adj for g in corpus.all_graphs(n)]).encode()
        assert hashlib.sha256(adjs).hexdigest() == digest, n


def test_enumeration_state_lives_in_one_cache():
    before = corpus.all_graphs(6)
    corpus.all_graphs.cache_clear()
    after = corpus.all_graphs(6)
    assert after == before and after is not before
    caches = [name for name, obj in vars(corpus).items() if hasattr(obj, "cache_clear")]
    assert caches == ["all_graphs"]
    containers = [name for name, obj in vars(corpus).items()
                  if isinstance(obj, (dict, list, set)) and not name.startswith("__")]
    assert containers == ["SIGNATURES"]


def test_enumeration_counts():
    for n, (total, connected) in KNOWN_COUNTS.items():
        assert len(corpus.all_graphs(n)) == total
        assert len(corpus.connected_graphs(n)) == connected


def test_connected_corpus_is_labeled_and_sized():
    graphs = corpus.connected_corpus(5)
    assert len(graphs) == 1 + 1 + 2 + 6 + 21
    assert all(g.label for g in graphs)


def _relabel(g: Graph, perm: list[int]) -> Graph:
    adj = [0] * g.n
    for u in range(g.n):
        for v in bits_of(g.adj[u]):
            adj[perm[u]] |= 1 << perm[v]
    return Graph(g.n, tuple(adj))


def _shuffled(n, rng):
    perm = list(range(n))
    for i in range(n - 1, 0, -1):
        j = rng.randrange(i + 1)
        perm[i], perm[j] = perm[j], perm[i]
    return perm


def _lift(n: int, edges, shifts, k: int) -> Graph:
    """The k-fold cover of a base graph that joins copy i of u to copy
    i + shift of v: rotating the copies is an automorphism."""
    adj = [0] * (n * k)
    for (u, v), s in zip(edges, shifts):
        for i in range(k):
            a, b = u * k + i, v * k + (i + s) % k
            adj[a] |= 1 << b
            adj[b] |= 1 << a
    return Graph(n * k, tuple(adj))


def test_canonical_key_is_relabeling_invariant():
    rng = SplitMix64(321)
    for _ in range(150):
        n = 2 + rng.randrange(7)
        g = corpus.random_graph(n, rng)
        assert corpus.canonical_key(g) == corpus.canonical_key(_relabel(g, _shuffled(n, rng)))
    # Covers are symmetric without twins or vertex-transitivity, which is
    # where pruning by automorphisms found at the leaves decides the search.
    rng = SplitMix64(2121)
    for _ in range(250):
        n, k = 3 + rng.randrange(5), 2 + rng.randrange(2)
        denom = 2 + rng.randrange(3)
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.randrange(denom)]
        g = _lift(n, edges, [rng.randrange(k) for _ in edges], k)
        key = corpus.canonical_key(g)
        for _ in range(3):
            assert corpus.canonical_key(_relabel(g, _shuffled(g.n, rng))) == key, g.adj


def test_canonical_key_separates_nonisomorphic():
    seen = set()
    for g in corpus.all_graphs(5):
        key = corpus.canonical_key(g)
        assert key not in seen
        seen.add(key)


def test_are_isomorphic():
    a = generate("path:4")
    b = _relabel(a, [2, 0, 3, 1])
    assert corpus.are_isomorphic(a, b)
    assert not corpus.are_isomorphic(a, generate("cycle:4"))


def test_random_graph_determinism():
    g1 = corpus.random_graph(10, SplitMix64(9))
    g2 = corpus.random_graph(10, SplitMix64(9))
    assert g1.adj == g2.adj


def test_random_triangle_free_generator():
    rng = SplitMix64(77)
    for _ in range(40):
        g = corpus.random_triangle_free_graph(3 + rng.randrange(10), rng)
        assert g.is_triangle_free()
        assert g.edge_count >= 1


def test_six_vertex_search_oracle_regression():
    # Each signature pins a unique isomorphism class, matching the frozen
    # edge lists.
    assert list(corpus.SIGNATURES) == ["g1", "g2"]
    for name, signature in corpus.SIGNATURES.items():
        found = corpus.find_six_vertex_counterexamples(*signature)
        assert len(found) == 1, name
        assert corpus.are_isomorphic(found[0], generate(name)), name


def _labelled_scan():
    """The six-vertex search as first written: scan all 2^15 labelled graphs
    in increasing order, with Z from the subset-enumeration oracle, and keep
    the first graph met of each class, per (Z, edge types) signature."""
    found = {}
    for bits in range(1 << 15):
        g = corpus._graph_from_bits(6, bits)
        types = {}
        for u, v in g.edges():
            key = tuple(sorted((g.degree(u), g.degree(v))))
            types[key] = types.get(key, 0) + 1
        signature = (brute_force_polynomial(g).coeffs, tuple(sorted(types.items())))
        found.setdefault(signature, {}).setdefault(corpus.canonical_bits(6, g.adj), g)
    return found


def test_six_vertex_search_matches_the_labelled_scan():
    # For every signature that occurs, the search over all_graphs(6) returns
    # the graphs the labelled scan kept, labelling and order included.
    scanned = _labelled_scan()
    assert sum(len(classes) for classes in scanned.values()) == 156
    for (z, types), classes in scanned.items():
        found = corpus.find_six_vertex_counterexamples(z, dict(types))
        assert [g.adj for g in found] == [classes[k].adj for k in sorted(classes)], (z, types)


# -- the unpruned search, as first written: the reference for every key ------

def _reference_refine(n, adj, colors):
    while True:
        signatures = [
            (colors[v], tuple(sorted(colors[w] for w in bits_of(adj[v]))))
            for v in range(n)
        ]
        order = {sig: i for i, sig in enumerate(sorted(set(signatures)))}
        new = [order[signatures[v]] for v in range(n)]
        if len(set(new)) == len(set(colors)):
            return new
        colors = new


def _reference_canonical_bits(n, adj):
    if n <= 1:
        return 0
    best = -1

    def search(colors):
        nonlocal best
        colors = _reference_refine(n, adj, colors)
        classes = {}
        for v, c in enumerate(colors):
            classes.setdefault(c, []).append(v)
        target = None
        for c in sorted(classes):
            if len(classes[c]) > 1:
                target = c
                break
        if target is None:
            perm = sorted(range(n), key=lambda v: colors[v])
            key = 0
            for i in range(n):
                for j in range(i + 1, n):
                    key = (key << 1) | (adj[perm[i]] >> perm[j] & 1)
            best = max(best, key)
            return
        distinguished = max(colors) + 1
        for v in classes[target]:
            branched = list(colors)
            branched[v] = distinguished
            search(branched)

    search([0] * n)
    return best


def _join(g: Graph, h: Graph) -> Graph:
    u = disjoint_union(g, h)
    left = (1 << g.n) - 1
    right = ((1 << u.n) - 1) ^ left
    return Graph(u.n, tuple(a | (right if v < g.n else left) for v, a in enumerate(u.adj)))


def test_keys_match_the_reference_search():
    rng = SplitMix64(606)
    graphs = [_relabel(g, _shuffled(n, rng)) for n in range(7) for g in corpus.all_graphs(n)]
    for _ in range(300):
        n = 1 + rng.randrange(9)
        denom = 2 + rng.randrange(4)
        graphs.append(corpus.random_graph(n, rng, 1 + rng.randrange(denom - 1), denom))
    # twin-heavy: unions and joins of cliques and empty graphs
    symmetric = [generate(spec) for spec in (
        "3*kn:3", "kab:2,4", "kab:4,5", "2*kn:4", "3*kab:1,2", "kn:3 + empty:3",
        "4*kn:2", "kn:2 + kn:3 + empty:2", "empty:7", "kn:7")]
    symmetric += [_join(generate(a), generate(b)) for a, b in (
        ("2*kn:2", "empty:3"), ("kn:3", "empty:4"), ("kn:2 + kn:3", "kn:1 + kn:2"),
        ("3*kn:2", "kn:2"), ("empty:2", "2*kn:3"))]
    graphs += symmetric + [_relabel(g, _shuffled(g.n, rng)) for g in symmetric]
    for g in graphs:
        assert corpus.canonical_bits(g.n, g.adj) == _reference_canonical_bits(g.n, g.adj), g.adj


def test_canonical_labelling_at_64_vertices():
    rng = SplitMix64(6464)
    for spec in ("empty:64", "kn:64", "kab:32,32", "8*kn:8"):
        g = generate(spec)
        start = time.perf_counter()
        key = corpus.canonical_bits(g.n, g.adj)
        assert time.perf_counter() - start < 1.0, spec
        h = _relabel(g, _shuffled(g.n, rng))
        start = time.perf_counter()
        assert corpus.canonical_bits(h.n, h.adj) == key, spec
        assert time.perf_counter() - start < 1.0, spec
