"""Graph substrate: generators, graph6, neighborhoods, identities."""

import re
import tracemalloc

import pytest

from hardcore_lab.graphs import (
    Graph,
    bits_of,
    complete_bipartite,
    complete_graph,
    cycle_graph,
    disjoint_union,
    empty_graph,
    encode_graph6,
    from_edges,
    generate,
    g1_graph,
    g2_graph,
    parse_graph6,
    pasch_graph,
    path_graph,
    petersen_graph,
    read_edge_list,
)
from hardcore_lab.corpus import random_graph
from hardcore_lab.sampler import SplitMix64


def test_triangle():
    g = generate("kn:3")
    assert g.degrees() == (2, 2, 2) and g.edge_count == 3


@pytest.mark.parametrize("call", [
    lambda g: g.has_edge(-2, 3),
    lambda g: g.has_edge(0, 70),
    lambda g: g.degree(-1),
    lambda g: g.closed_mask(-1),
    lambda g: g.closed_mask(10),
], ids=["has_edge_negative", "has_edge_past_n", "degree_negative", "closed_mask_negative",
        "closed_mask_past_n"])
def test_vertex_queries_refuse_vertices_outside_the_graph(call):
    # Unchecked, a negative vertex reads adj from its end and a large one
    # shifts past every bit or runs off adj.
    with pytest.raises(ValueError, match=r"outside 0\.\.9"):
        call(petersen_graph())


def test_adjacency_validation():
    with pytest.raises(ValueError):
        Graph(2, (1, 0))  # self-loop on vertex 0
    with pytest.raises(ValueError):
        Graph(2, (2, 0))  # asymmetric
    with pytest.raises(ValueError):
        Graph(65, (0,) * 65)
    with pytest.raises(ValueError, match="adjacency length does not match vertex count"):
        Graph(2, (0,))
    with pytest.raises(ValueError, match="adjacency of vertex 0 mentions nonexistent vertices"):
        Graph(2, (4, 0))


def test_pasch_structure():
    g = pasch_graph()
    assert g.n == 10 and g.edge_count == 12
    assert sorted(g.degrees()) == [2] * 6 + [3] * 4
    assert all(sorted((g.degree(u), g.degree(v))) == [2, 3] for u, v in g.edges())
    assert g.is_triangle_free()


def test_petersen_structure():
    g = petersen_graph()
    assert g.n == 10 and g.edge_count == 15
    assert g.degrees() == (3,) * 10 and g.is_triangle_free()


def test_pinned_six_vertex_graphs():
    g1 = g1_graph()
    assert g1.n == 6 and g1.edge_count == 7
    types: dict[tuple[int, int], int] = {}
    for u, v in g1.edges():
        key = tuple(sorted((g1.degree(u), g1.degree(v))))
        types[key] = types.get(key, 0) + 1
    assert types == {(2, 3): 3, (1, 4): 1, (2, 4): 3}

    g2 = g2_graph()
    assert g2.n == 6 and g2.edge_count == 6
    types = {}
    for u, v in g2.edges():
        key = tuple(sorted((g2.degree(u), g2.degree(v))))
        types[key] = types.get(key, 0) + 1
    assert types == {(1, 3): 2, (2, 3): 4}


def test_generator_unions_and_copies():
    g = generate("kab:1,2 + kab:1,2 + kab:1,2")
    assert g.n == 9 and g.edge_count == 6
    h = generate("3*kab:1,2")
    assert h.n == 9 and h.adj == g.adj
    mixed = generate("kn:3 + path:2")
    assert mixed.n == 5 and mixed.edge_count == 4


def _raises_within_one_megabyte(build, *args, match=None):
    # An oversized request is refused before anything of its size is built.
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=match):
            build(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20, (args, peak)


@pytest.mark.parametrize("build, args", [
    (complete_graph, (20000,)),
    (path_graph, (100000,)),
    (cycle_graph, (100000,)),
    (empty_graph, (10**6,)),
    (complete_bipartite, (100000, 1)),
], ids=["complete_graph", "path_graph", "cycle_graph", "empty_graph", "complete_bipartite"])
def test_generators_check_the_cap_before_building(build, args):
    # The one message of the cap, before anything of that size is built.
    _raises_within_one_megabyte(build, *args, match=f"vertex count {sum(args)} outside 0..64")


def test_generator_errors():
    for bad in ("frob:3", "kn:0", "cycle:2", "kn:99", "", "kn:3 + + kn:2", "0*kn:2"):
        with pytest.raises(ValueError):
            generate(bad)
    for oversized in ("kab:8000000,1", "kab:1,8000000", "800000*kn:1"):
        _raises_within_one_megabyte(generate, oversized)
    # generate refuses cycle:2 by its own size floor; the builder refuses too.
    for n in (0, 1, 2):
        with pytest.raises(ValueError, match="^cycles need at least 3 vertices$"):
            cycle_graph(n)


_MALFORMED_ATOMS = {
    "kab:1": "kab takes 2 size(s), got 1",
    "kab:1,2,3": "kab takes 2 size(s), got 3",
    "kn:": "kn takes 1 size(s), got 0",
    "kab:1,": "size '' is not an integer",
    "path:x": "size 'x' is not an integer",
    "pasch:3": "pasch takes 0 size(s), got 1",
}


@pytest.mark.parametrize("term", list(_MALFORMED_ATOMS))
def test_malformed_atoms_name_what_is_wrong(term):
    # A known atom with the wrong number of sizes, or a size that is not an
    # integer, is refused in the lab's own words.
    with pytest.raises(ValueError) as info:
        generate(term)
    assert str(info.value) == f"bad generator spec term {term!r}: {_MALFORMED_ATOMS[term]}"


def test_graph6_known_strings():
    assert parse_graph6("A_").edges() == [(0, 1)]
    assert parse_graph6(">>graph6<<A_") == parse_graph6("A_")
    empty2 = parse_graph6("A?")
    assert empty2.n == 2 and empty2.edge_count == 0
    assert parse_graph6("Bw").degrees() == (2, 2, 2)


def test_graph6_round_trip_random_corpus():
    rng = SplitMix64(314159)
    for _ in range(1000):
        n = 1 + rng.randrange(16)
        g = random_graph(n, rng)
        assert parse_graph6(encode_graph6(g)) == Graph(g.n, g.adj)


def test_graph6_large_header_round_trip():
    rng = SplitMix64(1)
    g = random_graph(64, rng)
    s = encode_graph6(g)
    assert s.startswith("~")
    assert parse_graph6(s) == Graph(g.n, g.adj)


def test_graph6_malformed():
    for bad in ("", "Bww", "B", "~??"):
        with pytest.raises(ValueError):
            parse_graph6(bad)
    for bad, message in (("A!", "graph6 byte out of range"),
                         ("~?@@", "graph6 graph on 65 vertices exceeds the 64-vertex cap"),
                         ("A@", "graph6 padding bits are not zero")):
        with pytest.raises(ValueError, match=message):
            parse_graph6(bad)


def test_neighborhood_data_path_middle():
    # The codegrees are keyed by the vertices at distance exactly two.
    g = path_graph(5)
    assert g.codegrees(2) == {0: 1, 4: 1}
    assert g.codegrees(0) == {2: 1}


def test_neighborhood_data_complete():
    g = complete_graph(4)
    assert all(g.codegrees(u) == {} for u in range(4))


def test_neighborhood_data_cycle5():
    g = cycle_graph(5)
    for u in range(5):
        assert g.codegrees(u) == {(u + 2) % 5: 1, (u + 3) % 5: 1}
    # Two common neighbours: the opposite corner of a 4-cycle.
    assert cycle_graph(4).codegrees(0) == {2: 2}
    assert complete_bipartite(2, 3).codegrees(0) == {1: 3}


def test_triangle_free_detection():
    assert not complete_graph(3).is_triangle_free()
    assert complete_bipartite(3, 3).is_triangle_free()
    assert pasch_graph().is_triangle_free()


def test_edge_count_identity_named():
    for u in range(5):
        assert cycle_graph(5).tf_edge_count_identity(u)
    g = pasch_graph()
    for u in range(g.n):
        assert g.tf_edge_count_identity(u)
    g = complete_bipartite(2, 3)
    # a degree-3 vertex sits in the part of size 2
    v = next(u for u in range(5) if g.degree(u) == 3)
    assert g.tf_edge_count_identity(v)
    with pytest.raises(ValueError):
        complete_graph(3).tf_edge_count_identity(0)


def test_handshake_on_random_graphs():
    rng = SplitMix64(17)
    for _ in range(100):
        g = random_graph(1 + rng.randrange(12), rng)
        assert sum(g.degrees()) == 2 * g.edge_count
        assert sum(g.degrees()) % 2 == 0


def test_components_and_clique_unions():
    g = generate("kn:3 + kn:2 + empty:1")
    assert len(g.components()) == 3
    assert g.is_disjoint_union_of_cliques()
    assert not path_graph(3).is_disjoint_union_of_cliques()
    assert complete_graph(4).is_connected()
    assert not g.is_connected()


def test_induced_subgraph():
    g = cycle_graph(5)
    h = g.induced(0b01011)  # vertices 0, 1, 3
    assert h.n == 3 and h.edge_count == 1  # only the 0-1 edge survives


def test_disjoint_union_shifts_masks():
    g = disjoint_union(complete_graph(2), complete_graph(2))
    assert g.edges() == [(0, 1), (2, 3)]


def test_edge_list_parsing():
    text = "# a triangle plus an isolated edge\n0 1\n1 2\n2 0\n\n3 4\n"
    g = read_edge_list(text)
    assert g.n == 5 and g.edge_count == 4
    with pytest.raises(ValueError):
        read_edge_list("0 1 2")
    with pytest.raises(ValueError):
        read_edge_list("1 1")
    for bad in ("0 -1", "0 64"):
        with pytest.raises(ValueError):
            read_edge_list(bad)
    # A vertex id that is not a run of ASCII digits is a bad line, not
    # Python's message, even where int() would read it.
    for bad in ("a b", "0 1.5", "0 1_0", "+0 1", "0 \u0661"):
        with pytest.raises(ValueError, match=f"^{re.escape(f'bad edge line: {bad!r}')}$"):
            read_edge_list(f"0 1\n{bad}\n")
    _raises_within_one_megabyte(read_edge_list, "0 1\n2 5000000\n")


def test_bits_of_order():
    assert list(bits_of(0b101001)) == [0, 3, 5]


def test_from_edges_rejects_self_loop():
    with pytest.raises(ValueError):
        from_edges(2, [(0, 0)])


def test_from_edges_rejects_out_of_range_vertices():
    for n, edges in ((2, [(0, 2)]), (2, [(-1, 0)]), (65, [])):
        with pytest.raises(ValueError):
            from_edges(n, edges)
    _raises_within_one_megabyte(from_edges, 3, [(0, 5_000_000)])
