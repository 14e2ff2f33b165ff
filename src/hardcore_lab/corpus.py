"""Graph corpora: canonical forms, exhaustive enumeration up to isomorphism,
seeded random graph streams, and the six-vertex counterexample search."""

from __future__ import annotations

import functools
import itertools
from collections import Counter

from .graphs import Graph, bits_of
from .hardcore import HardCoreProfile


# -- canonical labeling -----------------------------------------------------
#
# A colouring is an ordered partition: one vertex mask per colour, in colour
# order. The canonical form is the largest upper-triangle readout over the
# leaves of an individualization-refinement search on these colourings.

def _refine(adj: tuple[int, ...], cells: list[int], fresh: list[int]) -> list[int]:
    """Iterated colour refinement of the ordered partition `cells`.

    Each round splits every cell by its vertices' neighbour counts in the
    cells of `fresh` (the cells the previous step created) and orders the
    pieces by decreasing count vector. This is the colouring obtained by
    ranking (colour, sorted neighbour colours): the vertices of a cell have
    equal degrees, so one's sorted neighbour colours come first exactly when
    its count vector is the larger; and a cell that did not split meets all
    vertices of any one cell equally often, so it cannot reorder them.
    """
    while fresh:
        out: list[int] = []
        created: list[int] = []
        for cell in cells:
            if not cell & (cell - 1):
                out.append(cell)
                continue
            groups: dict[int, int] = {}
            rest = cell
            while rest:
                low = rest & -rest
                a = adj[low.bit_length() - 1]
                sig = 0
                for f in fresh:  # counts are at most 64, seven bits each
                    sig = sig << 7 | (a & f).bit_count()
                groups[sig] = groups.get(sig, 0) | low
                rest ^= low
            if len(groups) == 1:
                out.append(cell)
            else:
                parts = [groups[sig] for sig in sorted(groups, reverse=True)]
                out += parts
                created += parts
        cells, fresh = out, created
    return cells


def _degree_cells(n: int, adj: tuple[int, ...]) -> list[int]:
    """The refined colouring of the uncoloured graph; its first round is the
    partition by degree, smallest first, which is stable if it is one cell."""
    by_degree: dict[int, int] = {}
    for v in range(n):
        d = adj[v].bit_count()
        by_degree[d] = by_degree.get(d, 0) | 1 << v
    cells = [by_degree[d] for d in sorted(by_degree)]
    return _refine(adj, cells, cells if len(cells) > 1 else [])


def _key_for_order(n: int, adj: tuple[int, ...], perm: list[int]) -> int:
    key = 0
    for i in range(n):
        ai = adj[perm[i]]
        for j in range(i + 1, n):
            key = (key << 1) | (ai >> perm[j] & 1)
    return key


def _orbit_closure(mask: int, gens: list[tuple[int, ...]]) -> int:
    """The union of the orbits that meet `mask` under the group `gens` generate."""
    todo = mask
    while todo:
        low = todo & -todo
        todo ^= low
        u = low.bit_length() - 1
        for g in gens:
            b = 1 << g[u]
            if not mask & b:
                mask |= b
                todo |= b
    return mask


def _search(n: int, adj: tuple[int, ...], root: list[int]) -> int:
    """Individualization-refinement search for the largest readout, from the
    refined colouring `root` of the uncoloured graph.

    Two kinds of automorphism prune the search. Neither can remove the
    largest readout, because each maps a skipped subtree onto one already
    searched (McKay and Piperno, "Practical graph isomorphism, II", 2014):
    - twins: when u and v have the same neighbours apart from each other,
      the transposition (u v) fixes the colouring of every node where both
      share a cell, so only one of them is branched on;
    - leaves with equal readouts: the map between their orders is an
      automorphism. A node skips the branches in the orbits, under the maps
      that fix its path, of those it has searched; and when the map carries
      the best leaf's path onto the current one, everything below the point
      where the two paths part is an image of what was searched, so the
      search resumes there.
    """
    best = -1
    best_order: list[int] = []
    best_path: tuple[int, ...] = ()
    autos: list[tuple[int, ...]] = []

    def visit(cells: list[int], path: tuple[int, ...]) -> int:
        """Search below a node; returns the depth to resume at."""
        nonlocal best, best_order, best_path
        depth = len(path)
        if len(cells) == n:
            order = [cell.bit_length() - 1 for cell in cells]
            key = _key_for_order(n, adj, order)
            if key > best:
                best, best_order, best_path = key, order, path
            elif key == best:
                image = [0] * n
                for u, w in zip(best_order, order):
                    image[u] = w
                autos.append(tuple(image))
                if len(best_path) == depth and all(image[u] == w for u, w in zip(best_path, path)):
                    return next(i for i, (u, w) in enumerate(zip(best_path, path)) if u != w)
            return depth
        t = next(i for i, cell in enumerate(cells) if cell & (cell - 1))
        target = cells[t]
        branched: list[int] = []
        gens: list[tuple[int, ...]] = []
        used = 0
        covered = 0
        rest = target
        while rest:
            low = rest & -rest
            rest ^= low
            v = low.bit_length() - 1
            if any(adj[u] & ~(low | 1 << u) == adj[v] & ~(low | 1 << u) for u in branched):
                continue
            if len(autos) > used:
                gens += [g for g in autos[used:] if all(g[u] == u for u in path)]
                used = len(autos)
                covered = _orbit_closure(covered, gens)
            if covered & low:
                continue
            branched.append(v)
            covered = _orbit_closure(covered | low, gens) if gens else covered | low
            back = visit(_refine(adj, cells[:t] + [target ^ low] + cells[t + 1:] + [low],
                                 [target ^ low, low]), path + (v,))
            if back < depth:
                return back
        return depth

    visit(root, ())
    return best


def canonical_bits(n: int, adj: tuple[int, ...]) -> int:
    """Canonical upper-triangle adjacency bits: the maximum readout over all
    orderings compatible with color refinement, with individualization to
    split classes refinement cannot."""
    return _search(n, adj, _degree_cells(n, adj))


def canonical_key(g: Graph) -> tuple[int, int]:
    return g.n, canonical_bits(g.n, g.adj)


def _graph_from_bits(n: int, bits: int) -> Graph:
    adj = [0] * n
    k = n * (n - 1) // 2
    for i in range(n):
        for j in range(i + 1, n):
            k -= 1
            if bits >> k & 1:
                adj[i] |= 1 << j
                adj[j] |= 1 << i
    return Graph(n, tuple(adj))


def are_isomorphic(g: Graph, h: Graph) -> bool:
    return canonical_key(g) == canonical_key(h)


# -- exhaustive enumeration --------------------------------------------------

def _twin_classes(n: int, adj: tuple[int, ...]) -> list[int]:
    """The twin classes with two or more vertices, as masks. Twins have the
    same neighbours apart from each other; being twins is an equivalence
    (open and closed twins cannot chain), and any permutation inside a class
    is an automorphism."""
    classes = []
    placed = 0
    for u in range(n):
        if placed >> u & 1:
            continue
        cls = 1 << u
        for v in range(u + 1, n):
            other = ~(1 << u | 1 << v)
            if adj[u] & other == adj[v] & other:
                cls |= 1 << v
        placed |= cls
        if cls & (cls - 1):
            classes.append(cls)
    return classes


@functools.lru_cache(maxsize=None)
def all_graphs(n: int) -> tuple[Graph, ...]:
    """All graphs on n vertices up to isomorphism, one canonical
    representative each, built by vertex augmentation.

    A graph G arises from the representative of G - y, for y in the first
    cell of G's refined colouring, by adding a vertex joined to the images of
    y's neighbours. So an augmentation is labelled only if its new vertex
    lands in that cell (which holds vertices of least degree only), and only
    with a neighbourhood that meets each twin class of the parent in its
    lowest vertices: permuting twins maps every other neighbourhood onto one
    of these, with the same graph as result.
    """
    if n == 0:
        return (Graph(0, ()),)
    x = n - 1
    seen: set[int] = set()
    for g in all_graphs(x):
        twins = _twin_classes(x, g.adj)
        # short[d]: the parent's vertices of degree below d
        short = [sum(1 << v for v in range(x) if g.adj[v].bit_count() < d) for d in range(n)]
        for subset in range(1 << x):
            d = subset.bit_count()
            if short[d] & ~subset or d and short[d - 1] & subset:
                continue  # some vertex would have degree below the new one's
            if any(c & ((1 << (c & subset).bit_length()) - 1) != c & subset for c in twins):
                continue  # not the lowest vertices of some twin class
            adj = list(g.adj) + [subset]
            for v in bits_of(subset):
                adj[v] |= 1 << x
            adj = tuple(adj)
            root = _degree_cells(n, adj)
            if root[0] >> x & 1:
                seen.add(_search(n, adj, root))
    return tuple(_graph_from_bits(n, bits) for bits in sorted(seen))


def connected_graphs(n: int) -> tuple[Graph, ...]:
    return tuple(g for g in all_graphs(n) if g.is_connected())


def connected_corpus(max_n: int) -> tuple[Graph, ...]:
    """The standard small-graph corpus: every connected graph on 1..max_n
    vertices up to isomorphism, labeled for reporting."""
    out = []
    for n in range(1, max_n + 1):
        for i, g in enumerate(connected_graphs(n)):
            out.append(g.with_label(f"conn{n}#{i}"))
    return tuple(out)


# -- random graphs ------------------------------------------------------------

def random_graph(n: int, rng, p_numer: int = 1, p_denom: int = 2) -> Graph:
    """Each edge present independently with probability p_numer/p_denom."""
    adj = [0] * n
    for u in range(n):
        for v in range(u + 1, n):
            if rng.randrange(p_denom) < p_numer:
                adj[u] |= 1 << v
                adj[v] |= 1 << u
    return Graph(n, tuple(adj))


def random_triangle_free_graph(n: int, rng) -> Graph:
    """Greedy random triangle-free graph: insert a random permutation of the
    pairs, skipping any edge that would close a triangle."""
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    for i in range(len(pairs) - 1, 0, -1):
        j = rng.randrange(i + 1)
        pairs[i], pairs[j] = pairs[j], pairs[i]
    adj = [0] * n
    for u, v in pairs:
        if not adj[u] & adj[v]:
            adj[u] |= 1 << v
            adj[v] |= 1 << u
    return Graph(n, tuple(adj))


# -- six-vertex counterexample search -----------------------------------------

def find_six_vertex_counterexamples(
    z_coeffs: tuple[int, ...],
    edge_types: dict[tuple[int, int], int],
) -> list[Graph]:
    """The six-vertex graphs whose independence polynomial matches z_coeffs
    and whose multiset of edge degree pairs matches edge_types, one per
    isomorphism class, in the order of all_graphs(6).

    Each class of all_graphs(6) is tested once, and a match is reported as
    its least labelled copy: the graph read off the least upper-triangle
    readout over all 720 relabelings. The readout of a labelling is the
    integer that _graph_from_bits decodes to it, so this is the copy a scan
    of the 2^15 labelled graphs in increasing order meets first.
    """
    n = 6
    orders = list(itertools.permutations(range(n)))
    found = []
    for g in all_graphs(n):
        types = Counter(tuple(sorted((g.degree(u), g.degree(v)))) for u, v in g.edges())
        if types != edge_types or HardCoreProfile(g).z.coeffs != z_coeffs:
            continue
        found.append(_graph_from_bits(n, min(_key_for_order(n, g.adj, p) for p in orders)))
    return found


# The (Z coefficients, edge degree-pair counts) signature that pins each
# six-vertex counterexample, by its generate() name.
SIGNATURES = {
    "g1": ((1, 6, 8, 4, 1), {(2, 3): 3, (1, 4): 1, (2, 4): 3}),
    "g2": ((1, 6, 9, 4, 1), {(1, 3): 2, (2, 3): 4}),
}
