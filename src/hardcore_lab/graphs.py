"""Graphs on at most 64 vertices with bit-vector adjacency.

Vertex subsets are machine-word bitmasks, which keeps the subset-enumeration
kernels in the engine cheap.  Graphs are immutable after construction and
safe to share between concurrent tasks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

MAX_VERTICES = 64


@dataclass(frozen=True)
class Graph:
    n: int
    adj: tuple[int, ...]
    label: str | None = field(default=None, compare=False)

    def __post_init__(self):
        _check_vertex_count(self.n)
        if len(self.adj) != self.n:
            raise ValueError("adjacency length does not match vertex count")
        full = (1 << self.n) - 1
        for u, mask in enumerate(self.adj):
            if mask & ~full:
                raise ValueError(f"adjacency of vertex {u} mentions nonexistent vertices")
            if mask >> u & 1:
                raise ValueError(f"vertex {u} has a self-loop")
            for v in bits_of(mask):
                if not self.adj[v] >> u & 1:
                    raise ValueError(f"adjacency is not symmetric at ({u}, {v})")

    # -- elementary queries -------------------------------------------------

    def _vertex(self, u: int) -> int:
        """u, checked to name a vertex before it indexes adj."""
        if not 0 <= u < self.n:
            raise ValueError(f"vertex {u} outside 0..{self.n - 1}")
        return u

    def degree(self, u: int) -> int:
        return self.adj[self._vertex(u)].bit_count()

    def degrees(self) -> tuple[int, ...]:
        return tuple(m.bit_count() for m in self.adj)

    @property
    def max_degree(self) -> int:
        return max((m.bit_count() for m in self.adj), default=0)

    @property
    def edge_count(self) -> int:
        return sum(m.bit_count() for m in self.adj) // 2

    def edges(self) -> list[tuple[int, int]]:
        return [(u, v) for u in range(self.n) for v in bits_of(self.adj[u]) if v > u]

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.adj[self._vertex(u)] >> self._vertex(v) & 1)

    def closed_mask(self, u: int) -> int:
        return self.adj[self._vertex(u)] | (1 << u)

    def display_name(self) -> str:
        return self._name

    @cached_property
    def _name(self) -> str:
        """The label, or the graph6 code, encoded once per instance: the
        cache sits in the instance dict, outside the compared fields."""
        return self.label if self.label else f"graph6:{encode_graph6(self)}"

    # -- neighborhood structure ----------------------------------------------

    def codegrees(self, u: int) -> dict[int, int]:
        """{w: |N(u) & N(w)|} for each vertex w at distance exactly two from u."""
        reach = 0
        for v in bits_of(self.adj[u]):
            reach |= self.adj[v]
        return {w: (self.adj[u] & self.adj[w]).bit_count()
                for w in bits_of(reach & ~self.closed_mask(u))}

    def is_triangle_free(self) -> bool:
        return all(
            not (self.adj[u] & self.adj[v])
            for u in range(self.n)
            for v in bits_of(self.adj[u])
            if v > u
        )

    def tf_edge_count_identity(self, u: int) -> bool:
        """In a triangle-free graph the degrees over N(u) are accounted for by
        u itself plus the codegrees over the second neighborhood."""
        if not self.is_triangle_free():
            raise ValueError("identity only applies to triangle-free graphs")
        lhs = sum(self.degree(v) for v in bits_of(self.adj[u]))
        return lhs == self.degree(u) + sum(self.codegrees(u).values())

    # -- derived graphs -------------------------------------------------------

    def induced(self, mask: int) -> "Graph":
        verts = list(bits_of(mask))
        index = {v: i for i, v in enumerate(verts)}
        adj = [0] * len(verts)
        for v in verts:
            for w in bits_of(self.adj[v] & mask):
                adj[index[v]] |= 1 << index[w]
        return Graph(len(verts), tuple(adj))

    def components(self) -> list[int]:
        """Vertex masks of the connected components."""
        seen = 0
        out = []
        for start in range(self.n):
            if seen >> start & 1:
                continue
            comp = 1 << start
            frontier = 1 << start
            while frontier:
                nxt = 0
                for v in bits_of(frontier):
                    nxt |= self.adj[v]
                frontier = nxt & ~comp
                comp |= nxt
            seen |= comp
            out.append(comp)
        return out

    def is_connected(self) -> bool:
        return self.n <= 1 or len(self.components()) == 1

    def is_disjoint_union_of_cliques(self) -> bool:
        for comp in self.components():
            size = comp.bit_count()
            for v in bits_of(comp):
                if self.degree(v) != size - 1:
                    return False
        return True

    def with_label(self, label: str) -> "Graph":
        return Graph(self.n, self.adj, label)


def _check_vertex_count(n: int) -> None:
    """The one size check, run before anything of size n is built."""
    if not 0 <= n <= MAX_VERTICES:
        raise ValueError(f"vertex count {n} outside 0..{MAX_VERTICES}")


def bits_of(mask: int):
    """Iterate the set bit positions of a mask, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def from_edges(n: int, edges, label: str | None = None) -> Graph:
    _check_vertex_count(n)
    adj = [0] * n
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge ({u}, {v}) names a vertex outside 0..{n - 1}")
        if u == v:
            raise ValueError("self-loops are not allowed")
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return Graph(n, tuple(adj), label)


def disjoint_union(g: Graph, h: Graph) -> Graph:
    adj = list(g.adj) + [m << g.n for m in h.adj]
    return Graph(g.n + h.n, tuple(adj))


# -- named generators ---------------------------------------------------------

# Blocks of the Pasch configuration on points 1..6, here 0-indexed.
_PASCH_BLOCKS = ((0, 1, 2), (0, 3, 4), (1, 3, 5), (2, 4, 5))

# Six-vertex graphs pinned by the search in corpus.py (unique up to
# isomorphism; see find_six_vertex_counterexamples).  tests/test_corpus.py
# checks the search against a scan of all 2^15 labelled graphs.
G1_EDGES = ((0, 5), (1, 4), (1, 5), (2, 4), (2, 5), (3, 4), (3, 5))
G2_EDGES = ((0, 5), (1, 4), (2, 4), (2, 5), (3, 4), (3, 5))


def complete_graph(n: int) -> Graph:
    _check_vertex_count(n)
    full = (1 << n) - 1
    return Graph(n, tuple(full ^ (1 << u) for u in range(n)), f"kn:{n}")


def empty_graph(n: int) -> Graph:
    _check_vertex_count(n)
    return Graph(n, (0,) * n, f"empty:{n}")


def complete_bipartite(a: int, b: int) -> Graph:
    _check_vertex_count(a + b)
    left = (1 << a) - 1
    right = ((1 << b) - 1) << a
    adj = tuple(right for _ in range(a)) + tuple(left for _ in range(b))
    return Graph(a + b, adj, f"kab:{a},{b}")


def path_graph(n: int) -> Graph:
    return from_edges(n, ((i, i + 1) for i in range(n - 1)), f"path:{n}")


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise ValueError("cycles need at least 3 vertices")
    return from_edges(n, ((i, (i + 1) % n) for i in range(n)), f"cycle:{n}")


def pasch_graph() -> Graph:
    """Point/block incidence graph of the Pasch configuration: 10 vertices,
    12 edges, every edge joining a degree-2 point to a degree-3 block."""
    edges = [(p, 6 + i) for i, block in enumerate(_PASCH_BLOCKS) for p in block]
    return from_edges(10, edges, "pasch")


def petersen_graph() -> Graph:
    edges = [(i, (i + 1) % 5) for i in range(5)]
    edges += [(i, i + 5) for i in range(5)]
    edges += [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return from_edges(10, edges, "petersen")


def g1_graph() -> Graph:
    return from_edges(6, G1_EDGES, "g1")


def g2_graph() -> Graph:
    return from_edges(6, G2_EDGES, "g2")


def generate(spec: str) -> Graph:
    """Build a graph from the generator mini-language.

    Atoms: kn:N, empty:N, kab:A,B, path:N, cycle:N, pasch, petersen, g1, g2.
    Terms may be prefixed "K*" for K disjoint copies and joined with "+" for
    disjoint unions, e.g. "3*kab:1,2" or "kab:1,2 + kn:3".
    """
    terms = [t.strip() for t in spec.split("+")]
    if not terms or any(not t for t in terms):
        raise ValueError(f"malformed generator spec: {spec!r}")
    parts: list[Graph] = []
    for term in terms:
        copies = 1
        if "*" in term:
            count, _, term = term.partition("*")
            try:
                copies = _positive_int(count, 1)
            except ValueError as exc:
                raise ValueError(f"bad copy count in generator spec term {term!r}: {exc}") from None
            term = term.strip()
        parts.extend(_generate_atom(term) for _ in range(copies))
    g = parts[0]
    for h in parts[1:]:
        g = disjoint_union(g, h)
    return g.with_label(spec.strip())


# Each atom's builder and the minimum of each of its sizes.
_ATOMS = {
    "kn": (complete_graph, (1,)), "empty": (empty_graph, (1,)),
    "kab": (complete_bipartite, (0, 0)), "path": (path_graph, (0,)),
    "cycle": (cycle_graph, (3,)), "pasch": (pasch_graph, ()),
    "petersen": (petersen_graph, ()), "g1": (g1_graph, ()), "g2": (g2_graph, ()),
}


def _generate_atom(term: str) -> Graph:
    name, _, arg = term.partition(":")
    name = name.strip().lower()
    if name not in _ATOMS:
        raise ValueError(f"unknown generator spec term {term!r}")
    build, minima = _ATOMS[name]
    sizes = arg.split(",") if arg else []
    try:
        if len(sizes) != len(minima):
            raise ValueError(f"{name} takes {len(minima)} size(s), got {len(sizes)}")
        return build(*map(_positive_int, sizes, minima))
    except ValueError as exc:
        raise ValueError(f"bad generator spec term {term!r}: {exc}") from None


def _positive_int(text: str, minimum: int) -> int:
    try:
        value = int(text)
    except ValueError:
        raise ValueError(f"size {text!r} is not an integer") from None
    if value < minimum or value > MAX_VERTICES:
        raise ValueError(f"size {value} outside {minimum}..{MAX_VERTICES}")
    return value


# -- graph6 ---------------------------------------------------------------

def parse_graph6(text: str) -> Graph:
    """Decode a graph6 string (63+n header for n <= 62, '~' extended header
    up to n = 64 here, upper-triangle column-major bits in 6-bit groups)."""
    s = text.strip()
    if s.startswith(">>graph6<<"):
        s = s[len(">>graph6<<"):]
    if not s:
        raise ValueError("empty graph6 string")
    data = [ord(c) - 63 for c in s]
    if any(b < 0 or b > 63 for b in data):
        raise ValueError("graph6 byte out of range")
    if data[0] == 63:
        if len(data) < 4:
            raise ValueError("truncated graph6 extended header")
        n = (data[1] << 12) | (data[2] << 6) | data[3]
        body = data[4:]
    else:
        n = data[0]
        body = data[1:]
    if n > MAX_VERTICES:
        raise ValueError(f"graph6 graph on {n} vertices exceeds the {MAX_VERTICES}-vertex cap")
    nbits = n * (n - 1) // 2
    if len(body) != (nbits + 5) // 6:
        raise ValueError("graph6 bit body has the wrong length")
    bits = []
    for b in body:
        bits.extend((b >> shift) & 1 for shift in range(5, -1, -1))
    if any(bits[nbits:]):
        raise ValueError("graph6 padding bits are not zero")
    adj = [0] * n
    k = 0
    for j in range(1, n):
        for i in range(j):
            if bits[k]:
                adj[i] |= 1 << j
                adj[j] |= 1 << i
            k += 1
    return Graph(n, tuple(adj))


def encode_graph6(g: Graph) -> str:
    if g.n <= 62:
        chars = [chr(g.n + 63)]
    else:
        chars = [
            "~",
            chr(((g.n >> 12) & 63) + 63),
            chr(((g.n >> 6) & 63) + 63),
            chr((g.n & 63) + 63),
        ]
    bits = []
    for j in range(1, g.n):
        for i in range(j):
            bits.append(g.adj[i] >> j & 1)
    while len(bits) % 6:
        bits.append(0)
    for k in range(0, len(bits), 6):
        value = 0
        for bit in bits[k:k + 6]:
            value = (value << 1) | bit
        chars.append(chr(value + 63))
    return "".join(chars)


def read_edge_list(text: str) -> Graph:
    """Parse "u v" lines (0-indexed); blank lines and '#' comments are skipped."""
    edges = []
    top = -1
    for line in text.splitlines():
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        try:
            # An id is a run of ASCII digits: int() alone also reads 1_0, +0
            # and non-ASCII digits.
            if not all(part.isascii() and part.isdigit() for part in parts):
                raise ValueError
            u, v = map(int, parts)
        except ValueError:
            raise ValueError(f"bad edge line: {line!r}") from None
        top = max(top, u, v)
        edges.append((u, v))
    return from_edges(top + 1, edges)
