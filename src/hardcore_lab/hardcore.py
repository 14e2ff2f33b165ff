"""Exact hard-core model quantities: partition functions, marginals, and the
occupancy and variance fractions.  A graph's HardCoreProfile owns its engine
memo and computes Z, E = x Z'/(n Z) and V = x dE/dx from it, once each; every
other entrance to the engine reads a fresh profile.  V has two routes,
cross-checked exactly: the closed-form numerator over n Z^2, read from the
one kernel polynomials.var_numerator, and the vertex and pair marginals
(variance_via_marginals).

The engine holds each polynomial as one non-negative int, its value at
x = 2^64 (Kronecker substitution; Schoenhage 1982, Harvey 2009).  Every memo
value and every product of a mask's components is Z of an induced subgraph
on at most MAX_VERTICES = 64 vertices, whose coefficients are at most
C(64, 32) < 2^61, so no base-2^64 digit ever carries: a branch is one shift
and add and a component product one big-integer multiply.  The engine's
one entrance is HardCoreProfile._packed; variance_via_marginals adds its
packed pair residuals in chunks small enough not to carry, and unpacks each
chunk's sum once.  This module owns the 2^64 layout: `_digits` is its one
reader, and the neighborhood table packs each Z_F there too.

One BFS pass per component finds it, sums its degrees and picks its branch
vertex; an isolated vertex multiplies the product by 1 + x in place.  Every
other component with at most as many edges as vertices is a leaf, read from
the two-state path product: a path or cycle with unit weights, cached by
length, and any other (a tree, or one cycle with trees hung on it) by one
peel-and-close pass.  Every partial product counts independent sets of an
induced subgraph, so none carries.  A leaf is one memo entry where branching
stored its whole recursion, so the memo's keys are a subset of those of an
engine with only path and cycle leaves, under the same branch rule."""

from __future__ import annotations

import struct
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import zip_longest
from math import comb

from .graphs import Graph, bits_of
from .polynomials import Poly, RatFunc, _derivative, _int_horner, _int_poly, var_numerator

DEFAULT_MEMO_LIMIT = 1 << 22


class MemoLimitExceeded(RuntimeError):
    """The residual-subgraph cache outgrew its configured bound."""


_DIGIT_BITS = 64  # the engine packs at x = 2^64, past C(64, 32) < 2^61


def _digits(value: int) -> tuple[int, ...]:
    """The coefficients of the polynomial packed as value at 2^64: its
    little-endian bytes read as standard-size little-endian words, "<Q"."""
    n = (value.bit_length() + 63) >> 6
    return struct.unpack(f"<{n}Q", value.to_bytes(n << 3, "little"))


def _path_product(empty: list[int], occupied: list[int], path) -> int:
    """Z of the path through the given vertices, each vertex v weighted
    empty[v] when empty and x * occupied[v] when occupied, packed at 2^64: the
    two-state recurrence (e, f) <- ((e + f) * empty[v], e * x * occupied[v])
    over the sets whose last vertex is empty (e) or occupied (f)."""
    e, f = 1, 0
    for v in path:
        e, f = (e + f) * empty[v], (e * occupied[v]) << _DIGIT_BITS
    return e + f


@lru_cache(maxsize=None)
def _path_row(k: int) -> int:
    """Z of the k-vertex path packed at 2^64: the unit-weight path product."""
    return _path_product([1], [1], [0] * k)


@lru_cache(maxsize=None)
def _cycle_row(k: int) -> int:
    """Z of the k-cycle packed at 2^64: Z(P_(k-1)) + x * Z(P_(k-3)), closed
    on the state of one vertex as in _sparse_row, with every weight 1."""
    return _path_row(k - 1) + (_path_row(k - 3) << _DIGIT_BITS)


def _sparse_row(adj: tuple[int, ...], comp: int) -> int:
    """Z of the component induced by comp, which spans at most as many edges
    as vertices (a tree, or one cycle with trees hung on it), packed at 2^64.

    Each vertex v holds O_v and I_v, the Z of the trees peeled into it given
    v empty and given v occupied (x * I_v is then the weight of v occupied);
    both start at 1.  Degree-1 vertices are peeled one at a time into their one
    remaining neighbour p: O_p *= O_v + x * I_v and I_p *= O_v.  A tree ends
    at one vertex, whose O + x * I is Z.  Otherwise a single cycle c_0 ...
    c_(k-1) is left, in walk order from its lowest vertex, and is closed by
    the state of c_0: Z = O_0 * P(c_1 ... c_(k-1)) + x * I_0 * O_1 * O_(k-1) *
    P(c_2 ... c_(k-2)), with P the weighted path product (_path_product).
    Every partial product counts the independent sets of an induced subgraph
    of the component with some vertices fixed empty or occupied, so its
    digits stay below those of Z(C), which are below 2^61: none carries."""
    n = len(adj)
    degree, empty, occupied = [0] * n, [1] * n, [1] * n
    peel = []
    for v in bits_of(comp):
        degree[v] = (adj[v] & comp).bit_count()
        if degree[v] == 1:
            peel.append(v)
    alive = comp
    while peel:
        v = peel.pop()
        if not degree[v]:  # the last vertex of a tree
            break
        alive ^= 1 << v
        p = (adj[v] & alive).bit_length() - 1
        empty[p], occupied[p] = (empty[p] * (empty[v] + (occupied[v] << _DIGIT_BITS)),
                                 occupied[p] * empty[v])
        degree[p] -= 1
        if degree[p] == 1:
            peel.append(p)
    v = (alive & -alive).bit_length() - 1
    if alive == 1 << v:
        return empty[v] + (occupied[v] << _DIGIT_BITS)
    cycle, seen = [v], 1 << v
    while near := adj[v] & alive & ~seen:
        v = (near & -near).bit_length() - 1
        seen |= 1 << v
        cycle.append(v)
    first, second, last = cycle[0], cycle[1], cycle[-1]
    return (empty[first] * _path_product(empty, occupied, cycle[1:])
            + ((occupied[first] * empty[second] * empty[last]
                * _path_product(empty, occupied, cycle[2:-1])) << _DIGIT_BITS))


def _z_packed(adj: tuple[int, ...], mask: int, memo: dict[int, int]) -> int:
    """Z of the subgraph induced by mask, packed at 2^64.

    Z factors over connected components, so the mask is split into its
    components by a BFS over the adjacency bitmasks and their values are
    multiplied, one big-integer product each; an isolated vertex multiplies
    by 1 + x in place.  The same pass sums each component's degrees and
    picks its branch vertex u: maximum degree in the component, ties going
    explicitly to the lowest index, since the BFS does not visit in index
    order.  A component of k vertices is a leaf when it spans at most k
    edges or has maximum degree 2: a path or a cycle reads its cached
    unit-weight row, and any other such component is solved by one
    peel-and-close pass (_sparse_row), all from the path product.
    Otherwise Z(C) = Z(C - u) + x * Z(C - N[u]), one shift and add.  Every
    value and every partial product, a leaf's included, counts independent
    sets of an induced subgraph, so no digit ever carries.  Memo entries are
    those components, leaves included, keyed by vertex mask; the whole mask
    is looked up first.  A leaf stores one entry where branching stored its
    whole recursion, so the memo's keys are a subset of those of a branching
    engine that stops only at paths and cycles.  Raises MemoLimitExceeded
    once the memo would hold more than DEFAULT_MEMO_LIMIT components.
    """
    cached = memo.get(mask)
    if cached is not None:
        return cached
    out = 1
    rest = mask
    while rest:
        comp = frontier = rest & -rest
        best_v, best_d, degrees = -1, -1, 0
        while frontier:  # one BFS layer per pass
            grown = 0
            while frontier:
                bit = frontier & -frontier
                frontier ^= bit
                v = bit.bit_length() - 1
                near = adj[v] & rest  # v's neighbors, all in its component
                d = near.bit_count()
                degrees += d
                if d >= best_d and (d > best_d or v < best_v):
                    best_d, best_v = d, v
                grown |= near
            frontier = grown & ~comp
            comp |= grown
        rest ^= comp
        if not degrees:  # an isolated vertex multiplies by 1 + x
            out += out << _DIGIT_BITS
            continue
        z = memo.get(comp)
        if z is None:
            k = comp.bit_count()
            if best_d <= 2:
                z = _path_row(k) if degrees < 2 * k else _cycle_row(k)
            elif degrees <= 2 * k:
                z = _sparse_row(adj, comp)
            else:
                z = (_z_packed(adj, comp & ~(1 << best_v), memo)
                     + (_z_packed(adj, comp & ~(adj[best_v] | 1 << best_v), memo)
                        << _DIGIT_BITS))
            if len(memo) >= DEFAULT_MEMO_LIMIT:
                raise MemoLimitExceeded(f"residual cache exceeded {DEFAULT_MEMO_LIMIT} entries")
            memo[comp] = z
        out *= z
    return out


def brute_force_polynomial(g: Graph) -> Poly:
    """Oracle: enumerate every vertex subset and count the independent ones
    by size.  Kept deliberately naive; the recursion is checked against it."""
    if g.n > 30:
        raise ValueError("brute force capped at 30 vertices")
    adj = g.adj
    counts = [0] * (g.n + 1)
    for mask in range(1 << g.n):
        m = mask
        ok = True
        while m:
            low = m & -m
            v = low.bit_length() - 1
            if adj[v] & mask:
                ok = False
                break
            m ^= low
        if ok:
            counts[mask.bit_count()] += 1
    return Poly(counts)


def path_polynomial(n: int) -> Poly:
    """Z of the n-vertex path via the transfer recurrence
    Z_n = Z_{n-1} + x * Z_{n-2}."""
    if n < 0:
        raise ValueError("path length must be nonnegative")
    prev, cur = Poly([1]), Poly([1, 1])  # 0 and 1 vertices
    if n == 0:
        return prev
    for _ in range(n - 1):
        prev, cur = cur, cur + Poly([0, 1]) * prev
    return cur


def cycle_polynomial(n: int) -> Poly:
    """Z of the n-cycle: Z_{C_n} = Z_{P_{n-1}} + x * Z_{P_{n-3}}."""
    if n < 3:
        raise ValueError("cycles need at least 3 vertices")
    return path_polynomial(n - 1) + Poly([0, 1]) * path_polynomial(n - 3)


# -- occupancy and variance ------------------------------------------------

def _require_vertices(g: Graph) -> None:
    """A quantity averaged over the vertices needs at least one."""
    if g.n == 0:
        raise ValueError("graph has no vertices")


def var_of_polynomial(p: Poly) -> RatFunc:
    """V_p(x) = (x^2 p'' + x p')/p - x^2 p'^2 / p^2, for a generating
    polynomial with p(0) = 1 and nonnegative coefficients."""
    if p.coefficient(0) != 1:
        raise ValueError("generating polynomial must have constant term 1")
    if any(c < 0 for c in p.coeffs):
        raise ValueError("generating polynomial must have nonnegative coefficients")
    return RatFunc(var_numerator(p), p * p)


# -- the per-graph profile ---------------------------------------------------

class HardCoreProfile:
    """The exact data of one graph, each part computed on first read: Z, E,
    V and the vertex and pair marginals through the one engine memo the
    profile owns, and the neighborhood table of the local-occupancy checks by
    its own packed subset recursion.  E and V at a rational point are one
    Fraction each, built from integer Horner values."""

    def __init__(self, graph: Graph):
        self.graph = graph
        self._memo: dict[int, int] = {}

    def _packed(self, mask: int) -> int:
        """Z of the subgraph induced by mask, packed at 2^64: the one entrance
        to the engine.  Raises ValueError on a mask outside [0, 2^n)."""
        if not 0 <= mask < 1 << self.graph.n:
            raise ValueError(f"vertex mask {mask} outside [0, 2^{self.graph.n})")
        return _z_packed(self.graph.adj, mask, self._memo)

    def _coeffs(self, mask: int) -> tuple[int, ...]:
        """The coefficients of Z of the subgraph induced by mask."""
        return _digits(self._packed(mask))

    def _outside(self, mask: int) -> Poly:
        """Z of the graph with the vertices of mask removed."""
        return _int_poly(self._coeffs(((1 << self.graph.n) - 1) & ~mask))

    @cached_property
    def z(self) -> Poly:
        return self._outside(0)

    @cached_property
    def expectation(self) -> RatFunc:
        """E = x Z' / (n Z)."""
        _require_vertices(self.graph)
        return RatFunc(Poly([0, Fraction(1, self.graph.n)]) * self.z.derivative(), self.z)

    @cached_property
    def variance_numerator(self) -> Poly:
        """N = var_numerator(Z), so that V = N / (n Z^2)."""
        return var_numerator(self.z)

    @cached_property
    def variance(self) -> RatFunc:
        """V = x dE/dx, in closed form N / (n Z^2)."""
        _require_vertices(self.graph)
        return RatFunc(self.variance_numerator * Fraction(1, self.graph.n), self.z * self.z)

    def expectation_at(self, lam) -> Fraction:
        """E(lam) = p H' / (n H) at lam = p/q, where H = q^D Z(lam) and
        H' = q^(D-1) Z'(lam) are integer Horner values and D = deg Z."""
        _require_vertices(self.graph)
        lam = lam if type(lam) is Fraction else Fraction(lam)
        cs = self.z.coeffs
        p, q = lam.numerator, lam.denominator
        return Fraction(p * _int_horner(_derivative(cs), p, q),
                        self.graph.n * _int_horner(cs, p, q))

    def variance_at(self, lam) -> Fraction:
        """V(lam) = N(lam) / (n Z(lam)^2) with N the variance numerator, of
        degree at most 2D - 1: at lam = p/q, the integer Horner value
        q^(deg N) N(lam) times q^(2D - deg N), over n H^2 with H = q^D Z(lam)."""
        _require_vertices(self.graph)
        lam = lam if type(lam) is Fraction else Fraction(lam)
        cs = self.z.coeffs
        p, q = lam.numerator, lam.denominator
        num = self.variance_numerator.coeffs
        h = _int_horner(cs, p, q)
        return Fraction(_int_horner(num, p, q) * q ** (2 * len(cs) - len(num) - 1),
                        self.graph.n * h * h)

    @cached_property
    def residuals(self) -> tuple[Poly, ...]:
        """Z(G - N[u]) for each vertex u, so that p_u = x Z(G - N[u]) / Z."""
        return tuple(self._outside(self.graph.closed_mask(u)) for u in range(self.graph.n))

    @cached_property
    def marginals(self) -> tuple[RatFunc, ...]:
        """p_u = x Z(G - N[u]) / Z, each distinct residual reduced once."""
        reduced: dict[tuple[int, ...], RatFunc] = {}
        for rest in self.residuals:
            if rest.coeffs not in reduced:
                reduced[rest.coeffs] = RatFunc(Poly([0, 1]) * rest, self.z)
        return tuple(reduced[rest.coeffs] for rest in self.residuals)

    def _pair_residual(self, u: int, v: int) -> int:
        """Z(G - N[u] - N[v]) for non-adjacent u and v, packed at 2^64."""
        g = self.graph
        return self._packed(((1 << g.n) - 1) & ~(g.closed_mask(u) | g.closed_mask(v)))

    def pair_marginal(self, u: int, v: int) -> RatFunc:
        """p_uv = x^2 Z(G - N[u] - N[v]) / Z for distinct vertices,
        identically zero when uv is an edge.  Raises ValueError on a vertex
        outside range(n)."""
        if u == v:
            raise ValueError("pair marginal needs two distinct vertices")
        if self.graph.has_edge(u, v):
            return RatFunc(Poly())
        return RatFunc(Poly([0, 0, 1]) * _int_poly(_digits(self._pair_residual(u, v))), self.z)

    @cached_property
    def neighborhood_table(self) -> tuple[tuple[Poly, Poly, int, int], ...]:
        """(Z_F, Z_F', u, mask) once per distinct Z_F over the subgraphs
        F = G[mask] induced by subsets of each N(u), at its first (u, mask):
        u ascending, and subset bit i picking the i-th lowest neighbor.

        The table does not go through the engine memo.  Per vertex, each
        subset's Z_F comes from two smaller subsets by branching on its
        highest picked neighbor v: Z(F) = Z(F - v) + x Z(F - N[v]).  Each Z_F
        is packed at x = 2^64, like every engine value, so one step is a
        shift and an add, equal values are equal polynomials, and only the
        distinct entries are read back, by _digits."""
        adj = self.graph.adj
        table: dict[int, tuple[Poly, Poly, int, int]] = {}
        for u in range(self.graph.n):
            neighbors = list(bits_of(adj[u]))
            bit = {v: 1 << i for i, v in enumerate(neighbors)}
            values = [1]
            for v in neighbors:
                # The picks bits of v's neighbors among the lower neighbors.
                below = 0
                for w in bits_of(adj[v] & adj[u] & ((1 << v) - 1)):
                    below |= bit[w]
                values += [z + (values[rest & ~below] << _DIGIT_BITS)
                           for rest, z in enumerate(values)]
            for picks, value in enumerate(values):
                if value not in table:
                    zf = _int_poly(_digits(value))
                    mask = sum(1 << v for i, v in enumerate(neighbors) if picks >> i & 1)
                    table[value] = (zf, _int_poly(_derivative(zf.coeffs)), u, mask)
        return tuple(table.values())


def _profile_of(g: Graph | HardCoreProfile) -> HardCoreProfile:
    """The profile itself, or a fresh one for a graph."""
    return g if isinstance(g, HardCoreProfile) else HardCoreProfile(g)


def profile(g: Graph) -> HardCoreProfile:
    """The profile of g with Z, E, V and every vertex marginal computed now;
    the neighborhood table fills on first read, and each pair marginal is
    computed on request from the same memo."""
    prof = HardCoreProfile(g)
    prof.expectation, prof.variance, prof.marginals
    return prof


def independence_polynomial(g: Graph) -> Poly:
    """Partition function Z of the hard-core model on g, read from a fresh
    profile.  Raises MemoLimitExceeded once the engine memo would hold more
    than DEFAULT_MEMO_LIMIT components."""
    return HardCoreProfile(g).z


def subset_polynomial(g: Graph, mask: int) -> Poly:
    """Partition function of the subgraph induced by a vertex mask, read from
    a fresh profile."""
    return _int_poly(HardCoreProfile(g)._coeffs(mask))


def variance_fraction(g: Graph) -> RatFunc:
    """V_G = x * d/dx E_G, read from a fresh profile."""
    return HardCoreProfile(g).variance


def variance_via_marginals(g: Graph | HardCoreProfile) -> RatFunc:
    """Second computation path for V_G through vertex and pair marginals:

        V_G = (1/n) sum_u (p_u + sum_{v != u} p_uv - p_u * sum_v p_v)

    Z, V and the residuals are read from the given profile, or from a fresh
    one for a graph, so they share its memo.  Each pair residual is its own
    engine call, so this route stays independent of the closed form.  The
    pair residuals are added as packed values: each is Z on at most n - 2
    vertices, with coefficients at most C(n - 2, (n - 2) // 2), so a chunk of
    (2^64 - 1) // C(n - 2, (n - 2) // 2) of them sums without a carry and is
    unpacked once.  Raises ValueError on a graph with no vertices, and
    ArithmeticError, naming the graph, unless the result equals the closed
    form exactly.
    """
    prof = _profile_of(g)
    g, z = prof.graph, prof.z
    x = Poly([0, 1])
    single_sum = sum(prof.residuals, Poly())
    pairs = [prof._pair_residual(u, v) for u in range(g.n) for v in range(u + 1, g.n)
             if not g.has_edge(u, v)]
    most = max(g.n - 2, 0)  # vertices of a pair residual
    chunk = ((1 << _DIGIT_BITS) - 1) // comb(most, most // 2)
    sums = [_digits(sum(pairs[i:i + chunk])) for i in range(0, len(pairs), chunk)]
    pair_sum = _int_poly(tuple(map(sum, zip_longest(*sums, fillvalue=0))))
    # n V over the common denominator Z^2, with the pair sum counted both
    # ways, against the profile's reduced V = num / den by cross-multiplying,
    # so that no second gcd reduction is needed.
    numerator = x * single_sum * z + 2 * x * x * pair_sum * z - x * x * single_sum * single_sum
    variance = prof.variance
    if numerator * variance.den != g.n * variance.num * z * z:
        raise ArithmeticError(
            f"{g.display_name()}: marginal and closed-form variance paths disagree")
    return variance
