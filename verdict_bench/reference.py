"""Reference values the benchmark checks the library against.

Nothing here imports hardcore_lab: polynomials are plain coefficient tuples
(lowest degree first), graphs are (n, adjacency bitmasks), and every
algorithm is a different route from the one the library times: transfer
recurrences, subset enumeration, and a component-splitting recursion.
"""

from __future__ import annotations

from fractions import Fraction

Coeffs = tuple


# -- the benchmark's own seeded generator --------------------------------------

_MASK = (1 << 64) - 1


class SplitMix64:
    """splitmix64, so that inputs depend only on the seed and this file."""

    def __init__(self, seed: int):
        self.state = seed & _MASK

    def next_u64(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & _MASK
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
        return z ^ (z >> 31)

    def below(self, n: int) -> int:
        limit = (_MASK + 1) - ((_MASK + 1) % n)
        while True:
            r = self.next_u64()
            if r < limit:
                return r % n

    def shuffle(self, items: list) -> list:
        for i in range(len(items) - 1, 0, -1):
            j = self.below(i + 1)
            items[i], items[j] = items[j], items[i]
        return items


# -- integer polynomials ---------------------------------------------------------

def trim(cs) -> Coeffs:
    cs = list(cs)
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


def padd(a: Coeffs, b: Coeffs) -> Coeffs:
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, c in enumerate(b):
        out[i] += c
    return trim(out)


def psub(a: Coeffs, b: Coeffs) -> Coeffs:
    return padd(a, tuple(-c for c in b))


def pmul(a: Coeffs, b: Coeffs) -> Coeffs:
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        for j, cb in enumerate(b):
            out[i + j] += ca * cb
    return trim(out)


def ppow(a: Coeffs, k: int) -> Coeffs:
    out: Coeffs = (1,)
    for _ in range(k):
        out = pmul(out, a)
    return out


def pderiv(a: Coeffs) -> Coeffs:
    return trim(i * c for i, c in enumerate(a))[1:] if len(a) > 1 else ()


def peval(a: Coeffs, x):
    acc = 0
    for c in reversed(a):
        acc = acc * x + c
    return acc


X: Coeffs = (0, 1)


# -- partition functions by other routes ------------------------------------------

def path_z(n: int) -> Coeffs:
    """Z of the n-vertex path by the transfer recurrence."""
    prev, cur = (1,), (1, 1)
    if n == 0:
        return prev
    for _ in range(n - 1):
        prev, cur = cur, padd(cur, pmul(X, prev))
    return cur


def cycle_z(n: int) -> Coeffs:
    """Z of the n-cycle: Z(P_{n-1}) + x Z(P_{n-3})."""
    return padd(path_z(n - 1), pmul(X, path_z(n - 3)))


def brute_z(n: int, adj) -> Coeffs:
    """Count independent sets by size over all 2^n vertex subsets."""
    if n > 20:
        raise ValueError("subset enumeration is for small graphs")
    counts = [0] * (n + 1)
    for mask in range(1 << n):
        m = mask
        ok = True
        while m:
            low = m & -m
            if adj[low.bit_length() - 1] & mask:
                ok = False
                break
            m ^= low
        if ok:
            counts[mask.bit_count()] += 1
    return trim(counts)


def _component(adj, mask: int) -> int:
    seed = mask & -mask
    comp = seed
    frontier = seed
    while frontier:
        low = frontier & -frontier
        frontier ^= low
        grow = adj[low.bit_length() - 1] & mask & ~comp
        comp |= grow
        frontier |= grow
    return comp


class SplitZ:
    """Z of induced subgraphs by splitting the residual graph into connected
    components and branching on a maximum-degree vertex inside each (ties to
    the highest index), with one memo per graph keyed by component.

    A different recursion from the library's (which never splits and keys
    its memo on the whole residual mask), so agreement is a real
    cross-check.
    """

    def __init__(self, n: int, adj):
        self.n = n
        self.adj = adj
        self.memo: dict[int, Coeffs] = {}

    def __call__(self, mask: int | None = None) -> Coeffs:
        if mask is None:
            mask = (1 << self.n) - 1
        out: Coeffs = (1,)
        while mask:
            comp = _component(self.adj, mask)
            mask &= ~comp
            out = pmul(out, self._connected(comp))
        return out

    def _connected(self, comp: int) -> Coeffs:
        hit = self.memo.get(comp)
        if hit is not None:
            return hit
        adj = self.adj
        if comp & (comp - 1) == 0:
            res: Coeffs = (1, 1)
        else:
            best_v, best_d = -1, -1
            m = comp
            while m:
                low = m & -m
                m ^= low
                v = low.bit_length() - 1
                d = (adj[v] & comp).bit_count()
                if d >= best_d:
                    best_v, best_d = v, d
            without = self(comp & ~(1 << best_v))
            with_v = self(comp & ~(adj[best_v] | (1 << best_v)))
            res = padd(without, pmul(X, with_v))
        self.memo[comp] = res
        return res


# -- small-graph structure ----------------------------------------------------------

def relabel(n: int, adj, perm) -> tuple[int, ...]:
    """Adjacency of the graph with vertex v renamed perm[v]."""
    out = [0] * n
    for v in range(n):
        m = adj[v]
        while m:
            low = m & -m
            m ^= low
            out[perm[v]] |= 1 << perm[low.bit_length() - 1]
    return tuple(out)


def readout(n: int, adj) -> int:
    """Upper-triangle adjacency bits in the identity order, row by row."""
    key = 0
    for i in range(n):
        for j in range(i + 1, n):
            key = (key << 1) | (adj[i] >> j & 1)
    return key


def is_connected(n: int, adj) -> bool:
    return n <= 1 or _component(adj, (1 << n) - 1) == (1 << n) - 1


def is_union_of_cliques(n: int, adj) -> bool:
    """Every vertex's closed neighbourhood equals that of each neighbour."""
    for u in range(n):
        closed = adj[u] | (1 << u)
        m = adj[u]
        while m:
            low = m & -m
            m ^= low
            v = low.bit_length() - 1
            if adj[v] | (1 << v) != closed:
                return False
    return True


def occupancy_at(z: Coeffs, n: int, lam: Fraction) -> Fraction:
    """E(lam) = lam Z'(lam) / (n Z(lam))."""
    return lam * peval(pderiv(z), lam) / (n * Fraction(peval(z, lam)))


def variance_at(z: Coeffs, n: int, lam: Fraction) -> Fraction:
    """V(lam) = lam dE/dlam, written out from Z, Z' and Z''."""
    zv = Fraction(peval(z, lam))
    d1 = pderiv(z)
    d1v = peval(d1, lam)
    d2v = peval(pderiv(d1), lam)
    return lam * ((d1v + lam * d2v) * zv - lam * d1v * d1v) / (n * zv * zv)


def variance_numerator(z: Coeffs) -> Coeffs:
    """x Z' Z + x^2 Z'' Z - x^2 Z'^2: n Z^2 V as a polynomial."""
    d1 = pderiv(z)
    d2 = pderiv(d1)
    x2 = (0, 0, 1)
    return psub(padd(pmul(pmul(X, d1), z), pmul(pmul(x2, d2), z)), pmul(x2, pmul(d1, d1)))
