"""Glauber dynamics for the hard-core model: a statistical oracle for the
exact engine.

This is the one module allowed to touch floating point (the acceptance
probability), and it never feeds a verdict.  The generator is splitmix64,
spelled out below so that fixed seeds reproduce bit-identically on any
platform.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice

from .graphs import Graph
from .verdict import format_rational

_MASK = (1 << 64) - 1


class SplitMix64:
    """splitmix64: 64-bit state, 64-bit output, fully specified here."""

    __slots__ = ("state",)

    def __init__(self, seed: int):
        self.state = seed & _MASK

    def next_u64(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & _MASK
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
        return z ^ (z >> 31)

    def random(self) -> float:
        """Uniform double in [0, 1) from the top 53 bits."""
        return (self.next_u64() >> 11) * 2.0 ** -53

    def randrange(self, n: int) -> int:
        """Unbiased uniform draw from 0..n-1 by rejection; 1 <= n <= 2**64."""
        if not 1 <= n <= _MASK + 1:
            raise ValueError(f"randrange needs 1 <= n <= 2**64, got {n}")
        limit = _MASK + 1 - ((_MASK + 1) % n)
        while True:
            r = self.next_u64()
            if r < limit:
                return r % n


@dataclass
class ChainState:
    """Occupancy bitmask plus the explicit generator state; the occupied set
    is independent in the underlying graph at every step."""

    occupied: int
    size: int
    steps: int
    rng: SplitMix64


def new_chain(seed: int) -> ChainState:
    return ChainState(occupied=0, size=0, steps=0, rng=SplitMix64(seed))


def _heat_bath(rng: SplitMix64, adj, n: int, p_occ: float, occupied: int = 0,
               size: int = 0) -> Iterator[tuple[int, int]]:
    """The step kernel: endless heat-bath updates, yielding (occupied, size)
    after each.  Pick a uniform vertex; if some neighbor is occupied the
    vertex becomes unoccupied, otherwise it is occupied with probability
    p_occ.  The uniform draw is `SplitMix64.randrange` and the coin is
    `SplitMix64.random`, spelled out on the generator for speed."""
    limit = _MASK + 1 - ((_MASK + 1) % n)
    while True:
        while True:
            r = rng.next_u64()
            if r < limit:
                break
        v = r % n
        bit = 1 << v
        if adj[v] & occupied:
            if occupied & bit:
                occupied ^= bit
                size -= 1
        elif (rng.next_u64() >> 11) * 2.0 ** -53 < p_occ:
            if not occupied & bit:
                occupied |= bit
                size += 1
        elif occupied & bit:
            occupied ^= bit
            size -= 1
        yield occupied, size


def _occupation(lam: Fraction) -> float:
    """The occupation probability lam/(1+lam) of a vertex with no occupied
    neighbor; lam = 0 is allowed (the chain empties)."""
    lam = Fraction(lam)
    if lam < 0:
        raise ValueError("fugacity must be nonnegative")
    return float(lam / (1 + lam))


def glauber_step(state: ChainState, g: Graph, lam) -> ChainState:
    """One heat-bath update of the chain (see `_heat_bath`) at fugacity lam,
    so the occupation probability is lam/(1+lam)."""
    step = _heat_bath(state.rng, g.adj, g.n, _occupation(lam),
                      state.occupied, state.size)
    state.occupied, state.size = next(step)
    state.steps += 1
    return state


@dataclass
class EstimateReport:
    """Point estimates of the expected size and size variance with
    batch-means standard errors; bit-identical for a fixed seed."""

    graph: str
    lam: str
    steps: int
    burn_in: int
    seed: int
    batches: int
    mean_size: float
    se_mean: float
    var_size: float
    se_var: float

    def to_json(self) -> dict:
        return {
            "graph": self.graph,
            "lambda": self.lam,
            "steps": self.steps,
            "burn_in": self.burn_in,
            "seed": self.seed,
            "batches": self.batches,
            "mean_size": repr(self.mean_size),
            "se_mean": repr(self.se_mean),
            "var_size": repr(self.var_size),
            "se_var": repr(self.se_var),
        }


def estimate(g: Graph, lam, steps: int, burn_in: int = 10**5, seed: int = 1,
             batches: int = 50) -> EstimateReport:
    """Run the chain and report batch-means estimates of the expected
    occupied count and its variance."""
    lam = Fraction(lam)
    if steps < 10 * burn_in:
        raise ValueError("need steps >= 10 * burn_in")
    if batches < 30:
        raise ValueError("need at least 30 batches")
    batch_len = steps // batches
    if batch_len == 0:
        raise ValueError("too few steps for the requested batch count")

    chain = _heat_bath(SplitMix64(seed), g.adj, g.n, _occupation(lam))
    for _ in islice(chain, burn_in):
        pass

    batch_means = []
    batch_vars = []
    total1 = 0
    total2 = 0
    for _ in range(batches):
        s1 = 0
        s2 = 0
        for _, size in islice(chain, batch_len):
            s1 += size
            s2 += size * size
        m = s1 / batch_len
        batch_means.append(m)
        batch_vars.append(s2 / batch_len - m * m)
        total1 += s1
        total2 += s2

    measured = batches * batch_len
    mean = total1 / measured
    var = total2 / measured - mean * mean
    se_mean = _spread(batch_means)
    se_var = _spread(batch_vars)
    return EstimateReport(
        graph=g.display_name(),
        lam=format_rational(lam),
        steps=measured,
        burn_in=burn_in,
        seed=seed,
        batches=batches,
        mean_size=mean,
        se_mean=se_mean,
        var_size=var,
        se_var=se_var,
    )


def _spread(values: list[float]) -> float:
    b = len(values)
    mean = sum(values) / b
    ss = sum((v - mean) ** 2 for v in values)
    return (ss / (b - 1) / b) ** 0.5


# Cross-validation matrix against the exact engine: 20 cases on graphs of at
# most 10 vertices at fugacities 1/4, 1 and 4, with pinned seeds so the runs
# are deterministic.  Each passes the 3-sigma agreement gate with headroom.
CROSS_VALIDATION_CASES: tuple[tuple[str, Fraction, int], ...] = (
    ("kn:2", Fraction(1, 4), 1000),
    ("kn:3", Fraction(1), 1000),
    ("kn:4", Fraction(1, 4), 1000),
    ("kn:5", Fraction(4), 1000),
    ("empty:4", Fraction(1), 1000),
    ("empty:6", Fraction(4), 1001),
    ("path:3", Fraction(1, 4), 1000),
    ("path:5", Fraction(1), 1000),
    ("path:5", Fraction(4), 1000),
    ("cycle:4", Fraction(1, 4), 1000),
    ("cycle:5", Fraction(1), 1000),
    ("cycle:6", Fraction(1, 4), 1001),
    ("cycle:7", Fraction(4), 1000),
    ("kab:1,2", Fraction(4), 1000),
    ("kab:1,3", Fraction(4), 1000),
    ("kab:2,2", Fraction(1), 1000),
    ("kab:2,3", Fraction(1, 4), 1000),
    ("kab:3,3", Fraction(1), 1000),
    ("petersen", Fraction(1), 1000),
    ("pasch", Fraction(1), 1000),
)
