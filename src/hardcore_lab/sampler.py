"""Glauber dynamics for the hard-core model: a statistical oracle for the
exact engine.

This is the one module allowed to touch floating point, and it never feeds
a verdict: floats appear only in the occupation probability p_occ and in the
batch statistics.  The heat-bath coin itself is an integer comparison
against ceil(p_occ * 2**53), the exact equivalent of comparing a 53-bit
uniform double with p_occ.  The generator is splitmix64, spelled out below
so that fixed seeds reproduce bit-identically on any platform; the step
kernel draws it in blocks (see `_splitmix_block`), which yields exactly the
stream of `SplitMix64.next_u64`.  `estimate` makes one kernel call over
the burn-in and all batches, and the current block carries across them.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from fractions import Fraction

from .graphs import Graph
from .hardcore import _require_vertices
from .verdict import format_rational

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15


class SplitMix64:
    """splitmix64: 64-bit state, 64-bit output, fully specified here."""

    __slots__ = ("state",)

    def __init__(self, seed: int):
        self.state = seed & _MASK

    def next_u64(self) -> int:
        self.state = (self.state + _GAMMA) & _MASK
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


# Block drawing.  splitmix64 is counter-based: the k-th draw after state s is
# mix(s + k*GAMMA mod 2**64).  A block of _BLOCK draws is computed at once in
# one big int laid out as _LANES, lane k holding draw k+1 in the low half of
# 128 bits: the 64-bit lane value times a 64-bit constant fits its lane, so
# after every multiply and xor-shift, `& _LANE` restores each lane mod 2**64
# and nothing carries or shifts across lanes.  The last xor-shift needs no
# mask: it moves lane k+1's bits only into lane k's high word, never read.
_BLOCK = 1024
_LANES = struct.Struct("<" + "Q8x" * _BLOCK)  # a little-endian 64-bit word, 8 skipped bytes
_REP = int.from_bytes(_LANES.pack(*[1] * _BLOCK), "little")  # 1 per lane
_LANE = _MASK * _REP  # the low 64 bits of each lane
_G_K = _GAMMA * int.from_bytes(_LANES.pack(*range(1, _BLOCK + 1)), "little")


def _splitmix_block(state: int) -> tuple[int, ...]:
    """The next _BLOCK outputs of splitmix64 from state, read from the low
    words of the lanes: the values _BLOCK calls of `SplitMix64.next_u64`
    return."""
    z = (state * _REP + _G_K) & _LANE
    z = ((z ^ (z >> 30)) & _LANE) * 0xBF58476D1CE4E5B9 & _LANE
    z = ((z ^ (z >> 27)) & _LANE) * 0x94D049BB133111EB & _LANE
    z ^= z >> 31
    return _LANES.unpack(z.to_bytes(_LANES.size, "little"))


def _heat_bath(rng: SplitMix64, adj, n: int, coin: int, occupied: int, size: int,
               lengths) -> tuple[int, int, list[tuple[int, int]]]:
    """The step kernel: run heat-bath updates from an independent set
    (occupied, size) in consecutive segments of the given lengths and return
    (occupied, size, sums), sums holding per segment (s1, s2), the sums of
    the size and its square after each of its updates.  Each update picks a
    uniform vertex (`SplitMix64.randrange`); with an occupied neighbor it is
    empty and stays so, otherwise it is occupied iff the next draw c has
    (c >> 11) < coin, with coin from `_coin_threshold`, so the set stays
    independent.

    Draws come from `_splitmix_block` in blocks of _BLOCK, and a block
    carries across segments.  An update that runs off the end of a block
    (pos passes its vertex draw only after the coin is read) is redone from
    a block that starts at its vertex draw, and on return rng.state has
    advanced by exactly the draws consumed: the stream is the one `next_u64`
    would have produced."""
    limit = _MASK + 1 - ((_MASK + 1) % n)
    cut = coin << 11  # (c >> 11) < coin  iff  c < coin * 2**11
    state = rng.state
    draws, pos = (), 0
    sums = []
    for steps in lengths:
        s1 = s2 = 0
        while steps:
            try:
                while steps:
                    r = draws[pos]
                    if r >= limit:
                        pos += 1
                        continue
                    v = r % n
                    if adj[v] & occupied:
                        pos += 1
                    else:
                        c = draws[pos + 1]
                        pos += 2
                        bit = 1 << v
                        if c < cut:
                            if not occupied & bit:
                                occupied |= bit
                                size += 1
                        elif occupied & bit:
                            occupied ^= bit
                            size -= 1
                    s1 += size
                    s2 += size * size
                    steps -= 1
            except IndexError:
                state = (state + pos * _GAMMA) & _MASK
                draws, pos = _splitmix_block(state), 0
        sums.append((s1, s2))
    rng.state = (state + pos * _GAMMA) & _MASK
    return occupied, size, sums


def _coin_threshold(lam: Fraction) -> int:
    """ceil(p_occ * 2**53) for the occupation probability p_occ, the double
    nearest lam/(1+lam), of a vertex with no occupied neighbor.  It is
    computed from the exact ratio of p_occ, so for a draw c,
    (c >> 11) < threshold iff (c >> 11) * 2**-53 < p_occ.  lam = 0 is
    allowed (the chain empties)."""
    lam = Fraction(lam)
    if lam < 0:
        raise ValueError("fugacity must be nonnegative")
    # lam/(1+lam) = n/(n+d) in lowest terms, and int division rounds it
    # exactly as float(Fraction) does
    p_occ = lam.numerator / (lam.numerator + lam.denominator)
    num, den = p_occ.as_integer_ratio()
    return -(-(num << 53) // den)


# Batch-means estimates split the measured steps into this many batches.
BATCHES = 50


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


def estimate(g: Graph, lam, steps: int, burn_in: int = 10**5, seed: int = 1) -> EstimateReport:
    """Run the chain and report batch-means estimates of the expected
    occupied count and its variance over BATCHES batches."""
    lam = Fraction(lam)
    _require_vertices(g)
    if burn_in < 0:
        raise ValueError("burn_in must be nonnegative")
    if steps < 10 * burn_in:
        raise ValueError("need steps >= 10 * burn_in")
    if steps < BATCHES:
        raise ValueError("need steps >= batches (at least one step per batch)")
    batch_len = steps // BATCHES

    _, _, sums = _heat_bath(SplitMix64(seed), g.adj, g.n, _coin_threshold(lam), 0, 0,
                            (burn_in,) + (batch_len,) * BATCHES)
    batches = sums[1:]
    batch_means = [s1 / batch_len for s1, _ in batches]
    batch_vars = [s2 / batch_len - m * m for m, (_, s2) in zip(batch_means, batches)]

    measured = BATCHES * batch_len
    mean = sum(s1 for s1, _ in batches) / measured
    var = sum(s2 for _, s2 in batches) / measured - mean * mean
    se_mean = _spread(batch_means)
    se_var = _spread(batch_vars)
    return EstimateReport(
        graph=g.display_name(),
        lam=format_rational(lam),
        steps=measured,
        burn_in=burn_in,
        seed=seed,
        batches=BATCHES,
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
