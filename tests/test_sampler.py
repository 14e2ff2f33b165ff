"""Glauber dynamics: determinism, invariants, statistical agreement.

The block generator and the k-step kernel are checked against the
one-draw-at-a-time reference `SplitMix64.next_u64` (through `randrange` and
`random`), which is the stream every fixed-seed report is pinned to.
"""

import hashlib
import json
import math
from fractions import Fraction as F

import pytest

from hardcore_lab import sampler
from hardcore_lab.graphs import bits_of, complete_graph, empty_graph, generate
from hardcore_lab.hardcore import HardCoreProfile
from hardcore_lab.sampler import (
    _BLOCK,
    _GAMMA,
    _MASK,
    SplitMix64,
    _coin_threshold,
    _heat_bath,
    _splitmix_block,
    estimate,
)


def _reference_steps(rng, g, lam, occupied, size, k):
    """k heat-bath updates drawn one at a time from the reference generator,
    with the float coin; returns (occupied, size, s1, s2) like `_heat_bath`."""
    p_occ = float(F(lam) / (1 + F(lam)))
    s1 = s2 = 0
    for _ in range(k):
        v = rng.randrange(g.n)
        bit = 1 << v
        if g.adj[v] & occupied or rng.random() >= p_occ:
            occupied &= ~bit
        else:
            occupied |= bit
        size = occupied.bit_count()
        s1 += size
        s2 += size * size
    return occupied, size, s1, s2


def _reference_segments(rng, g, lam, occupied, size, lengths):
    """`_reference_steps` over consecutive segments of the given lengths;
    returns (occupied, size, sums) like `_heat_bath`."""
    sums = []
    for k in lengths:
        occupied, size, s1, s2 = _reference_steps(rng, g, lam, occupied, size, k)
        sums.append((s1, s2))
    return occupied, size, sums


class _Counting(SplitMix64):
    """The reference generator, counting its draws and its coins."""

    __slots__ = ("draws", "coins")

    def __init__(self, seed):
        super().__init__(seed)
        self.draws = self.coins = 0

    def next_u64(self):
        self.draws += 1
        return super().next_u64()

    def random(self):
        self.coins += 1
        return super().random()


def _step(rng, g, coin, occupied, size):
    """One heat-bath update through the kernel; returns (occupied, size)."""
    return _heat_bath(rng, g.adj, g.n, coin, occupied, size, (1,))[:2]


def _unmix(z):
    """The counter whose splitmix64 output is z (the output function is a
    bijection on 64-bit words)."""
    def unshift(y, s):
        x = y
        for _ in range(64 // s):
            x = y ^ (x >> s)
        return x
    z = unshift(z, 31)
    z = unshift(z * pow(0x94D049BB133111EB, -1, 1 << 64) & _MASK, 27)
    return unshift(z * pow(0xBF58476D1CE4E5B9, -1, 1 << 64) & _MASK, 30)


def test_splitmix64_pinned_sequence():
    # Frozen regression values for the generator spelled out in the module.
    rng = SplitMix64(0)
    assert [rng.next_u64() for _ in range(3)] == [
        16294208416658607535,
        7960286522194355700,
        487617019471545679,
    ]
    rng = SplitMix64(42)
    assert rng.next_u64() == 13679457532755275413


def test_splitmix64_ranges():
    rng = SplitMix64(7)
    for _ in range(1000):
        x = rng.random()
        assert 0.0 <= x < 1.0
    for n in (1, 2, 3, 7, 64):
        for _ in range(200):
            assert 0 <= rng.randrange(n) < n


def test_splitmix64_randrange_rejects_an_empty_or_too_wide_range():
    rng = SplitMix64(7)
    for n in (0, -1, 2**64 + 1, 10**60):
        with pytest.raises(ValueError):
            rng.randrange(n)
    # n = 2**64 accepts every 64-bit draw unchanged
    assert rng.randrange(2**64) == SplitMix64(7).next_u64()


def test_negative_fugacity_is_rejected():
    g = complete_graph(3)
    for lam in (F(-1, 2), -3):
        with pytest.raises(ValueError, match="fugacity must be nonnegative"):
            _coin_threshold(lam)
        with pytest.raises(ValueError, match="fugacity must be nonnegative"):
            estimate(g, lam, 10**5, 10**3)


def test_glauber_step_support_on_k2():
    g = complete_graph(2)
    rng, coin = SplitMix64(1), _coin_threshold(1)
    occupied = size = 0
    for _ in range(50):
        occupied, size = _step(rng, g, coin, occupied, size)
        assert occupied.bit_count() <= 1  # never both endpoints


def test_single_site_stationary_frequency():
    # One vertex at fugacity 1: occupancy probability exactly 1/2.  The size
    # after each update is 0 or 1, so the kernel's s1 counts occupied steps.
    g = empty_graph(1)
    total = 200000
    _, _, [(hits, _)] = _heat_bath(SplitMix64(12), g.adj, g.n, _coin_threshold(1), 0, 0,
                                   (total,))
    freq = hits / total
    assert abs(freq - 0.5) < 0.01


def test_zero_fugacity_absorbs_at_empty():
    g = complete_graph(3)
    rng, coin = SplitMix64(5), _coin_threshold(0)
    occupied, size = 1, 1
    for _ in range(200):
        occupied, size = _step(rng, g, coin, occupied, size)
    assert occupied == 0 and size == 0


def test_independence_invariant_along_the_chain():
    g = generate("kab:2,3")
    rng, coin = SplitMix64(3), _coin_threshold(F(3, 2))
    occupied = size = 0
    for _ in range(2000):
        occupied, size = _step(rng, g, coin, occupied, size)
        for v in bits_of(occupied):
            assert not g.adj[v] & occupied
        assert size == occupied.bit_count()


def test_estimate_preconditions():
    g = complete_graph(3)
    with pytest.raises(ValueError):
        estimate(g, 1, 10**4, 10**4)
    with pytest.raises(ValueError, match="burn_in must be nonnegative"):
        estimate(g, 1, -5, -1)
    for steps in (-5, 0, 49):
        with pytest.raises(ValueError, match="need steps >= "):
            estimate(g, 1, steps, 0)
    assert estimate(g, 1, 50, 0).steps == 50


def test_estimate_deterministic_per_seed():
    g = generate("kab:2,2")
    a = estimate(g, 1, 10**5, 10**3, seed=9)
    b = estimate(g, 1, 10**5, 10**3, seed=9)
    assert a.to_json() == b.to_json()
    c = estimate(g, 1, 10**5, 10**3, seed=10)
    assert c.to_json() != a.to_json()


def test_standard_errors_shrink_with_steps():
    g = generate("cycle:6")
    short = estimate(g, 1, 10**5, 10**3, seed=4)
    long = estimate(g, 1, 10**6, 10**3, seed=4)
    assert long.se_mean < short.se_mean
    assert long.se_var < short.se_var


def test_agreement_named_cases():
    # two named spot checks; the full pinned 20-case matrix runs in the
    # acceptance suite
    cases = [("kab:3,3", F(1), 1000), ("kn:5", F(2), 1000)]
    for spec, lam, seed in cases:
        prof = HardCoreProfile(generate(spec))
        g = prof.graph
        rep = estimate(g, lam, 10**6, 10**4, seed=seed)
        ne = float(g.n * prof.expectation_at(lam))
        nv = float(g.n * prof.variance_at(lam))
        assert abs(rep.mean_size - ne) <= 3 * rep.se_mean, spec
        assert abs(rep.var_size - nv) <= 3 * rep.se_var, spec


def test_high_fugacity_path_agreement():
    # At fugacity 33 the five-vertex path's exact variance lies above the
    # edgeless ceiling; the sampler can only confirm agreement with the exact
    # value (the exceedance itself is far below sampling resolution).
    g = generate("path:5")
    lam = F(33)
    rep = estimate(g, lam, 10**6, 10**4, seed=1000)
    v = HardCoreProfile(g).variance_at(lam)
    assert abs(rep.var_size - float(5 * v)) <= 3 * rep.se_var
    assert 5 * v > F(5 * 33, 34 ** 2)


def test_report_json_fields():
    g = complete_graph(3)
    rep = estimate(g, F(1, 2), 10**5, 10**3, seed=2)
    out = rep.to_json()
    assert out["lambda"] == "1/2"
    assert out["steps"] == rep.steps and out["seed"] == 2
    assert isinstance(out["mean_size"], str)  # repr'd for byte-stable reports


def _block_draws(state, count):
    """count draws from state, read as prefixes of full _BLOCK-draw blocks."""
    out = []
    while len(out) < count:
        m = min(_BLOCK, count - len(out))
        out += _splitmix_block(state)[:m]
        state = (state + m * _GAMMA) & _MASK
    return out, state


def test_splitmix_block_matches_next_u64():
    # the lane constants are their defining sums over 128-bit lanes
    assert sampler._REP == sum(1 << 128 * k for k in range(_BLOCK))
    assert sampler._G_K == _GAMMA * sum((k + 1) << 128 * k for k in range(_BLOCK))
    # three consecutive requests of m draws each, from seeds including one
    # whose counter wraps 2**64 at once
    for seed in (0, 20260809, 2**64 - 5):
        for m in (1, 2, 1023, 1024, 1025):
            ref = SplitMix64(seed)
            state = seed
            for _ in range(3):
                got, state = _block_draws(state, m)
                assert got == [ref.next_u64() for _ in range(m)], (seed, m)
                assert state == ref.state


# Kernel cases: seed 2**64 - 5 wraps the counter.
KERNEL_CASES = (("petersen", F(1), 3), ("path:5", F(4), 2**64 - 5),
                ("kn:3", F(1, 4), 11), ("empty:6", F(4), 1001))
# Step counts that stay inside one 1024-draw block, end near its edge (an
# update takes one or two draws) and span several blocks.
KERNEL_LENGTHS = (1, 2, 511, 512, 513, 3000, 0, 1)


def test_heat_bath_matches_the_reference_steps():
    # one kernel call per step count
    for spec, lam, seed in KERNEL_CASES:
        g = generate(spec)
        rng, ref = SplitMix64(seed), SplitMix64(seed)
        occupied = size = 0
        for k in KERNEL_LENGTHS:
            got = _heat_bath(rng, g.adj, g.n, _coin_threshold(lam), occupied, size,
                             (k,))
            want = _reference_segments(ref, g, lam, occupied, size, (k,))
            assert got == want, (spec, k)
            assert rng.state == ref.state, (spec, k)
            occupied, size = got[:2]


def test_heat_bath_segments_match_the_reference_steps():
    # One kernel call over all the step counts as segments: its 1024-draw
    # blocks carry across segment boundaries, and each segment's (s1, s2),
    # the final state and the draws consumed match the reference replayed
    # segment by segment.
    for spec, lam, seed in KERNEL_CASES:
        g = generate(spec)
        rng, ref = SplitMix64(seed), SplitMix64(seed)
        got = _heat_bath(rng, g.adj, g.n, _coin_threshold(lam), 0, 0, KERNEL_LENGTHS)
        assert got == _reference_segments(ref, g, lam, 0, 0, KERNEL_LENGTHS), spec
        assert rng.state == ref.state, spec


def test_heat_bath_rejected_vertex_draw_at_a_block_edge():
    # On the edgeless graph every update draws a vertex and then a coin, and
    # on three vertices randrange rejects only the draw 2**64 - 1.  Place
    # that draw where a vertex draw falls: first in a one-update run, just
    # before the end of a 1024-draw block (so that update, or the next, runs
    # off it) and at the start of the next block.
    g = generate("empty:3")
    counter = _unmix(_MASK)
    for k, pos in ((1, 0), (600, 1020), (600, 1022), (600, 1024)):
        seed = (counter - (pos + 1) * _GAMMA) & _MASK
        ref = SplitMix64(seed)
        assert [ref.next_u64() for _ in range(pos + 1)][pos] == _MASK
        rng, ref = SplitMix64(seed), SplitMix64(seed)
        got = _heat_bath(rng, g.adj, g.n, _coin_threshold(1), 0, 0, (k,))
        assert got == _reference_segments(ref, g, 1, 0, 0, (k,)), (k, pos)
        # two draws per update plus the one rejected
        assert rng.state == ref.state == (seed + (2 * k + 1) * _GAMMA) & _MASK


def test_heat_bath_rejected_vertex_draw_at_a_segment_start_and_a_block_end():
    # On empty:3 each update takes two draws, so draw 600 is the first vertex
    # draw of the second segment of (300, 300), and draw 1024 that of (512,
    # 88), whose first segment uses up the first 1024-draw block.  On kn:3 at
    # fugacity 1 from the empty set, draw 1023, the last of the first block,
    # is read as a vertex draw.
    counter = _unmix(_MASK)
    for spec, lengths, pos in (("empty:3", (300, 300), 600), ("empty:3", (512, 88), 1024),
                               ("kn:3", (400, 300), 1023)):
        g = generate(spec)
        seed = (counter - (pos + 1) * _GAMMA) & _MASK
        rng, ref = SplitMix64(seed), _Counting(seed)
        got = _heat_bath(rng, g.adj, g.n, _coin_threshold(1), 0, 0, lengths)
        assert got == _reference_segments(ref, g, 1, 0, 0, lengths), (spec, pos)
        assert rng.state == ref.state, (spec, pos)
        # one vertex draw per update and one coin each, plus the one rejected
        assert ref.draws == sum(lengths) + ref.coins + 1, (spec, pos)


def test_rng_state_counts_the_draws_consumed(monkeypatch):
    g = generate("cycle:5")
    seed = 2**64 - 5

    def consumed(steps):
        # the reference draws one at a time, so its count is exact
        ref = _Counting(seed)
        _reference_steps(ref, g, F(2), 0, 0, steps)
        return ref.draws

    rng, coin = SplitMix64(seed), _coin_threshold(F(2))
    occupied = size = 0
    for _ in range(5):
        occupied, size = _step(rng, g, coin, occupied, size)
    assert rng.state == (seed + consumed(5) * _GAMMA) & _MASK

    made = []

    class Recorded(SplitMix64):
        __slots__ = ()

        def __init__(self, s):
            super().__init__(s)
            made.append(self)

    monkeypatch.setattr(sampler, "SplitMix64", Recorded)
    rep = estimate(g, F(2), 6050, 201, seed=seed)
    assert rep.steps == 6050 and rep.batches == 50 and len(made) == 1
    assert made[0].state == (seed + consumed(201 + 6050) * _GAMMA) & _MASK


def test_glauber_step_interleaved_with_a_reference_replay():
    # kernel calls of mixed lengths, each followed by a reference replay of
    # the same length: calls end inside a block, near its edge and past it,
    # and single updates sit between them
    lengths = (1, 2, 511, 1, 512, 1024, 2, 513, 1025, 1)
    for spec, lam, seed in (("kab:2,3", F(3, 2), 3), ("empty:1", F(1), 12),
                            ("kn:4", F(1, 4), 2**64 - 5)):
        g = generate(spec)
        rng, coin = SplitMix64(seed), _coin_threshold(lam)
        ref = SplitMix64(seed)
        occupied = size = ref_occupied = ref_size = 0
        for k in lengths:
            occupied, size, sums = _heat_bath(rng, g.adj, g.n, coin, occupied, size, (k,))
            ref_occupied, ref_size, s1, s2 = _reference_steps(ref, g, lam, ref_occupied,
                                                              ref_size, k)
            assert (occupied, size, rng.state, sums) == (ref_occupied, ref_size, ref.state,
                                                         [(s1, s2)]), (spec, k)


def _reference_report(g, lam, steps, burn_in, seed):
    """The JSON report of `estimate`, rebuilt from `_reference_steps` sums
    over the burn-in and then each batch."""
    batch_len = steps // sampler.BATCHES
    rng = SplitMix64(seed)
    occupied, size, _, _ = _reference_steps(rng, g, lam, 0, 0, burn_in)
    means, variances = [], []
    total1 = total2 = 0
    for _ in range(sampler.BATCHES):
        occupied, size, s1, s2 = _reference_steps(rng, g, lam, occupied, size, batch_len)
        m = s1 / batch_len
        means.append(m)
        variances.append(s2 / batch_len - m * m)
        total1 += s1
        total2 += s2
    measured = sampler.BATCHES * batch_len
    mean = total1 / measured
    return {"graph": g.display_name(), "lambda": str(F(lam)), "steps": measured,
            "burn_in": burn_in, "seed": seed, "batches": sampler.BATCHES,
            "mean_size": repr(mean), "se_mean": repr(sampler._spread(means)),
            "var_size": repr(total2 / measured - mean * mean),
            "se_var": repr(sampler._spread(variances))}


def test_estimate_matches_a_report_from_the_reference_steps():
    # burn_in = 0 makes the kernel's first segment empty, and steps % 50 != 0
    # leaves steps % 50 steps unmeasured
    for spec, lam, steps, burn_in, seed in (("cycle:5", F(2), 5077, 0, 2**64 - 5),
                                            ("petersen", F(1), 4999, 333, 3),
                                            ("kn:3", F(1, 4), 50, 0, 11),
                                            ("path:5", F(4), 3050, 0, 1001)):
        g = generate(spec)
        rep = estimate(g, lam, steps, burn_in, seed=seed)
        assert rep.to_json() == _reference_report(g, lam, steps, burn_in, seed), spec


def test_coin_threshold_matches_the_float_comparison():
    # lam = 1/4, 1, 4 give p_occ = 1/5, 1/2, 4/5
    for lam in (F(1, 4), F(1), F(4), F(7, 3), F(1, 10**30), F(10**400)):
        p = float(lam / (1 + lam))
        t = _coin_threshold(lam)
        for c in ((t - 1) << 11, (t << 11) - 1, t << 11, (t + 1) << 11):
            assert ((c >> 11) < t) == ((c >> 11) * 2.0**-53 < p), (lam, c)
        assert ((t - 1) << 11) * 2.0**-64 < p <= (t << 11) * 2.0**-64
    assert _coin_threshold(0) == 0
    rng = SplitMix64(53)
    for _ in range(2000):
        lam = F(rng.randrange(10**19) * 10 ** rng.randrange(40), 1 + rng.randrange(10**19))
        assert _coin_threshold(lam) == math.ceil(F(float(lam / (1 + lam))) * 2**53), lam


# sha256 of the sorted-key JSON report at 10**5 steps and 10**4 burn-in, for
# every cross-validation case; a drifted stream changes them.  Five were
# recorded before the block generator replaced the one-draw-at-a-time
# kernel, and all twenty equal the benchmark's sampler_xval pins.
PINNED_REPORTS = {
    ("kn:2", F(1, 4), 1000): "a18e90cd7769fcabb559fb87b0f68e241e89ae234e7aa6c96a46b1565f752f35",
    ("kn:3", F(1), 1000): "3da61837b730e18ead7cee1f009d9711aea5cddd4594f3882dcfa1831cd29680",
    ("kn:4", F(1, 4), 1000): "9a86d82e76ca8e6ab1299bda2402afa13779df6aa5cd60f0af082abc3a6c6445",
    ("kn:5", F(4), 1000): "6a7826c7b4e99a1e0408ec6264ffa4b91fb922f2e6d456a5cba747a0d0ee0e79",
    ("empty:4", F(1), 1000): "b31fdfbf23f8533e37153d686e8914cc3898ac24362ff9c5849984cb6dff3cd3",
    ("empty:6", F(4), 1001): "6eebd10f216f3f48a5336c99eb185b3a5b97d02fac75d54092ddccb4f43e1e2f",
    ("path:3", F(1, 4), 1000): "84b7888ce24647432dd246b72362c527e78d91541ad61319f6c79f48594b2e53",
    ("path:5", F(1), 1000): "1cf1bed3e81e75841a208b126203fa443c532d2ed22397d5aa2d068bdbebe05d",
    ("path:5", F(4), 1000): "93fac7436ba5392b48e401a83338ac3e9e6a288f8471109b44b49997eb6c67e1",
    ("cycle:4", F(1, 4), 1000): "45c22a13ffa619edaea83b790fc1985847e485e4c13a7cd68776d0772ff1e23a",
    ("cycle:5", F(1), 1000): "97bcc79219ccd2b92fb1e36593318b65aa6e937b34b4077f2c4d1795957175e9",
    ("cycle:6", F(1, 4), 1001): "bbbef83423ad98b19e86ef7bff2165413cdf09a0713ac6668f23479b7e325847",
    ("cycle:7", F(4), 1000): "a2f67a032a2d8a17bf3f0a8b9b134a4166f5ff69e20c3adb0bd7534d2e3401c6",
    ("kab:1,2", F(4), 1000): "68cf665d621e3b16a0148721e5a33341cf30138ac460477fbf3cd7d52243c782",
    ("kab:1,3", F(4), 1000): "2feb3653baae6d0b394043b4f4184a4ffabcb43d990c82b4c905536a11af609d",
    ("kab:2,2", F(1), 1000): "2decc7170e31867d2c2c341763d2f26bb3a4fad439b6ae9ca612e565d09962f2",
    ("kab:2,3", F(1, 4), 1000): "c28fbfe405684fd5b2bed61c232590345f700808dadd8093efc86dd8790c3649",
    ("kab:3,3", F(1), 1000): "2479618e75650407ab1f6bbb1770fc7bf76dc0cdc84a992f846a3c78e5679061",
    ("petersen", F(1), 1000): "bffce39a88f5a48fd34907c190c0457d318c816a80a081c9f7183d436fc4aab4",
    ("pasch", F(1), 1000): "450057aea16eb5647216b331e2ccb933ee23e7e455684cd333c4f5f2f8f0a647",
}


def test_pinned_report_digests():
    assert set(PINNED_REPORTS) == set(sampler.CROSS_VALIDATION_CASES)
    for (spec, lam, seed), digest in PINNED_REPORTS.items():
        rep = estimate(generate(spec), lam, 10**5, 10**4, seed=seed)
        text = json.dumps(rep.to_json(), sort_keys=True)
        assert hashlib.sha256(text.encode()).hexdigest() == digest, spec
