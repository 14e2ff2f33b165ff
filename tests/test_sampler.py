"""Glauber dynamics: determinism, invariants, statistical agreement."""

from fractions import Fraction as F

import pytest

from hardcore_lab.graphs import bits_of, complete_graph, empty_graph, generate
from hardcore_lab.hardcore import occupancy_value, variance_value
from hardcore_lab.sampler import (
    SplitMix64,
    estimate,
    glauber_step,
    new_chain,
)


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
    with pytest.raises(ValueError, match="fugacity must be nonnegative"):
        glauber_step(new_chain(1), g, F(-1, 2))
    with pytest.raises(ValueError, match="fugacity must be nonnegative"):
        estimate(g, F(-1, 2), 10**5, 10**3)


def test_glauber_step_support_on_k2():
    g = complete_graph(2)
    st = new_chain(1)
    for _ in range(50):
        glauber_step(st, g, 1)
        assert st.occupied.bit_count() <= 1  # never both endpoints


def test_single_site_stationary_frequency():
    # One vertex at fugacity 1: occupancy probability exactly 1/2.
    g = empty_graph(1)
    st = new_chain(12)
    hits = 0
    total = 200000
    for _ in range(total):
        glauber_step(st, g, 1)
        hits += st.occupied & 1
    freq = hits / total
    assert abs(freq - 0.5) < 0.01


def test_zero_fugacity_absorbs_at_empty():
    g = complete_graph(3)
    st = new_chain(5)
    st.occupied, st.size = 1, 1
    for _ in range(200):
        glauber_step(st, g, 0)
    assert st.occupied == 0 and st.size == 0


def test_independence_invariant_along_the_chain():
    g = generate("kab:2,3")
    st = new_chain(3)
    for _ in range(2000):
        glauber_step(st, g, F(3, 2))
        for v in bits_of(st.occupied):
            assert not g.adj[v] & st.occupied
        assert st.size == st.occupied.bit_count()


def test_estimate_preconditions():
    g = complete_graph(3)
    with pytest.raises(ValueError):
        estimate(g, 1, 10**4, 10**4)
    with pytest.raises(ValueError):
        estimate(g, 1, 10**5, 10**3, batches=10)


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
        g = generate(spec)
        rep = estimate(g, lam, 10**6, 10**4, seed=seed)
        ne = float(g.n * occupancy_value(g, lam))
        nv = float(g.n * variance_value(g, lam))
        assert abs(rep.mean_size - ne) <= 3 * rep.se_mean, spec
        assert abs(rep.var_size - nv) <= 3 * rep.se_var, spec


def test_high_fugacity_path_agreement():
    # At fugacity 33 the five-vertex path's exact variance lies above the
    # edgeless ceiling; the sampler can only confirm agreement with the exact
    # value (the exceedance itself is far below sampling resolution).
    g = generate("path:5")
    lam = F(33)
    rep = estimate(g, lam, 10**6, 10**4, seed=1000)
    nv = float(5 * variance_value(g, lam))
    assert abs(rep.var_size - nv) <= 3 * rep.se_var
    assert 5 * variance_value(g, lam) > F(5 * 33, 34 ** 2)


def test_report_json_fields():
    g = complete_graph(3)
    rep = estimate(g, F(1, 2), 10**5, 10**3, seed=2)
    out = rep.to_json()
    assert out["lambda"] == "1/2"
    assert out["steps"] == rep.steps and out["seed"] == 2
    assert isinstance(out["mean_size"], str)  # repr'd for byte-stable reports
