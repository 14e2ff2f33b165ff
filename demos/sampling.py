"""Glauber dynamics as a statistical cross-check on the exact engine.

The chain flips one vertex at a time; its stationary law is the hard-core
model.  Estimates come with batch-means standard errors and reproduce
bit-identically for a fixed seed.
"""

from fractions import Fraction

from hardcore_lab import HardCoreProfile, estimate, generate

cases = [
    ("kab:3,3", Fraction(1)),
    ("kn:5", Fraction(2)),
    ("cycle:7", Fraction(4)),
    ("petersen", Fraction(1)),
]

print(f"{'graph':10s} {'lam':>4s} {'nE exact':>10s} {'nE sampled':>12s} "
      f"{'nV exact':>10s} {'nV sampled':>12s}")
for spec, lam in cases:
    prof = HardCoreProfile(generate(spec))
    g = prof.graph
    rep = estimate(g, lam, steps=10**6, burn_in=10**4, seed=1000)
    ne = float(g.n * prof.expectation_at(lam))
    nv = float(g.n * prof.variance_at(lam))
    print(f"{spec:10s} {str(lam):>4s} {ne:10.5f} "
          f"{rep.mean_size:9.5f}+-{rep.se_mean:.5f} "
          f"{nv:10.5f} {rep.var_size:9.5f}+-{rep.se_var:.5f}")

# Fixed seeds reproduce exactly, bit for bit.
a = estimate(generate("kab:3,3"), 1, 10**5, 10**3, seed=7)
b = estimate(generate("kab:3,3"), 1, 10**5, 10**3, seed=7)
assert a.to_json() == b.to_json()
print("\nfixed-seed reports are bit-identical")
