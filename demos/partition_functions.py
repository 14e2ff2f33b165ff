"""Tour of the exact engine: partition functions, marginals, and the two
moment fractions.

Every quantity here is an exact rational object; nothing is floated.
"""

from fractions import Fraction

from hardcore_lab import (
    HardCoreProfile,
    brute_force_polynomial,
    generate,
    independence_polynomial,
    profile,
    variance_via_marginals,
)

# The partition function of the hard-core model counts independent sets by
# size: Z_G(x) = sum over independent sets I of x^|I|.
for spec in ("kn:5", "kab:1,2", "path:4", "cycle:5", "pasch", "petersen"):
    g = generate(spec)
    z = independence_polynomial(g)
    print(f"{spec:10s} n={g.n:2d}  Z = {z.to_text()}")

# The memoized recursion is checked against a subset-enumeration oracle.
g = generate("petersen")
assert independence_polynomial(g) == brute_force_polynomial(g)
print("\nrecursion matches the brute-force oracle on the Petersen graph")

# Occupancy fraction E = x Z'/(n Z): the expected fraction of occupied
# vertices.  Variance fraction V = x dE/dx.  Both are read from the graph's
# HardCoreProfile.
prof = HardCoreProfile(generate("kab:3,3"))
e, v = prof.expectation, prof.variance
print(f"\nK_3,3:  E = ({e.num.to_text()}) / ({e.den.to_text()})")
print(f"        V = ({v.num.to_text()}) / ({v.den.to_text()})")
print(f"        E(1) = {e.evaluate(1)},  V(1) = {v.evaluate(1)}")

# Vertex and pair marginals are rational functions too, read from the
# profile, which computes each part through one engine memo.  On an edge
# the pair marginal vanishes identically.
path3 = HardCoreProfile(generate("path:3"))
p0 = path3.marginals[0]
p02 = path3.pair_marginal(0, 2)
print(f"\npath:3  p_0  = ({p0.num.to_text()}) / ({p0.den.to_text()})")
print(f"        p_02 = ({p02.num.to_text()}) / ({p02.den.to_text()})")
assert path3.pair_marginal(0, 1).is_zero

# The variance admits a second computation path through the marginals:
#   V = (1/n) sum_u (p_u + sum_{v != u} p_uv - p_u sum_v p_v)
# and the engine raises ArithmeticError unless the two paths agree as
# reduced rational functions.
variance_via_marginals(HardCoreProfile(generate("cycle:6")))
print("\npair-marginal variance path agrees with the closed form on cycle:6")

# profile(g) computes Z, E, V and every vertex marginal up front; a pair
# marginal is computed on request from the same memo.
prof = profile(generate("path:5"))
lam = Fraction(1, 3)
print(f"\npath:5 at fugacity {lam}:")
print(f"  Z({lam}) = {prof.z.evaluate(lam)}")
print(f"  E({lam}) = {prof.expectation.evaluate(lam)}")
print(f"  V({lam}) = {prof.variance.evaluate(lam)}")
print(f"  p_02({lam}) = {prof.pair_marginal(0, 2).evaluate(lam)}")
