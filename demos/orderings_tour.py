"""The seven orderings between generating polynomials, with the featured
pairs that separate them.

COUNT, MAX, COEF and FV compare coefficients; PART, OCC and VAR compare
values, derivatives-of-logs, and second log-derivatives pointwise on the
half-line, decided exactly by Descartes bisection.
"""

from hardcore_lab import compare, implication_web_check, var_difference_certificate
from hardcore_lab.orderings import OrderingKind
from hardcore_lab.polynomials import Poly
from hardcore_lab.sampler import SplitMix64
from hardcore_lab.orderings import random_generating_pair

# Three disjoint three-vertex stars versus the clique union with the same
# degree sequence: the cube of 1+3x+x^2 against (1+2x)^3(1+3x).
P = Poly([1, 3, 1]) ** 3
Q = Poly([1, 2]) ** 3 * Poly([1, 3])
print("P =", P.to_text())
print("Q =", Q.to_text())
for kind in OrderingKind:
    print(f"  P >=_{kind.value:5s} Q : {compare(kind, P, Q).status}")

# The variance comparison comes with an exact polynomial certificate
# P^2 Q^2 (V_P - V_Q); for this pair it factors into visibly nonnegative
# pieces.
cert = var_difference_certificate(P, Q)
factored = (3 * Poly([0, 0, 0, 1]) * Poly([1, 2]) ** 4 * Poly([1, 3, 1]) ** 4
            * Poly([3, 32, 118, 176, 86]))
assert cert == factored
print("\nvariance certificate factors as")
print("  3 x^3 (2x+1)^4 (x^2+3x+1)^4 (86x^4+176x^3+118x^2+32x+3)")

# Dropping the top coefficient of Q breaks FV at index 4 while VAR survives.
Q2 = Poly([1, 9, 30, 44, 24, 9])
fv = compare("FV", P, Q2)
var = compare("VAR", P, Q2)
print(f"\nagainst {Q2.to_text()}:")
print(f"  FV {fv.status} at index {fv.witness};  VAR {var.status}")
cert2 = var_difference_certificate(P, Q2)
print(f"  certificate degree {cert2.degree}, leading coefficient {cert2.lc}")

# The reverse separation: FV can hold while VAR fails, witnessed by an exact
# rational point where the variance gap is negative.
P4 = Poly([1, 4, 2, 2])
Q4 = Poly([1, 2, 1, 1])
v = compare("VAR", P4, Q4)
print(f"\nP = {P4.to_text()}, Q = {Q4.to_text()}:")
print(f"  FV {compare('FV', P4, Q4).status};  VAR {v.status} "
      f"at x = {v.witness} with gap {v.margin}")

# Implication web: on generating polynomials with positive support the seven
# orderings form a partial hierarchy; random pairs never violate it.
rng = SplitMix64(2)
violations = 0
for _ in range(2000):
    a, b = random_generating_pair(rng)
    violations += len(implication_web_check(a, b)["violations"])
print(f"\n2000 random pairs, implication violations: {violations}")
