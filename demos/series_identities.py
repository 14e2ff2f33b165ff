"""Symbolic series machinery: Taylor coefficients of the triangle-free
occupancy weight in symbolic degree variables, and the identities the
degree-sequence induction rests on.
"""

from hardcore_lab.multipoly import MultiPoly
from hardcore_lab.series import (
    coefficient,
    g_series,
    t_series,
    verify_b_coefficients,
    verify_fidentity,
    verify_t_coefficients,
    verify_tprime_coefficients,
)
from hardcore_lab.graphs import generate

# g(d) = (x/(1+x)) W(d log(1+x)) / (d log(1+x)) expanded with d symbolic.
s = g_series(MultiPoly.variable(("d",), "d"), ("d",), 4)
print("g(d) series coefficients:")
for k in range(5):
    print(f"  x^{k}: {coefficient(s, k)}")

# The ratio driving the induction, t = (g(d_v - 1) - g(d_v)) / g(d_u),
# expanded to fourth order; every displayed coefficient checks exactly.
t = t_series(4)
print("\nt series coefficients (symbolic in d_u, d_v):")
for k in range(1, 5):
    print(f"  x^{k}: {coefficient(t, k)}")
report = verify_t_coefficients()
print("checks:", report["checks"])

# The second-neighborhood correction t' = g(d_w - d_uw) - g(d_w), with the
# quartic coefficient's monotonicity in the codegree and its 11/8 floor.
report = verify_tprime_coefficients()
print("\nt' checks:", report["checks"])
print("quartic coefficient grid minimum:", report["a4_grid_min"])

# The clique-weight identity that makes the general-graph induction work:
# (f(d_v-1) - f(d_v)) / f(d_u) = f(d_v-1) + (d_u - d_v) f(d_v-1) f(d_v)
# with f(d) = x / (1 + (d+1)x), an exact three-variable polynomial identity.
print("\nclique-weight identity residual is zero:", verify_fidentity()["ok"])

# Per-graph expansion of the averaged product: the constant is one, the
# linear and quadratic terms cancel, and the cubic term matches its closed
# form (and stays at most -1/2).
for spec in ("cycle:5", "petersen", "kab:1,2", "kab:3,3"):
    report = verify_b_coefficients(generate(spec))
    b = report["b"]
    print(f"{spec:10s} b0..b3 = {b[0]}, {b[1]}, {b[2]}, {b[3]}")
