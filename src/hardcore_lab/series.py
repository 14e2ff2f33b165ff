"""Truncated power series in the fugacity t, plus the Taylor-coefficient and
identity verifications they exist to support.

A series over symbolic degree variables vars, truncated after t^order, is a
MultiPoly over vars + ("t",) with no term of t-degree above order.  Sums and
differences are MultiPoly ones; every product is a MultiPoly product cut back
with truncate.  The order is an argument of each function here, never stored
on the series, and coefficient(s, k) is a MultiPoly over vars again.
"""

from __future__ import annotations

from fractions import Fraction

from .graphs import Graph, bits_of
from .multipoly import MultiPoly
from .polynomials import Poly
from .roots import nonneg_on_segment

MAX_SERIES_ORDER = 8
# The coefficient checks evaluate on every degree pair up to this degree.
DEGREE_GRID = 12


def truncate(s: MultiPoly, order: int) -> MultiPoly:
    """s without its terms of t-degree above order."""
    return MultiPoly(s.vars, {e: c for e, c in s.terms.items() if e[-1] <= order})


def series_of(vars, coeffs) -> MultiPoly:
    """Sum of coeffs[k] t^k; each coefficient is a rational or a MultiPoly
    over vars."""
    vars = tuple(vars)
    terms = {}
    for k, c in enumerate(coeffs):
        if isinstance(c, (int, Fraction)):
            c = MultiPoly.constant(vars, c)
        if c.vars != vars:
            raise ValueError("coefficient variable mismatch")
        terms.update((e + (k,), v) for e, v in c.terms.items())
    return MultiPoly(vars + ("t",), terms)


def coefficient(s: MultiPoly, k: int) -> MultiPoly:
    """The coefficient of t^k, a MultiPoly over the variables before t."""
    return MultiPoly(s.vars[:-1], {e[:-1]: c for e, c in s.terms.items() if e[-1] == k})


def shift_down(s: MultiPoly, k: int) -> MultiPoly:
    """Divide by t^k; the coefficients below t^k must vanish identically."""
    if any(e[-1] < k for e in s.terms):
        raise ValueError("series is not divisible by that power")
    return MultiPoly(s.vars, {e[:-1] + (e[-1] - k,): c for e, c in s.terms.items()})


def compose_scalar(s: MultiPoly, outer: list[Fraction], order: int) -> MultiPoly:
    """Sum of outer[n] * s**n truncated after t^order; s needs a zero
    constant term so that the truncation stays exact."""
    if any(e[-1] == 0 for e in s.terms):
        raise ValueError("composition requires a zero constant term")
    result = MultiPoly.constant(s.vars, outer[0] if outer else 0)
    power = MultiPoly.constant(s.vars, 1)
    for n in range(1, min(len(outer), order + 1)):
        power = truncate(power * s, order)
        result = result + power * outer[n]
    return result


def divide(a: MultiPoly, b: MultiPoly, order: int) -> MultiPoly:
    """a / b truncated after t^order, through the geometric series
    1/b = (1/b0) sum_n (-(b/b0 - 1))^n; b's constant term b0 must be a
    nonzero constant polynomial."""
    b0 = coefficient(b, 0)
    if not b0.is_constant or b0.constant_value() == 0:
        raise ValueError("divisor constant term must be a nonzero constant")
    inv_b0 = 1 / b0.constant_value()
    geometric = [(-1) ** n for n in range(order + 1)]
    inverse = compose_scalar(b * inv_b0 - 1, geometric, order) * inv_b0
    return truncate(a * inverse, order)


def log1p_coefficients(order: int) -> list[Fraction]:
    """Taylor coefficients of log(1 + t): 0, then (-1)^(k+1) / k."""
    return [Fraction(0)] + [Fraction((-1) ** (k + 1), k) for k in range(1, order + 1)]


def lambert_over_x_coefficients(order: int) -> list[Fraction]:
    """Taylor coefficients of W(x)/x: the n-th is (-(n+1))^n / (n+1)!.

    Validated against the certified numeric W evaluations in the tests rather
    than trusted blindly.
    """
    out = []
    factorial = 1
    for n in range(order + 1):
        factorial *= n + 1
        out.append(Fraction((-(n + 1)) ** n, factorial))
    return out


def g_series(d, vars=("d",), order: int = 6) -> MultiPoly:
    """Series of the triangle-free occupancy weight
    (t/(1+t)) * W(d log(1+t)) / (d log(1+t)) with a symbolic degree d.

    d may be a MultiPoly over vars (e.g. the degree variable itself, or a
    shifted degree); the order is capped to keep the expansion budget tame.
    """
    if not 0 <= order <= MAX_SERIES_ORDER:
        raise ValueError(f"series order outside 0..{MAX_SERIES_ORDER}")
    vars = tuple(vars)
    if isinstance(d, (int, Fraction)):
        d = MultiPoly.constant(vars, d)
    if d.vars != vars:
        raise ValueError("degree polynomial must use the declared variables")
    x = series_of(vars, [c * d for c in log1p_coefficients(order)])
    w_over_x = compose_scalar(x, lambert_over_x_coefficients(order), order)
    fugacity_weight = series_of(vars, [0] + [(-1) ** (k + 1) for k in range(1, order + 1)])
    return truncate(fugacity_weight * w_over_x, order)


# -- symbolic verification reports -----------------------------------------

T_VARS = ("d_u", "d_v")
TPRIME_VARS = ("d_w", "d_uw")


def t_series(order: int = 4) -> MultiPoly:
    """The ratio (g(d_v - 1) - g(d_v)) / g(d_u) as a series in the fugacity."""
    du = MultiPoly.variable(T_VARS, "d_u")
    dv = MultiPoly.variable(T_VARS, "d_v")
    num = g_series(dv - 1, T_VARS, order + 1) - g_series(dv, T_VARS, order + 1)
    den = g_series(du, T_VARS, order + 1)
    return divide(shift_down(num, 1), shift_down(den, 1), order)


def expected_t_coefficients() -> dict[int, MultiPoly]:
    du = MultiPoly.variable(T_VARS, "d_u")
    dv = MultiPoly.variable(T_VARS, "d_v")
    one = MultiPoly.constant(T_VARS, 1)
    a1 = one
    a2 = du + 1 - dv * 3
    a3 = (one * 3 + du - du * du - dv * 10 - du * dv * 6 + dv * dv * 16) * Fraction(1, 2)
    twelve_a4 = (
        du * du * dv * 18
        + du * dv * dv * 96
        - du * dv * 42
        + du ** 3 * 8
        + du * 16
        - dv ** 3 * 250
        + dv * dv * 231
        - dv * 139
        + one * 28
    )
    return {1: a1, 2: a2, 3: a3, 12 * 4: twelve_a4}


def verify_t_coefficients() -> dict:
    """Check the displayed low-order coefficients of t symbolically, and the
    crude cubic floor 12 a4 >= -431 Delta^3 on the integer degree grid
    up to DEGREE_GRID."""
    t = t_series(4)
    expected = expected_t_coefficients()
    a4_scaled = coefficient(t, 4) * 12
    checks = {
        "a0_zero": coefficient(t, 0).is_zero,
        "a1": coefficient(t, 1) == expected[1],
        "a2": coefficient(t, 2) == expected[2],
        "a3": coefficient(t, 3) == expected[3],
        "twelve_a4": a4_scaled == expected[48],
    }
    # The floor for Delta covers the pairs 1 <= d_v <= d_u <= Delta, and
    # -431 Delta^3 falls as Delta grows: it holds for every Delta exactly when
    # each pair meets it at Delta = d_u.
    checks["a4_cubic_floor"] = all(
        a4_scaled.evaluate({"d_u": du, "d_v": dv}) >= -431 * du ** 3
        for du in range(1, DEGREE_GRID + 1) for dv in range(1, du + 1))
    return {
        "ok": all(checks.values()),
        "checks": checks,
        "coefficients": {f"a{k}": str(coefficient(t, k)) for k in range(1, 5)},
    }


def tprime_series(order: int = 4) -> MultiPoly:
    """g(d_w - d_uw) - g(d_w) as a series in the fugacity."""
    dw = MultiPoly.variable(TPRIME_VARS, "d_w")
    duw = MultiPoly.variable(TPRIME_VARS, "d_uw")
    return g_series(dw - duw, TPRIME_VARS, order) - g_series(dw, TPRIME_VARS, order)


def verify_tprime_coefficients() -> dict:
    """Check the displayed coefficients of the second-neighborhood correction
    term, the monotonicity of its quartic coefficient in the codegree, its
    floor of 11/8, and the codegree relaxation used downstream, on the
    degree grid up to DEGREE_GRID."""
    tp = tprime_series(4)
    dw = MultiPoly.variable(TPRIME_VARS, "d_w")
    duw = MultiPoly.variable(TPRIME_VARS, "d_uw")
    one = MultiPoly.constant(TPRIME_VARS, 1)

    a2 = duw
    a3 = (duw * duw - dw * duw * 2 - duw) * Fraction(3, 2)
    a4 = (
        duw ** 3 * Fraction(8, 3)
        - dw * duw * duw * 8
        - duw * duw * 3
        + dw * dw * duw * 8
        + dw * duw * 6
        + duw * Fraction(11, 6)
    )
    deriv = a4.partial_derivative("d_uw")
    deriv_expected = one * Fraction(11, 6) + (dw - duw) ** 2 * 8 + (dw - duw) * 6

    checks = {
        "a0_a1_zero": coefficient(tp, 0).is_zero and coefficient(tp, 1).is_zero,
        "a2": coefficient(tp, 2) == a2,
        "a3": coefficient(tp, 3) == a3,
        "a4": coefficient(tp, 4) == a4,
        "a4_derivative": deriv == deriv_expected,
    }

    grid_min = min(
        a4.evaluate({"d_w": w, "d_uw": c})
        for w in range(1, DEGREE_GRID + 1)
        for c in range(1, w + 1)
    )
    checks["a4_floor"] = grid_min >= Fraction(11, 8)

    # Truncation relaxation: dropping the codegree square term keeps a lower
    # bound exactly when d_uw >= 1.
    relaxed_gap = a3 - (-(dw * duw * 3))  # coefficient gap at the cubic term
    checks["relaxation_identity"] = relaxed_gap == duw * (duw - 1) * Fraction(3, 2)
    checks["relaxation_grid"] = all(
        relaxed_gap.evaluate({"d_w": w, "d_uw": c}) >= 0
        for w in range(1, DEGREE_GRID + 1)
        for c in range(1, w + 1)
    )
    return {
        "ok": all(checks.values()),
        "checks": checks,
        "a4_grid_min": grid_min,
    }


def expected_g_cubic() -> dict[int, MultiPoly]:
    """Displayed truncation of g(d_v - 1): 1, -d_v, (3 d_v^2 - 3 d_v + 2)/2."""
    vars = ("d_v",)
    dv = MultiPoly.variable(vars, "d_v")
    one = MultiPoly.constant(vars, 1)
    return {1: one, 2: -dv, 3: (dv * dv * 3 - dv * 3 + one * 2) * Fraction(1, 2)}


def verify_g_cubic() -> dict:
    """The cubic truncation of g at a shifted degree matches the display."""
    vars = ("d_v",)
    dv = MultiPoly.variable(vars, "d_v")
    s = g_series(dv - 1, vars, 3)
    expected = expected_g_cubic()
    checks = {f"order{k}": coefficient(s, k) == expected[k] for k in (1, 2, 3)}
    checks["order0"] = coefficient(s, 0).is_zero
    return {"ok": all(checks.values()), "checks": checks}


FIDENTITY_VARS = ("lam", "d_u", "d_v")


def verify_fidentity() -> dict:
    """The clique-weight difference identity

        (f(d_v - 1) - f(d_v)) / f(d_u)
            = f(d_v - 1) + (d_u - d_v) f(d_v - 1) f(d_v)

    with f(d) = lam / (1 + (d+1) lam), verified by cross-multiplying to the
    zero polynomial in all three variables."""
    lam = MultiPoly.variable(FIDENTITY_VARS, "lam")
    du = MultiPoly.variable(FIDENTITY_VARS, "d_u")
    dv = MultiPoly.variable(FIDENTITY_VARS, "d_v")
    one = MultiPoly.constant(FIDENTITY_VARS, 1)

    def f(d: MultiPoly) -> tuple[MultiPoly, MultiPoly]:
        return lam, one + (d + 1) * lam

    fv1n, fv1d = f(dv - 1)
    fvn, fvd = f(dv)
    fun, fud = f(du)

    # lhs = (fv1 - fv) / fu  as a fraction of polynomials
    lhs_num = (fv1n * fvd - fvn * fv1d) * fud
    lhs_den = fv1d * fvd * fun
    # rhs = fv1 + (du - dv) fv1 fv
    rhs_num = fv1n * fvd + (du - dv) * fv1n * fvn
    rhs_den = fv1d * fvd
    residual = lhs_num * rhs_den - rhs_num * lhs_den
    return {"ok": residual.is_zero, "residual": str(residual)}


# -- per-graph b-coefficient extraction ------------------------------------

def _xu_poly(g: Graph, u: int, delta: int) -> Poly:
    du = g.degree(u)
    c1 = c2 = c3 = Fraction(0)
    for v in bits_of(g.adj[u]):
        dv = g.degree(v)
        c1 += 1
        c2 += du + 1 - 3 * dv
        c3 += Fraction(3 + du - du * du - 10 * dv - 6 * du * dv + 16 * dv * dv, 2)
    c4 = -Fraction(37 * delta ** 3) * du
    return Poly([0, c1, c2, c3, c4])


def _yu_poly(g: Graph, u: int) -> Poly:
    c1 = c2 = c3 = Fraction(0)
    for v in bits_of(g.adj[u]):
        dv = g.degree(v)
        c1 += 1
        c2 -= dv
        c3 += Fraction(3 * dv * dv - 3 * dv + 2, 2)
    for w, duw in g.codegrees(u).items():
        dw = g.degree(w)
        c2 -= duw
        c3 += 3 * dw * duw
    return Poly([0, c1, c2, c3])


def b3_closed_form(g: Graph) -> Fraction:
    """-(1/2n) sum_u [d_u + 7 sum_{v in N(u)} (d_u - d_v)^2]."""
    total = Fraction(0)
    for u in range(g.n):
        du = g.degree(u)
        total += du + 7 * sum((du - g.degree(v)) ** 2 for v in bits_of(g.adj[u]))
    return -total / (2 * g.n)


def verify_b_coefficients(g: Graph) -> dict:
    """Expand the per-vertex averaged product
    (1/n) sum_u (1 - x_u)(1 + y_u + y_u^2 + y_u^3 + 2 y_u^4 + 2 y_u^5)
    exactly for a triangle-free graph of minimum degree one, and confirm the
    constant, linear and quadratic coefficients collapse (b0 = 1,
    b1 = b2 = 0) while b3 matches its closed form; also certify the
    geometric-series domination 1 + y + y^2 + y^3 + 2y^4 + 2y^5 >= 1/(1-y)
    on |y| <= 1/2.  The edge-count rewrite folds the codegree sum of y_u's
    t^2 coefficient, -sum_{v in N(u)} d_v - sum_w codeg(u, w), into
    d_u - 2 sum_{v in N(u)} d_v; it holds exactly when
    ``Graph.tf_edge_count_identity`` holds at every u."""
    if not g.is_triangle_free():
        raise ValueError("b-coefficient extraction requires a triangle-free graph")
    if g.n == 0 or min(g.degrees()) < 1:
        raise ValueError("b-coefficient extraction requires minimum degree one")
    delta = g.max_degree
    total = Poly()
    for u in range(g.n):
        xu = _xu_poly(g, u, delta)
        yu = _yu_poly(g, u)
        series = Poly([1]) + yu + yu ** 2 + yu ** 3 + 2 * yu ** 4 + 2 * yu ** 5
        total = total + (Poly([1]) - xu) * series
    total = total * Fraction(1, g.n)
    b = [total.coefficient(k) for k in range(4)]
    b3_formula = b3_closed_form(g)

    # (1 - y)(1 + y + y^2 + y^3 + 2y^4 + 2y^5) - 1 = y^4 (1 - 2 y^2) >= 0
    y = Poly([0, 1])
    cleared = (Poly([1]) - y) * (Poly([1]) + y + y**2 + y**3 + 2 * y**4 + 2 * y**5) - 1
    dominated = nonneg_on_segment(cleared, Fraction(-1, 2), Fraction(1, 2))

    checks = {
        "edge_count_rewrite": all(g.tf_edge_count_identity(u) for u in range(g.n)),
        "b0": b[0] == 1,
        "b1": b[1] == 0,
        "b2": b[2] == 0,
        "b3_closed_form": b[3] == b3_formula,
        "b3_at_most_minus_half": b[3] <= Fraction(-1, 2),
        "geometric_domination": dominated.holds,
    }
    return {
        "ok": all(checks.values()),
        "checks": checks,
        "b": b,
        "b3_formula": b3_formula,
    }
