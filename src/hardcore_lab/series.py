"""Truncated power series in the fugacity with MultiPoly coefficients in
symbolic degree variables, plus the Taylor-coefficient and identity
verifications they exist to support."""

from __future__ import annotations

from fractions import Fraction

from .graphs import Graph, bits_of
from .multipoly import MultiPoly
from .polynomials import Poly
from .roots import nonneg_on_segment

MAX_SERIES_ORDER = 8


class MultiSeries:
    """Power series in one formal parameter, truncated after a fixed order.

    Coefficients are MultiPolys over a shared variable tuple.  No operation
    ever consults coefficients beyond the truncation order.
    """

    __slots__ = ("vars", "order", "coeffs")

    def __init__(self, vars: tuple[str, ...], coeffs, order: int | None = None):
        vars = tuple(vars)
        coeffs = list(coeffs)
        if order is None:
            order = len(coeffs) - 1
        if order < 0:
            raise ValueError("truncation order must be nonnegative")
        zero = MultiPoly(vars)
        out = []
        for k in range(order + 1):
            c = coeffs[k] if k < len(coeffs) else zero
            if isinstance(c, (int, Fraction)):
                c = MultiPoly.constant(vars, c)
            if c.vars != vars:
                raise ValueError("coefficient variable mismatch")
            out.append(c)
        object.__setattr__(self, "vars", vars)
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "coeffs", tuple(out))

    @classmethod
    def zero(cls, vars, order: int) -> "MultiSeries":
        return cls(vars, [], order)

    @classmethod
    def constant(cls, vars, c, order: int) -> "MultiSeries":
        return cls(vars, [MultiPoly.constant(vars, c)], order)

    @classmethod
    def log1p(cls, vars, order: int) -> "MultiSeries":
        """log(1 + t) truncated: sum_{k>=1} (-1)^(k+1) t^k / k."""
        coeffs = [MultiPoly(vars)]
        for k in range(1, order + 1):
            coeffs.append(MultiPoly.constant(vars, Fraction((-1) ** (k + 1), k)))
        return cls(vars, coeffs, order)

    @classmethod
    def fugacity_weight(cls, vars, order: int) -> "MultiSeries":
        """t/(1 + t) truncated: sum_{k>=1} (-1)^(k+1) t^k."""
        coeffs = [MultiPoly(vars)]
        for k in range(1, order + 1):
            coeffs.append(MultiPoly.constant(vars, (-1) ** (k + 1)))
        return cls(vars, coeffs, order)

    def coefficient(self, k: int) -> MultiPoly:
        if not 0 <= k <= self.order:
            raise ValueError(f"coefficient {k} beyond truncation order {self.order}")
        return self.coeffs[k]

    def _coerce(self, other) -> "MultiSeries":
        if isinstance(other, MultiSeries):
            if other.vars != self.vars:
                raise ValueError("variable mismatch")
            return other
        if isinstance(other, (int, Fraction, MultiPoly)):
            c = other if isinstance(other, MultiPoly) else MultiPoly.constant(self.vars, other)
            return MultiSeries(self.vars, [c], self.order)
        return NotImplemented

    def __eq__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.order == other.order and self.coeffs == other.coeffs

    def __neg__(self):
        return MultiSeries(self.vars, [-c for c in self.coeffs], self.order)

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        order = min(self.order, other.order)
        return MultiSeries(
            self.vars, [self.coeffs[k] + other.coeffs[k] for k in range(order + 1)], order
        )

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, MultiPoly)):
            c = other if isinstance(other, MultiPoly) else MultiPoly.constant(self.vars, other)
            return MultiSeries(self.vars, [ck * c for ck in self.coeffs], self.order)
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        order = min(self.order, other.order)
        zero = MultiPoly(self.vars)
        out = [zero] * (order + 1)
        for i, ci in enumerate(self.coeffs[:order + 1]):
            if ci.is_zero:
                continue
            for j in range(order + 1 - i):
                cj = other.coeffs[j]
                if cj.is_zero:
                    continue
                out[i + j] = out[i + j] + ci * cj
        return MultiSeries(self.vars, out, order)

    __rmul__ = __mul__

    def divide(self, other: "MultiSeries") -> "MultiSeries":
        """Series division; the divisor's constant term must be a nonzero
        constant polynomial."""
        other = self._coerce(other)
        b0 = other.coeffs[0]
        if not b0.is_constant or b0.constant_value() == 0:
            raise ValueError("divisor constant term must be a nonzero constant")
        inv = 1 / b0.constant_value()
        order = min(self.order, other.order)
        out: list[MultiPoly] = []
        for k in range(order + 1):
            acc = self.coeffs[k]
            for j in range(1, k + 1):
                acc = acc - other.coeffs[j] * out[k - j]
            out.append(acc * inv)
        return MultiSeries(self.vars, out, order)

    def shift_down(self, k: int) -> "MultiSeries":
        """Divide by the k-th power of the parameter; the low-order
        coefficients must vanish identically."""
        if any(not c.is_zero for c in self.coeffs[:k]):
            raise ValueError("series is not divisible by that power")
        return MultiSeries(self.vars, self.coeffs[k:], self.order - k)

    def compose_scalar(self, outer: list[Fraction]) -> "MultiSeries":
        """Sum of outer[n] * self**n; requires a zero constant term so that
        the truncation stays exact."""
        if not self.coeffs[0].is_zero:
            raise ValueError("composition requires a zero constant term")
        result = MultiSeries.constant(self.vars, outer[0] if outer else 0, self.order)
        power = MultiSeries.constant(self.vars, 1, self.order)
        for n in range(1, min(len(outer), self.order + 1)):
            power = power * self
            if outer[n] != 0:
                result = result + power * outer[n]
        return result

    def __repr__(self):
        inner = " , ".join(f"[{c}]" for c in self.coeffs)
        return f"MultiSeries(order={self.order}: {inner})"


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


def g_series(d, vars=("d",), order: int = 6) -> MultiSeries:
    """Series of the triangle-free occupancy weight
    (t/(1+t)) * W(d log(1+t)) / (d log(1+t)) with a symbolic degree d.

    d may be a MultiPoly over vars (e.g. the degree variable itself, or a
    shifted degree); the order is capped to keep the expansion budget tame.
    """
    if order > MAX_SERIES_ORDER:
        raise ValueError(f"series order capped at {MAX_SERIES_ORDER}")
    vars = tuple(vars)
    if isinstance(d, (int, Fraction)):
        d = MultiPoly.constant(vars, d)
    if d.vars != vars:
        raise ValueError("degree polynomial must use the declared variables")
    x = MultiSeries.log1p(vars, order) * d
    w_over_x = x.compose_scalar(lambert_over_x_coefficients(order))
    return MultiSeries.fugacity_weight(vars, order) * w_over_x


# -- symbolic verification reports -----------------------------------------

T_VARS = ("d_u", "d_v")
TPRIME_VARS = ("d_w", "d_uw")


def t_series(order: int = 4) -> MultiSeries:
    """The ratio (g(d_v - 1) - g(d_v)) / g(d_u) as a series in the fugacity."""
    du = MultiPoly.variable(T_VARS, "d_u")
    dv = MultiPoly.variable(T_VARS, "d_v")
    num = g_series(dv - 1, T_VARS, order + 1) - g_series(dv, T_VARS, order + 1)
    den = g_series(du, T_VARS, order + 1)
    return num.shift_down(1).divide(den.shift_down(1))


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


def verify_t_coefficients(max_delta: int = 12) -> dict:
    """Check the displayed low-order coefficients of t symbolically, and the
    crude cubic floor 12 a4 >= -431 Delta^3 on the integer degree grid."""
    t = t_series(4)
    expected = expected_t_coefficients()
    a4_scaled = t.coefficient(4) * 12
    checks = {
        "a0_zero": t.coefficient(0).is_zero,
        "a1": t.coefficient(1) == expected[1],
        "a2": t.coefficient(2) == expected[2],
        "a3": t.coefficient(3) == expected[3],
        "twelve_a4": a4_scaled == expected[48],
    }
    floor_ok = True
    worst = None
    for delta in range(1, max_delta + 1):
        lo = min(
            a4_scaled.evaluate({"d_u": du, "d_v": dv})
            for du in range(1, delta + 1)
            for dv in range(1, du + 1)
        )
        if lo < -431 * delta ** 3:
            floor_ok = False
        if worst is None or lo < worst:
            worst = lo
    checks["a4_cubic_floor"] = floor_ok
    return {
        "ok": all(checks.values()),
        "checks": checks,
        "coefficients": {f"a{k}": str(t.coefficient(k)) for k in range(1, 5)},
    }


def tprime_series(order: int = 4) -> MultiSeries:
    """g(d_w - d_uw) - g(d_w) as a series in the fugacity."""
    dw = MultiPoly.variable(TPRIME_VARS, "d_w")
    duw = MultiPoly.variable(TPRIME_VARS, "d_uw")
    return g_series(dw - duw, TPRIME_VARS, order) - g_series(dw, TPRIME_VARS, order)


def verify_tprime_coefficients(max_degree: int = 12) -> dict:
    """Check the displayed coefficients of the second-neighborhood correction
    term, the monotonicity of its quartic coefficient in the codegree, its
    floor of 11/8, and the codegree relaxation used downstream."""
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
        "a0_a1_zero": tp.coefficient(0).is_zero and tp.coefficient(1).is_zero,
        "a2": tp.coefficient(2) == a2,
        "a3": tp.coefficient(3) == a3,
        "a4": tp.coefficient(4) == a4,
        "a4_derivative": deriv == deriv_expected,
    }

    grid_min = min(
        a4.evaluate({"d_w": w, "d_uw": c})
        for w in range(1, max_degree + 1)
        for c in range(1, w + 1)
    )
    checks["a4_floor"] = grid_min >= Fraction(11, 8)

    # Truncation relaxation: dropping the codegree square term keeps a lower
    # bound exactly when d_uw >= 1.
    relaxed_gap = a3 - (-(dw * duw * 3))  # coefficient gap at the cubic term
    checks["relaxation_identity"] = relaxed_gap == duw * (duw - 1) * Fraction(3, 2)
    checks["relaxation_grid"] = all(
        relaxed_gap.evaluate({"d_w": w, "d_uw": c}) >= 0
        for w in range(1, max_degree + 1)
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
    checks = {f"order{k}": s.coefficient(k) == expected[k] for k in (1, 2, 3)}
    checks["order0"] = s.coefficient(0).is_zero
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
    nd = g.neighborhood_data(u)
    c1 = c2 = c3 = Fraction(0)
    for v in bits_of(nd.open_mask):
        dv = g.degree(v)
        c1 += 1
        c2 -= dv
        c3 += Fraction(3 * dv * dv - 3 * dv + 2, 2)
    for w, duw in nd.codegrees.items():
        dw = g.degree(w)
        c2 -= duw
        c3 += 3 * dw * duw
    return Poly([0, c1, c2, c3])


def _yu_rewritten(g: Graph, u: int) -> Poly:
    """The same series after the triangle-free edge-count identity folds the
    codegree sum into the neighbor degrees."""
    du = g.degree(u)
    sum_dv = sum(g.degree(v) for v in bits_of(g.adj[u]))
    c3 = sum(
        Fraction(3 * g.degree(v) ** 2 - 3 * g.degree(v) + 2, 2) for v in bits_of(g.adj[u])
    ) + 3 * sum(g.degree(w) * duw for w, duw in g.neighborhood_data(u).codegrees.items())
    return Poly([0, du, du - 2 * sum_dv, c3])


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
    on |y| <= 1/2."""
    if not g.is_triangle_free():
        raise ValueError("b-coefficient extraction requires a triangle-free graph")
    if g.n == 0 or min(g.degrees()) < 1:
        raise ValueError("b-coefficient extraction requires minimum degree one")
    delta = g.max_degree
    total = Poly()
    rewrite_ok = True
    for u in range(g.n):
        xu = _xu_poly(g, u, delta)
        yu = _yu_poly(g, u)
        if _yu_rewritten(g, u) != yu:
            rewrite_ok = False
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
        "edge_count_rewrite": rewrite_ok,
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
