"""Multivariate polynomials, truncated series, and the symbolic reports."""

import hashlib
import re
from fractions import Fraction as F

import pytest

from hardcore_lab import series
from hardcore_lab.graphs import complete_bipartite, cycle_graph, generate, petersen_graph
from hardcore_lab.intervals import log1p_interval, lambert_w_interval
from hardcore_lab.multipoly import MultiPoly
from hardcore_lab.sampler import SplitMix64
from hardcore_lab.series import (
    b3_closed_form,
    coefficient,
    compose_scalar,
    divide,
    g_series,
    lambert_over_x_coefficients,
    log1p_coefficients,
    series_of,
    shift_down,
    t_series,
    tprime_series,
    truncate,
    verify_b_coefficients,
    verify_fidentity,
    verify_g_cubic,
    verify_t_coefficients,
    verify_tprime_coefficients,
)

V = ("d_u", "d_v")


def _du_dv():
    return MultiPoly.variable(V, "d_u"), MultiPoly.variable(V, "d_v")


def test_multipoly_square_expansion():
    du, dv = _du_dv()
    assert (du - dv) ** 2 == du * du - 2 * du * dv + dv * dv


def test_multipoly_substitution():
    du, dv = _du_dv()
    p = 18 * du * du * dv + 96 * du * dv * dv
    assert p.evaluate({"d_u": 3, "d_v": 1}) == 450
    assert p.evaluate({"d_u": F(1, 2), "d_v": -2}) == 18 * F(1, 4) * -2 + 96 * F(1, 2) * 4
    # A variable that no term uses may stay unset.
    assert (72 * dv + 192 * dv * dv).evaluate({"d_v": 2}) == 912
    assert MultiPoly.constant(V, 7).evaluate({}) == 7
    with pytest.raises(ValueError, match="undeclared variable 'd_z'"):
        p.evaluate({"d_u": 3, "d_v": 1, "d_z": 1})
    with pytest.raises(ValueError, match="variable 'd_v' is unset"):
        p.evaluate({"d_u": 2})


def test_multipoly_partial_derivative():
    du, dv = _du_dv()
    p = du ** 3 * dv + 2 * du
    assert p.partial_derivative("d_u") == 3 * du * du * dv + 2
    # a term without the variable drops out
    assert (du + dv * dv).partial_derivative("d_u") == 1


def test_multipoly_equality_with_a_rational_or_a_foreign_object():
    du, _ = _du_dv()
    assert MultiPoly.constant(V, 3) == 3 and MultiPoly.constant(V, F(1, 2)) == F(1, 2)
    assert du != 1 and MultiPoly(V) == 0
    assert not du == "d_u" and du != object()


DU, X = MultiPoly.variable(V, "d_u"), MultiPoly.variable(("x",), "x")


@pytest.mark.parametrize("call, error, message", [
    (lambda: MultiPoly(V, {(1,): 1}), ValueError,
     "exponent vector length does not match variables"),
    (lambda: MultiPoly.variable(V, "d_z"), ValueError, "undeclared variable 'd_z'"),
    (lambda: DU.partial_derivative("d_z"), ValueError, "undeclared variable 'd_z'"),
    (lambda: DU.constant_value(), ValueError, "not a constant: d_u"),
    (lambda: DU + X, ValueError, "variable mismatch: ('d_u', 'd_v') vs ('x',)"),
    (lambda: DU + object(), TypeError,
     "unsupported operand type(s) for +: 'MultiPoly' and 'object'"),
    (lambda: DU - object(), TypeError,
     "unsupported operand type(s) for -: 'MultiPoly' and 'object'"),
    (lambda: DU * object(), TypeError,
     "unsupported operand type(s) for *: 'MultiPoly' and 'object'"),
    (lambda: DU ** -1, ValueError, "negative power"),
    (lambda: series_of(V, [1, X]), ValueError, "coefficient variable mismatch"),
    (lambda: g_series(X, ("d",)), ValueError,
     "degree polynomial must use the declared variables"),
], ids=["exponent_length", "undeclared_variable", "undeclared_derivative", "not_constant",
        "variable_mismatch", "add_foreign", "sub_foreign", "mul_foreign", "negative_power",
        "series_coefficient_mismatch", "g_series_degree_mismatch"])
def test_multipoly_and_series_refusals(call, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call()


def test_multipoly_graded_lex_str():
    du, dv = _du_dv()
    p = dv + du + du * du
    assert str(p) == "d_u^2 + d_u + d_v"


def test_series_log_coefficients():
    assert log1p_coefficients(4) == [0, 1, F(-1, 2), F(1, 3), F(-1, 4)]
    # exp(log(1 + t)) = 1 + t: every coefficient past the linear one cancels.
    exp = [F(1)]
    for n in range(1, 7):
        exp.append(exp[-1] / n)
    log = series_of(("d",), log1p_coefficients(6))
    assert compose_scalar(log, exp, 6) == series_of(("d",), [1, 1])


def test_series_geometric_division():
    one = series_of(("d",), [1])
    den = series_of(("d",), [1, -1])
    inv = divide(one, den, 3)
    assert inv == series_of(("d",), [1, 1, 1, 1])
    # a symbolic quotient times its divisor gives back the dividend
    d = MultiPoly.variable(("d",), "d")
    num = series_of(("d",), [d, 1, d * d, 0, 3])
    den = series_of(("d",), [2, d, -d, F(1, 3), d + 1])
    assert truncate(divide(num, den, 4) * den, 4) == num


def test_series_division_precondition():
    vars = ("d",)
    num = series_of(vars, [1])
    d = MultiPoly.variable(vars, "d")
    for bad in (series_of(vars, [d, d]), series_of(vars, [0, 1])):
        with pytest.raises(ValueError):
            divide(num, bad, 3)


def test_series_compose_precondition():
    s = series_of(("d",), [1])
    with pytest.raises(ValueError):
        compose_scalar(s, [F(1), F(1)], 3)


def test_series_shift_down():
    vars = ("d",)
    s = series_of(vars, [0, 0, 1, 2])
    t = shift_down(s, 2)
    assert t == series_of(vars, [1, 2])
    assert coefficient(t, 0).constant_value() == 1
    with pytest.raises(ValueError):
        shift_down(s, 3)


def test_series_ring_identities():
    rng = SplitMix64(88)
    vars = ("a", "b")
    def rand_poly():
        terms = {}
        for _ in range(3):
            e = (rng.randrange(3), rng.randrange(3))
            terms[e] = F(rng.randrange(9) - 4)
        return MultiPoly(vars, terms)
    for _ in range(20):
        s1, s2, s3 = (series_of(vars, [rand_poly() for _ in range(5)]) for _ in range(3))
        assert truncate((s1 + s2) * s3, 4) == truncate(s1 * s3, 4) + truncate(s2 * s3, 4)
        assert truncate(s1 * s2, 4) == truncate(s2 * s1, 4)
        assert (s1 - s1).is_zero
        # the truncated product is the Cauchy product up to t^4, and nothing above
        product = truncate(s1 * s2, 4)
        for k in range(9):
            cauchy = sum((coefficient(s1, i) * coefficient(s2, k - i) for i in range(k + 1)),
                         MultiPoly(vars))
            assert coefficient(product, k) == (cauchy if k <= 4 else MultiPoly(vars))


# sha256 of "k: <coefficient>" lines, recorded with the MultiSeries class that
# the module functions replaced; the g_series entries run orders 0 to 8.
SERIES_PINS = {
    "g_series d=0": "0e7426ea44f412b5484c9bc7d2f8df9418e520704d5da960f781457a50f4acc5",
    "g_series d=1": "1f53bbf3233ffe7b85715e4cbf2ed46550abf712fd12d069a6ab3c37df1cbd8e",
    "g_series d=3": "cd7a4008deec2c3c95665d2804a792e8788ac53309ab4ca3af211819fa603379",
    "g_series d=d": "0b94bbe4b96af44f60ab17ad1c8d066f5920c73a18e67b7d5a75b4de45c2ae56",
    "g_series d=d - 1": "1da14b7af1dcc4bd39f549665787fef69157554a55da227c4cda6e4ebb0854e8",
    "t_series(4)": "7706d14fe1fca1f07102bfbf9a20f7dbb28062d9ce2347de0a2a3de44eb628f6",
    "tprime_series(4)": "cb4ac35c0e6874193d49ede3e4975318296f3372473e83a067241d6611e6df8e",
}


def _coefficient_lines(s, order):
    return "".join(f"{k}: {coefficient(s, k)}\n" for k in range(order + 1))


def test_series_coefficients_match_their_pins():
    d = MultiPoly.variable(("d",), "d")
    texts = {
        f"g_series d={label}": "".join(
            _coefficient_lines(g_series(degree, ("d",), order), order) for order in range(9))
        for label, degree in (("0", 0), ("1", 1), ("3", 3), ("d", d), ("d - 1", d - 1))
    }
    texts["t_series(4)"] = _coefficient_lines(t_series(4), 4)
    texts["tprime_series(4)"] = _coefficient_lines(tprime_series(4), 4)
    digests = {name: hashlib.sha256(text.encode()).hexdigest() for name, text in texts.items()}
    assert digests == SERIES_PINS


def test_series_order_cap():
    for order in (-1, 9):
        with pytest.raises(ValueError):
            g_series(1, ("d",), order)


def test_lambert_series_head():
    # W(x)/x = 1 - x + (3/2) x^2 - (8/3) x^3 + ...
    got = lambert_over_x_coefficients(3)
    assert got == [F(1), F(-1), F(3, 2), F(-8, 3)]


def test_g_series_numeric_cross_validation():
    # Substituting integer degrees and evaluating the truncation at a small
    # fugacity must land inside the certified numeric enclosure, up to the
    # truncation's own tail allowance.
    lam = F(1, 100)
    tol = F(1, 10**20)
    for d in (1, 2, 3, 4):
        s = g_series(d, ("d",), 8)
        value = sum(
            coefficient(s, k).constant_value() * lam ** k for k in range(9)
        )
        log_enc = log1p_interval(lam, tol)
        arg_lo, arg_hi = d * log_enc.lo, d * log_enc.hi
        w_lo = lambert_w_interval(arg_lo, tol)
        w_hi = lambert_w_interval(arg_hi, tol)
        g_lo = lam / (1 + lam) * w_lo.lo / arg_hi
        g_hi = lam / (1 + lam) * w_hi.hi / arg_lo
        slack = F(2 * (5 * d) ** 9, 100 ** 9)  # crude tail bound at order 8
        assert g_lo - slack <= value <= g_hi + slack


def test_g_series_at_degree_zero_is_fugacity_weight():
    s = g_series(0, ("d",), 6)
    # t/(1+t) = t - t^2 + t^3 - ...
    assert s == series_of(("d",), [0, 1, -1, 1, -1, 1, -1])


def test_t_series_report():
    rep = verify_t_coefficients()
    assert rep["ok"], rep["checks"]


def _with_twelve_a4(monkeypatch, twelve_a4):
    """Make verify_t_coefficients read a t series whose t^4 coefficient is
    twelve_a4 / 12, the lower coefficients unchanged."""
    low = truncate(t_series(4), 3)
    top = series_of(V, [0, 0, 0, 0, twelve_a4 * F(1, 12)])
    monkeypatch.setattr(series, "t_series", lambda order: low + top)
    return verify_t_coefficients()["checks"]["a4_cubic_floor"]


def test_t_series_cubic_floor_matches_the_per_delta_minima(monkeypatch):
    # The report decides 12 a4 >= -431 Delta^3 in one pass over the triangle
    # 1 <= d_v <= d_u <= DEGREE_GRID.  Reference: one minimum per Delta over
    # its whole sub-triangle.
    du, _ = _du_dv()
    twelve_a4 = coefficient(t_series(4), 4) * 12
    minima = [min(twelve_a4.evaluate({"d_u": a, "d_v": b})
                  for a in range(1, delta + 1) for b in range(1, a + 1))
              for delta in range(1, series.DEGREE_GRID + 1)]
    slack = min(m + 431 * delta ** 3 for delta, m in enumerate(minima, 1))
    assert slack > 0 and verify_t_coefficients()["checks"]["a4_cubic_floor"]
    # A constant shift moves every minimum alike: the verdict turns exactly
    # where the tightest per-Delta minimum meets its floor.
    one = MultiPoly.constant(V, 1)
    assert _with_twelve_a4(monkeypatch, twelve_a4 - slack * one)
    assert not _with_twelve_a4(monkeypatch, twelve_a4 - (slack + F(1, 2)) * one)
    # -431 d_u^3 + (d_u - k)^2 + c has minimum -431 Delta^3 + c at Delta = k
    # and at least -431 Delta^3 + 1 + c at every other Delta, so at c = -1/2
    # the floor fails at Delta = k alone.
    for k in range(1, series.DEGREE_GRID + 1):
        probe = -431 * du ** 3 + (du - k) ** 2
        assert _with_twelve_a4(monkeypatch, probe), k
        assert not _with_twelve_a4(monkeypatch, probe - F(1, 2) * one), k


def test_t_series_leading_coefficients():
    t = t_series(2)
    du, dv = _du_dv()
    assert coefficient(t, 1) == MultiPoly.constant(V, 1)
    assert coefficient(t, 2) == du + 1 - 3 * dv


def test_tprime_series_report():
    rep = verify_tprime_coefficients()
    assert rep["ok"], rep["checks"]
    assert rep["a4_grid_min"] >= F(11, 8)


def test_tprime_low_orders():
    tp = tprime_series(3)
    duw = MultiPoly.variable(("d_w", "d_uw"), "d_uw")
    assert coefficient(tp, 2) == duw


def test_g_cubic_report():
    assert verify_g_cubic()["ok"]


def test_fidentity_symbolic_and_spot():
    rep = verify_fidentity()
    assert rep["ok"]

    # spot check: d_u = 2, d_v = 1, lam = 1/3
    def f(d, lam):
        return lam / (1 + (d + 1) * lam)

    lam = F(1, 3)
    lhs = (f(0, lam) - f(1, lam)) / f(2, lam)
    rhs = f(0, lam) + (2 - 1) * f(0, lam) * f(1, lam)
    assert lhs == rhs

    # equal degrees: the correction term vanishes
    for d in (1, 2, 5):
        lhs = (f(d - 1, lam) - f(d, lam)) / f(d, lam)
        assert lhs == f(d - 1, lam)


def test_b_coefficients_on_named_graphs():
    expected = {
        "cycle:5": F(-1),
        "petersen": F(-3, 2),
        "kab:1,2": F(-16, 3),
        "kab:3,3": F(-3, 2),
    }
    for spec, b3 in expected.items():
        g = generate(spec)
        rep = verify_b_coefficients(g)
        assert rep["ok"], (spec, rep["checks"])
        assert rep["b3_formula"] == b3
        assert rep["b"][3] == b3


def test_b3_closed_form_values():
    assert b3_closed_form(cycle_graph(5)) == F(-1)
    assert b3_closed_form(petersen_graph()) == F(-3, 2)
    assert b3_closed_form(complete_bipartite(3, 3)) == F(-3, 2)


def test_b_coefficients_preconditions():
    with pytest.raises(ValueError):
        verify_b_coefficients(generate("kn:3"))
    with pytest.raises(ValueError):
        verify_b_coefficients(generate("empty:3"))


def test_b_coefficients_random_triangle_free():
    from hardcore_lab.corpus import random_triangle_free_graph
    rng = SplitMix64(44)
    checked = 0
    while checked < 10:
        g = random_triangle_free_graph(4 + rng.randrange(5), rng)
        if min(g.degrees()) < 1:
            continue
        rep = verify_b_coefficients(g)
        assert rep["ok"], rep["checks"]
        checked += 1
