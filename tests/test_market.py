import math
import re

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import growth_frictions as gf
from growth_frictions.market import (buys, check_deltas, cost_terms, edge_slopes,
                                     generator_coefficients)

# frozen with 50-digit arithmetic
LN_1P5 = 0.40546510810816438
GAMMA_HALF_HALF = -0.010065510245198305   # Gamma(0.5, 0.5), delta=0.01, gamma=0.003
BRANCH_JUMP_HALF = 3.0303099176029132e-05  # Gamma(x,x+)-Gamma(x,x-) limit at x=0.5
WF_HALF_TO_06 = 0.99870233579556798       # wealth factor 0.5 -> 0.6, delta=1e-3, gamma=3e-3
LOG_WF_HALF_TO_06 = -0.0012985068997283256


def test_merton_fraction_examples():
    assert gf.merton_fraction(gf.MarketParams(r=0.0, mu=0.096, sigma=0.4)) == pytest.approx(0.6, abs=1e-15)
    assert gf.merton_fraction(gf.MarketParams(r=0.02, mu=0.10, sigma=0.4)) == pytest.approx(0.5, abs=1e-15)


def test_merton_fraction_out_of_range_rejected():
    with pytest.raises(gf.ParameterError, match="sigma"):
        gf.MarketParams(r=0.0, mu=0.1, sigma=0.0)
    with pytest.raises(gf.ParameterError):
        gf.MarketParams(r=0.0, mu=0.16, sigma=0.4)  # hhat = 1
    with pytest.raises(gf.ParameterError):
        gf.MarketParams(r=0.1, mu=0.1, sigma=0.4)   # hhat = 0


@pytest.mark.parametrize("sigma", [1e-170, 5e-324], ids=["square-underflows", "subnormal"])
def test_a_sigma_whose_square_underflows_is_named(sigma):
    # sigma > 0, but sigma**2 is 0.0: the Merton fraction would divide by zero
    with pytest.raises(gf.ParameterError, match=r"^sigma\*\*2 > 0$"):
        gf.MarketParams(r=0.0, mu=0.1, sigma=sigma)


def test_cost_params_invariants():
    gf.CostParams(delta=0.0, gamma=0.0)
    with pytest.raises(gf.ParameterError, match="gamma < 1 - delta"):
        gf.CostParams(delta=0.01, gamma=0.999)
    with pytest.raises(gf.ParameterError):
        gf.CostParams(delta=1.0, gamma=0.0)
    with pytest.raises(gf.ParameterError):
        gf.CostParams(delta=0.1, gamma=-0.01)


def test_negative_gamma_is_named():
    with pytest.raises(gf.ParameterError, match="^gamma >= 0$"):
        gf.CostParams(delta=0.0, gamma=-0.1)


@pytest.mark.parametrize("deltas", [[np.nan], [], [1e-2, 1e-2], [1e-2, np.nan], [0.998]],
                         ids=["nan", "empty", "repeated", "trailing-nan", "above-1-gamma"])
def test_check_deltas_rejects_a_grid_outside_its_rule(deltas):
    with pytest.raises(ValueError, match=r"^deltas must be one or more values in \(0, 1 - gamma\)"):
        check_deltas(deltas, 0.003)
    assert check_deltas((1e-2, 1e-3), 0.003) == [1e-2, 1e-3]


def test_growth_integrand_fig2_values(mp):
    assert gf.growth_integrand(mp, 0.0) == 0.0
    assert gf.growth_integrand(mp, 1.0) == pytest.approx(0.016, abs=1e-15)
    assert gf.growth_integrand(mp, 0.6) == pytest.approx(0.0288, abs=1e-15)
    # maximum value is sigma^2 hhat^2 / 2
    hhat = gf.merton_fraction(mp)
    assert gf.growth_integrand(mp, hhat) == pytest.approx(0.5 * mp.sigma**2 * hhat**2, abs=1e-16)


def test_growth_integrand_domain(mp):
    with pytest.raises(ValueError):
        gf.growth_integrand(mp, -0.01)
    with pytest.raises(ValueError):
        gf.growth_integrand(mp, 1.01)


@given(h1=st.floats(0.0, 1.0), h2=st.floats(0.0, 1.0))
@settings(max_examples=200, deadline=None)
def test_growth_integrand_strictly_concave(h1, h2):
    mp = gf.MarketParams(r=0.0, mu=0.096, sigma=0.4)
    if abs(h1 - h2) < 1e-6:
        return
    mid = gf.growth_integrand(mp, 0.5 * (h1 + h2))
    chord = 0.5 * (gf.growth_integrand(mp, h1) + gf.growth_integrand(mp, h2))
    assert mid > chord


def test_transform_pointwise():
    assert gf.to_centered(0.5) == 0.0
    assert gf.from_centered(0.0) == 0.5
    assert gf.to_centered(0.6) == pytest.approx(LN_1P5, abs=1e-12)
    for h in (0.01, 0.37, 0.99):
        assert gf.from_centered(gf.to_centered(h)) == pytest.approx(h, abs=1e-14)


def test_transform_rejects_endpoints():
    for h in (0.0, 1.0, -0.1, 1.1):
        with pytest.raises(ValueError):
            gf.to_centered(h)
    with pytest.raises(ValueError):
        gf.from_centered(float("inf"))


def _accepts(call):
    try:
        call()
    except ValueError:
        return False
    return True


@pytest.mark.parametrize("x", [np.nan, -np.inf, -1.0, -0.0, 0.0, 1e-9, 0.5, 1.0 - 2 ** -53,
                               1.0, 1.0 + 2 ** -52, np.inf])
def test_domain_checks_reject_exactly_their_comparisons(mp, vf, x):
    # NaN fails every comparison, so it passes each check written as
    # "reject x <= 0 or x >= 1"; only slope_g's x0 must lie inside (0, 1)
    cp = gf.CostParams(delta=1e-3, gamma=3e-3)
    inside = not (x <= 0.0 or x >= 1.0)
    on_unit = not (x < 0.0 or x > 1.0)
    checks = [
        (lambda v: gf.to_centered(v), inside),
        (lambda v: gf.growth_integrand(mp, v), on_unit),
        (lambda v: gf.trade_cost_gamma(cp, v, 0.5), on_unit),
        (lambda v: gf.trade_cost_gamma(cp, 0.5, v), on_unit),
        (lambda v: gf.wealth_factor(cp, v, 0.5), on_unit),
        (lambda v: gf.wealth_factor(cp, 0.5, v), on_unit),
        (lambda v: gf.apply_generator(mp, 0.0, 0.1, 0.1, v), on_unit),
        (lambda v: gf.slope_g(mp, v, 0.5, 0.02), inside),
        (lambda v: gf.slope_g(mp, 0.5, v, 0.02), 0.0 < x < 1.0),
        (lambda v: gf.slope_g_integral(mp, v, 0.5, 0.5, 0.02), inside),
        (lambda v: gf.slope_g_integral(mp, 0.5, v, 0.5, 0.02), inside),
        (lambda v: vf.u(v), on_unit),
    ]
    for k, (check, accepted) in enumerate(checks):
        assert _accepts(lambda: check(x)) == accepted, k
        assert _accepts(lambda: check(np.array([0.5, x]))) == accepted, k


ON_UNIT, INSIDE = "requires fractions in [0, 1]", "strictly inside (0, 1)"
FINITE = "from_centered requires finite y"
# (primitive and argument, a value just outside its domain, the message, and
# None where NaN passes, else NaN's message); apply_generator_transformed
# takes any du and ddu, so it has no row
PRIMITIVES = [
    ("growth_integrand", lambda mp, cp, vf, v: gf.growth_integrand(mp, v), 1.0 + 2 ** -52,
     "growth_integrand requires h in [0, 1]", None),
    ("to_centered", lambda mp, cp, vf, v: gf.to_centered(v), 0.0,
     "to_centered requires h " + INSIDE, None),
    ("from_centered", lambda mp, cp, vf, v: gf.from_centered(v), np.inf, FINITE, FINITE),
    ("growth_integrand_transformed", lambda mp, cp, vf, v: gf.growth_integrand_transformed(mp, v),
     -np.inf, FINITE, FINITE),
    ("trade_cost_gamma.x", lambda mp, cp, vf, v: gf.trade_cost_gamma(cp, v, 0.5), -5e-324,
     "trade_cost_gamma " + ON_UNIT, None),
    ("trade_cost_gamma.y", lambda mp, cp, vf, v: gf.trade_cost_gamma(cp, 0.5, v), 1.0 + 2 ** -52,
     "trade_cost_gamma " + ON_UNIT, None),
    ("wealth_factor.h", lambda mp, cp, vf, v: gf.wealth_factor(cp, v, 0.5), 1.0 + 2 ** -52,
     "wealth_factor " + ON_UNIT, None),
    ("wealth_factor.xi", lambda mp, cp, vf, v: gf.wealth_factor(cp, 0.5, v), -5e-324,
     "wealth_factor " + ON_UNIT, None),
    ("trade_cost_transformed.y", lambda mp, cp, vf, v: gf.trade_cost_transformed(cp, v, 0.1),
     np.inf, FINITE, FINITE),
    ("trade_cost_transformed.zeta", lambda mp, cp, vf, v: gf.trade_cost_transformed(cp, 0.1, v),
     -np.inf, FINITE, FINITE),
    ("apply_generator", lambda mp, cp, vf, v: gf.apply_generator(mp, 0.0, 0.1, 0.1, v),
     -5e-324, "apply_generator requires x in [0, 1]", None),
    ("slope_g.x", lambda mp, cp, vf, v: gf.slope_g(mp, v, 0.5, 0.02), 1.0,
     "slope_g requires x and x0 " + INSIDE, None),
    ("slope_g.x0", lambda mp, cp, vf, v: gf.slope_g(mp, 0.5, v, 0.02), 0.0,
     "slope_g requires x and x0 " + INSIDE, "slope_g requires x and x0 " + INSIDE),
    ("slope_g_dx.x", lambda mp, cp, vf, v: gf.slope_g_dx(mp, v, 0.5, 0.02), 0.0,
     "slope_g requires x and x0 " + INSIDE, None),
    ("slope_g_dx.x0", lambda mp, cp, vf, v: gf.slope_g_dx(mp, 0.5, v, 0.02), 1.0,
     "slope_g requires x and x0 " + INSIDE, "slope_g requires x and x0 " + INSIDE),
    ("slope_g_integral.x_from", lambda mp, cp, vf, v: gf.slope_g_integral(mp, v, 0.5, 0.5, 0.02),
     0.0, "slope_g_integral requires endpoints " + INSIDE, None),
    ("slope_g_integral.x_to", lambda mp, cp, vf, v: gf.slope_g_integral(mp, 0.5, v, 0.5, 0.02),
     1.0, "slope_g_integral requires endpoints " + INSIDE, None),
    ("slope_g_integral.x0", lambda mp, cp, vf, v: gf.slope_g_integral(mp, 0.4, 0.5, v, 0.02),
     1.0, "to_centered requires h " + INSIDE, None),
    ("ValueFunction.u", lambda mp, cp, vf, v: vf.u(v), -5e-324,
     "value function is defined on [0, 1]", None),
    ("ValueFunction.du", lambda mp, cp, vf, v: vf.du(v), 1.0 + 2 ** -52,
     "value function is defined on [0, 1]", None),
    ("ValueFunction.ddu", lambda mp, cp, vf, v: vf.ddu(v), -5e-324,
     "value function is defined on [0, 1]", None),
]


@pytest.mark.parametrize("call, outside, message, nan_message",
                         [row[1:] for row in PRIMITIVES], ids=[row[0] for row in PRIMITIVES])
def test_each_primitive_keeps_its_message_and_its_nan_outcome(mp, cp, vf, call, outside,
                                                              message, nan_message):
    # just outside the domain, alone or in an array, the primitive names
    # itself (slope_g_integral's x0 names to_centered); a NaN passes to the
    # formula, except where the domain is the finite reals and at slope_g's
    # anchor x0; a float in gives a float out
    assert type(call(mp, cp, vf, 0.5)) is float
    for value in (outside, np.array([0.5, outside])):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            call(mp, cp, vf, value)
    if nan_message is None:
        assert math.isnan(call(mp, cp, vf, np.nan))
    else:
        with pytest.raises(ValueError, match=f"^{re.escape(nan_message)}$"):
            call(mp, cp, vf, np.nan)


def _logistic_two_branch(y):
    # the branch-by-mask form: 1/(1 + exp(-y)) for y >= 0, exp(y)/(1 + exp(y)) below
    y = np.asarray(y, dtype=float)
    out = np.empty_like(y)
    pos = y >= 0.0
    out[pos] = 1.0 / (1.0 + np.exp(-y[pos]))
    e = np.exp(y[~pos])
    out[~pos] = e / (1.0 + e)
    return out


def test_logistic_equals_two_branch_form_at_edges():
    y = np.array([0.0, -0.0, 745.0, -745.0, 40.0, -40.0, 745.2, -745.2, 709.8, -709.8,
                  37.0, -37.0, 5e-324, -5e-324, 1e-300, -1e-300, 1e308, -1e308])
    assert np.array_equal(gf.from_centered(y).view(np.uint64),
                          _logistic_two_branch(y).view(np.uint64))
    for v in y:
        assert np.array_equal(np.float64(gf.from_centered(float(v))).view(np.uint64),
                              _logistic_two_branch(v).view(np.uint64))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=40))
def test_logistic_equals_two_branch_form(values):
    y = np.array(values)
    assert np.array_equal(gf.from_centered(y).view(np.uint64),
                          _logistic_two_branch(y).view(np.uint64))


def test_round_trip_fraction_side():
    h = np.concatenate([
        np.geomspace(1e-9, 0.5, 400),
        1.0 - np.geomspace(1e-9, 0.5, 400),
    ])
    back = gf.from_centered(gf.to_centered(h))
    assert np.max(np.abs(back - h)) <= 1e-14


def test_round_trip_centered_side():
    # 1e-14 absolute is attainable for |y| <= ~4; beyond that the fraction
    # h = phi(y) sits within half an ulp of 1 (or 0) and recovering y is
    # limited by that representation, err ~ eps/2 * (1 + e^{|y|}).
    y = np.linspace(-4.0, 4.0, 801)
    assert np.max(np.abs(gf.to_centered(gf.from_centered(y)) - y)) <= 1e-14
    y = np.linspace(-30.0, 30.0, 601)
    cond = 4.0 * np.finfo(float).eps * (2.0 + np.exp(np.abs(y)))
    err = np.abs(gf.to_centered(gf.from_centered(y)) - y)
    assert np.all(err <= np.maximum(1e-14, cond))


def test_growth_integrand_transformed(mp):
    y_hat = gf.to_centered(0.6)
    assert gf.growth_integrand_transformed(mp, y_hat) == pytest.approx(0.0288, abs=1e-15)
    assert abs(gf.growth_integrand_transformed(mp, -40.0)) <= 1e-12
    assert gf.growth_integrand_transformed(mp, 0.0) == pytest.approx(
        gf.growth_integrand(mp, 0.5), abs=1e-16)
    # strictly below the maximum away from the maximizer
    for y in (-2.0, 0.0, 1.0):
        assert gf.growth_integrand_transformed(mp, y) < 0.0288


def test_trade_cost_gamma_values():
    cp0 = gf.CostParams(delta=0.0, gamma=0.003)
    for x in (0.1, 0.5, 0.9):
        assert gf.trade_cost_gamma(cp0, x, x) == 0.0
    cp = gf.CostParams(delta=0.01, gamma=0.003)
    assert gf.trade_cost_gamma(cp, 0.5, 0.5) == pytest.approx(GAMMA_HALF_HALF, abs=1e-15)


def test_trade_cost_gamma_branch_jump():
    cp = gf.CostParams(delta=0.01, gamma=0.003)
    eps = 1e-9
    jump = gf.trade_cost_gamma(cp, 0.5, 0.5 + eps) - gf.trade_cost_gamma(cp, 0.5, 0.5 - eps)
    assert jump == pytest.approx(BRANCH_JUMP_HALF, abs=1e-12)


def test_trade_cost_gamma_domain():
    cp = gf.CostParams(delta=0.01, gamma=0.003)
    with pytest.raises(ValueError):
        gf.trade_cost_gamma(cp, -0.1, 0.5)
    with pytest.raises(ValueError):
        gf.trade_cost_gamma(cp, 0.5, 1.5)


@given(x=st.floats(0.0, 1.0), y=st.floats(0.0, 1.0),
       delta=st.floats(0.001, 0.5), gamma=st.floats(0.0, 0.4))
@settings(max_examples=200, deadline=None)
def test_trade_cost_gamma_nonpositive(x, y, delta, gamma):
    if gamma >= 1.0 - delta:
        return
    cp = gf.CostParams(delta=delta, gamma=gamma)
    assert gf.trade_cost_gamma(cp, x, y) <= 0.0


def test_wealth_factor_gamma_zero():
    cp = gf.CostParams(delta=0.05, gamma=0.0)
    for h in (0.0, 0.3, 1.0):
        for xi in (0.0, 0.6, 1.0):
            assert gf.wealth_factor(cp, h, xi) == pytest.approx(0.95, abs=1e-16)


def test_wealth_factor_branch_seam():
    delta, gamma = 0.02, 0.003
    cp = gf.CostParams(delta=delta, gamma=gamma)
    h = 0.4
    xi = h / (1.0 - delta)
    buy_branch = (1 - delta + gamma * h) / (1 + gamma * xi)
    sell_branch = (1 - delta - gamma * h) / (1 - gamma * xi)
    assert buy_branch == pytest.approx(1 - delta, abs=1e-15)
    assert sell_branch == pytest.approx(1 - delta, abs=1e-15)
    assert gf.wealth_factor(cp, h, xi) == pytest.approx(1 - delta, abs=1e-15)


def test_wealth_factor_frozen_value():
    cp = gf.CostParams(delta=0.001, gamma=0.003)
    assert gf.wealth_factor(cp, 0.5, 0.6) == pytest.approx(WF_HALF_TO_06, abs=1e-15)


@given(h=st.floats(0.0, 1.0), xi=st.floats(0.0, 1.0),
       delta=st.one_of(st.just(0.0), st.floats(1e-12, 0.5)),
       gamma=st.one_of(st.just(0.0), st.floats(1e-12, 0.4)))
@settings(max_examples=300, deadline=None)
# the exact loss here is about 6.6e-17, below float64 resolution at 1
@example(h=0.43585223933583894, xi=0.43591842685882976, delta=0.0, gamma=1e-12)
def test_wealth_factor_range(h, xi, delta, gamma):
    if gamma >= 1.0 - delta:
        return
    cp = gf.CostParams(delta=delta, gamma=gamma)
    w = gf.wealth_factor(cp, h, xi)
    assert 0.0 < w <= 1.0
    if delta > 0.0:
        assert w < 1.0
    if delta == 0.0 and gamma * abs(xi - h) > 1e-15:
        assert w < 1.0
    if delta == 0.0 and xi == h:
        assert w == 1.0


def test_trade_cost_transformed_identity_cases():
    cp0 = gf.CostParams(delta=0.0, gamma=0.003)
    for y in (-1.0, 0.0, 2.0):
        assert gf.trade_cost_transformed(cp0, y, 0.0) == 0.0
    cp = gf.CostParams(delta=0.01, gamma=0.003)
    y, zeta = 0.2, -0.5
    direct = math.log(gf.wealth_factor(cp, gf.from_centered(y), gf.from_centered(y + zeta)))
    assert gf.trade_cost_transformed(cp, y, zeta) == pytest.approx(direct, abs=1e-12)


def test_trade_cost_transformed_frozen_value():
    cp = gf.CostParams(delta=0.001, gamma=0.003)
    assert gf.trade_cost_transformed(cp, 0.0, LN_1P5) == pytest.approx(
        LOG_WF_HALF_TO_06, abs=1e-12)


def test_trade_cost_transformed_grid_identity():
    cp = gf.CostParams(delta=0.01, gamma=0.003)
    y = np.linspace(-3, 3, 41)
    zeta = np.linspace(-2, 2, 31)
    yy, zz = np.meshgrid(y, zeta)
    lhs = gf.trade_cost_transformed(cp, yy, zz)
    rhs = np.log(gf.wealth_factor(cp, gf.from_centered(yy), gf.from_centered(yy + zz)))
    assert np.max(np.abs(lhs - rhs)) <= 1e-12


def test_apply_generator_degenerate_cases(mp):
    for x in (0.0, 1.0):
        assert gf.apply_generator(mp, 5.0, 3.0, -7.0, x) == 0.0
    assert gf.apply_generator(mp, 1.0, 0.0, 0.0, 0.37) == 0.0
    # drift coefficient vanishes exactly at the Merton fraction
    assert abs(gf.apply_generator(mp, 0.0, 1.0, 0.0, 0.6)) <= 1e-16


def test_apply_generator_transformed_cases():
    mp_half = gf.MarketParams(r=0.02, mu=0.10, sigma=0.4)  # hhat = 1/2
    assert gf.apply_generator_transformed(mp_half, 0.0, 0.0) == 0.0
    assert abs(gf.apply_generator_transformed(mp_half, 1.0, 0.0)) <= 1e-16


def test_generator_chain_rule(mp):
    u = lambda x: math.sin(3.0 * x) + x * x
    du = lambda x: 3.0 * math.cos(3.0 * x) + 2.0 * x
    ddu = lambda x: -9.0 * math.sin(3.0 * x) + 2.0
    y = 0.3
    x = gf.from_centered(y)
    step = 1e-5
    comp = lambda t: u(gf.from_centered(t))
    dv = (comp(y + step) - comp(y - step)) / (2 * step)
    ddv = (comp(y + step) - 2 * comp(y) + comp(y - step)) / step**2
    lhs = gf.apply_generator_transformed(mp, dv, ddv)
    rhs = gf.apply_generator(mp, u(x), du(x), ddu(x), x)
    assert lhs == pytest.approx(rhs, abs=1e-6)


# the two-branch formulas of the trade cost, written out as the reference
def _explicit_trade_cost_gamma(cp, x, y):
    num = np.where(y > x, 1.0 - cp.delta + cp.gamma * x, 1.0 - cp.delta - cp.gamma * x)
    den = np.where(y > x, 1.0 + cp.gamma * y, 1.0 - cp.gamma * y)
    return float(np.log(num) - np.log(den))


def _explicit_wealth_factor(cp, h, xi):
    return float(np.where(xi * (1.0 - cp.delta) >= h,
                          (1.0 - cp.delta + cp.gamma * h) / (1.0 + cp.gamma * xi),
                          (1.0 - cp.delta - cp.gamma * h) / (1.0 - cp.gamma * xi)))


unit = st.floats(0.0, 1.0)
fixed_costs = st.one_of(st.just(0.0), st.floats(1e-12, 0.5))
proportional_costs = st.one_of(st.just(0.0), st.floats(1e-12, 0.4))


@given(x=unit, y=unit, delta=fixed_costs, gamma=proportional_costs)
@settings(max_examples=300, deadline=None)
def test_cost_terms_rebuild_the_two_branch_formulas_bit_for_bit(x, y, delta, gamma):
    assume(gamma < 1.0 - delta)
    cp = gf.CostParams(delta=delta, gamma=gamma)
    assert cost_terms(cp, x, y, 1.0) == (1.0 - delta + gamma * x, 1.0 + gamma * y)
    assert cost_terms(cp, x, y, -1.0) == (1.0 - delta - gamma * x, 1.0 - gamma * y)
    assert gf.trade_cost_gamma(cp, x, y) == _explicit_trade_cost_gamma(cp, x, y)
    assert gf.wealth_factor(cp, x, y) == _explicit_wealth_factor(cp, x, y)


@given(lo=st.floats(0.01, 0.99), hi=st.floats(0.01, 0.99), delta=fixed_costs,
       gamma=st.floats(1e-4, 0.4))
@settings(max_examples=200, deadline=None)
def test_edge_slopes_are_the_x_slopes_of_the_trade_cost(lo, hi, delta, gamma):
    assume(gamma < 1.0 - delta)
    cp, step = gf.CostParams(delta=delta, gamma=gamma), 1e-6

    def dx(x, y):  # central difference on one branch: y = 1 buys, y = 0 sells
        ends = gf.trade_cost_gamma(cp, np.array([x - step, x + step]), y)
        return (ends[1] - ends[0]) / (2 * step)

    assert edge_slopes(gamma, delta, lo, hi) == pytest.approx([dx(lo, 1.0), dx(hi, 0.0)],
                                                              rel=0.0, abs=1e-8)
    # at delta = 0 they are the target slopes, minus the y-slopes at the targets
    targets = edge_slopes(gamma, 0.0, lo, hi)
    assert targets.tolist() == [gamma / (1.0 + gamma * lo), -gamma / (1.0 - gamma * hi)]
    dy = [np.diff(gf.trade_cost_gamma(cp, x, np.array([y - step, y + step])))[0] / (2 * step)
          for x, y in ((0.0, lo), (1.0, hi))]
    assert targets == pytest.approx([-d for d in dy], rel=0.0, abs=1e-8)


@given(x=unit, hhat=st.floats(0.01, 0.99), sigma=st.floats(0.05, 2.0), r=st.floats(0.0, 0.1))
@settings(max_examples=200, deadline=None)
def test_generator_coefficients_are_the_generator_at_unit_derivatives(x, hhat, sigma, r):
    mp = gf.MarketParams(r=r, mu=r + hhat * sigma * sigma, sigma=sigma)
    drift, half = generator_coefficients(mp, x)
    assert gf.apply_generator(mp, 0.0, 1.0, 0.0, x) == drift
    assert gf.apply_generator(mp, 0.0, 0.0, 1.0, x) == half


@given(h=unit, xi=unit, delta=fixed_costs, gamma=proportional_costs,
       wealth=st.floats(1e-3, 1e3))
@settings(max_examples=300, deadline=None)
@example(h=0.3, xi=0.6, delta=1e-3, gamma=3e-3, wealth=1.0)  # buys
@example(h=0.6, xi=0.3, delta=1e-3, gamma=3e-3, wealth=1.0)  # sells
def test_the_change_in_the_stock_holding_is_the_rebalance_volume(h, xi, delta, gamma, wealth):
    # V_after xi - V_before h is V_before (xi (1 - delta) - h)/(1 +- gamma xi)
    # on either branch of wealth_factor, + when it buys
    assume(gamma < 1.0 - delta)
    cp = gf.CostParams(delta=delta, gamma=gamma)
    after = wealth * gf.wealth_factor(cp, h, xi)
    side = 1.0 if buys(cp, h, xi) else -1.0
    volume = wealth * (xi * (1.0 - delta) - h) / (1.0 + side * gamma * xi)
    assert abs((after * xi - wealth * h) - volume) <= 1e-13 * wealth
