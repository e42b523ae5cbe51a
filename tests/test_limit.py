import dataclasses

import numpy as np
import pytest

import growth_frictions as gf
from growth_frictions import _slope, limit
from growth_frictions.market import EPS
from asymptotics_reference import growth_loss, half_width
from newton_reference import column_jacobian, is_stacked, record_residual

GAMMA = 0.003


def test_residuals_vanish_at_solution(mp, lim):
    res = gf.residual_system_limit(mp, GAMMA, lim.candidate)
    assert np.max(np.abs(res)) <= 1e-10
    assert lim.residual_norm <= 1e-10


def test_residuals_react_to_perturbation(mp, lim):
    cand = dataclasses.replace(lim.candidate, B=lim.candidate.B + 1e-3)
    res = gf.residual_system_limit(mp, GAMMA, cand)
    assert abs(res[1]) + abs(res[3]) > 1e-6


@pytest.fixture(scope="module")
def cold_points(mp):
    """The fig2 limit root and every point a cold solve evaluates one at a time."""
    sol, accepted = record_residual(limit, "residual_system_limit",
                                    lambda: gf.solve_limit(mp, GAMMA))
    return [sol.candidate] + [c for c in accepted if not is_stacked(c)]


def test_stacked_residuals_equal_single_calls(mp, cold_points):
    block = np.column_stack([c.as_vector() for c in cold_points])
    stacked = gf.residual_system_limit(mp, GAMMA, gf.LimitCandidate.from_vector(block))
    single = np.column_stack([gf.residual_system_limit(mp, GAMMA, c) for c in cold_points])
    assert np.array_equal(stacked, single)


def test_newton_jacobian_equals_column_by_column(mp, cold_points):
    def residual(v):
        return gf.residual_system_limit(mp, GAMMA, gf.LimitCandidate.from_vector(v))

    for cand in cold_points:
        v = cand.as_vector()
        fv = residual(v)
        f, jac = _slope._priced(residual, v)
        assert np.array_equal(f, fv) and np.array_equal(jac, column_jacobian(residual, v, fv))


def test_delta_limit_consistency(mp, sweep, lim):
    # boundaries solved at delta = 1e-6 nearly satisfy the limit system
    row = sweep.rows[-1]
    assert row.delta == pytest.approx(1e-6)
    cand = gf.LimitCandidate(l0=row.l, x0=lim.candidate.x0,
                             A=0.5 * (row.a + row.alpha), B=0.5 * (row.beta + row.b))
    res = gf.residual_system_limit(mp, GAMMA, cand)
    assert np.max(np.abs(res)) < 1e-2


def test_solution_bounds(mp, lim):
    c = lim.candidate
    f1 = gf.growth_integrand(mp, 1.0)
    fhat = gf.growth_integrand(mp, gf.merton_fraction(mp))
    assert f1 < c.l0 < fhat
    assert 0 < c.A < c.x0 < c.B < 1


def test_sweep_boundaries_approach_limits(sweep, lim):
    row = sweep.rows[-1]
    assert abs(row.a - lim.candidate.A) < 1e-2
    assert abs(row.b - lim.candidate.B) < 1e-2


def test_limit_dominates_every_delta(sweep, lim):
    for row in sweep.rows:
        assert row.l < lim.candidate.l0


def test_multi_start_agreement(mp, lim):
    rng = np.random.default_rng(11)
    base = lim.candidate
    results = []
    for _ in range(5):
        init = gf.LimitCandidate(
            l0=base.l0 * (1 + 0.1 * rng.uniform(-1, 1)),
            x0=base.x0 + 0.05 * rng.uniform(-1, 1),
            A=base.A + 0.05 * rng.uniform(-1, 1),
            B=base.B + 0.05 * rng.uniform(-1, 1),
        )
        results.append(gf.solve_limit(mp, GAMMA, init=init).candidate.as_vector())
    results = np.array(results)
    assert np.max(results.max(axis=0) - results.min(axis=0)) <= 1e-8


def test_gamma_zero_rejected(mp):
    with pytest.raises(gf.ParameterDegeneracy):
        gf.solve_limit(mp, 0.0)
    # an inadmissible gamma is named before any Newton work
    with pytest.raises(gf.ParameterError, match="gamma < 1 - delta"):
        gf.solve_limit(mp, 1.5)


def test_hjb_verification_passes(mp, lim):
    report = gf.verify_hjb_limit(mp, GAMMA, lim, 2001, tol=1e-6)
    assert report.passed
    assert report.second_deriv_mismatch <= 1e-6


def test_hjb_gradient_strict_inside(mp, lim):
    value = gf.build_limit_value(mp, GAMMA, lim)
    xs = np.linspace(lim.candidate.A + 1e-6, 1 - EPS, 200)
    margin = GAMMA / (1 + GAMMA * xs) - value.du(xs)
    assert np.all(margin > 0)


def test_hjb_detects_corrupted_growth_rate(mp, lim, monkeypatch):
    # the true curve checked against a claimed l0 that is off by 1e-4
    value = gf.build_limit_value(mp, GAMMA, lim)
    corrupted = dataclasses.replace(
        lim, candidate=dataclasses.replace(lim.candidate, l0=lim.candidate.l0 + 1e-4))
    monkeypatch.setattr(limit, "build_limit_value", lambda *args: value)
    report = gf.verify_hjb_limit(mp, GAMMA, corrupted, 501, tol=1e-6)
    assert report.max_interior_residual > 5e-5
    assert not report.passed


def _trade_cost_slope(gamma, c):
    return np.array([gamma / (1 + gamma * c.A), -gamma / (1 - gamma * c.B)])


def test_rows_are_the_pasting_conditions_in_hjb_units(mp, cold_points):
    # g - s at (A, B), then g' + s^2 times half = sigma^2 x^2 (1-x)^2 / 2
    for c in cold_points:
        edges, s = np.array([c.A, c.B]), _trade_cost_slope(GAMMA, c)
        half = 0.5 * mp.sigma ** 2 * (edges * (1 - edges)) ** 2
        res = gf.residual_system_limit(mp, GAMMA, c)
        assert np.array_equal(res[:2], gf.slope_g(mp, edges, c.x0, c.l0) - s)
        second = half * (gf.slope_g_dx(mp, edges, c.x0, c.l0) + s ** 2)
        assert np.allclose(res[2:], second, rtol=1e-12, atol=1e-15 * np.max(half * s ** 2))


def test_c2_row_is_the_second_order_pasting_gap(mp, lim):
    # a claim with a large gap, the curve rebuilt from it: the C2 row is
    # max |g' + s^2| at A and B, in g' units
    c = dataclasses.replace(lim.candidate, l0=lim.candidate.l0 * 1.01)
    report = gf.verify_hjb_limit(mp, GAMMA, dataclasses.replace(lim, candidate=c), 501)
    gap = np.max(np.abs(gf.slope_g_dx(mp, np.array([c.A, c.B]), c.x0, c.l0)
                        + _trade_cost_slope(GAMMA, c) ** 2))
    assert report.second_deriv_mismatch == pytest.approx(gap, rel=1e-12)
    assert gap > limit.SECOND_ORDER_TOL and not report.passed


# claims that the true fig2 curve does not satisfy: two break the ordering
WRONG_CLAIMS = {
    "A>B": lambda c: dataclasses.replace(c, A=c.B, B=c.A),
    "x0=1.5": lambda c: dataclasses.replace(c, x0=1.5),
    "l0+1e-4": lambda c: dataclasses.replace(c, l0=c.l0 + 1e-4),
}


@pytest.mark.parametrize("claim", list(WRONG_CLAIMS))
def test_c2_row_reads_the_claim_not_the_curve(mp, lim, claim, monkeypatch):
    # the true curve checked against a wrong claim: the C2 row is the
    # claim's, nan when it is unordered and above tolerance when it is off
    value = gf.build_limit_value(mp, GAMMA, lim)
    wrong = dataclasses.replace(lim, candidate=WRONG_CLAIMS[claim](lim.candidate))
    monkeypatch.setattr(limit, "build_limit_value", lambda *args: value)
    mism = gf.verify_hjb_limit(mp, GAMMA, wrong, 501).second_deriv_mismatch
    if wrong.candidate.ordering_ok():
        assert mism > limit.SECOND_ORDER_TOL
    else:
        assert np.isnan(mism)


@pytest.mark.parametrize("hhat, gamma", [(0.6, GAMMA), (0.99, 0.03)], ids=["fig2", "hhat0.99"])
def test_c2_row_vanishes_at_a_solved_band(hhat, gamma):
    # at hhat 0.99 the band's upper edge is within 1.5e-4 of 1
    mp = gf.MarketParams(r=0.0, mu=hhat * 0.16, sigma=0.4)
    sol = gf.solve_limit(mp, gamma)
    assert gf.verify_hjb_limit(mp, gamma, sol, 501).second_deriv_mismatch <= 1e-6


# fig2 and two lopsided markets at r = 0, sigma = 0.4, as (hhat, gamma)
PARITY_MARKETS = {"fig2": (0.6, GAMMA), "hhat0.05": (0.05, 0.03), "hhat0.95": (0.95, 0.01)}


@pytest.mark.parametrize("market", list(PARITY_MARKETS))
def test_hjb_check_is_the_qvi_check_at_delta_zero(market, monkeypatch):
    hhat, gamma = PARITY_MARKETS[market]
    mp = gf.MarketParams(r=0.0, mu=hhat * 0.16, sigma=0.4)
    sol = gf.solve_limit(mp, gamma)
    c = sol.candidate
    true = gf.verify_hjb_limit(mp, gamma, sol, 501)
    assert true.passed
    assert true.max_obstacle_excess <= 1e-15
    # a shifted edge: the curve is rebuilt from the shifted candidate
    for shifted in (dict(A=c.A - 1e-3), dict(B=c.B + 1e-3), dict(B=c.B - 1e-3)):
        bad = dataclasses.replace(sol, candidate=dataclasses.replace(c, **shifted))
        assert not gf.verify_hjb_limit(mp, gamma, bad, 501).passed, shifted
    # a corrupted l0 claimed for the true curve
    value = gf.build_limit_value(mp, gamma, sol)
    monkeypatch.setattr(limit, "build_limit_value", lambda *args: value)
    bad = dataclasses.replace(sol, candidate=dataclasses.replace(c, l0=c.l0 * 1.01))
    assert not gf.verify_hjb_limit(mp, gamma, bad, 501).passed


def test_limit_value_is_c2(mp, lim):
    value = gf.build_limit_value(mp, GAMMA, lim)
    eps = 1e-9
    for kink in (lim.candidate.A, lim.candidate.B):
        assert value.ddu(kink - eps) == pytest.approx(value.ddu(kink + eps), abs=1e-6)
    # u' continuous too
    for kink in (lim.candidate.A, lim.candidate.B):
        assert value.du(kink - eps) == pytest.approx(value.du(kink + eps), abs=1e-9)


def test_limit_value_is_continuous(mp, lim):
    # the reflecting limit is the delta = 0 case of the impulse value function
    value = gf.build_limit_value(mp, GAMMA, lim)
    assert isinstance(value, gf.ValueFunction)
    assert value.costs == gf.CostParams(delta=0.0, gamma=GAMMA)
    assert value.u(lim.candidate.A) == pytest.approx(0.0, abs=1e-15)
    eps = 1e-9
    for kink in (lim.candidate.A, lim.candidate.B):
        assert value.u(kink - eps) == pytest.approx(value.u(kink + eps), abs=1e-9)


def test_limit_value_interior_ode(mp, lim):
    value = gf.build_limit_value(mp, GAMMA, lim)
    xs = np.linspace(lim.candidate.A, lim.candidate.B, 101)
    resid = (gf.apply_generator(mp, 0.0, value.du(xs), value.ddu(xs), xs)
             + gf.growth_integrand(mp, xs) - lim.candidate.l0)
    assert np.max(np.abs(resid)) <= 1e-12


def test_limit_system_is_small_delta_limit_of_full_system(mp, lim):
    # with a -> A <- alpha and beta -> B <- b the first four residuals of the
    # impulse system at delta -> 0 coincide pairwise with the limit system's
    # first-order equations
    c = lim.candidate
    gap = 1e-7
    cand = gf.BoundaryCandidate(l=c.l0, x0=c.x0, a=c.A - gap, alpha=c.A + gap,
                                beta=c.B - gap, b=c.B + gap)
    res = gf.residual_system(mp, gf.CostParams(delta=1e-12, gamma=GAMMA), cand)
    lim_res = gf.residual_system_limit(mp, GAMMA, c)
    # R1 ~ R3 ~ first-order at A, R2 ~ R4 ~ first-order at B
    assert res[0] == pytest.approx(lim_res[0], abs=1e-6)
    assert res[2] == pytest.approx(lim_res[0], abs=1e-6)
    assert res[1] == pytest.approx(lim_res[1], abs=1e-6)
    assert res[3] == pytest.approx(lim_res[1], abs=1e-6)


@pytest.mark.parametrize("hhat", [0.02, 0.98])
def test_lopsided_heavy_cost_solves_cold(hhat):
    # the no-trade band squeezes against 0 (or 1) on the logit scale
    mp = gf.MarketParams(r=0.0, mu=hhat * 0.16, sigma=0.4)
    lim = gf.solve_limit(mp, 0.05)
    c = lim.candidate
    assert 0 < c.A < hhat < c.B < 1
    assert gf.verify_hjb_limit(mp, 0.05, lim, 501).passed


def band_growth(mp, gamma, A, B):
    """r + l of the reflected band [A, B].  The no-trade slopes are
    slope_g(x, hhat, l) + C e^{p(logit hhat - logit x)}/(x(1-x)), p = 2 hhat - 1,
    affine in (l, C), so the trade cost's slopes at A and B fix (l, C) by
    one 2x2 solve."""
    hhat, edges = gf.merton_fraction(mp), np.array([A, B])
    g0 = gf.slope_g(mp, edges, hhat, 0.0)
    g_l = gf.slope_g(mp, edges, hhat, 1.0) - g0
    e = (np.exp((2 * hhat - 1) * (gf.to_centered(hhat) - gf.to_centered(edges)))
         / (edges * (1 - edges)))
    s = np.array([gamma / (1 + gamma * A), -gamma / (1 - gamma * B)])
    l, _ = np.linalg.solve(np.column_stack([g_l, e]), s - g0)
    return mp.r + l


@pytest.mark.parametrize("gamma", [1e-4, 3e-3, 3e-2])
@pytest.mark.parametrize("hhat", [0.1, 0.3, 0.5, 0.6, 0.9])
def test_band_growth_is_exact_at_the_root_and_at_the_start(hhat, gamma):
    # the start is the best band of the logit grid, priced in closed form;
    # the same form gives r + l0 at the root, which no grid band exceeds
    mp = gf.MarketParams(r=0.0, mu=hhat * 0.16, sigma=0.4)
    root = gf.solve_limit(mp, gamma).candidate
    assert band_growth(mp, gamma, root.A, root.B) == pytest.approx(mp.r + root.l0, rel=1e-13)
    l0, x0, A, B = _slope.best_band(mp, gamma)
    assert A < x0 == gf.merton_fraction(mp) < B
    assert band_growth(mp, gamma, A, B) == pytest.approx(mp.r + l0, rel=1e-13)
    assert l0 <= root.l0 * (1 + 1e-13)


def test_band_between_grid_points_is_reported_not_raised():
    # at hhat = 0.005 and gamma = 1e-5 the band is about 1.4e-3 wide and
    # holds no point of the 0.002-spaced grid: the check fails, by report
    mp = gf.MarketParams(r=0.0, mu=0.0008, sigma=0.4)
    sol = gf.solve_limit(mp, 1e-5)
    grid = np.linspace(EPS, 1 - EPS, 501)
    assert not np.any((grid >= sol.candidate.A) & (grid <= sol.candidate.B))
    rep = gf.verify_hjb_limit(mp, 1e-5, sol, 501)
    assert rep.passed is False
    values = dataclasses.astuple(rep)
    assert all(np.isfinite(v) for v in values if isinstance(v, float))
    c = sol.candidate
    assert rep.summary().splitlines()[-1] == (
        f"  unresolved band [{c.A:.6f}, {c.B:.6f}] holds no grid point (spacing 2.000e-03)")
    # a resolved band adds no line
    passing = gf.verify_hjb_limit(mp, 1e-5, sol, 2001)
    assert passing.unresolved_band == "" and "unresolved" not in passing.summary()


# claims (A, B) made from the solved band at r = 0, sigma = 0.4 and (hhat, gamma):
# a near edge shifted out of (0, 1) at two lopsided markets, and fig2's band
# reversed or collapsed
BREACHES = {
    "A_below_0": (0.005, 0.01, lambda A, B: (A - 1e-3, B)),
    "B_above_1": (0.98, 0.05, lambda A, B: (A, B + 1e-3)),
    "A_above_B": (0.6, GAMMA, lambda A, B: (B, A)),
    "A_equals_B": (0.6, GAMMA, lambda A, B: (A, A)),
}


@pytest.mark.parametrize("case", list(BREACHES))
def test_claim_outside_the_domain_is_reported_not_raised(case):
    # neither the grid check nor the C2 row is measured; the report names the breach
    hhat, gamma, claim = BREACHES[case]
    mp = gf.MarketParams(r=0.0, mu=hhat * 0.16, sigma=0.4)
    sol = gf.solve_limit(mp, gamma)
    A, B = claim(sol.candidate.A, sol.candidate.B)
    bad = dataclasses.replace(sol.candidate, A=A, B=B)
    rep = gf.verify_hjb_limit(mp, gamma, dataclasses.replace(sol, candidate=bad), 501)
    assert rep.passed is False
    assert np.isnan(rep.max_interior_residual) and np.isnan(rep.second_deriv_mismatch)
    assert rep.summary().splitlines()[-1] == (
        "  claim breaks 0 < a <= alpha <= beta <= b < 1, a < b, 0 < x0 < 1: "
        f"(x0, a, alpha, beta, b) = {bad.x0, A, A, B, B}")


SMALL_GAMMAS = (1e-4, 1e-6, 1e-8)
# measured relative errors of (B - A)/2w and of the loss f(hhat) - l0 against
# their leading terms, at SMALL_GAMMAS
SMALL_GAMMA_ERRORS = {
    0.6: ((4.08e-4, 1.90e-5, 8.82e-7), (-1.52e-3, -7.06e-5, -3.28e-6)),
    0.9: ((-1.46e-3, -6.79e-5, -3.15e-6), (-4.60e-3, -2.14e-4, -9.93e-6)),
}


@pytest.mark.parametrize("hhat", list(SMALL_GAMMA_ERRORS))
def test_the_band_follows_the_small_gamma_law(hhat):
    # each relative error keeps its sign and lies within 3x its measured
    # value, and falls at least 10x per 100x in gamma (gamma^(2/3) is 21.5x)
    mp = gf.MarketParams(r=0.0, mu=hhat * 0.16, sigma=0.4)
    errors = []
    for gamma in SMALL_GAMMAS:
        c = gf.solve_limit(mp, gamma).candidate
        loss = gf.growth_integrand(mp, hhat) - c.l0
        errors.append(((c.B - c.A) / (2.0 * half_width(hhat, gamma)) - 1.0,
                       loss / growth_loss(mp.sigma, hhat, gamma) - 1.0))
    for measured, err in zip(SMALL_GAMMA_ERRORS[hhat], np.transpose(errors)):
        assert np.all((err / measured >= 1.0 / 3.0) & (err / measured <= 3.0)), err
        assert np.all(np.abs(err[1:]) * 10.0 <= np.abs(err[:-1])), err
