import contextlib
import dataclasses

import numpy as np
import pytest
from scipy.integrate import quad

import growth_frictions as gf
from growth_frictions import _slope, lab, qvi
from growth_frictions.market import EPS
from newton_reference import ANCHORS, column_jacobian, is_stacked, record_residual
from renewal_reference import (assert_seed_names_as_the_oracle, box_rows, oracle_seed,
                               ranked_batches, seed_outcome)

FIG2_L_LOW = 0.016    # f(1): lower bound on the growth excess
FIG2_L_HIGH = 0.0288  # f(hhat): upper bound


def test_slope_anchor_zero(mp):
    for x0, l in ((0.55, 0.025), (0.3, 0.02), (0.7, 0.028)):
        assert gf.slope_g(mp, x0, x0, l) == pytest.approx(0.0, abs=1e-15)


def test_slope_anchor_zero_knife_edge():
    mp_half = gf.MarketParams(r=0.02, mu=0.10, sigma=0.4)  # hhat = 1/2, f(1) ~ 0
    assert gf.slope_g(mp_half, 0.55, 0.55, 0.02) == pytest.approx(0.0, abs=1e-15)


def test_slope_solves_continuation_ode(mp):
    x0, l = 0.55, 0.025
    x = 0.5
    h = 1e-6
    g_val = gf.slope_g(mp, x, x0, l)
    g_fd = (gf.slope_g(mp, x + h, x0, l) - gf.slope_g(mp, x - h, x0, l)) / (2 * h)
    resid = gf.apply_generator(mp, 0.0, g_val, g_fd, x) + gf.growth_integrand(mp, x) - l
    assert abs(resid) <= 1e-6


@pytest.mark.parametrize("params", [
    dict(r=0.0, mu=0.096, sigma=0.4),    # exponent 0.2
    dict(r=0.02, mu=0.10, sigma=0.4),    # knife edge, exponent ~ 0
    dict(r=0.02, mu=0.1 + 8e-10, sigma=0.4),  # just off the knife edge
])
def test_slope_integral_matches_quadrature(params):
    mp = gf.MarketParams(**params)
    x0, l = 0.55, 0.02
    val, _ = quad(lambda y: gf.slope_g(mp, y, x0, l), 0.3, 0.7,
                  epsabs=1e-13, epsrel=1e-13)
    closed = gf.slope_g_integral(mp, 0.3, 0.7, x0, l)
    assert closed == pytest.approx(val, abs=1e-12)


def test_slope_dx_at_anchor(mp):
    x0, l = 0.55, 0.025
    expected = (l - gf.growth_integrand(mp, x0)) / (
        0.5 * mp.sigma**2 * x0**2 * (1 - x0) ** 2)
    assert gf.slope_g_dx(mp, x0, x0, l) == pytest.approx(expected, rel=1e-12)


def test_slope_dx_matches_finite_difference(mp):
    x, x0, l = 0.5, 0.55, 0.025
    h = 1e-6
    fd = (gf.slope_g(mp, x + h, x0, l) - gf.slope_g(mp, x - h, x0, l)) / (2 * h)
    assert gf.slope_g_dx(mp, x, x0, l) == pytest.approx(fd, abs=1e-6)


def test_slope_domain_rejection(mp):
    with pytest.raises(ValueError):
        gf.slope_g(mp, 0.0, 0.5, 0.02)
    with pytest.raises(ValueError):
        gf.slope_g(mp, 0.5, 1.0, 0.02)


def test_residuals_vanish_at_solution(mp, cp, sol):
    res = gf.residual_system(mp, cp, sol.candidate)
    assert np.max(np.abs(res)) <= 1e-10


def test_residuals_react_to_perturbation(mp, cp, sol):
    cand = dataclasses.replace(sol.candidate, b=sol.candidate.b + 1e-3)
    res = gf.residual_system(mp, cp, cand)
    assert abs(res[3]) + abs(res[5]) > 1e-12


def test_residuals_reject_bad_ordering(mp, cp, sol):
    cand = dataclasses.replace(sol.candidate, alpha=sol.candidate.beta + 0.01)
    with pytest.raises(gf.ParameterDegeneracy):
        gf.residual_system(mp, cp, cand)


@pytest.fixture(scope="module")
def cold_points(mp, cp):
    """The fig2 root and every point a cold solve evaluates one at a time."""
    sol, accepted = record_residual(qvi, "residual_system", lambda: gf.solve_boundaries(mp, cp))
    return [sol.candidate] + [c for c in accepted if not is_stacked(c)]


def test_stacked_residuals_equal_single_calls(mp, cp, cold_points):
    block = np.column_stack([c.as_vector() for c in cold_points])
    stacked = gf.residual_system(mp, cp, gf.BoundaryCandidate.from_vector(block))
    single = np.column_stack([gf.residual_system(mp, cp, c) for c in cold_points])
    assert np.array_equal(stacked, single)


def test_newton_jacobian_equals_column_by_column(mp, cp, cold_points):
    def residual(v):
        return gf.residual_system(mp, cp, gf.BoundaryCandidate.from_vector(v))

    for cand in cold_points:
        v = cand.as_vector()
        fv = residual(v)
        f, jac = _slope._priced(residual, v)
        assert np.array_equal(f, fv) and np.array_equal(jac, column_jacobian(residual, v, fv))


@pytest.mark.parametrize("miss", [1e-6, np.nan], ids=["off", "nan"])
def test_build_value_requires_c1_pasting(mp, cp, sol, miss, monkeypatch):
    exact = qvi._pasting_rows
    monkeypatch.setattr(qvi, "_pasting_rows", lambda *args: exact(*args) + miss)
    with pytest.raises(gf.ParameterError, match="does not paste to C1"):
        gf.build_value(mp, cp, sol)


@pytest.mark.parametrize("x0", ["alpha", "beta", "below", "above"])
def test_x0_outside_the_open_targets_breaks_the_invariants(mp, sol, x0):
    # the solver accepts a root only with x0 strictly between the targets
    c = sol.candidate
    moved = {"alpha": c.alpha, "beta": c.beta, "below": 0.5 * (c.a + c.alpha),
             "above": 0.5 * (c.beta + c.b)}[x0]
    with pytest.raises(gf.ParameterError, match="^alpha < x0 < beta$"):
        dataclasses.replace(c, x0=moved).check_invariants(mp)
    c.check_invariants(mp)


@pytest.mark.parametrize("moved, onto", [("alpha", "a"), ("b", "beta")])
def test_a_target_on_its_trigger_breaks_the_ordering_invariant(mp, sol, moved, onto):
    c = sol.candidate
    with pytest.raises(gf.ParameterError, match=r"^0 < a < alpha <= beta < b < 1$"):
        dataclasses.replace(c, **{moved: getattr(c, onto)}).check_invariants(mp)


def test_verify_qvi_requires_a_hundred_grid_points(mp, cp, vf):
    with pytest.raises(ValueError, match="^verify_qvi requires grid_n >= 100$"):
        gf.verify_qvi(mp, cp, vf, 99)
    assert gf.verify_qvi(mp, cp, vf, 100).grid_n == 100


def test_tiny_gamma_closes_target_gap(mp):
    sol = gf.solve_boundaries(mp, gf.CostParams(delta=1e-3, gamma=1e-8))
    assert sol.candidate.beta - sol.candidate.alpha < 1e-3


def test_solution_bounds_and_ordering(mp, cp, sol):
    c = sol.candidate
    assert sol.residual_norm <= 1e-10
    assert 0 < c.a < c.alpha < c.x0 < c.beta < c.b < 1
    assert FIG2_L_LOW < c.l < FIG2_L_HIGH
    assert sol.original_cost_optimal == (c.a <= c.alpha * (1 - cp.delta))
    assert sol.original_cost_optimal


def test_growth_excess_monotone_in_delta(mp, cp, sol):
    coarse = gf.solve_boundaries(mp, gf.CostParams(delta=1e-2, gamma=cp.gamma))
    assert sol.candidate.l > coarse.candidate.l


def test_multi_start_agreement(mp, cp, sol):
    rng = np.random.default_rng(5)
    base = sol.candidate
    results = []
    for _ in range(5):
        jitter = rng.uniform(-1.0, 1.0, size=4)
        init = gf.BoundaryCandidate(
            l=base.l * (1 + 0.1 * rng.uniform(-1, 1)),
            x0=base.x0 + 0.02 * rng.uniform(-1, 1),
            a=base.a + 0.02 * jitter[0],
            alpha=base.alpha + 0.005 * jitter[1],
            beta=base.beta + 0.005 * jitter[2],
            b=base.b + 0.02 * jitter[3],
        )
        results.append(gf.solve_boundaries(mp, cp, init=init).candidate.as_vector())
    results = np.array(results)
    assert np.max(results.max(axis=0) - results.min(axis=0)) <= 1e-8


def test_distant_warm_start_falls_back_to_cold_solution(mp, cp, sol):
    init = gf.BoundaryCandidate(l=0.02, x0=0.6, a=0.05, alpha=0.1, beta=0.9, b=0.95)
    warm = gf.solve_boundaries(mp, cp, init=init)
    diff = warm.candidate.as_vector() - sol.candidate.as_vector()
    assert np.max(np.abs(diff)) <= 1e-8


def test_degenerate_inputs_rejected(mp):
    with pytest.raises(gf.ParameterDegeneracy):
        gf.solve_boundaries(mp, gf.CostParams(delta=0.0, gamma=0.003))
    with pytest.raises(gf.ParameterDegeneracy):
        gf.solve_boundaries(mp, gf.CostParams(delta=1e-3, gamma=0.0))


def test_no_interior_optimum_rejected_by_name():
    # hhat = 0.9 with gamma = 0.05, delta = 0.01: no constant-boundary policy
    # beats holding only stock, so there is nothing for Newton to find.
    mp = gf.MarketParams(r=0.0, mu=0.144, sigma=0.4)
    with pytest.raises(gf.ParameterDegeneracy, match="no interior optimum"):
        gf.solve_boundaries(mp, gf.CostParams(delta=0.01, gamma=0.05))


def test_value_anchors(mp, cp, sol, vf):
    c = sol.candidate
    assert vf.u(c.a) == pytest.approx(gf.trade_cost_gamma(cp, c.a, c.alpha), abs=1e-15)
    # smooth pasting at b: interior slope meets the cost slope
    assert vf.du(c.b) == pytest.approx(-cp.gamma / (1 - cp.delta - cp.gamma * c.b), abs=1e-8)


def test_value_one_sided_derivatives(mp, cp, sol, vf):
    c = sol.candidate
    eps = 1e-9
    for kink in (c.a, c.alpha, c.beta, c.b):
        assert vf.du(kink - eps) == pytest.approx(vf.du(kink + eps), abs=1e-8)


def test_value_maximum_near_anchor(sol, vf):
    grid = np.arange(EPS, 1.0, 1e-4)
    k = int(np.argmax(vf.u(grid)))
    assert abs(grid[k] - sol.candidate.x0) <= 1e-3


def test_value_second_derivative_matches_differences(sol, vf):
    c = sol.candidate
    h = 1e-6
    grid = np.linspace(0.05, 0.95, 301)
    kinks = np.array([c.a, c.alpha, c.beta, c.b])
    keep = np.min(np.abs(grid[:, None] - kinks[None, :]), axis=1) > 1e-3
    grid = grid[keep]
    fd = (vf.du(grid + h) - vf.du(grid - h)) / (2 * h)
    assert np.max(np.abs(fd - vf.ddu(grid))) <= 1e-5


@pytest.mark.parametrize("model", ["impulse", "limit"])
def test_the_value_function_at_an_array_is_its_value_at_each_point(mp, cp, vf, lim, model):
    # u, du and ddu at an unsorted array with repeats, holding the band's own
    # points and points outside [a, b], give each point's one-point value bit
    # for bit, on fig2's impulse and limit value functions
    vf = vf if model == "impulse" else gf.build_limit_value(mp, cp.gamma, lim)
    _, x0, a, alpha, beta, b = vf.anchor
    x = np.array([0.9, b, 0.3, a, x0, alpha, 0.0, 1.0, beta, 0.3, b, 0.6, a, 0.05, 0.999, alpha,
                  0.5 * (a + alpha), beta])
    for fn in (vf.u, vf.du, vf.ddu):
        assert fn(x).tobytes() == np.array([fn(v) for v in x]).tobytes(), fn.__name__


def test_verification_passes(mp, cp, vf):
    report = gf.verify_qvi(mp, cp, vf, 2001, tol=1e-6)
    assert report.passed
    assert report.max_interior_residual <= 1e-6
    assert report.max_obstacle_excess <= 1e-6
    # the obstacle equality at b is achieved at beta (and at a at alpha)
    assert report.equality_target_high == pytest.approx(vf.candidate.beta, abs=1e-3)
    assert report.equality_target_low == pytest.approx(vf.candidate.alpha, abs=1e-3)


def test_verification_detects_corrupted_growth_rate(mp, cp, sol, vf):
    corrupted = dataclasses.replace(
        vf, candidate=dataclasses.replace(sol.candidate, l=sol.candidate.l + 1e-4))
    report = gf.verify_qvi(mp, cp, corrupted, 501, tol=1e-6)
    assert report.max_interior_residual > 5e-5
    assert not report.passed


def test_exterior_slope_domination(mp, cp, sol):
    c = sol.candidate
    gm, dl = cp.gamma, cp.delta
    xs = np.linspace(EPS, c.a - 1e-6, 200)
    g_lo = gf.slope_g(mp, xs, c.x0, c.l)
    assert np.all(g_lo < gm / (1 - dl + gm * xs))
    xs = np.linspace(c.b + 1e-6, 1 - EPS, 200)
    g_hi = gf.slope_g(mp, xs, c.x0, c.l)
    assert np.all(g_hi > -gm / (1 - dl - gm * xs))


def test_strict_second_order_margins(mp, cp, sol):
    c = sol.candidate
    gm, dl = cp.gamma, cp.delta
    margin = 1e-12
    assert gf.slope_g_dx(mp, c.beta, c.x0, c.l) < -gm**2 / (1 - gm * c.beta) ** 2 - margin
    assert gf.slope_g_dx(mp, c.b, c.x0, c.l) > -gm**2 / (1 - dl - gm * c.b) ** 2 + margin
    assert gf.slope_g_dx(mp, c.alpha, c.x0, c.l) < -gm**2 / (1 + gm * c.alpha) ** 2 - margin
    assert gf.slope_g_dx(mp, c.a, c.x0, c.l) > -gm**2 / (1 - dl + gm * c.a) ** 2 + margin


def test_large_delta_cold_solve_verifies(mp):
    cp_large = gf.CostParams(delta=0.05, gamma=0.003)
    sol = gf.solve_boundaries(mp, cp_large)
    assert sol.residual_norm <= 1e-10
    c = sol.candidate
    assert 0 < c.a < c.alpha < c.x0 < c.beta < c.b < 1
    vf = gf.build_value(mp, cp_large, sol)
    assert gf.verify_qvi(mp, cp_large, vf, 501).passed


def test_band_between_grid_points_is_reported_not_raised():
    # at hhat = 0.005 with delta = 1e-10 and gamma = 1e-5 the no-trade
    # region (a, b) holds no point of the 0.002-spaced grid
    mp = gf.MarketParams(r=0.0, mu=0.0008, sigma=0.4)
    cp = gf.CostParams(delta=1e-10, gamma=1e-5)
    sol = gf.solve_boundaries(mp, cp)
    grid = np.linspace(EPS, 1 - EPS, 501)
    assert not np.any((grid >= sol.candidate.a) & (grid <= sol.candidate.b))
    vf = gf.build_value(mp, cp, sol)
    rep = gf.verify_qvi(mp, cp, vf, 501)
    assert rep.passed is False
    values = dataclasses.astuple(rep)
    assert all(np.isfinite(v) for v in values if isinstance(v, float))
    c = sol.candidate
    assert rep.summary().splitlines()[-1] == (
        f"  unresolved band [{c.a:.6f}, {c.b:.6f}] holds no grid point (spacing 2.000e-03)")
    # a resolved band adds no line
    assert gf.verify_qvi(mp, cp, vf, 2001).unresolved_band == ""


@pytest.mark.parametrize("breach", [dict(a=-1e-3), dict(b=1.0 + 1e-3), dict(alpha=0.62),
                                    dict(x0=1.5)], ids=lambda d: next(iter(d)))
def test_claim_outside_the_domain_is_reported_not_raised(breach, mp, cp, sol, vf):
    # an edge outside (0, 1), alpha > beta, or x0 outside (0, 1) claimed for
    # the fig2 curve: the report fails, is not measured, and names the breach
    claim = dataclasses.replace(sol.candidate, **breach)
    rep = gf.verify_qvi(mp, cp, dataclasses.replace(vf, candidate=claim), 501)
    assert rep.passed is False
    assert all(np.isnan(v) for v in dataclasses.astuple(rep)[2:-2])
    _, x0, a, al, be, b = claim.policy()
    assert rep.summary().splitlines()[-1] == (
        "  claim breaks 0 < a <= alpha <= beta <= b < 1, a < b, 0 < x0 < 1: "
        f"(x0, a, alpha, beta, b) = {x0, a, al, be, b}")


# The six solve_domain anchors that solve: the reference market at two fixed
# costs, lopsided Merton fractions, the knife edge and heavy costs.
SCAN_MARKETS = {
    "reference_delta1e-3": ((0.0, 0.096, 0.4), (1e-3, 0.003)),
    "reference_delta1e-6": ((0.0, 0.096, 0.4), (1e-6, 0.003)),
    "hhat0.25": ((0.0, 0.040, 0.4), (1e-3, 0.003)),
    "hhat0.9": ((0.01, 0.154, 0.4), (1e-3, 0.003)),
    "knife_edge": ((0.02, 0.1, 0.4), (1e-2, 0.02)),
    "heavy_costs": ((0.03, 0.09, 0.3), (5e-3, 0.05)),
}


def dense_intervention(cp, x, targets, u_targets):
    """Reference Mu and argmax target: the full gain matrix of the query
    points against the targets, maximised row by row (the first target of
    a tie)."""
    gain = u_targets[None, :] + gf.trade_cost_gamma(cp, x[:, None], targets[None, :])
    return gain.max(axis=1), targets[gain.argmax(axis=1)]


@pytest.fixture(scope="module", params=list(SCAN_MARKETS))
def scan_market(request):
    mp = gf.MarketParams(*SCAN_MARKETS[request.param][0])
    cp = gf.CostParams(*SCAN_MARKETS[request.param][1])
    return mp, cp, gf.build_value(mp, cp, gf.solve_boundaries(mp, cp))


@pytest.mark.parametrize("n", [501, 2001])
def test_obstacle_scan_matches_dense_search(scan_market, n, monkeypatch):
    mp, cp, vf = scan_market
    c = vf.candidate
    grid = np.linspace(EPS, 1 - EPS, n)
    targets = np.unique(np.concatenate([grid, [c.alpha, c.beta]]))
    u_targets = vf.u(targets)
    query = np.append(grid, [c.a, c.b])
    scan, scan_target = _slope._intervention(cp, query, targets, u_targets)
    dense, dense_target = dense_intervention(cp, query, targets, u_targets)
    assert np.max(np.abs(scan - dense)) <= 1e-15
    assert np.array_equal(scan_target[-2:], dense_target[-2:])
    # the reports equal those whose Mu and trigger targets come from the
    # full search
    report = gf.verify_qvi(mp, cp, vf, n)
    monkeypatch.setattr(_slope, "_intervention", dense_intervention)
    assert report == gf.verify_qvi(mp, cp, vf, n)
    assert report.passed


def test_obstacle_scan_keeps_the_cost_checks(cp):
    grid = np.linspace(EPS, 1 - EPS, 101)
    targets = np.append(grid, 1.5)
    with pytest.raises(ValueError, match="fractions in"):
        _slope._intervention(cp, grid, targets, np.where(targets > 1, 1.0, 0.0))


def test_obstacle_excess_is_a_positive_part(mp, cp, vf, monkeypatch):
    # with Mu below u on the whole grid the (Mu-u)+ field reads 0, as the
    # exterior (Du+f-l)+ one does, and still names where Mu - u peaks
    exact = gf.verify_qvi(mp, cp, vf, 2001)
    scan = _slope._intervention

    def lowered_scan(*args):
        mu, target = scan(*args)
        return mu - 1e-3, target

    monkeypatch.setattr(_slope, "_intervention", lowered_scan)
    lowered = gf.verify_qvi(mp, cp, vf, 2001)
    assert lowered.max_obstacle_excess == 0.0
    # the trade cost is separable, so Mu - u is 0 to rounding on the whole
    # trade region and the named point is one of a tie set: both reports
    # name a point where Mu - u attains its grid maximum to rounding
    grid, c = np.linspace(EPS, 1 - EPS, 2001), vf.candidate
    targets = np.unique(np.append(grid, [c.alpha, c.beta]))
    query = np.append(grid, [exact.obstacle_worst_x, lowered.obstacle_worst_x])
    excess = scan(cp, query, targets, vf.u(targets))[0] - vf.u(query)
    assert excess[-2:] == pytest.approx([np.max(excess[:-2])] * 2, rel=0.0, abs=1e-15)


def test_fine_grid_verification_stays_linear(mp, cp, vf):
    # a dense gain matrix at this size would need 320 GB
    report = gf.verify_qvi(mp, cp, vf, 200_001)
    assert report.passed


def _seed_batches(hhat, gamma, delta, monkeypatch, perturb=None):
    """The cold seed at r=0, sigma=0.4, the band (A, B) it searched around
    and the grids it ranked (``ranked_batches``)."""
    mp = gf.MarketParams(r=0.0, mu=hhat * 0.16, sigma=0.4)
    cp = gf.CostParams(delta=delta, gamma=gamma)
    batches = ranked_batches(monkeypatch, perturb)
    band = _slope.best_band(mp, gamma)[2:]
    return qvi._oracle_seed(mp, cp, *band), band, batches


def test_seed_refines_each_offset_on_its_own_grid(monkeypatch):
    # hhat 0.5, gamma = delta = 1e-2: the a-side and b-side gaps nearly
    # agree, so offset lists pooled across the sides repeat to ulps
    _, (A, B), batches = _seed_batches(0.5, 1e-2, 1e-2, monkeypatch)
    assert len(batches) == 2
    # round 2 prices at most 7^4 ordered candidates
    _, al, be, _, values = batches[1]
    assert np.count_nonzero(np.isfinite(values) & (al < be)) <= 7 ** 4

    def spaced(offsets):
        offsets = np.unique(offsets)
        return offsets.size < 2 or np.min(offsets[1:] / offsets[:-1]) >= 1.2

    for a, al, be, b, _ in batches:
        a_y, al_y, be_y, b_y = (gf.to_centered(v) for v in (a, al, be, b))
        assert spaced(gf.to_centered(A) - a_y) and spaced(b_y - gf.to_centered(B))
        for v in np.unique(a_y):
            assert spaced(al_y[a_y == v] - v)
        for v in np.unique(b_y):
            assert spaced(v - be_y[b_y == v])


SEED_MARKETS = [(0.5, 1e-2, 1e-2), (0.4, 1e-3, 1e-3), (0.75, 1e-2, 1e-3)]
# hhat = 1/2 exactly, so the slope's exponent 2 hhat - 1 is 0
KNIFE_EDGE = (0.0, 0.125, 0.5, 0.003, 1e-3)


def _assert_prices_as_the_quadrature(closed, quadrature):
    """The closed form reads -inf exactly where the quadrature does and
    agrees with it within 1e-12 everywhere else."""
    assert np.array_equal(np.isneginf(closed), np.isneginf(quadrature))
    priced = ~np.isneginf(quadrature)
    assert np.all(np.isfinite(closed[priced]))
    assert np.max(np.abs(closed[priced] - quadrature[priced])) <= 1e-12


@pytest.mark.parametrize("r, mu, sigma, gamma, delta", ANCHORS + [KNIFE_EDGE] + [
    (0.0, hhat * 0.16, 0.4, gamma, delta) for hhat, gamma, delta in SEED_MARKETS])
def test_seed_grids_price_in_closed_form_as_by_quadrature(r, mu, sigma, gamma, delta,
                                                          monkeypatch):
    # each round's grid, ranked on its axes, gives every candidate the
    # value it has as one of flat arrays, bit for bit, and the renewal
    # quadrature's value within 1e-12
    mp = gf.MarketParams(r=r, mu=mu, sigma=sigma)
    cp = gf.CostParams(delta=delta, gamma=gamma)
    batches = ranked_batches(monkeypatch)
    # the infeasible anchor is named "no interior optimum" after both rounds
    with contextlib.suppress(gf.ParameterDegeneracy):
        qvi._oracle_seed(mp, cp, *_slope.best_band(mp, gamma)[2:])
    assert len(batches) == 2
    for *cand, values in batches:
        flat = _slope.policy_value(mp, cp, *(v.ravel() for v in cand))
        assert np.array_equal(flat, values.ravel())
        _assert_prices_as_the_quadrature(values, lab._renewal_batch(mp, cp, *cand))


def test_oracle_box_prices_in_closed_form_as_by_quadrature(mp, cp, sol):
    # fig2's 21^4 oracle box, on its four axes and as flat arrays
    c = sol.candidate
    values = box_rows(gf.brute_force_boundaries(mp, cp, c, radius=0.02, step=2e-3))
    offs = np.arange(-10, 11) * 2e-3
    closed = _slope.policy_value(mp, cp, *np.ix_(c.a + offs, c.alpha + offs,
                                                 c.beta + offs, c.b + offs)).ravel()
    assert np.array_equal(closed, _slope.policy_value(mp, cp, *values[:, :4].T))
    _assert_prices_as_the_quadrature(closed, values[:, 4])


@pytest.mark.parametrize("r, mu, sigma, gamma, delta", ANCHORS)
def test_seed_matches_the_flat_reference_seed(r, mu, sigma, gamma, delta):
    mp = gf.MarketParams(r=r, mu=mu, sigma=sigma)
    cp = gf.CostParams(delta=delta, gamma=gamma)
    band = _slope.best_band(mp, gamma)[2:]
    assert seed_outcome(qvi._oracle_seed, mp, cp, band) == seed_outcome(oracle_seed, mp, cp, band)


@pytest.mark.parametrize("r, mu, sigma, gamma, delta", ANCHORS)
def test_seed_names_its_winner_as_the_oracle_prices_it(r, mu, sigma, gamma, delta, monkeypatch):
    # the seed's grid value is its winner's growth: the quadrature agrees,
    # and puts it on the same side of the floor
    mp = gf.MarketParams(r=r, mu=mu, sigma=sigma)
    cp = gf.CostParams(delta=delta, gamma=gamma)
    assert assert_seed_names_as_the_oracle(mp, cp, monkeypatch)


@pytest.mark.parametrize("hhat, gamma, delta", SEED_MARKETS)
def test_seed_is_stable_under_rounding_of_renewal_values(hhat, gamma, delta, monkeypatch):
    # renewal values moved by a fixed pattern of rounding size (2.5e-13)
    # leave the seed's boundaries bit for bit where they were
    seed, _, _ = _seed_batches(hhat, gamma, delta, monkeypatch)
    moved, _, _ = _seed_batches(
        hhat, gamma, delta, monkeypatch,
        lambda v: v + 2.5e-13 * np.sin(np.arange(v.size) * 7 * 1.618033988749895))
    assert moved.as_vector()[1:].tolist() == seed.as_vector()[1:].tolist()
