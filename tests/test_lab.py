import dataclasses
import decimal
import math

import numpy as np
import pytest
from scipy.integrate import quad

import growth_frictions as gf
from growth_frictions import _slope, lab, qvi
from mc_reference import exit_mc
from renewal_reference import box_rows, renewal_batch

GAMMA = 0.003


def test_exit_probability_symmetric_driftless():
    # zero drift: exit split from the midpoint is exactly one half
    p = gf.exit_prob_up(0.0, 0.4, -0.7, 0.3, -0.2)
    assert p == pytest.approx(0.5, abs=1e-10)
    mp_half = gf.MarketParams(r=0.02, mu=0.10, sigma=0.4)
    c = mp_half.mu - mp_half.r - 0.5 * mp_half.sigma**2  # ~1e-17
    assert gf.exit_prob_up(c, 0.4, -0.7, 0.3, -0.2) == pytest.approx(0.5, abs=1e-10)


def test_exit_time_branches_agree():
    # the series branch and the direct formula agree across the switch
    vol, lo, hi, y = 0.4, -0.3, 0.4, 0.05
    for theta_w in (9e-4, 1.1e-3):
        drift = theta_w * vol**2 / (2 * (hi - lo))
        m = gf.expected_exit_time(drift, vol, lo, hi, y)
        # reference by downward Richardson from a clearly-safe drift scale
        p = gf.exit_prob_up(drift, vol, lo, hi, y)
        direct = (p * (hi - lo) - (y - lo)) / drift
        assert m == pytest.approx(direct, rel=1e-9)
    assert gf.expected_exit_time(0.0, vol, lo, hi, y) == pytest.approx(
        (y - lo) * (hi - y) / vol**2, rel=1e-12)


def test_exit_helpers_vs_monte_carlo(mp):
    c = mp.mu - mp.r - 0.5 * mp.sigma**2
    lo, hi, y0 = -0.3, 0.4, 0.05
    up, t_exit = exit_mc(c, mp.sigma, lo, hi, y0, 20000, 1e-3, 424242)
    p_hat = up.mean()
    se_p = up.std(ddof=1) / math.sqrt(up.size)
    m_hat = t_exit.mean()
    se_m = t_exit.std(ddof=1) / math.sqrt(t_exit.size)
    assert abs(p_hat - gf.exit_prob_up(c, mp.sigma, lo, hi, y0)) <= 3 * se_p
    assert abs(m_hat - gf.expected_exit_time(c, mp.sigma, lo, hi, y0)) <= 3 * se_m + 1e-3


def _exit_time_decimal(drift, vol, lo, hi, y):
    # the classical closed form in 40-digit decimal arithmetic
    with decimal.localcontext() as ctx:
        ctx.prec = 40
        drift, vol, lo, hi, y = (decimal.Decimal(float(v)) for v in (drift, vol, lo, hi, y))
        if drift == 0:
            return float((y - lo) * (hi - y) / (vol * vol))
        theta = 2 * drift / (vol * vol)
        scale = lambda u: (1 - (-theta * u).exp()) / theta
        return float((scale(y - lo) / scale(hi - lo) * (hi - lo) - (y - lo)) / drift)


def test_running_reward_of_one_is_exit_time(mp):
    c = mp.mu - mp.r - 0.5 * mp.sigma**2
    lo, hi = -0.5, 0.9
    for y in (-0.3, 0.0, 0.6):
        w = gf.expected_running_reward(lambda z: np.ones_like(z), c, mp.sigma, lo, hi, y)
        assert w == pytest.approx(_exit_time_decimal(c, mp.sigma, lo, hi, y), rel=1e-13, abs=0.0)


@pytest.mark.parametrize("theta", [0.2, -0.875, 0.0])
def test_exit_time_on_narrow_intervals(theta):
    # widths 0.005-0.09 logit and starts near either edge, where the closed
    # form in floats cancels
    vol = 0.4
    drift = 0.5 * theta * vol**2
    for width in np.geomspace(0.005, 0.09, 7):
        for lo in (-2.0, 0.3):
            for frac in (0.002, 0.05, 0.5, 0.95, 0.998):
                y = lo + frac * width
                m = gf.expected_exit_time(drift, vol, lo, lo + width, y)
                assert m == pytest.approx(_exit_time_decimal(drift, vol, lo, lo + width, y),
                                          rel=1e-11, abs=0.0)


def _adaptive_reference(mp, lo, hi, y):
    # independent reference: integrate the Green kernel with adaptive
    # quadrature instead of Gauss-Legendre
    c = mp.mu - mp.r - 0.5 * mp.sigma**2
    s2 = mp.sigma**2
    theta = 2 * c / s2
    fbar = lambda z: gf.growth_integrand_transformed(mp, z)
    ee = lambda u: -math.expm1(-theta * u) / theta
    low, _ = quad(lambda z: ee(z - lo) * math.exp(theta * (z - y)) * fbar(z),
                  lo, y, epsabs=1e-13, epsrel=1e-13)
    high, _ = quad(lambda z: ee(hi - z) * fbar(z), y, hi, epsabs=1e-13, epsrel=1e-13)
    reference = (2 / s2) * (low * ee(hi - y) + high * ee(y - lo)) / ee(hi - lo)
    return reference, gf.expected_running_reward(fbar, c, mp.sigma, lo, hi, y)


def test_running_reward_against_quadrature_reference(mp):
    reference, w = _adaptive_reference(mp, -0.6, 1.1, 0.2)
    assert w == pytest.approx(reference, abs=1e-10)


@pytest.mark.parametrize("width", [0.05, 4.0, 20.0])
def test_quadrature_against_adaptive_reference(mp, width):
    # a narrow and two wide regions
    lo = -0.3 * width
    reference, w = _adaptive_reference(mp, lo, lo + width, lo + 0.4 * width)
    assert w == pytest.approx(reference, abs=1e-10)


def _green_96(fn, theta, vol, lo, hi, y):
    # the 96-node rule on every row, written out apart from lab's quadrature
    nodes, weights = np.polynomial.legendre.leggauss(96)

    def half_integral(za, zb, kernel):
        mid = 0.5 * (za + zb)[:, None]
        hw = 0.5 * (zb - za)[:, None]
        return hw[:, 0] * np.sum(weights[None, :] * kernel(mid + hw * nodes[None, :]), axis=1)

    ee = lambda u: lab._scale_increment(u, theta)
    low = half_integral(lo, y, lambda z: ee(z - lo[:, None]) * np.exp(theta * (z - y[:, None])) * fn(z))
    high = half_integral(y, hi, lambda z: ee(hi[:, None] - z) * fn(z))
    return (2.0 / vol**2) * (low * ee(hi - y) + high * ee(y - lo)) / ee(hi - lo)


@pytest.mark.parametrize("market", [(0.0, 0.096, 0.4), (0.02, 0.1, 0.4), (0.0, 0.0081, 0.4),
                                    (0.0, 0.1576, 0.4), (0.03, 0.09, 0.3)],
                         ids=["theta>0", "knife_edge", "theta<<0", "theta>>0", "heavy"])
def test_quadrature_matches_96_node_rule(market):
    # half-intervals from 1e-3 to 60 logit wide, at drifts of both signs and zero
    mp = gf.MarketParams(*market)
    c = mp.mu - mp.r - 0.5 * mp.sigma**2
    fbar = lambda z: gf.growth_integrand_transformed(mp, z)
    rng = np.random.default_rng(9)
    n = 3000
    width = np.exp(rng.uniform(math.log(1e-3), math.log(60.0), n))
    lo = rng.uniform(-30.0, 10.0, n)
    hi = lo + width
    y = lo + rng.uniform(0.0, 1.0, n) * width
    reference = _green_96(fbar, 2 * c / mp.sigma**2, mp.sigma, lo, hi, y)
    w = gf.expected_running_reward(fbar, c, mp.sigma, lo, hi, y)
    assert np.max(np.abs(w - reference)) <= 1e-13 * np.max(np.abs(reference))


def test_running_reward_blocks_are_exact(mp):
    # no row may move by one bit, whether it is priced in a long call, a
    # short one or alone
    c = mp.mu - mp.r - 0.5 * mp.sigma**2
    fbar = lambda z: gf.growth_integrand_transformed(mp, z)
    n = 4097
    rng = np.random.default_rng(8)
    lo, hi = rng.uniform(-2.0, -0.1, n), rng.uniform(0.1, 2.0, n)
    y = lo + rng.uniform(0.01, 0.99, n) * (hi - lo)
    whole = gf.expected_running_reward(fbar, c, mp.sigma, lo, hi, y)
    cuts = [0, 1000, 1001, 3000, n]
    parts = np.concatenate([gf.expected_running_reward(fbar, c, mp.sigma, lo[i:j], hi[i:j], y[i:j])
                            for i, j in zip(cuts, cuts[1:])])
    assert np.array_equal(whole, parts)
    for k in (0, 2048, n - 1):
        assert gf.expected_running_reward(fbar, c, mp.sigma, lo[k], hi[k], y[k]) == whole[k]


def test_renewal_matches_solver_value(mp, cp, sol):
    value = gf.evaluate_policy_renewal(mp, cp, sol.candidate)
    assert abs(value - (mp.r + sol.candidate.l)) <= 1e-8


def test_renewal_matches_monte_carlo(mp, cp, sol):
    cfg = gf.SimConfig(horizon=50.0, dt=1e-3, n_paths=200, base_seed=2)
    est = gf.estimate_growth_impulse(mp, cp, sol.candidate, cfg)
    value = gf.evaluate_policy_renewal(mp, cp, sol.candidate)
    assert abs(est.mean_growth - value) <= 3 * est.std_error


def test_renewal_decreases_with_delta(mp, cp, sol):
    heavier = gf.CostParams(delta=2e-3, gamma=cp.gamma)
    v1 = gf.evaluate_policy_renewal(mp, cp, sol.candidate)
    v2 = gf.evaluate_policy_renewal(mp, heavier, sol.candidate)
    assert v2 < v1


def test_renewal_rejects_degenerate_chain(mp, cp):
    cand = gf.BoundaryCandidate(l=0.02, x0=0.3, a=0.2, alpha=0.2 + 1e-13,
                                beta=0.3, b=0.9)
    with pytest.raises(gf.DegenerateChain):
        gf.evaluate_policy_renewal(mp, cp, cand)


def _row_by_row(mp, cp, a, al, be, b):
    return np.array([gf.evaluate_policy_renewal(mp, cp, gf.BoundaryCandidate(
        l=0.02, x0=0.5 * (v[1] + v[2]), a=v[0], alpha=v[1], beta=v[2], b=v[3]))
        for v in zip(a, al, be, b)])


def test_renewal_batch_shares_exit_problems_exactly(mp, cp, sol):
    # a shuffled batch whose candidates repeat (a, b, alpha) and (a, b, beta)
    # triples, and some whole rows, prices each row as a batch of one does
    c = sol.candidate
    offs = np.array([-2e-3, 0.0, 3e-3])
    grid = np.meshgrid(c.a + offs, c.alpha + offs, c.beta + offs, c.b + offs, indexing="ij")
    a, al, be, b = (g.ravel() for g in grid)
    rng = np.random.default_rng(7)
    rows = rng.permutation(np.concatenate([np.arange(a.size), rng.integers(0, a.size, 20)]))
    a, al, be, b = a[rows], al[rows], be[rows], b[rows]
    batch = lab._renewal_batch(mp, cp, a, al, be, b)
    assert np.array_equal(batch, _row_by_row(mp, cp, a, al, be, b))
    assert np.array_equal(batch, renewal_batch(mp, cp, a, al, be, b))


def test_renewal_batch_prices_exactly_the_ordered_candidates(mp, cp, sol):
    # axes that cross one another: a candidate reads -inf exactly when it
    # breaks a < alpha <= beta < b, and alpha = beta (one restart point) is
    # priced
    c = sol.candidate
    a = np.array([c.a, c.alpha, c.alpha + 1e-2])
    al = np.array([c.alpha, c.beta, c.beta + 1e-2])
    be = np.array([c.alpha - 1e-2, c.alpha, c.beta])
    b = np.array([c.beta, c.b])
    cand = np.broadcast_arrays(*np.ix_(a, al, be, b))
    values = lab._renewal_batch(mp, cp, *cand)
    ordered = (cand[0] < cand[1]) & (cand[1] <= cand[2]) & (cand[2] < cand[3])
    assert np.any(ordered & (cand[1] == cand[2])) and np.any(~ordered)
    assert np.all(values[~ordered] == -np.inf)
    assert np.array_equal(values[ordered], _row_by_row(mp, cp, *(v[ordered] for v in cand)))


def test_oracle_box_equals_the_flat_reference(mp, cp, sol):
    # fig2's 21^4 oracle box in meshgrid order: its 4,410 candidates with
    # alpha > beta read -inf, every other one the flat evaluator's value
    c = sol.candidate
    values = box_rows(gf.brute_force_boundaries(mp, cp, c, radius=0.02, step=2e-3))
    offs = np.arange(-10, 11) * 2e-3
    grid = np.meshgrid(c.a + offs, c.alpha + offs, c.beta + offs, c.b + offs, indexing="ij")
    assert np.array_equal(values[:, :4], np.column_stack([g.ravel() for g in grid]))
    crossed = values[:, 1] > values[:, 2]
    assert np.count_nonzero(crossed) == 4410
    assert np.all(values[crossed, 4] == -np.inf)
    assert np.array_equal(values[~crossed, 4], renewal_batch(mp, cp, *values[~crossed, :4].T))


def test_oracle_quadrature_prices_each_side_on_its_own_axes(mp, cp, sol, monkeypatch):
    # what the oracle subcommand prices on fig2: the cold seed, which prices
    # in closed form and integrates no Green side, then the 21^4 box, each
    # of whose one-sided Green integrals is priced once on its own two axes
    # (4 x 21^2 rows)
    rows = []
    side = lab._green_side
    monkeypatch.setattr(lab, "_green_side", lambda fn, za, zb, kernel: rows.append(
        np.broadcast(za, zb).size) or side(fn, za, zb, kernel))
    qvi._oracle_seed(mp, cp, *_slope.best_band(mp, cp.gamma)[2:])
    assert rows == []
    rows.clear()
    gf.brute_force_boundaries(mp, cp, sol.candidate, radius=0.02, step=2e-3)
    assert sum(rows) == 4 * 21 ** 2


def test_brute_force_values_equal_row_by_row(mp, cp, sol):
    values = box_rows(gf.brute_force_boundaries(mp, cp, sol.candidate, radius=4e-3, step=2e-3))
    assert np.array_equal(values[:, 4], _row_by_row(mp, cp, *values[:, :4].T))


def test_degenerate_chain_names_first_degenerate_candidate(mp, cp):
    # rows 1 and 3 are absorbing; row 3 sorts first by a, row 1 comes first
    a = np.array([0.3, 0.2, 0.3, 0.1, 0.3])
    al = np.array([0.4, 0.2 + 1e-13, 0.4, 0.15, 0.4])
    be = np.array([0.6, 0.3, 0.6, 0.9 - 1e-13, 0.6])
    b = np.array([0.8, 0.9, 0.8, 0.9, 0.8])
    c = mp.mu - mp.r - 0.5 * mp.sigma**2
    lo, hi = gf.to_centered(a[1]), gf.to_centered(b[1])
    p_low = gf.exit_prob_up(c, mp.sigma, lo, hi, gf.to_centered(al[1]))
    p_high = gf.exit_prob_up(c, mp.sigma, lo, hi, gf.to_centered(be[1]))
    with pytest.raises(gf.DegenerateChain) as err:
        lab._renewal_batch(mp, cp, a, al, be, b)
    assert f"p(alpha)={p_low:.3e}, p(beta)={p_high:.3e}" in str(err.value)


def test_renewal_rejects_bad_ordering(mp, cp):
    cand = gf.BoundaryCandidate(l=0.02, x0=0.3, a=0.5, alpha=0.4, beta=0.6, b=0.9)
    with pytest.raises(ValueError):
        gf.evaluate_policy_renewal(mp, cp, cand)


def test_brute_force_finds_solver_candidate(mp, cp, sol):
    res = gf.brute_force_boundaries(mp, cp, sol.candidate, radius=4e-3, step=2e-3)
    c, b = sol.candidate, res.best
    step = 2e-3 * (1 + 1e-9)
    assert abs(b.a - c.a) <= step and abs(b.alpha - c.alpha) <= step
    assert abs(b.beta - c.beta) <= step and abs(b.b - c.b) <= step
    assert res.best_value >= res.growth.max() - 1e-15


def test_brute_force_grid_refinement_stable(mp, cp, sol):
    coarse = gf.brute_force_boundaries(mp, cp, sol.candidate, radius=4e-3, step=2e-3)
    fine = gf.brute_force_boundaries(mp, cp, sol.candidate, radius=4e-3, step=1e-3)
    for u, v in zip((coarse.best.a, coarse.best.alpha, coarse.best.beta, coarse.best.b),
                    (fine.best.a, fine.best.alpha, fine.best.beta, fine.best.b)):
        assert abs(u - v) <= 2e-3 * (1 + 1e-9)


def test_brute_force_rejects_bad_grid(mp, cp, sol):
    with pytest.raises(ValueError):
        gf.brute_force_boundaries(mp, cp, sol.candidate, radius=0.2, step=0.05)


@pytest.mark.parametrize("radius, step", [
    (0.02, 0.0), (0.02, -2e-3), (0.02, np.inf), (0.02, np.nan),
    (-0.02, 2e-3), (np.inf, 2e-3), (np.nan, 2e-3),
], ids=["step=0", "step<0", "step=inf", "step=nan", "radius<0", "radius=inf", "radius=nan"])
def test_brute_force_checks_its_step_and_radius(mp, cp, sol, radius, step, monkeypatch):
    # named before the box is built, where each failed in its own way
    monkeypatch.setattr(lab, "_renewal_batch", lambda *args: pytest.fail("priced a box"))
    with pytest.raises(ValueError, match=r"^the search box needs 0 < step < inf and "
                                         r"0 <= radius < inf; got step="):
        gf.brute_force_boundaries(mp, cp, sol.candidate, radius=radius, step=step)


def test_brute_force_checks_the_box_it_prices():
    # at the hhat = 0.9 anchor, radius/step = 1.6 rounds to k = 2 steps, so
    # the priced box reaches 1.25 radius past b and leaves (0, 1) although
    # the radius alone does not
    mp = gf.MarketParams(r=0.01, mu=0.154, sigma=0.4)
    cp = gf.CostParams(delta=1e-3, gamma=GAMMA)
    c = gf.solve_boundaries(mp, cp).candidate
    radius = 0.9 * (1 - c.b)
    with pytest.raises(ValueError, match=r"search box of radius .* leaves \(0, 1\)"):
        gf.brute_force_boundaries(mp, cp, c, radius=radius, step=radius / 1.6)


def test_sweep_monotone(sweep, mp):
    rows = sweep.rows
    assert all(r2.gap_lo < r1.gap_lo for r1, r2 in zip(rows, rows[1:]))
    assert all(r2.gap_hi < r1.gap_hi for r1, r2 in zip(rows, rows[1:]))
    assert all(r2.rho > r1.rho for r1, r2 in zip(rows, rows[1:]))
    limit_rho = mp.r + sweep.limit.candidate.l0
    assert all(r.rho < limit_rho for r in rows)
    assert rows[-1].dist_A < 1e-2 and rows[-1].dist_B < 1e-2


@pytest.mark.parametrize("gap, rate", [
    (lambda table, row: row.gap_lo, 1 / 3),
    (lambda table, row: row.gap_hi, 1 / 3),
    (lambda table, row: table.limit.candidate.l0 - row.l, 2 / 3),
], ids=["gap_lo", "gap_hi", "l0-l"])
def test_the_sweep_reaches_the_papers_rates(sweep, gap, rate):
    # the boundary gaps scale as delta^(1/3) and the growth as delta^(2/3):
    # each row-to-row log-log slope rises towards its rate, and the last,
    # between delta = 1e-5 and 1e-6, lies within 0.01 of it
    deltas = [row.delta for row in sweep.rows]
    slopes = np.diff(np.log([gap(sweep, row) for row in sweep.rows])) / np.diff(np.log(deltas))
    assert np.all(np.diff(slopes) > 0.0)
    assert abs(slopes[-1] - rate) <= 0.01


def test_sweep_rows_satisfy_candidate_invariants(sweep):
    for row in sweep.rows:
        assert 0 < row.a < row.alpha < row.beta < row.b < 1
        assert 0.016 < row.l < 0.0288
        assert row.gap_lo > 0 and row.gap_hi > 0


def test_sweep_input_validation(mp):
    with pytest.raises(ValueError):
        gf.sweep_delta(mp, GAMMA, [1e-3, 1e-2])
    with pytest.raises(ValueError):
        gf.sweep_delta(mp, GAMMA, [0.9999])
    with pytest.raises(ValueError):
        gf.sweep_delta(mp, GAMMA, [])


def test_report_clean_sweep_has_no_flags(sweep):
    report = gf.convergence_report(sweep)
    assert report.flags == ()
    assert report.slope_l_gap > 0
    assert report.slope_gap_lo > 0 and report.slope_gap_hi > 0
    assert "flags                : 0" in report.text()


def test_report_flags_swapped_rows(sweep):
    rows = list(sweep.rows)
    rows[2], rows[3] = rows[3], rows[2]
    swapped = dataclasses.replace(sweep, rows=tuple(rows))
    report = gf.convergence_report(swapped)
    assert len(report.flags) == 1
