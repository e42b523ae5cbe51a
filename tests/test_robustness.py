"""Solver robustness across the admissible parameter domain.

The reference suite runs one parameter family; these cases stress lopsided
Merton fractions (where the no-trade region opens very asymmetrically and
the symmetric continuation seed fails without the renewal-search fallback),
the knife-edge drift, and heavier frictions.  At a fixed Merton fraction
hhat, sigma and r only rescale time and shift the growth rate, which pins
every solver output across markets.
"""

import numpy as np
import pytest

import growth_frictions as gf
from growth_frictions import lab, qvi
from growth_frictions.cli import DEFAULT_SWEEP_DELTAS

CASES = [
    # (market params, gamma, delta)
    (dict(r=0.0, mu=0.040, sigma=0.4), 0.003, 1e-3),    # hhat = 0.25
    (dict(r=0.0, mu=0.040, sigma=0.4), 0.05, 5e-3),
    (dict(r=0.01, mu=0.154, sigma=0.4), 0.003, 1e-3),   # hhat = 0.9
    (dict(r=0.02, mu=0.100, sigma=0.4), 0.02, 1e-2),    # hhat = 1/2 knife edge
    (dict(r=0.03, mu=0.090, sigma=0.3), 0.05, 5e-3),    # hhat = 2/3
]


@pytest.mark.parametrize("params,gamma,delta", CASES)
def test_solver_across_regimes(params, gamma, delta):
    mp = gf.MarketParams(**params)
    cp = gf.CostParams(delta=delta, gamma=gamma)
    sol = gf.solve_boundaries(mp, cp)
    assert sol.residual_norm <= 1e-10
    c = sol.candidate
    assert 0 < c.a < c.alpha < c.x0 < c.beta < c.b < 1
    floor = max(gf.growth_integrand(mp, 0.0), gf.growth_integrand(mp, 1.0))
    assert floor < c.l < gf.growth_integrand(mp, gf.merton_fraction(mp))

    vf = gf.build_value(mp, cp, sol)
    assert gf.verify_qvi(mp, cp, vf, 501).passed

    renewal = gf.evaluate_policy_renewal(mp, cp, sol.candidate)
    assert abs(renewal - (mp.r + c.l)) <= 1e-8

    lim = gf.solve_limit(mp, gamma)
    assert lim.candidate.l0 > c.l
    assert gf.verify_hjb_limit(mp, gamma, lim, 501).passed


# (hhat, gamma, delta), each solved in the six markets r + hhat sigma^2 below
SCALED_POINTS = [(0.6, 3e-3, 1e-3), (0.15, 2e-2, 1e-4), (0.9, 5e-2, 1e-3)]
SCALES = [(sigma, r) for sigma in (0.05, 0.4, 1.3) for r in (0.0, 0.05)]


def _scaled(hhat, sigma, r):
    return gf.MarketParams(r=r, mu=r + hhat * sigma * sigma, sigma=sigma)


@pytest.mark.parametrize("hhat, gamma, delta", SCALED_POINTS)
def test_the_solutions_depend_on_the_market_only_through_hhat(hhat, gamma, delta):
    # in time units of 1/sigma^2 the fraction diffuses with drift
    # h(1-h)(hhat - h) and volatility h(1-h), and r leaves the excess growth:
    # boundaries, x0 and the limit band are functions of (hhat, gamma, delta),
    # and every growth excess is sigma^2 times one
    cp = gf.CostParams(delta=delta, gamma=gamma)
    points, rates = [], []
    for sigma, r in SCALES:
        mp = _scaled(hhat, sigma, r)
        c = gf.solve_boundaries(mp, cp).candidate
        lim = gf.solve_limit(mp, gamma).candidate
        renewal = lab._renewal_batch(mp, cp, *(np.array([v]) for v in c.policy()[2:]))[0]
        points.append(list(c.policy()[1:]) + [lim.x0, lim.A, lim.B])
        rates.append(np.array([c.l, lim.l0, renewal - r]) / (sigma * sigma))
    assert np.max(np.abs(np.array(points) - points[0])) <= 1e-11
    assert np.max(np.abs(np.array(rates) / rates[0] - 1.0)) <= 1e-11


@pytest.mark.parametrize("sigma, r", SCALES)
def test_no_interior_optimum_is_named_in_every_scaled_market(sigma, r):
    with pytest.raises(gf.ParameterDegeneracy, match="^no interior optimum"):
        gf.solve_boundaries(_scaled(0.9, sigma, r), gf.CostParams(delta=1e-2, gamma=5e-2))


def test_a_warm_started_sweep_row_is_the_cold_root(mp, sweep):
    # Newton runs on to the rounding floor from any start, so each fig2 row,
    # warm-started from the row before it, is the cold solve at its delta
    for row in sweep.rows:
        cold = gf.solve_boundaries(mp, gf.CostParams(delta=row.delta, gamma=sweep.gamma))
        c = cold.candidate
        warm_minus_cold = np.subtract((row.l, row.a, row.alpha, row.beta, row.b),
                                      (c.l, c.a, c.alpha, c.beta, c.b))
        assert np.max(np.abs(warm_minus_cold)) <= 1e-12, row.delta


# the ten-delta list of the README's coupling example
TEN_DELTAS = (0.02, 0.01, 0.005, 0.002, 0.001, 5e-4, 2e-4, 1e-4, 5e-5, 2e-5)


def _sweep_rows(mp, deltas):
    return lab.sweep_delta(mp, 0.05, deltas).rows


def _coupling_rows(mp, deltas):
    return gf.couple_paths(mp, 0.05, deltas, gf.SimConfig(horizon=0.1, dt=1e-3, n_paths=2))


@pytest.mark.parametrize("walk", [_sweep_rows, _coupling_rows], ids=["sweep", "couple"])
@pytest.mark.parametrize("mu, deltas, delta", [(0.040, DEFAULT_SWEEP_DELTAS, 1e-4),
                                               (0.064, TEN_DELTAS, 2e-5)])
def test_the_warm_delta_ladder_solves_where_the_cold_start_does_not(mu, deltas, delta, walk,
                                                                    monkeypatch):
    # hhat 0.25 and 0.4 at gamma 0.05: the cold start's Newton run fails at
    # delta, yet every row of the warm-started sweep and coupling solves and
    # that row verifies, so the ladder's init (qvi._ladder) is needed
    mp = gf.MarketParams(r=0.0, mu=mu, sigma=0.4)
    with pytest.raises(gf.NonConvergence, match="^no start converged"):
        gf.solve_boundaries(mp, gf.CostParams(delta=delta, gamma=0.05))
    solved, solve = {}, qvi.solve_boundaries

    def keep(mp_, cp_, init=None):
        solved[cp_.delta] = solve(mp_, cp_, init)
        return solved[cp_.delta]

    monkeypatch.setattr(qvi, "solve_boundaries", keep)
    assert len(walk(mp, deltas)) == len(deltas)
    cp = gf.CostParams(delta=delta, gamma=0.05)
    assert gf.verify_qvi(mp, cp, gf.build_value(mp, cp, solved[delta]), 2001).passed


def test_a_warm_started_limit_is_the_cold_root(mp, lim):
    # the same for the reflecting limit, warm-started from the root at gamma
    # 0.0031 and solved at fig2's 0.003
    warm = gf.solve_limit(mp, 0.003, init=gf.solve_limit(mp, 0.0031).candidate)
    assert warm.newton_iters > 0
    assert np.max(np.abs(warm.candidate.as_vector() - lim.candidate.as_vector())) <= 1e-12
