import dataclasses

import numpy as np
import pytest

import growth_frictions as gf
from growth_frictions.market import EPS

GAMMA = 0.003


def test_residuals_vanish_at_solution(mp, lim):
    res = gf.residual_system_limit(mp, GAMMA, lim.candidate)
    assert np.max(np.abs(res)) <= 1e-10
    assert lim.residual_norm <= 1e-10


def test_residuals_react_to_perturbation(mp, lim):
    cand = dataclasses.replace(lim.candidate, B=lim.candidate.B + 1e-3)
    res = gf.residual_system_limit(mp, GAMMA, cand)
    assert abs(res[1]) + abs(res[3]) > 1e-6


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


def test_hjb_verification_passes(mp, lim):
    report = gf.verify_hjb_limit(mp, GAMMA, lim, 2001, tol=1e-6)
    assert report.passed
    assert report.second_deriv_mismatch <= 1e-6


def test_hjb_gradient_strict_inside(mp, lim):
    value = gf.build_limit_value(mp, GAMMA, lim)
    xs = np.linspace(lim.candidate.A + 1e-6, 1 - EPS, 200)
    margin = GAMMA / (1 + GAMMA * xs) - value.du(xs)
    assert np.all(margin > 0)


def test_hjb_detects_corrupted_growth_rate(mp, lim):
    value = gf.build_limit_value(mp, GAMMA, lim)
    corrupted = dataclasses.replace(
        lim, candidate=dataclasses.replace(lim.candidate, l0=lim.candidate.l0 + 1e-4))
    report = gf.verify_hjb_limit(mp, GAMMA, corrupted, 501, tol=1e-6, value=value)
    assert report.max_interior_residual > 5e-5
    assert not report.passed


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
