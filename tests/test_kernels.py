"""The residuals, the seed's closed form and the value function evaluate the
slope kernels below one domain check.  Every result here must equal, bit
for bit, the checked one-call-per-row forms of ``kernel_reference``; both
run in this process, so the comparison holds whatever SIMD paths the CPU
takes.  The residuals' one check must still stop a NaN in any unknown; the
public primitives' checks are pinned by test_market."""

import contextlib
import dataclasses

import numpy as np
import pytest

import growth_frictions as gf
from growth_frictions import _slope, limit, qvi
from kernel_reference import (ddu, du, e1, e2, policy_value, residual_system,
                              residual_system_limit, slope_g, slope_g_dx, slope_g_integral, u)
from newton_reference import ANCHORS, is_stacked, record_residual

MARKETS = [gf.MarketParams(r=0.0, mu=hhat * 0.16, sigma=0.4) for hhat in (0.02, 0.5, 0.6, 0.97)]


def _same(new, old):
    """Equal bit for bit, in type (float or array) and shape too."""
    assert type(new) is type(old)
    assert np.array_equal(new, old, equal_nan=True)
    assert np.array_equal(np.signbit(new), np.signbit(old))


def test_expm1_quotients_are_the_masked_forms():
    ulp = np.spacing(1e-3)
    edge = [1e-3 - ulp, 1e-3, 1e-3 + ulp]
    z = np.concatenate([[0.0, -0.0, np.nan, np.inf, -np.inf], edge, np.negative(edge),
                        np.random.default_rng(3).normal(0.0, 1.0, 50),
                        np.random.default_rng(4).normal(0.0, 1e-3, 50)])
    for new, old in ((_slope._e1, e1), (_slope._e2, e2)):
        with np.errstate(invalid="ignore"):
            _same(new(z), old(z))
            _same(new(z.reshape(3, -1)), old(z.reshape(3, -1)))
            for v in z:
                _same(new(v), old(v))


@pytest.mark.parametrize("mp", MARKETS, ids=lambda mp: f"mu{mp.mu:g}")
def test_slope_kernels_are_the_checked_forms(mp):
    rng = np.random.default_rng(11)
    x, x_to = rng.uniform(1e-7, 1.0 - 1e-7, (2, 40, 6))
    x0, l = rng.uniform(0.01, 0.99, 6), rng.normal(0.0, 0.02, 6)
    _same(_slope.slope_g(mp, x, x0, l), slope_g(mp, x, x0, l))
    _same(_slope.slope_g_dx(mp, x, x0, l), slope_g_dx(mp, x, x0, l))
    _same(_slope.slope_g_integral(mp, x, x_to, x0, l), slope_g_integral(mp, x, x_to, x0, l))
    for args in ((0.3, 0.55, 0.02), (0.8, 0.55, -0.01)):
        _same(_slope.slope_g(mp, *args), slope_g(mp, *args))
        _same(_slope.slope_g_dx(mp, *args), slope_g_dx(mp, *args))
        _same(_slope.slope_g_integral(mp, 0.1, *args), slope_g_integral(mp, 0.1, *args))


@pytest.mark.parametrize("r, mu, sigma, gamma, delta", ANCHORS)
def test_residuals_are_the_checked_forms_at_every_solver_call(r, mu, sigma, gamma, delta):
    # every candidate a cold impulse solve and a cold limit solve evaluate,
    # single and stacked Jacobian blocks alike
    mp = gf.MarketParams(r=r, mu=mu, sigma=sigma)
    cp = gf.CostParams(delta=delta, gamma=gamma)
    with contextlib.suppress(gf.ParameterDegeneracy):  # the infeasible anchor has no seed
        _, impulse = record_residual(qvi, "residual_system",
                                     lambda: gf.solve_boundaries(mp, cp))
        assert any(map(is_stacked, impulse))
        for cand in impulse:
            _same(qvi.residual_system(mp, cp, cand), residual_system(mp, cp, cand))
    _, reflecting = record_residual(limit, "residual_system_limit",
                                    lambda: gf.solve_limit(mp, gamma))
    assert any(map(is_stacked, reflecting))
    for cand in reflecting:
        _same(limit.residual_system_limit(mp, gamma, cand),
              residual_system_limit(mp, gamma, cand))


@pytest.mark.parametrize("r, mu, sigma, gamma, delta", ANCHORS)
def test_each_column_of_a_block_is_the_single_call(r, mu, sigma, gamma, delta):
    # what one residual call per damped Newton step rests on: an (n, n+1)
    # block, at seeded perturbations of both roots, prices every column as
    # that column alone
    mp = gf.MarketParams(r=r, mu=mu, sigma=sigma)
    cp = gf.CostParams(delta=delta, gamma=gamma)
    rng = np.random.default_rng(30)
    systems = [(gf.LimitCandidate, gf.solve_limit(mp, gamma).candidate,
                lambda c: limit.residual_system_limit(mp, gamma, c))]
    with contextlib.suppress(gf.ParameterDegeneracy):  # the infeasible anchor has no seed
        systems.append((gf.BoundaryCandidate, gf.solve_boundaries(mp, cp).candidate,
                        lambda c: qvi.residual_system(mp, cp, c)))
    assert len(systems) == 1 + (mu != 0.144)
    for cls, root, residual in systems:
        v = root.as_vector()
        for scale in (1e-9, 1e-7, 1e-5, 1e-3):
            block = v[:, None] * (1.0 + rng.normal(0.0, scale, (v.size, v.size + 1)))
            priced = residual(cls.from_vector(block))
            for j in range(v.size + 1):
                _same(priced[:, j], residual(cls.from_vector(block[:, j])))


@pytest.mark.parametrize("r, mu, sigma, gamma, delta", ANCHORS)
def test_seed_grids_price_as_the_checked_form(r, mu, sigma, gamma, delta, monkeypatch):
    mp = gf.MarketParams(r=r, mu=mu, sigma=sigma)
    cp = gf.CostParams(delta=delta, gamma=gamma)
    grids = []
    price = _slope.policy_value
    monkeypatch.setattr(qvi, "policy_value",
                        lambda mp, cp, *axes: grids.append(axes) or price(mp, cp, *axes))
    with contextlib.suppress(gf.ParameterDegeneracy):
        qvi._oracle_seed(mp, cp, *_slope.best_band(mp, gamma)[2:])
    assert len(grids) == 2
    for axes in grids:
        _same(price(mp, cp, *axes), policy_value(mp, cp, *axes))


def test_value_derivatives_are_the_checked_forms(mp, cp, vf, lim):
    curves = [vf, limit.build_limit_value(mp, cp.gamma, lim)]
    for curve in curves:
        _, _, a, al, be, b = curve.anchor
        x = np.concatenate([np.linspace(0.0, 1.0, 2001), [a, al, be, b, np.nan]])
        for new, old in ((curve.u, u), (curve.du, du), (curve.ddu, ddu)):
            _same(new(x), old(curve, x))
            _same(new(x.reshape(2, -1)), old(curve, x.reshape(2, -1)))
            for v in x[::97]:
                _same(new(v), old(curve, v))


# the knife edge hhat = 1/2 exactly, where p = 0: every e1 is its fill and every e2 its series
KNIFE = gf.MarketParams(r=0.0, mu=0.125, sigma=0.5)
# (l, x0, a, alpha, beta, b) that no anchor solve visits: a plain band, alpha = beta,
# x0 at alpha and at b (p u = 0, e1's fill) and |p dt| < 1e-3 (e2's series)
OFF_PATH = [(0.02, 0.5, 0.3, 0.4, 0.6, 0.7), (0.02, 0.5, 0.3, 0.5, 0.5, 0.7),
            (0.01, 0.4, 0.3, 0.4, 0.6, 0.7), (0.01, 0.7, 0.3, 0.4, 0.6, 0.7),
            (0.02, 0.5, 0.4, 0.4 + 1e-5, 0.6 - 1e-5, 0.6)]


def _off_path_stacks(width):
    """The OFF_PATH rows as float candidates, then seeded stacks of 1 to 8 of
    them as (width, k) blocks, for a candidate of width fields."""
    rows = np.array(OFF_PATH).T
    rows = rows if width == 6 else rows[[0, 1, 3, 5]]  # the limit's (l0, x0, A, B)
    rng = np.random.default_rng(46)
    return [rows[:, j].tolist() for j in range(rows.shape[1])] + [
        rows[:, rng.integers(rows.shape[1], size=k)] for k in range(1, 9)]


@pytest.mark.parametrize("mp", [KNIFE, MARKETS[2]], ids=["knife_edge", "mu0.096"])
def test_residuals_are_the_checked_forms_off_the_solver_path(mp, cp):
    for v in _off_path_stacks(6):
        cand = gf.BoundaryCandidate.from_vector(v)
        _same(qvi.residual_system(mp, cp, cand), residual_system(mp, cp, cand))
        _same(_slope.policy_value(mp, cp, cand.a, cand.alpha, cand.beta, cand.b),
              policy_value(mp, cp, cand.a, cand.alpha, cand.beta, cand.b))
    for v in _off_path_stacks(4):
        cand = gf.LimitCandidate.from_vector(v)
        _same(limit.residual_system_limit(mp, cp.gamma, cand),
              residual_system_limit(mp, cp.gamma, cand))


@pytest.mark.parametrize("case", OFF_PATH)
def test_a_knife_edge_value_curve_is_the_checked_form(cp, case):
    cand = gf.BoundaryCandidate(*case)
    curves = [_slope.ValueFunction(KNIFE, cp, cand, case),
              _slope.ValueFunction(KNIFE, gf.CostParams(0.0, cp.gamma), cand,
                                   (case[0], case[1], case[2], case[2], case[5], case[5]))]
    x = np.linspace(0.0, 1.0, 2001)
    for curve in curves:
        for new, old in ((curve.u, u), (curve.du, du), (curve.ddu, ddu)):
            _same(new(x), old(curve, x))
            _same(new(case[3]), old(curve, case[3]))


def test_the_closed_forms_form_no_slope_at_their_ends(cp):
    # at hhat 0.97 g itself overflows at alpha = 1e-250, where the integrals
    # end: policy_value and slope_g_integral form the integrals' terms, not g
    mp, ends = MARKETS[3], (1e-300, 1e-250)
    _same(_slope.policy_value(mp, cp, *ends, 0.5, 0.6), policy_value(mp, cp, *ends, 0.5, 0.6))
    _same(_slope.slope_g_integral(mp, *ends, 0.5, 0.01), slope_g_integral(mp, *ends, 0.5, 0.01))


FIELDS = [f.name for f in dataclasses.fields(gf.BoundaryCandidate)]
LIMIT_FIELDS = [f.name for f in dataclasses.fields(gf.LimitCandidate)]


@pytest.mark.parametrize("field", FIELDS)
def test_a_nan_in_any_field_stops_the_impulse_residual(mp, cp, sol, field):
    cand = sol.candidate
    with pytest.raises(gf.ParameterDegeneracy):
        qvi.residual_system(mp, cp, dataclasses.replace(cand, **{field: np.nan}))
    block = np.repeat(cand.as_vector()[:, None], 3, axis=1)
    block[FIELDS.index(field), 1] = np.nan
    with pytest.raises(gf.ParameterDegeneracy):
        qvi.residual_system(mp, cp, gf.BoundaryCandidate.from_vector(block))


@pytest.mark.parametrize("field", LIMIT_FIELDS)
def test_a_nan_in_any_field_stops_the_limit_residual(mp, lim, field):
    cand = lim.candidate
    with pytest.raises(gf.ParameterDegeneracy):
        limit.residual_system_limit(mp, 0.003, dataclasses.replace(cand, **{field: np.nan}))
    block = np.repeat(cand.as_vector()[:, None], 3, axis=1)
    block[LIMIT_FIELDS.index(field), 2] = np.nan
    with pytest.raises(gf.ParameterDegeneracy):
        limit.residual_system_limit(mp, 0.003, gf.LimitCandidate.from_vector(block))
