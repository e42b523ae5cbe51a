"""Cold solves at seeded random draws of (hhat, gamma, delta), at r = 0 and
sigma = 0.4 (mu = hhat sigma^2).

Every point either verifies at 2001 grid points or is rejected by name
(ParameterDegeneracy), except the listed points.  Each listed point keeps its
current outcome: a band that holds no grid point, a limit root that fails
only the C2 gate, or NonConvergence.  So a change that moves a point in
either direction has to edit its list, and never by re-seeding or resizing
a draw.  impulse_outcome and limit_outcome also classify the grid gauges
and the ledger.

A log-uniform value on (lo, hi) is 10 ** rng.uniform(log10 lo, log10 hi).
Each draw takes its values in the order written below.

- Interior: numpy default_rng(12345), 400 draws.  hhat is uniform on
  (0.002, 0.998), gamma log-uniform on (1e-6, 0.3), and delta log-uniform on
  (1e-8, min(0.05, 0.9 (1 - gamma))).
- Edges: default_rng(777), 300 draws.  e is log-uniform on (1e-9, 0.5),
  hhat is e if rng.random() < 0.5 and 1 - e otherwise, gamma is log-uniform
  on (1e-8, 0.95), and delta log-uniform on (1e-10, min(0.5, 0.95 (1 - gamma))).
"""

from collections import Counter
from functools import cache

import numpy as np
import pytest

import growth_frictions as gf
from growth_frictions import lab, limit
from asymptotics_reference import edge_distance

SIGMA, GRID_N = 0.4, 2001
VERIFIED, NAMED, NO_GRID_POINT, C2_ONLY, NON_CONVERGENCE = (
    "verified", "named", "no grid point", "C2 only", "NonConvergence")


def _log_uniform(rng, lo, hi):
    return 10 ** rng.uniform(np.log10(lo), np.log10(hi))


def interior_draw():
    rng, points = np.random.default_rng(12345), []
    for _ in range(400):
        hhat = rng.uniform(0.002, 0.998)
        gamma = _log_uniform(rng, 1e-6, 0.3)
        points.append((hhat, gamma, _log_uniform(rng, 1e-8, min(0.05, 0.9 * (1.0 - gamma)))))
    return points


def edge_draw():
    rng, points = np.random.default_rng(777), []
    for _ in range(300):
        e = _log_uniform(rng, 1e-9, 0.5)
        hhat = e if rng.random() < 0.5 else 1.0 - e
        gamma = _log_uniform(rng, 1e-8, 0.95)
        points.append((hhat, gamma, _log_uniform(rng, 1e-10, min(0.5, 0.95 * (1.0 - gamma)))))
    return points


DRAWS = {"interior": interior_draw(), "edges": edge_draw()}

# draw index -> outcome, for the points that neither verify nor are named
LISTED = {
    ("interior", "impulse"): dict.fromkeys([39, 154, 186, 208, 218, 289], NON_CONVERGENCE),
    ("interior", "limit"): {},
    ("edges", "impulse"): {282: NON_CONVERGENCE,
                           **dict.fromkeys([81, 90, 93, 115, 117, 191], NO_GRID_POINT)},
    ("edges", "limit"): {
        **dict.fromkeys([13, 15, 39, 42, 44, 64, 89, 109, 126, 169, 188, 202, 231, 247, 255,
                         289, 299], NON_CONVERGENCE),
        **dict.fromkeys([190, 217, 268], C2_ONLY),
        **dict.fromkeys([0, 21, 23, 24, 25, 29, 33, 37, 38, 40, 49, 55, 57, 60, 65, 67, 78, 80,
                         81, 87, 90, 93, 95, 98, 105, 107, 110, 115, 117, 118, 121, 127, 129,
                         132, 133, 137, 138, 149, 155, 156, 177, 179, 184, 191, 192, 198, 199,
                         200, 201, 214, 224, 226, 227, 235, 243, 244, 245, 249, 253, 258, 276,
                         283, 291, 293], NO_GRID_POINT)},
}
COUNTS = {
    ("interior", "impulse"): {VERIFIED: 380, NAMED: 14, NON_CONVERGENCE: 6},
    ("interior", "limit"): {VERIFIED: 400},
    ("edges", "impulse"): {VERIFIED: 65, NAMED: 228, NO_GRID_POINT: 6, NON_CONVERGENCE: 1},
    ("edges", "limit"): {VERIFIED: 85, NAMED: 131, NO_GRID_POINT: 64, C2_ONLY: 3,
                         NON_CONVERGENCE: 17},
}


def _market(hhat):
    return gf.MarketParams(r=0.0, mu=hhat * SIGMA * SIGMA, sigma=SIGMA)


def impulse_outcome(mp, cp, grid_n):
    """(outcome, the solution or the raised error, the report it was
    classified by or None for an error) of a cold impulse solve."""
    try:
        sol = gf.solve_boundaries(mp, cp)
    except (gf.ParameterDegeneracy, gf.NonConvergence) as err:
        return (NAMED if isinstance(err, gf.ParameterDegeneracy) else NON_CONVERGENCE), err, None
    report = gf.verify_qvi(mp, cp, gf.build_value(mp, cp, sol), grid_n)
    if report.passed:
        return VERIFIED, sol, report
    return (NO_GRID_POINT if report.unresolved_band else "failed"), sol, report


def limit_outcome(mp, gamma, grid_n):
    """(outcome, the solution or the raised error, the HJB report it was
    classified by or None for an error) of a cold limit solve; a root that
    fails only the C2 gate and passes the QVI check is C2 only."""
    try:
        sol = gf.solve_limit(mp, gamma)
    except (gf.ParameterDegeneracy, gf.NonConvergence) as err:
        return (NAMED if isinstance(err, gf.ParameterDegeneracy) else NON_CONVERGENCE), err, None
    report = gf.verify_hjb_limit(mp, gamma, sol, grid_n)
    if report.passed:
        return VERIFIED, sol, report
    if report.unresolved_band:
        return NO_GRID_POINT, sol, report
    value = gf.build_limit_value(mp, gamma, sol)
    if (report.second_deriv_mismatch > limit.SECOND_ORDER_TOL
            and gf.verify_qvi(mp, gf.CostParams(0.0, gamma), value, grid_n).passed):
        return C2_ONLY, sol, report
    return "failed", sol, report


@cache
def _outcomes(draw, model):
    """impulse_outcome or limit_outcome at each point of a draw, once per session."""
    if model == "impulse":
        return [impulse_outcome(_market(hhat), gf.CostParams(delta=delta, gamma=gamma), GRID_N)
                for hhat, gamma, delta in DRAWS[draw]]
    return [limit_outcome(_market(hhat), gamma, GRID_N) for hhat, gamma, _ in DRAWS[draw]]


@pytest.mark.parametrize("draw, model", list(COUNTS), ids=[f"{d}-{m}" for d, m in COUNTS])
def test_every_drawn_point_verifies_or_is_named_or_keeps_its_listed_outcome(draw, model):
    outcomes = [outcome for outcome, _, _ in _outcomes(draw, model)]
    others = {i: outcome for i, outcome in enumerate(outcomes)
              if outcome not in (VERIFIED, NAMED)}
    assert others == LISTED[draw, model]
    assert Counter(outcomes) == COUNTS[draw, model]


@pytest.mark.parametrize("draw", list(DRAWS))
def test_the_oracle_prices_every_verified_impulse_root_at_its_growth(draw):
    # lab's renewal quadrature is independent of the solvers' closed forms
    worst, verified = 0.0, 0
    for (hhat, gamma, delta), (outcome, sol, _) in zip(DRAWS[draw], _outcomes(draw, "impulse")):
        if outcome != VERIFIED:
            continue
        mp, c = _market(hhat), sol.candidate
        growth = lab._renewal_batch(mp, gf.CostParams(delta=delta, gamma=gamma),
                                    *(np.array([v]) for v in c.policy()[2:]))[0]
        worst, verified = max(worst, abs(growth - (mp.r + c.l))), verified + 1
    assert verified == COUNTS[draw, "impulse"][VERIFIED]
    assert worst <= 1e-12


def test_edge_distance_separates_named_from_verified_limit_points_of_the_edge_draw():
    # every named point lies nearer an edge, in rho, than every verified one
    rho = {VERIFIED: [], NAMED: []}
    for (hhat, gamma, _), (outcome, _, _) in zip(DRAWS["edges"], _outcomes("edges", "limit")):
        if outcome in rho:
            rho[outcome].append(edge_distance(hhat, gamma))
    assert (len(rho[NAMED]), round(max(rho[NAMED]), 3)) == (131, 0.416)
    assert (len(rho[VERIFIED]), round(min(rho[VERIFIED]), 3)) == (85, 0.500)
    assert max(rho[NAMED]) < min(rho[VERIFIED])
