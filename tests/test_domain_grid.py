"""Cold solves over domain grids at r=0, sigma=0.4: every combination of
the Merton fraction hhat, the proportional cost gamma and the fixed cost
delta.

On the 84-point grid every point must solve and pass the QVI check at 501
grid points, except two that the cold solve rejects as "no interior
optimum".  Those names are known to be wrong: a constant boundary policy
beats r + max{f(0), f(1)} at both, and Newton from it finds a root that
verifies, but the cold seed's search misses it.  Both the names and the
roots are pinned, so a seed that finds them has to edit the list.

The lopsided grids reach hhat 0.005 and 0.995 and gamma 0.2.  There every
cold impulse solve verifies or is rejected by name; the limit points that
do neither, and those whose best reflecting band does not beat the floor,
are listed with their current outcome, so a change that moves one has to
edit its list.  Each cold solve is classified at 501 grid points by the
draw gauges' impulse_outcome or limit_outcome.
"""

import itertools

import pytest

import growth_frictions as gf
from growth_frictions import _slope, lab, qvi
from growth_frictions.market import from_centered, no_trade_floor, to_centered
from asymptotics_reference import edge_distance
from renewal_reference import assert_seed_names_as_the_oracle, oracle_seed, seed_outcome
import test_random_draws as draws

SIGMA = 0.4
HHATS = (0.1, 0.25, 0.4, 0.5, 0.6, 0.75, 0.9)
GAMMAS = (1e-4, 1e-3, 1e-2, 5e-2)
DELTAS = (1e-5, 1e-3, 1e-2)
NO_INTERIOR_OPTIMUM = {(0.1, 5e-2, 1e-2), (0.9, 5e-2, 1e-2)}
# a policy (a, alpha, beta, b) near the root at each of them, which the
# cold seed does not find
BEATS_THE_FLOOR = {(0.1, 5e-2, 1e-2): (1.0377e-4, 0.049862, 0.099076, 0.352725),
                   (0.9, 5e-2, 1e-2): (0.650187, 0.899399, 0.949398, 0.999934)}

LOPSIDED_HHATS = (0.005, 0.01, 0.02, 0.05, 0.1, 0.3, 0.5, 0.7, 0.9, 0.95, 0.98, 0.99, 0.995)
LIMIT_GAMMAS = (1e-8, 1e-6, 1e-4, 1e-3, 3e-3, 1e-2, 3e-2, 5e-2, 0.1, 0.2)
IMPULSE_GAMMAS = LIMIT_GAMMAS[2:]
# (hhat, gamma) whose limit band holds no point of the 501-point grid
UNRESOLVED_BAND = {(0.005, 1e-8), (0.005, 1e-6), (0.995, 1e-8), (0.995, 1e-6)}
# solved, and passes everything but the C2 gate: an edge within 3.5e-6 of 1
C2_ONLY = {(0.995, 3e-2)}
# no reflecting band of the start's logit grid beats the floor
NO_INTERIOR_BAND = {(0.005, 0.1), (0.005, 0.2), (0.01, 0.2), (0.99, 0.2), (0.995, 0.1),
                    (0.995, 0.2)}
# no start converges: the best band beats the floor by 5e-11 to 1e-9 with an
# edge within 2.2e-7 of 1.  (0.98, 0.2) stops at a residual of 1.65e-10, also
# with mu one ulp higher (hhat * SIGMA * SIGMA)
LIMIT_NON_CONVERGENCE = {(0.98, 0.2), (0.99, 0.1), (0.995, 5e-2)}


def _grid_market(hhat):
    return gf.MarketParams(r=0.0, mu=hhat * SIGMA * SIGMA, sigma=SIGMA)


def _market(hhat):
    return gf.MarketParams(r=0.0, mu=hhat * 0.16, sigma=SIGMA)


@pytest.mark.parametrize("hhat, gamma, delta", itertools.product(HHATS, GAMMAS, DELTAS))
def test_cold_solve_verifies_or_is_rejected_by_name(hhat, gamma, delta):
    outcome, found, _ = draws.impulse_outcome(_grid_market(hhat), gf.CostParams(delta, gamma), 501)
    if (hhat, gamma, delta) in NO_INTERIOR_OPTIMUM:
        assert outcome == draws.NAMED and "no interior optimum" in str(found), found
    else:
        assert outcome == draws.VERIFIED, found


@pytest.mark.parametrize("hhat, gamma, delta", sorted(BEATS_THE_FLOOR))
def test_the_named_points_have_an_interior_optimum(hhat, gamma, delta):
    # the cold solve's "no interior optimum" is false here: Newton from a
    # policy near the root verifies, and the closed form and the renewal
    # quadrature agree on a growth above the floor
    assert set(BEATS_THE_FLOOR) == NO_INTERIOR_OPTIMUM
    mp = _grid_market(hhat)
    cp = gf.CostParams(delta=delta, gamma=gamma)
    with pytest.raises(gf.ParameterDegeneracy, match="no interior optimum"):
        gf.solve_boundaries(mp, cp)
    a, al, be, b = BEATS_THE_FLOOR[hhat, gamma, delta]
    init = qvi.BoundaryCandidate(
        l=float(_slope.policy_value(mp, cp, a, al, be, b)) - mp.r,
        x0=from_centered(0.5 * (to_centered(al) + to_centered(be))), a=a, alpha=al, beta=be, b=b)
    sol = gf.solve_boundaries(mp, cp, init=init)
    assert gf.verify_qvi(mp, cp, gf.build_value(mp, cp, sol), 501).passed
    c = sol.candidate
    closed = float(_slope.policy_value(mp, cp, c.a, c.alpha, c.beta, c.b))
    renewal = lab.evaluate_policy_renewal(mp, cp, c)
    assert abs(closed - renewal) <= 1e-12
    assert min(closed, renewal) > mp.r + no_trade_floor(mp)


@pytest.mark.parametrize("hhat, gamma, delta", itertools.product(HHATS, GAMMAS, DELTAS))
def test_seed_matches_the_flat_reference_seed(hhat, gamma, delta):
    # the axis-wise renewal search picks the seed, or names the failure,
    # exactly as the flattened candidate list did
    mp = _grid_market(hhat)
    cp = gf.CostParams(delta=delta, gamma=gamma)
    band = _slope.best_band(mp, gamma)[2:]  # the band the cold solve seeds around
    assert seed_outcome(qvi._oracle_seed, mp, cp, band) == seed_outcome(oracle_seed, mp, cp, band)


@pytest.mark.parametrize("hhat, gamma, delta", itertools.product(HHATS, GAMMAS, DELTAS))
def test_seed_names_its_winner_as_the_oracle_prices_it(hhat, gamma, delta, monkeypatch):
    # the seed prices in closed form only, so its grid value is the growth
    # it seeds and names by: the renewal quadrature agrees within 1e-12 and
    # on which side of the floor it falls
    mp = _grid_market(hhat)
    assert assert_seed_names_as_the_oracle(mp, gf.CostParams(delta=delta, gamma=gamma),
                                           monkeypatch)


@pytest.mark.parametrize("hhat, gamma, delta",
                         itertools.product(LOPSIDED_HHATS, IMPULSE_GAMMAS, DELTAS))
def test_lopsided_seed_names_its_winner_as_the_oracle_prices_it(hhat, gamma, delta,
                                                                monkeypatch):
    # where no reflecting band beats the floor, no seed is searched
    assert_seed_names_as_the_oracle(_market(hhat), gf.CostParams(delta=delta, gamma=gamma),
                                    monkeypatch)


@pytest.mark.parametrize("hhat, gamma", itertools.product(LOPSIDED_HHATS, LIMIT_GAMMAS))
def test_cold_limit_solve_verifies_or_keeps_its_listed_outcome(hhat, gamma):
    outcome, found, _ = draws.limit_outcome(_market(hhat), gamma, 501)
    point = hhat, gamma
    if point in LIMIT_NON_CONVERGENCE:
        assert outcome == draws.NON_CONVERGENCE and str(found).startswith("no start converged")
    elif point in NO_INTERIOR_BAND:
        assert outcome == draws.NAMED and str(found).startswith("no interior optimum")
    else:
        assert outcome == (draws.NO_GRID_POINT if point in UNRESOLVED_BAND else
                           draws.C2_ONLY if point in C2_ONLY else draws.VERIFIED), found


def test_edge_distance_separates_named_from_verified_limit_points():
    # the listed outcomes, which the test above pins, in rho: every named
    # point lies nearer an edge than every verified one
    listed = NO_INTERIOR_BAND | UNRESOLVED_BAND | C2_ONLY | LIMIT_NON_CONVERGENCE
    named = [edge_distance(*p) for p in NO_INTERIOR_BAND]
    verified = [edge_distance(*p) for p in itertools.product(LOPSIDED_HHATS, LIMIT_GAMMAS)
                if p not in listed]
    assert (len(named), round(max(named), 3)) == (6, 0.324)
    assert (len(verified), round(min(verified), 3)) == (116, 0.407)
    assert max(named) < min(verified)


@pytest.mark.parametrize("hhat, gamma", itertools.product(LOPSIDED_HHATS, IMPULSE_GAMMAS))
def test_cold_impulse_solve_verifies_or_is_named_on_the_lopsided_grid(hhat, gamma):
    outcome, found, _ = draws.impulse_outcome(_market(hhat), gf.CostParams(1e-3, gamma), 501)
    assert outcome == draws.VERIFIED or (
        outcome == draws.NAMED and str(found).startswith("no interior optimum")), found
