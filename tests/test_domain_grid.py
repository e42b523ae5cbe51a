"""Cold solves over a domain grid: r=0, sigma=0.4 and every combination of
the Merton fraction hhat, the proportional cost gamma and the fixed cost
delta (84 points).

Every point must solve and pass the QVI check at 501 grid points, except
the two where no constant boundary policy beats r + max{f(0), f(1)}, which
must be rejected by name.
"""

import itertools

import pytest

import growth_frictions as gf
from growth_frictions import qvi
from renewal_reference import oracle_seed, seed_outcome

SIGMA = 0.4
HHATS = (0.1, 0.25, 0.4, 0.5, 0.6, 0.75, 0.9)
GAMMAS = (1e-4, 1e-3, 1e-2, 5e-2)
DELTAS = (1e-5, 1e-3, 1e-2)
NO_INTERIOR_OPTIMUM = {(0.1, 5e-2, 1e-2), (0.9, 5e-2, 1e-2)}


@pytest.mark.parametrize("hhat, gamma, delta", itertools.product(HHATS, GAMMAS, DELTAS))
def test_cold_solve_verifies_or_is_rejected_by_name(hhat, gamma, delta):
    mp = gf.MarketParams(r=0.0, mu=hhat * SIGMA * SIGMA, sigma=SIGMA)
    cp = gf.CostParams(delta=delta, gamma=gamma)
    if (hhat, gamma, delta) in NO_INTERIOR_OPTIMUM:
        with pytest.raises(gf.ParameterDegeneracy, match="no interior optimum"):
            gf.solve_boundaries(mp, cp)
        return
    sol = gf.solve_boundaries(mp, cp)
    vf = gf.build_value(mp, cp, sol)
    assert gf.verify_qvi(mp, cp, vf, 501).passed


@pytest.mark.parametrize("hhat, gamma, delta", itertools.product(HHATS, GAMMAS, DELTAS))
def test_seed_matches_the_flat_reference_seed(hhat, gamma, delta):
    # the axis-wise renewal search picks the seed, or names the failure,
    # exactly as the flattened candidate list did
    mp = gf.MarketParams(r=0.0, mu=hhat * SIGMA * SIGMA, sigma=SIGMA)
    cp = gf.CostParams(delta=delta, gamma=gamma)
    lim = gf.solve_limit(mp, gamma).candidate
    assert seed_outcome(qvi._oracle_seed, mp, cp, lim) == seed_outcome(oracle_seed, mp, cp, lim)
