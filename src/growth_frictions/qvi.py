"""Optimal rebalancing boundaries under fixed plus proportional costs.

The optimal strategy waits until the risky fraction leaves (a, b) and then
rebalances to alpha (after a low exit) or beta (after a high exit).  The six
unknowns (l, x0, a, alpha, beta, b), with l the excess growth rate over the
interest rate and x0 the zero of the slope function, solve a square system
of smooth-pasting and value-matching equations:

    g(alpha) =  gamma/(1 + gamma alpha)          first-order optimality of
    g(beta)  = -gamma/(1 - gamma beta)           the restart targets
    g(a)     =  gamma/(1 - delta + gamma a)      C1 pasting at the
    g(b)     = -gamma/(1 - delta - gamma b)      trade triggers
    int_a^alpha g + cost(a, alpha) = 0           value matching across
    int_beta^b g - cost(b, beta)   = 0           the rebalancing jumps

solved by one damped Newton run from a warm start or, cold, from the constant
boundary policy of best exact growth (``_slope.policy_value``, in closed form)
near the reflecting band of best exact growth (``_slope.best_band``), through
the start loop shared with the limit solver; no solve calls the renewal
quadrature, which is the oracle's own (``lab``).  The value function u is then
assembled piecewise from the trade cost outside [a, b] and the integral of g
inside, and ``verify_qvi`` (from ``_slope``, below both solvers) checks it
against the variational inequality max{Du + f - l, Mu - u} = 0 on a grid; at
delta = 0 the same call is the reflecting limit's HJB check.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._slope import (PASTING_TOL, RESIDUAL_TOL, NewtonUnknowns, NonConvergence,
                     ParameterDegeneracy, ValueFunction, VerificationReport, _g, _g_integral,
                     _pasting_rows, _slope_gaps, _spans, best_band, interior_optimum,
                     newton_from_starts, policy_value, slope_g, slope_g_dx, slope_g_integral,
                     verify_qvi, warm_then_cold)
from .market import (EPS, CostParams, MarketParams, ParameterError, _log_cost, _logistic, _logit,
                     buys, check_growth_excess, from_centered)

__all__ = [
    "BoundaryCandidate", "BoundarySolution", "ValueFunction", "VerificationReport",
    "slope_g", "slope_g_dx", "slope_g_integral", "residual_system",
    "solve_boundaries", "build_value", "verify_qvi",
    "NonConvergence", "ParameterDegeneracy",
]


@dataclass(frozen=True)
class BoundaryCandidate(NewtonUnknowns):
    """The six unknowns of the fixed-plus-proportional problem.

    At a solution: 0 < a < alpha < x0 < beta < b < 1 and
    max{f(0), f(1)} < l < f(hhat).
    Intermediate Newton iterates need not satisfy any of this.
    """

    l: float
    x0: float
    a: float
    alpha: float
    beta: float
    b: float

    def ordering_ok(self) -> bool:
        ok = ((0.0 < self.a) & (self.a < self.alpha) & (self.alpha <= self.beta)
              & (self.beta < self.b) & (self.b < 1.0) & (0.0 < self.x0) & (self.x0 < 1.0))
        return np.count_nonzero(ok) == np.size(ok)

    def policy(self) -> tuple:
        """(l, x0, a, alpha, beta, b), the claim verify_qvi checks."""
        return (self.l, self.x0, self.a, self.alpha, self.beta, self.b)

    def check_invariants(self, mp: MarketParams) -> None:
        """Full solution invariants; raises ParameterError naming the breach."""
        if not self.ordering_ok():
            raise ParameterError("0 < a < alpha <= beta < b < 1")
        if not self.alpha < self.x0 < self.beta:
            raise ParameterError("alpha < x0 < beta")
        check_growth_excess(mp, self.l, "l")


@dataclass(frozen=True)
class BoundarySolution:
    candidate: BoundaryCandidate
    residual_norm: float
    newton_iters: int
    original_cost_optimal: bool


def residual_system(mp: MarketParams, cp: CostParams, cand: BoundaryCandidate) -> np.ndarray:
    """The six smooth-pasting/value-matching residuals at a candidate, or
    their (6, k) block, one column each, at a stack of k candidates.

    Only the ordering a < alpha <= beta < b inside (0, 1) and a non-NaN l
    are required; x0 may sit anywhere inside (0, 1) while the solver iterates.
    """
    if not cand.ordering_ok():
        raise ParameterDegeneracy("candidate ordering a < alpha <= beta < b violated")
    if np.count_nonzero(np.isnan(cand.l)):
        raise ParameterDegeneracy("candidate growth rate l is NaN")
    # unchecked kernels, as the ordering puts every point inside (0, 1); x: alpha,
    # beta, a, b, x0; g at the first four, integrals from a and beta to alpha and b
    l, x0, a, al, be, b = cand.policy()
    x = np.array([al, be, a, b, x0])
    t = _logit(x)
    terms, pieces = _spans(mp, 4, t, x0, t[4], slice(2, 0, -1), slice(None, None, 3))
    g = _g(mp, x[:4], t[:4], x0, t[4], l, terms)
    cost = _log_cost(cp, x[2:4], x[:2])  # a -> alpha, b -> beta, the latter then negated
    np.negative(cost[1:], out=cost[1:])
    return np.concatenate([_slope_gaps(cp, g, a, al, be, b), _g_integral(mp, pieces, l) + cost])


_WIDEN, _INSET, _REFINE = (np.geomspace(5e-3, 4.0, 14), np.geomspace(2e-3, 2.0, 12),
                           np.geomspace(0.5, 2.0, 7))


def _oracle_seed(mp, cp, A, B):
    """Seed Newton by maximising the exact growth of the policy over
    log-spaced widening/inset offsets around the reflecting band [A, B].

    A seed that opens the no-trade region symmetrically fails badly for
    lopsided Merton fractions; searching the policy value directly lands
    inside the Newton basin regardless of the region's shape.  Each round is
    one matrix, as in ``best_band``: its rows are the low trades (a, alpha),
    every a-widening with every a-inset, with a > EPS; its columns the high
    trades (beta, b), likewise, with b < 1 - EPS.  ``policy_value`` prices
    it in closed form on those two axes; insets that cross (alpha > beta)
    read -inf.  Round 2 refines each of the four offsets by
    geomspace(0.5, 2, 7) times its own round-1 best.  If the winner's growth
    on round 2's matrix does not beat the floor, there is no interior
    optimum to seed (``interior_optimum``).  The seed's l is that growth
    less r, and its x0 the logit midpoint of (alpha, beta).
    """
    a_lim, b_lim = _logit(A), _logit(B)
    u1, u2, v1, v2 = _WIDEN, _WIDEN, _INSET, _INSET
    for _ in range(2):
        # (4, widenings, insets) finite logits (a, alpha, b, beta) in one logistic
        # call, then one row per low trade and one column per high trade inside
        # (EPS, 1 - EPS)
        y = np.empty((4, u1.size, v1.size))
        y[:2], y[2:] = (a_lim - u1)[:, None], (b_lim + u2)[:, None]
        y[1] += v1
        y[3] -= v2
        a, al, b, be = _logistic(y).reshape(4, -1)
        lo, hi = a > EPS, b < 1.0 - EPS
        a, al, b, be = a[lo], al[lo], b[hi], be[hi]
        values = policy_value(mp, cp, a[:, None], al[:, None], be, b)
        i, j = np.unravel_index(int(np.argmax(values)), values.shape)
        best = (float(a[i]), float(al[i]), float(be[j]), float(b[j]))
        a_k, al_k, be_k, b_k = _logit(np.array(best))
        u1, u2, v1, v2 = (gap * _REFINE for gap in
                          (a_lim - a_k, b_k - b_lim, al_k - a_k, b_k - be_k))
    (a, al, be, b), l = best, interior_optimum(mp, float(values[i, j]) - mp.r, "policy")
    x0 = from_centered(0.5 * (al_k + be_k))
    return BoundaryCandidate(l=l, x0=x0, a=a, alpha=al, beta=be, b=b)


def solve_boundaries(mp: MarketParams, cp: CostParams,
                     init: BoundaryCandidate | None = None) -> BoundarySolution:
    """Solve the six-unknown system; requires delta > 0 and gamma > 0.

    One damped Newton run from ``init`` when given (the warm start), then
    from the policy seed around the reflecting band of best exact growth
    (the cold start, built only when needed); the first valid root wins,
    and nothing is retried or perturbed.  Raises ParameterDegeneracy ("no
    interior optimum") when neither search finds a policy beating the
    no-trade floor, and NonConvergence when every start fails.
    """
    if cp.delta <= 0.0:
        raise ParameterDegeneracy("impulse boundary solver requires delta > 0")
    if cp.gamma <= 0.0:
        raise ParameterDegeneracy("impulse boundary solver requires gamma > 0")
    cand, iters, norm = newton_from_starts(
        BoundaryCandidate, lambda c: residual_system(mp, cp, c),
        warm_then_cold(init, lambda: _oracle_seed(mp, cp, *best_band(mp, cp.gamma)[2:])),
        lambda c: c.check_invariants(mp))
    return BoundarySolution(candidate=cand, residual_norm=norm, newton_iters=iters,
                            original_cost_optimal=bool(buys(cp, cand.a, cand.alpha)))


def _ladder(mp: MarketParams, gamma: float, deltas):
    """Yield (delta, candidate) along deltas, each solve warm-started from the
    root before it: the one delta ladder of the sweep and the coupling."""
    cand = None
    for delta in deltas:
        cand = solve_boundaries(mp, CostParams(delta=delta, gamma=gamma), init=cand).candidate
        yield delta, cand


def build_value(mp: MarketParams, cp: CostParams, sol: BoundarySolution) -> ValueFunction:
    """Assemble the piecewise value function from a converged solution.

    Checks the C1 pasting implied by the first four residuals to 1e-8
    before returning.
    """
    cand = sol.candidate
    pasting = float(np.max(np.abs(_pasting_rows(mp, cp, *cand.policy()))))
    if not pasting <= PASTING_TOL:
        raise ParameterError(
            f"candidate does not paste to C1: max boundary-slope residual {pasting:.3e}")
    return ValueFunction(mp, cp, cand, cand.policy())
