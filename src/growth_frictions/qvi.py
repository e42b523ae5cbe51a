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

solved by one damped Newton run from a warm start or, cold, from the
constant boundary policy with the best exact renewal value (``_policy``)
near the reflecting limits, through the start loop shared with the limit
solver.  The value function u is then assembled piecewise from the trade
cost outside [a, b] and the integral of g inside, and checked against the
variational inequality max{Du + f - l, Mu - u} = 0 on a grid.

The check is O(n) in time and memory: the trade cost is separable,
log num(x) - log den(y) with the branch set by y > x, so the intervention
operator Mu is a suffix and a prefix scan over the sorted trade targets.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import limit as _limit
from ._policy import _renewal_batch
from ._slope import (RESIDUAL_TOL, NewtonUnknowns, NonConvergence, ParameterDegeneracy,
                     ValueFunction, _grid_check, _peak, newton_from_starts, slope_g,
                     slope_g_dx, slope_g_integral)
from .market import (EPS, CostParams, MarketParams, ParameterError,
                     check_growth_excess, from_centered, no_trade_floor,
                     to_centered, trade_cost_gamma)

__all__ = [
    "BoundaryCandidate", "BoundarySolution", "ValueFunction", "VerificationReport",
    "slope_g", "slope_g_dx", "slope_g_integral", "residual_system",
    "solve_boundaries", "build_value", "verify_qvi",
    "NonConvergence", "ParameterDegeneracy",
]

PASTING_TOL = 1e-8


@dataclass(frozen=True)
class BoundaryCandidate(NewtonUnknowns):
    """The six unknowns of the fixed-plus-proportional problem.

    At a solution: 0 < a < alpha <= x0 <= beta < b < 1 (strictly
    alpha < x0 < beta when gamma > 0) and max{f(0), f(1)} < l < f(hhat).
    Intermediate Newton iterates need not satisfy any of this.
    """

    l: float
    x0: float
    a: float
    alpha: float
    beta: float
    b: float

    def ordering_ok(self) -> bool:
        return (0.0 < self.a < self.alpha <= self.beta < self.b < 1.0
                and 0.0 < self.x0 < 1.0)

    def check_invariants(self, mp: MarketParams, cp: CostParams) -> None:
        """Full solution invariants; raises ParameterError naming the breach."""
        if not self.ordering_ok():
            raise ParameterError("0 < a < alpha <= beta < b < 1")
        if not self.alpha <= self.x0 <= self.beta:
            raise ParameterError("alpha <= x0 <= beta")
        if cp.gamma > 0 and not self.alpha < self.x0 < self.beta:
            raise ParameterError("alpha < x0 < beta for gamma > 0")
        check_growth_excess(mp, self.l, "l")


@dataclass(frozen=True)
class BoundarySolution:
    candidate: BoundaryCandidate
    residual_norm: float
    newton_iters: int
    original_cost_optimal: bool = False


def residual_system(mp: MarketParams, cp: CostParams, cand: BoundaryCandidate) -> np.ndarray:
    """The six smooth-pasting/value-matching residuals at a candidate.

    Only the ordering a < alpha <= beta < b inside (0, 1) is required;
    x0 may sit anywhere inside (0, 1) while the solver iterates.
    """
    if not cand.ordering_ok():
        raise ParameterDegeneracy("candidate ordering a < alpha <= beta < b violated")
    l, x0 = cand.l, cand.x0
    a, al, be, b = cand.a, cand.alpha, cand.beta, cand.b
    gm, dl = cp.gamma, cp.delta
    return np.array([
        slope_g(mp, al, x0, l) - gm / (1.0 + gm * al),
        slope_g(mp, be, x0, l) + gm / (1.0 - gm * be),
        slope_g(mp, a, x0, l) - gm / (1.0 - dl + gm * a),
        slope_g(mp, b, x0, l) + gm / (1.0 - dl - gm * b),
        slope_g_integral(mp, a, al, x0, l) + trade_cost_gamma(cp, a, al),
        slope_g_integral(mp, be, b, x0, l) - trade_cost_gamma(cp, b, be),
    ])


def _oracle_seed(mp, cp, lim_cand):
    """Seed Newton by maximising the exact renewal value of the policy over
    log-spaced widening/inset offsets around the reflecting limits.

    A seed that opens the no-trade region symmetrically fails badly for
    lopsided Merton fractions; searching the policy value directly (cheap:
    one Green-function pass per distinct exit problem) lands inside the
    Newton basin regardless of the region's shape.  Round 2 refines each
    of the four offsets by geomspace(0.5, 2, 7) times its own round-1 best.
    If no searched policy beats the floor r + max{f(0), f(1)} of never
    trading (or holding only stock), there is no interior optimum to seed
    and ParameterDegeneracy is raised.
    """
    a_lim = to_centered(lim_cand.A)
    b_lim = to_centered(lim_cand.B)
    widen = np.geomspace(5e-3, 4.0, 14)
    inset = np.geomspace(2e-3, 2.0, 12)
    offsets = (widen, widen, inset, inset)
    best = None
    for _ in range(2):
        u1, u2, v1, v2 = (g.ravel() for g in np.meshgrid(*offsets, indexing="ij"))
        a_y, b_y = a_lim - u1, b_lim + u2
        al_y, be_y = a_y + v1, b_y - v2
        keep = al_y < be_y
        a = from_centered(a_y[keep])
        al = from_centered(al_y[keep])
        be = from_centered(be_y[keep])
        b = from_centered(b_y[keep])
        keep2 = (a > EPS) & (b < 1.0 - EPS)
        a, al, be, b = a[keep2], al[keep2], be[keep2], b[keep2]
        try:
            values = _renewal_batch(mp, cp, a, al, be, b)
        except (ValueError, RuntimeError):
            values = np.full(a.shape, -np.inf)
        k = int(np.argmax(values))
        best = (float(a[k]), float(al[k]), float(be[k]), float(b[k]), float(values[k]))
        a_k, al_k, be_k, b_k = (to_centered(v) for v in best[:4])
        offsets = tuple(gap * np.geomspace(0.5, 2.0, 7) for gap in
                        (a_lim - a_k, b_k - b_lim, al_k - a_k, b_k - be_k))
    a, al, be, b, value = best
    floor = no_trade_floor(mp)
    if not value - mp.r > floor:
        raise ParameterDegeneracy(
            f"no interior optimum: best renewal growth {value:.10g} does not exceed "
            f"r + max{{f(0), f(1)}} = {mp.r + floor:.10g}")
    l = max(value - mp.r, floor + 1e-3 * (lim_cand.l0 - floor))
    x0 = from_centered(0.5 * (to_centered(al) + to_centered(be)))
    x0 = min(max(x0, al + 1e-3 * (be - al)), be - 1e-3 * (be - al))
    return BoundaryCandidate(l=l, x0=x0, a=a, alpha=al, beta=be, b=b)


def _starts(mp, cp, init):
    """The seeds of solve_boundaries in order, built lazily so the limit
    solve and the renewal search run only when the warm start fails."""
    if init is not None:
        yield init
    yield _oracle_seed(mp, cp, _limit.solve_limit(mp, cp.gamma).candidate)


def solve_boundaries(mp: MarketParams, cp: CostParams,
                     init: BoundaryCandidate | None = None) -> BoundarySolution:
    """Solve the six-unknown system; requires delta > 0 and gamma > 0.

    One damped Newton run from ``init`` when given (the warm start), then
    from the renewal-search seed around the pure-proportional limits (the
    cold start); the first valid root wins, and nothing is retried or
    perturbed.  Raises ParameterDegeneracy ("no interior optimum") when the
    renewal search finds no policy beating the no-trade floor, and
    NonConvergence when every start fails.
    """
    if cp.delta <= 0.0:
        raise ParameterDegeneracy("impulse boundary solver requires delta > 0")
    if cp.gamma <= 0.0:
        raise ParameterDegeneracy("impulse boundary solver requires gamma > 0")
    cand, iters, norm = newton_from_starts(
        BoundaryCandidate, lambda c: residual_system(mp, cp, c), _starts(mp, cp, init),
        lambda c: c.check_invariants(mp, cp))
    return BoundarySolution(
        candidate=cand,
        residual_norm=norm,
        newton_iters=iters,
        original_cost_optimal=bool(cand.a <= cand.alpha * (1.0 - cp.delta)),
    )


def build_value(mp: MarketParams, cp: CostParams, sol: BoundarySolution) -> ValueFunction:
    """Assemble the piecewise value function from a converged solution.

    Checks the C1 pasting implied by the first four residuals to 1e-8
    before returning.
    """
    cand = sol.candidate
    res = residual_system(mp, cp, cand)
    pasting = float(np.max(np.abs(res[:4])))
    if pasting > PASTING_TOL:
        raise ParameterError(
            f"candidate does not paste to C1: max boundary-slope residual {pasting:.3e}")
    return ValueFunction(mp, cp, cand, (cand.l, cand.x0, cand.a, cand.alpha, cand.beta, cand.b))


@dataclass(frozen=True)
class VerificationReport:
    """Grid check of the variational inequality; all numeric fields finite,
    and unresolved_band empty unless (a, b) holds no grid point."""

    grid_n: int
    tol: float
    max_interior_residual: float
    interior_worst_x: float
    max_exterior_excess: float
    exterior_worst_x: float
    max_obstacle_excess: float
    obstacle_worst_x: float
    equality_gap_low: float
    equality_gap_high: float
    equality_target_low: float
    equality_target_high: float
    pasting_mismatch: float
    unresolved_band: str
    passed: bool

    def summary(self) -> str:
        lines = [
            f"grid_n={self.grid_n} tol={self.tol:g} passed={self.passed}",
            f"  interior |Du+f-l|      {self.max_interior_residual:.3e} at x={self.interior_worst_x:.6f}",
            f"  exterior (Du+f-l)+     {self.max_exterior_excess:.3e} at x={self.exterior_worst_x:.6f}",
            f"  obstacle (Mu-u)+       {self.max_obstacle_excess:.3e} at x={self.obstacle_worst_x:.6f}",
            f"  equality gaps at a,b   {self.equality_gap_low:.3e}, {self.equality_gap_high:.3e}",
            f"  argmax targets at a,b  {self.equality_target_low:.6f}, {self.equality_target_high:.6f}",
            f"  C1 pasting mismatch    {self.pasting_mismatch:.3e}",
        ]
        if self.unresolved_band:
            lines.append(f"  {self.unresolved_band}")
        return "\n".join(lines)


def _best_so_far(values):
    """For each j, the index of a largest entry of values[:j + 1]."""
    is_record = values == np.maximum.accumulate(values)
    return np.maximum.accumulate(np.where(is_record, np.arange(values.size), 0))


def _intervention(cp: CostParams, grid, targets, u_targets):
    """Mu(x) = max over the sorted targets y of u(y) + trade_cost_gamma(x, y)
    at each x of the grid, a subset of the targets.  Per branch the best y
    is a running argmax of u(y) - log den(y): a suffix one over y > x for
    buying, a prefix one over y <= x for selling.  Both gains are then
    computed as a full search computes them, so Mu agrees with it to
    rounding."""
    above = np.searchsorted(targets, grid, side="right")  # first target > x
    sell = _best_so_far(u_targets - np.log(1.0 - cp.gamma * targets))[above - 1]
    buy_from = targets.size - 1 - _best_so_far(
        (u_targets - np.log(1.0 + cp.gamma * targets))[::-1])[::-1]
    # no target above the top grid point: its buying gain repeats selling
    buy = np.append(buy_from, -1)[above]
    buy = np.where(buy < 0, sell, buy)
    return np.maximum(u_targets[buy] + trade_cost_gamma(cp, grid, targets[buy]),
                      u_targets[sell] + trade_cost_gamma(cp, grid, targets[sell]))


def verify_qvi(mp: MarketParams, cp: CostParams, vf: ValueFunction,
               grid_n: int, tol: float = 1e-6) -> VerificationReport:
    """Check the variational inequality for (u, l) on a uniform grid.

    The growth excess l is read from ``vf.candidate`` (the claim under
    test) while u and its derivatives come from the curve anchored at
    build time.  Mu takes every grid point and both restart points as
    trade targets, in O(n) time and memory (``_intervention``).  Both
    one-sided excesses are positive parts.  Violations are reported, never
    raised.
    """
    cand = vf.candidate
    grid, _, resid, interior, max_interior, interior_x, unresolved = _grid_check(
        mp, vf, cand.l, cand.a, cand.b, grid_n, "verify_qvi")

    max_exterior, exterior_x = _peak(resid[~interior], grid[~interior])
    max_exterior = max(max_exterior, 0.0)

    # The target grid always contains the restart points alpha and beta.
    targets = np.unique(np.concatenate([grid, [cand.alpha, cand.beta]]))
    u_targets = vf.u(targets)
    obstacle = _intervention(cp, grid, targets, u_targets) - vf.u(grid)
    max_obstacle, obstacle_x = _peak(obstacle, grid)
    max_obstacle = max(max_obstacle, 0.0)

    def equality_at(x):
        vals = u_targets + trade_cost_gamma(cp, x, targets)
        best, target = _peak(vals, targets)
        return abs(best - vf.u(x)), target

    gap_low, target_low = equality_at(cand.a)
    gap_high, target_high = equality_at(cand.b)

    res = residual_system(mp, cp, cand)
    pasting = float(np.max(np.abs(res[:4])))

    spacing = float(grid[1] - grid[0])
    passed = bool(
        not unresolved
        and max_interior <= tol
        and max_exterior <= tol
        and max_obstacle <= tol
        and gap_low <= tol and gap_high <= tol
        and abs(target_low - cand.alpha) <= spacing
        and abs(target_high - cand.beta) <= spacing
        and pasting <= PASTING_TOL
    )
    return VerificationReport(
        grid_n=grid_n, tol=tol,
        max_interior_residual=max_interior, interior_worst_x=interior_x,
        max_exterior_excess=max_exterior, exterior_worst_x=exterior_x,
        max_obstacle_excess=max_obstacle, obstacle_worst_x=obstacle_x,
        equality_gap_low=gap_low, equality_gap_high=gap_high,
        equality_target_low=target_low, equality_target_high=target_high,
        pasting_mismatch=pasting, unresolved_band=unresolved, passed=passed,
    )
