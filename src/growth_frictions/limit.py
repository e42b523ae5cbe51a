"""Reflecting-boundary model for pure proportional costs (delta = 0).

With no fixed cost the optimal policy keeps the risky fraction inside an
interval [A, B] by minimal trading at the edges, and the excess growth rate
l0 exceeds every positive-delta value.  The four unknowns (l0, x0, A, B) are
pinned by first- AND second-order pasting of the same slope function g used
by the impulse solver:

    g(A)  =  gamma/(1 + gamma A)        g(B)  = -gamma/(1 - gamma B)
    g'(A) = -gamma^2/(1 + gamma A)^2    g'(B) = -gamma^2/(1 - gamma B)^2

i.e. the delta -> 0 limit of the six-equation system once a and alpha merge
into A and beta and b merge into B.  The value function is therefore the
impulse model's ValueFunction at delta = 0 with anchor (l0, x0, A, A, B, B);
it is C2, which verify_hjb_limit checks on the grid shared with verify_qvi
together with the gradient constraints of the verification theorem.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._slope import (NewtonUnknowns, NonConvergence, ParameterDegeneracy,
                     ValueFunction, _grid_check, damped_newton, slope_g, slope_g_dx)
from .market import (CostParams, MarketParams, ParameterError,
                     check_growth_excess, growth_integrand, merton_fraction,
                     no_trade_floor)

__all__ = [
    "LimitCandidate", "LimitSolution", "HJBReport",
    "residual_system_limit", "solve_limit", "build_limit_value",
    "verify_hjb_limit", "NonConvergence", "ParameterDegeneracy",
]

RESIDUAL_TOL = 1e-10
SECOND_ORDER_TOL = 1e-6


@dataclass(frozen=True)
class LimitCandidate(NewtonUnknowns):
    """Unknowns of the reflecting model: 0 < A < x0 < B < 1 at a solution."""

    l0: float
    x0: float
    A: float
    B: float

    def ordering_ok(self) -> bool:
        return 0.0 < self.A < self.B < 1.0 and 0.0 < self.x0 < 1.0

    def check_invariants(self, mp: MarketParams) -> None:
        if not (0.0 < self.A < self.x0 < self.B < 1.0):
            raise ParameterError("0 < A < x0 < B < 1")
        check_growth_excess(mp, self.l0, "l0")


@dataclass(frozen=True)
class LimitSolution:
    candidate: LimitCandidate
    residual_norm: float
    newton_iters: int


def residual_system_limit(mp: MarketParams, gamma: float, cand: LimitCandidate) -> np.ndarray:
    """First- and second-order pasting residuals at a limit candidate."""
    if not cand.ordering_ok():
        raise ParameterDegeneracy("candidate ordering 0 < A < B < 1 violated")
    l0, x0, A, B = cand.l0, cand.x0, cand.A, cand.B
    return np.array([
        slope_g(mp, A, x0, l0) - gamma / (1.0 + gamma * A),
        slope_g(mp, B, x0, l0) + gamma / (1.0 - gamma * B),
        slope_g_dx(mp, A, x0, l0) + gamma * gamma / (1.0 + gamma * A) ** 2,
        slope_g_dx(mp, B, x0, l0) + gamma * gamma / (1.0 - gamma * B) ** 2,
    ])


def default_limit_initializer(mp: MarketParams, gamma: float) -> LimitCandidate:
    """The band where f exceeds a level l0 set by the small-cost loss.

    l0 lies below f(hhat) by the loss sigma^2 w^2 / 2 of the leading-order
    half-width w = (3/2 hhat^2 (1-hhat)^2 gamma)^(1/3) (Janecek-Shreve 2004),
    saturated to stay above the no-trade floor.  A and B, where f equals l0,
    then lie in (0, 1) however lopsided the Merton fraction is.
    """
    hhat = merton_fraction(mp)
    fhat = growth_integrand(mp, hhat)
    room = fhat - no_trade_floor(mp)
    w = (1.5 * gamma * (hhat * (1.0 - hhat)) ** 2) ** (1.0 / 3.0)
    l0 = fhat + room * math.expm1(-0.5 * (mp.sigma * w) ** 2 / room)
    half = math.sqrt(2.0 * (fhat - l0)) / mp.sigma
    return LimitCandidate(l0=l0, x0=hhat, A=hhat - half, B=hhat + half)


def solve_limit(mp: MarketParams, gamma: float,
                init: LimitCandidate | None = None) -> LimitSolution:
    """Solve the four-unknown reflecting-boundary system; gamma must be > 0.

    Tries ``init`` when given (the warm start), then the default band
    start, with one damped Newton run each, and returns the first run that
    reaches RESIDUAL_TOL at a valid candidate.  At gamma = 0 the no-trade
    region collapses to the Merton point and the system degenerates, so
    that input is rejected.
    """
    if gamma <= 0.0:
        raise ParameterDegeneracy("limit solver requires gamma > 0")

    def residual(v):
        return residual_system_limit(mp, gamma, LimitCandidate.from_vector(v))

    # Each run goes on until its step stalls, so a start that lands close
    # still ends at rounding level; it passes if it reaches RESIDUAL_TOL.
    starts = ([init] if init is not None else []) + [default_limit_initializer(mp, gamma)]
    for cand0 in starts:
        try:
            v, iters, norm = damped_newton(residual, cand0.as_vector(), tol=0.0)
            cand = LimitCandidate.from_vector(v)
            if norm > RESIDUAL_TOL:
                raise NonConvergence(f"limit system residual {norm:.3e} after {iters} iterations")
            cand.check_invariants(mp)
        except ParameterError as err:
            last_err = NonConvergence(f"limit solve converged to an invalid candidate: {err}")
        except (ValueError, NonConvergence) as err:
            last_err = err
        else:
            return LimitSolution(candidate=cand, residual_norm=norm, newton_iters=iters)
    raise last_err


def build_limit_value(mp: MarketParams, gamma: float, sol: LimitSolution) -> ValueFunction:
    """The reflecting model's value function: the impulse ValueFunction at
    delta = 0 with a = alpha = A and beta = b = B, so u(A) = 0 and
    u(B) is the integral of g over [A, B]."""
    c = sol.candidate
    return ValueFunction(mp, CostParams(0.0, gamma), c, (c.l0, c.x0, c.A, c.A, c.B, c.B))


@dataclass(frozen=True)
class HJBReport:
    """Grid check of the verification-theorem conditions."""

    grid_n: int
    tol: float
    max_interior_residual: float
    interior_worst_x: float
    max_generator_excess: float
    max_upper_gradient_excess: float
    max_lower_gradient_excess: float
    equality_gap_low_region: float
    equality_gap_high_region: float
    second_deriv_mismatch: float
    passed: bool

    def summary(self) -> str:
        lines = [
            f"grid_n={self.grid_n} tol={self.tol:g} passed={self.passed}",
            f"  interior |Dv+f-l0|          {self.max_interior_residual:.3e} at x={self.interior_worst_x:.6f}",
            f"  global (Dv+f-l0)+           {self.max_generator_excess:.3e}",
            f"  (v' - gamma/(1+gx))+        {self.max_upper_gradient_excess:.3e}",
            f"  (-gamma/(1-gx) - v')+       {self.max_lower_gradient_excess:.3e}",
            f"  gradient equality gaps      {self.equality_gap_low_region:.3e}, {self.equality_gap_high_region:.3e}",
            f"  C2 mismatch at A, B         {self.second_deriv_mismatch:.3e}",
        ]
        return "\n".join(lines)


def verify_hjb_limit(mp: MarketParams, gamma: float, sol: LimitSolution,
                     grid_n: int, tol: float = 1e-6,
                     value: ValueFunction | None = None) -> HJBReport:
    """Check the reflecting-model HJB conditions for (u, l0) on a grid.

    The claimed l0 comes from ``sol.candidate``; the curve comes from the
    anchored value function (built fresh unless one is passed in, e.g. to
    test an inconsistent pair).  Violations are reported, never raised.
    """
    cand = sol.candidate
    vf = value if value is not None else build_limit_value(mp, gamma, sol)
    grid, du, resid, _, max_interior, interior_x = _grid_check(
        mp, vf, cand.l0, cand.A, cand.B, grid_n, "verify_hjb_limit")
    max_excess = float(max(np.max(resid), 0.0))

    upper = gamma / (1.0 + gamma * grid)
    lower = -gamma / (1.0 - gamma * grid)
    up_excess = float(max(np.max(du - upper), 0.0))
    low_excess = float(max(np.max(lower - du), 0.0))
    low_region = grid <= cand.A
    high_region = grid >= cand.B
    gap_low = float(np.max(np.abs((du - upper)[low_region]))) if low_region.any() else 0.0
    gap_high = float(np.max(np.abs((du - lower)[high_region]))) if high_region.any() else 0.0

    # C2 pasting: interior second derivative meets the exterior one at A, B.
    l0a, x0a, Aa, _, _, Ba = vf.anchor
    anchored = LimitCandidate(l0=l0a, x0=x0a, A=Aa, B=Ba)
    mism = float(np.max(np.abs(residual_system_limit(mp, gamma, anchored)[2:])))

    passed = bool(
        max_interior <= tol
        and max_excess <= tol
        and up_excess <= tol
        and low_excess <= tol
        and gap_low <= tol and gap_high <= tol
        and mism <= SECOND_ORDER_TOL
    )
    return HJBReport(
        grid_n=grid_n, tol=tol,
        max_interior_residual=max_interior, interior_worst_x=interior_x,
        max_generator_excess=max_excess,
        max_upper_gradient_excess=up_excess,
        max_lower_gradient_excess=low_excess,
        equality_gap_low_region=gap_low,
        equality_gap_high_region=gap_high,
        second_deriv_mismatch=mism, passed=passed,
    )
