"""Reflecting-boundary model for pure proportional costs (delta = 0).

With no fixed cost the optimal policy keeps the risky fraction inside an
interval [A, B] by minimal trading at the edges, and the excess growth rate
l0 exceeds every positive-delta value.  The four unknowns (l0, x0, A, B) are
pinned by first- AND second-order pasting of the same slope function g used
by the impulse solver:

    g(A)  =  gamma/(1 + gamma A)        g(B)  = -gamma/(1 - gamma B)
    g'(A) = -gamma^2/(1 + gamma A)^2    g'(B) = -gamma^2/(1 - gamma B)^2

i.e. the delta -> 0 limit of the six-equation system once a and alpha merge
into A and beta and b merge into B.  The solver states the g' rows times
half(x) = sigma^2 x^2 (1-x)^2 / 2, in the HJB equation's units: g' is the
continuation ODE divided by half, which vanishes at 0 and 1, so unscaled
rows move by 1/half per ulp of l0 near an edge.  The right-hand sides are
the trade cost's slopes s at the edges, ``market.edge_slopes`` at
delta = 0, and -s^2; half is the diffusion coefficient of
``market.generator_coefficients``, which ``_slope._slope_dx`` returns with
g'.  The value function is the impulse ValueFunction at delta = 0 with
anchor (l0, x0, A, A, B, B), and its HJB check is the impulse verifier at
delta = 0 (where the obstacle Mu <= u is the integrated form of the two
gradient constraints) plus the C2 row, max |g' + s^2| at the edges, read
off g' itself.  The solve runs through the impulse solver's start loop,
``_slope.newton_from_starts``, from the same cold start, the band of best
exact growth, and stops by the same rule; only the residual differs.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from ._slope import (NewtonUnknowns, NonConvergence, ParameterDegeneracy, ValueFunction,
                     VerificationReport, _g, _slope_dx, best_band, newton_from_starts,
                     verify_qvi, warm_then_cold)
from .market import (CostParams, MarketParams, ParameterError, _logit, check_growth_excess,
                     edge_slopes)

__all__ = [
    "LimitCandidate", "LimitSolution", "HJBReport",
    "residual_system_limit", "solve_limit", "build_limit_value",
    "verify_hjb_limit", "NonConvergence", "ParameterDegeneracy",
]

SECOND_ORDER_TOL = 1e-6


@dataclass(frozen=True)
class LimitCandidate(NewtonUnknowns):
    """Unknowns of the reflecting model: 0 < A < x0 < B < 1 at a solution."""

    l0: float
    x0: float
    A: float
    B: float

    def ordering_ok(self) -> bool:
        ok = ((0.0 < self.A) & (self.A < self.B) & (self.B < 1.0)
              & (0.0 < self.x0) & (self.x0 < 1.0))
        return np.count_nonzero(ok) == np.size(ok)

    def policy(self) -> tuple:
        """The reflecting policy read as the impulse one: (l0, x0, A, A, B, B)."""
        return (self.l0, self.x0, self.A, self.A, self.B, self.B)

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
    """Rows g - s and half (g' + s^2) at the edges (A, B), with s the trade
    cost's slope there, or their (4, k) block at a stack of k candidates."""
    if not cand.ordering_ok():
        raise ParameterDegeneracy("candidate ordering 0 < A < B < 1 violated")
    if np.count_nonzero(np.isnan(cand.l0)):
        raise ParameterDegeneracy("candidate growth rate l0 is NaN")
    g, dg, half, s = _edge_terms(mp, gamma, cand)
    return np.concatenate([g - s, half * (dg + s * s)])


def _edge_terms(mp: MarketParams, gamma: float, cand: LimitCandidate) -> tuple:
    """g, g' and half(x) at the edges (A, B) and the trade cost's slope s there:
    unchecked kernels, below a check that puts the edges and x0 inside (0, 1)."""
    x = np.array([cand.A, cand.B, cand.x0])
    t = _logit(x)
    g = _g(mp, x[:2], t[:2], cand.x0, t[2], cand.l0)
    return (g, *_slope_dx(mp, x[:2], g, cand.l0), edge_slopes(gamma, 0.0, cand.A, cand.B))


def solve_limit(mp: MarketParams, gamma: float,
                init: LimitCandidate | None = None) -> LimitSolution:
    """Solve the four-unknown reflecting-boundary system; 0 < gamma < 1.

    One Newton run from ``init`` when given (the warm start), then from
    ``best_band``, x0 at the Merton fraction (its "no interior optimum"
    propagates); the first valid root wins, else NonConvergence.  Each run
    goes on below RESIDUAL_TOL by chord steps on the Jacobian of its last
    damped point to the rounding floor (``_slope.damped_newton``), so a warm
    and a cold root agree to rounding.
    At gamma = 0 the no-trade region collapses to the Merton point.
    """
    if gamma <= 0.0:
        raise ParameterDegeneracy("limit solver requires gamma > 0")
    CostParams(0.0, gamma)  # an inadmissible gamma is named before any Newton work
    cand, iters, norm = newton_from_starts(
        LimitCandidate, lambda c: residual_system_limit(mp, gamma, c),
        warm_then_cold(init, lambda: LimitCandidate(*best_band(mp, gamma))),
        lambda c: c.check_invariants(mp))
    return LimitSolution(candidate=cand, residual_norm=norm, newton_iters=iters)


def build_limit_value(mp: MarketParams, gamma: float, sol: LimitSolution) -> ValueFunction:
    """The reflecting model's value function: the impulse ValueFunction at
    delta = 0 with a = alpha = A and beta = b = B, so u(A) = 0 and
    u(B) is the integral of g over [A, B]."""
    return ValueFunction(mp, CostParams(0.0, gamma), sol.candidate, sol.candidate.policy())


@dataclass(frozen=True)
class HJBReport(VerificationReport):
    """verify_qvi's report at delta = 0 plus the C2 row; passed also needs
    second_deriv_mismatch <= SECOND_ORDER_TOL."""

    second_deriv_mismatch: float

    def _rows(self) -> list:
        return super()._rows() + [f"  C2 mismatch at A, B    {self.second_deriv_mismatch:.3e}"]


def verify_hjb_limit(mp: MarketParams, gamma: float, sol: LimitSolution,
                     grid_n: int, tol: float = 1e-6) -> HJBReport:
    """Check the reflecting-model HJB conditions for (u, l0) on a grid.

    The claim comes from ``sol.candidate`` and the curve from the value
    function built from it; verify_qvi at delta = 0 checks the one against
    the other, and max |g' + s^2| at the claim's edges, with s the trade
    cost's slope there, is the C2 row, which is nan when the claim breaks
    0 < A < B < 1 or 0 < x0 < 1.  Violations are reported, never raised.
    """
    vf = replace(build_limit_value(mp, gamma, sol), candidate=sol.candidate)
    report = verify_qvi(mp, CostParams(0.0, gamma), vf, grid_n, tol)
    c = sol.candidate
    _, dg, _, s = _edge_terms(mp, gamma, c) if c.ordering_ok() else (np.nan,) * 4
    mism = float(np.max(np.abs(dg + s * s)))  # nan, no C2 row, off the ordering
    return HJBReport(**{**vars(report), "passed": report.passed and mism <= SECOND_ORDER_TOL},
                     second_deriv_mismatch=mism)
