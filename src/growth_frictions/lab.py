"""Experiment layer: the brute-force search, the delta sweep and its
convergence report.  The search scans (a, alpha, beta, b) boxes with the
exact renewal evaluator of ``_policy`` (re-exported here), a noise-free
oracle for the solver's output.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import limit as _limit
from . import qvi as _qvi
from ._policy import (DegenerateChain, _renewal_batch, evaluate_policy_renewal,
                      exit_prob_up, expected_exit_time, expected_running_reward)
from ._slope import NonConvergence
from .market import CostParams, MarketParams, check_deltas

__all__ = [
    "DegenerateChain", "SweepRow", "SweepTable", "BruteForceResult",
    "ConvergenceReport", "exit_prob_up", "expected_exit_time",
    "expected_running_reward", "evaluate_policy_renewal",
    "brute_force_boundaries", "sweep_delta", "convergence_report",
]

REPORT_MIN_ROWS = 3  # rows the convergence report's slope fits need


@dataclass(frozen=True)
class BruteForceResult:
    best: "_qvi.BoundaryCandidate"
    best_value: float
    values: np.ndarray  # columns a, alpha, beta, b, growth


def brute_force_boundaries(mp: MarketParams, cp: CostParams, center,
                           radius: float, step: float) -> BruteForceResult:
    """Exhaustive renewal evaluation on a 4-d box around center.

    The box, k = round(radius/step) steps on each side of an ordered
    center, must stay inside (0, 1) with every a below every alpha and every
    beta below every b; its candidates with alpha > beta read -inf.  l and
    x0 are not searched (the evaluator does not need them) and are copied
    from center into the reported argmax.
    """
    k = int(round(radius / step))
    half = k * step
    offs = np.arange(-k, k + 1) * step
    box = f"the search box of radius {radius:g} (half-width {half:g}) around the candidate"
    if center.a - half <= 0 or center.b + half >= 1:
        raise ValueError(f"{box} leaves (0, 1)")
    if (center.alpha - half <= center.a + half
            or center.beta < center.alpha
            or center.b - half <= center.beta + half):
        raise ValueError(f"{box} breaks the ordering a < alpha <= beta < b")
    cand = np.broadcast_arrays(*np.ix_(center.a + offs, center.alpha + offs,
                                       center.beta + offs, center.b + offs))
    growth = _renewal_batch(mp, cp, *cand).ravel()
    aa, al, be, bb = (v.ravel() for v in cand)
    kbest = int(np.argmax(growth))
    best = _qvi.BoundaryCandidate(
        l=center.l, x0=center.x0,
        a=float(aa[kbest]), alpha=float(al[kbest]),
        beta=float(be[kbest]), b=float(bb[kbest]))
    return BruteForceResult(
        best=best, best_value=float(growth[kbest]),
        values=np.column_stack([aa, al, be, bb, growth]))


@dataclass(frozen=True)
class SweepRow:
    delta: float
    a: float
    alpha: float
    beta: float
    b: float
    l: float
    rho: float
    gap_lo: float
    gap_hi: float
    dist_A: float
    dist_B: float


@dataclass(frozen=True)
class SweepTable:
    market: MarketParams
    gamma: float
    rows: tuple
    limit: "_limit.LimitSolution"


def sweep_delta(mp: MarketParams, gamma: float, deltas) -> SweepTable:
    """Solve the boundary system along a decreasing delta grid.

    Each row warm starts from the previous one (the solver falls back to
    its cold start if that fails).  A failed row aborts the sweep; the
    raised NonConvergence carries the completed rows as .partial.
    """
    deltas = check_deltas(deltas, gamma)
    lim = _limit.solve_limit(mp, gamma)
    A, B, l0 = lim.candidate.A, lim.candidate.B, lim.candidate.l0
    rows = []
    prev = None
    for delta in deltas:
        cp = CostParams(delta=delta, gamma=gamma)
        try:
            sol = _qvi.solve_boundaries(mp, cp, init=prev)
        except NonConvergence as err:
            err.partial = SweepTable(market=mp, gamma=gamma, rows=tuple(rows), limit=lim)
            raise
        cand = sol.candidate
        prev = cand
        rows.append(SweepRow(
            delta=delta, a=cand.a, alpha=cand.alpha, beta=cand.beta, b=cand.b,
            l=cand.l, rho=mp.r + cand.l,
            gap_lo=cand.alpha - cand.a, gap_hi=cand.b - cand.beta,
            dist_A=abs(cand.a - A), dist_B=abs(cand.b - B),
        ))
    return SweepTable(market=mp, gamma=gamma, rows=tuple(rows), limit=lim)


@dataclass(frozen=True)
class ConvergenceReport:
    slope_gap_lo: float
    slope_gap_hi: float
    slope_l_gap: float
    flags: tuple
    limit_rho: float

    def text(self) -> str:
        lines = [
            "delta sweep convergence report",
            f"  log-log slope of gap_lo vs delta : {self.slope_gap_lo:+.4f}",
            f"  log-log slope of gap_hi vs delta : {self.slope_gap_hi:+.4f}",
            f"  log-log slope of (l0 - l) vs delta: {self.slope_l_gap:+.4f}",
            f"  limit growth rate r + l0          : {self.limit_rho:.10f}",
            f"  monotonicity flags                : {len(self.flags)}",
        ]
        lines.extend(f"    {flag}" for flag in self.flags)
        return "\n".join(lines)


def convergence_report(table: SweepTable) -> ConvergenceReport:
    """Descriptive log-log slopes plus monotonicity flags, one per bad
    adjacent pair of rows."""
    rows = table.rows
    if len(rows) < REPORT_MIN_ROWS:
        raise ValueError(f"report needs at least {REPORT_MIN_ROWS} sweep rows")
    l0 = table.limit.candidate.l0
    flags = []
    for i, (r1, r2) in enumerate(zip(rows, rows[1:])):
        problems = []
        if not r2.delta < r1.delta:
            problems.append("delta not decreasing")
        if not r2.rho > r1.rho:
            problems.append("rho not increasing")
        if not r2.gap_lo < r1.gap_lo:
            problems.append("gap_lo not decreasing")
        if not r2.gap_hi < r1.gap_hi:
            problems.append("gap_hi not decreasing")
        if problems:
            flags.append(f"rows {i}-{i + 1}: " + "; ".join(problems))
    for i, row in enumerate(rows):
        if not row.rho < table.market.r + l0:
            flags.append(f"row {i}: rho does not stay below the limit value")
    ld = np.log([r.delta for r in rows])
    slope_lo = float(np.polyfit(ld, np.log([r.gap_lo for r in rows]), 1)[0])
    slope_hi = float(np.polyfit(ld, np.log([r.gap_hi for r in rows]), 1)[0])
    lgap = np.array([l0 - r.l for r in rows])
    slope_l = float(np.polyfit(ld, np.log(np.maximum(lgap, 1e-300)), 1)[0])
    return ConvergenceReport(
        slope_gap_lo=slope_lo, slope_gap_hi=slope_hi, slope_l_gap=slope_l,
        flags=tuple(flags), limit_rho=table.market.r + l0,
    )
