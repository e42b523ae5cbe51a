"""Experiment layer: the exact renewal evaluator of constant boundary
policies, the brute-force search, the delta sweep and its convergence report.

``evaluate_policy_renewal`` prices a constant boundary strategy exactly and
independently of the boundary solver.  In transformed coordinates the
fraction process is a Brownian motion with drift c = mu - r - sigma^2/2
between trades, so each excursion from a restart point to the region edge
is a classical two-boundary exit problem: the exit split comes from the
scale function, and the mean duration and the accumulated growth
integrand from one Green-function quadrature for the two-point boundary
value problem sigma^2 w''/2 + c w' = -fbar, w = 0 at both edges (the
duration is the case fbar = 1), by one 96-node Gauss-Legendre rule on each
side of the restart point.
Chaining the two restart states through their stationary law turns
(reward per cycle)/(length per cycle) into the long-run growth rate.

A batch is priced on the axes of its candidate arrays, each one-sided Green
integral once per pair of its ends, so a box of four independent axes
costs 4 k^2 one-sided integrals.  Restart points whose arrays share a shape,
as a single candidate's or a flat batch's do, go through one exit pass, whose
two Green-side calls integrate the rows from alpha and from beta together.
The quadrature is the oracle's own: the solvers never call it (they price
policies by the closed form ``_slope.policy_value``), and the brute-force
search scans (a, alpha, beta, b) boxes with it, a noise-free check of the
solver's output.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

import numpy as np
# loaded with the package (numpy loads it lazily); only the oracle's quadrature
# builds a rule from it, on first use, and the solvers never do
from numpy.polynomial.legendre import leggauss

from . import limit as _limit
from . import qvi as _qvi
from ._slope import NonConvergence
from .market import (CostParams, MarketParams, _growth, _logistic, _logit, _plain, _wealth,
                     _within, check_deltas, from_centered)

__all__ = [
    "DegenerateChain", "SweepRow", "SweepTable", "BruteForceResult",
    "ConvergenceReport", "exit_prob_up", "expected_exit_time",
    "expected_running_reward", "evaluate_policy_renewal",
    "brute_force_boundaries", "sweep_delta", "convergence_report",
]

class DegenerateChain(RuntimeError):
    """The two-state restart chain has a numerically absorbing state."""


def _scale_increment(u, theta):
    """(1 - exp(-theta u))/theta, the scale-function increment; -> u as
    theta -> 0."""
    u = np.asarray(u, dtype=float)
    if theta == 0.0:
        return u.copy()
    return -np.expm1(-theta * u) / theta


def exit_prob_up(drift: float, vol: float, lo, hi, y):
    """P(Brownian motion with the given drift hits hi before lo | start y)."""
    theta = 2.0 * drift / (vol * vol)
    return _plain(_scale_increment(np.asarray(y) - lo, theta) / _scale_increment(hi - lo, theta))


def expected_exit_time(drift: float, vol: float, lo, hi, y):
    """Mean exit time of (lo, hi) from y: the running reward of 1, from
    the Green-function pass of ``expected_running_reward``."""
    return _exit_problems(np.ones_like, drift, vol, lo, hi, y)[0]


def expected_running_reward(fn, drift: float, vol: float, lo, hi, y):
    """E[ integral of fn(path) until exit of (lo, hi) ], start y.

    Green-function solution of sigma^2 w''/2 + drift w' = -fn with
    w(lo) = w(hi) = 0, by 96-node Gauss-Legendre quadrature on each side of
    y.  Exact to quadrature accuracy (far below 1e-10 for the growth
    integrand on the region widths that arise here).  lo, hi, y may be
    broadcastable arrays; fn must accept arrays.  Each row is integrated on
    its own nodes, so its bits do not depend on the batch it is priced in.
    """
    return _exit_problems(fn, drift, vol, lo, hi, y)[1]


def _exit_problems(fn, drift, vol, lo, hi, y):
    """(mean exit time, running reward of fn, exit_prob_up) of the exit
    problems of (lo, hi) from y, on their broadcast shape: the first two from
    one Green-function pass over the same nodes, the exit split from the scale
    increments that combine them.  Each side is integrated on the axes it
    depends on: [lo, y] on those of lo and y, [y, hi] on those of y and hi."""
    theta = 2.0 * drift / (vol * vol)
    lo, hi, y = (np.asarray(v, dtype=float) for v in (lo, hi, y))
    low = _green_side(fn, lo, y, lambda z, za, zb:
                      _scale_increment(z - za, theta) * np.exp(theta * (z - zb)))
    high = _green_side(fn, y, hi, lambda z, za, zb: _scale_increment(zb - z, theta))
    s_high, s_low, s_all = (_scale_increment(u, theta) for u in (hi - y, y - lo, hi - lo))
    out = [(2.0 / (vol * vol)) * (w_lo * s_high + w_hi * s_low) / s_all
           for w_lo, w_hi in zip(low, high)] + [s_low / s_all]
    return [_plain(v) for v in out]


@cache
def _gauss_legendre():
    """The 96-node Gauss-Legendre rule on [-1, 1], built on first use."""
    return leggauss(96)


def _green_side(fn, za, zb, kernel):
    """Integrals over [za, zb] of kernel(z, za, zb) alone (the duration) and
    times fn (the reward), stacked, on the broadcast shape of za and zb.
    Rows with za <= zb are integrated in one pass over contiguous nodes, so
    a row's bits depend only on its own ends; the others are not integrated
    and read NaN."""
    za, zb = np.broadcast_arrays(za, zb)
    out = np.full((2,) + za.shape, np.nan)
    rows = np.flatnonzero(za <= zb)
    za, zb = za.ravel()[rows, None], zb.ravel()[rows, None]
    nodes, weights = _gauss_legendre()
    hw = 0.5 * (zb - za)
    z = 0.5 * (za + zb) + hw * nodes
    k = kernel(z, za, zb)
    out.reshape(2, -1)[:, rows] = (hw[:, 0] * (weights * k).sum(axis=1),
                                   hw[:, 0] * (weights * (k * fn(z))).sum(axis=1))
    return out


def _own_axes(v):
    """v as a float array without the axes a broadcast view repeats it along."""
    v = np.asarray(v, dtype=float)
    return v[tuple(slice(None, 1) if s == 0 else slice(None) for s in v.strides)]


def _renewal_batch(mp: MarketParams, cp: CostParams, a, al, be, b) -> np.ndarray:
    """Growth rates of constant boundary strategies on the broadcast shape of
    the candidate arrays (a, alpha, beta, b), which may be broadcast views.

    A candidate restarts through two exit problems of (a, b), one from
    alpha and one from beta.  Each one-sided Green integral is priced once
    on the axes of its own two ends: [a, alpha], [alpha, b], [a, beta] and
    [beta, b], and the exit split comes with them; the costs and the growth
    rate are then formed by broadcasting.  A candidate outside a < alpha <= beta < b
    (compared in logit coordinates) is not priced and reads -inf, so no
    caller needs an ordering rule of its own.
    """
    a, al, be, b = _within("_renewal_batch requires fractions strictly inside (0, 1)",
                           *(_own_axes(v) for v in np.broadcast_arrays(a, al, be, b)), open_=True)
    lo, y_low, y_high, hi = (_logit(v) for v in (a, al, be, b))
    valid = (lo < y_low) & (y_low <= y_high) & (y_high < hi)
    c = mp.mu - mp.r - 0.5 * mp.sigma * mp.sigma
    fbar = lambda z: _growth(mp, _logistic(z))  # the nodes lie between finite logits
    if y_low.shape == y_high.shape:  # one exit pass from both restart points
        (m_low, m_high), (w_low, w_high), (p_low, p_high) = _exit_problems(
            fbar, c, mp.sigma, lo, hi, np.stack([y_low, y_high]))
    else:
        (m_low, w_low, p_low), (m_high, w_high, p_high) = (
            _exit_problems(fbar, c, mp.sigma, lo, hi, y) for y in (y_low, y_high))
    bad = valid & ((p_low <= 1e-12) | (p_low >= 1.0 - 1e-12)
                   | (p_high <= 1e-12) | (p_high >= 1.0 - 1e-12))
    if np.count_nonzero(bad):
        k = np.unravel_index(np.argmax(bad), bad.shape)
        raise DegenerateChain(
            "restart chain numerically absorbing: exit probabilities "
            f"p(alpha)={np.broadcast_to(p_low, bad.shape)[k]:.3e}, "
            f"p(beta)={np.broadcast_to(p_high, bad.shape)[k]:.3e}")
    parts = [np.asarray(v) for v in (valid, p_low, p_high, w_low, w_high, m_low, m_high,
                                     np.log(_wealth(cp, a, al)), np.log(_wealth(cp, b, be)))]
    growth = np.empty(np.broadcast_shapes(*(v.shape for v in parts)))
    # one slab of the first axis at a time, so that the combine's temporaries
    # span a slab and not the box; the parts share one number of axes
    for i in np.ndindex(growth.shape[:1]):
        growth[i] = _combine(mp.r, *(v[0] if v.ndim and len(v) == 1 else v[i] for v in parts))
    return growth


def _combine(r, valid, p_low, p_high, w_low, w_high, m_low, m_high, cost_low, cost_high):
    """The growth rate r + reward/length of the restart chain on {alpha,
    beta} through its stationary split; -inf where not valid."""
    # a candidate outside the ordering may split 0/0 here, and only it
    with np.errstate(divide="ignore", invalid="ignore"):
        pi_low = (1.0 - p_high) / (1.0 - p_high + p_low)
        pi_high = p_low / (1.0 - p_high + p_low)
        reward = (pi_low * (w_low + p_low * cost_high + (1.0 - p_low) * cost_low)
                  + pi_high * (w_high + p_high * cost_high + (1.0 - p_high) * cost_low))
        length = pi_low * m_low + pi_high * m_high
        return np.where(valid, r + reward / length, -np.inf)


def evaluate_policy_renewal(mp: MarketParams, cp: CostParams, cand) -> float:
    """Exact long-run growth of the constant boundary strategy given by
    cand's (a, alpha, beta, b), under the original cost convention."""
    if not cand.ordering_ok():
        raise ValueError("candidate ordering a < alpha <= beta < b violated")
    return float(_renewal_batch(mp, cp, cand.a, cand.alpha, cand.beta, cand.b))


REPORT_MIN_ROWS = 3  # rows the convergence report's slope fits need


@dataclass(frozen=True)
class BruteForceResult:
    """The box's argmax and its growth, the four axes (a, alpha, beta, b)
    searched, and the renewal growth of every candidate of the box, one
    dimension per axis."""
    best: "_qvi.BoundaryCandidate"
    best_value: float
    axes: tuple
    growth: np.ndarray


def brute_force_boundaries(mp: MarketParams, cp: CostParams, center,
                           radius: float, step: float) -> BruteForceResult:
    """Exhaustive renewal evaluation on a 4-d box around center.

    The box, k = round(radius/step) steps on each side of an ordered
    center, must stay inside (0, 1) with every a below every alpha and every
    beta below every b; its candidates with alpha > beta read -inf.  l and
    x0 are not searched (the evaluator does not need them) and are copied
    from center into the reported argmax.  step must lie in (0, inf) and
    radius in [0, inf).
    """
    if not (0.0 < step < np.inf and 0.0 <= radius < np.inf):
        raise ValueError("the search box needs 0 < step < inf and 0 <= radius < inf; "
                         f"got step={step:g}, radius={radius:g}")
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
    axes = tuple(v + offs for v in (center.a, center.alpha, center.beta, center.b))
    growth = _renewal_batch(mp, cp, *np.broadcast_arrays(*np.ix_(*axes)))
    kbest = np.unravel_index(np.argmax(growth), growth.shape)
    a, al, be, b = (float(axis[i]) for axis, i in zip(axes, kbest))
    best = _qvi.BoundaryCandidate(l=center.l, x0=center.x0, a=a, alpha=al, beta=be, b=b)
    return BruteForceResult(best=best, best_value=float(growth[kbest]), axes=axes, growth=growth)


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

    The rows are the warm-started delta ladder ``qvi._ladder``.  A failed
    row aborts the sweep; the raised NonConvergence carries the completed
    rows as .partial.
    """
    deltas = check_deltas(deltas, gamma)
    lim = _limit.solve_limit(mp, gamma)
    A, B = lim.candidate.A, lim.candidate.B
    rows = []
    try:
        for delta, cand in _qvi._ladder(mp, gamma, deltas):
            rows.append(SweepRow(
                delta=delta, a=cand.a, alpha=cand.alpha, beta=cand.beta, b=cand.b,
                l=cand.l, rho=mp.r + cand.l,
                gap_lo=cand.alpha - cand.a, gap_hi=cand.b - cand.beta,
                dist_A=abs(cand.a - A), dist_B=abs(cand.b - B),
            ))
    except NonConvergence as err:
        err.partial = SweepTable(market=mp, gamma=gamma, rows=tuple(rows), limit=lim)
        raise
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
