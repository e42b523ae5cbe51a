"""Exact long-run growth of constant boundary policies.

``evaluate_policy_renewal`` prices a constant boundary strategy exactly and
independently of the boundary solver.  In transformed coordinates the
fraction process is a Brownian motion with drift c = mu - r - sigma^2/2
between trades, so each excursion from a restart point to the region edge
is a classical two-boundary exit problem: the exit split comes from the
scale function, and the mean duration and the accumulated growth
integrand from one Green-function quadrature for the two-point boundary
value problem sigma^2 w''/2 + c w' = -fbar, w = 0 at both edges (the
duration is the case fbar = 1), whose Gauss-Legendre order follows each
side's width.
Chaining the two restart states through their stationary law turns
(reward per cycle)/(length per cycle) into the long-run growth rate.

It sits below both solvers and imports only ``market``.  A batch is priced
on the axes of its candidate arrays, each one-sided Green integral once per
pair of its ends, so a box of four independent axes costs 4 k^2 one-sided
integrals.  It is the oracle's pricer; the cold seed ranks its grids with
the closed form ``_slope.policy_value`` and prices only the winner here.
"""

from __future__ import annotations

from functools import cache

import numpy as np
# loaded with the package: numpy loads it lazily, and loading it in the middle
# of a seed search left about 1 MB of heap pinned under the Monte Carlo peak
from numpy.polynomial.legendre import leggauss

from .market import CostParams, MarketParams, _wealth, growth_integrand_transformed, to_centered

# The width rule.  The growth integrand's only singularities are the
# logistic poles at distance pi from the real axis, so Gauss-Legendre with n
# nodes on an interval of half-width r errs by about rho^(-2n), where
# rho = beta + sqrt(beta^2 + 1) = exp(asinh(beta)) and beta = pi/r (the
# Bernstein-ellipse bound).  Each side of the restart point gets the fewest
# nodes of _GL_ORDERS that reach _GL_TARGET with beta halved for safety,
# i.e. n is allowed up to the half-width _GL_MAX_HALF_WIDTH; wider sides
# get 96 nodes.
_GL_ORDERS = np.array([8, 12, 16, 24, 32, 48, 64, 96])
_GL_SAFETY = 0.5
_GL_TARGET = 1e-18
_GL_MAX_HALF_WIDTH = np.array([
    _GL_SAFETY * np.pi / np.sinh(-np.log(_GL_TARGET) / (2 * n)) for n in _GL_ORDERS[:-1]])


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
    out = _scale_increment(np.asarray(y) - lo, theta) / _scale_increment(hi - lo, theta)
    return out if out.ndim else float(out)


def expected_exit_time(drift: float, vol: float, lo, hi, y):
    """Mean exit time of (lo, hi) from y: the running reward of 1, from
    the Green-function pass of ``expected_running_reward``."""
    return _exit_problems(np.ones_like, drift, vol, lo, hi, y)[0]


def expected_running_reward(fn, drift: float, vol: float, lo, hi, y):
    """E[ integral of fn(path) until exit of (lo, hi) ], start y.

    Green-function solution of sigma^2 w''/2 + drift w' = -fn with
    w(lo) = w(hi) = 0, by Gauss-Legendre quadrature on each side of y with
    the width rule's order: the fewest nodes of _GL_ORDERS whose
    Bernstein-ellipse bound rho^(-2n) for the logistic poles at distance pi
    reaches _GL_TARGET, and 96 beyond the 64-node width.  Exact to
    quadrature accuracy (far below 1e-10 for the growth integrand on the
    region widths that arise here).  lo, hi, y may be broadcastable arrays;
    fn must accept arrays.  A row's order depends only on its own widths,
    so its bits do not depend on the batch it is priced in.
    """
    return _exit_problems(fn, drift, vol, lo, hi, y)[1]


def _exit_problems(fn, drift, vol, lo, hi, y):
    """(mean exit time, running reward of fn) of the exit problems of (lo, hi)
    from y, on their broadcast shape, both from one Green-function pass over
    the same nodes.  Each side is integrated on the axes it depends on:
    [lo, y] on those of lo and y, [y, hi] on those of y and hi."""
    theta = 2.0 * drift / (vol * vol)
    lo, hi, y = (np.asarray(v, dtype=float) for v in (lo, hi, y))
    low = _green_side(fn, lo, y, lambda z, za, zb:
                      _scale_increment(z - za, theta) * np.exp(theta * (z - zb)))
    high = _green_side(fn, y, hi, lambda z, za, zb: _scale_increment(zb - z, theta))
    s_high, s_low, s_all = (_scale_increment(u, theta) for u in (hi - y, y - lo, hi - lo))
    out = [(2.0 / (vol * vol)) * (w_lo * s_high + w_hi * s_low) / s_all
           for w_lo, w_hi in zip(low, high)]
    return out if out[0].ndim else [float(v) for v in out]


@cache
def _gauss_legendre(n: int):
    """The n-node Gauss-Legendre rule on [-1, 1], built on first use."""
    return leggauss(n)


def _gl_order(half_width):
    """The width rule: the Gauss-Legendre order for each half-width."""
    return _GL_ORDERS[np.searchsorted(_GL_MAX_HALF_WIDTH, half_width)]


def _green_side(fn, za, zb, kernel):
    """Integrals over [za, zb] of kernel(z, za, zb) alone (the duration) and
    times fn (the reward), stacked, on the broadcast shape of za and zb.
    Rows with za <= zb are integrated in one pass per Gauss-Legendre order,
    over contiguous nodes, so a row's bits depend only on its own width; the
    others are not integrated and read NaN."""
    za, zb = np.broadcast_arrays(za, zb)
    out = np.full((2,) + za.shape, np.nan)
    rows = np.flatnonzero(za <= zb)
    za, zb = za.ravel()[rows], zb.ravel()[rows]
    hw = 0.5 * (zb - za)
    order = _gl_order(hw)
    for n in set(order.tolist()):
        i = order == n
        nodes, weights = _gauss_legendre(n)
        z = 0.5 * (za[i] + zb[i])[:, None] + hw[i, None] * nodes
        k = kernel(z, za[i, None], zb[i, None])
        out.reshape(2, -1)[:, rows[i]] = (hw[i] * (weights * k).sum(axis=1),
                                          hw[i] * (weights * (k * fn(z))).sum(axis=1))
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
    [beta, b]; the exit split, the costs and the growth rate are then
    formed by broadcasting.  A candidate outside a < alpha <= beta < b
    (compared in logit coordinates) is not priced and reads -inf, so no
    caller needs an ordering rule of its own.
    """
    a, al, be, b = (_own_axes(v) for v in (a, al, be, b))
    lo, y_low, y_high, hi = (np.asarray(to_centered(v)) for v in (a, al, be, b))
    valid = (lo < y_low) & (y_low <= y_high) & (y_high < hi)
    c = mp.mu - mp.r - 0.5 * mp.sigma * mp.sigma
    p_low = exit_prob_up(c, mp.sigma, lo, hi, y_low)
    p_high = exit_prob_up(c, mp.sigma, lo, hi, y_high)
    bad = valid & ((p_low <= 1e-12) | (p_low >= 1.0 - 1e-12)
                   | (p_high <= 1e-12) | (p_high >= 1.0 - 1e-12))
    if bad.any():
        k = np.unravel_index(np.argmax(bad), bad.shape)
        raise DegenerateChain(
            "restart chain numerically absorbing: exit probabilities "
            f"p(alpha)={np.broadcast_to(p_low, bad.shape)[k]:.3e}, "
            f"p(beta)={np.broadcast_to(p_high, bad.shape)[k]:.3e}")
    fbar = lambda z: growth_integrand_transformed(mp, z)
    m_low, w_low = _exit_problems(fbar, c, mp.sigma, lo, hi, y_low)
    m_high, w_high = _exit_problems(fbar, c, mp.sigma, lo, hi, y_high)
    cost_low = np.log(_wealth(cp, a, al))
    cost_high = np.log(_wealth(cp, b, be))
    # stationary split of the restart chain on {alpha, beta}; a candidate
    # outside the ordering may split 0/0 here, and only it
    with np.errstate(divide="ignore", invalid="ignore"):
        pi_low = (1.0 - p_high) / (1.0 - p_high + p_low)
        pi_high = p_low / (1.0 - p_high + p_low)
        reward = (pi_low * (w_low + p_low * cost_high + (1.0 - p_low) * cost_low)
                  + pi_high * (w_high + p_high * cost_high + (1.0 - p_high) * cost_low))
        length = pi_low * m_low + pi_high * m_high
        return np.where(valid, mp.r + reward / length, -np.inf)


def evaluate_policy_renewal(mp: MarketParams, cp: CostParams, cand) -> float:
    """Exact long-run growth of the constant boundary strategy given by
    cand's (a, alpha, beta, b), under the original cost convention."""
    if not cand.ordering_ok():
        raise ValueError("candidate ordering a < alpha <= beta < b violated")
    return float(_renewal_batch(mp, cp, cand.a, cand.alpha, cand.beta, cand.b))
