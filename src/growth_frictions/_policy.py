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

It sits below both solvers and imports only ``market``.  A batch prices
each distinct exit problem (a, b, restart point) once, so a box of k^4
candidates costs about 2 k^3 exit problems.
"""

from __future__ import annotations

from functools import cache

import numpy as np
# loaded with the package: numpy loads it lazily, and loading it in the middle
# of a seed search left about 1 MB of heap pinned under the Monte Carlo peak
from numpy.polynomial.legendre import leggauss

from .market import (CostParams, MarketParams, growth_integrand_transformed,
                     to_centered, wealth_factor)

# The width rule.  The growth integrand's only singularities are the
# logistic poles at distance pi from the real axis, so Gauss-Legendre with n
# nodes on an interval of half-width r errs by about rho^(-2n), where
# rho = beta + sqrt(beta^2 + 1) = exp(asinh(beta)) and beta = pi/r (the
# Bernstein-ellipse bound).  Each side of the restart point gets the fewest
# nodes of _GL_ORDERS that reach _GL_TARGET with beta halved for safety,
# i.e. n is allowed up to the half-width _GL_MAX_HALF_WIDTH; wider sides
# get 96 nodes.
_GL_ORDERS = (8, 12, 16, 24, 32, 48, 64, 96)
_GL_SAFETY = 0.5
_GL_TARGET = 1e-18
_GL_MAX_HALF_WIDTH = np.array([
    _GL_SAFETY * np.pi / np.sinh(-np.log(_GL_TARGET) / (2 * n)) for n in _GL_ORDERS[:-1]])
# Exit problems per quadrature block: a block's (rows, nodes) temporaries
# stay near 1.5 MB each at 96 nodes, where one pass over the 18,522 rows of a
# 21^4 oracle box took 14 MB each.
_QUAD_ROWS = 2048


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
    region widths that arise here).  lo, hi, y may be 1-d arrays of equal shape; fn must accept
    arrays.  Rows are integrated in blocks of _QUAD_ROWS; a row's order
    depends only on its own widths, so its bits do not depend on the block
    or the batch it is priced in.
    """
    return _exit_problems(fn, drift, vol, lo, hi, y)[1]


def _exit_problems(fn, drift, vol, lo, hi, y):
    """(mean exit time, running reward of fn) of each exit problem, both
    from one Green-function pass over the same nodes."""
    scalar = np.ndim(lo) == 0 and np.ndim(hi) == 0 and np.ndim(y) == 0
    lo = np.atleast_1d(np.asarray(lo, dtype=float))
    hi = np.atleast_1d(np.asarray(hi, dtype=float))
    y = np.atleast_1d(np.asarray(y, dtype=float))
    lo, hi, y = np.broadcast_arrays(lo, hi, y)
    theta = 2.0 * drift / (vol * vol)
    out = np.empty((2,) + lo.shape)
    for k in range(0, lo.size, _QUAD_ROWS):
        rows = slice(k, k + _QUAD_ROWS)
        out[:, rows] = _green_quadrature(fn, theta, vol, lo[rows], hi[rows], y[rows])
    return (float(out[0, 0]), float(out[1, 0])) if scalar else out


@cache
def _gauss_legendre(n: int):
    """The n-node Gauss-Legendre rule on [-1, 1], built on first use."""
    return leggauss(n)


def _gl_order(half_width):
    """The width rule: the Gauss-Legendre order for each half-width."""
    return np.take(_GL_ORDERS, np.searchsorted(_GL_MAX_HALF_WIDTH, half_width))


def _green_quadrature(fn, theta, vol, lo, hi, y):
    """Mean exit times and running rewards of one block of rows, stacked:
    each side's Green kernel is integrated alone (the duration) and times
    fn (the reward) over the same nodes."""

    def half_integral(za, zb, kernel):
        # rows of one order are integrated together, over contiguous nodes
        hw = 0.5 * (zb - za)
        order = _gl_order(hw)
        out = np.empty((2,) + hw.shape)
        for n in np.unique(order):
            i = np.flatnonzero(order == n)
            nodes, weights = _gauss_legendre(int(n))
            z = 0.5 * (za[i] + zb[i])[:, None] + hw[i, None] * nodes[None, :]
            k = kernel(z, i)
            out[0, i] = hw[i] * np.sum(weights[None, :] * k, axis=1)
            out[1, i] = hw[i] * np.sum(weights[None, :] * (k * fn(z)), axis=1)
        return out

    low_part = half_integral(
        lo, y,
        lambda z, i: _scale_increment(z - lo[i, None], theta)
        * np.exp(theta * (z - y[i, None])))
    high_part = half_integral(
        y, hi,
        lambda z, i: _scale_increment(hi[i, None] - z, theta))
    return (2.0 / (vol * vol)) * (
        low_part * _scale_increment(hi - y, theta)
        + high_part * _scale_increment(y - lo, theta)
    ) / _scale_increment(hi - lo, theta)


def _renewal_batch(mp: MarketParams, cp: CostParams, a, al, be, b) -> np.ndarray:
    """Growth rates of constant boundary strategies, vectorised over
    candidate arrays (all shape (n,)).

    Candidate i restarts through two exit problems of (a_i, b_i), one from
    alpha_i and one from beta_i.  Boxes and seed grids share most of them,
    so each distinct (a, b, y) triple is priced once and gathered back.
    """
    n = np.size(a)
    a_vals, a_code = np.unique(a, return_inverse=True)
    b_vals, b_code = np.unique(b, return_inverse=True)
    y_vals, y_code = np.unique(np.concatenate([al, be]), return_inverse=True)
    dims = (a_vals.size, b_vals.size, y_vals.size)
    triples, problem = np.unique(
        np.ravel_multi_index((np.tile(a_code, 2), np.tile(b_code, 2), y_code), dims),
        return_inverse=True)
    i_a, i_b, i_y = np.unravel_index(triples, dims)
    lo, hi, y = to_centered(a_vals)[i_a], to_centered(b_vals)[i_b], to_centered(y_vals)[i_y]
    c = mp.mu - mp.r - 0.5 * mp.sigma * mp.sigma

    def per_candidate(per_problem):
        out = per_problem[problem]
        return out[:n], out[n:]

    p_low, p_high = per_candidate(exit_prob_up(c, mp.sigma, lo, hi, y))
    bad = (p_low <= 1e-12) | (p_low >= 1.0 - 1e-12) | (p_high <= 1e-12) | (p_high >= 1.0 - 1e-12)
    if np.any(bad):
        k = int(np.argmax(bad))
        raise DegenerateChain(
            "restart chain numerically absorbing: exit probabilities "
            f"p(alpha)={p_low[k]:.3e}, p(beta)={p_high[k]:.3e}")
    m, w = _exit_problems(lambda z: growth_integrand_transformed(mp, z), c, mp.sigma, lo, hi, y)
    m_low, m_high = per_candidate(m)
    w_low, w_high = per_candidate(w)
    cost_low = np.log(wealth_factor(cp, a, al))
    cost_high = np.log(wealth_factor(cp, b, be))
    # stationary split of the restart chain on {alpha, beta}
    pi_low = (1.0 - p_high) / (1.0 - p_high + p_low)
    pi_high = p_low / (1.0 - p_high + p_low)
    reward = (pi_low * (w_low + p_low * cost_high + (1.0 - p_low) * cost_low)
              + pi_high * (w_high + p_high * cost_high + (1.0 - p_high) * cost_low))
    length = pi_low * m_low + pi_high * m_high
    return mp.r + reward / length


def evaluate_policy_renewal(mp: MarketParams, cp: CostParams, cand) -> float:
    """Exact long-run growth of the constant boundary strategy given by
    cand's (a, alpha, beta, b), under the original cost convention."""
    if not cand.ordering_ok():
        raise ValueError("candidate ordering a < alpha <= beta < b violated")
    out = _renewal_batch(
        mp, cp,
        np.array([cand.a]), np.array([cand.alpha]),
        np.array([cand.beta]), np.array([cand.b]))
    return float(out[0])
