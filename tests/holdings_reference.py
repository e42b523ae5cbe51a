"""Shared Monte Carlo reference for the band walker: the same paths walked
in (X, Y) holdings.

Per step the bond grows by exp(r dt) and the stock by exp((mu - sigma^2/2)
dt + sigma sqrt(dt) Z).  An impulse rule trades a fraction at or beyond a
(b) to alpha (beta) and multiplies wealth by the wealth factor, optionally
also on a within-step touch sampled from the bridge law; a reflected rule
projects a fraction outside [A, B] back in monetary terms.  It reads the
same Philox streams as the library, so it gives the same paths up to the
rounding of the two coordinate systems.
"""

import math

import numpy as np

from growth_frictions import to_centered, wealth_factor
from growth_frictions.simulate import path_generator


def bridge_crossing_prob(y0, y1, level, sigma, dt):
    """P(a Brownian bridge from y0 to y1 over dt touches level), for y0 and
    y1 on the same side of the level; the drift does not enter the law."""
    expo = -2.0 * (level - np.asarray(y0)) * (level - np.asarray(y1)) / (sigma * sigma * dt)
    return np.exp(np.minimum(expo, 0.0))


def holdings_growth(mp, cfg, paths, impulse=None, reflect=None):
    """Per-path growth over cfg.horizon of the given paths, under
    impulse = (cp, cand) or reflect = (gamma, A, B), from cfg.h0."""
    n = cfg.n_steps
    z = np.array([path_generator(cfg.base_seed, i).standard_normal(n) for i in paths])
    if cfg.bridge_correction:
        u = np.array([path_generator(cfg.base_seed, i, stream=1).random(2 * n) for i in paths])
    X = np.full(len(paths), (1.0 - cfg.h0) * cfg.v0)
    Y = np.full(len(paths), cfg.h0 * cfg.v0)
    y_prev = np.log(Y / X)
    for k in range(n):
        X *= math.exp(mp.r * cfg.dt)
        Y *= np.exp((mp.mu - 0.5 * mp.sigma**2) * cfg.dt + mp.sigma * math.sqrt(cfg.dt) * z[:, k])
        V = X + Y
        h = Y / V
        if reflect is not None:
            gamma, A, B = reflect
            m = np.where(h > B, (Y - B * V) / (1.0 - gamma * B), 0.0)
            buy = np.where(h < A, (A * V - Y) / (1.0 + gamma * A), 0.0)
            Y += buy - m
            X += (1.0 - gamma) * m - (1.0 + gamma) * buy
            continue
        cp, c = impulse
        exit_lo, exit_hi = h <= c.a, h >= c.b
        if cfg.bridge_correction:
            inside = ~(exit_lo | exit_hi)
            y_new = np.log(Y / X)
            p_lo = bridge_crossing_prob(y_prev, y_new, to_centered(c.a), mp.sigma, cfg.dt)
            p_hi = bridge_crossing_prob(y_prev, y_new, to_centered(c.b), mp.sigma, cfg.dt)
            cross_lo = inside & (u[:, 2 * k] < p_lo)
            cross_hi = inside & ~cross_lo & (u[:, 2 * k + 1] < p_hi)
            h = np.where(cross_lo, c.a, np.where(cross_hi, c.b, h))
            exit_lo, exit_hi = exit_lo | cross_lo, exit_hi | cross_hi
        out = exit_lo | exit_hi
        xi = np.where(exit_lo, c.alpha, c.beta)
        v_new = V * wealth_factor(cp, h, xi)
        Y = np.where(out, xi * v_new, Y)
        X = np.where(out, (1.0 - xi) * v_new, X)
        y_prev = np.log(Y / X)
    return (np.log(X + Y) - math.log(cfg.v0)) / cfg.horizon
