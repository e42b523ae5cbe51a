"""Reference forms for the bit-identity tests: the checked, one-call-per-row
bodies of the slope kernels, both residuals, the closed-form policy value
and the value function with its derivatives, written as each primitive checking its
own inputs and every row calling the primitives anew.  The kernels in use,
which run below one domain check, must reproduce each of them bit for bit."""

import numpy as np

from growth_frictions.market import (edge_slopes, generator_coefficients, growth_integrand,
                                     merton_fraction, to_centered, trade_cost_gamma,
                                     wealth_factor)


def e1(z):
    z = np.asarray(z, dtype=float)
    out = np.ones_like(z)
    nz = z != 0.0
    out[nz] = np.expm1(z[nz]) / z[nz]
    return out


def e2(z):
    z = np.asarray(z, dtype=float)
    out = np.empty_like(z)
    small = np.abs(z) < 1e-3
    zs = z[small]
    out[small] = 0.5 + zs * (1.0 / 6.0 + zs * (1.0 / 24.0 + zs * (1.0 / 120.0 + zs / 720.0)))
    zb = z[~small]
    out[~small] = (np.expm1(zb) - zb) / (zb * zb)
    return out


def softplus(t):
    t = np.asarray(t, dtype=float)
    return np.maximum(t, 0.0) + np.log1p(np.exp(-np.abs(t)))


def power(mp):
    return 2.0 * merton_fraction(mp) - 1.0


def slope_g(mp, x, x0, l):
    x, x0 = np.asarray(x, dtype=float), np.asarray(x0, dtype=float)
    if ((x <= 0.0) | (x >= 1.0) | ~((x0 > 0.0) & (x0 < 1.0))).any():
        raise ValueError("slope_g requires x and x0 strictly inside (0, 1)")
    p = power(mp)
    f1 = growth_integrand(mp, 1.0)
    d = to_centered(x0) - to_centered(x)
    em = d * e1(p * d)
    w = x * (1.0 - x)
    out = -(2.0 / (mp.sigma * mp.sigma)) * (l - x * f1) * em / w + (x0 - x) * np.exp(p * d) / w
    return out if out.ndim else float(out)


def slope_dx(mp, x, g, l):
    drift, half = generator_coefficients(mp, x)
    return (l - growth_integrand(mp, x) - drift * g) / half, half


def slope_g_dx(mp, x, x0, l):
    x = np.asarray(x, dtype=float)
    out = slope_dx(mp, x, np.asarray(slope_g(mp, x, x0, l)), l)[0]
    return out if out.ndim else float(out)


def slope_g_integral(mp, x_from, x_to, x0, l):
    x_from, x_to = np.asarray(x_from, dtype=float), np.asarray(x_to, dtype=float)
    if ((x_from <= 0.0) | (x_from >= 1.0) | (x_to <= 0.0) | (x_to >= 1.0)).any():
        raise ValueError("slope_g_integral requires endpoints strictly inside (0, 1)")
    p = power(mp)
    t0 = to_centered(x0)
    t1 = to_centered(x_from)
    t2 = to_centered(x_to)
    dt = t2 - t1
    u2 = t0 - t2
    piece_a = dt * (dt * e2(p * dt) + u2 * e1(p * u2) * e1(p * dt))
    piece_b = x0 * np.exp(p * u2) * dt * e1(p * dt)
    piece_c = softplus(t2) - softplus(t1)
    out = -(2.0 * l / (mp.sigma * mp.sigma)) * piece_a + piece_b - piece_c
    return out if out.ndim else float(out)


def policy_value(mp, cp, a, al, be, b):
    hhat, p = merton_fraction(mp), power(mp)
    lo, y_low, y_high, hi = (np.asarray(to_centered(v)) for v in (a, al, be, b))

    def row(x1, x2, t1, t2, cost):
        base, dt = slope_g_integral(mp, x1, x2, hhat, 0.0), t2 - t1
        c = dt * np.exp(p * (to_centered(hhat) - t2)) * e1(p * dt)
        return (slope_g_integral(mp, x1, x2, hhat, 1.0) - base) / c, (base + cost) / c

    with np.errstate(divide="ignore", invalid="ignore"):
        k_low, r_low = row(a, al, lo, y_low, np.log(wealth_factor(cp, a, al)))
        k_high, r_high = row(be, b, y_high, hi, -np.log(wealth_factor(cp, b, be)))
        l = (r_high - r_low) / (k_low - k_high)
    return np.where((lo < y_low) & (y_low <= y_high) & (y_high < hi), mp.r + l, -np.inf)


def pasting_rows(mp, cp, l, x0, a, alpha, beta, b):
    g = slope_g(mp, np.array([alpha, beta, a, b]), x0, l)
    return g - np.concatenate([edge_slopes(cp.gamma, 0.0, alpha, beta),
                               edge_slopes(cp.gamma, cp.delta, a, b)])


def residual_system(mp, cp, cand):
    """The impulse residual without its ordering check (the tests pass
    ordered candidates)."""
    integral = slope_g_integral(mp, np.array([cand.a, cand.beta]),
                                np.array([cand.alpha, cand.b]), cand.x0, cand.l)
    cost = trade_cost_gamma(cp, np.array([cand.a, cand.b]), np.array([cand.alpha, cand.beta]))
    return np.concatenate([pasting_rows(mp, cp, *cand.policy()),
                           [integral[0] + cost[0], integral[1] - cost[1]]])


def residual_system_limit(mp, gamma, cand):
    """The limit residual without its ordering check."""
    edges = np.array([cand.A, cand.B])
    s = edge_slopes(gamma, 0.0, cand.A, cand.B)
    g = slope_g(mp, edges, cand.x0, cand.l0)
    dg, half = slope_dx(mp, edges, g, cand.l0)
    return np.concatenate([g - s, half * (dg + s * s)])


def _piecewise(vf, x, low, mid, high):
    x = np.asarray(x, dtype=float)
    _, _, a, _, _, b = vf.anchor
    below, above = x < a, x > b
    out = np.empty_like(x)
    for mask, piece in ((below, low), (~(below | above), mid), (above, high)):
        if mask.any():
            out[mask] = piece(x[mask])
    return out if out.ndim else float(out)


def _cost_slopes(vf, y):
    return edge_slopes(vf.costs.gamma, vf.costs.delta, y, y)


def u(vf, x):
    l, x0, a, al, be, _ = vf.anchor
    u_a = trade_cost_gamma(vf.costs, a, al)
    u_beta = u_a + slope_g_integral(vf.market, a, be, x0, l)
    return _piecewise(vf, x, lambda y: trade_cost_gamma(vf.costs, y, al),
                      lambda y: u_a + slope_g_integral(vf.market, a, y, x0, l),
                      lambda y: u_beta + trade_cost_gamma(vf.costs, y, be))


def du(vf, x):
    l, x0 = vf.anchor[:2]
    return _piecewise(vf, x, lambda y: _cost_slopes(vf, y)[0],
                      lambda y: slope_g(vf.market, y, x0, l),
                      lambda y: _cost_slopes(vf, y)[1])


def ddu(vf, x):
    l, x0 = vf.anchor[:2]
    return _piecewise(vf, x, lambda y: -_cost_slopes(vf, y)[0] ** 2,
                      lambda y: slope_g_dx(vf.market, y, x0, l),
                      lambda y: -_cost_slopes(vf, y)[1] ** 2)
