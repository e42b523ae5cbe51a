"""Market vocabulary: parameters, growth integrand, cost maps, coordinate transform.

The model is a Black-Scholes market with one bond (rate r) and one stock
(drift mu, volatility sigma).  The state variable everywhere is the risky
fraction h = stock value / total wealth, living in (0, 1).  Rebalancing from
fraction h to target xi costs a fixed fraction delta of wealth plus a
proportional fraction gamma of the traded volume; the exact post-trade wealth
multiplier is ``wealth_factor``.

The logit change of coordinates y = log(h / (1-h)) maps the fraction process
onto the whole real line, where it becomes a Brownian motion with constant
drift mu - r - sigma^2/2 between trades.  ``to_centered`` / ``from_centered``
implement the transform and its inverse; the ``*_transformed`` operations are
the push-forwards of the growth integrand, cost and generator.

All rates are per year; delta and gamma are dimensionless fractions.  The
functions accept floats or numpy arrays and are pure, so they are safe to
call concurrently.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Fraction-space grids stay inside [EPS, 1-EPS]: the optimal region is
# strictly interior and the logit transform is undefined at the endpoints.
EPS = 1e-9


class ParameterError(ValueError):
    """A model invariant does not hold; the message names the constraint."""


def _check(condition: bool, constraint: str) -> None:
    if not condition:
        raise ParameterError(constraint)


@dataclass(frozen=True)
class MarketParams:
    """Black-Scholes coefficients.  Requires 0 < (mu - r)/sigma^2 < 1.

    The bound is enforced with a 1e-12 margin so parameter sets whose
    Merton fraction rounds to an endpoint are rejected rather than
    admitted on float noise.
    """

    r: float
    mu: float
    sigma: float

    def __post_init__(self) -> None:
        _check(self.sigma > 0, "sigma > 0")
        frac = (self.mu - self.r) / (self.sigma * self.sigma)
        _check(1e-12 < frac < 1.0 - 1e-12, "0 < (mu - r)/sigma**2 < 1")


@dataclass(frozen=True)
class CostParams:
    """Fixed cost fraction delta and proportional cost fraction gamma.

    delta = 0 is legal here (pure proportional model and reflected
    simulator); the impulse boundary solver separately requires delta > 0.
    """

    delta: float
    gamma: float

    def __post_init__(self) -> None:
        _check(0.0 <= self.delta < 1.0, "0 <= delta < 1")
        _check(0.0 <= self.gamma < 1.0 - self.delta, "gamma < 1 - delta")
        _check(self.gamma >= 0.0, "gamma >= 0")


def merton_fraction(mp: MarketParams) -> float:
    """Frictionless optimal risky fraction (mu - r)/sigma^2."""
    return (mp.mu - mp.r) / (mp.sigma * mp.sigma)


def growth_integrand(mp: MarketParams, h):
    """Instantaneous excess log-growth rate of holding fraction h.

    Strictly concave with maximum value sigma^2 * hhat^2 / 2 at the
    Merton fraction hhat.
    """
    h = np.asarray(h, dtype=float)
    if np.any(h < 0.0) or np.any(h > 1.0):
        raise ValueError("growth_integrand requires h in [0, 1]")
    out = -0.5 * mp.sigma * mp.sigma * h * h + (mp.mu - mp.r) * h
    return out if out.ndim else float(out)


def no_trade_floor(mp: MarketParams) -> float:
    """max{f(0), f(1)}: the growth excess of holding only bond or only stock."""
    return max(growth_integrand(mp, 0.0), growth_integrand(mp, 1.0))


def check_growth_excess(mp: MarketParams, l: float, name: str) -> None:
    """An interior optimum's growth excess lies strictly between the no-trade
    floor and the Merton rate; raises ParameterError naming ``name``."""
    _check(no_trade_floor(mp) < l < growth_integrand(mp, merton_fraction(mp)),
           f"max{{f(0), f(1)}} < {name} < f(hhat)")


def to_centered(h):
    """Logit transform log(h) - log(1-h); rejects h at or beyond {0, 1}."""
    h = np.asarray(h, dtype=float)
    if np.any(h <= 0.0) or np.any(h >= 1.0):
        raise ValueError("to_centered requires h strictly inside (0, 1)")
    out = np.log(h) - np.log1p(-h)
    return out if out.ndim else float(out)


def from_centered(y):
    """Logistic inverse exp(y)/(1 + exp(y)), evaluated tail-stably.

    Output is in (0, 1) mathematically; in float64 it saturates to exactly
    0.0 or 1.0 once |y| exceeds about 37.
    """
    y = np.asarray(y, dtype=float)
    if not np.all(np.isfinite(y)):
        raise ValueError("from_centered requires finite y")
    out = np.empty_like(y)
    pos = y >= 0.0
    out[pos] = 1.0 / (1.0 + np.exp(-y[pos]))
    e = np.exp(y[~pos])
    out[~pos] = e / (1.0 + e)
    return out if out.ndim else float(out)


def from_centered_deriv(y):
    """Slope of the logistic map: phi'(y) = phi(y) * (1 - phi(y))."""
    p = np.asarray(from_centered(y))
    out = p * (1.0 - p)
    return out if out.ndim else float(out)


def growth_integrand_transformed(mp: MarketParams, y):
    """Growth integrand composed with the logistic map."""
    return growth_integrand(mp, from_centered(y))


def trade_cost_gamma(cp: CostParams, x, y):
    """Log wealth-retention of a trade from fraction x to y, modified branch.

    The branch switches at y = x (not at the exact break-even point
    y = x/(1-delta) of ``wealth_factor``); both conventions coincide on
    every trade with y >= x/(1-delta) or y <= x.  Always <= 0 when
    delta > 0 or x != y.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if np.any(x < 0.0) or np.any(x > 1.0) or np.any(y < 0.0) or np.any(y > 1.0):
        raise ValueError("trade_cost_gamma requires fractions in [0, 1]")
    num = np.where(y > x, 1.0 - cp.delta + cp.gamma * x, 1.0 - cp.delta - cp.gamma * x)
    den = np.where(y > x, 1.0 + cp.gamma * y, 1.0 - cp.gamma * y)
    if np.any(num <= 0.0) or np.any(den <= 0.0):
        raise ValueError("trade_cost_gamma: logarithm argument not positive")
    out = np.log(num) - np.log(den)
    return out if out.ndim else float(out)


def wealth_factor(cp: CostParams, h, xi):
    """Exact post-trade wealth multiplier V_after / V_before in (0, 1].

    Rebalancing from fraction h to xi buys stock when xi >= h/(1-delta)
    (the fixed cost alone pushes the fraction up to h/(1-delta)) and sells
    otherwise; both branches meet at the seam with common value 1 - delta.
    Exactly 1 only for delta = 0 and xi = h; in float64 it also rounds to
    1.0 when delta = 0 and the proportional loss gamma |xi - h| is below
    float64 resolution at 1 (about 1e-16).
    """
    h = np.asarray(h, dtype=float)
    xi = np.asarray(xi, dtype=float)
    if np.any(h < 0.0) or np.any(h > 1.0) or np.any(xi < 0.0) or np.any(xi > 1.0):
        raise ValueError("wealth_factor requires fractions in [0, 1]")
    buy = xi * (1.0 - cp.delta) >= h
    out = np.where(
        buy,
        (1.0 - cp.delta + cp.gamma * h) / (1.0 + cp.gamma * xi),
        (1.0 - cp.delta - cp.gamma * h) / (1.0 - cp.gamma * xi),
    )
    return out if out.ndim else float(out)


def trade_cost_transformed(cp: CostParams, y, zeta):
    """Log wealth factor of the trade y -> y + zeta in transformed space.

    Identical to log(wealth_factor(cp, phi(y), phi(y + zeta))).
    """
    y = np.asarray(y, dtype=float)
    zeta = np.asarray(zeta, dtype=float)
    out = np.log(wealth_factor(cp, from_centered(y), from_centered(y + zeta)))
    return out if out.ndim else float(out)


def apply_generator(mp: MarketParams, u_val, du, ddu, x):
    """Generator of the risky-fraction diffusion applied to (du, ddu) at x.

    x(1-x)(mu - r - sigma^2 x) du + sigma^2 x^2 (1-x)^2 ddu / 2.
    u_val is unused; the argument is kept for signature symmetry with the
    obstacle side of the variational inequality.
    """
    del u_val
    x = np.asarray(x, dtype=float)
    du = np.asarray(du, dtype=float)
    ddu = np.asarray(ddu, dtype=float)
    if np.any(x < 0.0) or np.any(x > 1.0):
        raise ValueError("apply_generator requires x in [0, 1]")
    s2 = mp.sigma * mp.sigma
    out = x * (1.0 - x) * (mp.mu - mp.r - s2 * x) * du + 0.5 * s2 * x * x * (1.0 - x) ** 2 * ddu
    return out if out.ndim else float(out)


def apply_generator_transformed(mp: MarketParams, du, ddu):
    """Constant-coefficient generator in transformed coordinates.

    sigma^2 ddu / 2 + (mu - r - sigma^2/2) du, independent of location.
    """
    du = np.asarray(du, dtype=float)
    ddu = np.asarray(ddu, dtype=float)
    s2 = mp.sigma * mp.sigma
    out = 0.5 * s2 * ddu + (mp.mu - mp.r - 0.5 * s2) * du
    return out if out.ndim else float(out)
