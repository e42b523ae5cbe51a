"""Market vocabulary: parameters, growth integrand, cost maps, coordinate transform.

The model is a Black-Scholes market with one bond (rate r) and one stock
(drift mu, volatility sigma).  The state variable everywhere is the risky
fraction h = stock value / total wealth, living in (0, 1).  Rebalancing from
fraction h to target xi costs a fixed fraction delta of wealth plus a
proportional fraction gamma of the traded volume; the exact post-trade wealth
multiplier is ``wealth_factor``.  The cost's branch terms, break-even rule and
edge slopes, and the generator's coefficients, are written here only.

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

__all__ = [
    "MarketParams", "CostParams", "ParameterError", "merton_fraction", "growth_integrand",
    "to_centered", "from_centered", "growth_integrand_transformed", "trade_cost_gamma",
    "wealth_factor", "trade_cost_transformed", "apply_generator", "apply_generator_transformed",
]

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
        # a sigma whose square underflows to 0 is rejected before it divides
        _check(self.sigma * self.sigma > 0, "sigma**2 > 0")
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
        _check(self.gamma >= 0.0, "gamma >= 0")
        _check(self.gamma < 1.0 - self.delta, "gamma < 1 - delta")


def check_deltas(deltas, gamma: float) -> list:
    """A grid of fixed costs as floats, checked before any solve: one or
    more values 0 < d < 1 - gamma, strictly decreasing, each rule a
    comparison that a NaN fails.  Raises ValueError, since a bad grid is
    bad input rather than a broken model invariant."""
    deltas = [float(d) for d in deltas]
    if not (deltas and all(0.0 < d < 1.0 - gamma for d in deltas)
            and all(d2 < d1 for d1, d2 in zip(deltas, deltas[1:]))):
        raise ValueError("deltas must be one or more values in (0, 1 - gamma), "
                         f"strictly decreasing; got {deltas}")
    return deltas


def _within(error: str, *values, open_: bool = False):
    """values as float arrays (one array for one value), the one domain rule
    of the public primitives: ValueError(error) when an entry lies outside
    [0, 1], or outside (0, 1) with open_.  A NaN fails every comparison and
    so passes."""
    out = [np.asarray(v, dtype=float) for v in values]
    v = np.concatenate([w.ravel() for w in out]) if len(out) > 1 else out[0]
    if np.count_nonzero((v <= 0.0) | (v >= 1.0) if open_ else (v < 0.0) | (v > 1.0)):
        raise ValueError(error)
    return out if len(out) > 1 else out[0]


def _plain(out):
    """A 0-d result as a float; any other result as it is."""
    return out if np.ndim(out) else float(out)


def merton_fraction(mp: MarketParams) -> float:
    """Frictionless optimal risky fraction (mu - r)/sigma^2."""
    return (mp.mu - mp.r) / (mp.sigma * mp.sigma)


def growth_integrand(mp: MarketParams, h):
    """Instantaneous excess log-growth rate of holding fraction h.

    Strictly concave with maximum value sigma^2 * hhat^2 / 2 at the
    Merton fraction hhat.
    """
    return _plain(_growth(mp, _within("growth_integrand requires h in [0, 1]", h)))


def _growth(mp: MarketParams, h):
    """growth_integrand's formula, unchecked: a float at a float h."""
    return -0.5 * mp.sigma * mp.sigma * h * h + (mp.mu - mp.r) * h


def no_trade_floor(mp: MarketParams) -> float:
    """max{f(0), f(1)}: the growth excess of holding only bond or only stock."""
    return max(_growth(mp, 0.0), _growth(mp, 1.0))


def check_growth_excess(mp: MarketParams, l: float, name: str) -> None:
    """An interior optimum's growth excess lies strictly between the no-trade
    floor and the Merton rate; raises ParameterError naming ``name``."""
    _check(no_trade_floor(mp) < l < _growth(mp, merton_fraction(mp)),
           f"max{{f(0), f(1)}} < {name} < f(hhat)")


def to_centered(h):
    """Logit transform log(h) - log(1-h); rejects h at or beyond {0, 1}."""
    return _plain(_logit(_within("to_centered requires h strictly inside (0, 1)", h, open_=True)))


def _logit(h):
    """to_centered's formula at values already known to lie inside (0, 1)."""
    return np.log(h) - np.log1p(-h)


def from_centered(y):
    """Logistic inverse exp(y)/(1 + exp(y)), evaluated tail-stably.

    Output is in (0, 1) mathematically; in float64 it saturates to exactly
    0.0 or 1.0 once |y| exceeds about 37.
    """
    y = np.asarray(y, dtype=float)
    if not np.isfinite(y).all():
        raise ValueError("from_centered requires finite y")
    return _plain(_logistic(y))


def _logistic(y):
    """from_centered's formula at a finite float array y."""
    # exp(-|y|) never overflows; the quotient is 1/(1 + exp(-y)) for y >= 0
    # and exp(y)/(1 + exp(y)) below, bit for bit
    e = np.exp(-np.abs(y))
    return np.where(y >= 0.0, 1.0, e) / (1.0 + e)


def growth_integrand_transformed(mp: MarketParams, y):
    """Growth integrand composed with the logistic map."""
    return growth_integrand(mp, from_centered(y))


def cost_terms(cp: CostParams, x, y, side):
    """Branch terms num = 1 - delta + side gamma x and den = 1 + side gamma y
    of a trade from x to y, side +1 buying and -1 selling: trade_cost_gamma
    is log num - log den, wealth_factor num/den.  Selling, they are
    1 - delta - gamma x and 1 - gamma y bit for bit."""
    return 1.0 - cp.delta + side * cp.gamma * x, 1.0 + side * cp.gamma * y


def buys(cp: CostParams, h, xi):
    """The original convention's break-even rule: a trade from h to xi buys
    stock when xi (1 - delta) >= h."""
    return xi * (1.0 - cp.delta) >= h


def edge_slopes(gamma: float, delta: float, lo, hi):
    """x-slopes of trade_cost_gamma at a band's buying edge lo and selling
    edge hi as one (2, ...) array.  At delta = 0 they are bit for bit the
    target slopes gamma/(1 +- gamma y), minus the cost's y-slopes there."""
    return np.array([gamma / (1.0 - delta + gamma * lo), -gamma / (1.0 - delta - gamma * hi)])


def trade_cost_gamma(cp: CostParams, x, y):
    """Log wealth-retention of a trade from fraction x to y, modified branch.

    The branch switches at y = x (not at the exact break-even point
    y = x/(1-delta) of ``wealth_factor``); both conventions coincide on
    every trade with y >= x/(1-delta) or y <= x.  Always <= 0 when
    delta > 0 or x != y.
    """
    return _plain(_log_cost(cp, *_within("trade_cost_gamma requires fractions in [0, 1]", x, y)))


def _log_cost(cp: CostParams, x, y):
    """trade_cost_gamma's formula, whose terms are positive on [0, 1]."""
    num, den = cost_terms(cp, x, y, np.where(y > x, 1.0, -1.0))
    return np.log(num) - np.log(den)


def wealth_factor(cp: CostParams, h, xi):
    """Exact post-trade wealth multiplier V_after / V_before in (0, 1].

    Rebalancing from fraction h to xi buys stock when xi >= h/(1-delta)
    (the fixed cost alone pushes the fraction up to h/(1-delta)) and sells
    otherwise; both branches meet at the seam with common value 1 - delta.
    Exactly 1 only for delta = 0 and xi = h; in float64 it also rounds to
    1.0 when delta = 0 and the proportional loss gamma |xi - h| is below
    float64 resolution at 1 (about 1e-16).
    """
    return _plain(_wealth(cp, *_within("wealth_factor requires fractions in [0, 1]", h, xi)))


def _wealth(cp: CostParams, h, xi):
    """wealth_factor's formula at fractions in [0, 1]."""
    num, den = cost_terms(cp, h, xi, np.where(buys(cp, h, xi), 1.0, -1.0))
    return num / den


def trade_cost_transformed(cp: CostParams, y, zeta):
    """Log wealth factor of the trade y -> y + zeta in transformed space.

    Identical to log(wealth_factor(cp, phi(y), phi(y + zeta))); the logistic
    map's check implies the wealth factor's, so its kernel is called.
    """
    y = np.asarray(y, dtype=float)
    zeta = np.asarray(zeta, dtype=float)
    return _plain(np.log(_wealth(cp, from_centered(y), from_centered(y + zeta))))


def generator_coefficients(mp: MarketParams, x):
    """Drift x(1-x)(mu - r - sigma^2 x) and diffusion coefficient
    half = sigma^2 (x(1-x))^2 / 2 of the risky fraction: its generator is
    drift d/dx + half d^2/dx^2."""
    s2 = mp.sigma * mp.sigma
    w = x * (1.0 - x)
    return w * (mp.mu - mp.r - s2 * x), 0.5 * s2 * w ** 2


def apply_generator(mp: MarketParams, u_val, du, ddu, x):
    """Generator of the risky-fraction diffusion applied to (du, ddu) at x:
    drift du + half ddu with ``generator_coefficients``.

    u_val is unused; the argument is kept for signature symmetry with the
    obstacle side of the variational inequality.
    """
    del u_val
    drift, half = generator_coefficients(mp, _within("apply_generator requires x in [0, 1]", x))
    return _plain(drift * np.asarray(du, dtype=float) + half * np.asarray(ddu, dtype=float))


def apply_generator_transformed(mp: MarketParams, du, ddu):
    """Constant-coefficient generator in transformed coordinates.

    sigma^2 ddu / 2 + (mu - r - sigma^2/2) du, independent of location.
    """
    du = np.asarray(du, dtype=float)
    ddu = np.asarray(ddu, dtype=float)
    s2 = mp.sigma * mp.sigma
    return _plain(0.5 * s2 * ddu + (mp.mu - mp.r - 0.5 * s2) * du)
