"""Slope function of the continuation region, the value function built from
it, and the damped Newton engine, each of whose Jacobians is one residual
call on a stack of candidates, with the start loop of both solvers.

Inside the no-trade region the value function's derivative is an explicit
function g(x, x0, l) anchored so that g(x0, x0, l) = 0.  The textbook form
has two branches, a power-law one and an integral one for the knife-edge
parameter set where the transformed drift vanishes.  Rearranged through
expm1 the power branch extends continuously through that set, so a single
expression covers both; the integral branch is its exact limit.  The same
rearrangement yields closed forms for the antiderivative, so no quadrature
is needed anywhere in the solvers.

Derivatives of g are evaluated through the continuation ODE rearranged,
g'(x) = (l - f(x) - x(1-x)(mu - r - sigma^2 x) g(x)) / (sigma^2 x^2 (1-x)^2 / 2),
which is exact because g solves that ODE identically in (x0, l).

``ValueFunction`` is the piecewise value function of both models (the
reflecting limit is its case delta = 0, a = alpha = A, beta = b = B), and
``_grid_check`` is the grid pass that both verifications share.
"""

from __future__ import annotations

from dataclasses import astuple, dataclass, field

import numpy as np

from .market import (EPS, CostParams, MarketParams, apply_generator,
                     growth_integrand, merton_fraction, to_centered,
                     trade_cost_gamma)


# A solve is accepted when the residual max-norm is at most RESIDUAL_TOL.
RESIDUAL_TOL = 1e-10
# Damped Newton: iteration cap, forward-difference step (relative to
# max(1, |v_j|)), smallest damped step, step halvings per iteration.
_MAX_ITER, _FD_STEP, _MIN_STEP, _MAX_HALVINGS = 80, 1e-7, 1e-14, 50


class ParameterDegeneracy(ValueError):
    """Inputs outside the regime the solver supports."""


class NonConvergence(RuntimeError):
    """Newton did not reach a valid root."""


def _e1(z):
    """expm1(z)/z with the removable singularity filled in."""
    z = np.asarray(z, dtype=float)
    out = np.ones_like(z)
    nz = z != 0.0
    out[nz] = np.expm1(z[nz]) / z[nz]
    return out


def _e2(z):
    """(expm1(z) - z)/z^2 -> 1/2; series below 1e-3 to dodge cancellation."""
    z = np.asarray(z, dtype=float)
    out = np.empty_like(z)
    small = np.abs(z) < 1e-3
    zs = z[small]
    out[small] = 0.5 + zs * (1.0 / 6.0 + zs * (1.0 / 24.0 + zs * (1.0 / 120.0 + zs / 720.0)))
    zb = z[~small]
    out[~small] = (np.expm1(zb) - zb) / (zb * zb)
    return out


def _softplus(t):
    t = np.asarray(t, dtype=float)
    return np.maximum(t, 0.0) + np.log1p(np.exp(-np.abs(t)))


def _power(mp: MarketParams) -> float:
    """Exponent 2*hhat - 1 of the slope formula; zero at the knife edge."""
    return 2.0 * merton_fraction(mp) - 1.0


def slope_g(mp: MarketParams, x, x0: float, l: float):
    """Derivative of the value function on the no-trade region.

    Vanishes at x = x0 by construction; x and x0 (a scalar, or one value
    per x) must be strictly inside (0, 1).
    """
    x, x0 = np.asarray(x, dtype=float), np.asarray(x0, dtype=float)
    if ((x <= 0.0) | (x >= 1.0) | ~((x0 > 0.0) & (x0 < 1.0))).any():
        raise ValueError("slope_g requires x and x0 strictly inside (0, 1)")
    p = _power(mp)
    f1 = growth_integrand(mp, 1.0)
    d = to_centered(x0) - to_centered(x)
    em = d * _e1(p * d)
    w = x * (1.0 - x)
    out = -(2.0 / (mp.sigma * mp.sigma)) * (l - x * f1) * em / w + (x0 - x) * np.exp(p * d) / w
    return out if out.ndim else float(out)


def slope_g_dx(mp: MarketParams, x, x0: float, l: float):
    """x-derivative of slope_g, via the continuation ODE rearranged."""
    x = np.asarray(x, dtype=float)
    out = _slope_dx(mp, x, np.asarray(slope_g(mp, x, x0, l)), l)
    return out if out.ndim else float(out)


def _slope_dx(mp: MarketParams, x, g, l):
    """g'(x) from g = slope_g(x) at the same x, via the continuation ODE."""
    s2 = mp.sigma * mp.sigma
    drift = x * (1.0 - x) * (mp.mu - mp.r - s2 * x)
    half = 0.5 * s2 * (x * (1.0 - x)) ** 2
    return (l - growth_integrand(mp, x) - drift * g) / half


def slope_g_integral(mp: MarketParams, x_from, x_to, x0: float, l: float):
    """Exact integral of slope_g from x_from to x_to (closed form).

    In logit coordinates t the integrand collapses to
    -(2l/sigma^2)(e^{p(t0-t)}-1)/p + x0 e^{p(t0-t)} - phi(t), each piece of
    which integrates in closed form; the expm1-style helpers keep the
    p -> 0 limit exact.
    """
    x_from, x_to = np.asarray(x_from, dtype=float), np.asarray(x_to, dtype=float)
    if ((x_from <= 0.0) | (x_from >= 1.0) | (x_to <= 0.0) | (x_to >= 1.0)).any():
        raise ValueError("slope_g_integral requires endpoints strictly inside (0, 1)")
    p = _power(mp)
    t0 = to_centered(x0)
    t1 = to_centered(x_from)
    t2 = to_centered(x_to)
    dt = t2 - t1
    u2 = t0 - t2
    piece_a = dt * (dt * _e2(p * dt) + u2 * _e1(p * u2) * _e1(p * dt))
    piece_b = x0 * np.exp(p * u2) * dt * _e1(p * dt)
    piece_c = _softplus(t2) - _softplus(t1)
    out = -(2.0 * l / (mp.sigma * mp.sigma)) * piece_a + piece_b - piece_c
    return out if out.ndim else float(out)


class NewtonUnknowns:
    """Base of the frozen-dataclass unknowns that Newton iterates on as one
    vector, in field order.  An (n, k) block of k vectors, one per column,
    stacks k candidates into one whose fields are 1-D arrays; ordering_ok
    then holds if it holds for each."""

    def as_vector(self) -> np.ndarray:
        return np.array(astuple(self))

    @classmethod
    def from_vector(cls, v):
        v = np.asarray(v, dtype=float)
        return cls(*(v.tolist() if v.ndim == 1 else v))


@dataclass(frozen=True)
class ValueFunction:
    """Piecewise variational-inequality solution with u, u', u''.

    ``anchor`` is (l, x0, a, alpha, beta, b): u is the trade cost to alpha
    below a, u(a) plus the integral of g from a on [a, b], and u(beta) plus
    the trade cost to beta above b, so u is continuous.  The reflecting
    limit is the case delta = 0, a = alpha = A, beta = b = B, where u(A) = 0
    and the curve is C2.

    Evaluation is anchored to the parameters captured at build time (the
    spec of the candidate the function was built from); mutating or
    replacing the ``candidate`` field afterwards does not re-derive the
    curve, which is exactly what lets a verification pass detect an
    inconsistent (u, l) pair.
    """

    market: MarketParams
    costs: CostParams
    candidate: object
    anchor: tuple = field(repr=False)

    @property
    def u_at_a(self) -> float:
        _, _, a, al, _, _ = self.anchor
        return float(trade_cost_gamma(self.costs, a, al))

    @property
    def u_at_beta(self) -> float:
        l, x0, a, _, be, _ = self.anchor
        return float(self.u_at_a + slope_g_integral(self.market, a, be, x0, l))

    def _piecewise(self, x, low, mid, high):
        """low(x) below a, mid(x) on [a, b] and high(x) above b, on [0, 1]."""
        x = np.asarray(x, dtype=float)
        if ((x < 0.0) | (x > 1.0)).any():
            raise ValueError("value function is defined on [0, 1]")
        _, _, a, _, _, b = self.anchor
        below, above = x < a, x > b
        out = np.empty_like(x)
        for mask, piece in ((below, low), (~(below | above), mid), (above, high)):
            if mask.any():
                out[mask] = piece(x[mask])
        return out if out.ndim else float(out)

    def u(self, x):
        l, x0, a, al, be, _ = self.anchor
        return self._piecewise(x, lambda y: trade_cost_gamma(self.costs, y, al),
                               lambda y: self.u_at_a + slope_g_integral(self.market, a, y, x0, l),
                               lambda y: self.u_at_beta + trade_cost_gamma(self.costs, y, be))

    def du(self, x):
        l, x0 = self.anchor[:2]
        gm, dl = self.costs.gamma, self.costs.delta
        return self._piecewise(x, lambda y: gm / (1.0 - dl + gm * y),
                               lambda y: slope_g(self.market, y, x0, l),
                               lambda y: -gm / (1.0 - dl - gm * y))

    def ddu(self, x):
        l, x0 = self.anchor[:2]
        gm, dl = self.costs.gamma, self.costs.delta
        return self._piecewise(x, lambda y: -gm * gm / (1.0 - dl + gm * y) ** 2,
                               lambda y: slope_g_dx(self.market, y, x0, l),
                               lambda y: -gm * gm / (1.0 - dl - gm * y) ** 2)


def _peak(values, xs):
    """The largest of values and the x where it occurs."""
    k = int(np.argmax(values))
    return float(values[k]), float(xs[k])


def _grid_check(mp: MarketParams, vf: ValueFunction, l: float, lo: float, hi: float,
                grid_n: int, who: str):
    """The grid pass shared by verify_qvi and verify_hjb_limit: the grid on
    [EPS, 1 - EPS], u' on it, the residual Du + f - l, the mask of [lo, hi],
    the largest |residual| on that mask with its location, and a note that
    is empty unless the band holds no grid point.  Such a band is measured
    at its midpoint, and the verifiers fail it: the grid does not resolve
    it, which the note says."""
    if grid_n < 100:
        raise ValueError(f"{who} requires grid_n >= 100")
    grid = np.linspace(EPS, 1.0 - EPS, grid_n)
    du = vf.du(grid)
    resid = apply_generator(mp, 0.0, du, vf.ddu(grid), grid) + growth_integrand(mp, grid) - l
    interior = (grid >= lo) & (grid <= hi)
    if interior.any():
        return (grid, du, resid, interior) + _peak(np.abs(resid[interior]), grid[interior]) + ("",)
    mid = 0.5 * (lo + hi)
    at_mid = apply_generator(mp, 0.0, vf.du(mid), vf.ddu(mid), mid) + growth_integrand(mp, mid) - l
    note = (f"unresolved band [{lo:.6f}, {hi:.6f}] holds no grid point "
            f"(spacing {grid[1] - grid[0]:.3e})")
    return grid, du, resid, interior, abs(float(at_mid)), mid, note


def _jacobian(residual, v, fv):
    """Forward-difference Jacobian at v from one residual call on the block
    whose column j is v + h_j e_j.  If that call raises, each column runs
    alone, and one whose forward point raises takes v - h_j e_j instead."""
    h = _FD_STEP * np.fmax(1.0, np.abs(v))
    cols = np.where(np.eye(v.size, dtype=bool), v + h, v[:, None])
    try:
        return (np.asarray(residual(cols), dtype=float) - fv[:, None]) / h
    except ValueError:  # some column leaves the domain
        jac = np.empty_like(cols)
    for j, vp in enumerate(cols.T.copy()):
        try:
            jac[:, j] = (np.asarray(residual(vp)) - fv) / h[j]
        except ValueError:
            vp[j] = v[j] - h[j]
            jac[:, j] = (fv - np.asarray(residual(vp))) / h[j]
    return jac


def damped_newton(residual, v0, *, tol=RESIDUAL_TOL):
    """Damped Newton on a square system with forward-difference Jacobian.

    residual(v) -> ndarray may raise ValueError (and subclasses) on
    out-of-domain iterates; failed trial steps are halved, up to
    _MAX_HALVINGS times.  Each Jacobian is one call of residual on an (n, n)
    block of points, one per column, whose residuals it returns column by
    column (``_jacobian``).  Stops when the residual max-norm reaches tol or
    the damped step shrinks below _MIN_STEP.  Returns (v, iterations,
    residual_norm); the caller decides whether the final norm is good enough.
    """
    v = np.array(v0, dtype=float)
    fv = np.asarray(residual(v), dtype=float)
    for it in range(_MAX_ITER):
        norm0 = float(np.max(np.abs(fv)))
        if norm0 <= tol:
            return v, it, norm0
        jac = _jacobian(residual, v, fv)
        try:
            dv = np.linalg.solve(jac, -fv)
        except np.linalg.LinAlgError:
            return v, it, norm0
        scale = 1.0
        for _ in range(_MAX_HALVINGS):
            try:
                trial = v + scale * dv
                ft = np.asarray(residual(trial), dtype=float)
            except ValueError:
                scale *= 0.5
                continue
            if float(np.max(np.abs(ft))) < norm0 or float(np.max(np.abs(scale * dv))) <= _MIN_STEP:
                v, fv = trial, ft
                break
            scale *= 0.5
        else:
            return v, it + 1, norm0
        if float(np.max(np.abs(scale * dv))) <= _MIN_STEP:
            return v, it + 1, float(np.max(np.abs(fv)))
    return v, _MAX_ITER, float(np.max(np.abs(fv)))


def newton_from_starts(cls, residual, starts, check, *, tol=RESIDUAL_TOL):
    """The start loop of both solvers: one damped Newton run on
    residual(cls.from_vector(v)), stopping at tol, from each start in turn.

    Returns (candidate, iterations, norm) of the first run that ends within
    RESIDUAL_TOL at a candidate check accepts (check raises ValueError).
    ``starts`` may be a lazy generator; an error raised while building a
    start propagates unchanged.  NonConvergence when every run fails.
    """
    last_err = None
    for start in starts:
        try:
            v, iters, norm = damped_newton(lambda v: residual(cls.from_vector(v)),
                                           start.as_vector(), tol=tol)
            cand = cls.from_vector(v)
            if not norm <= RESIDUAL_TOL:
                raise NonConvergence(f"residual {norm:.3e} after {iters} iterations")
            check(cand)
            return cand, iters, norm
        except (NonConvergence, ValueError) as err:
            last_err = err
    raise NonConvergence(f"no start converged: {last_err}")
