"""Slope function of the continuation region, the value function built from
it and its grid check, and the damped Newton engine, which prices its start
and each damped step with their Jacobian in one residual call on a stack of
n+1 candidates, with the start loop and start order of both solvers, their
one cold start, the reflecting band of best exact growth, the exact growth
of boundary policies that the impulse seed ranks, and the one floor test
that names "no interior optimum".

Inside the no-trade region the value function's derivative is an explicit
function g(x, x0, l) anchored so that g(x0, x0, l) = 0.  The textbook form
has two branches, a power-law one and an integral one for the knife-edge
parameter set where the transformed drift vanishes.  Rearranged through
expm1 the power branch extends continuously through that set, so a single
expression covers both; the integral branch is its exact limit.  The same
rearrangement yields closed forms for the antiderivative, so no quadrature
is needed in the solvers: ``best_band`` and ``policy_value`` price a band or
a policy by a 2x2 linear system, and the renewal quadrature stays the
oracle's own (``lab``).  g (``_g``) and its integrals share their terms:
``_spans`` forms u e1(p u) and e^{p u} of the logit differences u = t0 - t
once, for g at its points and for each integral that ends at one of them,
and one expm1 gives e1 at every u and e1 and e2 at every span's p dt, so an
impulse residual and a value curve form them once per call.

Derivatives of g are evaluated through the continuation ODE rearranged,
g'(x) = (l - f(x) - x(1-x)(mu - r - sigma^2 x) g(x)) / (sigma^2 x^2 (1-x)^2 / 2),
which is exact because g solves that ODE identically in (x0, l); the drift
and the divisor half(x) are ``market.generator_coefficients``.  Every slope
of the trade cost that g meets, at restart targets and trade triggers and
outside [a, b], is ``market.edge_slopes``.

``ValueFunction`` is the piecewise value function of both models (the
reflecting limit is its case delta = 0, a = alpha = A, beta = b = B), and
``verify_qvi`` is the one grid check of both: the variational inequality
max{Du + f - l, Mu - u} = 0, which at delta = 0 is the reflecting limit's
HJB equation.  The check is O(n) in time and memory: the trade cost is
separable, log num(x) - log den(y) (``market.cost_terms``) with the branch
set by y > x, so the intervention operator Mu and its argmax target are a
suffix and a prefix scan over the sorted trade targets.  It takes u, u' and
u'' from one value-function call on the grid with the policy's four points,
which partitions them once at a and b.  ``policy_value`` prices all its rows
from one logit and one trade-cost call and divides its matrix a block of
rows at a time, so that a seed's matrix leaves no second temporary of its
size for the allocator to return and fault in again.

Public primitives check their inputs with the one domain rule
``market._within`` and then call their one kernel (``_g``, ``_spans``,
``market._logit``, ...); the residuals and the seed call the kernels below a
check that implies the kernels' own: an ordering inside (0, 1), under which
``CostParams``' invariants keep every cost term positive.  So do the value
function, below its check of x in [0, 1], ``policy_value``, below its one
check of the four fractions, ``verify_qvi``, below its claim check (its HJB
and pasting rows), and ``best_band``, whose logits are finite by
construction (``market._logistic``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .market import (EPS, CostParams, MarketParams, _growth, _log_cost, _logistic, _logit, _plain,
                     _wealth, _within, cost_terms, edge_slopes, generator_coefficients,
                     merton_fraction, no_trade_floor, to_centered, trade_cost_gamma)


# A solve is accepted when the residual max-norm is at most RESIDUAL_TOL; a
# value function is built, and passes verification, only when its C1
# pasting residuals are at most PASTING_TOL.
RESIDUAL_TOL, PASTING_TOL = 1e-10, 1e-8
# Damped Newton: step cap, forward-difference step (relative to
# max(1, |v_j|)), step halvings per damped step.
_MAX_ITER, _FD_STEP, _MAX_HALVINGS = 80, 1e-7, 50
# best_band's logit offsets of A (row 0) below and B (row 1) above the Merton fraction
_BAND_OFFSETS = np.geomspace(1e-4, 14.0, 60) * np.array([[1.0], [-1.0]])


class ParameterDegeneracy(ValueError):
    """Inputs outside the regime the solver supports."""


class NonConvergence(RuntimeError):
    """Newton did not reach a valid root."""


def _e1(z, em=None):
    """expm1(z)/z with the removable singularity filled in; em is expm1(z) when known."""
    z = np.asarray(z, dtype=float)
    out = np.empty(z.shape)
    out.fill(1.0)
    return np.divide(np.expm1(z) if em is None else em, z, out=out, where=z != 0.0)


def _e2(z, em=None):
    """(expm1(z) - z)/z^2 -> 1/2; series below 1e-3 to dodge cancellation; em as in _e1."""
    z = np.asarray(z, dtype=float)
    small = np.abs(z) < 1e-3
    out = np.divide((np.expm1(z) if em is None else em) - z, z * z, out=np.empty(z.shape),
                    where=~small)
    if np.count_nonzero(small):
        s = z[small]
        out[small] = 0.5 + s * (1.0 / 6.0 + s * (1.0 / 24.0 + s * (1.0 / 120.0 + s / 720.0)))
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
    error = "slope_g requires x and x0 strictly inside (0, 1)"
    x, x0 = _within(error, x, x0, open_=True)
    if np.count_nonzero(np.isnan(x0)):  # the anchor, unlike x, may not be NaN
        raise ValueError(error)
    return _plain(_g(mp, x, _logit(x), x0, _logit(x0), l))


def _g(mp: MarketParams, x, t, x0, t0, l, terms=None):
    """slope_g's formula at x and x0 inside (0, 1), with logits t and t0; terms,
    when given, are its u e1(p u) and e^{p u} at u = t0 - t (``_spans``)."""
    if terms is None:
        d = t0 - t
        p_d = _power(mp) * d
        terms = d * _e1(p_d), np.exp(p_d)
    (d_e, grow), w = terms, x * (1.0 - x)
    return (-(2.0 / (mp.sigma * mp.sigma)) * (l - x * _growth(mp, 1.0)) * d_e / w
            + (x0 - x) * grow / w)


def slope_g_dx(mp: MarketParams, x, x0: float, l: float):
    """x-derivative of slope_g, via the continuation ODE rearranged."""
    x = np.asarray(x, dtype=float)
    return _plain(_slope_dx(mp, x, np.asarray(slope_g(mp, x, x0, l)), l)[0])


def _slope_dx(mp: MarketParams, x, g, l):
    """g'(x) from g = slope_g(x) at the same x, via the continuation ODE, and
    the diffusion coefficient half(x) it divides by; slope_g has checked x."""
    drift, half = generator_coefficients(mp, x)
    return (l - _growth(mp, x) - drift * g) / half, half


def slope_g_integral(mp: MarketParams, x_from, x_to, x0: float, l: float):
    """Exact integral of slope_g from x_from to x_to (closed form).

    In logit coordinates t the integrand collapses to
    -(2l/sigma^2)(e^{p(t0-t)}-1)/p + x0 e^{p(t0-t)} - phi(t), each piece of
    which integrates in closed form; the expm1-style helpers keep the
    p -> 0 limit exact.
    """
    x_from, x_to = _within("slope_g_integral requires endpoints strictly inside (0, 1)",
                           x_from, x_to, open_=True)
    x = np.stack(np.broadcast_arrays(x_to, x_from, x0)[:2])  # one end per row
    _, pieces = _spans(mp, 1, _logit(x), x0, to_centered(x0), slice(1, 2))
    return _plain(_g_integral(mp, pieces, l)[0])


def _spans(mp: MarketParams, n, t, x0, t0, lo, hi=slice(None), homogeneous=False):
    """The terms u e1(p u) and e^{p u} that ``_g`` takes at the first n logits
    of t (u = t0 - t), and the pieces (A, B, C) of the integrals of g from
    logit t[lo] to t[:n][hi] (``_g_integral``); with homogeneous also H, the
    integral of e^{p(t0 - t)}.  One expm1 over p u and p dt gives e1 of both
    and e2 of p dt, and each integral's u2 = t0 - t2, e^{p u2} and u2 e1(p u2)
    are rows of g's terms."""
    sp, d = _softplus(t), t0 - t[:n]
    dt = t[:n][hi] - t[lo]
    z = _power(mp) * np.concatenate([d, dt])
    em = np.expm1(z)
    e = _e1(z, em)
    d_e, grow, e_dt = d * e[:n], np.exp(z[:n]), e[n:]
    d_e2, grow2 = d_e[hi], grow[hi]
    pieces = (dt * (dt * _e2(z[n:], em[n:]) + d_e2 * e_dt), x0 * grow2 * dt * e_dt,
              sp[:n][hi] - sp[lo]) + ((dt * grow2 * e_dt,) if homogeneous else ())
    return (d_e, grow), pieces


def _g_integral(mp: MarketParams, pieces, l):
    a, b, c = pieces[:3]
    return -(2.0 * l / (mp.sigma * mp.sigma)) * a + b - c


def interior_optimum(mp: MarketParams, l: float, name: str) -> float:
    """l, the most excess growth a cold start found (the best ``name``), if
    it beats the floor max{f(0), f(1)} of never trading (or holding only
    stock); else ParameterDegeneracy: there is no interior optimum."""
    floor = no_trade_floor(mp)
    if not l > floor:
        raise ParameterDegeneracy(f"no interior optimum: best {name} growth {mp.r + l:.10g} "
                                  f"does not exceed r + max{{f(0), f(1)}} = {mp.r + floor:.10g}")
    return l


def warm_then_cold(init, cold):
    """The starts of both solvers in order: init when given, then cold(),
    called only when there is no warm start or its run failed."""
    if init is not None:
        yield init
    yield cold()


def best_band(mp: MarketParams, gamma: float) -> tuple:
    """(l0, hhat, A, B) of the reflecting band of most excess growth l0 with
    edges inside (EPS, 1 - EPS) at 60 geometric logit offsets (1e-4 to 14)
    below and above the Merton fraction hhat: the cold start of both solvers.
    l0 is exact: with u = logit hhat - logit x, w = x(1-x), z = -(2/sigma^2)
    u e1(pu)/w and e = e^{pu}/w, every no-trade slope is l z + C e - 1/(1-x),
    so the trade cost's slopes at A and B fix (l, C) by a 2x2 system whose
    rows over e are priced on each edge's own axis.  ParameterDegeneracy
    when no band beats the floor max{f(0), f(1)}."""
    hhat, p, u = merton_fraction(mp), _power(mp), _BAND_OFFSETS
    x = _logistic(_logit(hhat) - u)  # finite offsets; lo and hi drop the saturated edges
    slope = edge_slopes(gamma, 0.0, *x)
    p_u = -p * u
    z = -(2.0 / (mp.sigma * mp.sigma)) * u * _e1(p_u)  # z/e < 0 at A, > 0 at B
    c = (slope * x * (1.0 - x) + x) * np.exp(p_u)  # (slope + 1/(1-x))/e
    lo, hi = x[0] > EPS, x[1] < 1.0 - EPS
    l = (c[0, lo, None] - c[1, hi]) / (z[0, lo, None] - z[1, hi])
    i, j = divmod(int(np.argmax(l)), l.shape[1]) if l.size else (0, 0)
    interior_optimum(mp, l[i, j] if l.size else -np.inf, "band")
    return float(l[i, j]), hhat, float(x[0, lo][i]), float(x[1, hi][j])


def policy_value(mp: MarketParams, cp: CostParams, a, al, be, b):
    """Exact growth r + l of boundary policies (a, alpha, beta, b) on their
    broadcast shape: ``lab._renewal_batch`` in closed form, -inf outside
    a < alpha <= beta < b in logit.  On (a, b), Dw + f = l has the slopes
    w' = slope_g(x; hhat, l) + C e^{p(t_hhat - t)}/(x(1-x)), so value matching
    across both jumps is a 2x2 system in (l, C), each row priced on the shape
    of its own two ends: pass a grid's axes, not broadcast views."""
    hhat = merton_fraction(mp)
    a, al, be, b = _within("policy_value requires fractions strictly inside (0, 1)",
                           a, al, be, b, open_=True)
    (a, al), (be, b) = np.broadcast_arrays(a, al), np.broadcast_arrays(be, b)
    n, (shape_low, shape_high) = a.size, (a.shape, b.shape)
    # one logit call: t2 of every low row (a to alpha) and high row (beta to b),
    # then their t1, then hhat's; one cost call: a to alpha, then b to beta
    t = _logit(np.concatenate([v.ravel() for v in (al, b, a, be)] + [[hhat]]))
    m = t.size // 2
    cost = np.log(_wealth(cp, np.concatenate([a.ravel(), b.ravel()]),
                          np.concatenate([al.ravel(), be.ravel()])))
    np.negative(cost[n:], out=cost[n:])
    with np.errstate(divide="ignore", invalid="ignore"):
        # the rows k l + C + r = 0 of int_x1^x2 w' + cost = 0
        _, pieces = _spans(mp, m, t, hhat, t[-1], slice(m, -1), homogeneous=True)
        base = _g_integral(mp, pieces, 0.0)
        k, r = (_g_integral(mp, pieces, 1.0) - base) / pieces[3], (base + cost) / pieces[3]
        l = np.asarray(r[n:].reshape(shape_high) - r[:n].reshape(shape_low))
        # the divisor 32 rows at a time: no second temporary spans the matrix
        k_low, k_high = (np.broadcast_to(v, l.shape) for v in
                         (k[:n].reshape(shape_low), k[n:].reshape(shape_high)))
        for rows in [slice(i, i + 32) for i in range(0, len(l), 32)] if l.ndim else [()]:
            l[rows] /= k_low[rows] - k_high[rows]
    l += mp.r
    # a < alpha <= beta < b in one pass: a restart point off its side goes to +-inf
    lo, y_low, y_high, hi = (t[m:m + n].reshape(shape_low), t[:n].reshape(shape_low),
                             t[m + n:-1].reshape(shape_high), t[n:m].reshape(shape_high))
    np.copyto(l, -np.inf, where=np.where(lo < y_low, y_low, np.inf)
              > np.where(y_high < hi, y_high, -np.inf))
    return l


class NewtonUnknowns:
    """Base of the frozen-dataclass unknowns that Newton iterates on as one
    vector, in field order.  An (n, k) block of k vectors, one per column,
    stacks k candidates into one whose fields are 1-D arrays; ordering_ok
    then holds if it holds for each."""

    def as_vector(self) -> np.ndarray:
        return np.array([*vars(self).values()])

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
    and the curve is C2.  u, du and ddu are rows of one evaluation
    (``_curves``), so each point's value does not depend on the points it
    is evaluated with.

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

    def _curves(self, x):
        """u, u' and u'' at x in [0, 1] as one (3, ...) array, from one
        partition of x at a and b: below a the trade cost to alpha, above b
        u(beta) plus the cost to beta, both with u'' = -u'^2; on [a, b] u(a)
        plus the integral of g from a, g, and g' by the continuation ODE.
        One cost call prices the trades and u(a), one ``_spans`` call g's
        terms and the integrals, u(beta)'s too."""
        x = _within("value function is defined on [0, 1]", x)
        mp, cp, (l, x0, a, al, be, b) = self.market, self.costs, self.anchor
        t0, t_a, _, t_be = to_centered(np.array([x0, a, al, be]))
        above = x > b
        mid = ~((x < a) | above)
        out, y, z, up = np.empty((3,) + x.shape), x[mid], x[~mid], above[~mid]
        cost = _log_cost(cp, np.concatenate([z, [a]]),
                         np.concatenate([np.where(up, be, al), [al]]))
        # g's terms at y and beta, the integrals from a to each
        t = np.concatenate([_logit(y), [t_be, t_a]])
        terms, pieces = _spans(mp, y.size + 1, t, x0, t0, -1)
        integral = _g_integral(mp, pieces, l)
        g = _g(mp, y, t[:-2], x0, t0, l, [v[:-1] for v in terms])
        buying, selling = edge_slopes(cp.gamma, cp.delta, z, z)
        slope = np.where(up, selling, buying)
        out[:, mid] = cost[-1] + integral[:-1], g, _slope_dx(mp, y, g, l)[0]
        u_out = np.where(up, cost[-1] + integral[-1] + cost[:-1], cost[:-1])
        out[:, ~mid] = u_out, slope, -slope ** 2
        return out

    def u(self, x):
        return _plain(self._curves(x)[0])

    def du(self, x):
        return _plain(self._curves(x)[1])

    def ddu(self, x):
        return _plain(self._curves(x)[2])


def _pasting_rows(mp: MarketParams, cp: CostParams, l, x0, a, alpha, beta, b):
    """C1 pasting residuals: g at (alpha, beta, a, b) minus the slope of the
    trade cost there, the restart targets first, then the trade triggers.
    Element-wise, so a stack of candidates gives one column each."""
    return _slope_gaps(cp, slope_g(mp, np.array([alpha, beta, a, b]), x0, l), a, alpha, beta, b)


def _slope_gaps(cp: CostParams, g, a, alpha, beta, b):
    return g - np.concatenate([edge_slopes(cp.gamma, 0.0, alpha, beta),
                               edge_slopes(cp.gamma, cp.delta, a, b)])


@dataclass(frozen=True)
class VerificationReport:
    """Grid check of the variational inequality.  unresolved_band is empty
    unless (a, b) holds no grid point or the claim breaches the domain; the
    numeric fields are finite, except nan after a breach."""

    grid_n: int
    tol: float
    max_interior_residual: float
    interior_worst_x: float
    max_exterior_excess: float
    exterior_worst_x: float
    max_obstacle_excess: float
    obstacle_worst_x: float
    equality_gap_low: float
    equality_gap_high: float
    equality_target_low: float
    equality_target_high: float
    pasting_mismatch: float
    unresolved_band: str
    passed: bool

    def _rows(self) -> list:
        return [
            f"  interior |Du+f-l|      {self.max_interior_residual:.3e} at x={self.interior_worst_x:.6f}",
            f"  exterior (Du+f-l)+     {self.max_exterior_excess:.3e} at x={self.exterior_worst_x:.6f}",
            f"  obstacle (Mu-u)+       {self.max_obstacle_excess:.3e} at x={self.obstacle_worst_x:.6f}",
            f"  equality gaps at a,b   {self.equality_gap_low:.3e}, {self.equality_gap_high:.3e}",
            f"  argmax targets at a,b  {self.equality_target_low:.6f}, {self.equality_target_high:.6f}",
            f"  C1 pasting mismatch    {self.pasting_mismatch:.3e}",
        ]

    def summary(self) -> str:
        note = [f"  {self.unresolved_band}"] if self.unresolved_band else []
        return "\n".join([f"grid_n={self.grid_n} tol={self.tol:g} passed={self.passed}"]
                         + self._rows() + note)


def _best_so_far(values):
    """For each j, the index of a largest entry of values[:j + 1]."""
    is_record = values == np.maximum.accumulate(values)
    return np.maximum.accumulate(np.where(is_record, np.arange(values.size), 0))


def _intervention(cp: CostParams, x, targets, u_targets):
    """Mu(x) = max over the sorted targets y of u(y) + trade_cost_gamma(x, y)
    at each query point x, and the target where it is reached.  Per branch
    the best y is a running argmax of u(y) - log den(y): a suffix one over
    y > x for buying, a prefix one over y <= x for selling.  Both gains are
    then computed as a full search computes them, so Mu agrees with it to
    rounding; a tie goes to the selling target, the smaller one."""
    above = np.searchsorted(targets, x, side="right")  # first target > x
    # u(y) - log den(y) on the selling and the buying branch
    sell_gain, buy_gain = u_targets - np.log(cost_terms(cp, targets, targets,
                                                        np.array([[-1.0], [1.0]]))[1])
    sell = _best_so_far(sell_gain)[above - 1]
    buy_from = targets.size - 1 - _best_so_far(buy_gain[::-1])[::-1]
    # no target above x: its buying gain repeats selling
    buy = np.concatenate([buy_from, [-1]])[above]
    pick = np.stack([np.where(buy < 0, sell, buy), sell])
    gain_buy, gain_sell = u_targets[pick] + trade_cost_gamma(cp, x, targets[pick])
    return np.maximum(gain_buy, gain_sell), targets[np.where(gain_buy > gain_sell, *pick)]


def verify_qvi(mp: MarketParams, cp: CostParams, vf: ValueFunction,
               grid_n: int, tol: float = 1e-6) -> VerificationReport:
    """Check the variational inequality for (u, l) on a uniform grid.

    The claimed policy (l, x0, a, alpha, beta, b) is read from
    ``vf.candidate.policy()`` while u and its derivatives come from the
    curve anchored at build time, so the claim is checked against the
    curve.  At delta = 0 this is the reflecting limit's HJB check: the
    obstacle Mu <= u is the integrated form of its two gradient
    constraints.  Mu takes every grid point and both restart points as
    trade targets; one O(n) search (``_intervention``) gives it on the
    grid and, with its argmax targets, at the trade triggers a and b.
    Both one-sided excesses are positive parts.  A band (a, b) that holds
    no grid point is measured at its midpoint and fails, with a note
    saying the grid does not resolve it; a claim outside 0 < a <= alpha <=
    beta <= b < 1 (a < b), 0 < x0 < 1 is not measured and fails with a note
    naming it.  Violations are reported, never raised.
    """
    if grid_n < 100:
        raise ValueError("verify_qvi requires grid_n >= 100")
    l, x0, a, alpha, beta, b = vf.candidate.policy()
    if not (0.0 < a <= alpha <= beta <= b < 1.0 and a < b and 0.0 < x0 < 1.0):
        return VerificationReport(grid_n, tol, *[np.nan] * 11, "claim breaks 0 < a <= alpha <= "
                                  "beta <= b < 1, a < b, 0 < x0 < 1: (x0, a, alpha, beta, b) = "
                                  f"{x0, a, alpha, beta, b}", False)

    def curves(x):  # u and Du + f - l; the claim check puts x in [0, 1]
        u, du, ddu = vf._curves(x)
        drift, half = generator_coefficients(mp, x)
        return u, drift * du + half * ddu + _growth(mp, x) - l

    grid = np.linspace(EPS, 1.0 - EPS, grid_n)
    spacing = float(grid[1] - grid[0])
    # One curve call: at the grid with a, alpha, beta and b, sorted and without
    # repeats (np.unique's sort and drop, without the numpy.ma import it costs)
    points = np.sort(np.concatenate([grid, [a, alpha, beta, b]]))
    points = points[np.concatenate([[True], points[1:] != points[:-1]])]
    at = np.searchsorted(points, np.concatenate([grid, [alpha, beta, a, b]]))
    u, resid = curves(points)
    resid = resid[at[:-4]]
    interior = (grid >= a) & (grid <= b)
    inside = np.where(interior, np.abs(resid), -np.inf)
    outside = np.where(interior, -np.inf, resid)
    k, j = int(np.argmax(inside)), int(np.argmax(outside))
    max_interior, interior_x = float(inside[k]), float(grid[k])
    max_exterior, exterior_x = max(float(outside[j]), 0.0), float(grid[j])
    unresolved = ""
    if not interior.any():
        interior_x = 0.5 * (a + b)
        max_interior = abs(float(curves(interior_x)[1]))
        unresolved = (f"unresolved band [{a:.6f}, {b:.6f}] holds no grid point "
                      f"(spacing {spacing:.3e})")

    # the targets are the grid with alpha, beta; the queries the grid with a, b
    is_target, at_query = np.zeros(points.size, dtype=bool), np.concatenate([at[:-4], at[-2:]])
    is_target[at[:-2]] = True
    mu, target = _intervention(cp, points[at_query], points[is_target], u[is_target])
    excess = mu - u[at_query]
    k = int(np.argmax(excess[:-2]))
    max_obstacle, obstacle_x = max(float(excess[k]), 0.0), float(grid[k])
    gap_low, gap_high = np.abs(excess[-2:]).tolist()
    target_low, target_high = target[-2:].tolist()

    # the pasting rows' kernel, as the claim check puts the four points and x0 inside (0, 1)
    x = np.array([alpha, beta, a, b, x0])
    t = _logit(x)
    g = _g(mp, x[:4], t[:4], x0, t[4], l)
    pasting = float(np.max(np.abs(_slope_gaps(cp, g, a, alpha, beta, b))))
    passed = bool(
        not unresolved
        and max_interior <= tol
        and max_exterior <= tol
        and max_obstacle <= tol
        and gap_low <= tol and gap_high <= tol
        and abs(target_low - alpha) <= spacing
        and abs(target_high - beta) <= spacing
        and pasting <= PASTING_TOL
    )
    return VerificationReport(
        grid_n=grid_n, tol=tol,
        max_interior_residual=max_interior, interior_worst_x=interior_x,
        max_exterior_excess=max_exterior, exterior_worst_x=exterior_x,
        max_obstacle_excess=max_obstacle, obstacle_worst_x=obstacle_x,
        equality_gap_low=gap_low, equality_gap_high=gap_high,
        equality_target_low=target_low, equality_target_high=target_high,
        pasting_mismatch=pasting, unresolved_band=unresolved, passed=passed,
    )


def _priced(residual, v):
    """(f, J) at v from one residual call on the (n, n+1) block whose column 0
    is v and column j + 1 is v + h_j e_j, the forward-difference Jacobian J
    bit for bit that of n calls.  A ValueError of the block propagates: a
    point whose difference columns leave the domain is not priced."""
    h = _FD_STEP * np.fmax(1.0, np.abs(v))
    block = np.repeat(v, v.size + 1).reshape(v.size, -1)
    block.reshape(-1)[1::v.size + 2] = v + h  # the superdiagonal (j, j + 1)
    out = np.asarray(residual(block), dtype=float)
    return out[:, 0], (out[:, 1:] - out[:, :1]) / h


def damped_newton(residual, v0):
    """Newton on a square system with forward-difference Jacobian, run to the
    rounding floor by one rule, so that where a run ends does not depend on
    where it started.

    While the residual max-norm is above RESIDUAL_TOL each step is damped:
    the Jacobian at the iterate, and a step halved up to _MAX_HALVINGS times
    while the norm does not drop.  The start and every damped trial, full
    or halved, are priced with their Jacobian in one residual call of n+1
    points (``_priced``), and a kept trial's Jacobian is the next step's.
    One domain rule: a trial whose call raises ValueError is a failed trial
    and is halved, while a start that raises ends the run, its ValueError
    propagating to the start loop.  Within RESIDUAL_TOL each step is a
    chord step: the Jacobian of the last damped point (the start's for a
    start already there) and one residual call, kept only if it more than
    halves the norm; the first that does not ends the run.
    Returns (v, steps, residual_norm), steps counting every kept step; the
    caller decides whether the final norm is good enough.
    """
    v = np.array(v0, dtype=float)
    fv, jac = _priced(residual, v)
    norm, steps = float(np.abs(fv).max()), 0
    while steps < _MAX_ITER:
        chord = norm <= RESIDUAL_TOL
        try:
            dv = np.linalg.solve(jac, -fv)
        except np.linalg.LinAlgError:
            break
        for halvings in range(1 if chord else _MAX_HALVINGS):
            try:
                trial = v + 0.5 ** halvings * dv
                ft, jt = ((np.asarray(residual(trial), dtype=float), jac) if chord
                          else _priced(residual, trial))
            except ValueError:
                continue
            trial_norm = float(np.abs(ft).max())
            if trial_norm < (0.5 * norm if chord else norm):
                break
        else:
            break
        v, fv, jac, norm, steps = trial, ft, jt, trial_norm, steps + 1
    return v, steps, norm


def newton_from_starts(cls, residual, starts, check):
    """The start loop of both solvers: one Newton run (``damped_newton``) on
    residual(cls.from_vector(v)) from each start in turn.

    Returns (candidate, steps, norm) of the first run that ends within
    RESIDUAL_TOL at a candidate check accepts (check raises ValueError).
    ``starts`` may be a lazy generator; an error raised while building a
    start propagates unchanged.  NonConvergence when every run fails.
    """
    last_err = None
    for start in starts:
        try:
            v, iters, norm = damped_newton(lambda v: residual(cls.from_vector(v)),
                                           start.as_vector())
            cand = cls.from_vector(v)
            if not norm <= RESIDUAL_TOL:
                raise NonConvergence(f"residual {norm:.3e} after {iters} iterations")
            check(cand)
            return cand, iters, norm
        except (NonConvergence, ValueError) as err:
            last_err = err
    raise NonConvergence(f"no start converged: {last_err}")
