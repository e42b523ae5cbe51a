"""Seeded Monte Carlo of the controlled and reflected fraction processes.

One time loop, ``_drive``, runs every simulation; the impulse, reflected
and coupled simulators differ only in the control rule it calls
at each step.  Holdings evolve exactly between trades: per step the bond
grows by exp(r dt) and the stock by exp((mu - sigma^2/2) dt + sigma
sqrt(dt) Z), so the only discretisation is that boundary crossings are
detected at grid times and the overshoot is kept (the trade executes from
the overshooting fraction).  An optional Brownian-bridge correction
samples within-step crossings for the impulse simulator; it draws its
uniforms from a separate stream so the normal sequence is unchanged.

Randomness is counter-based: path i of a run seeded s reads an independent
Philox stream keyed (s, i), so any subset of paths can be simulated
concurrently or in blocks with identical results, and every output is a
pure function of (inputs, base_seed, path_index).  Coupling stacks its
deltas on one axis and so draws each path's noise once for all of them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import limit as _limit
from . import qvi as _qvi
from .market import CostParams, MarketParams, merton_fraction, to_centered, wealth_factor

__all__ = [
    "SimConfig", "TradeEvent", "PathRecord", "ReflectedRecord", "GrowthEstimate",
    "CouplingRow", "NumericalBlowup", "path_generator", "bridge_crossing_prob",
    "simulate_impulse_path", "estimate_growth_impulse",
    "simulate_reflected_path", "estimate_growth_reflected",
    "couple_at_boundaries", "couple_paths",
]

_BLOCK = 8192
_BRIDGE_STREAM_SALT = 0x9E3779B97F4A7C15  # golden-ratio word, keys the uniform stream


class NumericalBlowup(RuntimeError):
    """Wealth left the positive cone; indicates an internal error."""


@dataclass(frozen=True)
class SimConfig:
    """Common simulation settings.

    h0 = None picks the Merton fraction clipped into the interior of the
    operating region.  bridge_correction only affects the impulse
    simulator.
    """

    horizon: float
    dt: float
    v0: float = 1.0
    h0: float | None = None
    n_paths: int = 1000
    base_seed: int = 0
    bridge_correction: bool = False

    def __post_init__(self) -> None:
        if not self.horizon > 0:
            raise ValueError("horizon must be positive")
        if not 0 < self.dt <= self.horizon / 100.0:
            raise ValueError("dt must satisfy 0 < dt <= horizon/100")
        # growth is log-wealth over the horizon, so the steps must cover it exactly
        if abs(self.n_steps * self.dt - self.horizon) > 1e-9 * self.horizon:
            raise ValueError("horizon must be a whole number of steps")
        if not self.v0 > 0:
            raise ValueError("v0 must be positive")
        if self.n_paths < 1:
            raise ValueError("n_paths must be at least 1")
        if self.base_seed < 0:
            raise ValueError("base_seed must be non-negative")

    @property
    def n_steps(self) -> int:
        return int(round(self.horizon / self.dt))


@dataclass(frozen=True)
class TradeEvent:
    time: float
    pre_fraction: float
    target: float
    factor: float
    log_cost: float


@dataclass(frozen=True)
class PathRecord:
    """One impulse-controlled path sampled at every grid time."""

    times: np.ndarray
    fractions: np.ndarray
    wealths: np.ndarray
    trade_events: tuple
    log_wealth_final: float
    growth: float
    step_log_total: float
    trade_log_total: float


@dataclass(frozen=True)
class ReflectedRecord:
    """One reflected path with cumulative buy (L) and sell (M) volumes."""

    times: np.ndarray
    fractions: np.ndarray
    wealths: np.ndarray
    buy_volume: np.ndarray
    sell_volume: np.ndarray
    log_wealth_final: float
    growth: float


@dataclass(frozen=True)
class GrowthEstimate:
    mean_growth: float
    std_error: float
    n_paths: int
    horizon: float
    dt: float


@dataclass(frozen=True)
class CouplingRow:
    delta: float
    mean_sup_distance: float
    n_paths: int
    sup_distances: np.ndarray
    trade_counts: np.ndarray
    jump_low: float
    jump_high: float


def path_generator(base_seed: int, path_index: int, stream: int = 0) -> np.random.Generator:
    """Philox stream keyed by (base_seed, path_index); stream 1 is the
    uniform side-channel used by the bridge correction."""
    word = base_seed ^ (_BRIDGE_STREAM_SALT if stream else 0)
    return np.random.Generator(np.random.Philox(key=[word, path_index]))


def bridge_crossing_prob(y0, y1, level, sigma: float, dt: float):
    """P(a Brownian bridge from y0 to y1 over dt touches level).

    Valid when y0 and y1 are on the same side of the level; the drift does
    not enter the bridge law.
    """
    expo = -2.0 * (level - np.asarray(y0)) * (level - np.asarray(y1)) / (sigma * sigma * dt)
    return np.exp(np.minimum(expo, 0.0))


def _default_h0(mp: MarketParams, lo: float, hi: float) -> float:
    margin = 1e-3 * (hi - lo)
    return min(max(merton_fraction(mp), lo + margin), hi - margin)


def _drive(cfg: SimConfig, path_indices, step, positive, uniforms: bool = False) -> None:
    """The one time loop: draw each path's normals (and, with uniforms, its
    bridge pair per step) block by block, call step(n, z, u) for n = 1..n_steps,
    and after each block check that positive() is positive and finite."""
    gens = [path_generator(cfg.base_seed, i) for i in path_indices]
    ugens = [path_generator(cfg.base_seed, i, stream=1) for i in path_indices] if uniforms else []
    for done in range(0, cfg.n_steps, _BLOCK):
        nb = min(_BLOCK, cfg.n_steps - done)
        Z = np.empty((len(gens), nb))
        for i, gen in enumerate(gens):
            Z[i] = gen.standard_normal(nb)
        U = np.empty((len(ugens), 2 * nb))
        for i, gen in enumerate(ugens):
            U[i] = gen.random(2 * nb)
        for k in range(nb):
            step(done + k + 1, Z[:, k], U[:, 2 * k:2 * k + 2] if uniforms else None)
        held = positive()
        if np.any(held <= 0.0) or not np.all(np.isfinite(held)):
            raise NumericalBlowup("wealth left the positive cone")


class _Holdings:
    """Bond (X) and stock (Y) holdings of the given paths from h0 in (lo, hi),
    or [lo, hi] when closed.  With record (one path), trace[:, n] holds the
    fraction, the wealth and the rule's own totals after step n."""

    def __init__(self, mp, cfg, path_indices, lo, hi, closed, record, rows=2):
        h0 = cfg.h0 if cfg.h0 is not None else _default_h0(mp, lo, hi)
        if not (lo <= h0 <= hi if closed else lo < h0 < hi):
            region = f"[{lo:g}, {hi:g}]" if closed else f"({lo:g}, {hi:g})"
            raise ValueError(f"h0={h0:g} must lie inside the no-trade region {region}")
        self.cfg, self.h0, self.paths = cfg, h0, path_indices
        self.er = math.exp(mp.r * cfg.dt)
        self.gd = (mp.mu - 0.5 * mp.sigma * mp.sigma) * cfg.dt
        self.gv = mp.sigma * math.sqrt(cfg.dt)
        self.X = np.full(len(path_indices), (1.0 - h0) * cfg.v0)
        self.Y = np.full(len(path_indices), h0 * cfg.v0)
        self.trace = np.zeros((rows, cfg.n_steps + 1)) if record else None
        if record:
            self.trace[:2, 0] = h0, cfg.v0

    def grow(self, z):
        """One exact step of both holdings; returns the new wealth."""
        self.X *= self.er
        self.Y *= np.exp(self.gd + self.gv * z)
        return self.X + self.Y

    def record(self, n: int, *totals) -> None:
        V = self.X + self.Y
        self.trace[:, n] = (self.Y / V)[0], V[0], *totals

    def run(self, uniforms: bool = False):
        _drive(self.cfg, self.paths, self.step, lambda: self.X + self.Y, uniforms)
        return self

    def growth(self):
        return (np.log(self.X + self.Y) - math.log(self.cfg.v0)) / self.cfg.horizon

    def estimate(self) -> GrowthEstimate:
        growth, n = self.growth(), self.cfg.n_paths
        std_error = float(growth.std(ddof=1) / math.sqrt(n)) if n > 1 else 0.0
        return GrowthEstimate(mean_growth=float(growth.mean()), std_error=std_error,
                              n_paths=n, horizon=self.cfg.horizon, dt=self.cfg.dt)

    def path_fields(self) -> dict:
        """The fields that every single-path record has."""
        return dict(times=np.arange(self.cfg.n_steps + 1) * self.cfg.dt,
                    fractions=self.trace[0], wealths=self.trace[1],
                    log_wealth_final=float(np.log(self.X + self.Y)[0]),
                    growth=float(self.growth()[0]))


class _Impulse(_Holdings):
    """Impulse control: a step ending at or beyond a (b) trades to alpha
    (beta) and multiplies wealth by the wealth factor."""

    def __init__(self, mp, cp, cand, cfg, path_indices, record=False):
        super().__init__(mp, cfg, path_indices, cand.a, cand.b, closed=False, record=record)
        self.a, self.al, self.be, self.b = cand.a, cand.alpha, cand.beta, cand.b
        self.cp, self.sigma = cp, mp.sigma
        self.step_log = np.zeros_like(self.X)
        self.trade_log = np.zeros_like(self.X)
        self.events = []
        if cfg.bridge_correction:
            self.y_lo, self.y_hi = to_centered(self.a), to_centered(self.b)
            self.y_prev = np.full_like(self.X, to_centered(self.h0))

    def step(self, n: int, z, u) -> None:
        X, Y = self.X, self.Y
        v_before = X + Y
        V = self.grow(z)
        self.step_log += np.log(V / v_before)
        h = Y / V
        exit_lo = h <= self.a
        exit_hi = h >= self.b
        if u is not None:
            y_new = np.log(Y / X)
            inside = ~(exit_lo | exit_hi)
            p_lo = bridge_crossing_prob(self.y_prev, y_new, self.y_lo, self.sigma, self.cfg.dt)
            p_hi = bridge_crossing_prob(self.y_prev, y_new, self.y_hi, self.sigma, self.cfg.dt)
            cross_lo = inside & (u[:, 0] < p_lo)
            cross_hi = inside & ~cross_lo & (u[:, 1] < p_hi)
            # a sampled within-step touch trades from the boundary value
            for cross, level in ((cross_lo, self.a), (cross_hi, self.b)):
                if cross.any():
                    h[cross] = level
                    Y[cross] = level * V[cross]
                    X[cross] = (1.0 - level) * V[cross]
            exit_lo, exit_hi = exit_lo | cross_lo, exit_hi | cross_hi
        out = exit_lo | exit_hi
        if out.any():
            idx = np.nonzero(out)[0]
            h_pre = h[idx]
            xi = np.where(exit_lo[idx], self.al, self.be)
            factor = wealth_factor(self.cp, h_pre, xi)
            v_new = (X[idx] + Y[idx]) * factor
            Y[idx] = xi * v_new
            X[idx] = (1.0 - xi) * v_new
            self.trade_log[idx] += np.log(factor)
            if self.trace is not None:
                self.events.append(TradeEvent(
                    time=n * self.cfg.dt, pre_fraction=float(h_pre[0]), target=float(xi[0]),
                    factor=float(factor[0]), log_cost=float(np.log(factor[0]))))
        if u is not None:
            self.y_prev = np.log(Y / X)
        if self.trace is not None:
            self.record(n)


class _Reflected(_Holdings):
    """Reflection at [A, B]: a step ending outside is projected back in
    monetary terms, with cumulative buy (L) and sell (M) volumes.

    Selling m = (Y - B V)/(1 - gamma B) restores h = B exactly and buying
    l = (A V - Y)/(1 + gamma A) restores h = A exactly under the
    self-financing accounting dX = rX dt + (1-gamma) dM - (1+gamma) dL.
    """

    def __init__(self, mp, gamma, A, B, cfg, path_indices, record=False):
        super().__init__(mp, cfg, path_indices, A, B, closed=True, record=record, rows=4)
        self.gamma, self.A, self.B = gamma, A, B
        self.L = np.zeros_like(self.X)
        self.M = np.zeros_like(self.X)

    def step(self, n: int, z, u) -> None:
        X, Y, gamma, A, B = self.X, self.Y, self.gamma, self.A, self.B
        V = self.grow(z)
        h = Y / V
        over = h > B
        if over.any():
            idx = np.nonzero(over)[0]
            m = (Y[idx] - B * V[idx]) / (1.0 - gamma * B)
            Y[idx] -= m
            X[idx] += (1.0 - gamma) * m
            self.M[idx] += m
        under = h < A
        if under.any():
            idx = np.nonzero(under)[0]
            buy = (A * V[idx] - Y[idx]) / (1.0 + gamma * A)
            Y[idx] += buy
            X[idx] -= (1.0 + gamma) * buy
            self.L[idx] += buy
        if self.trace is not None:
            self.record(n, self.L[0], self.M[0])


def simulate_impulse_path(mp: MarketParams, cp: CostParams, cand,
                          cfg: SimConfig, path_index: int) -> PathRecord:
    """One impulse-controlled path under the constant boundary strategy."""
    rule = _Impulse(mp, cp, cand, cfg, [path_index], record=True).run(cfg.bridge_correction)
    return PathRecord(**rule.path_fields(), trade_events=tuple(rule.events),
                      step_log_total=float(rule.step_log[0]),
                      trade_log_total=float(rule.trade_log[0]))


def estimate_growth_impulse(mp: MarketParams, cp: CostParams, cand,
                            cfg: SimConfig) -> GrowthEstimate:
    """Mean and standard error of per-path growth over cfg.n_paths paths."""
    return _Impulse(mp, cp, cand, cfg, range(cfg.n_paths)).run(cfg.bridge_correction).estimate()


def simulate_reflected_path(mp: MarketParams, gamma: float, A: float, B: float,
                            cfg: SimConfig, path_index: int) -> ReflectedRecord:
    """One reflected path under the control limit policy for (A, B)."""
    rule = _Reflected(mp, gamma, A, B, cfg, [path_index], record=True).run()
    return ReflectedRecord(**rule.path_fields(), buy_volume=rule.trace[2],
                           sell_volume=rule.trace[3])


def estimate_growth_reflected(mp: MarketParams, gamma: float, A: float, B: float,
                              cfg: SimConfig) -> GrowthEstimate:
    return _Reflected(mp, gamma, A, B, cfg, range(cfg.n_paths)).run().estimate()


def couple_at_boundaries(mp: MarketParams, impulse_bounds_y, limits_y,
                         cfg: SimConfig, y_start: float):
    """Drive the transformed impulse processes of k deltas and the reflected
    one on the same normal increments, drawn once per path.

    impulse_bounds_y is one (a, alpha, beta, b) in log coordinates or a
    (k, 4) stack of them.  Every process steps by c dt + sigma sqrt(dt) Z
    and is then mapped back into its region, an impulse one by jumping to
    its restart target, the reflected one by clipping.  Returns per-path
    sup distances and trade counts as (k, n_paths) arrays.
    """
    a_y, al_y, be_y, b_y = np.atleast_2d(impulse_bounds_y).T[..., None]
    c = (mp.mu - mp.r - 0.5 * mp.sigma * mp.sigma) * cfg.dt
    sq = mp.sigma * math.sqrt(cfg.dt)
    Yi = np.full((a_y.shape[0], cfg.n_paths), y_start)
    Yr = np.full(cfg.n_paths, y_start)
    sup = np.zeros(Yi.shape)
    trades = np.zeros(Yi.shape, dtype=np.int64)

    def step(n, z, u):
        nonlocal Yi, Yr
        dw = c + sq * z
        Yi = Yi + dw
        out_lo = Yi <= a_y
        out_hi = Yi >= b_y
        if out_lo.any() or out_hi.any():
            np.add(trades, out_lo | out_hi, out=trades)
            Yi = np.where(out_lo, al_y, np.where(out_hi, be_y, Yi))
        Yr = np.clip(Yr + dw, *limits_y)
        np.maximum(sup, np.abs(Yi - Yr), out=sup)

    # Y/X of every path is positive and finite inside the cone
    _drive(cfg, range(cfg.n_paths), step, lambda: np.exp(np.vstack((Yi, Yr))))
    return sup, trades


def couple_paths(mp: MarketParams, gamma: float, deltas, cfg: SimConfig) -> list:
    """Common-noise coupling of impulse paths against the reflected limit.

    deltas must be sorted in decreasing order; each is solved by the
    boundary solver (warm started along the list).  The start fraction is
    checked against the reflected band [A, B] before any delta is solved,
    and against every no-trade region before any path is walked.
    One CouplingRow per delta, reporting the mean over paths of
    sup_t |Y_delta - Y|.
    """
    deltas = [float(d) for d in deltas]
    if any(d2 >= d1 for d1, d2 in zip(deltas, deltas[1:])):
        raise ValueError("deltas must be sorted in decreasing order")
    lim = _limit.solve_limit(mp, gamma)
    A, B = lim.candidate.A, lim.candidate.B
    lo_y, hi_y = to_centered(A), to_centered(B)
    h_start = cfg.h0 if cfg.h0 is not None else _default_h0(mp, A, B)
    if not A <= h_start <= B:
        raise ValueError(f"h0={h_start:g} must lie inside the reflected band [{A:g}, {B:g}]")
    bounds_y = []
    cand = None
    for delta in deltas:
        cand = _qvi.solve_boundaries(mp, CostParams(delta=delta, gamma=gamma), init=cand).candidate
        if not cand.a < h_start < cand.b:
            raise ValueError(f"h0={h_start:g} outside the no-trade region at delta={delta:g}")
        bounds_y.append([to_centered(v) for v in (cand.a, cand.alpha, cand.beta, cand.b)])
    sup, trades = couple_at_boundaries(mp, bounds_y, (lo_y, hi_y), cfg, to_centered(h_start))
    return [CouplingRow(delta=delta, mean_sup_distance=float(s.mean()), n_paths=cfg.n_paths,
                        sup_distances=s, trade_counts=t,
                        jump_low=float(by[1] - by[0]), jump_high=float(by[3] - by[2]))
            for delta, by, s, t in zip(deltas, bounds_y, sup, trades)]
