"""Seeded Monte Carlo of the controlled and reflected fraction processes.

Every simulation walks one band rule in logit coordinates y = log(Y/X) with
the bond as numeraire.  Between trades y steps by (mu - r - sigma^2/2) dt +
sigma sqrt(dt) Z and the bond grows by r dt, both exactly, so the only
discretisation is that boundary crossings are detected at grid times and
the overshoot is kept (the trade executes from the overshooting fraction).
A band row (lo, lo_target, hi_target, hi) sends y <= lo to lo_target and
y >= hi to hi_target.  The impulse rule is the row (a, alpha, beta, b); the
reflected rule is its delta = 0 case (A, A, B, B), a clip whose wealth
factor under CostParams(0, gamma) is the monetary projection onto the band;
coupling stacks the impulse rows of several deltas over the reflected row
and so draws each path's noise once for all of them.  Both rules record
their first path as one PathRecord, whose trades also carry the monetary
volumes bought and sold.
The step loop only adds, compares and copies; once per block the trades
are priced from the buffered pre-jump y, the bond jumping by log1p(e^y) +
log wealth factor + log(1 - target).  A coupling only counts its trades,
so it buffers no pre-jump y.  An optional Brownian-bridge correction
samples within-step crossings for the impulse simulator from a separate
uniform stream, so the normal sequence is unchanged.

Randomness is counter-based: path i of a run seeded s reads an independent
Philox stream keyed (s, i), so any subset of paths can be simulated
concurrently or in blocks with identical results, and every output is a
pure function of (inputs, base_seed, path_index).  The walker uses this to
take the paths in fixed chunks and the steps in blocks that fill a fixed
byte tile: its buffers hold one block of steps for one chunk of paths,
whatever n_paths, n_steps or the number of rows is, and only the per-path
results (about 40 bytes a path and row) outlive a chunk.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import limit as _limit
from . import qvi as _qvi
from .market import (CostParams, MarketParams, check_deltas, from_centered, merton_fraction,
                     to_centered, trade_cost_transformed)

__all__ = [
    "SimConfig", "TradeEvent", "PathRecord", "GrowthEstimate",
    "CouplingRow", "NumericalBlowup", "path_generator",
    "simulate_impulse_path", "estimate_growth_impulse",
    "simulate_reflected_path", "estimate_growth_reflected",
    "couple_at_boundaries", "couple_paths",
]

# bytes of a chunk's step buffers: a block is as many steps as fit, at 8 B a
# path for the increments or pre-jump y, 2 B a path and row for the trade
# flags and 16 B a path for the bridge's uniforms
_TILE = 4 << 20
_CHUNK = 2048  # paths walked at once; fig2's default 1,000 paths are one chunk
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
        if not 0 < self.horizon < np.inf:
            raise ValueError("horizon must be positive and finite")
        if not 0 < self.dt <= self.horizon / 100.0:
            raise ValueError("dt must satisfy 0 < dt <= horizon/100")
        # growth is log-wealth over the horizon, so the steps must cover it exactly
        if abs(self.n_steps * self.dt - self.horizon) > 1e-9 * self.horizon:
            raise ValueError("horizon must be a whole number of steps")
        if not 0 < self.v0 < np.inf:
            raise ValueError("v0 must be positive and finite")
        for name in ("n_paths", "base_seed"):  # a float or bool would fail only after the solve
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.n_paths < 1:
            raise ValueError("n_paths must be at least 1")
        if not 0 <= self.base_seed < 2**64:
            raise ValueError("base_seed must lie in [0, 2**64)")

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
    """One band-rule path sampled at every grid time, impulse or reflected
    (its delta = 0 case), with its trades and cumulative buy (L) and sell
    (M) volumes."""

    times: np.ndarray
    fractions: np.ndarray
    wealths: np.ndarray
    buy_volume: np.ndarray
    sell_volume: np.ndarray
    trade_events: tuple
    log_wealth_final: float
    growth: float
    step_log_total: float
    trade_log_total: float


@dataclass(frozen=True)
class GrowthEstimate:
    """Mean and standard error of per-path growth, the mean trades per year
    and the mean log wealth lost to trade costs per year; first_path is path
    0's record."""

    mean_growth: float
    std_error: float
    n_paths: int
    horizon: float
    dt: float
    trades_per_year: float
    cost_drag_per_year: float
    first_path: PathRecord = field(compare=False, repr=False)


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
    """Philox stream keyed by the 64-bit words (base_seed, path_index);
    stream 1 is the uniform side-channel used by the bridge correction."""
    word = base_seed ^ (_BRIDGE_STREAM_SALT if stream else 0)
    key = np.array([word, path_index], dtype=np.uint64)  # a list rounds words >= 2**63
    return np.random.Generator(np.random.Philox(key=key))


def _start(mp, cfg, lo, hi, closed, region="no-trade region"):
    """h0, which must lie in (lo, hi), or [lo, hi] when closed; h0 = None
    picks the Merton fraction clipped just inside."""
    margin = 1e-3 * (hi - lo)
    h0 = cfg.h0 if cfg.h0 is not None else min(max(merton_fraction(mp), lo + margin), hi - margin)
    if not (lo <= h0 <= hi if closed else lo < h0 < hi):
        bounds = f"[{lo:g}, {hi:g}]" if closed else f"({lo:g}, {hi:g})"
        raise ValueError(f"h0={h0:g} must lie inside the {region} {bounds}")
    return h0


class _Band:
    """Paths of y = log(Y/X) from y0 under a (k, 4) stack of logit band rows,
    every row driven by its path's normals.  With cp (one row), each trade
    moves the log bond holding (kept less its interest r t) and the log-cost
    total, and the first path is recorded; without cp, the last row is the
    reference of a coupling and sup |y - y_last| of the others is tracked.

    paths is a range or list of path indices.  They are walked _CHUNK at a
    time, and the steps as many at a time as fill _TILE bytes (at least one,
    at most n_steps), so the buffers are a fixed size whatever the numbers
    of paths, steps and rows; only the per-path results (y and trade count,
    with cp bond and trade log, without it sup) are kept for every path."""

    def __init__(self, mp, cfg, paths, rows, y0, cp=None):
        self.mp, self.cfg, self.paths, self.cp = mp, cfg, paths, cp
        self.lo, self.lo_to, self.hi_to, self.hi = np.atleast_2d(rows).astype(float).T[..., None]
        shape = (self.lo.shape[0], len(paths))
        self.y = np.full(shape, float(y0))
        self.trades = np.zeros(shape, dtype=np.int64)
        self.sup = np.zeros((shape[0] - 1, shape[1])) if cp is None else None
        if cp is not None:  # a coupling prices no trade, so it keeps no bond
            self.bond = np.full(shape, math.log(cfg.v0) - np.logaddexp(0.0, y0))
            self.trade_log = np.zeros(shape)
            # the first path's post-jump y and bond jump at every step, and its
            # trades as (step, y traded from, target y, log wealth factor)
            self.trace = np.zeros((2, cfg.n_steps + 1))
            self.trace[:, 0] = y0, self.bond[0, 0]
            self.trace_trades = []

    def run(self, bridge: bool = False) -> _Band:
        for start in range(0, len(self.paths), _CHUNK):
            self._run_chunk(slice(start, start + _CHUNK), bridge)
        return self

    def _run_chunk(self, cols: slice, bridge: bool) -> None:
        """Walk the paths in cols through every block of steps."""
        mp, cfg, lo, hi = self.mp, self.cfg, self.lo, self.hi
        y = self.y[:, cols]
        held = (y,) if self.cp is None else (y, self.bond[:, cols])
        sup = None if self.sup is None else self.sup[:, cols]
        c, sq = (mp.mu - mp.r - 0.5 * mp.sigma * mp.sigma) * cfg.dt, mp.sigma * math.sqrt(cfg.dt)
        paths = self.paths[cols]
        gens = [path_generator(cfg.base_seed, i) for i in paths]
        ugens = [path_generator(cfg.base_seed, i, stream=1) for i in paths] if bridge else []
        step_bytes = y.shape[1] * (8 + 2 * y.shape[0] + (16 if bridge else 0))
        block = (min(max(_TILE // step_bytes, 1), cfg.n_steps),) + y.shape
        low, high = np.empty(block, dtype=bool), np.empty(block, dtype=bool)
        if self.cp is None:  # a coupling only counts trades, so it keeps no pre-jump y
            pre, dw, scratch = None, np.empty(block[:1] + block[2:]), np.empty(y.shape)
        else:  # one row: the increments are drawn where the pre-jump y goes
            pre = np.empty(block)
            dw = pre[:, 0]
        touch = np.empty((block[0], 2, len(paths))) if bridge else None
        gap = None if sup is None else np.empty_like(sup)
        for done in range(0, cfg.n_steps, block[0]):
            nb = min(block[0], cfg.n_steps - done)
            for i, gen in enumerate(gens):
                dw[:nb, i] = gen.standard_normal(nb)
            dw[:nb] *= sq
            dw[:nb] += c
            if bridge:  # u < P(touch) in log form, per step and side
                for i, gen in enumerate(ugens):
                    touch[:nb, :, i] = gen.random(2 * nb).reshape(nb, 2)
                np.log(touch[:nb], out=touch[:nb])
                touch[:nb] *= -0.5 * mp.sigma * mp.sigma * cfg.dt
            for j in range(nb):
                if pre is None:
                    yj = np.add(y, dw[j], out=scratch)
                else:  # dw[j] is a view of pre[j], and numpy would copy it for out=pre[j]
                    yj = pre[j]
                    yj += y
                np.less_equal(yj, lo, out=low[j])
                np.greater_equal(yj, hi, out=high[j])
                if bridge:  # a sampled within-step touch trades from the boundary value
                    inside = ~(low[j] | high[j])
                    cross_lo = inside & ((y - lo) * (yj - lo) < touch[j, 0])
                    low[j] |= cross_lo
                    high[j] |= inside & ~cross_lo & ((y - hi) * (yj - hi) < touch[j, 1])
                np.copyto(y, yj)
                np.copyto(y, self.lo_to, where=low[j])
                np.copyto(y, self.hi_to, where=high[j])
                if gap is not None:
                    np.abs(np.subtract(y[:-1], y[-1], out=gap), out=gap)
                    np.maximum(sup, gap, out=sup)
            self._settle(cols, done, None if pre is None else pre[:nb], low[:nb], high[:nb])
            if not all(np.isfinite(v).all() for v in held):
                raise NumericalBlowup("wealth left the positive cone")

    def _settle(self, cols: slice, done: int, pre, low, high) -> None:
        """Count the trades of the block after step done (in high) and, with
        pre, price them; the first chunk also records its first path."""
        hit = np.logical_or(low, high, out=high)
        self.trades[:, cols] += hit.sum(axis=0)
        if pre is None:
            return
        t, row, path = np.unravel_index(np.flatnonzero(hit), hit.shape)
        y_pre, side = pre[t, row, path], low[t, row, path]
        # the trade leaves from the boundary when the bridge saw a touch inside it
        y_from = np.where(side, np.minimum(y_pre, self.lo[row, 0]),
                          np.maximum(y_pre, self.hi[row, 0]))
        y_to = np.where(side, self.lo_to[row, 0], self.hi_to[row, 0])
        log_factor = trade_cost_transformed(self.cp, y_from, y_to - y_from)
        jump = np.logaddexp(0.0, y_pre) + log_factor - np.logaddexp(0.0, y_to)
        # unbuffered and in time order, so a path's sums do not depend on its batch
        np.add.at(self.trade_log[:, cols], (row, path), log_factor)
        np.add.at(self.bond[:, cols], (row, path), jump)
        if cols.start:
            return
        first = (row == 0) & (path == 0)
        steps = done + 1 + t[first]
        self.trace[0, done + 1:done + 1 + len(pre)] = pre[:, 0, 0]
        self.trace[:, steps] = y_to[first], jump[first]
        self.trace_trades.append((steps, y_from[first], y_to[first], log_factor[first]))

    def log_wealth(self, paths=slice(None)):
        """Row 0's final log wealth on every path, or on path i alone."""
        return (self.bond[0, paths] + self.mp.r * self.cfg.dt * self.cfg.n_steps
                + np.logaddexp(0.0, self.y[0, paths]))

    def growth(self, paths=slice(None)):
        return (self.log_wealth(paths) - math.log(self.cfg.v0)) / self.cfg.horizon

    def estimate(self) -> GrowthEstimate:
        growth, n, horizon = self.growth(), len(self.paths), self.cfg.horizon
        std_error = float(growth.std(ddof=1) / math.sqrt(n)) if n > 1 else 0.0
        return GrowthEstimate(mean_growth=float(growth.mean()), std_error=std_error,
                              n_paths=n, horizon=horizon, dt=self.cfg.dt,
                              trades_per_year=float(self.trades[0].mean() / horizon),
                              cost_drag_per_year=float(-self.trade_log[0].mean() / horizon),
                              first_path=self.first())

    def first(self) -> PathRecord:
        """The record of the first path of row 0, whose volumes bought (L)
        and sold (M) give dX = rX dt - delta V dN + (1 - gamma) dM - (1 + gamma) dL."""
        cfg = self.cfg
        steps = np.arange(cfg.n_steps + 1)
        wealths = np.exp(np.cumsum(self.trace[1]) + self.mp.r * cfg.dt * steps
                         + np.logaddexp(0.0, self.trace[0]))
        at, y_from, y_to, log_factor = (np.concatenate(col) for col in zip(*self.trace_trades))
        h, xi = from_centered(y_from), from_centered(y_to)
        eta = _trade_volume(wealths[at], y_from, y_to, log_factor)
        volumes = np.zeros((2, cfg.n_steps + 1))  # bought (L) and sold (M) at each step
        volumes[:, at] = np.maximum(eta, 0.0), np.maximum(-eta, 0.0)
        buy_volume, sell_volume = np.cumsum(volumes, axis=1)
        events = tuple(TradeEvent(time=float(n * cfg.dt), pre_fraction=float(p), target=float(x),
                                  factor=float(math.exp(c)), log_cost=float(c))
                       for n, p, x, c in zip(at, h, xi, log_factor))
        log_wealth_final, trade_log = float(self.log_wealth(0)), float(self.trade_log[0, 0])
        return PathRecord(times=steps * cfg.dt, fractions=from_centered(self.trace[0]),
                          wealths=wealths, buy_volume=buy_volume, sell_volume=sell_volume,
                          trade_events=events, log_wealth_final=log_wealth_final,
                          growth=float(self.growth(0)),
                          step_log_total=log_wealth_final - math.log(cfg.v0) - trade_log,
                          trade_log_total=trade_log)


def _trade_volume(v_after, y_from, y_to, log_factor):
    """A trade's change in the stock holding V_after xi - V_before h, on
    either branch of wealth_factor V_before (xi (1 - delta) - h)/(1 +- gamma xi),
    as V_before (expm1(log_factor) xi + xi - h), with xi - h from the walked
    logits as sinh(dy/2)/(2 cosh(y_from/2) cosh(y_to/2)): no cancellation."""
    gap = np.sinh(0.5 * (y_to - y_from)) / (2.0 * np.cosh(0.5 * y_from) * np.cosh(0.5 * y_to))
    return v_after / np.exp(log_factor) * (np.expm1(log_factor) * from_centered(y_to) + gap)


def _walk(mp, cp, bounds, cfg, paths):
    """The walk of the given paths under the band (a, alpha, beta, b) from h0
    in (a, b), a band that verify_qvi's claim rule admits (else ValueError).
    The band (A, A, B, B) under CostParams(0, gamma) reflects at [A, B]:
    only there may h0 lie on an edge, and no bridge is sampled."""
    a, alpha, beta, b = bounds
    if not (0.0 < a <= alpha <= beta <= b < 1.0 and a < b):
        raise ValueError("band breaks 0 < a <= alpha <= beta <= b < 1, a < b: "
                         f"(a, alpha, beta, b) = {tuple(map(float, bounds))}")
    reflect = a == alpha and beta == b
    y0 = to_centered(_start(mp, cfg, a, b, reflect))
    return _Band(mp, cfg, paths, to_centered(bounds), y0, cp).run(
        cfg.bridge_correction and not reflect)


def simulate_impulse_path(mp: MarketParams, cp: CostParams, cand,
                          cfg: SimConfig, path_index: int) -> PathRecord:
    """One impulse-controlled path under the constant boundary strategy."""
    return _walk(mp, cp, (cand.a, cand.alpha, cand.beta, cand.b), cfg, [path_index]).first()


def estimate_growth_impulse(mp: MarketParams, cp: CostParams, cand,
                            cfg: SimConfig) -> GrowthEstimate:
    """Mean and standard error of per-path growth over cfg.n_paths paths."""
    return _walk(mp, cp, (cand.a, cand.alpha, cand.beta, cand.b), cfg,
                 range(cfg.n_paths)).estimate()


def simulate_reflected_path(mp: MarketParams, gamma: float, A: float, B: float,
                            cfg: SimConfig, path_index: int) -> PathRecord:
    """One reflected path under the control limit policy for (A, B)."""
    return _walk(mp, CostParams(0.0, gamma), (A, A, B, B), cfg, [path_index]).first()


def estimate_growth_reflected(mp: MarketParams, gamma: float, A: float, B: float,
                              cfg: SimConfig) -> GrowthEstimate:
    return _walk(mp, CostParams(0.0, gamma), (A, A, B, B), cfg, range(cfg.n_paths)).estimate()


def couple_at_boundaries(mp: MarketParams, impulse_bounds_y, limits_y,
                         cfg: SimConfig, y_start: float):
    """Drive the transformed impulse processes of k deltas and the reflected
    one on the same normal increments, drawn once per path.

    impulse_bounds_y is one (a, alpha, beta, b) in log coordinates or a
    (k, 4) stack of them, walked over the reflected row (lo, lo, hi, hi) of
    limits_y: an impulse process jumps to its restart target, the reflected
    one is clipped.  Every row, the reflected one included, must satisfy
    lo <= lo_target <= hi_target <= hi and lo < hi (else ValueError).
    Returns per-path sup distances and trade counts as (k, n_paths) arrays.
    """
    lo, hi = limits_y
    rows = np.vstack((np.atleast_2d(impulse_bounds_y), [(lo, lo, hi, hi)]))
    if not ((np.diff(rows) >= 0.0).all() and (rows[:, 0] < rows[:, 3]).all()):
        raise ValueError("coupling rows, the reflected (lo, lo, hi, hi) last, break "
                         f"lo <= lo_target <= hi_target <= hi, lo < hi: {rows.tolist()}")
    band = _Band(mp, cfg, range(cfg.n_paths), rows, y_start).run()
    return band.sup, band.trades[:-1]


def couple_paths(mp: MarketParams, gamma: float, deltas, cfg: SimConfig) -> list:
    """Common-noise coupling of impulse paths against the reflected limit.

    deltas must be positive, decreasing and below 1 - gamma, which is
    checked before anything is solved; each is solved by the boundary
    solver (warm started along the list).  The start fraction is checked
    against the reflected band [A, B] before any delta is solved, and
    against every no-trade region before any path is walked.
    One CouplingRow per delta, reporting the mean over paths of
    sup_t |Y_delta - Y|.
    """
    deltas = check_deltas(deltas, gamma)
    lim = _limit.solve_limit(mp, gamma)
    A, B = lim.candidate.A, lim.candidate.B
    lo_y, hi_y = to_centered(A), to_centered(B)
    h_start = _start(mp, cfg, A, B, closed=True, region="reflected band")
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
