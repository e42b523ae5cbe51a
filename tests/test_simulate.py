import dataclasses
import math

import mpmath
import numpy as np
import pytest

import growth_frictions as gf
from growth_frictions import qvi, simulate
from holdings_reference import holdings_growth

GAMMA = 0.003


def _events_equal(e1, e2):
    return all(a == b for a, b in zip(e1, e2)) and len(e1) == len(e2)


def test_impulse_path_deterministic(mp, cp, sol):
    cfg = gf.SimConfig(horizon=5.0, dt=1e-3, n_paths=4, base_seed=123)
    r1 = gf.simulate_impulse_path(mp, cp, sol.candidate, cfg, 2)
    r2 = gf.simulate_impulse_path(mp, cp, sol.candidate, cfg, 2)
    assert np.array_equal(r1.fractions, r2.fractions)
    assert np.array_equal(r1.wealths, r2.wealths)
    assert r1.log_wealth_final == r2.log_wealth_final
    assert _events_equal(r1.trade_events, r2.trade_events)


def test_estimate_matches_single_paths(mp, cp, sol):
    cfg = gf.SimConfig(horizon=2.0, dt=1e-2, n_paths=4, base_seed=9)
    est = gf.estimate_growth_impulse(mp, cp, sol.candidate, cfg)
    singles = [gf.simulate_impulse_path(mp, cp, sol.candidate, cfg, i).growth
               for i in range(4)]
    assert est.mean_growth == pytest.approx(np.mean(singles), abs=1e-12)
    assert est.std_error == pytest.approx(np.std(singles, ddof=1) / 2.0, abs=1e-12)


def test_no_trade_path_matches_closed_form(mp, cp):
    # boundaries wide open: buy and hold; terminal wealth has a closed form
    # in terms of the path's own normal draws
    cand = gf.BoundaryCandidate(l=0.02, x0=0.6, a=1e-6, alpha=0.3, beta=0.7, b=1 - 1e-6)
    cfg = gf.SimConfig(horizon=1.0, dt=1e-2, n_paths=1, base_seed=77, h0=0.6)
    rec = gf.simulate_impulse_path(mp, cp, cand, cfg, 0)
    assert len(rec.trade_events) == 0
    z = gf.path_generator(77, 0).standard_normal(100)
    x0, y0 = 0.4 * cfg.v0, 0.6 * cfg.v0
    log_stock = (mp.mu - 0.5 * mp.sigma**2) * 1.0 + mp.sigma * math.sqrt(1e-2) * z.sum()
    closed = math.log(x0 * math.exp(mp.r * 1.0) + y0 * math.exp(log_stock))
    assert rec.log_wealth_final == pytest.approx(closed, abs=1e-10)


def test_post_trade_fraction_hits_target(mp, cp, sol):
    cfg = gf.SimConfig(horizon=20.0, dt=1e-3, n_paths=1, base_seed=3)
    rec = gf.simulate_impulse_path(mp, cp, sol.candidate, cfg, 0)
    assert len(rec.trade_events) > 0
    dt = rec.times[1] - rec.times[0]
    for ev in rec.trade_events:
        k = int(round(ev.time / dt))
        assert abs(rec.fractions[k] - ev.target) <= 1e-12
        assert ev.factor == pytest.approx(
            gf.wealth_factor(cp, ev.pre_fraction, ev.target), abs=1e-15)


def test_monetary_rebalance_identity(cp):
    # trading eta solves (Y + eta)/(V - dV - g|eta|) = xi; the resulting
    # wealth matches the wealth factor and the fraction lands on xi
    dl, gm = cp.delta, cp.gamma
    for h in (0.1, 0.45, 0.9):
        for xi in (0.2, 0.5, 0.8):
            v, y = 1.0, h
            if xi * (1 - dl) >= h:
                eta = (xi * (1 - dl) * v - y) / (1 + gm * xi)
            else:
                eta = (xi * (1 - dl) * v - y) / (1 - gm * xi)
            v_new = v - dl * v - gm * abs(eta)
            assert v_new / v == pytest.approx(gf.wealth_factor(cp, h, xi), abs=1e-15)
            assert (y + eta) / v_new == pytest.approx(xi, abs=1e-12)


@pytest.mark.parametrize("rule", ["impulse", "reflected"])
def test_accounting_identity(rule, mp, cp, sol, lim):
    cfg = gf.SimConfig(horizon=20.0, dt=1e-3, n_paths=1, base_seed=15, v0=2.5)
    if rule == "reflected":
        rec = gf.simulate_reflected_path(mp, GAMMA, lim.candidate.A, lim.candidate.B, cfg, 0)
    else:
        rec = gf.simulate_impulse_path(mp, cp, sol.candidate, cfg, 0)
    direct = rec.log_wealth_final
    accumulated = math.log(cfg.v0) + rec.step_log_total + rec.trade_log_total
    assert direct == pytest.approx(accumulated, abs=1e-10)
    # the cost drag is the sum of the trades' log wealth factors
    assert len(rec.trade_events) > 0
    assert rec.trade_log_total == pytest.approx(sum(ev.log_cost for ev in rec.trade_events),
                                                abs=1e-12)


def test_wealth_positive_along_path(mp, cp, sol):
    cfg = gf.SimConfig(horizon=20.0, dt=1e-3, n_paths=1, base_seed=21)
    rec = gf.simulate_impulse_path(mp, cp, sol.candidate, cfg, 0)
    assert np.all(rec.wealths > 0)


def test_suboptimal_boundaries_do_not_win(mp, cp, sol):
    cfg = gf.SimConfig(horizon=50.0, dt=1e-3, n_paths=200, base_seed=31)
    opt = gf.estimate_growth_impulse(mp, cp, sol.candidate, cfg)
    c = sol.candidate
    shifted = gf.BoundaryCandidate(l=c.l, x0=c.x0 + 0.05, a=c.a + 0.05,
                                   alpha=c.alpha + 0.05, beta=c.beta + 0.05,
                                   b=c.b + 0.05)
    sub = gf.estimate_growth_impulse(mp, cp, shifted, cfg)
    combined = math.hypot(opt.std_error, sub.std_error)
    assert sub.mean_growth <= opt.mean_growth + 3 * combined


def test_growth_continuous_in_gamma(mp):
    # near gamma = 0 the solved strategy approaches the pure-fixed-cost one;
    # the Monte Carlo estimate still matches that solver's value
    cp_tiny = gf.CostParams(delta=1e-3, gamma=1e-8)
    sol_tiny = gf.solve_boundaries(mp, cp_tiny)
    cfg = gf.SimConfig(horizon=50.0, dt=1e-3, n_paths=200, base_seed=23)
    est = gf.estimate_growth_impulse(mp, cp_tiny, sol_tiny.candidate, cfg)
    assert abs(est.mean_growth - (mp.r + sol_tiny.candidate.l)) <= 3 * est.std_error


def test_invalid_start_rejected(mp, cp, sol):
    cfg = gf.SimConfig(horizon=5.0, dt=1e-3, n_paths=1, base_seed=0, h0=0.99)
    with pytest.raises(ValueError, match="no-trade region"):
        gf.simulate_impulse_path(mp, cp, sol.candidate, cfg, 0)


def _no_generator(*args, **kwargs):
    raise AssertionError("built a generator before checking the band")


@pytest.mark.parametrize("simulator, band", [
    ("impulse_path", (0.5, 0.4, 0.7, 0.8)),  # a > alpha
    ("impulse", (0.02, 0.6, 0.5, 0.8)),  # alpha > beta, which walked to a growth of -0.235
    ("impulse", (0.2, 0.3, 0.7, 1.0)),  # b on 1
    ("impulse", (0.2, np.nan, 0.7, 0.8)),
    ("reflected_path", (0.7, 0.7, 0.5, 0.5)),  # A > B
    ("reflected", (0.5, 0.5, 0.5, 0.5)),  # A = B
], ids=["a>alpha", "alpha>beta", "b=1", "nan", "A>B", "A=B"])
def test_the_band_walk_rejects_a_band_outside_the_claim_rule(simulator, band, mp, cp,
                                                             monkeypatch):
    # one ValueError naming verify_qvi's rule 0 < a <= alpha <= beta <= b < 1,
    # a < b, before any path generator is built
    monkeypatch.setattr(simulate, "path_generator", _no_generator)
    cfg = gf.SimConfig(horizon=1.0, dt=1e-3, n_paths=10, base_seed=1)
    a, al, be, b = band
    cand = gf.BoundaryCandidate(l=0.02, x0=0.6, a=a, alpha=al, beta=be, b=b)
    run = {"impulse_path": lambda: gf.simulate_impulse_path(mp, cp, cand, cfg, 0),
           "impulse": lambda: gf.estimate_growth_impulse(mp, cp, cand, cfg),
           "reflected_path": lambda: gf.simulate_reflected_path(mp, GAMMA, a, b, cfg, 0),
           "reflected": lambda: gf.estimate_growth_reflected(mp, GAMMA, a, b, cfg)}[simulator]
    with pytest.raises(ValueError, match=r"^band breaks 0 < a <= alpha <= beta <= b < 1, "
                                         r"a < b: \(a, alpha, beta, b\) = \("):
        run()


@pytest.mark.parametrize("rows, limits", [
    ([(0.5, -0.5, 0.2, 0.1)], (-1.0, 1.0)),  # traded at every one of its 1,000 steps
    ([(-1.0, -0.5, 0.5, 1.0), (-0.5, -1.0, 0.5, 1.0)], (-1.0, 1.0)),  # lo > lo_target
    ([(-1.0, -0.5, 0.5, 1.0)], (1.0, -1.0)),  # reference lo > hi
    ([(-1.0, -0.5, 0.5, 1.0)], (0.3, 0.3)),  # reference lo = hi
    ([(0.2, 0.2, 0.2, 0.2)], (-1.0, 1.0)),  # lo = hi
    ([(-1.0, np.nan, 0.5, 1.0)], (-1.0, 1.0)),
], ids=["unordered", "second-row", "reference-reversed", "reference-empty", "empty", "nan"])
def test_the_coupling_rejects_rows_outside_the_band_rule(rows, limits, mp, monkeypatch):
    monkeypatch.setattr(simulate, "path_generator", _no_generator)
    cfg = gf.SimConfig(horizon=1.0, dt=1e-3, n_paths=10, base_seed=1)
    with pytest.raises(ValueError, match=r"^coupling rows, the reflected \(lo, lo, hi, hi\) "
                                         r"last, break lo <= lo_target <= hi_target <= hi, "
                                         r"lo < hi: "):
        gf.couple_at_boundaries(mp, rows, limits, cfg, 0.0)


def test_sim_config_validation():
    with pytest.raises(ValueError):
        gf.SimConfig(horizon=0.0, dt=1e-3)
    with pytest.raises(ValueError):
        gf.SimConfig(horizon=1.0, dt=0.5)  # dt > horizon/100
    with pytest.raises(ValueError):
        gf.SimConfig(horizon=1.0, dt=1e-3, v0=-1.0)
    with pytest.raises(ValueError):
        gf.SimConfig(horizon=1.0, dt=1e-3, n_paths=0)
    with pytest.raises(ValueError, match="whole number of steps"):
        gf.SimConfig(horizon=1.0, dt=0.0066)  # 152 steps would cover 1.0032


@pytest.mark.parametrize("key, value", [("n_paths", 2.5), ("n_paths", 1000.0),
                                        ("n_paths", True), ("base_seed", 3.0),
                                        ("base_seed", False)])
def test_sim_config_takes_only_integer_path_counts_and_seeds(key, value):
    # a float or bool passed every range check and failed in the walk, after the solve
    with pytest.raises(ValueError, match=f"{key} must be an integer, got {value!r}"):
        gf.SimConfig(horizon=1.0, dt=1e-2, **{key: value})


@pytest.mark.parametrize("seed", [0, 1, 2**53 + 1, 2**63, 2**64 - 1])
def test_path_generator_keys_both_streams_with_every_seed_bit(seed):
    # the bridge stream's word has its top bit set for every seed below 2**63
    for stream, word in ((0, seed), (1, seed ^ 0x9E3779B97F4A7C15)):
        key = gf.path_generator(seed, 7, stream).bit_generator.state["state"]["key"]
        assert key.tolist() == [word, 7]


def test_seeds_0_and_1_draw_different_bridge_uniforms():
    u0, u1 = (gf.path_generator(seed, 0, stream=1).random(8) for seed in (0, 1))
    assert not np.any(u0 == u1)


def test_sim_config_takes_exactly_the_64_bit_seeds():
    assert gf.SimConfig(horizon=1.0, dt=1e-2, base_seed=2**64 - 1).base_seed == 2**64 - 1
    for seed in (-1, 2**64):
        with pytest.raises(ValueError, match=r"base_seed must lie in \[0, 2\*\*64\)"):
            gf.SimConfig(horizon=1.0, dt=1e-2, base_seed=seed)


def test_bridge_correction_adds_crossings(mp, cp, sol):
    base = dict(horizon=20.0, dt=4e-3, n_paths=1, base_seed=8)
    rec_off = gf.simulate_impulse_path(
        mp, cp, sol.candidate, gf.SimConfig(**base), 0)
    rec_on = gf.simulate_impulse_path(
        mp, cp, sol.candidate, gf.SimConfig(**base, bridge_correction=True), 0)
    assert len(rec_on.trade_events) >= len(rec_off.trade_events)
    # deterministic too
    rec_on2 = gf.simulate_impulse_path(
        mp, cp, sol.candidate, gf.SimConfig(**base, bridge_correction=True), 0)
    assert _events_equal(rec_on.trade_events, rec_on2.trade_events)


def test_reflected_containment_and_projection(mp, lim):
    A, B = lim.candidate.A, lim.candidate.B
    cfg = gf.SimConfig(horizon=20.0, dt=1e-3, n_paths=1, base_seed=5)
    rec = gf.simulate_reflected_path(mp, GAMMA, A, B, cfg, 0)
    assert np.all(rec.fractions >= A - 1e-12)
    assert np.all(rec.fractions <= B + 1e-12)
    dl = np.diff(rec.buy_volume)
    dm = np.diff(rec.sell_volume)
    assert np.all(~((dl > 0) & (dm > 0)))
    # pushes act only at the respective boundary
    assert np.all(np.abs(rec.fractions[1:][dl > 0] - A) <= 1e-12)
    assert np.all(np.abs(rec.fractions[1:][dm > 0] - B) <= 1e-12)
    assert rec.buy_volume[-1] > 0 and rec.sell_volume[-1] > 0


@pytest.mark.parametrize("rule", ["impulse", "reflected"])
def test_trade_volumes_are_exact_to_rounding(mp, cp, sol, lim, rule):
    # fig2's path 0, seed 3: each trade's volume V_after xi - V_before h
    # against 50-digit arithmetic on the walked logits, log wealth factor
    # and post-trade wealth
    c, A, B = sol.candidate, lim.candidate.A, lim.candidate.B
    rules = {"impulse": (cp, (c.a, c.alpha, c.beta, c.b)),
             "reflected": (gf.CostParams(0.0, GAMMA), (A, A, B, B))}
    cfg = gf.SimConfig(horizon=20.0, dt=1e-3, n_paths=1, base_seed=3)
    band = simulate._walk(mp, *rules[rule], cfg, [0])
    rec = band.first()
    at, y_from, y_to, log_factor = (np.concatenate(col) for col in zip(*band.trace_trades))
    eta = simulate._trade_volume(rec.wealths[at], y_from, y_to, log_factor)
    with mpmath.workdps(50):
        fraction = lambda y: 1 / (1 + mpmath.exp(-mpmath.mpf(y)))
        exact = [mpmath.mpf(v) * (fraction(yt) - mpmath.exp(-mpmath.mpf(lf)) * fraction(yf))
                 for v, yf, yt, lf in zip(rec.wealths[at], y_from, y_to, log_factor)]
        assert max(abs(e - x) / abs(x) for e, x in zip(eta, exact)) <= 1e-13
    volumes = np.zeros((2, cfg.n_steps + 1))
    volumes[:, at] = np.maximum(eta, 0.0), np.maximum(-eta, 0.0)
    assert np.array_equal(np.cumsum(volumes, axis=1), [rec.buy_volume, rec.sell_volume])


def test_projection_formulas_restore_boundary():
    gm, B, A = 0.003, 0.664, 0.536
    for h, v in ((0.7, 1.3), (0.67, 0.8)):
        y = h * v
        x = v - y
        m = (y - B * v) / (1 - gm * B)
        assert (y - m) / (x + (1 - gm) * m + y - m) == pytest.approx(B, abs=1e-12)
    for h, v in ((0.4, 1.1), (0.52, 2.0)):
        y = h * v
        x = v - y
        buy = (A * v - y) / (1 + gm * A)
        assert (y + buy) / (x - (1 + gm) * buy + y + buy) == pytest.approx(A, abs=1e-12)


def test_reflected_deterministic(mp, lim):
    A, B = lim.candidate.A, lim.candidate.B
    cfg = gf.SimConfig(horizon=5.0, dt=1e-3, n_paths=1, base_seed=99)
    r1 = gf.simulate_reflected_path(mp, GAMMA, A, B, cfg, 1)
    r2 = gf.simulate_reflected_path(mp, GAMMA, A, B, cfg, 1)
    assert np.array_equal(r1.fractions, r2.fractions)
    assert np.array_equal(r1.buy_volume, r2.buy_volume)


def test_reflected_suboptimal_band(mp, lim):
    A, B = lim.candidate.A, lim.candidate.B
    cfg = gf.SimConfig(horizon=50.0, dt=1e-3, n_paths=200, base_seed=17)
    opt = gf.estimate_growth_reflected(mp, GAMMA, A, B, cfg)
    sub = gf.estimate_growth_reflected(mp, GAMMA, A + 0.05, B + 0.05, cfg)
    combined = math.hypot(opt.std_error, sub.std_error)
    assert sub.mean_growth <= opt.mean_growth + 3 * combined


def test_transformed_drift_between_trades(mp, cp, sol):
    # pooled per-step increments of psi(h) between trades are an unbiased
    # sample of the constant transformed drift
    cfg = gf.SimConfig(horizon=100.0, dt=1e-2, n_paths=1, base_seed=13)
    incs = []
    for idx in range(10):
        rec = gf.simulate_impulse_path(mp, cp, sol.candidate, cfg, idx)
        y = gf.to_centered(np.clip(rec.fractions, 1e-12, 1 - 1e-12))
        dy = np.diff(y)
        dt = rec.times[1] - rec.times[0]
        trade_steps = {int(round(ev.time / dt)) - 1 for ev in rec.trade_events}
        keep = np.array([k not in trade_steps for k in range(dy.size)])
        incs.append(dy[keep])
    incs = np.concatenate(incs)
    assert incs.size >= 1e5 - 10 * len(trade_steps) - 100
    c = mp.mu - mp.r - 0.5 * mp.sigma**2
    rate = incs.mean() / 1e-2
    se_rate = incs.std(ddof=1) / math.sqrt(incs.size) / 1e-2
    assert abs(rate - c) <= 3 * se_rate


def test_coupling_rows_decrease(mp):
    cfg = gf.SimConfig(horizon=4.0, dt=1e-3, n_paths=32, base_seed=40)
    rows = gf.couple_paths(mp, GAMMA, [1e-2, 1e-3], cfg)
    assert rows[0].mean_sup_distance > rows[1].mean_sup_distance


def test_coupling_jump_lower_bound(mp):
    cfg = gf.SimConfig(horizon=4.0, dt=1e-3, n_paths=32, base_seed=40)
    rows = gf.couple_paths(mp, GAMMA, [1e-2], cfg)
    row = rows[0]
    jump = min(row.jump_low, row.jump_high)
    traded = row.trade_counts > 0
    assert traded.any()
    assert np.all(row.sup_distances[traded] >= 0.5 * jump)


def test_coupling_degenerate_zero(mp, lim):
    lo = gf.to_centered(lim.candidate.A)
    hi = gf.to_centered(lim.candidate.B)
    cfg = gf.SimConfig(horizon=2.0, dt=1e-3, n_paths=16, base_seed=55)
    sup, _ = gf.couple_at_boundaries(mp, (lo, lo, hi, hi), (lo, hi), cfg,
                                     0.5 * (lo + hi))
    assert np.all(sup == 0.0)


def test_couple_paths_checks_the_start_against_every_delta_region(mp, sol, lim, monkeypatch):
    # h0 = A lies in the reflected band [A, B] but below the a of this
    # delta's solution, so the run stops at the per-delta check unwalked
    A, B = lim.candidate.A, lim.candidate.B
    narrow = dataclasses.replace(sol, candidate=dataclasses.replace(sol.candidate,
                                                                   a=0.5 * (A + B)))

    def no_walk(*args, **kwargs):
        raise AssertionError("walked paths before checking h0 against every region")

    monkeypatch.setattr(qvi, "solve_boundaries", lambda *args, **kwargs: narrow)
    monkeypatch.setattr(simulate, "couple_at_boundaries", no_walk)
    cfg = gf.SimConfig(horizon=2.0, dt=1e-3, n_paths=4, base_seed=1, h0=A)
    with pytest.raises(ValueError, match=f"h0={A:g} outside the no-trade region at delta=0.01"):
        gf.couple_paths(mp, GAMMA, [1e-2], cfg)


def test_couple_paths_requires_decreasing_deltas(mp):
    cfg = gf.SimConfig(horizon=2.0, dt=1e-3, n_paths=4, base_seed=1)
    with pytest.raises(ValueError, match="decreasing"):
        gf.couple_paths(mp, GAMMA, [1e-3, 1e-2], cfg)


def test_impulse_trade_rate_matches_the_restart_chain(mp, cp, sol):
    # Monte Carlo trades per year against 1 / E[cycle] of the restart chain:
    # a cycle from the restart point y lasts m(y) on average and ends at the
    # upper edge, so that the next restart is beta, with probability p(y)
    c = sol.candidate
    drift = mp.mu - mp.r - 0.5 * mp.sigma ** 2
    lo, al, be, hi = (gf.to_centered(x) for x in (c.a, c.alpha, c.beta, c.b))
    p_al, p_be = (gf.exit_prob_up(drift, mp.sigma, lo, hi, y) for y in (al, be))
    m_al, m_be = (gf.expected_exit_time(drift, mp.sigma, lo, hi, y) for y in (al, be))
    pi_lo = (1.0 - p_be) / (1.0 - p_be + p_al)  # stationary share of restarts at alpha
    exact = 1.0 / (pi_lo * m_al + (1.0 - pi_lo) * m_be)
    cfg = gf.SimConfig(horizon=50.0, dt=1e-3, n_paths=400, base_seed=0, bridge_correction=True)
    band = simulate._walk(mp, cp, (c.a, c.alpha, c.beta, c.b), cfg, range(cfg.n_paths))
    rate = band.trades[0] / cfg.horizon
    assert abs(rate.mean() - exact) <= 3 * rate.std(ddof=1) / math.sqrt(cfg.n_paths)


@pytest.mark.parametrize("rule", ["impulse", "bridge", "reflected"])
def test_engine_batch_equals_singletons(rule, mp, cp, sol, lim):
    # the vectorised time loop gives the same numbers for a path whether it is
    # simulated alone or inside a batch
    cfg = gf.SimConfig(horizon=2.0, dt=1e-2, n_paths=3, base_seed=61,
                       bridge_correction=rule == "bridge")

    def growth(paths):
        if rule == "reflected":
            A, B = lim.candidate.A, lim.candidate.B
            return simulate._walk(mp, gf.CostParams(0.0, GAMMA), (A, A, B, B), cfg,
                                  paths).growth()
        c = sol.candidate
        return simulate._walk(mp, cp, (c.a, c.alpha, c.beta, c.b), cfg, paths).growth()

    batch_growth = growth(range(3))
    for i in range(3):
        assert growth([i])[0] == batch_growth[i]


@pytest.mark.parametrize("rule", ["impulse", "bridge", "reflected", "coupling"])
def test_chunked_walk_equals_paths_walked_alone(rule, mp, cp, sol, lim):
    # the paths at the edges of the path chunks give the same bits walked
    # alone; the coupling's two rows are walked in strided chunk views
    chunk = simulate._CHUNK
    cfg = gf.SimConfig(horizon=5.0, dt=1e-2, n_paths=2 * chunk + 3, base_seed=64,
                       bridge_correction=rule == "bridge")
    c, A, B = sol.candidate, lim.candidate.A, lim.candidate.B
    if rule == "coupling":
        rows = gf.to_centered(np.array([(c.a, c.alpha, c.beta, c.b), (A, A, B, B)]))
        walk = lambda paths: simulate._Band(mp, cfg, paths, rows,  # noqa: E731
                                            gf.to_centered(0.6)).run()
    elif rule == "reflected":
        walk = lambda paths: simulate._walk(  # noqa: E731
            mp, gf.CostParams(0.0, GAMMA), (A, A, B, B), cfg, paths)
    else:
        walk = lambda paths: simulate._walk(  # noqa: E731
            mp, cp, (c.a, c.alpha, c.beta, c.b), cfg, paths)
    batch = walk(range(cfg.n_paths))
    for i in (0, chunk - 1, chunk, 2 * chunk + 2):
        alone = walk([i])
        assert alone.trades[0, 0] > 0
        assert np.array_equal(alone.trades[:, 0], batch.trades[:, i])
        if rule == "coupling":
            assert np.array_equal(alone.sup[:, 0], batch.sup[:, i])
        else:
            assert alone.growth()[0] == batch.growth()[i]
            assert alone.trade_log[0, 0] == batch.trade_log[0, i]


def _records_equal(r1, r2):
    return all(np.array_equal(v1, v2) if isinstance(v1, np.ndarray) else v1 == v2
               for v1, v2 in zip(dataclasses.astuple(r1), dataclasses.astuple(r2)))


@pytest.mark.parametrize("rule", ["impulse", "bridge", "reflected", "coupling"])
def test_walk_does_not_depend_on_the_step_block(rule, mp, cp, sol, lim, monkeypatch):
    # 1,999 steps (a prime) walked in one block, in blocks of 12 to 33 steps
    # that do not divide them, and one step at a time give the same bits
    cfg = gf.SimConfig(horizon=19.99, dt=1e-2, n_paths=3, base_seed=29,
                       bridge_correction=rule == "bridge")
    c, A, B = sol.candidate, lim.candidate.A, lim.candidate.B
    if rule == "coupling":
        rows = gf.to_centered(np.array([(c.a, c.alpha, c.beta, c.b), (A, A, B, B)]))
        walk = lambda: simulate._Band(mp, cfg, range(3), rows, gf.to_centered(0.6)).run()  # noqa: E731
    elif rule == "reflected":
        walk = lambda: simulate._walk(  # noqa: E731
            mp, gf.CostParams(0.0, GAMMA), (A, A, B, B), cfg, range(3))
    else:
        walk = lambda: simulate._walk(mp, cp, (c.a, c.alpha, c.beta, c.b), cfg, range(3))  # noqa: E731
    whole = walk()
    assert whole.trades.sum() > 0
    for tile in (1000, 1):
        monkeypatch.setattr(simulate, "_TILE", tile)
        band = walk()
        assert np.array_equal(band.trades, whole.trades)
        if rule == "coupling":
            assert np.array_equal(band.sup, whole.sup)
        else:
            assert np.array_equal(band.growth(), whole.growth())
            assert np.array_equal(band.trade_log, whole.trade_log)
            assert _records_equal(band.first(), whole.first())


@pytest.mark.parametrize("rule", ["impulse", "reflected"])
def test_growth_estimate_reports_trade_rate_and_cost_drag(rule, mp, cp, sol, lim):
    cfg = gf.SimConfig(horizon=5.0, dt=1e-3, n_paths=1, base_seed=3)
    if rule == "impulse":
        est = gf.estimate_growth_impulse(mp, cp, sol.candidate, cfg)
    else:
        est = gf.estimate_growth_reflected(mp, GAMMA, lim.candidate.A, lim.candidate.B, cfg)
    rec = est.first_path
    assert len(rec.trade_events) > 0
    assert est.trades_per_year == len(rec.trade_events) / cfg.horizon
    assert est.cost_drag_per_year == -rec.trade_log_total / cfg.horizon


@pytest.mark.parametrize("rule", ["impulse", "bridge", "reflected"])
def test_band_walk_matches_holdings_reference(rule, mp, cp, sol, lim, monkeypatch):
    # the logit walk with the bond as numeraire gives the exact (X, Y)
    # holdings step with its monetary jump and projection, up to rounding,
    # over more than one draw block (3,000 steps in blocks of 420 to 1,092)
    monkeypatch.setattr(simulate, "_TILE", 64 << 10)
    cfg = gf.SimConfig(horizon=3.0, dt=1e-3, n_paths=6, base_seed=63, h0=0.6,
                       bridge_correction=rule == "bridge")
    if rule == "reflected":
        A, B = lim.candidate.A, lim.candidate.B
        band = simulate._walk(mp, gf.CostParams(0.0, GAMMA), (A, A, B, B), cfg, range(6))
        reference = holdings_growth(mp, cfg, range(6), reflect=(GAMMA, A, B))
    else:
        c = sol.candidate
        band = simulate._walk(mp, cp, (c.a, c.alpha, c.beta, c.b), cfg, range(6))
        reference = holdings_growth(mp, cfg, range(6), impulse=(cp, sol.candidate))
    assert band.trades.sum() > 0
    assert np.max(np.abs(band.growth() - reference)) <= 1e-12


def test_coupling_stack_equals_single_deltas(mp, monkeypatch):
    # given the same boundaries, the stacked walk gives each delta exactly
    # the numbers of a walk of that delta alone; the solve is pinned to its
    # cold start so that warm starting cannot move the boundaries
    solve, cold = qvi.solve_boundaries, {}

    def solve_cold(mp_, cp_, init=None):
        if cp_.delta not in cold:
            cold[cp_.delta] = solve(mp_, cp_)
        return cold[cp_.delta]

    monkeypatch.setattr(qvi, "solve_boundaries", solve_cold)
    cfg = gf.SimConfig(horizon=2.0, dt=1e-3, n_paths=16, base_seed=62)
    rows = gf.couple_paths(mp, GAMMA, [1e-2, 1e-3, 1e-4], cfg)
    assert sum(row.trade_counts.sum() for row in rows) > 0
    for row in rows:
        (alone,) = gf.couple_paths(mp, GAMMA, [row.delta], cfg)
        assert np.array_equal(row.sup_distances, alone.sup_distances)
        assert np.array_equal(row.trade_counts, alone.trade_counts)
        assert row.mean_sup_distance == alone.mean_sup_distance


TEN_DELTAS = (0.02, 0.01, 0.005, 0.002, 0.001, 5e-4, 2e-4, 1e-4, 5e-5, 2e-5)


def _assert_within_the_edge_gap(sup, bounds_y, lo, hi):
    """sup_t |Y_delta - Y| <= M_delta (1 + 1e-12) on every path, row by row."""
    bounds_y = np.atleast_2d(bounds_y)
    gap = np.max(np.abs(bounds_y - [lo, lo, hi, hi]), axis=1)
    assert np.all(sup <= gap[:, None] * (1.0 + 1e-12))


@pytest.mark.parametrize("params, gamma, deltas", [
    (dict(r=0.0, mu=0.096, sigma=0.4), GAMMA, TEN_DELTAS),     # fig2
    (dict(r=0.0, mu=0.040, sigma=0.4), 1e-2, TEN_DELTAS),      # hhat 0.25
    # hhat 0.9, where delta 0.02 has no interior optimum
    (dict(r=0.02, mu=0.101, sigma=0.3), 1e-3, TEN_DELTAS[1:]),
])
def test_coupled_paths_stay_within_the_largest_edge_gap(params, gamma, deltas):
    """With y the impulse logit under (a, alpha, beta, b) and z the reflected
    one under [A, B], both driven by the same increment dw from y = z,
    |y - z| <= M = max(|a-A|, |alpha-A|, |beta-B|, |b-B|) (all in logits)
    holds at every step.  Before the controls act, y' - z' = d, the previous
    gap, with |d| <= M; after them:
    - neither trades: d;
    - only z is clipped, at A (z' <= A, a < y'): y' - A, which is at most d
      and more than a - A; at B symmetrically;
    - only y jumps, low (y' <= a, A < z'): alpha - z', which is below
      alpha - A and at least alpha - a - M > -M, as z' <= a + M; high
      symmetrically;
    - both at the same side: alpha - A or beta - B;
    - y jumps low while z is clipped at B: alpha - B, at most beta - B and
      more than a - B >= y' - z' = d; the opposite sides symmetrically.
    Only a < alpha <= beta < b and A <= B are used, so the bound holds for
    any rows; the slack 1e-12 M covers the rounding of y + dw and z + dw."""
    mp = gf.MarketParams(**params)
    cfg = gf.SimConfig(horizon=2.0, dt=1e-3, n_paths=200, base_seed=9)
    table = gf.sweep_delta(mp, gamma, deltas)  # the boundaries couple_paths solves
    lo, hi = gf.to_centered(table.limit.candidate.A), gf.to_centered(table.limit.candidate.B)
    rows = gf.couple_paths(mp, gamma, deltas, cfg)
    bounds_y = [[gf.to_centered(v) for v in (r.a, r.alpha, r.beta, r.b)] for r in table.rows]
    _assert_within_the_edge_gap(np.array([row.sup_distances for row in rows]), bounds_y, lo, hi)


def test_coupled_random_rows_stay_within_the_largest_edge_gap(mp):
    # rows on either side of each reflected edge, with the start inside all
    rng = np.random.default_rng(20)
    cfg = gf.SimConfig(horizon=2.0, dt=1e-3, n_paths=200, base_seed=21)
    for _ in range(5):
        lo = rng.uniform(-2.0, 2.0)
        hi = lo + rng.uniform(1.2, 3.0)
        a_al = lo + np.sort(rng.uniform(-0.5, 0.5, (8, 2)), axis=1)
        be_b = hi + np.sort(rng.uniform(-0.5, 0.5, (8, 2)), axis=1)
        bounds_y = np.hstack([a_al, be_b])
        sup, _ = gf.couple_at_boundaries(mp, bounds_y, (lo, hi), cfg, 0.5 * (lo + hi))
        _assert_within_the_edge_gap(sup, bounds_y, lo, hi)
