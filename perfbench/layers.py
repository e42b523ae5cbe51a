"""Per-layer metrics: derived from the spans of a traced pass, and measured
by isolated probes of each layer on fixed reference inputs.

The layers are the package's modules: ``market``, ``_slope`` (reported as
``slope.*``, since a metric name starts with a letter), ``qvi``, ``limit``,
``lab``, ``simulate`` and ``cli``.  README.md maps each metric to the
end-to-end metric and workload it should move.
"""

from __future__ import annotations

import statistics
import sys
import time

import numpy as np

import growth_frictions as gf
from growth_frictions import lab, limit, market, qvi, simulate

import spans as sp
import workloads

REF_MP = gf.MarketParams(r=0.0, mu=0.096, sigma=0.4)
REF_CP = gf.CostParams(delta=1e-3, gamma=0.003)


# ----------------------------------------------------------- from spans

def pass_metrics(spans):
    """Counts and times of the solver layers during one traced pass."""
    newton = [s for s in spans if s[2] == "_slope.damped_newton"]
    runs = len(newton)
    converged = sum(1 for s in newton if s[5] is not None and s[5][1])
    own = sp.self_times(spans)
    solves = [s[0] for s in spans if s[2] == "qvi.solve_boundaries"]
    renewal = [s for s in spans if s[2] == "lab._renewal_batch"]
    return {
        "slope.newton_runs": (runs, "count"),
        "slope.newton_converged": (converged, "count"),
        "slope.newton_useful_ratio": (converged / runs if runs else 0.0, "ratio"),
        "slope.newton_iters": (sum(s[5][0] for s in newton if s[5] is not None), "count"),
        "slope.newton_self_s": (sum(own[s[0]] for s in newton), "s"),
        "qvi.residual_evals": (len(sp.durations(spans, "qvi.residual_system")), "count"),
        "qvi.residual_s": (sum(sp.durations(spans, "qvi.residual_system")), "s"),
        # solve_boundaries minus Newton and the limit solve; the renewal
        # search of its seeding is its own work and stays in
        "qvi.solve_self_s": (sum(own[i] for i in solves)
                             + sp.child_time(spans, solves, "lab._renewal_batch"), "s"),
        "limit.residual_evals": (len(sp.durations(spans, "limit.residual_system_limit")),
                                 "count"),
        "lab.renewal_candidates": (sum(s[5] for s in renewal if s[5] is not None), "count"),
    }


def cli_metrics(spans, bytes_written):
    """Self time and bytes written per subcommand, from a traced in-process
    CLI pass, plus the layer numbers only the CLI pass exercises."""
    own = sp.self_times(spans)
    out = {}
    for sub in workloads.SUBCOMMANDS:
        mains = [s for s in spans if s[2] == "cli.main" and s[5] is not None and s[5][0] == sub]
        out[f"cli.self_s.{sub}"] = (sum(own[s[0]] for s in mains), "s")
        out[f"cli.bytes_written.{sub}"] = (bytes_written.get(sub, 0), "bytes")
    out["lab.sweep_solves"] = (
        len(sp.durations(spans, "qvi.solve_boundaries", "lab.sweep_delta")), "count")
    boxes = {s[0] for s in spans if s[2] == "lab.brute_force_boundaries"}
    box_candidates = sum(s[5] for s in spans if s[2] == "lab._renewal_batch"
                         and s[1] in boxes and s[5] is not None)
    box_s = sum(spans[i][4] - spans[i][3] for i in boxes)
    out["lab.renewal_ns_per_candidate"] = (1e9 * box_s / box_candidates if box_candidates
                                           else 0.0, "ns")
    couple = "simulate.couple_paths"
    out["simulate.couple_solve_s"] = (
        sum(sp.durations(spans, "qvi.solve_boundaries", couple))
        + sum(sp.durations(spans, "limit.solve_limit", couple)), "s")
    out["simulate.couple_walk_s"] = (sum(sp.durations(spans, "simulate.couple_at_boundaries")),
                                     "s")
    return out


# ------------------------------------------------------------ isolated probes

def _median_seconds(fn, repeats, inner=1):
    """Median over ``repeats`` of the per-call time of ``inner`` calls."""
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        for _ in range(inner):
            fn()
        times.append((time.perf_counter() - t0) / inner)
    return statistics.median(times)


def _ns_per_path_step(estimate, n_paths, horizon, repeats=3, **extra):
    cfg = simulate.SimConfig(horizon=horizon, dt=1e-3, n_paths=n_paths, base_seed=1, **extra)
    return 1e9 * _median_seconds(lambda: estimate(cfg), repeats) / (n_paths * cfg.n_steps)


def probe_metrics():
    """Each layer on its own, on the reference market (r=0, mu=0.096,
    sigma=0.4, gamma=0.003, delta=1e-3)."""
    mp, cp = REF_MP, REF_CP
    sol = qvi.solve_boundaries(mp, cp)
    cand = sol.candidate
    vf = qvi.build_value(mp, cp, sol)
    lim = limit.solve_limit(mp, cp.gamma)
    out = {}

    out["market.scalar_call_us"] = (1e6 * _median_seconds(
        lambda: market.trade_cost_gamma(cp, 0.55, 0.6), 5, 2000), "us")
    x = np.linspace(0.01, 0.99, 1_000_000)
    y = x[::-1].copy()
    out["market.trade_cost_gamma_ns_per_elem"] = (1e9 * _median_seconds(
        lambda: market.trade_cost_gamma(cp, x, y), 5) / x.size, "ns")

    out["qvi.residual_us"] = (1e6 * _median_seconds(
        lambda: qvi.residual_system(mp, cp, cand), 5, 40), "us")
    for n, repeats in ((501, 5), (2001, 3), (4001, 3)):
        out[f"qvi.verify_s.n{n}"] = (_median_seconds(
            lambda: qvi.verify_qvi(mp, cp, vf, n), repeats), "s")
    # the dense gain matrix of verify_qvi is n x (n + 2) doubles (computed, not measured)
    out["qvi.verify_bytes_computed.n4001"] = (4001 * 4003 * 8, "bytes")

    out["limit.solve_s"] = (_median_seconds(lambda: limit.solve_limit(mp, cp.gamma), 5), "s")
    out["limit.verify_s.n2001"] = (_median_seconds(
        lambda: limit.verify_hjb_limit(mp, cp.gamma, lim, 2001), 5), "s")

    out["lab.renewal_single_us"] = (1e6 * _median_seconds(
        lambda: lab.evaluate_policy_renewal(mp, cp, cand), 5, 20), "us")

    draws = 4096
    gens = 200

    def philox():
        for i in range(gens):
            simulate.path_generator(1, i).standard_normal(draws)
    philox_ns = 1e9 * _median_seconds(philox, 5) / (gens * draws)
    out["simulate.philox_ns_per_sample"] = (philox_ns, "ns")
    impulse = lambda cfg: simulate.estimate_growth_impulse(mp, cp, cand, cfg)  # noqa: E731
    reflected = lambda cfg: simulate.estimate_growth_reflected(  # noqa: E731
        mp, cp.gamma, lim.candidate.A, lim.candidate.B, cfg)
    for n_paths, horizon in ((1, 2.0), (100, 2.0), (1000, 1.0)):
        out[f"simulate.impulse_ns_per_path_step.p{n_paths}"] = (
            _ns_per_path_step(impulse, n_paths, horizon), "ns")
        out[f"simulate.reflected_ns_per_path_step.p{n_paths}"] = (
            _ns_per_path_step(reflected, n_paths, horizon), "ns")
    out["simulate.bridge_ns_per_path_step.p1000"] = (
        _ns_per_path_step(impulse, 1000, 1.0, bridge_correction=True), "ns")
    out["simulate.over_philox.p1000"] = (
        out["simulate.impulse_ns_per_path_step.p1000"][0] / philox_ns, "ratio")

    out["cli.import_s"] = (statistics.median(workloads.fresh_process_seconds(
        [sys.executable, "-c", "import growth_frictions.cli"], 5)), "s")
    return out

