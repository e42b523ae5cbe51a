"""Command-line front end: config parsing, subcommands, CSV and plot-script
emission.

Config files are flat ``key = value`` text; blank lines and ``#`` comments
are ignored, parse errors name the offending line, unknown keys are hard
errors, and command-line flags override file values.  Every CSV gets a
header row and 17-significant-digit floats, so identical (config, seed)
pairs reproduce byte-identical artifacts.  Plot scripts are emitted as
standalone text referencing the CSVs by relative path; nothing here renders
images.
"""

from __future__ import annotations

import os
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import lab, limit, qvi, simulate
from ._slope import NonConvergence, ParameterDegeneracy
from .market import CostParams, MarketParams, ParameterError, check_deltas

DEFAULT_SWEEP_DELTAS = (1e-2, 3e-3, 1e-3, 3e-4, 1e-4, 1e-5, 1e-6)
DEFAULT_COUPLE_DELTAS = (1e-2, 1e-3, 1e-4)


class ConfigError(ValueError):
    pass


def _fmt(x) -> str:
    if isinstance(x, (bool, np.bool_)):
        return "1" if x else "0"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return format(float(x), ".17g")


def _parse_bool(s: str) -> bool:
    v = s.strip().lower()
    if v in ("1", "true", "yes", "on"):
        return True
    if v in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"expected a boolean, got {s!r}")


def _parse_deltas(s: str) -> tuple:
    """The comma-separated delta grid, checked as at gamma = 0."""
    return tuple(check_deltas([float(tok) for tok in s.split(",") if tok.strip()], 0.0))


def _checked(caster, ok, rule: str):
    """A caster that also rejects values failing ok(value), naming the rule."""
    def cast(raw: str):
        value = caster(raw)
        if not ok(value):
            raise ValueError(f"{rule}, got {value}")
        return value
    return cast


# key -> (caster, default); the walk keys take SimConfig's defaults, and any
# other None default means "must be supplied where used" (seed's is GF_SEED's)
_KEYS = {
    "r": (float, None),
    "mu": (float, None),
    "sigma": (float, None),
    "delta": (float, None),
    "gamma": (float, None),
    "deltas": (_parse_deltas, None),
    # the verifiers hold about 130 B per grid point: 10**7 points is 1.3 GB
    "grid_n": (_checked(int, lambda n: 100 <= n <= 10**7, "grid_n must lie in [100, 10000000]"),
               2001),
    "tol": (_checked(float, lambda v: 0 < v < np.inf, "tol must be positive and finite"), 1e-6),
    "horizon": (float, 200.0),
    "dt": (float, 1e-3),
    "v0": (float, simulate.SimConfig.v0),
    "h0": (float, simulate.SimConfig.h0),
    "n_paths": (int, simulate.SimConfig.n_paths),
    "seed": (_checked(int, lambda n: 0 <= n < 2**64, "seed must lie in [0, 2**64)"), None),
    "bridge_correction": (_parse_bool, simulate.SimConfig.bridge_correction),
    "dump_paths": (_parse_bool, False),
    # the four boundaries, each searched over +-radius, fit in order inside
    # (0, 1) only if radius < 1/6; the box around the solution is checked later
    "radius": (_checked(float, lambda v: 0 <= v < 1 / 6, "radius must lie in [0, 1/6)"), 0.02),
    "step": (_checked(float, lambda v: 0 < v < np.inf, "step must be positive and finite"),
             2e-3),
    "solution": (str, None),
}


def _cast(key: str, raw: str, where: str):
    """raw read by key's caster; a bad value is a ConfigError naming where."""
    try:
        return _KEYS[key][0](raw)
    except ValueError as err:
        raise ConfigError(f"{where}: bad value for '{key}': {err}") from None


@dataclass(frozen=True)
class RunConfig:
    values: dict
    out_dir: Path

    def get(self, key: str):
        return self.values[key]

    def require(self, key: str):
        v = self.values[key]
        if v is None:
            raise ConfigError(f"missing key '{key}' (set it in the config file or pass --{key})")
        return v

    def market(self) -> MarketParams:
        return MarketParams(r=self.require("r"), mu=self.require("mu"),
                            sigma=self.require("sigma"))

    def costs(self) -> CostParams:
        return CostParams(delta=self.require("delta"), gamma=self.require("gamma"))

    def seed(self) -> int:
        v = self.values["seed"]
        return _cast("seed", os.getenv("GF_SEED", "0"), "environment GF_SEED") if v is None else v

    def sim(self) -> simulate.SimConfig:
        return simulate.SimConfig(
            horizon=self.get("horizon"), dt=self.get("dt"), v0=self.get("v0"),
            h0=self.get("h0"), n_paths=self.get("n_paths"),
            base_seed=self.seed(), bridge_correction=self.get("bridge_correction"),
        )


def parse_config(path: str | None = None, overrides: dict | None = None,
                 out_dir: str = ".") -> RunConfig:
    """Merge file values and flag overrides into a RunConfig.

    Flags win over file values; unknown keys and malformed lines are hard
    errors naming the location.
    """
    values = {key: default for key, (_, default) in _KEYS.items()}

    def assign(key: str, raw: str, where: str):
        if key not in _KEYS:
            raise ConfigError(f"{where}: unknown key '{key}'")
        values[key] = _cast(key, raw, where)

    if path is not None:
        try:
            text = Path(path).read_text(encoding="utf-8")
        except OSError as err:
            raise ConfigError(f"cannot read config file {path}: {err}") from None
        for lineno, line in enumerate(text.splitlines(), start=1):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            if "=" not in stripped:
                raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
            key, _, raw = stripped.partition("=")
            assign(key.strip(), raw.strip(), f"{path}:{lineno}")
    for key, raw in (overrides or {}).items():
        assign(key, raw, f"flag --{key}")
    return RunConfig(values=values, out_dir=Path(out_dir))


def _write(out_dir: Path, name: str, text) -> Path:
    """Write text, a string or an iterable of string chunks, to out_dir/name."""
    out_dir.mkdir(parents=True, exist_ok=True)
    target = out_dir / name
    with open(target, "w", encoding="utf-8") as fh:
        fh.writelines([text] if isinstance(text, str) else text)
    return target


def _csv_table(header: str, rows) -> str:
    """CSV text: the header line, then one line per row of values; strings
    pass through and numbers are formatted by _fmt."""
    lines = [header]
    lines.extend(",".join(v if isinstance(v, str) else _fmt(v) for v in row) for row in rows)
    return "\n".join(lines) + "\n"


SOLUTION_COLUMNS = ("r", "mu", "sigma", "delta", "gamma", "l", "x0", "a", "alpha",
                    "beta", "b", "residual_norm", "newton_iters", "original_cost_optimal")


def solution_csv(mp: MarketParams, cp: CostParams, sol: qvi.BoundarySolution) -> str:
    c = sol.candidate
    return _csv_table(",".join(SOLUTION_COLUMNS), [(
        mp.r, mp.mu, mp.sigma, cp.delta, cp.gamma, c.l, c.x0, c.a, c.alpha,
        c.beta, c.b, sol.residual_norm, sol.newton_iters, sol.original_cost_optimal)])


def read_solution_csv(path: str):
    try:
        lines = Path(path).read_text(encoding="utf-8").strip().splitlines()
    except OSError as err:
        raise ConfigError(f"cannot read solution file {path}: {err}") from None
    try:
        header, row = (line.split(",") for line in lines)  # and no other line
        if tuple(header) != SOLUTION_COLUMNS or len(row) != len(SOLUTION_COLUMNS):
            raise ValueError
        fields = [float(c) for c in row[:12]]
        if not np.isfinite(fields).all():
            raise ValueError
        r, mu, sigma, delta, gamma, l, x0, a, al, be, b, norm = fields
        iters, optimal = int(row[12]), ("0", "1").index(row[13]) == 1
    except ValueError:
        raise ConfigError(f"{path}: not a boundary solution file") from None
    cand = qvi.BoundaryCandidate(l=l, x0=x0, a=a, alpha=al, beta=be, b=b)
    return (MarketParams(r=r, mu=mu, sigma=sigma), CostParams(delta=delta, gamma=gamma),
            qvi.BoundarySolution(candidate=cand, residual_norm=norm, newton_iters=iters,
                                 original_cost_optimal=optimal))


def limit_csv(mp: MarketParams, gamma: float, sol: limit.LimitSolution) -> str:
    c = sol.candidate
    return _csv_table("r,mu,sigma,gamma,l0,x0,A,B,residual_norm,newton_iters", [(
        mp.r, mp.mu, mp.sigma, gamma, c.l0, c.x0, c.A, c.B, sol.residual_norm,
        sol.newton_iters)])


def growth_csv(est: simulate.GrowthEstimate) -> str:
    return _csv_table("mean_growth,std_error,n_paths,horizon,dt", [
        (est.mean_growth, est.std_error, est.n_paths, est.horizon, est.dt)])


def sweep_csv(table: lab.SweepTable) -> str:
    rows = [(row.delta, row.a, row.alpha, row.beta, row.b, row.l, row.rho,
             row.gap_lo, row.gap_hi, row.dist_A, row.dist_B) for row in table.rows]
    c = table.limit.candidate
    rows.append((0.0, c.A, "", "", c.B, c.l0, table.market.r + c.l0, 0.0, 0.0, 0.0, 0.0))
    return _csv_table("delta,a,alpha,beta,b,l,rho,gap_lo,gap_hi,dist_A,dist_B", rows)


def coupling_csv(rows) -> str:
    return _csv_table("delta,mean_sup_distance,n_paths",
                      [(row.delta, row.mean_sup_distance, row.n_paths) for row in rows])


def oracle_csv(result: lab.BruteForceResult):
    """grid.csv as text chunks: the header, then one chunk per (a, alpha)
    pair whose rows run over (beta, b) in C order, so that a large box is
    never held as one string.

    Each axis value is formatted once with "%.17g", as a row would format
    it (-0.0 and nan print as they do there); only growth is formatted per
    row."""
    yield "a,alpha,beta,b,growth\n"
    a, al, be, b = (["%.17g" % v for v in axis.tolist()] for axis in result.axes)
    rows = [f"{y},{z},%.17g\n" for y in be for z in b]
    for x, growth in zip(a, result.growth):
        for w, block in zip(al, growth):
            head = f"{x},{w},"
            yield (head + head.join(rows)) % tuple(block.ravel().tolist())


def paths_csv(rec: simulate.PathRecord, kind: str) -> str:
    """paths.csv of one recorded path; a trade's event names the band edge
    the path left: <kind>_lo when it bought up to its target, else <kind>_hi."""
    events = {int(round(ev.time / (rec.times[1] - rec.times[0]))):
              f"{kind}_lo" if ev.target > ev.pre_fraction else f"{kind}_hi"
              for ev in rec.trade_events}
    return _csv_table("t,h,V,event", (
        (t, h, v, events.get(k, ""))
        for k, (t, h, v) in enumerate(zip(rec.times, rec.fractions, rec.wealths))))


SWEEP_PLOT = """\
#!/usr/bin/env python3
\"\"\"Plot the delta sweep: boundaries and growth rate against delta.\"\"\"
import csv
import matplotlib.pyplot as plt

rows = list(csv.DictReader(open("sweep.csv")))
lim = rows[-1]
rows = rows[:-1]
delta = [float(r["delta"]) for r in rows]
fig, (ax1, ax2) = plt.subplots(1, 2, figsize=(10, 4))
for col in ("a", "alpha", "beta", "b"):
    ax1.semilogx(delta, [float(r[col]) for r in rows], marker="o", label=col)
ax1.axhline(float(lim["a"]), color="k", lw=0.8, ls="--", label="A (limit)")
ax1.axhline(float(lim["b"]), color="k", lw=0.8, ls=":", label="B (limit)")
ax1.set_xlabel("delta"); ax1.set_ylabel("boundary"); ax1.legend(fontsize=8)
ax2.semilogx(delta, [float(r["rho"]) for r in rows], marker="o", label="rho(delta)")
ax2.axhline(float(lim["rho"]), color="k", lw=0.8, ls="--", label="r + l0")
ax2.set_xlabel("delta"); ax2.set_ylabel("growth rate"); ax2.legend(fontsize=8)
fig.tight_layout()
fig.savefig("sweep.png", dpi=150)
print("wrote sweep.png")
"""

COUPLING_PLOT = """\
#!/usr/bin/env python3
\"\"\"Plot mean sup-distance between coupled impulse and reflected paths.\"\"\"
import csv
import matplotlib.pyplot as plt

rows = list(csv.DictReader(open("coupling.csv")))
delta = [float(r["delta"]) for r in rows]
dist = [float(r["mean_sup_distance"]) for r in rows]
fig, ax = plt.subplots(figsize=(5, 4))
ax.loglog(delta, dist, marker="o")
ax.set_xlabel("delta"); ax.set_ylabel("mean sup distance")
fig.tight_layout()
fig.savefig("coupling.png", dpi=150)
print("wrote coupling.png")
"""


def _verdict(ok: bool, failure: str) -> int:
    """Exit status of a subcommand whose final check passed (ok) or failed;
    a failure is named by one ERROR line."""
    if not ok:
        print(f"ERROR: {failure}", file=sys.stderr)
    return 0 if ok else 1


def _cmd_solve(cfg: RunConfig) -> int:
    mp, cp = cfg.market(), cfg.costs()
    sol = qvi.solve_boundaries(mp, cp)
    vf = qvi.build_value(mp, cp, sol)
    report = qvi.verify_qvi(mp, cp, vf, cfg.get("grid_n"), tol=cfg.get("tol"))
    _write(cfg.out_dir, "solution.csv", solution_csv(mp, cp, sol))
    _write(cfg.out_dir, "qvi_report.txt", report.summary() + "\n")
    print(f"solved: l={sol.candidate.l:.12g} residual={sol.residual_norm:.3e} "
          f"rho={mp.r + sol.candidate.l:.12g}")
    print(report.summary())
    return _verdict(report.passed, "qvi_violation")


def _cmd_limit(cfg: RunConfig) -> int:
    mp = cfg.market()
    gamma = cfg.require("gamma")
    sol = limit.solve_limit(mp, gamma)
    report = limit.verify_hjb_limit(mp, gamma, sol, cfg.get("grid_n"), tol=cfg.get("tol"))
    _write(cfg.out_dir, "limit.csv", limit_csv(mp, gamma, sol))
    _write(cfg.out_dir, "hjb_report.txt", report.summary() + "\n")
    print(f"limit model: l0={sol.candidate.l0:.12g} A={sol.candidate.A:.8f} "
          f"B={sol.candidate.B:.8f}")
    print(report.summary())
    return _verdict(report.passed, "hjb_violation")


def _cmd_sweep(cfg: RunConfig) -> int:
    mp = cfg.market()
    gamma = cfg.require("gamma")
    deltas = cfg.get("deltas") or DEFAULT_SWEEP_DELTAS
    if len(deltas) < lab.REPORT_MIN_ROWS:
        raise ConfigError(f"sweep needs at least {lab.REPORT_MIN_ROWS} deltas for its "
                          f"convergence report, got {len(deltas)}")
    try:
        table = lab.sweep_delta(mp, gamma, deltas)
    except NonConvergence as err:
        partial = getattr(err, "partial", None)
        if partial is not None and partial.rows:
            _write(cfg.out_dir, "sweep.csv", sweep_csv(partial))
        raise
    report = lab.convergence_report(table)
    _write(cfg.out_dir, "sweep.csv", sweep_csv(table))
    _write(cfg.out_dir, "convergence_report.txt", report.text() + "\n")
    _write(cfg.out_dir, "convergence_report.csv", _csv_table("metric,value", [
        ("slope_gap_lo", report.slope_gap_lo), ("slope_gap_hi", report.slope_gap_hi),
        ("slope_l_gap", report.slope_l_gap), ("limit_rho", report.limit_rho),
        ("n_flags", len(report.flags))]))
    _write(cfg.out_dir, "plot_sweep.py", SWEEP_PLOT)
    print(report.text())
    return _verdict(not report.flags, "monotonicity_violation")


def _report_walk(cfg: RunConfig, est: simulate.GrowthEstimate, walk: str, source: str,
                 rho: float, event: str) -> int:
    """simulate's and reflect's tail: growth.csv, paths.csv of path 0 (trades
    named <event>_lo or <event>_hi) when dump_paths is set, and one growth line."""
    _write(cfg.out_dir, "growth.csv", growth_csv(est))
    if cfg.get("dump_paths"):
        _write(cfg.out_dir, "paths.csv", paths_csv(est.first_path, event))
    print(f"{walk} growth: {est.mean_growth:.8f} +- {est.std_error:.2e} "
          f"({source} rho {rho:.8f})")
    return 0


def _cmd_simulate(cfg: RunConfig) -> int:
    mp, cp = cfg.market(), cfg.costs()
    sim = cfg.sim()
    c = qvi.solve_boundaries(mp, cp).candidate
    est = simulate.estimate_growth_impulse(mp, cp, c, sim)
    return _report_walk(cfg, est, "impulse", "solver", mp.r + c.l, "trade")


def _cmd_reflect(cfg: RunConfig) -> int:
    mp = cfg.market()
    gamma = cfg.require("gamma")
    sim = cfg.sim()
    c = limit.solve_limit(mp, gamma).candidate
    est = simulate.estimate_growth_reflected(mp, gamma, c.A, c.B, sim)
    return _report_walk(cfg, est, "reflected", "limit", mp.r + c.l0, "reflect")


def _cmd_couple(cfg: RunConfig) -> int:
    mp = cfg.market()
    gamma = cfg.require("gamma")
    deltas = cfg.get("deltas") or DEFAULT_COUPLE_DELTAS
    rows = simulate.couple_paths(mp, gamma, deltas, cfg.sim())
    _write(cfg.out_dir, "coupling.csv", coupling_csv(rows))
    _write(cfg.out_dir, "plot_coupling.py", COUPLING_PLOT)
    for row in rows:
        print(f"delta={row.delta:g}: mean sup distance {row.mean_sup_distance:.6f}")
    decreasing = all(r2.mean_sup_distance < r1.mean_sup_distance
                     for r1, r2 in zip(rows, rows[1:]))
    return _verdict(decreasing, "coupling_not_decreasing")


def _cmd_oracle(cfg: RunConfig) -> int:
    mp, cp = cfg.market(), cfg.costs()
    sol = qvi.solve_boundaries(mp, cp)
    result = lab.brute_force_boundaries(mp, cp, sol.candidate,
                                        radius=cfg.get("radius"), step=cfg.get("step"))
    _write(cfg.out_dir, "grid.csv", oracle_csv(result))
    best = result.best
    step = cfg.get("step")
    print(f"brute-force argmax: a={best.a:.6f} alpha={best.alpha:.6f} "
          f"beta={best.beta:.6f} b={best.b:.6f} growth={result.best_value:.12g}")
    within = all(abs(u - v) <= step * (1 + 1e-9) for u, v in (
        (best.a, sol.candidate.a), (best.alpha, sol.candidate.alpha),
        (best.beta, sol.candidate.beta), (best.b, sol.candidate.b)))
    return _verdict(within, "oracle_mismatch")


def _cmd_verify(cfg: RunConfig) -> int:
    mp, cp, sol = read_solution_csv(cfg.require("solution"))
    try:
        res_norm = float(np.max(np.abs(qvi.residual_system(mp, cp, sol.candidate))))
        if not res_norm <= qvi.RESIDUAL_TOL:
            raise ParameterError(f"stored candidate has residual norm {res_norm:.3e}")
        vf = qvi.build_value(mp, cp, sol)
        report = qvi.verify_qvi(mp, cp, vf, cfg.get("grid_n"), tol=cfg.get("tol"))
    except (ParameterError, ParameterDegeneracy, ValueError) as err:
        return _verdict(False, f"qvi_violation: {err}")
    print(report.summary())
    if report.passed:
        print(f"verified: residual_norm={res_norm:.3e}")
    return _verdict(report.passed, "qvi_violation")


_COMMANDS = {
    "solve": _cmd_solve,
    "limit": _cmd_limit,
    "sweep": _cmd_sweep,
    "simulate": _cmd_simulate,
    "reflect": _cmd_reflect,
    "couple": _cmd_couple,
    "oracle": _cmd_oracle,
    "verify": _cmd_verify,
}


# failure -> ERROR tag, first match wins, so the named ValueErrors come
# before the bare one: a ValueError the model does not name (a ConfigError,
# an h0 outside a no-trade region, an oracle box leaving (0, 1)) is input
# the library rejected before any expensive work
_FAILURES = (
    (ParameterError, "invariant_violation"),
    (ParameterDegeneracy, "invariant_violation"),
    (NonConvergence, "non_convergence"),
    (lab.DegenerateChain, "degenerate_chain"),
    (simulate.NumericalBlowup, "numerical_blowup"),
    (MemoryError, "out_of_memory"),
    (ValueError, "config"),
)


def _parse_argv(argv: list) -> tuple:
    """(subcommand, config path, output directory, flag overrides) of argv: a
    subcommand, then flags --key value or --key=value.  A value may start with
    '-', as a negative number does, but not with '--'; the keys are checked
    by parse_config, so any bad word is one ConfigError."""
    if not argv or argv[0] not in _COMMANDS:
        raise ConfigError(f"expected a subcommand first, one of {', '.join(_COMMANDS)}")
    flags, words = {}, iter(argv[1:])
    for word in words:
        key, eq, value = word[2:].partition("=")
        if not (word.startswith("--") and key):
            raise ConfigError(f"unexpected argument {word!r}: flags are --key value")
        if not eq and (value := next(words, "--")).startswith("--"):
            raise ConfigError(f"flag --{key} expects a value")
        flags[key] = value
    return argv[0], flags.pop("config", None), flags.pop("out", "."), flags


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    if "-h" in argv or "--help" in argv:
        print(f"usage: growth-frictions <{'|'.join(_COMMANDS)}> --config FILE "
              f"[--key value ...] --out DIR\nkeys: {', '.join(_KEYS)}")
        return 0
    try:
        command, config, out_dir, overrides = _parse_argv(argv)
        cfg = parse_config(config, overrides, out_dir=out_dir)
        status = _COMMANDS[command](cfg)
        sys.stdout.flush()  # a closed pipe fails here, not at interpreter exit
        return status
    except BrokenPipeError:
        # the reader left: point stdout at devnull so the exit flush is quiet
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        print("ERROR: broken_pipe", file=sys.stderr)
        return 1
    except tuple(kind for kind, _ in _FAILURES) as err:
        tag = next(tag for kind, tag in _FAILURES if isinstance(err, kind))
        print(f"ERROR: {tag}: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
