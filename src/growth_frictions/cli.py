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

import argparse
import os
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import lab, limit, qvi, simulate
from ._slope import NonConvergence, ParameterDegeneracy
from .market import CostParams, MarketParams, ParameterError

DEFAULT_SWEEP_DELTAS = (1e-2, 3e-3, 1e-3, 3e-4, 1e-4, 1e-5, 1e-6)
DEFAULT_COUPLE_DELTAS = (1e-2, 1e-3, 1e-4)
# grid.csv rows per written chunk: the oracle box never exists as one string
_CSV_ROWS = 4096
SUBCOMMANDS = ("solve", "limit", "sweep", "simulate", "reflect", "couple", "oracle", "verify")


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
    deltas = tuple(float(tok) for tok in s.split(",") if tok.strip())
    if any(d <= 0 for d in deltas) or any(d2 >= d1 for d1, d2 in zip(deltas, deltas[1:])):
        raise ValueError("deltas must be positive and sorted in decreasing order")
    return deltas


def _checked(caster, ok, rule: str):
    """A caster that also rejects values failing ok(value), naming the rule."""
    def cast(raw: str):
        value = caster(raw)
        if not ok(value):
            raise ValueError(f"{rule}, got {value}")
        return value
    return cast


# key -> (caster, default); None defaults mean "must be supplied where used"
_KEYS = {
    "r": (float, None),
    "mu": (float, None),
    "sigma": (float, None),
    "delta": (float, None),
    "gamma": (float, None),
    "deltas": (_parse_deltas, None),
    "grid_n": (_checked(int, lambda n: n >= 100, "grid_n must be at least 100"), 2001),
    "tol": (float, 1e-6),
    "horizon": (float, 200.0),
    "dt": (float, 1e-3),
    "v0": (float, 1.0),
    "h0": (float, None),
    "n_paths": (int, 1000),
    "seed": (int, None),
    "bridge_correction": (_parse_bool, False),
    "dump_paths": (_parse_bool, False),
    # the four boundaries, each searched over +-radius, fit in order inside
    # (0, 1) only if radius < 1/6; the box around the solution is checked later
    "radius": (_checked(float, lambda v: 0 <= v < 1 / 6, "radius must lie in [0, 1/6)"), 0.02),
    "step": (_checked(float, lambda v: 0 < v < np.inf, "step must be positive and finite"),
             2e-3),
    "solution": (str, None),
}


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
        if v is None:
            v = int(os.environ.get("GF_SEED", "0"))
        return v

    def sim(self) -> simulate.SimConfig:
        try:
            return simulate.SimConfig(
                horizon=self.get("horizon"), dt=self.get("dt"), v0=self.get("v0"),
                h0=self.get("h0"), n_paths=self.get("n_paths"),
                base_seed=self.seed(), bridge_correction=self.get("bridge_correction"),
            )
        except ValueError as err:
            raise ConfigError(str(err)) from None


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
        caster = _KEYS[key][0]
        try:
            values[key] = caster(raw)
        except ValueError as err:
            raise ConfigError(f"{where}: bad value for '{key}': {err}") from None

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
        header, row = (line.split(",") for line in lines[:2])
        if tuple(header) != SOLUTION_COLUMNS or len(row) != len(SOLUTION_COLUMNS):
            raise ValueError
        r, mu, sigma, delta, gamma, l, x0, a, al, be, b, norm = map(float, row[:12])
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
    """grid.csv as text chunks of _CSV_ROWS rows each, so that a large box
    is never held as one string.

    A box repeats few coordinate values, so a chunk formats each distinct
    one once, keyed by its float64 bits (-0.0 and nan payloads stay exact);
    only the growth column is formatted per row."""
    yield "a,alpha,beta,b,growth\n"
    values = result.values
    for k in range(0, len(values), _CSV_ROWS):
        chunk = values[k:k + _CSV_ROWS]
        bits, code = np.unique(np.ascontiguousarray(chunk[:, :4]).view(np.uint64),
                               return_inverse=True)
        text = ["%.17g" % v for v in bits.view(np.float64).tolist()]
        rows = zip(code.reshape(-1, 4).tolist(), chunk[:, 4].tolist())
        yield "".join("%s,%s,%s,%s,%.17g\n" % (text[i], text[j], text[m], text[n], g)
                      for (i, j, m, n), g in rows)


def impulse_paths_csv(rec: simulate.PathRecord) -> str:
    events = {int(round(ev.time / (rec.times[1] - rec.times[0]))):
              ("trade_lo" if ev.target < ev.pre_fraction else "trade_hi")
              for ev in rec.trade_events}
    return _csv_table("t,h,V,event", (
        (t, h, v, events.get(k, ""))
        for k, (t, h, v) in enumerate(zip(rec.times, rec.fractions, rec.wealths))))


def reflected_paths_csv(rec: simulate.ReflectedRecord) -> str:
    dl = np.diff(rec.buy_volume, prepend=0.0)
    dm = np.diff(rec.sell_volume, prepend=0.0)
    return _csv_table("t,h,V,event", (
        (t, h, v, "reflect_lo" if dl[k] > 0 else ("reflect_hi" if dm[k] > 0 else ""))
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
    if not report.passed:
        print("ERROR: qvi_violation", file=sys.stderr)
        return 1
    return 0


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
    if not report.passed:
        print("ERROR: hjb_violation", file=sys.stderr)
        return 1
    return 0


def _checked_call(entry, *args):
    """Call a library entry point whose own ValueError rejects its input
    before any expensive work (a start fraction h0 outside a no-trade
    region, a delta at or above 1 - gamma), which is a config error; the
    solver's named errors pass through."""
    try:
        return entry(*args)
    except (ParameterError, ParameterDegeneracy):
        raise
    except ValueError as err:
        raise ConfigError(str(err)) from None


def _cmd_sweep(cfg: RunConfig) -> int:
    mp = cfg.market()
    gamma = cfg.require("gamma")
    deltas = cfg.get("deltas") or DEFAULT_SWEEP_DELTAS
    if len(deltas) < lab.REPORT_MIN_ROWS:
        raise ConfigError(f"sweep needs at least {lab.REPORT_MIN_ROWS} deltas for its "
                          f"convergence report, got {len(deltas)}")
    try:
        table = _checked_call(lab.sweep_delta, mp, gamma, deltas)
    except NonConvergence as err:
        partial = getattr(err, "partial", None)
        if partial is not None and partial.rows:
            _write(cfg.out_dir, "sweep.csv", sweep_csv(partial))
        print(f"ERROR: non_convergence: {err}", file=sys.stderr)
        return 1
    report = lab.convergence_report(table)
    _write(cfg.out_dir, "sweep.csv", sweep_csv(table))
    _write(cfg.out_dir, "convergence_report.txt", report.text() + "\n")
    _write(cfg.out_dir, "convergence_report.csv", report.csv_text())
    _write(cfg.out_dir, "plot_sweep.py", SWEEP_PLOT)
    print(report.text())
    if report.flags:
        print("ERROR: monotonicity_violation", file=sys.stderr)
        return 1
    return 0


def _cmd_simulate(cfg: RunConfig) -> int:
    mp, cp = cfg.market(), cfg.costs()
    sim = cfg.sim()
    sol = qvi.solve_boundaries(mp, cp)
    est = _checked_call(simulate.estimate_growth_impulse, mp, cp, sol.candidate, sim)
    _write(cfg.out_dir, "growth.csv", growth_csv(est))
    if cfg.get("dump_paths"):
        _write(cfg.out_dir, "paths.csv", impulse_paths_csv(est.first_path))
    rho = mp.r + sol.candidate.l
    print(f"impulse growth: {est.mean_growth:.8f} +- {est.std_error:.2e} "
          f"(solver rho {rho:.8f})")
    return 0


def _cmd_reflect(cfg: RunConfig) -> int:
    mp = cfg.market()
    gamma = cfg.require("gamma")
    sim = cfg.sim()
    sol = limit.solve_limit(mp, gamma)
    A, B = sol.candidate.A, sol.candidate.B
    est = _checked_call(simulate.estimate_growth_reflected, mp, gamma, A, B, sim)
    _write(cfg.out_dir, "growth.csv", growth_csv(est))
    if cfg.get("dump_paths"):
        _write(cfg.out_dir, "paths.csv", reflected_paths_csv(est.first_path))
    rho = mp.r + sol.candidate.l0
    print(f"reflected growth: {est.mean_growth:.8f} +- {est.std_error:.2e} "
          f"(limit rho {rho:.8f})")
    return 0


def _cmd_couple(cfg: RunConfig) -> int:
    mp = cfg.market()
    gamma = cfg.require("gamma")
    deltas = cfg.get("deltas") or DEFAULT_COUPLE_DELTAS
    rows = _checked_call(simulate.couple_paths, mp, gamma, deltas, cfg.sim())
    _write(cfg.out_dir, "coupling.csv", coupling_csv(rows))
    _write(cfg.out_dir, "plot_coupling.py", COUPLING_PLOT)
    for row in rows:
        print(f"delta={row.delta:g}: mean sup distance {row.mean_sup_distance:.6f}")
    decreasing = all(r2.mean_sup_distance < r1.mean_sup_distance
                     for r1, r2 in zip(rows, rows[1:]))
    if not decreasing:
        print("ERROR: coupling_not_decreasing", file=sys.stderr)
        return 1
    return 0


def _cmd_oracle(cfg: RunConfig) -> int:
    mp, cp = cfg.market(), cfg.costs()
    sol = qvi.solve_boundaries(mp, cp)
    try:
        result = lab.brute_force_boundaries(mp, cp, sol.candidate,
                                            radius=cfg.get("radius"), step=cfg.get("step"))
    except ValueError as err:
        raise ConfigError(f"oracle box around the solution: {err}") from None
    _write(cfg.out_dir, "grid.csv", oracle_csv(result))
    best = result.best
    step = cfg.get("step")
    print(f"brute-force argmax: a={best.a:.6f} alpha={best.alpha:.6f} "
          f"beta={best.beta:.6f} b={best.b:.6f} growth={result.best_value:.12g}")
    within = all(abs(u - v) <= step * (1 + 1e-9) for u, v in (
        (best.a, sol.candidate.a), (best.alpha, sol.candidate.alpha),
        (best.beta, sol.candidate.beta), (best.b, sol.candidate.b)))
    if not within:
        print("ERROR: oracle_mismatch", file=sys.stderr)
        return 1
    return 0


def _cmd_verify(cfg: RunConfig) -> int:
    path = cfg.require("solution")
    try:
        mp, cp, sol = read_solution_csv(path)
        res_norm = float(np.max(np.abs(qvi.residual_system(mp, cp, sol.candidate))))
        if res_norm > qvi.RESIDUAL_TOL:
            raise ParameterError(f"stored candidate has residual norm {res_norm:.3e}")
        vf = qvi.build_value(mp, cp, sol)
        report = qvi.verify_qvi(mp, cp, vf, cfg.get("grid_n"), tol=cfg.get("tol"))
    except ConfigError:
        raise
    except (ParameterError, ParameterDegeneracy, ValueError) as err:
        print(f"ERROR: qvi_violation: {err}", file=sys.stderr)
        return 1
    print(report.summary())
    if not report.passed:
        print("ERROR: qvi_violation", file=sys.stderr)
        return 1
    print(f"verified: residual_norm={res_norm:.3e}")
    return 0


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


def run(subcommand: str, cfg: RunConfig) -> int:
    """Dispatch a subcommand; returns the process exit status."""
    if subcommand not in _COMMANDS:
        raise ConfigError(f"unknown subcommand '{subcommand}'")
    return _COMMANDS[subcommand](cfg)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="growth-frictions",
        description="Constant-boundary trading strategies under fixed plus "
                    "proportional transaction costs",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name in SUBCOMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", default=None, help="flat key = value file")
        p.add_argument("--out", default=".", help="output directory")
        for key in _KEYS:
            p.add_argument(f"--{key}", default=None, dest=f"key_{key}")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    overrides = {key: getattr(args, f"key_{key}")
                 for key in _KEYS if getattr(args, f"key_{key}") is not None}
    try:
        cfg = parse_config(args.config, overrides, out_dir=args.out)
        status = run(args.subcommand, cfg)
        sys.stdout.flush()  # a closed pipe fails here, not at interpreter exit
        return status
    except BrokenPipeError:
        # the reader left: point stdout at devnull so the exit flush is quiet
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        print("ERROR: broken_pipe", file=sys.stderr)
        return 1
    except ConfigError as err:
        print(f"ERROR: config: {err}", file=sys.stderr)
        return 1
    except (ParameterError, ParameterDegeneracy) as err:
        print(f"ERROR: invariant_violation: {err}", file=sys.stderr)
        return 1
    except NonConvergence as err:
        print(f"ERROR: non_convergence: {err}", file=sys.stderr)
        return 1
    except lab.DegenerateChain as err:
        print(f"ERROR: degenerate_chain: {err}", file=sys.stderr)
        return 1
    except simulate.NumericalBlowup as err:
        print(f"ERROR: numerical_blowup: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
