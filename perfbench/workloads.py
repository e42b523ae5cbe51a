"""The benchmark workloads and the correctness check of each operation.

Every workload is a closed loop with one caller: an operation starts only
after the previous one has finished.  ``prepare(seed, workdir)`` builds the
inputs from the seed (untimed set-up) and ``operations(state)`` returns the
timed operations of one pass as ``(name, fn)`` pairs; ``fn()`` returns
``(ok, detail)``.  An exception raised by an operation counts as a failure.
``pass_seconds`` is the median wall time of one pass, repeats and set-up
samples included, on the machine the benchmark was sized on (2 vCPU Xeon);
it sets how many passes a run of a given length makes, so that the number
of samples does not depend on the machine's speed.

- ``solve_domain``: cold solves with no warm start at seven anchors of the
  parameter domain, each taken to a verified (or, for the infeasible
  anchor, rejected) outcome.
- ``cli_reference``: each CLI subcommand on the README ``fig2.conf``, as a
  fresh ``python -m growth_frictions.cli`` process (or in-process through
  ``cli.main`` for the traced run).
"""

from __future__ import annotations

import contextlib
import io
import math
import os
import random
import shutil
import subprocess
import sys
import threading
import time
from pathlib import Path

import growth_frictions as gf
from growth_frictions import cli, lab, limit, qvi

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# ------------------------------------------------------------ solve_domain

# name, r, mu, sigma, gamma, delta, feasible
ANCHORS = (
    ("reference_delta1e-3", 0.0, 0.096, 0.4, 0.003, 1e-3, True),
    ("reference_delta1e-6", 0.0, 0.096, 0.4, 0.003, 1e-6, True),
    ("hhat0.25", 0.0, 0.040, 0.4, 0.003, 1e-3, True),
    ("hhat0.9", 0.01, 0.154, 0.4, 0.003, 1e-3, True),
    ("knife_edge", 0.02, 0.1, 0.4, 0.02, 1e-2, True),
    ("heavy_costs", 0.03, 0.09, 0.3, 0.05, 5e-3, True),
    ("infeasible", 0.0, 0.144, 0.4, 0.05, 1e-2, False),
)
VERIFY_N = 501
RENEWAL_TOL = 1e-8


def _solve_point(mp, cp, feasible):
    """Cold solve, QVI check, renewal agreement and the limit's HJB check;
    an infeasible point must be rejected instead."""
    try:
        sol = qvi.solve_boundaries(mp, cp)
    except (gf.NonConvergence, gf.ParameterDegeneracy) as err:
        return (not feasible), f"rejected: {type(err).__name__}"
    if not feasible:
        return False, "infeasible point returned a solution"
    problems = []
    if not sol.residual_norm <= qvi.RESIDUAL_TOL:
        problems.append(f"residual {sol.residual_norm:.3e}")
    vf = qvi.build_value(mp, cp, sol)
    if not qvi.verify_qvi(mp, cp, vf, VERIFY_N).passed:
        problems.append("verify_qvi failed")
    renewal = lab.evaluate_policy_renewal(mp, cp, sol.candidate)
    if not abs(renewal - (mp.r + sol.candidate.l)) <= RENEWAL_TOL:
        problems.append(f"renewal gap {abs(renewal - mp.r - sol.candidate.l):.3e}")
    lim = limit.solve_limit(mp, cp.gamma)
    if not limit.verify_hjb_limit(mp, cp.gamma, lim, VERIFY_N).passed:
        problems.append("verify_hjb_limit failed")
    return not problems, "; ".join(problems) or "verified"


class SolveDomain:
    name = "solve_domain"
    pass_seconds = 50.0
    anchors = ANCHORS

    def prepare(self, seed, workdir):
        """The anchors are fixed (a 1 % change of mu moves a solve's cost by up
        to 27x, see README.md); the seed sets their order."""
        points = [(name, gf.MarketParams(r=r, mu=mu, sigma=sigma),
                   gf.CostParams(delta=delta, gamma=gamma), feasible)
                  for name, r, mu, sigma, gamma, delta, feasible in self.anchors]
        random.Random(seed).shuffle(points)
        return points

    def operations(self, points):
        return [(name, lambda mp=mp, cp=cp, ok=feasible: _solve_point(mp, cp, ok))
                for name, mp, cp, feasible in points]


# ----------------------------------------------------------- cli_reference

FIG2_CONF = """\
r = 0.0
mu = 0.096
sigma = 0.4
gamma = 0.003
delta = 0.001
"""
CLI_HORIZON = "10"
CLI_VERIFY_N = "4001"
# The Monte Carlo estimates are checked on every seed the benchmark runs
# with, about eighty independent checks in a cycle of forty runs.  The
# acceptance tests' 3-SE band, made for one fixed seed, would fail such a
# cycle by chance about one time in five; 4 SE makes it about one in 200.
MC_Z = 4.0
# subcommand -> {output file: header row} (the README CSV schemas)
CLI_OUTPUTS = {
    "solve": {"solution.csv": "r,mu,sigma,delta,gamma,l,x0,a,alpha,beta,b,"
                              "residual_norm,newton_iters,original_cost_optimal",
              "qvi_report.txt": None},
    "verify": {},
    "limit": {"limit.csv": "r,mu,sigma,gamma,l0,x0,A,B,residual_norm,newton_iters",
              "hjb_report.txt": None},
    "sweep": {"sweep.csv": "delta,a,alpha,beta,b,l,rho,gap_lo,gap_hi,dist_A,dist_B",
              "convergence_report.csv": None, "convergence_report.txt": None,
              "plot_sweep.py": None},
    "simulate": {"growth.csv": "mean_growth,std_error,n_paths,horizon,dt"},
    "reflect": {"growth.csv": "mean_growth,std_error,n_paths,horizon,dt"},
    "couple": {"coupling.csv": "delta,mean_sup_distance,n_paths", "plot_coupling.py": None},
    "oracle": {"grid.csv": "a,alpha,beta,b,growth"},
}
SUBCOMMANDS = tuple(CLI_OUTPUTS)


def child_env():
    """Environment for child processes: the package from ``src``.  The
    BLAS/OpenMP thread caps that run.py sets are inherited."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    return env


CHILD_TIMEOUT_S = 170


def run_child(cmd, env, cwd=None):
    """Run ``cmd`` to completion; returns (exit status, stdout, seconds).

    It waits without polling: ``subprocess.run`` with a timeout polls the
    child at up to 50 ms intervals, which quantises the measured time.  A
    child that outlives CHILD_TIMEOUT_S is killed instead.
    """
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, env=env, cwd=cwd, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True) as proc:
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            stdout, _ = proc.communicate()
        finally:
            timer.cancel()
    return proc.returncode, stdout, time.perf_counter() - t0


def fresh_process_seconds(cmd, repeats, warm=True):
    """Wall times of ``repeats`` fresh processes running ``cmd``, after one
    untimed run that warms the bytecode cache (unless ``warm`` is false)."""
    env = child_env()
    times = []
    for k in range(repeats + warm):
        rc, _, seconds = run_child(cmd, env)
        if rc != 0:
            raise RuntimeError(f"{' '.join(cmd)} exited with {rc}")
        if k >= warm:
            times.append(seconds)
    return times


def cli_argv(sub, conf, out, seed, solution):
    argv = [sub, "--config", str(conf), "--out", str(out)]
    if sub in ("simulate", "reflect", "couple"):
        argv += ["--horizon", CLI_HORIZON, "--seed", str(seed)]
    if sub == "verify":
        argv += ["--solution", str(solution), "--grid_n", CLI_VERIFY_N]
    return argv


def _check_outputs(sub, out, rc, stdout):
    if rc != 0:
        return False, f"exit {rc}"
    for fname, header in CLI_OUTPUTS[sub].items():
        path = out / fname
        if not path.is_file():
            return False, f"missing {fname}"
        if header is not None:
            with open(path, encoding="utf-8") as fh:
                first = fh.readline().rstrip("\n")
            if first != header:
                return False, f"{fname} header {first!r}"
    if sub == "verify" and "verified:" not in stdout:
        return False, "no 'verified:' line"
    if sub in ("simulate", "reflect"):
        return _check_growth(sub, out)
    return True, "exit 0"


def _csv_row(path):
    with open(path, encoding="utf-8") as fh:
        header, row = fh.readline().strip().split(","), fh.readline().strip().split(",")
    return dict(zip(header, map(float, row)))


def _check_growth(sub, out):
    """The Monte Carlo growth must match the solver's r + l (``simulate``)
    or the limit's r + l0 plus the tests' discretisation allowance
    10 sqrt(dt) sigma gamma (``reflect``), as written earlier in the pass."""
    est = _csv_row(out / "growth.csv")
    if sub == "simulate":
        ref = _csv_row(out.parent / "solve" / "solution.csv")
        rho, allowance = ref["r"] + ref["l"], 0.0
    else:
        ref = _csv_row(out.parent / "limit" / "limit.csv")
        rho = ref["r"] + ref["l0"]
        allowance = 10.0 * math.sqrt(est["dt"]) * ref["sigma"] * ref["gamma"]
    gap = abs(est["mean_growth"] - rho)
    band = MC_Z * est["std_error"] + allowance
    return gap <= band, f"growth gap {gap:.3e} vs {band:.3e}"


def _dir_bytes(path):
    return sum(p.stat().st_size for p in path.iterdir() if p.is_file()) if path.is_dir() else 0


class CliReference:
    name = "cli_reference"
    pass_seconds = 20.0
    subcommands = SUBCOMMANDS

    def __init__(self, in_process=False):
        self.in_process = in_process

    def prepare(self, seed, workdir):
        Path(workdir).mkdir(parents=True, exist_ok=True)
        conf = Path(workdir) / "fig2.conf"
        conf.write_text(FIG2_CONF, encoding="utf-8")
        return {"conf": conf, "seed": seed, "workdir": Path(workdir), "passes": 0,
                "bytes": {}, "env": child_env()}

    def operations(self, state):
        # one output directory per pass; the previous pass's outputs (the
        # oracle grid is about 20 MB) are removed first
        old = state["workdir"] / f"pass{state['passes']}"
        if old.is_dir():
            shutil.rmtree(old)
        state["passes"] += 1
        base = state["workdir"] / f"pass{state['passes']}"
        solution = base / "solve" / "solution.csv"
        return [(sub, lambda sub=sub: self._run(state, sub, base / sub, solution))
                for sub in self.subcommands]

    def _run(self, state, sub, out, solution):
        argv = cli_argv(sub, state["conf"], out, state["seed"], solution)
        if self.in_process:
            sink = io.StringIO()
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(io.StringIO()):
                rc = cli.main(argv)
            stdout = sink.getvalue()
        else:
            rc, stdout, _ = run_child([sys.executable, "-m", "growth_frictions.cli", *argv],
                                      state["env"], cwd=state["workdir"])
        state["bytes"][sub] = _dir_bytes(out)
        return _check_outputs(sub, out, rc, stdout)


WORKLOADS = {w.name: w for w in (SolveDomain, CliReference)}


def make(name, in_process=False):
    cls = WORKLOADS[name]
    return cls(in_process=in_process) if cls is CliReference else cls()


# ----------------------------------------------------------------- running

def run_pass(ops, log=None, min_op_s=0.0, after_op=None):
    """Run one pass: every operation at least once, in order, and until it
    has used ``min_op_s`` seconds.  The repeats are spread over the pass, so
    that a fast operation's best time does not hang on one moment of the
    machine: after each operation, every operation run so far that is
    still short of ``min_op_s`` runs once more, and then ``after_op()``, if
    given, runs untimed.  Returns one (name, seconds, ok, detail) per run of
    an operation."""
    results = []
    spent = {}

    def run(name, fn):
        t0 = time.perf_counter()
        try:
            ok, detail = fn()
        except Exception as err:  # any exception is a failed operation
            ok, detail = False, f"{type(err).__name__}: {err}"
        seconds = time.perf_counter() - t0
        results.append((name, seconds, bool(ok), detail))
        if log is not None:
            print(f"  {name}: {seconds:.3f} s {'ok' if ok else 'FAILED'} ({detail})", file=log)
        spent[name] = spent.get(name, 0.0) + seconds

    for k, (name, fn) in enumerate(ops):
        run(name, fn)
        for earlier, earlier_fn in ops[:k + 1]:
            if spent[earlier] < min_op_s:
                run(earlier, earlier_fn)
        if after_op is not None:
            after_op()
    while short := [(name, fn) for name, fn in ops if spent[name] < min_op_s]:
        for name, fn in short:
            run(name, fn)
    return results
