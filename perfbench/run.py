#!/usr/bin/env python3
"""Benchmark of the growth_frictions library and CLI.

    python3 perfbench/run.py --workload <solve_domain|cli_reference>
                             --seed N --seconds S --trace <0|1>

Run from the repository root; the package is imported from ``src/``.  The
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  With ``--trace 0`` the metrics
are the end-to-end metrics of BENCHMARK.json, measured untraced; with
``--trace 1`` they are the per-layer metrics, from a traced pass and
isolated layer probes.  A readable log goes to standard error, and a run
record (plus the spans of a traced run) to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = ("solve_domain", "cli_reference")
SETUP_REPEATS = 3  # set-up processes before the passes; one more follows each operation
MIN_OP_S = 1.0  # fast operations repeat within a pass until they have used this


def cap_threads():
    """No BLAS/OpenMP pool larger than the CPUs this process may use; set
    before numpy is imported, and inherited by child processes."""
    nproc = len(os.sched_getaffinity(0))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS"):
        try:
            current = int(os.environ.get(var, nproc))
        except ValueError:
            current = nproc
        os.environ[var] = str(max(1, min(current, nproc)))


def meta():
    import numpy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    sha = None
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                  capture_output=True, text=True, timeout=30)
            sha = proc.stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            pass
    # a checkout without .git is still identified by its sources
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.read_bytes())
    return {"git_sha": sha, "src_sha256": digest.hexdigest(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
            "omp_num_threads": os.environ.get("OMP_NUM_THREADS")}


def peak_rss_mb():
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def untraced(wl, seed, seconds, workdir, setup_repeats=SETUP_REPEATS):
    """End-to-end metrics from ``seconds // wl.pass_seconds`` passes (at
    least one).  Each operation's time is its fastest run in the run, and
    ``setup_s`` the fastest of the set-up processes, which are spread over
    the whole run: the machine's slow spells only ever add time, and the
    minimum is the steadiest figure under them (see README.md)."""
    import workloads

    setup_cmd = [sys.executable, str(HERE / "prepare.py"), wl.name, str(seed),
                 str(workdir / "setup")]
    setup = workloads.fresh_process_seconds(setup_cmd, setup_repeats)

    def sample_setup():
        setup.extend(workloads.fresh_process_seconds(setup_cmd, 1, warm=False))

    state = wl.prepare(seed, workdir)
    passes = max(1, int(seconds // wl.pass_seconds))
    results, pass_s = [], []
    for k in range(passes):
        print(f"{wl.name} pass {k + 1} of {passes}:", file=sys.stderr)
        t0 = time.perf_counter()
        results += workloads.run_pass(wl.operations(state), log=sys.stderr, min_op_s=MIN_OP_S,
                                      after_op=sample_setup)
        pass_s.append(time.perf_counter() - t0)
    best = {}
    for op, secs, _, _ in results:
        best[op] = min(secs, best.get(op, secs))
    times = list(best.values())
    ok = sum(1 for r in results if r[2])
    metrics = {
        "setup_s": (min(setup), "s"),
        "wall_s": (sum(times), "s"),
        "ok_frac": (ok / len(results), "ratio"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
        "op_geomean_s": (statistics.geometric_mean(times), "s"),
    }
    return metrics, results, {"passes": passes, "pass_s": pass_s, "setup_runs_s": setup,
                              "op_best_s": best}


def traced(wl, seed, workdir, cli=None):
    """Per-layer metrics: the workload's pass once untraced and once traced
    (set-up included), a traced in-process CLI pass (``cli``, the full
    cli_reference pass unless given; the workload's own pass when it is
    cli_reference), and the isolated layer probes."""
    import layers
    import spans
    import workloads

    state = wl.prepare(seed, workdir / "untraced")
    t0 = time.perf_counter()
    results = workloads.run_pass(wl.operations(state), log=sys.stderr)
    untraced_wall = time.perf_counter() - t0

    with spans.Tracer() as tracer:
        state = wl.prepare(seed, workdir / "traced")
        t0 = time.perf_counter()
        results += workloads.run_pass(wl.operations(state), log=sys.stderr)
        traced_wall = time.perf_counter() - t0
    pass_spans = tracer.spans

    if wl.name == "cli_reference":
        cli_spans, cli_state = pass_spans, state
    else:
        print("cli pass (traced):", file=sys.stderr)
        cli = cli or workloads.make("cli_reference", in_process=True)
        cli_state = cli.prepare(seed, workdir / "cli")
        with spans.Tracer() as cli_tracer:
            results += workloads.run_pass(cli.operations(cli_state), log=sys.stderr)
        cli_spans = cli_tracer.spans
    left = spans.wrapped_names()
    if left:
        raise RuntimeError(f"tracer wrappers left installed: {left}")

    metrics = layers.pass_metrics(pass_spans)
    metrics.update(layers.cli_metrics(cli_spans, cli_state["bytes"]))
    metrics.update(layers.probe_metrics())
    metrics["trace.overhead_frac"] = (traced_wall / untraced_wall - 1.0, "ratio")
    metrics["trace.absent_wrappers"] = (len(tracer.absent), "count")
    metrics["trace.spans"] = (len(pass_spans), "count")
    spans.write_csv(pass_spans, OUT / f"spans_{wl.name}_seed{seed}.csv")
    return metrics, results, {"untraced_wall_s": untraced_wall, "traced_wall_s": traced_wall,
                              "absent": tracer.absent}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "growth_frictions" / "__init__.py").is_file():
        print(f"perfbench: no growth_frictions package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    cap_threads()
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        if args.trace:
            wl = workloads.make(args.workload, in_process=True)
            metrics, results, extra = traced(wl, args.seed, workdir)
        else:
            wl = workloads.make(args.workload)
            metrics, results, extra = untraced(wl, args.seed, args.seconds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = sum(1 for r in results if not r[2])
    result = {"correct": failed == 0, "attempted": len(results), "failed": failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "meta": meta(), **extra, "result": result,
              "operations": [{"name": n, "seconds": s, "ok": ok, "detail": d}
                             for n, s, ok, d in results]}
    with open(OUT / f"run_{args.workload}_seed{args.seed}_trace{args.trace}.json", "w",
              encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    for key, (value, unit) in metrics.items():
        print(f"{key:45s} {value:.6g} {unit}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
