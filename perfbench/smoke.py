"""Quick self-check of the benchmark harness (about half a minute; it is not
named ``test_*.py`` so that the repository's pytest run does not collect it).

    python3 perfbench/smoke.py

It runs each workload at a tiny size, checks that the metric names match
BENCHMARK.json, that a traced run removes every wrapper it installed, that
exact counts repeat between two traced passes, that a missing trace target
is recorded as absent, and that the benchmark refuses to run without the
package sources.
"""

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import run

run.cap_threads()
sys.path.insert(0, str(run.ROOT / "src"))

import layers  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


class TinyDomain(workloads.SolveDomain):
    anchors = tuple(a for a in workloads.ANCHORS if a[0] in ("reference_delta1e-3", "knife_edge"))


class TinyCli(workloads.CliReference):
    subcommands = ("solve", "verify", "limit", "simulate", "reflect")


def expect(cond, what):
    if not cond:
        raise SystemExit(f"smoke: FAILED: {what}")
    print(f"smoke: ok: {what}")


def bindings():
    """Every (module, attribute) -> object that the tracer may patch."""
    names = {attr for _, attr, _ in spans.TARGETS}
    return {(mod.__name__, attr): value for mod in spans.package_modules()
            for attr, value in mod.__dict__.items() if attr in names}


def main():
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    e2e = {m["name"] for m in bench["end_to_end"]}
    per_layer = {m["name"] for m in bench["per_layer"]}
    expect({w["name"] for w in bench["workloads"]} == set(run.WORKLOADS),
           "BENCHMARK.json names the workloads run.py knows")

    run.OUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="smoke-", dir=run.OUT))
    try:
        for wl in (TinyDomain(), TinyCli()):
            metrics, results, _ = run.untraced(wl, 0, 0.0, work / wl.name, setup_repeats=1)
            expect(all(r[2] for r in results), f"{wl.name}: every tiny operation is correct")
            expect(set(metrics) == e2e, f"{wl.name}: end-to-end metric names match")

        before = bindings()
        metrics, results, _ = run.traced(TinyDomain(), 0, work / "traced",
                                         cli=TinyCli(in_process=True))
        expect(all(r[2] for r in results), "traced tiny run is correct")
        expect(set(metrics) == per_layer, "per-layer metric names match")
        expect(bindings() == before and not spans.wrapped_names(),
               "every wrapper is removed after a traced run")

        counts = []
        for k in range(2):
            wl = TinyCli(in_process=True)
            state = wl.prepare(0, work / f"repeat{k}")
            with spans.Tracer() as tracer:
                workloads.run_pass(wl.operations(state))
            got = layers.pass_metrics(tracer.spans)
            got.update(layers.cli_metrics(tracer.spans, state["bytes"]))
            counts.append({key: v for key, (v, unit) in got.items() if unit in ("count", "bytes")})
        expect(counts[0] == counts[1], f"exact counts repeat between traced passes: {counts[0]}")

        with spans.Tracer(spans.TARGETS + (("qvi", "no_such_entry", None),)) as tracer:
            pass
        expect(tracer.absent == ["qvi.no_such_entry"], "a missing target is recorded as absent")

        bare = work / "bare"
        shutil.copytree(run.HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "cli_reference",
                               "--seed", "0", "--seconds", "1", "--trace", "0"],
                              cwd=bare, capture_output=True, text=True, timeout=60)
        expect(proc.returncode != 0 and not proc.stdout.strip(),
               "without the package sources the benchmark fails and prints no result")
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    main()
