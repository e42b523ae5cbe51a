"""Write the outcome ledger: one line per cold solve of the pinned markets,
then one line per artifact of the fig2 CLI runs.

    python tools/ledger.py [ROOT] > ledger.txt
    python tools/ledger.py --against REV

ROOT is the repository to run (default: the one holding this script).  Its
package is imported from ROOT/src and its markets from ROOT/tests, so the
ledger and the tests that pin these outcomes cannot drift apart:

- anchors: the seven benchmark anchors, ``newton_reference.ANCHORS``;
- interior, edges: the seeded draws, ``test_random_draws.DRAWS``;
- grid: the 84-point grid of ``test_domain_grid``, both solvers at every
  (hhat, gamma, delta), so each limit market appears once per delta;
- lopsided: the lopsided grids of ``test_domain_grid``, the limit on
  LOPSIDED_HHATS x LIMIT_GAMMAS and the impulse on LOPSIDED_HHATS x
  IMPULSE_GAMMAS at delta 1e-3, each numbered on its own.

Each record is one tab-separated line: set, index, solver (impulse or
limit), outcome and detail.  The outcome rule is the draw gauges' own,
``test_random_draws.impulse_outcome`` and ``limit_outcome`` at 2001 grid
points: a root's outcome is its class (verified, no grid point, C2 only or
failed) and its detail the repr of each candidate field, then
``newton_iters`` and ``residual_norm``, then each numeric field of the report
it was classified by and, for an impulse root, its renewal growth
(``lab.evaluate_policy_renewal``); a failed solve's outcome is its error's
type (ParameterDegeneracy or NonConvergence) and its detail the message.
The per-(set, solver, outcome) counts go to stderr.

The CLI section follows: the fig2 runs of CLI_RUNS, on ``test_cli.FIG2``,
each called in process with its own output directory inside one temporary
directory.  Each line is ``cli``, the run's index, its subcommand, an
artifact (each file it wrote, then stdout, stderr and exit) and the
artifact's sha256, or the exit code.

``--against REV`` writes the ledger of this tree and that of REV, each by
its own tree's script (REV checked out with ``git worktree add --detach`` in
a temporary directory, removed on every exit), and prints only the moved
records: a ``-`` line with REV's record and a ``+`` line with this tree's,
per record whose line differs or that one side lacks.  It ends with one
stderr line, ``moved: N of M records``, M counting the records of either
side, so ``--against HEAD`` on a clean tree prints no record and
``moved: 0 of M records``.
"""

import contextlib
import hashlib
import importlib
import io
import itertools
import subprocess
import sys
import tempfile
from collections import Counter
from dataclasses import fields
from pathlib import Path

GRID_N = 2001
# each run's words before --config and --out; {work} is the directory that
# holds the config and each run's output directory, named by its index
CLI_RUNS = (
    ("solve",),
    ("verify", "--grid_n", "4001", "--solution", "{work}/0/solution.csv"),
    ("limit",),
    ("sweep",),
    ("oracle",),
    ("simulate", "--horizon", "10", "--seed", "3", "--dump_paths", "1"),
    ("reflect", "--horizon", "10", "--seed", "3", "--dump_paths", "1"),
    ("couple", "--horizon", "10", "--seed", "3"),
    ("couple", "--horizon", "2", "--seed", "3", "--deltas",
     "0.02,0.01,0.005,0.002,0.001,0.0005,0.0002,0.0001,0.00005,0.00002"),
)


def markets(gf):
    """(set, index, solver, market, costs) of every record: costs is the
    CostParams of an impulse solve and gamma for a limit solve."""
    anchors, draws, grid = (importlib.import_module(name) for name in
                            ("newton_reference", "test_random_draws", "test_domain_grid"))
    for i, (r, mu, sigma, gamma, delta) in enumerate(anchors.ANCHORS):
        mp = gf.MarketParams(r=r, mu=mu, sigma=sigma)
        yield "anchors", i, "impulse", mp, gf.CostParams(delta=delta, gamma=gamma)
        yield "anchors", i, "limit", mp, gamma
    for name, points in draws.DRAWS.items():
        for i, (hhat, gamma, delta) in enumerate(points):
            mp = draws._market(hhat)
            yield name, i, "impulse", mp, gf.CostParams(delta=delta, gamma=gamma)
            yield name, i, "limit", mp, gamma
    for i, (hhat, gamma, delta) in enumerate(
            itertools.product(grid.HHATS, grid.GAMMAS, grid.DELTAS)):
        mp = grid._grid_market(hhat)
        yield "grid", i, "impulse", mp, gf.CostParams(delta=delta, gamma=gamma)
        yield "grid", i, "limit", mp, gamma
    for i, (hhat, gamma) in enumerate(
            itertools.product(grid.LOPSIDED_HHATS, grid.IMPULSE_GAMMAS)):
        yield "lopsided", i, "impulse", grid._market(hhat), gf.CostParams(delta=1e-3, gamma=gamma)
    for i, (hhat, gamma) in enumerate(
            itertools.product(grid.LOPSIDED_HHATS, grid.LIMIT_GAMMAS)):
        yield "lopsided", i, "limit", grid._market(hhat), gamma


def record(solver, mp, costs):
    """(outcome, detail) of one cold solve."""
    draws = importlib.import_module("test_random_draws")
    classify = draws.impulse_outcome if solver == "impulse" else draws.limit_outcome
    outcome, found, report = classify(mp, costs, GRID_N)
    if report is None:
        return type(found).__name__, str(found)
    c = found.candidate
    values = [f"{f.name}={getattr(c, f.name)!r}" for f in fields(c)]
    values += [f"newton_iters={found.newton_iters}", f"residual_norm={found.residual_norm!r}"]
    values += [f"{f.name}={getattr(report, f.name)!r}" for f in fields(report)
               if type(getattr(report, f.name)) in (int, float)]
    if solver == "impulse":
        lab = importlib.import_module("growth_frictions.lab")
        values.append(f"renewal={lab.evaluate_policy_renewal(mp, costs, c)!r}")
    return outcome, " ".join(values)


def cli_records(runs, work):
    """(index, subcommand, artifact, sha256 or exit code) of each run, called
    in process on test_cli.FIG2 in the directory work."""
    cli = importlib.import_module("growth_frictions.cli")
    config = work / "fig2.conf"
    config.write_text(importlib.import_module("test_cli").FIG2, encoding="utf-8")
    for i, (command, *words) in enumerate(runs):
        out, stdout, stderr = work / str(i), io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = cli.main([command, *(word.format(work=work) for word in words),
                             "--config", str(config), "--out", str(out)])
        for path in sorted(path for path in out.rglob("*") if path.is_file()):
            yield i, command, path.relative_to(out).as_posix(), _sha256(path.read_bytes())
        yield i, command, "stdout", _sha256(stdout.getvalue().encode())
        yield i, command, "stderr", _sha256(stderr.getvalue().encode())
        yield i, command, "exit", code


def _sha256(data):
    return hashlib.sha256(data).hexdigest()


def _key(line):
    """A record's name: its set, index and solver, or for a cli line its
    index, subcommand and artifact."""
    words = line.split("\t")
    return tuple(words[:4 if words[0] == "cli" else 3])


def moved(old, new):
    """The lines of the records that moved between two ledgers (lists of
    lines, a record named by ``_key``): for each record whose line differs
    or that one side lacks, in new's order and then old's, ``- `` and old's
    line, then ``+ `` and new's line, each where that side holds it."""
    before, after = ({_key(line): line for line in lines} for lines in (old, new))
    for key in dict.fromkeys([*after, *before]):
        if before.get(key) != after.get(key):
            yield from ([f"- {before[key]}"] if key in before else [])
            yield from ([f"+ {after[key]}"] if key in after else [])


def tally(old, new):
    """The closing line of ``--against``: how many records ``moved`` prints,
    of all the records named on either side."""
    n = len({_key(line[2:]) for line in moved(old, new)})
    return f"moved: {n} of {len({_key(line) for line in [*old, *new]})} records"


def _ledger(script):
    """The lines of one tree's ledger, written by that tree's script."""
    run = subprocess.run([sys.executable, str(script)], capture_output=True, text=True)
    if run.returncode:
        raise SystemExit(f"{script} exited with {run.returncode}:\n{run.stderr}")
    return run.stdout.splitlines()


def against(rev):
    """(rev's ledger, this tree's ledger), rev checked out in a temporary
    git worktree that is removed on every exit."""
    here = Path(__file__).resolve()
    root = here.parent.parent
    git = ["git", "-C", str(root)]
    with tempfile.TemporaryDirectory() as work:
        tree = Path(work) / "tree"
        subprocess.run([*git, "worktree", "add", "--quiet", "--detach", str(tree), rev],
                       check=True)
        try:
            old = _ledger(tree / here.relative_to(root))
        finally:
            subprocess.run([*git, "worktree", "remove", "--force", str(tree)], check=True)
    return old, _ledger(here)


def main(argv) -> None:
    if argv[1:2] == ["--against"]:
        old, new = against(argv[2])
        for line in moved(old, new):
            print(line)
        print(tally(old, new), file=sys.stderr)
        return
    root = Path(argv[1]) if len(argv) > 1 else Path(__file__).resolve().parent.parent
    sys.path[:0] = [str(root / "src"), str(root / "tests")]
    gf = importlib.import_module("growth_frictions")

    counts = Counter()
    for name, i, solver, mp, costs in markets(gf):
        outcome, detail = record(solver, mp, costs)
        counts[name, solver, outcome] += 1
        print(f"{name}\t{i}\t{solver}\t{outcome}\t{detail}")
    with tempfile.TemporaryDirectory() as work:
        for i, command, artifact, value in cli_records(CLI_RUNS, Path(work)):
            print(f"cli\t{i}\t{command}\t{artifact}\t{value}")
    for (name, solver, outcome), n in sorted(counts.items()):
        print(f"{name:<9}{solver:<8}{outcome:<20}{n:>5}", file=sys.stderr)


if __name__ == "__main__":
    main(sys.argv)
