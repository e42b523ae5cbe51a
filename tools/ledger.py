"""Write the outcome ledger: one line per cold solve of the pinned markets.

    python tools/ledger.py [ROOT] > ledger.txt

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
limit), outcome and detail.  A root's outcome is its class at 2001 grid
points, as ``test_random_draws`` classifies it (verified, no grid point,
C2 only or failed), and its detail the repr of each candidate field, then
``newton_iters`` and ``residual_norm``; a failed solve's outcome is its
error's type (ParameterDegeneracy or NonConvergence) and its detail the
message.  The per-(set, solver, outcome) counts go to stderr.  A diff of
two ledgers lists every outcome, root or message that moved between the
two trees.
"""

import importlib
import itertools
import sys
from collections import Counter
from dataclasses import fields
from pathlib import Path

GRID_N = 2001


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
        mp = gf.MarketParams(r=0.0, mu=hhat * grid.SIGMA * grid.SIGMA, sigma=grid.SIGMA)
        yield "grid", i, "impulse", mp, gf.CostParams(delta=delta, gamma=gamma)
        yield "grid", i, "limit", mp, gamma
    for i, (hhat, gamma) in enumerate(
            itertools.product(grid.LOPSIDED_HHATS, grid.IMPULSE_GAMMAS)):
        yield "lopsided", i, "impulse", grid._market(hhat), gf.CostParams(delta=1e-3, gamma=gamma)
    for i, (hhat, gamma) in enumerate(
            itertools.product(grid.LOPSIDED_HHATS, grid.LIMIT_GAMMAS)):
        yield "lopsided", i, "limit", grid._market(hhat), gamma


def _impulse_class(gf, mp, cp, sol):
    report = gf.verify_qvi(mp, cp, gf.build_value(mp, cp, sol), GRID_N)
    if report.passed:
        return "verified"
    return "no grid point" if report.unresolved_band else "failed"


def _limit_class(gf, mp, gamma, sol):
    report = gf.verify_hjb_limit(mp, gamma, sol, GRID_N)
    if report.passed:
        return "verified"
    if report.unresolved_band:
        return "no grid point"
    value = gf.build_limit_value(mp, gamma, sol)
    if (report.second_deriv_mismatch > gf.limit.SECOND_ORDER_TOL
            and gf.verify_qvi(mp, gf.CostParams(0.0, gamma), value, GRID_N).passed):
        return "C2 only"
    return "failed"


def record(gf, solver, mp, costs):
    """(outcome, detail) of one cold solve."""
    solve, classify = ((gf.solve_boundaries, _impulse_class) if solver == "impulse"
                       else (gf.solve_limit, _limit_class))
    try:
        sol = solve(mp, costs)
    except (gf.ParameterDegeneracy, gf.NonConvergence) as err:
        return type(err).__name__, str(err)
    c = sol.candidate
    values = " ".join(f"{f.name}={getattr(c, f.name)!r}" for f in fields(c))
    return (classify(gf, mp, costs, sol),
            f"{values} newton_iters={sol.newton_iters} residual_norm={sol.residual_norm!r}")


def main(argv) -> None:
    root = Path(argv[1]) if len(argv) > 1 else Path(__file__).resolve().parent.parent
    sys.path[:0] = [str(root / "src"), str(root / "tests")]
    gf = importlib.import_module("growth_frictions")

    counts = Counter()
    for name, i, solver, mp, costs in markets(gf):
        outcome, detail = record(gf, solver, mp, costs)
        counts[name, solver, outcome] += 1
        print(f"{name}\t{i}\t{solver}\t{outcome}\t{detail}")
    for (name, solver, outcome), n in sorted(counts.items()):
        print(f"{name:<9}{solver:<8}{outcome:<20}{n:>5}", file=sys.stderr)


if __name__ == "__main__":
    main(sys.argv)
