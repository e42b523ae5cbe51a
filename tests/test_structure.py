"""Structure of the solver core: an acyclic import graph with every import at
module level, one Newton start loop shared by both solvers, and quadrature
rules built on first use."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import growth_frictions as gf
from growth_frictions import _slope, qvi

PACKAGE = Path(gf.__file__).parent
GAMMA = 0.003


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_import_inside_a_function(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    deferred = [f"{fn.name}:{node.lineno}"
                for fn in ast.walk(tree)
                if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
                for node in ast.walk(fn)
                if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert deferred == []


def test_import_builds_no_gauss_legendre_rule():
    # each rule is built on first use; a fresh import builds none
    probe = ("import numpy.polynomial.legendre as leg\n"
             "built = []\n"
             "leggauss = leg.leggauss\n"
             "leg.leggauss = lambda n: built.append(n) or leggauss(n)\n"
             "import growth_frictions.cli\n"
             "from growth_frictions import _policy\n"
             "assert built == [] and _policy._gauss_legendre.cache_info().currsize == 0, built\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (str(PACKAGE.parent), os.environ.get("PYTHONPATH")))))
    subprocess.run([sys.executable, "-c", probe], env=env, check=True, timeout=60)


@pytest.mark.parametrize("solver", ["boundaries", "limit"])
def test_every_start_failing_is_one_non_convergence(solver, mp, cp, sol, lim, monkeypatch):
    stops = []

    def stalled(residual, v0, *, tol):
        stops.append(tol)
        return np.asarray(v0), 0, 1.0

    monkeypatch.setattr(_slope, "damped_newton", stalled)
    if solver == "boundaries":
        # two warm starts, so the failure is the impulse loop's own
        monkeypatch.setattr(qvi, "_starts", lambda mp, cp, init: iter([init, init]))
        solve = lambda: gf.solve_boundaries(mp, cp, init=sol.candidate)
        stop = _slope.RESIDUAL_TOL
    else:
        solve = lambda: gf.solve_limit(mp, GAMMA, init=lim.candidate)
        stop = 0.0  # the limit runs until its step stalls
    with pytest.raises(gf.NonConvergence,
                       match=r"^no start converged: residual 1\.000e\+00 after 0 iterations$"):
        solve()
    assert stops == [stop, stop]
