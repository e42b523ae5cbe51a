"""Structure of the solver core: an acyclic import graph with every import at
module level, in which the two solvers import neither each other and the
core below them only the market, solvers that price in closed form only
(the renewal quadrature is the oracle's), one Newton start loop shared by
both solvers, whose cold start is built only when no warm start converges,
one Newton run and no limit solve in a cold impulse solve, one residual call
per damped Newton step, one grid verifier for both models, one kernel call
of each kind per limit residual, the quadrature rule built on first use,
no numpy.ma import in a verify, one domain check and then kernels when a
policy is priced, and kernels below the band search's and the grid check's
own checks; a package namespace that is the union of
its modules' __all__ and holds every exception type the CLI tags; the rule
of the source line counter; and a test extra that names every third-party
package the tests import."""

import ast
import importlib.util
import os
import re
import subprocess
import sys
import types
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest

import growth_frictions as gf
from growth_frictions import _slope, cli, lab, limit, market, qvi, simulate
from newton_reference import ANCHORS, column_jacobian, is_stacked, record_residual

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


def _imports(name):
    """The dotted paths that module `name` imports, at any depth, with the
    package's relative imports made absolute."""
    tree = ast.parse((PACKAGE / f"{name}.py").read_text(encoding="utf-8"))
    paths = {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
             for alias in node.names}
    paths |= {".".join(filter(None, ["growth_frictions"] * bool(node.level)
                                    + [node.module, alias.name]))
              for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
              for alias in node.names}
    return paths


def _package_imports(name):
    """The package modules that module `name` imports, at any depth."""
    return {p.split(".")[1] for p in _imports(name) if p.startswith("growth_frictions.")}


def test_the_solvers_are_siblings_over_the_slope_core():
    # qvi and limit share _slope, never each other; the core below them
    # reads only the market primitives
    assert _package_imports("qvi") == {"_slope", "market"}
    assert "qvi" not in _package_imports("limit")
    assert _package_imports("_slope") == {"market"}


@pytest.mark.parametrize("name", ["qvi", "limit", "_slope"])
def test_the_solvers_import_no_quadrature(name):
    # the renewal quadrature and its Gauss-Legendre rules are the oracle's
    tree = ast.parse((PACKAGE / f"{name}.py").read_text(encoding="utf-8"))
    used = {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    assert "lab" not in _package_imports(name)
    assert not [p for p in _imports(name) if p.startswith("numpy.polynomial")]
    assert used.isdisjoint({"polynomial", "legendre", "leggauss"})


def _outcome(solve):
    """repr of solve()'s candidate, or of the error it raised."""
    try:
        return repr(solve().candidate)
    except (ValueError, RuntimeError) as err:
        return f"{type(err).__name__}: {err}"


@pytest.mark.parametrize("r, mu, sigma, gamma, delta", ANCHORS)
def test_a_cold_solve_integrates_no_green_side(r, mu, sigma, gamma, delta, monkeypatch):
    # with the quadrature's one integrator made to raise, both cold solves
    # return exactly what they return without it
    mp = gf.MarketParams(r=r, mu=mu, sigma=sigma)
    cp = gf.CostParams(delta=delta, gamma=gamma)
    solves = (lambda: gf.solve_boundaries(mp, cp), lambda: gf.solve_limit(mp, gamma))
    expected = [_outcome(solve) for solve in solves]

    def integrate(*args):
        raise AssertionError("a solver integrated a Green side")

    monkeypatch.setattr(lab, "_green_side", integrate)
    assert [_outcome(solve) for solve in solves] == expected


def _probe_env():
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (str(PACKAGE.parent), os.environ.get("PYTHONPATH")))))


def test_import_builds_no_gauss_legendre_rule():
    # the rule is built on first use; a fresh import builds none
    probe = ("import numpy.polynomial.legendre as leg\n"
             "built = []\n"
             "leggauss = leg.leggauss\n"
             "leg.leggauss = lambda n: built.append(n) or leggauss(n)\n"
             "import growth_frictions.cli\n"
             "from growth_frictions import lab\n"
             "assert built == [] and lab._gauss_legendre.cache_info().currsize == 0, built\n")
    subprocess.run([sys.executable, "-c", probe], env=_probe_env(), check=True, timeout=60)


def test_a_verify_imports_no_masked_arrays():
    # numpy.ma costs a first verify about 14 ms to import; np.unique pulls it in
    probe = ("import sys\n"
             "import growth_frictions as gf\n"
             "mp, cp = gf.MarketParams(0.0, 0.096, 0.4), gf.CostParams(1e-3, 0.003)\n"
             "vf = gf.build_value(mp, cp, gf.solve_boundaries(mp, cp))\n"
             "assert gf.verify_qvi(mp, cp, vf, 2001).passed\n"
             "assert 'numpy.ma' not in sys.modules\n")
    subprocess.run([sys.executable, "-c", probe], env=_probe_env(), check=True, timeout=60)


@pytest.mark.parametrize("solver, norm, shown", [
    ("boundaries", 1.0, r"1\.000e\+00"), ("limit", 1.0, r"1\.000e\+00"),
    ("boundaries", np.nan, "nan"), ("limit", np.nan, "nan"),  # a NaN norm is no convergence
], ids=["boundaries", "limit", "boundaries-nan", "limit-nan"])
def test_every_start_failing_is_one_non_convergence(solver, norm, shown, mp, cp, sol, lim,
                                                    monkeypatch):
    runs = []

    def stalled(residual, v0):
        runs.append(v0)
        return np.asarray(v0), 0, norm

    monkeypatch.setattr(_slope, "damped_newton", stalled)
    if solver == "boundaries":
        # the cold seed is the warm start again, so the failure is the loop's own
        monkeypatch.setattr(qvi, "_oracle_seed", lambda mp, cp, A, B: sol.candidate)
        solve = lambda: gf.solve_boundaries(mp, cp, init=sol.candidate)  # warm, then cold
    else:
        solve = lambda: gf.solve_limit(mp, GAMMA, init=lim.candidate)  # warm, then cold
    with pytest.raises(gf.NonConvergence,
                       match=rf"^no start converged: residual {shown} after 0 iterations$"):
        solve()
    assert len(runs) == 2


@pytest.mark.parametrize("solver", ["boundaries", "limit"])
def test_a_converging_warm_start_builds_no_cold_start(solver, mp, cp, sol, lim, monkeypatch):
    # the cold start is built only when the warm run fails
    def cold(*args):
        raise AssertionError("a warm solve built its cold start")

    for module in (qvi, limit):
        monkeypatch.setattr(module, "best_band", cold)
    cold_sol, warm = ((sol, gf.solve_boundaries(mp, cp, init=sol.candidate))
                      if solver == "boundaries" else
                      (lim, gf.solve_limit(mp, GAMMA, init=lim.candidate)))
    assert warm.residual_norm <= _slope.RESIDUAL_TOL
    assert warm.candidate.as_vector() == pytest.approx(cold_sol.candidate.as_vector(), abs=1e-12)


def _cold_fig2_calls(solver, mp, cp):
    """(solution, residual, every candidate its residual accepted) of a cold fig2 solve."""
    if solver == "boundaries":
        residual = lambda c: qvi.residual_system(mp, cp, c)
        return (*record_residual(qvi, "residual_system", lambda: gf.solve_boundaries(mp, cp)),
                residual)
    residual = lambda c: limit.residual_system_limit(mp, GAMMA, c)
    return (*record_residual(limit, "residual_system_limit", lambda: gf.solve_limit(mp, GAMMA)),
            residual)


@pytest.mark.parametrize("solver", ["boundaries", "limit"])
def test_each_jacobian_is_one_stacked_residual_call(solver, mp, cp):
    # a cold fig2 solve is one Newton run; the start and each damped full step
    # are priced with their Jacobian in one call of n+1 points, the point
    # first, and the chord steps below RESIDUAL_TOL add single-point calls only
    result, calls, residual = _cold_fig2_calls(solver, mp, cp)
    width = result.candidate.as_vector().size

    def norm(cand):  # of the call's first point
        return np.abs(np.asarray(residual(cand))).reshape(width, -1)[:, 0].max()

    stacked = [i for i, c in enumerate(calls) if is_stacked(c)]
    assert stacked[0] == 0 and len(stacked) <= result.newton_iters + 1
    for i in stacked:
        block = calls[i].as_vector()
        v = block[:, 0]
        forward = np.where(np.eye(width, dtype=bool),
                           (v + _slope._FD_STEP * np.fmax(1.0, np.abs(v)))[:, None], v[:, None])
        assert block.shape == (width, width + 1) and np.array_equal(block[:, 1:], forward)
    # each step after the start leaves an iterate: damped above RESIDUAL_TOL, chord within it
    assert all(norm(calls[i - 1]) > _slope.RESIDUAL_TOL for i in stacked[1:])
    assert all(norm(calls[i - 1]) <= _slope.RESIDUAL_TOL
               for i in range(1, len(calls)) if i not in stacked)


@pytest.mark.parametrize("solver", ["boundaries", "limit"])
def test_a_cold_fig2_solve_makes_at_most_seven_residual_calls(solver, mp, cp):
    result, calls, _ = _cold_fig2_calls(solver, mp, cp)
    assert result.newton_iters > 0 and len(calls) <= 7


def test_a_cold_impulse_solve_is_one_newton_run_and_no_limit_solve(mp, cp):
    # the cold seed searches around the best reflecting band, not a solved limit
    calls = []

    def counting(module, name):
        original = getattr(module, name)
        return lambda *args, **kwargs: calls.append(name) or original(*args, **kwargs)

    with pytest.MonkeyPatch.context() as patch:
        for module, name in ((limit, "solve_limit"), (limit, "residual_system_limit"),
                             (_slope, "damped_newton")):
            patch.setattr(module, name, counting(module, name))
        sol = gf.solve_boundaries(mp, cp)
    assert calls == ["damped_newton"]
    assert sol.newton_iters > 0


def test_a_limit_residual_is_one_slope_and_one_slope_derivative_call(mp, lim):
    # the second-order rows reuse g; scaling them adds no kernel evaluation
    calls = []

    def counting(name):
        original = getattr(limit, name)
        return lambda *args: calls.append(name) or original(*args)

    with pytest.MonkeyPatch.context() as patch:
        for name in ("_g", "_slope_dx"):
            patch.setattr(limit, name, counting(name))
        gf.residual_system_limit(mp, GAMMA, lim.candidate)
    assert calls == ["_g", "_slope_dx"]


@dataclass(frozen=True)
class _Pair(_slope.NewtonUnknowns):
    x: float
    y: float


def test_a_start_whose_jacobian_raises_falls_over_to_the_next_start():
    # the domain y <= 1 ends at the first start, so the start's stacked call
    # raises and ends its run with no single-point call; the loop takes the next
    calls = []

    def residual(c):
        calls.append(np.ndim(c.x))
        if np.any(np.asarray(c.y) > 1.0):
            raise ValueError("outside the domain")
        return np.array([c.x ** 2 - 2.0, c.y ** 3 - 0.125])

    cand, iters, norm = _slope.newton_from_starts(
        _Pair, residual, [_Pair(1.0, 1.0), _Pair(1.0, 0.9)], lambda c: None)
    assert calls[:2] == [1, 1]  # first start's block, second start's block
    assert iters > 0 and norm <= _slope.RESIDUAL_TOL
    assert (cand.x, cand.y) == pytest.approx((np.sqrt(2.0), 0.5), abs=1e-9)
    # when every start fails so, NonConvergence reports the block's error
    with pytest.raises(gf.NonConvergence, match="^no start converged: outside the domain$"):
        _slope.newton_from_starts(_Pair, residual, [_Pair(1.0, 1.0)] * 2, lambda c: None)


def test_a_full_step_whose_block_leaves_the_domain_is_halved():
    # from x = 1 the full step lands at x = 1.5 - 2.5e-8, inside the domain
    # x <= 1.5 + 1e-7 and above RESIDUAL_TOL, but its difference column
    # x + 1.5e-7 is not: the trial fails, and its half step, priced alone, is kept
    calls = []

    def residual(c):
        calls.append(np.ndim(c.x))
        if np.any(np.asarray(c.x) > 1.5 + 1e-7):
            raise ValueError("outside the domain")
        return np.array([c.x ** 2 - 2.0, c.y ** 3 - 0.125])

    cand, iters, norm = _slope.newton_from_starts(
        _Pair, residual, [_Pair(1.0, 0.5)], lambda c: None)
    assert calls[:4] == [1, 1, 0, 1]  # start, failed full step, half step, its Jacobian
    assert iters > 0 and norm <= _slope.RESIDUAL_TOL
    assert (cand.x, cand.y) == pytest.approx((np.sqrt(2.0), 0.5), abs=1e-9)


def test_the_limit_check_is_one_qvi_check_at_delta_zero(mp, lim):
    # verify_hjb_limit adds only the C2 row to one verify_qvi call at delta = 0
    calls = []
    original = limit.verify_qvi

    def recording(mp, costs, vf, grid_n, tol=1e-6):
        calls.append((costs, grid_n, tol))
        return original(mp, costs, vf, grid_n, tol)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(limit, "verify_qvi", recording)
        report = gf.verify_hjb_limit(mp, GAMMA, lim, 501, tol=1e-7)
    assert [(c.delta, c.gamma, n, tol) for c, n, tol in calls] == [(0.0, GAMMA, 501, 1e-7)]
    assert report.passed
    # limit.py builds no grid and evaluates no generator, obstacle or gradient
    tree = ast.parse(Path(limit.__file__).read_text(encoding="utf-8"))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    used |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    assert used.isdisjoint({"grid", "linspace", "EPS", "apply_generator", "du", "ddu",
                            "_intervention", "trade_cost_gamma"})


def _forbidden(name):
    def call(*args, **kwargs):
        raise AssertionError(f"called the checked {name} below an entry check")
    return call


@pytest.mark.parametrize("module, price, name", [
    (_slope, _slope.policy_value, "policy_value"), (lab, lab._renewal_batch, "_renewal_batch"),
], ids=["policy_value", "_renewal_batch"])
def test_a_policy_is_priced_below_one_domain_check(module, price, name, mp, cp, sol):
    # one _within call checks the four fractions, and the logits are the
    # kernel's: no to_centered call, checked or through market
    calls = []
    within = module._within
    c = sol.candidate
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(module, "_within", lambda *args, **kwargs:
                      calls.append(args[0]) or within(*args, **kwargs))
        for owner in (module, market):
            patch.setattr(owner, "to_centered", _forbidden("to_centered"), raising=False)
        assert np.isfinite(price(mp, cp, c.a, c.alpha, c.beta, c.b))
    assert calls == [f"{name} requires fractions strictly inside (0, 1)"]
    with pytest.raises(ValueError, match=rf"^{name} requires fractions strictly inside \(0, 1\)$"):
        price(mp, cp, 0.0, c.alpha, c.beta, c.b)


def test_the_band_search_and_the_grid_check_call_kernels(mp, cp, vf):
    # best_band takes the Merton fraction's logit from the kernel, and
    # verify_qvi applies the generator's coefficients below its claim check
    # (the value function's u and du keep their to_centered check of the anchor)
    expected = (_slope.best_band(mp, GAMMA), gf.verify_qvi(mp, cp, vf, 501))
    with pytest.MonkeyPatch.context() as patch:
        for owner in (_slope, market):
            patch.setattr(owner, "to_centered", _forbidden("to_centered"), raising=False)
        assert _slope.best_band(mp, GAMMA) == expected[0]
    with pytest.MonkeyPatch.context() as patch:
        for owner in (_slope, market):
            patch.setattr(owner, "apply_generator", _forbidden("apply_generator"), raising=False)
        report = _slope.verify_qvi(mp, cp, vf, 501)
    assert report == expected[1] and report.passed


COST_NAMES = {"gamma", "delta", "gm", "dl"}


def _cost_operands(node):
    """The cost parameters that the arithmetic of node takes as operands,
    through nested arithmetic but not into calls or comparisons."""
    if isinstance(node, ast.Name):
        return {node.id} & COST_NAMES
    if isinstance(node, ast.Attribute):
        return {node.attr} & COST_NAMES
    if isinstance(node, ast.BinOp):
        return _cost_operands(node.left) | _cost_operands(node.right)
    if isinstance(node, ast.UnaryOp):
        return _cost_operands(node.operand)
    return set()


def test_the_trade_cost_and_the_generator_are_written_only_in_market():
    # every cost term, slope and break-even rule, and the generator's
    # coefficients, come from market; the limit reads no sigma
    sites = sorted({f"{path.name}:{node.lineno}"
                    for path in PACKAGE.glob("*.py") if path.name != "market.py"
                    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
                    if isinstance(node, (ast.BinOp, ast.UnaryOp)) and _cost_operands(node)})
    assert sites == []
    tree = ast.parse(Path(limit.__file__).read_text(encoding="utf-8"))
    assert not [node.lineno for node in ast.walk(tree)
                if isinstance(node, ast.Attribute) and node.attr == "sigma"
                or isinstance(node, ast.Name) and node.id == "sigma"]


PUBLIC_MODULES = (market, qvi, limit, simulate, lab)


def test_the_package_exports_the_union_of_the_modules_all():
    # each public name is declared once, in its module's __all__, and the
    # package holds the same object
    public = {name for name in dir(gf) if not name.startswith("_")
              and not isinstance(getattr(gf, name), types.ModuleType)}
    assert public == {name for module in PUBLIC_MODULES for name in module.__all__}
    assert [f"{module.__name__}.{name}" for module in PUBLIC_MODULES for name in module.__all__
            if getattr(gf, name) is not getattr(module, name)] == []


def test_every_failure_the_cli_tags_has_its_type_in_the_package():
    kinds = {kind for kind, _ in cli._FAILURES} - {MemoryError, ValueError}
    assert {kind.__name__ for kind in kinds if getattr(gf, kind.__name__, None) is not kind} == set()


def test_the_line_counter_skips_blanks_comments_and_docstrings():
    # tools/src_lines.py: a code line holds a token that is not a comment,
    # outside the docstrings of the module, its classes and its functions
    spec = importlib.util.spec_from_file_location(
        "src_lines", Path(__file__).resolve().parents[1] / "tools" / "src_lines.py")
    src_lines = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(src_lines)
    source = ('"""Module\ndocstring."""\n\nimport os  # a comment\n# only a comment\n\n'
              'class C:\n    """One line."""\n\n    def f(self):\n        """Two\n        lines."""\n'
              '        return ("""not a\n        docstring""", os.sep)\n')
    assert src_lines.count(source) == (14, 5)


def _test_extra():
    """The distribution names of pyproject.toml's test extra, as import names."""
    text = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text(encoding="utf-8")
    extra = ast.literal_eval(re.search(r"^test = (\[.*\])$", text, re.MULTILINE).group(1))
    return {re.match(r"[A-Za-z0-9_.-]+", req).group().lower().replace("-", "_")
            for req in extra}


def test_every_third_party_test_import_is_in_the_test_extra():
    # a fresh `pip install -e ".[test]"` must be able to collect every test module
    tests = Path(__file__).parent
    local = {path.stem for path in tests.glob("*.py")} | {"growth_frictions"}
    imported = {}
    for path in sorted(tests.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            names = ([alias.name for alias in node.names] if isinstance(node, ast.Import)
                     else [node.module] if isinstance(node, ast.ImportFrom) and not node.level
                     else [])
            for name in names:
                imported.setdefault(name.split(".")[0], path.name)
    known = set(sys.stdlib_module_names) | local | _test_extra() | {"numpy"}
    assert {name: path for name, path in imported.items() if name not in known} == {}
