import contextlib
import io
import os
import resource
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from growth_frictions import NonConvergence, ParameterDegeneracy, cli, lab, limit, qvi, simulate
from renewal_reference import box_rows

FIG2 = "r = 0.0\nmu = 0.096\nsigma = 0.4\ngamma = 0.003\ndelta = 0.001\n"


@pytest.fixture()
def config_file(tmp_path):
    path = tmp_path / "fig2.conf"
    path.write_text(FIG2)
    return str(path)


def test_flags_override_file(config_file, tmp_path):
    cfg = cli.parse_config(config_file, {"sigma": "0.5"}, out_dir=str(tmp_path))
    assert cfg.get("sigma") == 0.5
    assert cfg.get("mu") == 0.096


def test_unknown_key_rejected(tmp_path):
    path = tmp_path / "bad.conf"
    path.write_text("sgima = 0.4\n")
    with pytest.raises(cli.ConfigError, match="unknown key 'sgima'"):
        cli.parse_config(str(path), {})
    with pytest.raises(cli.ConfigError, match="unknown key"):
        cli.parse_config(None, {"m09": "1"})


def test_parse_error_names_line(tmp_path):
    path = tmp_path / "bad.conf"
    path.write_text("r = 0.0\nmu 0.096\n")
    with pytest.raises(cli.ConfigError, match="bad.conf:2"):
        cli.parse_config(str(path), {})


def test_missing_key_named(config_file, tmp_path):
    path = tmp_path / "partial.conf"
    path.write_text("r = 0.0\nsigma = 0.4\n")
    cfg = cli.parse_config(str(path), {})
    with pytest.raises(cli.ConfigError, match="missing key 'mu'"):
        cfg.market()


def test_blank_and_comment_lines_are_skipped(tmp_path):
    path = tmp_path / "commented.conf"
    path.write_text("# the fig2 market\n\n   \nr = 0.0\n  # indented comment\nmu = 0.096\n"
                    "sigma = 0.4\n#gamma = 0.5\n")
    cfg = cli.parse_config(str(path), {})
    assert (cfg.get("r"), cfg.get("mu"), cfg.get("sigma"), cfg.get("gamma")) == (0.0, 0.096, 0.4,
                                                                                None)


@pytest.mark.parametrize("raw, value", [("off", False), ("No", False), ("0", False),
                                        ("on", True), ("TRUE", True)])
def test_boolean_keys_read_both_values(raw, value, tmp_path):
    path = tmp_path / "flags.conf"
    path.write_text(f"dump_paths = {raw}\n")
    assert cli.parse_config(str(path), {"bridge_correction": raw}).get("dump_paths") is value


def test_a_bad_boolean_is_one_config_error(tmp_path):
    path = tmp_path / "flags.conf"
    path.write_text("dump_paths = maybe\n")
    with pytest.raises(cli.ConfigError, match=rf"^{path}:1: bad value for 'dump_paths': "
                                              "expected a boolean, got 'maybe'$"):
        cli.parse_config(str(path), {})


def test_an_unreadable_config_file_is_one_config_error(tmp_path, capsys):
    missing = tmp_path / "missing.conf"
    code = cli.main(["solve", "--config", str(missing), "--out", str(tmp_path / "out")])
    assert code == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith(f"ERROR: config: cannot read config file {missing}: ")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("flags", [["--r", "-1e-3"], ["--r=-1e-3"], ["--r", "-0.001"]],
                         ids=["spaced", "joined", "decimal"])
def test_a_negative_value_in_exponent_form_is_read_as_a_value(flags, config_file, tmp_path,
                                                              capsys):
    out = tmp_path / "run"
    code = cli.main(["solve", "--config", config_file, "--out", str(out), "--grid_n", "501",
                     *flags])
    assert code == 0 and capsys.readouterr().err == ""
    header, row = (out / "solution.csv").read_text().splitlines()
    assert dict(zip(header.split(","), row.split(",")))["r"] == "-0.001"


@pytest.mark.parametrize("argv", [["-h"], ["--help"], ["solve", "--help"],
                                  ["sweep", "--config", "missing.conf", "-h"]])
def test_help_prints_usage_and_exits_zero(argv, capsys):
    assert cli.main(argv) == 0
    out, err = capsys.readouterr()
    assert out.startswith("usage: growth-frictions <solve|limit|sweep|") and err == ""


def test_a_sigma_whose_square_underflows_is_one_invariant_violation(config_file, tmp_path,
                                                                     capsys):
    code = cli.main(["solve", "--config", config_file, "--out", str(tmp_path / "out"),
                     "--sigma", "1e-170"])
    assert code == 1
    assert capsys.readouterr().err.splitlines() == [
        "ERROR: invariant_violation: sigma**2 > 0"]
    assert not (tmp_path / "out").exists()


# the tags of README.md's CLI section: its failure tags, then its final checks
README_TAGS = {"config", "invariant_violation", "non_convergence", "degenerate_chain",
               "numerical_blowup", "out_of_memory", "broken_pipe", "qvi_violation",
               "hjb_violation", "monotonicity_violation", "coupling_not_decreasing",
               "oracle_mismatch"}
EDGE_VALUES = ("0", "-0", "-0.0", "5e-324", "-5e-324", "2.2250738585072014e-308", "inf", "-inf",
               "nan", "-nan", "-1e-3", "-2.5E+2", "-7", "1e308", "-1e308", "1e400", "")


def _decimal(lo, hi):
    return st.floats(lo, hi).map(repr)


# keys that buy work draw only from bounded ranges: at most 400 steps of
# 16 paths, a 2001-point grid, a box of 7**4 policies and four deltas
_DELTAS = st.lists(st.floats(1e-4, 0.05), min_size=1, max_size=4).map(
    lambda ds: ",".join(map(repr, sorted(ds, reverse=True))))
_WORK = {
    "horizon": _decimal(0.5, 2.0) | st.sampled_from(["1", "0", "-1"]),
    "dt": _decimal(5e-3, 1e-2) | st.sampled_from(["0", "-5e-3"]),
    "n_paths": st.integers(-1, 16).map(str),
    "grid_n": st.integers(50, 2001).map(str),
    "radius": _decimal(-1e-3, 6e-3),
    "step": _decimal(2e-3, 1e-2),
    "deltas": _DELTAS | st.sampled_from(["1e-2,nan", "-1e-3", ","]),
}
# every other key: its valid box, or an edge value
_VALID = {
    "r": _decimal(-0.05, 0.05), "mu": _decimal(0.0, 0.3), "sigma": _decimal(0.05, 1.0),
    "delta": _decimal(1e-6, 0.05), "gamma": _decimal(0.0, 0.1), "tol": _decimal(1e-9, 1e-3),
    "v0": _decimal(1e-3, 1e3), "h0": _decimal(0.01, 0.99),
    "seed": st.integers(0, 2**64 - 1).map(str),
    "bridge_correction": st.sampled_from(["on", "off", "maybe"]),
    "dump_paths": st.sampled_from(["on", "off", "maybe"]),
    "solution": st.sampled_from(["solve/solution.csv", "no_such_solution.csv"]),
}
assert set(_WORK) | set(_VALID) == set(cli._KEYS)
_SMALL_RUN = ["--horizon", "0.5", "--dt", "0.005", "--n_paths", "4", "--grid_n", "201",
              "--radius", "0.004", "--step", "0.002", "--solution", "solve/solution.csv"]


@pytest.fixture(scope="module")
def run_dir(tmp_path_factory):
    """A directory holding fig2.conf and the fig2 solution.csv under solve/."""
    path = tmp_path_factory.mktemp("contract")
    (path / "fig2.conf").write_text(FIG2)
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["solve", "--config", str(path / "fig2.conf"),
                         "--out", str(path / "solve")]) == 0
    return path


@settings(max_examples=150, deadline=None)
@given(command=st.sampled_from(list(cli._COMMANDS)), data=st.data(),
       keys=st.lists(st.sampled_from(list(cli._KEYS)), min_size=1, max_size=2, unique=True))
def test_every_run_exits_0_quietly_or_1_with_one_readme_tagged_line(run_dir, command, keys,
                                                                      data):
    argv = [command, "--config", str(run_dir / "fig2.conf"), "--out", str(run_dir / "out"),
            *_SMALL_RUN]
    for key in keys:
        value = data.draw(_WORK[key] if key in _WORK
                          else _VALID[key] | st.sampled_from(EDGE_VALUES), label=key)
        if key == "solution" and value.endswith(".csv"):
            value = str(run_dir / value)
        joined = data.draw(st.booleans(), label="joined")
        argv += [f"--{key}={value}"] if joined else [f"--{key}", value]
    out, err = io.StringIO(), io.StringIO()
    # a warning would reach the user's stderr, so it fails the run here
    with (warnings.catch_warnings(), contextlib.redirect_stdout(out),
          contextlib.redirect_stderr(err)):
        warnings.simplefilter("error")
        code = cli.main(argv)
    lines = err.getvalue().splitlines()
    if code == 0:
        assert lines == []
    else:
        assert code == 1 and len(lines) == 1 and lines[0].startswith("ERROR: "), lines
        assert lines[0][len("ERROR: "):].split(":")[0] in README_TAGS, lines


def test_invariant_violation_names_constraint(tmp_path, capsys):
    path = tmp_path / "bad.conf"
    path.write_text("r = 0.0\nmu = 0.096\nsigma = 0.4\ngamma = 0.999\ndelta = 0.01\n")
    code = cli.main(["solve", "--config", str(path), "--out", str(tmp_path)])
    assert code != 0
    err = capsys.readouterr().err
    assert err.startswith("ERROR:")
    assert "gamma < 1 - delta" in err


def test_solve_writes_solution_and_report(config_file, tmp_path, capsys):
    out = tmp_path / "run"
    code = cli.main(["solve", "--config", config_file, "--out", str(out),
                     "--grid_n", "501"])
    assert code == 0
    text = (out / "solution.csv").read_text()
    header, row = text.strip().splitlines()
    assert header.split(",") == list(cli.SOLUTION_COLUMNS)
    values = dict(zip(header.split(","), row.split(",")))
    assert 0.016 < float(values["l"]) < 0.0288
    assert float(values["residual_norm"]) <= 1e-10
    assert "passed=True" in (out / "qvi_report.txt").read_text()


def test_verify_round_trip_and_corruption(config_file, tmp_path, capsys):
    out = tmp_path / "run"
    assert cli.main(["solve", "--config", config_file, "--out", str(out),
                     "--grid_n", "501"]) == 0
    solution = out / "solution.csv"
    assert cli.main(["verify", "--config", config_file, "--solution", str(solution),
                     "--out", str(out), "--grid_n", "501"]) == 0
    capsys.readouterr()

    header, row = solution.read_text().strip().splitlines()
    cols = header.split(",")
    vals = row.split(",")
    k = cols.index("l")
    vals[k] = repr(float(vals[k]) + 1e-4)
    corrupted = tmp_path / "corrupted.csv"
    corrupted.write_text(header + "\n" + ",".join(vals) + "\n")
    code = cli.main(["verify", "--config", config_file, "--solution", str(corrupted),
                     "--out", str(out), "--grid_n", "501"])
    assert code != 0
    assert "ERROR: qvi_violation" in capsys.readouterr().err


WELL_FORMED_ROW = "0.0,0.096,0.4,0.001,0.003,0.027,0.6,0.45,0.55,0.65,0.75,1e-12,5,0"


@pytest.mark.parametrize("row", ["0.0,0.096", "abc" + ",0.5" * 13,
                                 WELL_FORMED_ROW.replace("0.027", "nan"),
                                 WELL_FORMED_ROW.replace("0.75", "inf"),
                                 WELL_FORMED_ROW + "\n" + WELL_FORMED_ROW,
                                 WELL_FORMED_ROW + "\ngarbage"],
                         ids=["short_row", "non_numeric", "nan_field", "inf_field",
                              "repeated_row", "trailing_garbage"])
def test_malformed_solution_row_is_one_config_error(row, config_file, tmp_path, capsys):
    solution = tmp_path / "solution.csv"
    solution.write_text(",".join(cli.SOLUTION_COLUMNS) + "\n" + row + "\n")
    code = cli.main(["verify", "--config", config_file, "--solution", str(solution),
                     "--out", str(tmp_path / "out")])
    assert code == 1
    err = capsys.readouterr().err.splitlines()
    assert err == [f"ERROR: config: {solution}: not a boundary solution file"]


def test_limit_subcommand(config_file, tmp_path):
    out = tmp_path / "lim"
    code = cli.main(["limit", "--config", config_file, "--out", str(out),
                     "--grid_n", "501"])
    assert code == 0
    lines = (out / "limit.csv").read_text().strip().splitlines()
    assert lines[0] == "r,mu,sigma,gamma,l0,x0,A,B,residual_norm,newton_iters"
    vals = dict(zip(lines[0].split(","), lines[1].split(",")))
    assert 0.016 < float(vals["l0"]) < 0.0288
    assert float(vals["A"]) < float(vals["x0"]) < float(vals["B"])
    report = (out / "hjb_report.txt").read_text().splitlines()
    assert report[0].endswith("passed=True")
    # the obstacle (Mu-u)+ row of the delta = 0 QVI check, then the C2 row
    assert sum(line.startswith("  obstacle (Mu-u)+ ") for line in report) == 1
    assert report[-1].startswith("  C2 mismatch at A, B ")


def test_limit_band_between_grid_points_is_one_error(tmp_path, capsys):
    path = tmp_path / "narrow.conf"
    path.write_text("r = 0.0\nmu = 0.0008\nsigma = 0.4\ngamma = 1e-5\n")
    code = cli.main(["limit", "--config", str(path), "--out", str(tmp_path / "out"),
                     "--grid_n", "501"])
    assert code == 1
    assert capsys.readouterr().err.splitlines() == ["ERROR: hjb_violation"]
    assert "passed=False" in (tmp_path / "out" / "hjb_report.txt").read_text()


def test_sweep_csv_schema(config_file, tmp_path):
    out = tmp_path / "sweep"
    code = cli.main(["sweep", "--config", config_file, "--out", str(out),
                     "--deltas", "1e-2,3e-3,1e-3"])
    assert code == 0
    lines = (out / "sweep.csv").read_text().strip().splitlines()
    assert lines[0] == "delta,a,alpha,beta,b,l,rho,gap_lo,gap_hi,dist_A,dist_B"
    assert len(lines) == 5  # header + 3 rows + limit row
    limit_row = lines[-1].split(",")
    assert limit_row[0] == "0"
    assert limit_row[2] == "" and limit_row[3] == ""
    assert (out / "plot_sweep.py").exists()
    assert (out / "convergence_report.txt").exists()


def test_sweep_csvs_print_every_float_with_17_significant_digits(config_file, tmp_path):
    # the README contract for every CSV, convergence_report.csv included
    out = tmp_path / "sweep"
    assert cli.main(["sweep", "--config", config_file, "--out", str(out),
                     "--deltas", "1e-2,3e-3,1e-3"]) == 0
    csvs = sorted(out.glob("*.csv"))
    assert [path.name for path in csvs] == ["convergence_report.csv", "sweep.csv"]

    def is_float(field):
        try:
            float(field)
        except ValueError:
            return False
        return not field.lstrip("-").isdigit()

    for path in csvs:
        fields = [f for line in path.read_text().splitlines()[1:] for f in line.split(",")]
        floats = [f for f in fields if is_float(f)]
        assert floats and all(f == "%.17g" % float(f) for f in floats), path.name


def test_simulate_and_reflect(config_file, tmp_path):
    out = tmp_path / "sim"
    code = cli.main(["simulate", "--config", config_file, "--out", str(out),
                     "--horizon", "2", "--dt", "0.02", "--n_paths", "8",
                     "--dump_paths", "true"])
    assert code == 0
    growth = (out / "growth.csv").read_text().splitlines()
    assert growth[0] == "mean_growth,std_error,n_paths,horizon,dt"
    paths = (out / "paths.csv").read_text().splitlines()
    assert paths[0] == "t,h,V,event"

    out2 = tmp_path / "refl"
    code = cli.main(["reflect", "--config", config_file, "--out", str(out2),
                     "--horizon", "2", "--dt", "0.02", "--n_paths", "8",
                     "--dump_paths", "true"])
    assert code == 0
    assert (out2 / "growth.csv").exists()
    events = {line.rsplit(",", 1)[-1] for line in (out2 / "paths.csv").read_text().splitlines()[1:]}
    assert events <= {"", "reflect_lo", "reflect_hi"}


@pytest.mark.parametrize("command, line", [
    ("simulate", "impulse growth: {:.8f} +- {:.2e} (solver rho {:.8f})\n"),
    ("reflect", "reflected growth: {:.8f} +- {:.2e} (limit rho {:.8f})\n")])
def test_simulate_and_reflect_print_one_growth_line(command, line, config_file, tmp_path,
                                                    capsys, sol, lim):
    # without dump_paths the walk writes growth.csv alone and prints its estimate
    # against the solved rho, on stdout only
    out = tmp_path / "out"
    code = cli.main([command, "--config", config_file, "--out", str(out),
                     "--horizon", "2", "--dt", "0.02", "--n_paths", "8"])
    assert code == 0
    printed = capsys.readouterr()
    assert sorted(p.name for p in out.iterdir()) == ["growth.csv"]
    mean, se = map(float, (out / "growth.csv").read_text().splitlines()[1].split(",")[:2])
    rho = sol.candidate.l if command == "simulate" else lim.candidate.l0  # r = 0
    assert (printed.out, printed.err) == (line.format(mean, se, rho), "")


@pytest.mark.parametrize("command", ["simulate", "reflect"])
def test_dump_paths_records_path_zero_in_the_batch_walk(command, config_file, tmp_path,
                                                        monkeypatch):
    walks, run = [], simulate._Band.run

    def counted_run(self, *args, **kwargs):
        walks.append(len(self.paths))
        return run(self, *args, **kwargs)

    monkeypatch.setattr(simulate._Band, "run", counted_run)
    flags = {"horizon": "2", "dt": "1e-3", "n_paths": "8"}
    out = tmp_path / "out"
    code = cli.main([command, "--config", config_file, "--out", str(out), "--dump_paths", "true"]
                    + [arg for key, value in flags.items() for arg in (f"--{key}", value)])
    assert code == 0
    assert walks == [8]
    # the recorded path is the one a separate single-path walk gives, byte for byte
    cfg = cli.parse_config(config_file, flags)
    mp, sim = cfg.market(), cfg.sim()
    if command == "simulate":
        cand = qvi.solve_boundaries(mp, cfg.costs()).candidate
        alone = cli.paths_csv(simulate.simulate_impulse_path(mp, cfg.costs(), cand, sim, 0),
                              "trade")
    else:
        c = limit.solve_limit(mp, cfg.require("gamma")).candidate
        alone = cli.paths_csv(
            simulate.simulate_reflected_path(mp, cfg.require("gamma"), c.A, c.B, sim, 0),
            "reflect")
    assert (out / "paths.csv").read_text() == alone


@pytest.mark.parametrize("command", ["simulate", "reflect"])
def test_dump_paths_labels_each_trade_by_the_edge_it_left(command, config_file, tmp_path):
    # leaving (a, b) below buys up to alpha, leaving it above sells down to
    # beta; reflection restores A from below and B from above
    out = tmp_path / "out"
    code = cli.main([command, "--config", config_file, "--out", str(out), "--horizon", "20",
                     "--dt", "1e-3", "--n_paths", "4", "--seed", "0", "--dump_paths", "true"])
    assert code == 0
    cfg = cli.parse_config(config_file, {})
    if command == "simulate":
        c = qvi.solve_boundaries(cfg.market(), cfg.costs()).candidate
        targets = {"trade_lo": c.alpha, "trade_hi": c.beta}
    else:
        c = limit.solve_limit(cfg.market(), cfg.require("gamma")).candidate
        targets = {"reflect_lo": c.A, "reflect_hi": c.B}
    rows = [line.split(",") for line in (out / "paths.csv").read_text().splitlines()[1:]]
    trades = [(event, float(h)) for _, h, _, event in rows if event]
    assert {event for event, _ in trades} == set(targets)
    assert command == "reflect" or len(trades) == 6
    for event, h in trades:
        assert abs(h - targets[event]) <= 1e-12


def test_couple_csv(config_file, tmp_path):
    out = tmp_path / "couple"
    code = cli.main(["couple", "--config", config_file, "--out", str(out),
                     "--deltas", "1e-2,1e-3", "--horizon", "2", "--dt", "1e-3",
                     "--n_paths", "16"])
    assert code == 0
    lines = (out / "coupling.csv").read_text().strip().splitlines()
    assert lines[0] == "delta,mean_sup_distance,n_paths"
    assert len(lines) == 3
    assert (out / "plot_coupling.py").exists()


def test_oracle_small_grid(config_file, tmp_path):
    out = tmp_path / "oracle"
    code = cli.main(["oracle", "--config", config_file, "--out", str(out),
                     "--radius", "0.004", "--step", "0.002"])
    assert code == 0
    lines = (out / "grid.csv").read_text().strip().splitlines()
    assert lines[0] == "a,alpha,beta,b,growth"
    assert len(lines) == 1 + 5**4


def test_oracle_csv_in_chunks_is_the_one_string_form(mp, cp, sol, tmp_path):
    result = lab.brute_force_boundaries(mp, cp, sol.candidate, 0.004, 0.002)
    one = "\n".join(["a,alpha,beta,b,growth"] + [
        "%.17g,%.17g,%.17g,%.17g,%.17g" % tuple(row) for row in box_rows(result).tolist()]) + "\n"
    chunks = list(cli.oracle_csv(result))
    assert len(chunks) == 1 + 5 * 5  # the header, then one chunk per (a, alpha) pair
    assert "".join(chunks) == one
    written = cli._write(tmp_path, "grid.csv", cli.oracle_csv(result))
    assert written.read_bytes() == one.encode()


def test_oracle_csv_formats_each_coordinate_as_per_row_form():
    # each axis value is formatted once; every special value must still
    # print as "%.17g" prints it in a row
    specials = [0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 5e-324, -5e-324,
                2.2250738585072009e-308, 1e-310, 0.1, 0.1 + 2**-56, 1.0 / 3.0]
    rng = np.random.default_rng(3)
    axes = tuple(np.split(rng.permutation(np.array(specials + [2.5])), [3, 5, 9]))
    growth = rng.choice(np.array(specials), size=(3, 2, 4, 5))
    growth[::2] = rng.normal(size=growth[::2].shape)
    result = lab.BruteForceResult(best=None, best_value=0.0, axes=axes, growth=growth)
    per_row = "".join(["a,alpha,beta,b,growth\n"] + [
        "%.17g,%.17g,%.17g,%.17g,%.17g\n" % tuple(row) for row in box_rows(result).tolist()])
    assert "".join(cli.oracle_csv(result)) == per_row
    assert "-0," in per_row and "nan," in per_row and "4.9406564584124654e-324" in per_row


@pytest.mark.parametrize("unbuffered", ["1", ""], ids=["unbuffered", "buffered"])
def test_closed_stdout_is_one_broken_pipe_error(unbuffered, config_file, tmp_path):
    # the pipe's reader is gone before the child starts, so its first write fails
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONUNBUFFERED=unbuffered,
               PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        child = subprocess.run(
            [sys.executable, "-m", "growth_frictions.cli", "limit", "--config", config_file,
             "--out", str(tmp_path / "limit")],
            stdout=write_end, stderr=subprocess.PIPE, env=env, text=True, timeout=120)
    finally:
        os.close(write_end)
    assert child.returncode == 1
    assert child.stderr == "ERROR: broken_pipe\n"


def test_byte_identical_reruns(config_file, tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    args = ["simulate", "--config", config_file, "--horizon", "2", "--dt", "0.02",
            "--n_paths", "8", "--seed", "5"]
    assert cli.main(args + ["--out", str(out1)]) == 0
    assert cli.main(args + ["--out", str(out2)]) == 0
    assert (out1 / "growth.csv").read_bytes() == (out2 / "growth.csv").read_bytes()


def test_env_seed_default(config_file, tmp_path, monkeypatch):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    args = ["simulate", "--config", config_file, "--horizon", "2", "--dt", "0.02",
            "--n_paths", "8"]
    monkeypatch.setenv("GF_SEED", "17")
    assert cli.main(args + ["--out", str(out1)]) == 0
    monkeypatch.delenv("GF_SEED")
    assert cli.main(args + ["--out", str(out2), "--seed", "17"]) == 0
    assert (out1 / "growth.csv").read_bytes() == (out2 / "growth.csv").read_bytes()


def test_the_walk_defaults_are_simconfigs(config_file, monkeypatch):
    # no walk key given and GF_SEED unset: the CLI's walk is SimConfig's default walk
    monkeypatch.delenv("GF_SEED", raising=False)
    assert cli.parse_config(config_file).sim() == simulate.SimConfig(horizon=200.0, dt=1e-3,
                                                                     base_seed=0)


def test_seventeen_digit_round_trip(config_file, tmp_path):
    out = tmp_path / "run"
    cli.main(["solve", "--config", config_file, "--out", str(out), "--grid_n", "501"])
    mp, cp, sol = cli.read_solution_csv(str(out / "solution.csv"))
    text2 = cli.solution_csv(mp, cp, sol)
    assert text2 == (out / "solution.csv").read_text()


@pytest.mark.parametrize("argv", [
    ["simulate", "--n_paths", "0"],
    ["simulate", "--dt", "10"],
    ["couple", "--deltas", "1e-3,1e-2"],
    ["oracle", "--radius", "0.5"],
    ["solve", "--grid_n", "50"],
    ["verify", "--solution", "no_such_dir/solution.csv"],
    ["sweep", "--deltas", "0.999,0.5,0.1"],  # gamma = 0.003: delta must stay below 1 - gamma
    ["sweep", "--deltas", "1e-2,1e-3"],  # the convergence report needs three rows
    ["couple", "--deltas", "0.999,0.5,0.1"],
    ["simulate", "--horizon", "inf"],
    ["simulate", "--horizon", "1e400"],
    ["simulate", "--v0", "inf"],
    ["oracle", "--step", "inf"],
    ["solve", "--tol", "inf"],
    ["solve", "--tol", "nan"],
    ["solve", "--tol", "-1"],
    ["solve", "--grid_n", "100000000000"],  # a 745 GiB verification grid
    ["sweep", "--deltas", ","],  # no delta at all, not the default grid
    ["couple", "--deltas", ","],
    ["sweep", "--deltas", ""],
    ["sweep", "--deltas", "nan,1e-3,1e-4"],  # a NaN fails every comparison
    ["couple", "--deltas", "1e-2,nan"],
    ["GF_SEED=abc", "simulate"],  # a NAME=value word sets the environment
    ["simulate", "--seed", "-3"],
    ["simulate", "--seed", "18446744073709551616"],  # 2**64: past a Philox key word
    ["GF_SEED=18446744073709551616", "simulate"],
    # usage errors, and exponent-form negatives read as values, not as flags
    [],  # no subcommand
    ["resolve"],
    ["solve", "stray"],
    ["solve", "--grid_n"],  # a flag without its value, here followed by --config
    ["solve", "--no_such_key", "1"],
    ["solve", "--tol", "-1e-3"],
    ["simulate", "--n_paths", "-1e3"],
])
def test_bad_input_is_one_config_error_before_solving(argv, config_file, tmp_path,
                                                      capsys, monkeypatch):
    def no_solve(*args, **kwargs):
        raise AssertionError("solved before validating the input")

    monkeypatch.setattr(qvi, "solve_boundaries", no_solve)
    monkeypatch.setattr(limit, "solve_limit", no_solve)
    env = dict(word.split("=", 1) for word in argv if "=" in word)
    argv = [word for word in argv if "=" not in word]
    for name, value in env.items():
        monkeypatch.setenv(name, value)
    code = cli.main(argv + ["--config", config_file, "--out", str(tmp_path / "out")])
    assert code != 0
    err = capsys.readouterr().err.splitlines()
    # a bad seed names its source, as every key read from a file or flag does
    where = ("flag --seed: " if "--seed" in argv
             else "environment GF_SEED: " if "GF_SEED" in env else "")
    assert len(err) == 1 and err[0].startswith("ERROR: config: " + where)
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv", [
    ["reflect", "--h0", "0.01"],
    ["simulate", "--h0", "0.99"],
    ["couple", "--h0", "0.99"],
    ["couple", "--h0", "0.8"],  # above B = 0.664 too, so it stops at the [A, B] check
    ["couple", "--h0", "0.7"],  # inside every delta's region, above B = 0.664
])
def test_start_outside_region_is_one_config_error(argv, config_file, tmp_path, capsys,
                                                  monkeypatch):
    def no_walk(*args, **kwargs):
        raise AssertionError("walked paths before checking h0 against every region")

    def no_solve(*args, **kwargs):
        raise AssertionError("solved the boundaries before checking h0 against [A, B]")

    monkeypatch.setattr(simulate, "couple_at_boundaries", no_walk)
    if argv[0] != "simulate":  # only the impulse region needs the boundary solve
        monkeypatch.setattr(qvi, "solve_boundaries", no_solve)
    code = cli.main(argv + ["--config", config_file, "--out", str(tmp_path / "out"),
                            "--horizon", "1", "--dt", "0.01", "--n_paths", "4"])
    assert code == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("ERROR: config: h0=")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["sweep", "couple"])
def test_empty_deltas_in_a_file_is_one_config_error(command, tmp_path, capsys, monkeypatch):
    def no_solve(*args, **kwargs):
        raise AssertionError("solved before validating the input")

    monkeypatch.setattr(qvi, "solve_boundaries", no_solve)
    monkeypatch.setattr(limit, "solve_limit", no_solve)
    path = tmp_path / "empty.conf"
    path.write_text(FIG2 + "deltas =\n")
    code = cli.main([command, "--config", str(path), "--out", str(tmp_path / "out")])
    assert code == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"ERROR: config: {path}:6: bad value for 'deltas'")
    assert not (tmp_path / "out").exists()


def test_oracle_box_past_the_radius_is_one_config_error(tmp_path, capsys):
    # hhat = 0.9: b = 0.9769, and radius/step = 1.6 rounds to k = 2 steps,
    # so the priced box reaches b + 0.026 > 1 although b + radius < 1
    path = tmp_path / "hhat09.conf"
    path.write_text("r = 0.01\nmu = 0.154\nsigma = 0.4\ngamma = 0.003\ndelta = 0.001\n")
    code = cli.main(["oracle", "--config", str(path), "--out", str(tmp_path / "out"),
                     "--radius", "0.0208", "--step", "0.013"])
    assert code == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("ERROR: config: the search box of radius 0.0208 ")
    assert err[0].endswith("leaves (0, 1)")
    assert not (tmp_path / "out").exists()


def test_oracle_box_outside_the_ordering_is_one_config_error(config_file, tmp_path, capsys):
    # the box is checked around the solved boundaries, so the solve runs first
    code = cli.main(["oracle", "--config", config_file, "--out", str(tmp_path / "out"),
                     "--radius", "0.1"])
    assert code == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("ERROR: config: ")
    assert "radius 0.1" in err[0]
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv, module, name, error, reason", [
    (["oracle"], lab, "brute_force_boundaries", lab.DegenerateChain, "degenerate_chain"),
    (["simulate"], simulate, "estimate_growth_impulse", simulate.NumericalBlowup,
     "numerical_blowup"),
    (["solve"], qvi, "solve_boundaries", NonConvergence, "non_convergence"),
    (["limit"], limit, "solve_limit", ParameterDegeneracy, "invariant_violation"),
    (["simulate"], simulate, "estimate_growth_impulse", ValueError, "config"),
    (["solve"], qvi, "verify_qvi", MemoryError, "out_of_memory"),
], ids=["degenerate_chain", "numerical_blowup", "non_convergence", "invariant_violation",
        "config", "out_of_memory"])
def test_numerical_failure_is_one_named_error(argv, module, name, error, reason, config_file,
                                              tmp_path, capsys, monkeypatch):
    def fail(*args, **kwargs):
        raise error("injected failure")

    monkeypatch.setattr(module, name, fail)
    code = cli.main(argv + ["--config", config_file, "--out", str(tmp_path / "out")])
    assert code == 1
    err = capsys.readouterr().err.splitlines()
    assert err == [f"ERROR: {reason}: injected failure"]


@pytest.mark.parametrize("command", ["limit", "solve"])
@pytest.mark.parametrize("mu, gamma", [
    (0.995 * 0.16, 0.2),  # the best reflecting band stays below the floor
    ((1 - 1e-9) * 0.16, 0.003),  # every band edge above hhat rounds past 1 - EPS
], ids=["hhat-0.995", "hhat-1-1e-9"])
def test_a_market_without_interior_optimum_is_one_named_error(command, mu, gamma, tmp_path):
    # a fresh process, so the stderr checked is all the user sees: no
    # traceback and no numpy warning, only the one named line
    path = tmp_path / "edge.conf"
    path.write_text(f"r = 0.0\nmu = {mu!r}\nsigma = 0.4\ngamma = {gamma}\ndelta = 0.001\n")
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    child = subprocess.run(
        [sys.executable, "-m", "growth_frictions.cli", command, "--config", str(path),
         "--out", str(tmp_path / "out")], env=env, capture_output=True, text=True, timeout=120)
    assert child.returncode == 1
    err = child.stderr.splitlines()
    assert len(err) == 1 and err[0].startswith("ERROR: invariant_violation: no interior optimum")
    assert not (tmp_path / "out").exists()


def _sweep_failing_at(failing, config_file, out, capsys, monkeypatch):
    """Run the sweep CLI with solve call number `failing` raising
    NonConvergence; it exits 1 with one ERROR line."""
    solve_boundaries = qvi.solve_boundaries
    calls = []

    def one_fails(*args, **kwargs):
        calls.append(args)
        if len(calls) == failing:
            raise NonConvergence("injected failure")
        return solve_boundaries(*args, **kwargs)

    monkeypatch.setattr(qvi, "solve_boundaries", one_fails)
    code = cli.main(["sweep", "--config", config_file, "--out", str(out)])
    assert code == 1
    assert capsys.readouterr().err.splitlines() == ["ERROR: non_convergence: injected failure"]


def test_a_sweep_whose_first_delta_fails_writes_no_rows(config_file, tmp_path, capsys,
                                                       monkeypatch):
    _sweep_failing_at(1, config_file, tmp_path / "out", capsys, monkeypatch)
    assert not (tmp_path / "out" / "sweep.csv").exists()


def test_sweep_failure_keeps_the_solved_rows(config_file, tmp_path, capsys, monkeypatch):
    out = tmp_path / "out"
    _sweep_failing_at(3, config_file, out, capsys, monkeypatch)
    rows = (out / "sweep.csv").read_text().splitlines()[1:]
    deltas = [float(row.split(",")[0]) for row in rows]
    assert deltas == [*cli.DEFAULT_SWEEP_DELTAS[:2], 0.0]  # two solved rows, then the limit
    assert sorted(p.name for p in out.iterdir()) == ["sweep.csv"]


def test_out_of_memory_is_one_error_line(config_file, tmp_path):
    # the address-space cap applies to the child only, set between fork and exec;
    # the walk's buffers are a fixed chunk of paths, so the run that exceeds
    # the cap is a single path of 10**8 steps, whose trace asks for 1.49 GiB
    def cap_address_space():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",  # one BLAS thread: import fits the cap
               PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    child = subprocess.run(
        [sys.executable, "-m", "growth_frictions.cli", "simulate", "--config", config_file,
         "--out", str(tmp_path / "out"), "--n_paths", "1", "--horizon", "100000"],
        env=env, capture_output=True, text=True, preexec_fn=cap_address_space, timeout=120)
    assert child.returncode == 1
    err = child.stderr.splitlines()
    assert len(err) == 1 and err[0].startswith("ERROR: out_of_memory: ")


CHILD_RSS_MB = 150  # the dense obstacle search took verify to 537 MB
ORACLE_RSS_MB = 40  # the box is combined one slab at a time; oracle read 34 MB
# the Monte Carlo walk buffers one 4 MiB tile of steps for a chunk of at most
# 2,048 paths, whatever n_paths, the horizon or the number of deltas; its
# children read 42-43 MB
MONTE_CARLO_RSS_MB = 50
TEN_DELTAS = "0.02,0.01,0.005,0.002,0.001,0.0005,0.0002,0.0001,0.00005,0.00002"
# Linux carries the high-water RSS of the process a child is spawned from
# into the child's ru_maxrss, so the CLI is spawned from this small launcher
# and not from the test process, whose own peak would otherwise count.
RSS_LAUNCHER = (
    "import os, sys; "
    "pid = os.posix_spawn(sys.argv[1], sys.argv[1:], os.environ, "
    "file_actions=[(os.POSIX_SPAWN_OPEN, 1, os.devnull, os.O_WRONLY, 0)]); "
    "_, status, usage = os.wait4(pid, 0); "
    "print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)")


@pytest.mark.parametrize("command, flags, bound_mb", [
    pytest.param("verify", ["--grid_n", "4001"], CHILD_RSS_MB, id="verify"),
    pytest.param("oracle", [], ORACLE_RSS_MB, id="oracle"),
    # at least one whole block of steps
    *(pytest.param(command, ["--horizon", "2"], MONTE_CARLO_RSS_MB, id=command)
      for command in ("simulate", "reflect", "couple")),
    pytest.param("couple", ["--horizon", "2", "--deltas", TEN_DELTAS], MONTE_CARLO_RSS_MB,
                 id="couple-ten-deltas"),
    pytest.param("simulate", ["--horizon", "1.1", "--n_paths", "20000"], 55,
                 id="simulate-20000-paths"),
])
def test_child_peak_memory_is_bounded(command, flags, bound_mb, config_file, tmp_path):
    argv = [command, "--config", config_file, "--out", str(tmp_path / command), *flags]
    if command == "verify":
        assert cli.main(["solve", "--config", config_file, "--out", str(tmp_path / "solve")]) == 0
        argv += ["--solution", str(tmp_path / "solve" / "solution.csv")]
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    launched = subprocess.run(
        [sys.executable, "-c", RSS_LAUNCHER, sys.executable, "-m", "growth_frictions.cli", *argv],
        env=env, capture_output=True, text=True, check=True, timeout=120)
    status, max_rss_kb = map(int, launched.stdout.split())
    assert status == 0
    assert max_rss_kb / 1024 < bound_mb
