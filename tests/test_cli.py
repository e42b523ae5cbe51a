import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from growth_frictions import cli, lab, limit, qvi, simulate

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


@pytest.mark.parametrize("row", ["0.0,0.096", "abc" + ",0.5" * 13],
                         ids=["short_row", "non_numeric"])
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
    assert "passed=True" in (out / "hjb_report.txt").read_text()


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
        alone = cli.impulse_paths_csv(simulate.simulate_impulse_path(mp, cfg.costs(), cand, sim, 0))
    else:
        c = limit.solve_limit(mp, cfg.require("gamma")).candidate
        alone = cli.reflected_paths_csv(
            simulate.simulate_reflected_path(mp, cfg.require("gamma"), c.A, c.B, sim, 0))
    assert (out / "paths.csv").read_text() == alone


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


def test_oracle_csv_in_chunks_is_the_one_string_form(mp, cp, sol, tmp_path, monkeypatch):
    result = lab.brute_force_boundaries(mp, cp, sol.candidate, 0.004, 0.002)
    one = "\n".join(["a,alpha,beta,b,growth"] + [
        "%.17g,%.17g,%.17g,%.17g,%.17g" % tuple(row) for row in result.values.tolist()]) + "\n"
    monkeypatch.setattr(cli, "_CSV_ROWS", 7)  # 625 rows: 89 full chunks and a short one
    assert "".join(cli.oracle_csv(result)) == one
    written = cli._write(tmp_path, "grid.csv", cli.oracle_csv(result))
    assert written.read_bytes() == one.encode()


def test_oracle_csv_formats_each_coordinate_as_per_row_form(monkeypatch):
    # the coordinate columns are formatted once per distinct float64 bit
    # pattern; every special value must still print as "%.17g" prints it
    specials = [0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 5e-324, -5e-324,
                2.2250738585072009e-308, 1e-310, 0.1, 0.1 + 2**-56, 1.0 / 3.0]
    rng = np.random.default_rng(3)
    values = rng.choice(np.array(specials), size=(200, 5))
    values[::3, 4] = rng.normal(size=values[::3].shape[0])
    result = lab.BruteForceResult(best=None, best_value=0.0, values=values)
    per_row = "".join(["a,alpha,beta,b,growth\n"] + [
        "%.17g,%.17g,%.17g,%.17g,%.17g\n" % tuple(row) for row in values.tolist()])
    monkeypatch.setattr(cli, "_CSV_ROWS", 16)
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
])
def test_bad_input_is_one_config_error_before_solving(argv, config_file, tmp_path,
                                                      capsys, monkeypatch):
    def no_solve(*args, **kwargs):
        raise AssertionError("solved before validating the input")

    monkeypatch.setattr(qvi, "solve_boundaries", no_solve)
    monkeypatch.setattr(limit, "solve_limit", no_solve)
    code = cli.main(argv + ["--config", config_file, "--out", str(tmp_path / "out")])
    assert code != 0
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("ERROR: config: ")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv", [
    ["reflect", "--h0", "0.01"],
    ["simulate", "--h0", "0.99"],
    ["couple", "--h0", "0.99"],
    ["couple", "--h0", "0.8"],  # inside the delta=1e-2 region only
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


@pytest.mark.parametrize("argv, module, name, error, reason", [
    (["oracle"], lab, "brute_force_boundaries", lab.DegenerateChain, "degenerate_chain"),
    (["simulate"], simulate, "estimate_growth_impulse", simulate.NumericalBlowup,
     "numerical_blowup"),
], ids=["degenerate_chain", "numerical_blowup"])
def test_numerical_failure_is_one_named_error(argv, module, name, error, reason, config_file,
                                              tmp_path, capsys, monkeypatch):
    def fail(*args, **kwargs):
        raise error("injected failure")

    monkeypatch.setattr(module, name, fail)
    code = cli.main(argv + ["--config", config_file, "--out", str(tmp_path / "out")])
    assert code == 1
    err = capsys.readouterr().err.splitlines()
    assert err == [f"ERROR: {reason}: injected failure"]


CHILD_RSS_MB = 150  # the dense obstacle search took verify to 537 MB
# Linux carries the high-water RSS of the process a child is spawned from
# into the child's ru_maxrss, so the CLI is spawned from this small launcher
# and not from the test process, whose own peak would otherwise count.
RSS_LAUNCHER = (
    "import os, sys; "
    "pid = os.posix_spawn(sys.argv[1], sys.argv[1:], os.environ, "
    "file_actions=[(os.POSIX_SPAWN_OPEN, 1, os.devnull, os.O_WRONLY, 0)]); "
    "_, status, usage = os.wait4(pid, 0); "
    "print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)")


@pytest.mark.parametrize("command", ["verify", "oracle"])
def test_child_peak_memory_is_bounded(command, config_file, tmp_path):
    argv = [command, "--config", config_file, "--out", str(tmp_path / command)]
    if command == "verify":
        assert cli.main(["solve", "--config", config_file, "--out", str(tmp_path / "solve")]) == 0
        argv += ["--solution", str(tmp_path / "solve" / "solution.csv"), "--grid_n", "4001"]
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    launched = subprocess.run(
        [sys.executable, "-c", RSS_LAUNCHER, sys.executable, "-m", "growth_frictions.cli", *argv],
        env=env, capture_output=True, text=True, check=True, timeout=120)
    status, max_rss_kb = map(int, launched.stdout.split())
    assert status == 0
    assert max_rss_kb / 1024 < CHILD_RSS_MB
