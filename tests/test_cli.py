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
