import json
import math
import re
from pathlib import Path

import numpy as np
import pytest

from fastslow import cli
from fastslow.cli import RunConfig, build_parser, load_config, main, run_pipeline
from fastslow.core import read_profile_csv
from fastslow.errors import ConfigError, ConvergenceError

YEQ = np.sqrt(3.0) - 1.0

FAST_CONFIG = {
    "nodes": 51,
    "mesh_points_per_axis": 10,
    "redim1d_points": 41,
    "redim2d_points": [21, 21],
    "fasttime_x0": 0.8,
}


def _write_config(tmp_path, extra=None):
    cfg = dict(FAST_CONFIG)
    cfg.update(extra or {})
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return str(path)


def test_help_lists_subcommands(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    for name in ("model", "equilibrium", "gql", "pde-solve", "redim", "fast-time", "pipeline"):
        assert name in out


def test_model_subcommand(capsys):
    assert main(["model"]) == 0
    info = json.loads(capsys.readouterr().out)
    assert info["name"] == "michaelis-menten"
    assert info["dimension"] == 3
    assert info["params"]["delta"] == 0.01


def test_equilibrium_subcommand(capsys):
    assert main(["equilibrium", "--guess", "1,0.5,0.5"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["state"] == pytest.approx([0.0, YEQ, YEQ], abs=1e-10)
    assert out["residual_sup"] < 1e-12


@pytest.mark.parametrize("tol", ["inf", "nan"])
def test_equilibrium_non_finite_tol_exits_2(capsys, tol):
    """``--tol inf`` would print the guess as the equilibrium, ``--tol nan``
    iterate to the limit and exit 3."""
    assert main(["equilibrium", "--tol", tol]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: ") and "tol" in captured.err


def test_gql_subcommand_writes_report(tmp_path, capsys):
    report_path = tmp_path / "gql_report.json"
    assert main(["gql", "--out-report", str(report_path)]) == 0
    report = json.loads(report_path.read_text())
    assert report["n_f"] == 1
    assert 0.0 < report["epsilon"] < 0.1
    assert len(report["T"]) == 9 and len(report["Z"]) == 9


def test_unknown_config_key_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"nodes": 51, "frobnicate": 1}))
    assert main(["model", "--config", str(path)]) == 2
    assert "frobnicate" in capsys.readouterr().err


def test_load_config_defaults_match_study():
    cfg = load_config(None)
    assert cfg.nodes == 101
    assert cfg.steady_tol == 1e-8
    assert cfg.min_gap_ratio == 10.0
    assert cfg.redim2d_points == (61, 61)
    assert cfg.fasttime_start == (2.0, 0.0, 1.0)


def test_load_config_rejects_bad_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{nope")
    with pytest.raises(ConfigError):
        load_config(str(path))


@pytest.mark.parametrize("bad, key", [
    ({"nodes": "51"}, "nodes"),
    ({"redim2d_points": [5]}, "redim2d_points"),
    ({"redim2d_points": [3, 61]}, "redim2d_points"),
    ({"redim2d_points": [61, 3]}, "redim2d_points"),
    ({"mesh_points_per_axis": "30"}, "mesh_points_per_axis"),
    ({"mesh_points_per_axis": 0}, "mesh_points_per_axis"),
    ({"dt_safety": 2}, "dt_safety"),
    ({"fasttime_start": [1, 2]}, "fasttime_start"),
    ({"fasttime_start": "2,0,1"}, "fasttime_start"),
    ({"redim2d_points": 61}, "redim2d_points"),
    ({"fasttime_x0": 1.5}, "fasttime_x0"),
    ({"fasttime_x0": 0.001}, "fasttime_x0"),
    ({"min_gap_ratio": 0.5}, "min_gap_ratio"),
    ({"steady_tol": 0.0}, "steady_tol"),
    ({"mesh_tol": 0.0}, "mesh_tol"),
    ({"redim_tol": 0}, "redim_tol"),
    ({"model": "nope"}, "model"),
    ({"model_params": {"L1": "a"}}, "model_params"),
    ({"gql_mode": "nope"}, "gql_mode"),
    ({"redim_grad": "nope"}, "redim_grad"),
    ({"redim_grad": "const:nan"}, "redim_grad"),
    ({"redim_grad": "const:inf"}, "redim_grad"),
    ({"model_params": {"delta": math.inf}}, "model_params"),
    ({"model_params": {"L1": math.nan}}, "model_params"),
    ({"model": "linear", "model_params": {"A": np.diag([-1.0, -2.0, -30.0]).tolist(),
                                          "z_star": [1.0, 1.0, 1.0],
                                          "diffusion": [0.1, math.nan, 0.1]}}, "model_params"),
    ({"model": "linear", "model_params": {"A": np.diag([-1.0, -2.0, -30.0]).tolist(),
                                          "z_star": [1.0, math.inf, 1.0]}}, "model_params"),
], ids=["nodes-string", "redim2d-one-entry", "redim2d-3-theta1-nodes",
        "redim2d-3-theta2-nodes", "mesh-points-string", "mesh-points-zero",
        "dt-safety-above-1", "fasttime-start-length", "fasttime-start-not-a-list",
        "redim2d-not-a-list", "fasttime-x0-outside",
        "fasttime-x0-boundary-node", "min-gap-ratio-below-1", "steady-tol-zero",
        "mesh-tol-zero", "redim-tol-zero", "model-unknown",
        "model-params-string", "gql-mode-unknown", "redim-grad-unknown",
        "redim-grad-const-nan", "redim-grad-const-inf", "delta-infinite", "L1-nan",
        "linear-diffusion-nan", "linear-z-star-infinite"])
def test_bad_config_value_exits_2_before_any_stage(tmp_path, capsys, bad, key):
    cfg = _write_config(tmp_path, bad)
    out = tmp_path / "out"
    assert main(["pipeline", "--config", cfg, "--out-dir", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and key in err
    assert "Traceback" not in err
    assert not out.exists()


LINEAR4 = {"model": "linear", "fasttime_start": [2.0, 0.0, 1.0, 0.0],
           "model_params": {"A": np.diag([-1.0, -2.0, -3.0, -4.0]).tolist(),
                            "z_star": [1.0, 1.0, 1.0, 1.0], "diffusion": [0.1] * 4}}


@pytest.mark.parametrize("argv, extra, csv", [
    (["redim", "--dim", "1", "--grad", "missing.csv"], None, None),
    (["redim", "--dim", "1", "--grad", "bad.csv"], None, "x,X,Y,Z\n0,1,2,3\n0.5,a,2,3\n1,1,2,3\n"),
    (["redim", "--dim", "2", "--grad", "const:1.0"], LINEAR4, None),
    (["model"], {"model": "linear", "model_params": {"A": 5, "z_star": [1.0]}}, None),
    (["model"], {"model": "linear", "model_params": {"A": [[1, 2], [3]], "z_star": [1, 1]}},
     None),
    (["equilibrium", "--guess", "0,0,nan"], None, None),
    (["equilibrium", "--guess", "1,2"], None, None),
    (["pipeline"], {"out_dir": 5}, None),
], ids=["grad-file-missing", "grad-file-non-numeric", "redim2d-four-species",
        "linear-a-scalar", "linear-a-ragged", "guess-non-finite", "guess-length",
        "out-dir-not-a-path"])
def test_bad_input_exits_2_without_traceback(tmp_path, monkeypatch, capsys, argv, extra, csv):
    monkeypatch.chdir(tmp_path)
    if csv:
        (tmp_path / "bad.csv").write_text(csv)
    args = argv + ["--config", _write_config(tmp_path, extra)]
    if argv[0] == "redim":
        args += ["--out", "out.csv"]
    assert main(args) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


def _no_stage(*args, **kwargs):
    raise AssertionError("a stage ran before the flags were checked")


@pytest.mark.parametrize("argv, key", [
    (["model", "--model", "nope"], "model"),
    (["pde-solve", "--nodes", "2", "--out", "p.csv"], "nodes"),
    (["pde-solve", "--tol", "nan", "--out", "p.csv"], "steady_tol"),
    (["pde-solve", "--tol", "0", "--out", "p.csv"], "steady_tol"),
    (["redim", "--dim", "1", "--grad", "missing.csv", "--out", "r.csv"], "redim_grad"),
    (["redim", "--dim", "1", "--grad", "bad.csv", "--out", "r.csv"], "redim_grad"),
    (["redim", "--dim", "2", "--grad", "one.csv", "--out", "r.csv"], "redim_grad"),
    (["redim", "--dim", "1", "--grad", "const:nan", "--out", "r.csv"], "redim_grad"),
    (["redim", "--dim", "1", "--grad", "", "--out", "r.csv"], "redim_grad"),
    (["fast-time", "--mode", "pde", "--x0", "0.999"], "fasttime_x0"),
    (["fast-time", "--mode", "ode", "--start", "1,2"], "fasttime_start"),
    (["fast-time", "--mode", "ode", "--start", "0,0,nan"], "fasttime_start"),
    (["pipeline", "--out-dir", ""], "out_dir"),
], ids=["model", "nodes", "steady-tol-nan", "steady-tol-zero", "grad-file-missing",
        "grad-file-non-numeric", "grad-file-one-species", "grad-const-nan", "grad-empty",
        "x0-boundary-node", "start-length", "start-nan", "out-dir-empty"])
def test_bad_config_flag_exits_2_before_any_stage(tmp_path, monkeypatch, capsys, argv, key):
    """A flag that names a config key is checked with the config, so no
    stage runs: each stage entry point here raises if it is reached."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "bad.csv").write_text("x,X,Y,Z\n0,1,2,3\n0.5,a,2,3\n1,1,2,3\n")
    (tmp_path / "one.csv").write_text("x,a\n0,1\n0.5,2\n1,3\n")
    for name in ("equilibrium", "run_gql", "integrate_to_steady"):
        monkeypatch.setattr(cli, name, _no_stage)
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: ") and key in captured.err
    assert "Traceback" not in captured.err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["bad.csv", "one.csv"]


def test_unparsable_state_flag_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["fast-time", "--mode", "ode", "--start", "2,zero,1"])
    assert exc.value.code == 2
    assert "cannot parse state '2,zero,1'" in capsys.readouterr().err


def test_equilibrium_tol_is_not_the_steady_tol(monkeypatch):
    """Only pde-solve's --tol names ``steady_tol``; equilibrium's is its own."""
    seen = []
    monkeypatch.setitem(cli.COMMANDS, "equilibrium", lambda config, args: seen.append(
        (config, args)) or 0)
    assert main(["equilibrium", "--tol", "1e-3"]) == 0
    (config, args), = seen
    assert config.steady_tol == RunConfig().steady_tol and args.tol == 1e-3


@pytest.mark.parametrize("flag, env, config_out, expected", [
    ("flag", "env", "config", "flag"),
    (None, "env", "config", "env"),
    (None, "", "config", "config"),
    (None, None, "config", "config"),
    (None, None, None, "out"),
])
def test_out_dir_precedence(tmp_path, monkeypatch, flag, env, config_out, expected):
    """--out-dir, then FASTSLOW_OUT (unless empty), then the config file, then
    the default."""
    seen = []
    monkeypatch.setattr(cli, "run_pipeline",
                        lambda config, out_dir=None: seen.append((config, out_dir)) or {})
    if env is None:
        monkeypatch.delenv("FASTSLOW_OUT", raising=False)
    else:
        monkeypatch.setenv("FASTSLOW_OUT", env)
    cfg = _write_config(tmp_path, config_out and {"out_dir": config_out})
    assert main(["pipeline", "--config", cfg] + (["--out-dir", flag] if flag else [])) == 0
    (config, out_dir), = seen
    assert (out_dir or config.out_dir) == expected


@pytest.mark.parametrize("mode", ["ode", "pde"])
@pytest.mark.parametrize("flag, value, key", [
    ("--start", "1.5,0.2,0.8", "fasttime_start"),
    ("--x0", "0.5", "fasttime_x0"),
])
def test_fast_time_flag_equals_its_config_key(tmp_path, mode, flag, value, key):
    """A fast-time flag gives the same rows as its config key; ``--start`` is
    the ODE start and the PDE's right boundary, so it moves both rows."""
    config_value = [float(v) for v in value.split(",")] if key == "fasttime_start" else float(value)
    cfg, cfg_key = _write_config(tmp_path), str(tmp_path / "key.json")
    Path(cfg_key).write_text(json.dumps({**FAST_CONFIG, key: config_value}))

    def rows(*argv):
        out = tmp_path / "fasttime.csv"
        assert main(["fast-time", "--mode", mode, "--out", str(out), *argv]) == 0
        return np.loadtxt(out, delimiter=",", skiprows=2)

    by_flag = rows("--config", cfg, flag, value)
    assert np.array_equal(by_flag, rows("--config", cfg_key))
    moves = key == "fasttime_start" or mode == "pde"
    assert np.array_equal(by_flag, rows("--config", cfg)) != moves


def test_redim_grad_from_the_pipeline_profile_csv(tmp_path):
    """``redim_grad`` naming the pipeline's own stationary_profile.csv gives
    the REDIMs of ``profile``: the CSV keeps 17 digits, so it round-trips."""
    paths = run_pipeline(load_config(_write_config(tmp_path)), str(tmp_path / "a"))
    config = load_config(_write_config(tmp_path,
                                       {"redim_grad": paths["stationary_profile"]}))
    from_csv = run_pipeline(config, str(tmp_path / "b"))
    for name in paths:
        assert Path(from_csv[name]).read_bytes() == Path(paths[name]).read_bytes(), name


CLOSURE_CSV = "x,X,Y,Z\n0,0.1,1,1\n0.5,0.2,2,1\n1,0.3,3,1\n"


@pytest.mark.parametrize("old, new", [
    ("0.5,0.2,", "0.5,nan,"), ("0.5,0.2,", "0.5,0.4,"), (",2,1\n", ",nan,1\n"),
    (",2,1\n", ",2,inf\n"),
], ids=["x-nan", "x-non-monotone", "y-nan", "z-inf"])
def test_a_closure_csv_that_gives_no_closure_exits_2_before_any_stage(
        tmp_path, monkeypatch, capsys, old, new):
    """A ``redim_grad`` profile CSV with a non-finite cell, or whose X column
    is not strictly monotone, is a config error: no stage runs and no
    output directory is made."""
    csv = tmp_path / "closure.csv"
    csv.write_text(CLOSURE_CSV.replace(old, new))
    for name in ("equilibrium", "run_gql", "integrate_to_steady"):
        monkeypatch.setattr(cli, name, _no_stage)
    out = tmp_path / "out"
    assert main(["pipeline", "--config", _write_config(tmp_path, {"redim_grad": str(csv)}),
                 "--out-dir", str(out)]) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("error: ") and "redim_grad" in err
    assert not out.exists()


def test_a_closure_csv_of_one_species_exits_2_before_any_stage(tmp_path, monkeypatch, capsys):
    """On a one-species model a profile CSV has no Y column for the 2-D
    closure."""
    csv = tmp_path / "closure.csv"
    csv.write_text("x,X\n0,0.1\n0.5,0.2\n1,0.3\n")
    one = {"model": "linear", "model_params": {"A": [[-1.0]], "z_star": [1.0]},
           "fasttime_start": [2.0], "redim_grad": str(csv)}
    monkeypatch.setattr(cli, "integrate_to_steady", _no_stage)
    assert main(["pde-solve", "--config", _write_config(tmp_path, one),
                 "--out", str(tmp_path / "p.csv")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "2 or more species" in err
    assert not (tmp_path / "p.csv").exists()


ONE_SPECIES = {"model": "linear", "model_params": {"A": [[-1.0]], "z_star": [0.0]},
               "fasttime_start": [1.0]}
TWO_SPECIES = {"model": "linear", "model_params": {"A": [[-0.01, 0.0], [0.0, -1.0]],
                                                   "z_star": [0.0, 0.0]},
               "fasttime_start": [1.0, 1.0]}


@pytest.mark.parametrize("dim, extra, need", [
    (1, ONE_SPECIES, "at least 2 species"),
    (2, ONE_SPECIES, "exactly 3 species"),
    (2, TWO_SPECIES, "exactly 3 species"),
    (2, LINEAR4, "exactly 3 species"),
], ids=["1d-one-species", "2d-one-species", "2d-two-species", "2d-four-species"])
def test_redim_on_the_wrong_species_count_exits_2_before_any_stage(
        tmp_path, monkeypatch, capsys, dim, extra, need):
    """The REDIM-1D is a graph over species 1 and needs at least 2 species,
    the REDIM-2D a graph Z(X, Y) of exactly 3: the count is checked with the
    config, so no stage runs, one ``error:`` line is printed and no file is
    written (a one-species model ended in a traceback from the steady
    solver, a two-species ``--dim 2`` in one from the anchors)."""
    monkeypatch.chdir(tmp_path)
    cfg = _write_config(tmp_path, extra)
    for name in ("equilibrium", "run_gql", "integrate_to_steady", "write_redim"):
        monkeypatch.setattr(cli, name, _no_stage)
    assert main(["redim", "--config", cfg, "--dim", str(dim), "--grad", "const:1",
                 "--out", "r.csv"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and len(captured.err.splitlines()) == 1
    assert captured.err.startswith("error: ") and need in captured.err
    assert not (tmp_path / "r.csv").exists()


def test_redim_1d_on_two_species_still_runs(tmp_path):
    """Two species are enough for the REDIM-1D: Y over X."""
    out = tmp_path / "r.csv"
    assert main(["redim", "--config", _write_config(tmp_path, TWO_SPECIES), "--dim", "1",
                 "--grad", "const:1", "--out", str(out)]) == 0
    assert len(np.loadtxt(out, delimiter=",", skiprows=2, ndmin=2)[0]) == 3


def test_subcommands_write_the_pipeline_artifacts(tmp_path):
    """Each subcommand writes its stage's pipeline artifact: equal after the
    provenance line, and the fast-time rows equal the pipeline's rows."""
    cfg = _write_config(tmp_path)
    paths = run_pipeline(load_config(cfg), str(tmp_path / "pipe"))

    def body(path, skip=1):
        return Path(path).read_text().splitlines()[skip:]

    report, mesh = tmp_path / "gql.json", tmp_path / "mesh.csv"
    assert main(["gql", "--config", cfg, "--out-report", str(report),
                 "--out-mesh", str(mesh)]) == 0
    assert body(report, 0) == body(paths["gql_report"], 0)
    assert body(mesh) == body(paths["slow_manifold"])
    profile = tmp_path / "profile.csv"
    assert main(["pde-solve", "--config", cfg, "--out", str(profile)]) == 0
    assert body(profile) == body(paths["stationary_profile"])
    for dim in (1, 2):
        out = tmp_path / f"redim{dim}d.csv"
        assert main(["redim", "--config", cfg, "--dim", str(dim), "--out", str(out)]) == 0
        assert body(out) == body(paths[f"redim{dim}d"])
    rows = body(paths["fasttime"])
    for mode, row in (("ode", rows[1]), ("pde", rows[2])):
        out = tmp_path / f"fasttime-{mode}.csv"
        assert main(["fast-time", "--config", cfg, "--mode", mode, "--out", str(out)]) == 0
        assert body(out) == [rows[0], row]


def test_every_csv_has_one_comment_line_before_its_header(tmp_path):
    cfg = _write_config(tmp_path)
    paths = run_pipeline(load_config(cfg), str(tmp_path / "pipe"))
    history, fasttime = tmp_path / "history.csv", tmp_path / "fasttime.csv"
    assert main(["pde-solve", "--config", cfg, "--out", str(tmp_path / "profile.csv"),
                 "--history", str(history)]) == 0
    assert main(["fast-time", "--config", cfg, "--mode", "ode", "--out", str(fasttime)]) == 0
    csvs = [Path(p) for p in paths.values() if p.endswith(".csv")] + [history, fasttime]
    assert len(csvs) == 7
    for path in csvs:
        lines = path.read_text().splitlines()
        assert lines[0].startswith("# fastslow ") and not lines[1].startswith("#"), path.name
        assert not any(line.startswith("#") for line in lines[1:]), path.name
        rows = np.loadtxt(path, delimiter=",", skiprows=2, ndmin=2)
        assert rows.shape[0] == len(lines) - 2, path.name


def test_pde_solve_roundtrip(tmp_path, capsys):
    cfg = _write_config(tmp_path)
    out = tmp_path / "profile.csv"
    hist = tmp_path / "history.csv"
    assert main(["pde-solve", "--config", cfg, "--out", str(out),
                 "--history", str(hist)]) == 0
    profile = read_profile_csv(out)
    assert profile.grid.node_count == 51
    assert profile.states[-1] == pytest.approx([2.0, 0.0, 1.0])
    first = out.read_text().splitlines()
    assert first[0].startswith("#") and "michaelis-menten" in first[0]
    assert first[1] == "x,X,Y,Z"
    assert hist.read_text().splitlines()[1] == "t,residual"


def test_pde_solve_reports_steps_and_residual(tmp_path, capsys):
    """The status line names the steps and the final residual, and the
    history holds the start at t = 0, then one row per Newton step at
    t = inf: ``steps + 1`` rows, the last of them that residual."""
    out, hist = tmp_path / "profile.csv", tmp_path / "history.csv"
    assert main(["pde-solve", "--config", _write_config(tmp_path), "--out", str(out),
                 "--history", str(hist)]) == 0
    line = capsys.readouterr().out.strip()
    match = re.fullmatch(rf"stationary profile written to {re.escape(str(out))} "
                         r"\(steps = (\d+), residual = (\S+)\)", line)
    assert match, line
    steps, residual = int(match[1]), float(match[2])
    rows = np.loadtxt(hist, delimiter=",", skiprows=2, ndmin=2)
    assert rows.shape == (steps + 1, 2)
    assert rows[:, 0].tolist() == [0.0] + [np.inf] * steps
    assert residual == float(f"{rows[-1, 1]:.3g}") and residual < RunConfig().steady_tol


def test_redim_subcommand_constant_gradient(tmp_path):
    cfg = _write_config(tmp_path)
    out = tmp_path / "redim1d.csv"
    assert main(["redim", "--config", cfg, "--dim", "1",
                 "--grad", "const:2.0", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[1] == "theta,X,Y,Z"
    assert len(lines) == 2 + FAST_CONFIG["redim1d_points"]


def test_fast_time_subcommand(tmp_path, capsys):
    cfg = _write_config(tmp_path)
    out = tmp_path / "fasttime.csv"
    assert main(["fast-time", "--config", cfg, "--mode", "ode",
                 "--start", "2,0,1", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[1] == "epsilon,K,dist,t_enter,bound,ratio"
    row = [float(v) for v in lines[2].split(",")]
    assert row[5] <= 1.0  # ratio


@pytest.mark.parametrize("mode", ["ode", "pde"])
def test_fast_time_overflowing_start_exits_3_with_one_error_line(tmp_path, capsys, mode):
    """A start whose fast residual squares overflow ends in one ``error:``
    line and exit 3, with no numpy warning before it."""
    out = tmp_path / "fasttime.csv"
    assert main(["fast-time", "--config", _write_config(tmp_path), "--mode", mode,
                 "--start=1e154,1e154,1e154", "--out", str(out)]) == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: transient became non-finite")
    assert not out.exists()


@pytest.mark.parametrize("extra, argv, stage", [
    ({"model_params": {"delta": 1e300}}, ["pipeline"], "[stage pde] "),
    ({"fasttime_start": [-1e300, 1e8, 1e8]}, ["pipeline"], "[stage pde] "),
    ({"redim_grad": "const:1e200"}, ["pipeline"], "[stage redim-1d] "),
    ({}, ["redim", "--dim", "2", "--grad", "const:1e200"], ""),
], ids=["huge-delta", "huge-start", "huge-grad-redim1d", "huge-grad-redim2d"])
def test_steady_overflow_exits_3_with_one_error_line(tmp_path, capsys, extra, argv, stage):
    """A band or right-hand side past float32's range, or a REDIM rate that
    overflows (a closure gradient of 1e200 squares past the double range),
    ends its steady solve in one ``error:`` line and exit 3, with no numpy
    warning."""
    out = ["--out", str(tmp_path / "r.csv")] if argv[0] == "redim" else [
        "--out-dir", str(tmp_path / "out")]
    assert main(argv + ["--config", _write_config(tmp_path, extra)] + out) == 3
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith(f"error: {stage}non-finite")
    assert "Warning" not in err


def test_pde_solve_non_convergence_exits_3(tmp_path, capsys):
    cfg = _write_config(tmp_path, {"steady_tol": 1e-20})
    out = tmp_path / "profile.csv"
    assert main(["pde-solve", "--config", cfg, "--out", str(out)]) == 3
    assert "stationary" in capsys.readouterr().err


def test_pde_solve_zero_nodes_flag_exits_2(tmp_path, capsys):
    """A zero flag is checked like any other value, not dropped for the
    config's 51 nodes."""
    out = tmp_path / "profile.csv"
    assert main(["pde-solve", "--config", _write_config(tmp_path), "--nodes", "0",
                 "--out", str(out)]) == 2
    assert "nodes must be an integer >= 3" in capsys.readouterr().err
    assert not out.exists()


def test_pde_solve_zero_tol_flag_exits_3(tmp_path, capsys):
    """A flag tolerance below what the solve can reach, ``--tol 1e-20``, ends
    like ``steady_tol: 1e-20`` in the config (``--tol 0`` exits 2)."""
    out = tmp_path / "profile.csv"
    assert main(["pde-solve", "--config", _write_config(tmp_path), "--tol", "1e-20",
                 "--out", str(out)]) == 3
    assert "stationary" in capsys.readouterr().err


def test_pipeline_stops_at_gql_on_impossible_gap(tmp_path, capsys):
    cfg = _write_config(tmp_path, {"min_gap_ratio": 1e6})
    code = main(["pipeline", "--config", cfg, "--out-dir", str(tmp_path / "out")])
    assert code == 4
    err = capsys.readouterr().err
    assert "gql" in err
    assert not (tmp_path / "out" / "gql_report.json").exists()


def test_pipeline_artifacts_and_determinism(tmp_path):
    cfg_path = _write_config(tmp_path)
    from fastslow.cli import load_config as lc
    config = lc(cfg_path)
    paths_a = run_pipeline(config, str(tmp_path / "a"))
    paths_b = run_pipeline(config, str(tmp_path / "b"))
    expected = {"gql_report", "slow_manifold", "stationary_profile",
                "redim1d", "redim2d", "fasttime"}
    assert set(paths_a) == expected
    for name in sorted(expected):
        with open(paths_a[name], "rb") as fa, open(paths_b[name], "rb") as fb:
            assert fa.read() == fb.read(), f"{name} differs between runs"
    # artifacts parse back
    profile = read_profile_csv(paths_a["stationary_profile"])
    assert profile.grid.node_count == 51
    report = json.loads(Path(paths_a["gql_report"]).read_text())
    assert report["n_f"] == 1
    rows = [l for l in Path(paths_a["fasttime"]).read_text().splitlines()
            if not l.startswith("#")]
    assert rows[0] == "epsilon,K,dist,t_enter,bound,ratio"
    assert len(rows) == 3  # header + ode row + pde row


def test_pipeline_failure_keeps_its_residual(tmp_path):
    config = RunConfig(nodes=21, mesh_points_per_axis=3, redim1d_points=11,
                       redim2d_points=(11, 11), steady_tol=1e-20)
    with pytest.raises(ConvergenceError) as exc:
        run_pipeline(config, str(tmp_path / "out"))
    assert str(exc.value).startswith("[stage pde] ")
    assert isinstance(exc.value.residual, float) and math.isfinite(exc.value.residual)


def test_pipeline_rejects_a_model_without_working_box_before_any_stage(tmp_path, monkeypatch,
                                                                       capsys):
    """``pipeline``, ``gql`` and ``fast-time``, the commands that run the gql
    stage, reject it with one ``error:`` line: the equilibrium never runs,
    and ``pipeline`` makes no directory."""
    linear3 = {"model": "linear",
               "model_params": {"A": np.diag([-1.0, -2.0, -30.0]).tolist(),
                                "z_star": [1.0, 1.0, 1.0], "diffusion": [0.1] * 3}}
    config, out = _write_config(tmp_path, linear3), tmp_path / "out"
    monkeypatch.setattr(cli, "equilibrium", _no_stage)
    for argv in (["pipeline", "--out-dir", str(out)], ["gql"], ["fast-time", "--mode", "ode"]):
        assert main(argv + ["--config", config]) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and err.startswith("error: ") and "working box" in err
    assert not out.exists()


def test_a_source_that_overflows_in_a_stage_exits_3(tmp_path, capsys):
    """A source that is not finite at a state a stage visits is a numerical
    failure, not a bad argument: ``L2 = 1e-300`` divides the Z rate past
    the double range, and ``pipeline`` ends in one ``error:`` line and exit
    3, as a diffusion past float32's range does."""
    config = _write_config(tmp_path, {"model_params": {"L2": 1e-300}})
    assert main(["pipeline", "--config", config, "--out-dir", str(tmp_path / "out")]) == 3
    err = capsys.readouterr().err
    assert err == "error: [stage gql] source produced non-finite components\n"


def test_env_var_out_dir(tmp_path, monkeypatch, capsys):
    cfg = _write_config(tmp_path, {"min_gap_ratio": 1e6})
    monkeypatch.setenv("FASTSLOW_OUT", str(tmp_path / "envout"))
    code = main(["pipeline", "--config", cfg])
    assert code == 4  # fails at gql but respected the env dir for creation
    assert (tmp_path / "envout").is_dir()


def test_parser_version():
    parser = build_parser()
    with pytest.raises(SystemExit) as exc:
        parser.parse_args(["--version"])
    assert exc.value.code == 0
