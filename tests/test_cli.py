import json
import math
from pathlib import Path

import numpy as np
import pytest

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
    ({"fasttime_x0": 1.5}, "fasttime_x0"),
    ({"fasttime_x0": 0.001}, "fasttime_x0"),
    ({"min_gap_ratio": 0.5}, "min_gap_ratio"),
    ({"model": "nope"}, "model"),
    ({"model_params": {"L1": "a"}}, "model_params"),
    ({"gql_mode": "nope"}, "gql_mode"),
    ({"redim_grad": "nope"}, "redim_grad"),
], ids=["nodes-string", "redim2d-one-entry", "redim2d-3-theta1-nodes",
        "redim2d-3-theta2-nodes", "mesh-points-string", "mesh-points-zero",
        "dt-safety-above-1", "fasttime-start-length", "fasttime-x0-outside",
        "fasttime-x0-boundary-node", "min-gap-ratio-below-1", "model-unknown",
        "model-params-string", "gql-mode-unknown", "redim-grad-unknown"])
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
], ids=["grad-file-missing", "grad-file-non-numeric", "redim2d-four-species",
        "linear-a-scalar", "linear-a-ragged"])
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


def test_pde_solve_non_convergence_exits_3(tmp_path, capsys):
    cfg = _write_config(tmp_path, {"steady_tol": 0.0})
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
    """``--tol 0`` ends like ``steady_tol: 0`` in the config."""
    out = tmp_path / "profile.csv"
    assert main(["pde-solve", "--config", _write_config(tmp_path), "--tol", "0",
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
                       redim2d_points=(11, 11), steady_tol=0.0)
    with pytest.raises(ConvergenceError) as exc:
        run_pipeline(config, str(tmp_path / "out"))
    assert str(exc.value).startswith("[stage pde] ")
    assert isinstance(exc.value.residual, float) and math.isfinite(exc.value.residual)


def test_pipeline_rejects_a_model_without_working_box_before_any_stage(tmp_path, capsys):
    linear3 = {"model": "linear",
               "model_params": {"A": np.diag([-1.0, -2.0, -30.0]).tolist(),
                                "z_star": [1.0, 1.0, 1.0], "diffusion": [0.1] * 3}}
    out = tmp_path / "out"
    assert main(["pipeline", "--config", _write_config(tmp_path, linear3),
                 "--out-dir", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "working box" in err and "Traceback" not in err
    assert not out.exists()


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
