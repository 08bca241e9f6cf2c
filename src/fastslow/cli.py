"""Command-line entry point.

Subcommands: model, equilibrium, gql, pde-solve, redim, fast-time, pipeline.
A JSON config file with flat keys drives the pipeline; any flag overrides the
config, and FASTSLOW_OUT overrides the output directory unless --out-dir is
given explicitly.  Exit codes: 0 success, 2 config error, 3 numerical
non-convergence, 4 decomposition failure.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass, field, fields, replace

import numpy as np

from . import __version__
from .core import (
    FLOAT_FMT,
    ReactionDiffusionModel,
    read_profile_csv,
    write_profile_csv,
)
from .errors import (
    ConfigError,
    ContractViolationError,
    DecompositionError,
    FastSlowError,
    NumericalError,
)
from .fasttime import measure_fast_time_ode, measure_fast_time_pde
from .gql import (
    build_surrogate,
    default_sample_states,
    default_slow_grid,
    slow_manifold_mesh,
    spectral_split,
)
from .models import (
    MichaelisMentenParams,
    equilibrium,
    linear_model,
    michaelis_menten_model,
)
from .pde import BoundaryConditions, SolverSettings, integrate_to_steady
from .redim import (
    constant_gradient,
    evolve_redim_1d,
    evolve_redim_2d,
    gradient_estimate_from_profile,
)

EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_DECOMPOSITION = 4


@dataclass(frozen=True)
class RunConfig:
    """Flat, documented pipeline configuration; defaults reproduce the
    built-in enzyme study.  Node counts and tolerances are checked on
    construction and raise :class:`ConfigError`."""

    model: str = "michaelis-menten"
    model_params: dict = field(default_factory=dict)
    nodes: int = 101
    steady_tol: float = 1e-8
    dt_safety: float = 0.8
    min_gap_ratio: float = 10.0
    gql_mode: str = "least_squares"
    mesh_points_per_axis: int = 30
    mesh_tol: float = 1e-10
    redim1d_points: int = 101
    redim2d_points: tuple = (61, 61)
    redim_tol: float = 1e-8
    redim_grad: str = "profile"
    fasttime_x0: float = 0.8
    fasttime_start: tuple = (2.0, 0.0, 1.0)
    out_dir: str = "out"

    def __post_init__(self):
        for key, least in (("nodes", 3), ("mesh_points_per_axis", 1),
                           ("redim1d_points", 3)):
            _check_int(key, getattr(self, key), least)
        points = self.redim2d_points
        if not isinstance(points, (tuple, list)) or len(points) != 2:
            raise ConfigError(f"redim2d_points must hold 2 node counts, got {points!r}")
        for value in points:
            _check_int("redim2d_points", value, 3)
        for key in ("steady_tol", "mesh_tol", "redim_tol"):
            value = getattr(self, key)
            if (isinstance(value, bool) or not isinstance(value, (int, float))
                    or not 0.0 <= value < math.inf):
                raise ConfigError(f"{key} must be a finite number >= 0, got {value!r}")


def _check_int(key, value, least) -> None:
    if not isinstance(value, int) or isinstance(value, bool) or value < least:
        raise ConfigError(f"{key} must be an integer >= {least}, got {value!r}")


def load_config(path: str | None) -> RunConfig:
    """Read a JSON config, rejecting unknown keys and bad values before any
    stage runs."""
    if path is None:
        return RunConfig()
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    known = {f.name for f in fields(RunConfig)}
    unknown = sorted(set(raw) - known)
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
    for key in ("redim2d_points", "fasttime_start"):
        if key in raw:
            if not isinstance(raw[key], list):
                raise ConfigError(f"{key} must be a list, got {raw[key]!r}")
            raw[key] = tuple(raw[key])
    try:
        return RunConfig(**raw)
    except TypeError as exc:
        raise ConfigError(f"bad config value: {exc}") from exc


def build_model(config: RunConfig) -> ReactionDiffusionModel:
    if config.model == "michaelis-menten":
        try:
            params = MichaelisMentenParams(**config.model_params)
        except TypeError as exc:
            raise ConfigError(f"bad michaelis-menten parameters: {exc}") from exc
        return michaelis_menten_model(params)
    if config.model == "linear":
        mp = dict(config.model_params)
        try:
            A = mp.pop("A")
            z_star = mp.pop("z_star")
        except KeyError as exc:
            raise ConfigError("linear model needs 'A' (row-major) and 'z_star'") from exc
        diffusion = mp.pop("diffusion", None)
        if mp:
            raise ConfigError(f"unknown linear-model parameters: {sorted(mp)}")
        n = int(round(len(A) ** 0.5)) if not isinstance(A[0], list) else len(A)
        A = np.reshape(np.asarray(A, dtype=float), (n, n))
        return linear_model(A, z_star, diffusion=diffusion)
    raise ConfigError(f"unknown model {config.model!r}")


def provenance(model: ReactionDiffusionModel, stage: str) -> str:
    parts = [f"{k}={model.params[k]}" for k in sorted(model.params)]
    return f"fastslow {__version__} | model={model.name} | {' '.join(parts)} | stage={stage}"


def _fmt(v) -> str:
    return FLOAT_FMT % v


def write_rows_csv(path, header, rows, comment: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# {comment}\n")
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


# ---------------------------------------------------------------------------
# subcommand implementations
# ---------------------------------------------------------------------------

def cmd_model(config: RunConfig, args) -> int:
    model = build_model(config)
    info = {
        "name": model.name,
        "dimension": model.dimension,
        "species": list(model.species),
        "diffusion": list(model.diffusion),
        "params": model.params,
    }
    print(json.dumps(info, indent=2))
    return 0


def cmd_equilibrium(config: RunConfig, args) -> int:
    model = build_model(config)
    guess = _parse_state(args.guess, model.dimension) if args.guess else _default_guess(model)
    z_eq = equilibrium(model, guess, tol=args.tol)
    out = {
        "state": list(z_eq),
        "residual_sup": float(np.abs(model.source(z_eq)).max()),
    }
    print(json.dumps(out, indent=2))
    return 0


def _default_guess(model):
    if model.working_box is not None:
        lo, hi = model.working_box
        return 0.5 * (lo + hi)
    return np.zeros(model.dimension)


def _parse_state(text, dimension):
    try:
        vals = [float(tok) for tok in text.split(",")]
    except ValueError as exc:
        raise ConfigError(f"cannot parse state {text!r}") from exc
    if len(vals) != dimension:
        raise ConfigError(f"state needs {dimension} components, got {len(vals)}")
    return np.array(vals)


def run_gql(config: RunConfig, model):
    z_eq = equilibrium(model, _default_guess(model))
    samples = default_sample_states(model, extra=[z_eq])
    T = build_surrogate(model, samples, mode=config.gql_mode)
    dec = spectral_split(T, min_gap_ratio=config.min_gap_ratio)
    return dec, z_eq


def gql_report_dict(dec, model) -> dict:
    return {
        "version": __version__,
        "model": model.name,
        "params": model.params,
        "eigenvalues": [{"re": float(v.real), "im": float(v.imag)} for v in dec.eigenvalues],
        "split_index": dec.split_index,
        "n_f": dec.n_f,
        "n_s": dec.n_s,
        "epsilon": dec.epsilon,
        "T": [float(v) for v in dec.T.ravel()],
        "Z": [float(v) for v in dec.Z.ravel()],
        "Z_tilde": [float(v) for v in dec.Z_tilde.ravel()],
    }


def write_mesh_csv(path, mesh, model, comment) -> None:
    n_s = mesh.V.shape[1]
    header = [f"V{k+1}" for k in range(n_s)] + list(model.species)
    rows = [list(v) + list(s) for v, s, ok in zip(mesh.V, mesh.states, mesh.converged) if ok]
    write_rows_csv(path, header, rows, comment)


def cmd_gql(config: RunConfig, args) -> int:
    model = build_model(config)
    dec, z_eq = run_gql(config, model)
    report = gql_report_dict(dec, model)
    if args.out_report:
        with open(args.out_report, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=2)
            fh.write("\n")
    else:
        print(json.dumps(report, indent=2))
    if args.out_mesh:
        grid = default_slow_grid(dec, model, config.mesh_points_per_axis)
        mesh = slow_manifold_mesh(dec, model, grid, tol=config.mesh_tol,
                                  U0=dec.Zt_f @ z_eq)
        write_mesh_csv(args.out_mesh, mesh, model, provenance(model, "gql-mesh"))
    return 0


def _solver_settings(config: RunConfig) -> SolverSettings:
    return SolverSettings(node_count=config.nodes, dt_safety=config.dt_safety,
                          steady_tol=config.steady_tol)


def _boundary_conditions(config: RunConfig, model) -> BoundaryConditions:
    z_eq = equilibrium(model, _default_guess(model))
    right = np.asarray(config.fasttime_start, dtype=float)
    return BoundaryConditions(left_state=z_eq, right_state=right)


def cmd_pde_solve(config: RunConfig, args) -> int:
    model = build_model(config)
    bc = _boundary_conditions(config, model)
    result = integrate_to_steady(model, bc, _solver_settings(config))
    write_profile_csv(args.out, result.profile, model.species,
                      provenance(model, "pde-solve"))
    if args.history:
        write_rows_csv(args.history, ["t", "residual"], result.residual_history,
                       provenance(model, "pde-history"))
    print(f"stationary profile written to {args.out} "
          f"(t = {result.elapsed_time:.6g}, steps = {result.steps})")
    return 0


def _gradient_from_spec(spec_text, profile, mode):
    if spec_text.startswith("const:"):
        try:
            value = float(spec_text.split(":", 1)[1])
        except ValueError as exc:
            raise ConfigError(f"bad constant gradient {spec_text!r}") from exc
        return constant_gradient((value, value) if mode == "2d" else value, mode)
    if profile is None:
        raise ConfigError("profile-derived gradient needs a stationary profile")
    return gradient_estimate_from_profile(profile, mode)


def cmd_redim(config: RunConfig, args) -> int:
    model = build_model(config)
    bc = _boundary_conditions(config, model)
    if args.grad and args.grad.startswith("const:"):
        profile = None
    elif args.grad and args.grad != "profile":
        profile = read_profile_csv(args.grad)
    else:
        profile = integrate_to_steady(model, bc, _solver_settings(config)).profile
    mode = "1d" if args.dim == 1 else "2d"
    grad = _gradient_from_spec(args.grad or "profile", profile, mode)
    if args.dim == 1:
        manifold = evolve_redim_1d(model, (bc.left_state, bc.right_state),
                                   M=config.redim1d_points, grad=grad,
                                   tol=config.redim_tol)
        rows = [[th] + list(s) for th, s in zip(manifold.theta_grid, manifold.states)]
        write_rows_csv(args.out, ["theta"] + list(model.species), rows,
                       provenance(model, "redim-1d"))
    else:
        manifold = _run_redim2d(config, model, grad, bc)
        rows = _manifold2d_rows(manifold)
        write_rows_csv(args.out, ["theta1", "theta2"] + list(model.species), rows,
                       provenance(model, "redim-2d"))
    print(f"manifold written to {args.out}")
    return 0


def _run_redim2d(config: RunConfig, model, grad, bc):
    lo = model.working_box[0] if model.working_box else np.zeros(model.dimension)
    hi = model.working_box[1] if model.working_box else np.ones(model.dimension)
    return evolve_redim_2d(
        model,
        theta1_range=(lo[0], hi[0]),
        theta2_range=(lo[1], hi[1]),
        M1=config.redim2d_points[0],
        M2=config.redim2d_points[1],
        grad=grad,
        tol=config.redim_tol,
        anchor_values=(float(bc.left_state[2]), float(bc.right_state[2])),
    )


def _manifold2d_rows(manifold):
    rows = []
    for i, t1 in enumerate(manifold.theta1_grid):
        for j, t2 in enumerate(manifold.theta2_grid):
            rows.append([t1, t2, t1, t2, manifold.Z_values[i, j]])
    return rows


FASTTIME_HEADER = ["epsilon", "K", "dist", "t_enter", "bound", "ratio"]


def _fasttime_row(report):
    return [report.epsilon, report.K, report.y0_distance,
            report.t_enter, report.bound, report.ratio]


def cmd_fast_time(config: RunConfig, args) -> int:
    model = build_model(config)
    dec, _ = run_gql(config, model)
    if args.mode == "ode":
        z0 = _parse_state(args.start, model.dimension) if args.start \
            else np.asarray(config.fasttime_start, dtype=float)
        report = measure_fast_time_ode(dec, model, z0)
    else:
        bc = _boundary_conditions(config, model)
        report = measure_fast_time_pde(dec, model, bc, _solver_settings(config),
                                       x0=args.x0 if args.x0 is not None else config.fasttime_x0)
    if args.out:
        write_rows_csv(args.out, FASTTIME_HEADER, [_fasttime_row(report)],
                       provenance(model, f"fast-time-{args.mode}"))
    print(",".join(FASTTIME_HEADER))
    print(",".join(_fmt(v) for v in _fasttime_row(report)))
    return 0


# ---------------------------------------------------------------------------
# pipeline
# ---------------------------------------------------------------------------

def run_pipeline(config: RunConfig, out_dir: str | None = None) -> dict:
    """Run gql -> pde -> redim -> fasttime, writing all artifacts.

    Returns a dict of artifact paths.  Raises with the failing stage named;
    artifacts of completed stages are left in place.
    """
    out = out_dir or config.out_dir
    os.makedirs(out, exist_ok=True)
    paths = {}
    model = build_model(config)

    stage = "gql"
    try:
        dec, z_eq = run_gql(config, model)
        path = os.path.join(out, "gql_report.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(gql_report_dict(dec, model), fh, indent=2)
            fh.write("\n")
        paths["gql_report"] = path

        grid = default_slow_grid(dec, model, config.mesh_points_per_axis)
        mesh = slow_manifold_mesh(dec, model, grid, tol=config.mesh_tol,
                                  U0=dec.Zt_f @ z_eq)
        path = os.path.join(out, "slow_manifold.csv")
        write_mesh_csv(path, mesh, model, provenance(model, "gql-mesh"))
        paths["slow_manifold"] = path

        stage = "pde"
        bc = BoundaryConditions(left_state=z_eq,
                                right_state=np.asarray(config.fasttime_start, dtype=float))
        settings = _solver_settings(config)
        steady = integrate_to_steady(model, bc, settings)
        path = os.path.join(out, "stationary_profile.csv")
        write_profile_csv(path, steady.profile, model.species, provenance(model, "pde"))
        paths["stationary_profile"] = path

        stage = "redim-1d"
        grad1 = _gradient_from_spec(config.redim_grad, steady.profile, "1d")
        m1 = evolve_redim_1d(model, (bc.left_state, bc.right_state),
                             M=config.redim1d_points, grad=grad1, tol=config.redim_tol)
        path = os.path.join(out, "redim1d.csv")
        rows = [[th] + list(s) for th, s in zip(m1.theta_grid, m1.states)]
        write_rows_csv(path, ["theta"] + list(model.species), rows,
                       provenance(model, "redim-1d"))
        paths["redim1d"] = path

        stage = "redim-2d"
        grad2 = _gradient_from_spec(config.redim_grad, steady.profile, "2d")
        m2 = _run_redim2d(config, model, grad2, bc)
        path = os.path.join(out, "redim2d.csv")
        write_rows_csv(path, ["theta1", "theta2"] + list(model.species),
                       _manifold2d_rows(m2), provenance(model, "redim-2d"))
        paths["redim2d"] = path

        stage = "fast-time"
        rep_ode = measure_fast_time_ode(dec, model,
                                        np.asarray(config.fasttime_start, dtype=float))
        rep_pde = measure_fast_time_pde(dec, model, bc, settings, x0=config.fasttime_x0)
        path = os.path.join(out, "fasttime.csv")
        write_rows_csv(path, FASTTIME_HEADER,
                       [_fasttime_row(rep_ode), _fasttime_row(rep_pde)],
                       provenance(model, "fast-time (rows: ode, pde)"))
        paths["fasttime"] = path
    except FastSlowError as exc:
        raise type(exc)(f"[stage {stage}] {exc}") from exc
    return paths


def cmd_pipeline(config: RunConfig, args) -> int:
    out_dir = args.out_dir or os.environ.get("FASTSLOW_OUT") or config.out_dir
    paths = run_pipeline(config, out_dir)
    for name in sorted(paths):
        print(f"{name}: {paths[name]}")
    return 0


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fastslow",
        description="Fast-slow decomposition, stationary profiles and "
                    "reaction-diffusion manifolds for stiff reaction-diffusion systems.",
    )
    parser.add_argument("--version", action="version", version=f"fastslow {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="JSON config file (flat keys)")
        p.add_argument("--model", help="model name: michaelis-menten | linear")

    p = sub.add_parser("model", help="print model metadata")
    common(p)

    p = sub.add_parser("equilibrium", help="Newton equilibrium of the source term")
    common(p)
    p.add_argument("--guess", help="initial guess, comma separated")
    p.add_argument("--tol", type=float, default=1e-12)

    p = sub.add_parser("gql", help="global quasi-linearization report and slow mesh")
    common(p)
    p.add_argument("--out-report", help="write JSON report here (default: stdout)")
    p.add_argument("--out-mesh", help="write slow-manifold CSV here")

    p = sub.add_parser("pde-solve", help="stationary profile by method of lines")
    common(p)
    p.add_argument("--nodes", type=int, help="grid nodes (default from config)")
    p.add_argument("--tol", type=float, help="steady-state tolerance")
    p.add_argument("--out", required=True, help="profile CSV path")
    p.add_argument("--history", help="residual history CSV path")

    p = sub.add_parser("redim", help="relax a reaction-diffusion manifold")
    common(p)
    p.add_argument("--dim", type=int, choices=(1, 2), required=True)
    p.add_argument("--grad", help="'profile', a profile CSV path, or const:<value>")
    p.add_argument("--out", required=True, help="manifold CSV path")

    p = sub.add_parser("fast-time", help="fast-transient entry time vs. bound")
    common(p)
    p.add_argument("--mode", choices=("ode", "pde"), required=True)
    p.add_argument("--x0", type=float, help="tracked position for pde mode")
    p.add_argument("--start", help="initial state X,Y,Z for ode mode")
    p.add_argument("--out", help="CSV output path")

    p = sub.add_parser("pipeline", help="run all stages, writing all artifacts")
    common(p)
    p.add_argument("--out-dir", help="artifact directory (or FASTSLOW_OUT env var)")
    return parser


COMMANDS = {
    "model": cmd_model,
    "equilibrium": cmd_equilibrium,
    "gql": cmd_gql,
    "pde-solve": cmd_pde_solve,
    "redim": cmd_redim,
    "fast-time": cmd_fast_time,
    "pipeline": cmd_pipeline,
}


def _apply_flag_overrides(config: RunConfig, args) -> RunConfig:
    updates = {}
    if getattr(args, "model", None):
        updates["model"] = args.model
    if getattr(args, "nodes", None):
        updates["nodes"] = args.nodes
    if getattr(args, "tol", None) and args.command == "pde-solve":
        updates["steady_tol"] = args.tol
    return replace(config, **updates) if updates else config


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = load_config(getattr(args, "config", None))
        config = _apply_flag_overrides(config, args)
        return COMMANDS[args.command](config, args)
    except (ConfigError, ContractViolationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NumericalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except DecompositionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DECOMPOSITION


if __name__ == "__main__":
    sys.exit(main())
