"""Command-line entry point.

Subcommands: model, equilibrium, gql, pde-solve, redim, fast-time, pipeline.
A JSON config file with flat keys drives them.  A flag whose dest is a config
key overrides it, and FASTSLOW_OUT stands in for an absent --out-dir; stages
read only the config, checked before any of them runs.  Exit codes: 0
success, 2 config error, 3 numerical non-convergence, 4 decomposition failure.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass, field, fields

import numpy as np

from . import __version__
from .core import (
    FLOAT_FMT,
    ReactionDiffusionModel,
    read_profile_csv,
    write_profile_csv,
    write_rows_csv,
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
    built-in enzyme study.  Every value is checked on construction, and the
    model is built to check its name, parameters and dimension; a bad value
    raises :class:`ConfigError`."""

    model: str = "michaelis-menten"
    model_params: dict = field(default_factory=dict)
    nodes: int = 101
    steady_tol: float = 1e-8
    min_gap_ratio: float = 10.0
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
        for value in points:  # the one-sided edge differences reach 3 nodes in
            _check_int("redim2d_points", value, 4)
        for key in ("steady_tol", "mesh_tol", "redim_tol"):
            _check_number(key, getattr(self, key), lambda v: 0.0 < v < math.inf,
                          "a finite number > 0")
        _check_number("min_gap_ratio", self.min_gap_ratio, lambda v: 1.0 < v < math.inf,
                      "a finite number > 1")
        last = self.nodes - 1
        _check_number("fasttime_x0", self.fasttime_x0,
                      lambda v: 0.0 < v < 1.0 and 0 < round(v * last) < last,
                      f"a position in (0, 1) off the boundary nodes of the "
                      f"{self.nodes}-node grid")
        for key in ("redim_grad", "out_dir"):
            if not isinstance(getattr(self, key), str) or not getattr(self, key):
                raise ConfigError(f"{key} must be a non-empty string, got {getattr(self, key)!r}")
        start = self.fasttime_start
        if not isinstance(start, (tuple, list)):
            raise ConfigError(f"fasttime_start must be a list, got {start!r}")
        for value in start:
            _check_number("fasttime_start", value, math.isfinite, "a list of finite numbers")
        dimension = build_model(self).dimension
        if len(start) != dimension:
            raise ConfigError(f"fasttime_start needs {dimension} components, one per "
                              f"species, got {len(start)}")
        if self.redim_grad != "profile" and _constant(self.redim_grad) is None:
            try:
                species = read_profile_csv(self.redim_grad).states.shape[1]
            except (OSError, ContractViolationError) as exc:
                raise ConfigError(f"redim_grad must be 'profile', 'const:<finite value>' "
                                  f"or a profile CSV path: {exc}") from exc
            if species != dimension:
                raise ConfigError(f"redim_grad profile CSV holds {species} species, the "
                                  f"model {dimension}")


def _check_int(key, value, least) -> None:
    if not isinstance(value, int) or isinstance(value, bool) or value < least:
        raise ConfigError(f"{key} must be an integer >= {least}, got {value!r}")


def _check_number(key, value, ok, want: str) -> None:
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not ok(value):
        raise ConfigError(f"{key} must be {want}, got {value!r}")


def load_config(path: str | None, overrides: dict | None = None) -> RunConfig:
    """Read a JSON config and apply the flag ``overrides``, rejecting unknown
    keys and bad values before any stage runs."""
    raw = {}
    if path is not None:
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
    raw.update(overrides or {})
    for key in ("redim2d_points", "fasttime_start"):
        if isinstance(raw.get(key), list):
            raw[key] = tuple(raw[key])
    try:
        return RunConfig(**raw)
    except TypeError as exc:
        raise ConfigError(f"bad config value: {exc}") from exc


def build_model(config: RunConfig) -> ReactionDiffusionModel:
    if not isinstance(config.model_params, dict):
        raise ConfigError(f"model_params must be an object, got {config.model_params!r}")
    if config.model == "michaelis-menten":
        try:
            params = MichaelisMentenParams(**config.model_params)
        except (TypeError, ContractViolationError) as exc:
            raise ConfigError(f"bad model_params for michaelis-menten: {exc}") from exc
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
        try:
            A = np.asarray(A, dtype=float)
            if A.ndim == 1:  # the row-major entries of a square matrix
                A = A.reshape(round(A.size ** 0.5), -1)
            return linear_model(A, z_star, diffusion=diffusion)
        except (TypeError, ValueError, ContractViolationError) as exc:
            raise ConfigError(f"bad model_params for the linear model: {exc}") from exc
    raise ConfigError(f"unknown model {config.model!r}")


def provenance(model: ReactionDiffusionModel, stage: str) -> str:
    parts = [f"{k}={model.params[k]}" for k in sorted(model.params)]
    return f"fastslow {__version__} | model={model.name} | {' '.join(parts)} | stage={stage}"


# ---------------------------------------------------------------------------
# stages: each is one function, called by its subcommand and by the pipeline
# ---------------------------------------------------------------------------

def _default_guess(model):
    if model.working_box is not None:
        lo, hi = model.working_box
        return 0.5 * (lo + hi)
    return np.zeros(model.dimension)


def run_gql(config: RunConfig, model):
    """Equilibrium, linear surrogate and fast/slow split."""
    z_eq = equilibrium(model, _default_guess(model))
    samples = default_sample_states(model, extra=[z_eq])
    T = build_surrogate(model, samples)
    dec = spectral_split(T, min_gap_ratio=config.min_gap_ratio)
    return dec, z_eq


def write_gql_report(path, dec, model) -> None:
    """The GQL report as JSON, written to ``path`` or, if None, to stdout."""
    report = {
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
    text = json.dumps(report, indent=2) + "\n"
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def slow_mesh(config: RunConfig, model, dec, z_eq):
    """The zero-order slow manifold over the default slow-coordinate grid."""
    grid = default_slow_grid(dec, model, config.mesh_points_per_axis)
    return slow_manifold_mesh(dec, model, grid, tol=config.mesh_tol, U0=dec.Zt_f @ z_eq)


def write_mesh_csv(path, mesh, model) -> None:
    n_s = mesh.V.shape[1]
    header = [f"V{k+1}" for k in range(n_s)] + list(model.species)
    rows = np.hstack([mesh.V, mesh.states])[mesh.converged]
    write_rows_csv(path, header, rows, provenance(model, "gql-mesh"))


def boundary_conditions(config: RunConfig, z_eq) -> BoundaryConditions:
    """The equilibrium at x = 0 and ``fasttime_start`` at x = 1."""
    return BoundaryConditions(left_state=z_eq,
                              right_state=np.asarray(config.fasttime_start, dtype=float))


def _solver_settings(config: RunConfig) -> SolverSettings:
    return SolverSettings(node_count=config.nodes, steady_tol=config.steady_tol)


def _constant(spec: str):
    """The value of a ``const:<value>`` gradient, None for any other spec."""
    if not spec.startswith("const:"):
        return None
    try:
        value = float(spec.split(":", 1)[1])
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise ConfigError(f"redim_grad constant must be a finite number, got {spec!r}")
    return value


def write_redim(path, dim: int, config: RunConfig, model, bc, profile) -> None:
    """Relax the ``dim``-D REDIM anchored at the boundary states and write it; its
    closure is ``redim_grad``: a constant, the stationary ``profile`` or a CSV's."""
    value, mode = _constant(config.redim_grad), f"{dim}d"
    if value is None and config.redim_grad != "profile":
        profile = read_profile_csv(config.redim_grad)
    grad = (gradient_estimate_from_profile(profile, mode) if value is None
            else constant_gradient(value, mode))
    if dim == 1:
        m = evolve_redim_1d(model, (bc.left_state, bc.right_state),
                            M=config.redim1d_points, grad=grad, tol=config.redim_tol)
        header = ["theta"]
        rows = np.column_stack([m.theta_grid, m.states])
    else:
        lo, hi = model.working_box or (np.zeros(model.dimension), np.ones(model.dimension))
        m = evolve_redim_2d(
            model,
            theta1_range=(lo[0], hi[0]),
            theta2_range=(lo[1], hi[1]),
            M1=config.redim2d_points[0],
            M2=config.redim2d_points[1],
            grad=grad,
            tol=config.redim_tol,
            anchor_values=(float(bc.left_state[2]), float(bc.right_state[2])),
        )
        header = ["theta1", "theta2"]
        TH1, TH2 = (t.ravel() for t in np.meshgrid(m.theta1_grid, m.theta2_grid, indexing="ij"))
        rows = np.column_stack([TH1, TH2, TH1, TH2, m.Z_values.ravel()])
    write_rows_csv(path, header + list(model.species), rows,
                   provenance(model, f"redim-{dim}d"))


FASTTIME_HEADER = ["epsilon", "K", "dist", "t_enter", "bound", "ratio"]


def fast_time_rows(config: RunConfig, model, dec, bc, modes) -> np.ndarray:
    """One fasttime.csv row per mode: the ODE transient from the right
    boundary state and the PDE transient tracked at ``fasttime_x0``."""
    rows = []
    for mode in modes:
        if mode == "ode":
            report = measure_fast_time_ode(dec, model, bc.right_state)
        else:
            report = measure_fast_time_pde(dec, model, bc, _solver_settings(config),
                                           x0=config.fasttime_x0)
        rows.append([report.epsilon, report.K, report.y0_distance,
                     report.t_enter, report.bound, report.ratio])
    return np.array(rows)


# ---------------------------------------------------------------------------
# subcommands
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
    guess = _default_guess(model) if args.guess is None else args.guess
    z_eq = equilibrium(model, guess, tol=args.tol)
    out = {
        "state": list(z_eq),
        "residual_sup": float(np.abs(model.source(z_eq)).max()),
    }
    print(json.dumps(out, indent=2))
    return 0


def _parse_state(text) -> tuple:
    try:
        return tuple(float(tok) for tok in text.split(","))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"cannot parse state {text!r}") from exc


def cmd_gql(config: RunConfig, args) -> int:
    model = build_model(config)
    dec, z_eq = run_gql(config, model)
    write_gql_report(args.out_report, dec, model)
    if args.out_mesh:
        write_mesh_csv(args.out_mesh, slow_mesh(config, model, dec, z_eq), model)
    return 0


def cmd_pde_solve(config: RunConfig, args) -> int:
    model = build_model(config)
    bc = boundary_conditions(config, equilibrium(model, _default_guess(model)))
    result = integrate_to_steady(model, bc, _solver_settings(config))
    write_profile_csv(args.out, result.profile, model.species,
                      provenance(model, "pde-solve"))
    if args.history:
        write_rows_csv(args.history, ["t", "residual"], result.residual_history,
                       provenance(model, "pde-history"))
    print(f"stationary profile written to {args.out} "
          f"(steps = {result.steps}, residual = {result.residual_history[-1][1]:.3g})")
    return 0


def cmd_redim(config: RunConfig, args) -> int:
    model = build_model(config)
    bc = boundary_conditions(config, equilibrium(model, _default_guess(model)))
    profile = None
    if config.redim_grad == "profile":
        profile = integrate_to_steady(model, bc, _solver_settings(config)).profile
    write_redim(args.out, args.dim, config, model, bc, profile)
    print(f"manifold written to {args.out}")
    return 0


def cmd_fast_time(config: RunConfig, args) -> int:
    model = build_model(config)
    dec, z_eq = run_gql(config, model)
    rows = fast_time_rows(config, model, dec, boundary_conditions(config, z_eq), [args.mode])
    if args.out:
        write_rows_csv(args.out, FASTTIME_HEADER, rows,
                       provenance(model, f"fast-time-{args.mode}"))
    print(",".join(FASTTIME_HEADER))
    print(",".join(FLOAT_FMT % v for v in rows[0]))
    return 0


# ---------------------------------------------------------------------------
# pipeline
# ---------------------------------------------------------------------------

def run_pipeline(config: RunConfig, out_dir: str | None = None) -> dict:
    """Run gql -> pde -> redim -> fasttime, writing all artifacts.

    Returns a dict of artifact paths.  Raises with the failing stage named;
    artifacts of completed stages are left in place.
    """
    model = build_model(config)
    if model.working_box is None:
        raise ConfigError(f"model {model.name} declares no working box, "
                          f"which the gql stage samples")
    out = out_dir or config.out_dir
    os.makedirs(out, exist_ok=True)
    paths = {name: os.path.join(out, name + ext) for name, ext in (
        ("gql_report", ".json"), ("slow_manifold", ".csv"), ("stationary_profile", ".csv"),
        ("redim1d", ".csv"), ("redim2d", ".csv"), ("fasttime", ".csv"))}

    stage = "gql"
    try:
        dec, z_eq = run_gql(config, model)
        write_gql_report(paths["gql_report"], dec, model)
        write_mesh_csv(paths["slow_manifold"], slow_mesh(config, model, dec, z_eq), model)

        stage = "pde"
        bc = boundary_conditions(config, z_eq)
        profile = integrate_to_steady(model, bc, _solver_settings(config)).profile
        write_profile_csv(paths["stationary_profile"], profile, model.species,
                          provenance(model, "pde"))

        for dim in (1, 2):
            stage = f"redim-{dim}d"
            write_redim(paths[f"redim{dim}d"], dim, config, model, bc, profile)

        stage = "fast-time"
        write_rows_csv(paths["fasttime"], FASTTIME_HEADER,
                       fast_time_rows(config, model, dec, bc, ("ode", "pde")),
                       provenance(model, "fast-time (rows: ode, pde)"))
    except FastSlowError as exc:
        exc.args = (f"[stage {stage}] {exc}",)  # the same error, so its fields stay
        raise
    return paths


def cmd_pipeline(config: RunConfig, args) -> int:
    paths = run_pipeline(config)
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
    p.add_argument("--guess", type=_parse_state, help="initial guess, comma separated")
    p.add_argument("--tol", type=float, default=1e-12)

    p = sub.add_parser("gql", help="global quasi-linearization report and slow mesh")
    common(p)
    p.add_argument("--out-report", help="write JSON report here (default: stdout)")
    p.add_argument("--out-mesh", help="write slow-manifold CSV here")

    p = sub.add_parser("pde-solve", help="stationary profile by method of lines")
    common(p)
    p.add_argument("--nodes", type=int, help="grid nodes (default from config)")
    p.add_argument("--tol", dest="steady_tol", type=float, help="steady-state tolerance")
    p.add_argument("--out", required=True, help="profile CSV path")
    p.add_argument("--history", help="residual history CSV path: one (t, residual) row "
                   "for the start and each step; a Newton step logs pseudo-time t = inf")

    p = sub.add_parser("redim", help="relax a reaction-diffusion manifold")
    common(p)
    p.add_argument("--dim", type=int, choices=(1, 2), required=True)
    p.add_argument("--grad", dest="redim_grad",
                   help="'profile', a profile CSV path, or const:<finite value>")
    p.add_argument("--out", required=True, help="manifold CSV path")

    p = sub.add_parser("fast-time", help="fast-transient entry time vs. bound")
    common(p)
    p.add_argument("--mode", choices=("ode", "pde"), required=True)
    p.add_argument("--x0", dest="fasttime_x0", type=float, help="tracked position for pde mode")
    p.add_argument("--start", dest="fasttime_start", type=_parse_state,
                   help="fasttime_start X,Y,Z: the ode start and the pde right boundary")
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


def _flag_overrides(args) -> dict:
    # a flag given as 0 or "" is passed on, so RunConfig's checks see it
    updates = {f.name: getattr(args, f.name) for f in fields(RunConfig)
               if getattr(args, f.name, None) is not None}
    if "out_dir" not in updates and os.environ.get("FASTSLOW_OUT"):
        updates["out_dir"] = os.environ["FASTSLOW_OUT"]
    return updates


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = load_config(getattr(args, "config", None), _flag_overrides(args))
        return COMMANDS[args.command](config, args)
    except (ConfigError, ContractViolationError, OSError) as exc:
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
