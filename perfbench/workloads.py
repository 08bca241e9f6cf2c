"""The benchmark's workloads: ``study``, ``refine`` and ``transient``.

Each workload has an untimed ``prepare(seed, model)`` that makes its inputs
and a ``run(rep, ctx, inputs)`` that performs its operations through the
public API, each timed by :class:`Rep`, and then checks every output.  An
operation is one stage solve; it fails if it raises or misses its check.
README.md gives the reason each workload exists.
"""

from __future__ import annotations

import math
import os
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass

import numpy as np

from fastslow import cli, core, fasttime, gql, models, pde, redim

import checks

RIGHT_STATE = (2.0, 0.0, 1.0)          # the study's right boundary / default start
REFINE_NODES = (51, 101, 201)
TRANSIENT_MESH_POINTS = 60             # per slow axis: 3600 fibres
TRANSIENT_STARTS = 64
TRANSIENT_PDE_NODES = 401
TRANSIENT_X0 = 0.8
EQUILIBRIUM_TOL = 1e-12                # models.equilibrium's default tolerance
MIN_GAP_RATIO = 10.0                   # spectral_split's default, as in RunConfig


class CheckFailed(Exception):
    """An output missed its check."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


@dataclass
class Context:
    """What a workload runs against.

    ``model`` is used by the timed operations (a counted model in the traced
    run); ``check_model`` by the checks, so checks never count as work.
    """

    model: object
    check_model: object
    workdir: str


class Rep:
    """One repetition of a workload: its operations, their outcomes, the
    values its checks computed, and the summed wall time of its operations."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.wall_s = 0.0
        self.ops = {}      # operation name -> None if ok, else the failure
        self.values = {}

    def solve(self, name, fn, *args, ops=None, **kwargs):
        """Run one timed call that counts as the operations ``ops`` (default
        ``name``).  Returns its result, or None if it raised."""
        ops = ops or (name,)
        span = self.tracer.open(f"bench.{name}", "bench") if self.tracer else None
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        except Exception as exc:  # a raising operation is a failed operation
            traceback.print_exc(file=sys.stderr)
            for op in ops:
                self.ops[op] = f"raised {type(exc).__name__}: {exc}"
            return None
        finally:
            self.wall_s += time.perf_counter() - t0
            if span is not None:
                self.tracer.close(span)
            for op in ops:
                self.ops.setdefault(op, None)

    def check(self, name, fn, *args) -> None:
        """Run the check ``fn(*args)`` for operation ``name``; any exception
        fails the operation.  Checks of an already failed operation are
        skipped, and checks are never traced."""
        if self.ops.get(name) is not None:
            return
        if self.tracer:
            self.tracer.paused = True
        try:
            fn(*args)
        except Exception as exc:  # a check that cannot be evaluated has failed
            self.ops[name] = f"check failed: {type(exc).__name__}: {exc}"
        finally:
            if self.tracer:
                self.tracer.paused = False

    def fail(self, names, reason: str) -> None:
        for name in names:
            if self.ops.get(name) is None:
                self.ops[name] = reason

    @property
    def attempted(self) -> int:
        return len(self.ops)

    @property
    def failures(self) -> dict:
        return {k: v for k, v in self.ops.items() if v is not None}


def _box_midpoint(model):
    lo, hi = model.working_box
    return 0.5 * (np.asarray(lo) + np.asarray(hi))


def _split(model, z_eq):
    samples = gql.default_sample_states(model, extra=[z_eq])
    return gql.spectral_split(gql.build_surrogate(model, samples), min_gap_ratio=MIN_GAP_RATIO)


def _check_split(dec, min_gap_ratio):
    gap, off = checks.split_defects(dec)
    require(gap >= min_gap_ratio, f"spectral gap {gap:.3g} < {min_gap_ratio:g}")
    require(off <= checks.DECOUPLING_TOL, f"split blocks couple at {off:.3g}")


# ---------------------------------------------------------------------------
# study: the paper's default pipeline
# ---------------------------------------------------------------------------

class Study:
    name = "study"
    artifacts = ("gql_report", "slow_manifold", "stationary_profile",
                 "redim1d", "redim2d", "fasttime")

    def prepare(self, seed, model):
        return cli.RunConfig()

    def run(self, rep: Rep, ctx: Context, config) -> None:
        out = tempfile.mkdtemp(prefix="study-", dir=ctx.workdir)
        paths = rep.solve("pipeline", cli.run_pipeline, config, out, ops=self.artifacts)
        if paths is None:
            return
        missing = [a for a in self.artifacts if a not in paths]
        rep.fail(missing, "artifact not written")
        rep.values["hashes"] = {a: checks.sha256(paths[a]) for a in self.artifacts if a in paths}
        rep.values["cli.bytes_written"] = sum(os.path.getsize(p) for p in paths.values())
        model = ctx.check_model
        state = {}

        def gql_report():
            state["dec"] = dec = checks.read_decomposition(paths["gql_report"])
            _check_split(dec, config.min_gap_ratio)

        def slow_manifold():
            dec = state["dec"]
            rows = checks.read_rows(paths["slow_manifold"])
            fibers = config.mesh_points_per_axis ** dec.n_s
            residual = checks.mesh_residual(dec, model, rows[:, dec.n_s:])
            rep.values.update({"gql.mesh_fibers": fibers,
                               "gql.mesh_converged_frac": rows.shape[0] / fibers,
                               "gql.mesh_residual": residual})
            require(residual < config.mesh_tol, f"mesh residual {residual:.3g}")

        def stationary_profile():
            state["profile"] = profile = core.read_profile_csv(paths["stationary_profile"])
            residual = checks.profile_residual(model, profile)
            rep.values["pde.residual"] = residual
            require(residual < config.steady_tol, f"profile residual {residual:.3g}")
            require(np.array_equal(profile.states[-1], config.fasttime_start),
                    "right boundary state moved")

        def redim1d():
            profile = state["profile"]
            grad = redim.gradient_estimate_from_profile(profile, "1d")
            manifold = checks.read_manifold1d(paths["redim1d"], grad)
            residual = checks.redim1d_residual(model, manifold)
            err = checks.coincidence_error(profile.states, manifold)
            rep.values.update({"redim.r1d_residual": residual, "coincidence_err": err})
            require(residual < config.redim_tol, f"REDIM-1D residual {residual:.3g}")
            require(err <= checks.COINCIDENCE_TOL, f"coincidence error {err:.3g}")

        def redim2d():
            profile = state["profile"]
            grad = redim.gradient_estimate_from_profile(profile, "2d")
            manifold = checks.read_manifold2d(paths["redim2d"], grad)
            residual = checks.redim2d_residual(model, manifold)
            err = checks.containment_error(profile.states, manifold)
            rep.values.update({"redim.r2d_residual": residual, "containment_err": err})
            require(residual < config.redim_tol, f"REDIM-2D residual {residual:.3g}")
            require(err <= checks.CONTAINMENT_TOL, f"containment error {err:.3g}")

        def fasttime_rows():
            rows = checks.read_rows(paths["fasttime"])   # rows: ode, pde
            ratios = rows[:, 5]
            rep.values.update({"fasttime.ratio_max": float(ratios.max()),
                               "fasttime.K": float(rows[-1, 1])})
            require(bool(np.all(ratios <= 1.0)), f"default-start ratio {ratios.max():.3g} > 1")
            require(bool(np.all(np.isfinite(rows))), "non-finite fast-time row")

        for name, fn in zip(self.artifacts, (gql_report, slow_manifold, stationary_profile,
                                             redim1d, redim2d, fasttime_rows)):
            rep.check(name, fn)


# ---------------------------------------------------------------------------
# refine: the stationary profile on three grids
# ---------------------------------------------------------------------------

class Refine:
    name = "refine"

    def prepare(self, seed, model):
        z_eq = models.equilibrium(model, _box_midpoint(model))
        return pde.BoundaryConditions(left_state=z_eq, right_state=np.array(RIGHT_STATE))

    def run(self, rep: Rep, ctx: Context, bc) -> None:
        profiles = {}
        for n in REFINE_NODES:
            name = f"steady.n{n}"
            settings = pde.SolverSettings(node_count=n)
            result = rep.solve(name, pde.integrate_to_steady, ctx.model, bc, settings)
            if result is None:
                continue
            profiles[n] = result.profile
            rep.values[f"pde.steps.n{n}"] = result.steps

            def steady(n=n, profile=result.profile, tol=settings.steady_tol):
                residual = checks.profile_residual(ctx.check_model, profile)
                rep.values[f"pde.residual.n{n}"] = residual
                require(residual < tol, f"N={n} residual {residual:.3g}")
            rep.check(name, steady)

        def grid():
            coarse, mid, fine = (profiles[n] for n in REFINE_NODES)
            err = checks.grid_difference(mid, fine)
            rep.values["grid_err"] = err
            rep.values["pde.grid_order"] = math.log2(checks.grid_difference(coarse, mid) / err)
            require(err <= checks.GRID_TOL, f"grid error {err:.3g}")
        rep.check(f"steady.n{REFINE_NODES[-1]}", grid)


# ---------------------------------------------------------------------------
# transient: GQL, a fine slow mesh and fast-time transients from seeded starts
# ---------------------------------------------------------------------------

def start_states(seed, model, dec, count=TRANSIENT_STARTS):
    """``count`` states drawn uniformly from the working box by ``seed``,
    rejecting any already inside the slow neighbourhood."""
    rng = np.random.default_rng(seed)
    lo, hi = (np.asarray(b, dtype=float) for b in model.working_box)
    out = []
    while len(out) < count:
        z = rng.uniform(lo, hi)
        if not fasttime.slow_neighborhood_test(dec, model, z):
            out.append(z)
    return np.array(out)


class Transient:
    name = "transient"

    def prepare(self, seed, model):
        z_eq = models.equilibrium(model, _box_midpoint(model))
        return start_states(seed, model, _split(model, z_eq))

    def run(self, rep: Rep, ctx: Context, starts) -> None:
        model, check_model = ctx.model, ctx.check_model
        seeded = [f"ode.seed{k}" for k in range(len(starts))]
        later = ["gql_split", "mesh", "ode.default", *seeded, "pde.n401"]

        z_eq = rep.solve("equilibrium", models.equilibrium, model, _box_midpoint(model))
        if z_eq is None:
            rep.fail(later, "no equilibrium")
            return

        def equilibrium():
            residual = float(np.abs(core.eval_source(check_model, z_eq)).max())
            require(residual < EQUILIBRIUM_TOL, f"equilibrium residual {residual:.3g}")
        rep.check("equilibrium", equilibrium)

        dec = rep.solve("gql_split", _split, model, z_eq)
        if dec is None:
            rep.fail(later, "no fast/slow split")
            return
        rep.check("gql_split", _check_split, dec, MIN_GAP_RATIO)

        def mesh_solve():
            grid = gql.default_slow_grid(dec, model, TRANSIENT_MESH_POINTS)
            return grid, gql.slow_manifold_mesh(dec, model, grid, tol=1e-10,
                                                U0=dec.Zt_f @ z_eq)
        solved = rep.solve("mesh", mesh_solve)

        def mesh():
            grid, result = solved
            residual = checks.mesh_residual(dec, check_model, result.states[result.converged])
            rep.values.update({"gql.mesh_fibers": grid.shape[0],
                               "gql.mesh_converged_frac": float(result.converged.mean()),
                               "gql.mesh_residual": residual})
            require(residual < 1e-10, f"mesh residual {residual:.3g}")
        rep.check("mesh", mesh)

        ratios = []

        def ratio_at_most_one(report):
            ratios.append(report.ratio)
            require(report.ratio <= 1.0, f"default-start ratio {report.ratio:.3g} > 1")

        def ratio_finite(report):
            ratios.append(report.ratio)   # a finite ratio above 1 is recorded, not failed
            require(math.isfinite(report.ratio), "non-finite fast-time ratio")

        report = rep.solve("ode.default", fasttime.measure_fast_time_ode, dec, model,
                           np.array(RIGHT_STATE))
        rep.check("ode.default", ratio_at_most_one, report)
        for name, z0 in zip(seeded, starts):
            report = rep.solve(name, fasttime.measure_fast_time_ode, dec, model, z0)
            rep.check(name, ratio_finite, report)

        bc = pde.BoundaryConditions(left_state=z_eq, right_state=np.array(RIGHT_STATE))
        report = rep.solve("pde.n401", fasttime.measure_fast_time_pde, dec, model, bc,
                           pde.SolverSettings(node_count=TRANSIENT_PDE_NODES), x0=TRANSIENT_X0)

        def pde_report():
            ratio_at_most_one(report)
            rep.values["fasttime.K"] = report.K
            require(math.isfinite(report.K), "non-finite K")
        rep.check("pde.n401", pde_report)
        if ratios:
            rep.values["fasttime.ratio_max"] = float(max(ratios))
            rep.values["fasttime.ratios_above_1"] = sum(r > 1.0 for r in ratios)


WORKLOADS = {w.name: w for w in (Study(), Refine(), Transient())}
