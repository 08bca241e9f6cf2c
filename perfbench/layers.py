"""Metric catalogue and the derivation of per-layer metrics from a trace.

Every metric the benchmark prints is listed here with its unit, the
direction that is better, the layer it belongs to and the end-to-end metric
(on the named workloads) that it should move.  BENCHMARK.json mirrors the
names, units and directions; a test keeps the two in step.
"""

from __future__ import annotations

from dataclasses import dataclass

from tracer import WRITERS


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    layer: str
    moves: str = ""          # the end-to-end metric this one should move
    needs: tuple = ()        # hook keys it is derived from


END_TO_END = (
    Metric("wall_s", "s", "lower", "end-to-end",
           "median over the run's repetitions of the time to the workload's "
           "solutions; checks are not timed"),
    Metric("setup_s", "s", "lower", "end-to-end",
           "median over separate processes of import plus model construction"),
    Metric("peak_rss_mb", "MB", "lower", "end-to-end",
           "peak resident memory of the benchmark process"),
)

_CORE = ("models.michaelis_menten_model",)
_PDE = ("pde.integrate_to_steady",)
_ALL = "wall_s on every workload"
_STUDY = "wall_s on study"
_TRANSIENT = "wall_s on transient"
_REFINE = "wall_s on refine (all of it) and study (about 13 %)"

PER_LAYER = (
    Metric("core.source_states", "count", "lower", "core", _ALL, _CORE),
    Metric("core.source_s", "s", "lower", "core", _ALL, _CORE),
    Metric("core.jac_states", "count", "lower", "core", _ALL, _CORE),
    Metric("core.jac_s", "s", "lower", "core", _ALL, _CORE),
    Metric("core.self_s", "s", "lower", "core", _ALL, _CORE),
    Metric("models.equilibrium_s", "s", "lower", "models", _ALL, ("models.equilibrium",)),
    Metric("models.self_s", "s", "lower", "models", _ALL),
    Metric("gql.split_s", "s", "lower", "gql", _TRANSIENT,
           ("gql.build_surrogate", "gql.spectral_split")),
    Metric("gql.mesh_s", "s", "lower", "gql", _TRANSIENT, ("gql.slow_manifold_mesh",)),
    Metric("gql.mesh_fibers", "count", "higher", "gql", _TRANSIENT),
    Metric("gql.mesh_converged_frac", "ratio", "higher", "gql", _TRANSIENT),
    Metric("gql.mesh_source_states", "count", "lower", "gql", _TRANSIENT,
           ("gql.slow_manifold_mesh",) + _CORE),
    Metric("gql.mesh_residual", "1", "lower", "gql", _TRANSIENT),
    Metric("gql.self_s", "s", "lower", "gql", _TRANSIENT),
    Metric("pde.steady_s", "s", "lower", "pde", _REFINE, _PDE),
    Metric("pde.steps", "count", "lower", "pde", _REFINE, _PDE),
    Metric("pde.source_states", "count", "lower", "pde", _REFINE, _PDE + _CORE),
    Metric("pde.residual", "1", "lower", "pde", _REFINE),
    *(Metric(f"{base}.n{n}", unit, "lower", "pde", "wall_s on refine", needs)
      for n in (51, 101, 201)
      for base, unit, needs in (("pde.steady_s", "s", ()),
                                ("pde.steps", "count", ()),
                                ("pde.source_states", "count", _CORE),
                                ("pde.residual", "1", ()))),
    Metric("pde.grid_order", "1", "higher", "pde", "wall_s on refine"),
    Metric("pde.self_s", "s", "lower", "pde", _REFINE),
    Metric("redim.grad_s", "s", "lower", "redim", _STUDY,
           ("redim.gradient_estimate_from_profile",)),
    Metric("redim.r1d_s", "s", "lower", "redim", _STUDY, ("redim.evolve_redim_1d",)),
    Metric("redim.r1d_source_states", "count", "lower", "redim", _STUDY,
           ("redim.evolve_redim_1d",) + _CORE),
    Metric("redim.r1d_residual", "1", "lower", "redim", _STUDY),
    Metric("redim.r2d_s", "s", "lower", "redim", _STUDY + " and peak_rss_mb",
           ("redim.evolve_redim_2d",)),
    Metric("redim.r2d_source_states", "count", "lower", "redim", _STUDY,
           ("redim.evolve_redim_2d",) + _CORE),
    Metric("redim.r2d_residual", "1", "lower", "redim", _STUDY),
    Metric("redim.self_s", "s", "lower", "redim", _STUDY),
    Metric("fasttime.ode_s", "s", "lower", "fasttime", _TRANSIENT,
           ("fasttime.measure_fast_time_ode",)),
    Metric("fasttime.pde_s", "s", "lower", "fasttime", _TRANSIENT,
           ("fasttime.measure_fast_time_pde",)),
    Metric("fasttime.source_states", "count", "lower", "fasttime", _TRANSIENT,
           ("fasttime.measure_fast_time_ode", "fasttime.measure_fast_time_pde") + _CORE),
    Metric("fasttime.ratio_max", "1", "lower", "fasttime", _TRANSIENT),
    Metric("fasttime.ratios_above_1", "count", "lower", "fasttime", _TRANSIENT),
    Metric("fasttime.K", "1", "lower", "fasttime", _TRANSIENT),
    Metric("fasttime.self_s", "s", "lower", "fasttime", _TRANSIENT),
    Metric("cli.write_s", "s", "lower", "cli", _STUDY, tuple(sorted(WRITERS))),
    Metric("cli.bytes_written", "bytes", "lower", "cli", _STUDY),
    Metric("cli.self_s", "s", "lower", "cli", _STUDY, ("cli.run_pipeline",)),
    Metric("trace.overhead_s", "s", "lower", "trace",
           "none: traced minus untraced wall time of the same repetition"),
    Metric("coincidence_err", "1", "lower", "redim",
           "none: discretisation error, unchanged by a solver reaching the same fixed point"),
    Metric("containment_err", "1", "lower", "redim",
           "none: discretisation error, unchanged by a solver reaching the same fixed point"),
    Metric("grid_err", "1", "lower", "pde",
           "none: discretisation error, unchanged by a solver reaching the same fixed point"),
)

SELF_LAYERS = ("core", "models", "gql", "pde", "redim", "fasttime", "cli")


def derive(tracer, values: dict, overhead_s: float) -> dict:
    """Every per-layer metric of a traced repetition, by name.

    ``values`` are the quantities the checks computed.  A metric of a stage
    the workload does not run reads 0; one whose hook target is missing
    reads None (unmeasured).
    """
    out = {m.name: 0 for m in PER_LAYER}
    out.update({k: v for k, v in values.items() if k in out})

    def span_s(*names, outermost=False):
        return tracer.inclusive(set(names), outermost=outermost)

    def states(kernel, *names):
        return tracer.kernel_totals(kernel, under=set(names))[0]

    bench = {s[0] for s in tracer.spans if s[0].startswith("bench.")}
    for kernel in ("source", "jac"):
        n, seconds = tracer.kernel_totals(kernel, under=bench)
        out[f"core.{kernel}_states"] = n
        out[f"core.{kernel}_s"] = seconds
    for layer, seconds in tracer.layer_self().items():
        if layer in SELF_LAYERS:
            out[f"{layer}.self_s"] = seconds

    out["models.equilibrium_s"] = span_s("models.equilibrium", outermost=True)
    out["gql.split_s"] = span_s("gql.build_surrogate", "gql.spectral_split", outermost=True)
    out["gql.mesh_s"] = span_s("gql.slow_manifold_mesh")
    out["gql.mesh_source_states"] = states("source", "gql.slow_manifold_mesh")

    out["pde.steady_s"] = span_s("pde.integrate_to_steady")
    out["pde.steps"] = sum(r.steps for r in tracer.results.get("pde.integrate_to_steady", ()))
    out["pde.source_states"] = states("source", "pde.integrate_to_steady")
    if "pde.residual" not in values:
        per_grid = [v for k, v in values.items() if k.startswith("pde.residual.n")]
        out["pde.residual"] = max(per_grid, default=0)
    for n in (51, 101, 201):
        out[f"pde.steady_s.n{n}"] = span_s(f"bench.steady.n{n}")
        out[f"pde.source_states.n{n}"] = states("source", f"bench.steady.n{n}")

    out["redim.grad_s"] = span_s("redim.gradient_estimate_from_profile")
    out["redim.r1d_s"] = span_s("redim.evolve_redim_1d")
    out["redim.r1d_source_states"] = states("source", "redim.evolve_redim_1d")
    out["redim.r2d_s"] = span_s("redim.evolve_redim_2d")
    out["redim.r2d_source_states"] = states("source", "redim.evolve_redim_2d")

    out["fasttime.ode_s"] = span_s("fasttime.measure_fast_time_ode")
    out["fasttime.pde_s"] = span_s("fasttime.measure_fast_time_pde")
    out["fasttime.source_states"] = states(
        "source", "fasttime.measure_fast_time_ode", "fasttime.measure_fast_time_pde")

    out["cli.write_s"] = span_s(*WRITERS, outermost=True)
    out["trace.overhead_s"] = overhead_s

    for m in PER_LAYER:
        if any(key in tracer.unmeasured for key in m.needs):
            out[m.name] = None
    return out
