"""Tests of the benchmark's own machinery.

Run from the repository root:  python3 -m pytest -q perfbench
"""

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

from fastslow import cli, fasttime, models, pde, redim  # noqa: E402

import checks  # noqa: E402
import layers  # noqa: E402
import workloads  # noqa: E402
from tracer import HOOKS, Hook, Tracer, self_times  # noqa: E402
from workloads import Context, Rep  # noqa: E402

TINY = cli.RunConfig(nodes=21, mesh_points_per_axis=5, redim1d_points=21,
                     redim2d_points=(11, 11))


class FakeClock:
    def __init__(self, times):
        self.times = iter(times)

    def __call__(self):
        return next(self.times)


def test_self_times_of_nested_spans():
    spans = [
        ["a", "cli", 0.0, 10.0, -1],
        ["b", "gql", 1.0, 4.0, 0],
        ["c", "gql", 2.0, 3.0, 1],
        ["d", "pde", 5.0, 9.0, 0],
    ]
    own = self_times(spans, {3: 1.0, 0: 0.5})
    assert own == pytest.approx([10 - 3 - 4 - 0.5, 3 - 1, 1, 4 - 1])


def test_tracer_layer_self_and_outermost_inclusive():
    tracer = Tracer(clock=FakeClock([0.0, 1.0, 2.0, 4.0, 6.0, 7.0, 7.0, 10.0]))
    outer = tracer.open("cli.write_mesh_csv", "cli")     # 0
    inner = tracer.open("cli.write_rows_csv", "cli")     # 1
    tracer.close(inner)                                  # 2
    tracer.add_kernel("source", 5, 0.5)
    solve = tracer.open("pde.integrate_to_steady", "pde")  # 4
    tracer.close(solve)                                  # 6
    tracer.close(outer)                                  # 7
    last = tracer.open("cli.write_rows_csv", "cli")      # 7
    tracer.close(last)                                   # 10
    writers = {"cli.write_mesh_csv", "cli.write_rows_csv"}
    assert tracer.inclusive(writers, outermost=True) == pytest.approx(7 + 3)
    assert tracer.inclusive(writers) == pytest.approx(7 + 1 + 3)
    self_by_layer = tracer.layer_self()
    assert self_by_layer["cli"] == pytest.approx((7 - 1 - 2 - 0.5) + 1 + 3)
    assert self_by_layer["pde"] == pytest.approx(2)
    assert self_by_layer["core"] == pytest.approx(0.5)
    assert tracer.kernel_totals("source", under={"cli.write_mesh_csv"}) == (5, 0.5)
    assert tracer.kernel_totals("source", under={"pde.integrate_to_steady"}) == (0, 0.0)


def test_kernel_counters_match_the_rk4_call_pattern():
    # integrate_to_steady evaluates the source 4 times per step on the N-2
    # interior nodes plus once at the final check, and the Jacobian on all
    # N nodes every 100 steps except at the final check.
    n = 11
    z_eq = models.equilibrium(models.michaelis_menten_model(), [1.0, 0.5, 0.5])
    bc = pde.BoundaryConditions(z_eq, np.array([2.0, 0.0, 1.0]))
    with Tracer() as tracer:
        model = models.michaelis_menten_model()
        result = pde.integrate_to_steady(model, bc, pde.SolverSettings(node_count=n))
    source, _ = tracer.kernel_totals("source")
    jac, _ = tracer.kernel_totals("jac")
    assert source == (n - 2) * (4 * result.steps + 1)
    assert jac == n * (result.steps // 100)
    assert tracer.results["pde.integrate_to_steady"] == [result]


def test_hooks_reach_direct_imports_and_are_restored():
    original = cli.measure_fast_time_ode
    assert original is fasttime.measure_fast_time_ode
    with Tracer():
        assert cli.measure_fast_time_ode is not original
        assert cli.measure_fast_time_ode.__wrapped__ is original
    assert cli.measure_fast_time_ode is original


def test_missing_hook_is_unmeasured_not_fatal():
    tracer = Tracer()
    tracer.install([Hook("gql", "fastslow.gql", "slow_manifold_mesh_renamed"),
                    Hook("redim", "fastslow.no_such_module", "evolve")])
    tracer.uninstall()
    assert tracer.unmeasured == {"gql.slow_manifold_mesh_renamed", "redim.evolve"}
    tracer.unmeasured = {"gql.slow_manifold_mesh"}
    metrics = layers.derive(tracer, {}, 0.0)
    assert metrics["gql.mesh_s"] is None
    assert metrics["gql.mesh_source_states"] is None
    assert metrics["pde.steady_s"] == 0


def test_tiny_study_traced_matches_untraced(tmp_path):
    plain = models.michaelis_menten_model()
    untraced = Rep()
    workloads.Study().run(untraced, Context(plain, plain, str(tmp_path)), TINY)
    with Tracer() as tracer:
        counted = models.michaelis_menten_model()
        tracer.clear()
        traced = Rep(tracer)
        workloads.Study().run(traced, Context(counted, plain, str(tmp_path)), TINY)
    assert untraced.failures == {} and traced.failures == {}
    assert untraced.attempted == traced.attempted == 6
    assert traced.values["hashes"] == untraced.values["hashes"]
    recorded = {span[0] for span in tracer.spans}
    assert recorded >= {h.key for h in HOOKS}
    metrics = layers.derive(tracer, traced.values, traced.wall_s - untraced.wall_s)
    assert all(v is not None for v in metrics.values())
    assert metrics["core.source_states"] == (
        metrics["gql.mesh_source_states"] + metrics["pde.source_states"]
        + metrics["redim.r1d_source_states"] + metrics["redim.r2d_source_states"]
        + metrics["fasttime.source_states"]
        + tracer.kernel_totals("source", under={"cli.run_gql"})[0])
    assert metrics["pde.steps"] > 0 and metrics["gql.mesh_fibers"] == 25


def test_failed_check_is_counted(tmp_path):
    rep = Rep()
    assert rep.solve("ok", lambda: 1) == 1
    rep.check("ok", workloads.require, False, "missed")
    assert rep.solve("raises", lambda: 1 / 0) is None
    rep.check("raises", workloads.require, True, "skipped: already failed")
    assert rep.solve("fine", lambda: 2) == 2
    rep.check("fine", workloads.require, True, "")
    assert rep.attempted == 3
    assert set(rep.failures) == {"ok", "raises"}

    # a model that disagrees with the one solved for fails the residual checks
    wrong = models.michaelis_menten_model(models.MichaelisMentenParams(L3=0.06))
    rep = Rep()
    workloads.Study().run(rep, Context(wrong, wrong, str(tmp_path)), TINY)
    assert rep.attempted == 6
    assert {"slow_manifold", "stationary_profile", "redim1d", "redim2d"} <= set(rep.failures)


def test_redim2d_check_covers_the_free_theta2_edges():
    # Re-solving with every edge pinned at perturbed theta2-edge values
    # leaves the interior stationary for those Dirichlet data, but the
    # edges, which the pipeline's solver relaxes, are not: the check fails.
    model = models.michaelis_menten_model()
    z_eq = models.equilibrium(model, [1.0, 0.5, 0.5])
    bc = pde.BoundaryConditions(z_eq, np.array(workloads.RIGHT_STATE))
    profile = pde.integrate_to_steady(model, bc, pde.SolverSettings(node_count=21)).profile
    lo, hi = model.working_box
    setup = dict(theta1_range=(lo[0], hi[0]), theta2_range=(lo[1], hi[1]), M1=11, M2=11,
                 grad=redim.gradient_estimate_from_profile(profile, "2d"),
                 anchor_values=(float(z_eq[2]), workloads.RIGHT_STATE[2]))
    solved = redim.evolve_redim_2d(model, **setup)
    assert checks.redim2d_residual(model, solved) < 1e-8
    edges_moved = solved.Z_values.copy()
    edges_moved[1:-1, [0, -1]] += 1e-3
    pinned = redim.evolve_redim_2d(model, **setup, initial_z=edges_moved, hold="all")
    assert checks.redim2d_residual(model, pinned) > 1e-4


def test_start_states_are_reproducible_and_outside_the_slow_neighbourhood():
    model = models.michaelis_menten_model()
    z_eq = models.equilibrium(model, [1.0, 0.5, 0.5])
    dec = workloads._split(model, z_eq)
    a = workloads.start_states(7, model, dec, count=16)
    b = workloads.start_states(7, model, dec, count=16)
    c = workloads.start_states(8, model, dec, count=16)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    lo, hi = model.working_box
    assert np.all(a >= lo) and np.all(a <= hi)
    assert not any(fasttime.slow_neighborhood_test(dec, model, z) for z in a)


def test_benchmark_json_mirrors_the_catalogue():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    for key, catalogue in (("end_to_end", layers.END_TO_END), ("per_layer", layers.PER_LAYER)):
        assert [(m["name"], m["unit"], m["better"]) for m in spec[key]] == \
            [(m.name, m.unit, m.better) for m in catalogue]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())


@pytest.mark.parametrize("workload", ["study", "all"])
def test_run_refuses_a_directory_without_sources(tmp_path, workload):
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", workload,
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2
    assert proc.stdout == ""
