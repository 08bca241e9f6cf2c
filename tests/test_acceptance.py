"""Acceptance suite: one test per criterion, each printing a PASS line.

Wall-clock budgets are asserted against the recorded duration of the actual
computation (session fixtures time their first evaluation)."""

import json
import time
from pathlib import Path

import numpy as np
import pytest

from fastslow.core import Grid1D, SpatialProfile, eval_full_rhs, laplacian
from fastslow.fasttime import measure_fast_time_ode
from fastslow.gql import build_surrogate, spectral_split
from fastslow.models import linear_model
from fastslow.redim import local_diffusion_1d, tangent_projector

YEQ = np.sqrt(3.0) - 1.0
Z_RIGHT = np.array([2.0, 0.0, 1.0])


def _ok(n, msg):
    print(f"ACCEPTANCE {n}: PASS - {msg}")


def test_acceptance_01_equilibrium_oracle(mm_eq):
    z, seconds = mm_eq
    assert z == pytest.approx([0.0, YEQ, YEQ], abs=1e-10)
    assert seconds < 1.0
    _ok(1, f"equilibrium (0, sqrt(3)-1, sqrt(3)-1) within 1e-10 in {seconds:.3f}s")


def test_acceptance_02_gql_exactness_linear():
    t0 = time.perf_counter()
    V = np.array([[1.0, 0.0, 0.3], [0.0, 1.0, -0.2], [0.5, 0.4, 1.0]]).T
    lam = np.array([-0.2, -0.5, -30.0])
    A = V @ np.diag(lam) @ np.linalg.inv(V)
    model = linear_model(A, np.zeros(3))
    rng = np.random.default_rng(101)
    samples = rng.normal(size=(3, 3)) + 2.0 * np.eye(3)
    T = build_surrogate(model, samples)
    assert np.linalg.norm(T - A) <= 1e-10
    dec = spectral_split(T)
    assert np.abs(dec.Zt_f @ T @ dec.Z_s).max() <= 1e-8
    assert np.abs(dec.Zt_s @ T @ dec.Z_f).max() <= 1e-8
    assert abs(dec.epsilon - 0.5 / 30.0) <= 1e-12
    seconds = time.perf_counter() - t0
    assert seconds < 1.0
    _ok(2, f"surrogate recovers A, epsilon analytic, in {seconds:.3f}s")


def test_acceptance_03_gql_on_enzyme_model(mm_dec):
    dec, seconds = mm_dec
    assert dec.n_f == 1
    mags = np.abs(dec.eigenvalues)
    gap = mags[dec.split_index] / mags[dec.split_index - 1]
    assert gap >= 10.0
    assert seconds < 1.0
    _ok(3, f"n_f = 1 with gap {gap:.1f} >= 10 in {seconds:.3f}s")


def test_acceptance_04_laplacian_order():
    t0 = time.perf_counter()
    errs = []
    for n in (101, 201):
        g = Grid1D(n)
        profile = SpatialProfile(g, np.sin(np.pi * g.nodes)[:, None])
        errs.append(max(
            abs(laplacian(profile, i)[0] + np.pi ** 2 * np.sin(np.pi * g.nodes[i]))
            for i in range(1, n - 1)
        ))
    ratio = errs[0] / errs[1]
    assert 3.7 <= ratio <= 4.3
    seconds = time.perf_counter() - t0
    assert seconds < 1.0
    _ok(4, f"sin(pi x) error ratio {ratio:.4f} in [3.7, 4.3] in {seconds:.3f}s")


def test_acceptance_05_stationary_profile(steady_101, steady_201, mm_model, mm_bc, mm_eq):
    result, s101 = steady_101
    fine, s201 = steady_201
    interior = max(
        np.abs(eval_full_rhs(mm_model, result.profile, i)).max()
        for i in range(1, result.profile.grid.node_count - 1)
    )
    assert interior < 1e-8
    assert np.abs(fine.profile.states[::2] - result.profile.states).max() <= 1e-3
    assert np.array_equal(result.profile.states[0], mm_bc.left_state)
    assert np.array_equal(result.profile.states[-1], Z_RIGHT)
    assert result.profile.states[0] == pytest.approx([0.0, YEQ, YEQ], abs=1e-10)
    assert s101 + s201 < 0.4
    _ok(5, f"residual {interior:.2e} < 1e-8, refinement <= 1e-3, endpoints exact, "
           f"in {s101 + s201:.3f}s")


def test_acceptance_06_redim1d_coincides_with_profile(redim1d_mm, steady_101):
    man, seconds = redim1d_mm
    prof = steady_101.value.profile.states
    Ym = np.interp(prof[:, 0], man.theta_grid, man.states[:, 1])
    Zm = np.interp(prof[:, 0], man.theta_grid, man.states[:, 2])
    dist = np.sqrt((prof[:, 1] - Ym) ** 2 + (prof[:, 2] - Zm) ** 2).max()
    assert dist <= 1e-2
    assert seconds < 0.15
    _ok(6, f"1-D manifold within {dist:.2e} of stationary profile in {seconds:.3f}s")


def test_acceptance_07_redim2d_contains_profile(redim2d_mm, steady_101):
    from scipy.interpolate import RegularGridInterpolator
    man, seconds = redim2d_mm
    itp = RegularGridInterpolator((man.theta1_grid, man.theta2_grid), man.Z_values)
    prof = steady_101.value.profile.states
    pts = np.clip(prof[:, :2], [man.theta1_grid[0], man.theta2_grid[0]],
                  [man.theta1_grid[-1], man.theta2_grid[-1]])
    dist = np.abs(itp(pts) - prof[:, 2]).max()
    assert dist <= 2e-2
    assert seconds < 3.0
    _ok(7, f"stationary profile within {dist:.2e} of 2-D manifold in {seconds:.1f}s")


def test_acceptance_08_projector_suite(redim1d_mm, mm_model):
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)
    checked = 0
    while checked < 1000:
        m = int(rng.integers(1, 3))
        P = rng.normal(size=(3, m))
        if np.linalg.cond(P.T @ P) > 1e8:
            continue
        proj = tangent_projector(P)
        assert np.abs(proj @ proj - proj).max() <= 1e-12
        assert np.abs(proj - proj.T).max() <= 1e-12
        assert np.abs(proj @ P).max() <= 1e-12
        checked += 1
    man = redim1d_mm.value
    dth = man.spacing
    worst = 0.0
    for j in range(1, man.theta_grid.shape[0] - 1):
        Y_t = (man.states[j + 1, 1] - man.states[j - 1, 1]) / (2 * dth)
        Z_t = (man.states[j + 1, 2] - man.states[j - 1, 2]) / (2 * dth)
        G = mm_model.source(man.states[j]) + local_diffusion_1d(man, mm_model, j)
        PG = tangent_projector(np.array([1.0, Y_t, Z_t])) @ G
        worst = max(worst, float(np.abs(PG).max()))
    assert worst <= 1e-6
    seconds = time.perf_counter() - t0
    assert seconds < 5.0
    _ok(8, f"1000 projector triples to 1e-12; projected residual {worst:.2e} <= 1e-6 "
           f"in {seconds:.1f}s")


def test_acceptance_09_fast_time_bounds(fasttime_ode_mm, fasttime_pde_mm):
    t0 = time.perf_counter()
    eps = 1e-4
    A = np.diag([-eps, -1.0])
    model = linear_model(A, np.zeros(2))
    dec = spectral_split(A)
    report = measure_fast_time_ode(dec, model, np.array([1.0, 1.0]))
    dt_slow = (eps / 20.0 / dec.slow_rate) * dec.slow_rate
    t_exact = eps * np.log(1.0 / np.sqrt(eps))
    assert abs(report.t_enter - t_exact) <= 0.1 * dt_slow
    proto_seconds = time.perf_counter() - t0

    rep_ode, s_ode = fasttime_ode_mm
    rep_pde, s_pde = fasttime_pde_mm
    assert rep_ode.ratio <= 1.0
    assert rep_pde.ratio <= 1.0
    assert rep_pde.K <= 3.0
    total = proto_seconds + s_ode + s_pde
    assert total < 0.4
    _ok(9, f"prototype within 0.1dt; ode ratio {rep_ode.ratio:.3f}, pde ratio "
           f"{rep_pde.ratio:.3f}, K = {rep_pde.K:.2f} <= 3, in {total:.3f}s")


def test_acceptance_10_pipeline_determinism(tmp_path):
    from fastslow.cli import RunConfig, run_pipeline
    config = RunConfig(nodes=51, mesh_points_per_axis=10,
                       redim1d_points=41, redim2d_points=(21, 21))
    a = run_pipeline(config, str(tmp_path / "a"))
    b = run_pipeline(config, str(tmp_path / "b"))
    assert set(a) == {"gql_report", "slow_manifold", "stationary_profile",
                      "redim1d", "redim2d", "fasttime"}
    for name in sorted(a):
        bytes_a = Path(a[name]).read_bytes()
        bytes_b = Path(b[name]).read_bytes()
        assert bytes_a == bytes_b, f"artifact {name} differs between identical runs"
    json.loads(Path(a["gql_report"]).read_text())
    _ok(10, "two identical pipeline runs produced byte-identical artifacts")
