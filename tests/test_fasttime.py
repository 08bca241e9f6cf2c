import dataclasses
from pathlib import Path

import numpy as np
import pytest

from fastslow.core import Grid1D
from fastslow.errors import ContractViolationError, ConvergenceError, DivergenceError
from fastslow.fasttime import (
    GAMMA,
    _default_dt,
    _diffusion_solver,
    fast_residual_norm,
    measure_fast_time_ode,
    measure_fast_time_pde,
    slow_neighborhood_test,
)
from fastslow.gql import spectral_split
from fastslow.models import MichaelisMentenParams, linear_model, michaelis_menten_model
from fastslow.pde import BoundaryConditions, SolverSettings, linear_initial_profile

GOLDEN = Path(__file__).parent / "data" / "golden_fasttime.npz"
REPORTS = Path(__file__).parent / "data" / "golden_fasttime_reports.npz"

YEQ = np.sqrt(3.0) - 1.0
Z_EQ = np.array([0.0, YEQ, YEQ])
Z_RIGHT = np.array([2.0, 0.0, 1.0])


def _prototype(eps):
    """Slow x' = -eps x against fast y' = -y; decomposition epsilon equals eps."""
    A = np.diag([-eps, -1.0])
    return linear_model(A, np.zeros(2)), spectral_split(A)


# ---------------------------------------------------------------------------
# slow neighborhood
# ---------------------------------------------------------------------------

def test_neighborhood_contains_equilibrium(mm_dec, mm_model, mm_eq):
    assert slow_neighborhood_test(mm_dec.value, mm_model, mm_eq.value)


def test_neighborhood_excludes_large_fast_residual():
    A = np.diag([-1.0, -100.0])
    model = linear_model(A, np.zeros(2))
    dec = spectral_split(A)
    assert dec.epsilon == pytest.approx(0.01)
    assert not slow_neighborhood_test(dec, model, np.array([0.0, 1.0]))


def test_neighborhood_contains_mesh_points(mm_mesh, mm_dec, mm_model):
    mesh = mm_mesh.value
    for z in mesh.states[mesh.converged][::7]:
        assert slow_neighborhood_test(mm_dec.value, mm_model, z)


# ---------------------------------------------------------------------------
# scalar prototype: closed-form oracle
# ---------------------------------------------------------------------------

def test_prototype_matches_closed_form():
    eps = 1e-4
    model, dec = _prototype(eps)
    assert dec.epsilon == pytest.approx(eps, rel=1e-12)
    report = measure_fast_time_ode(dec, model, np.array([1.0, 1.0]))
    dt_slow = (eps / 20.0 / dec.slow_rate) * dec.slow_rate  # default step, slow units
    t_exact = eps * np.log(1.0 / np.sqrt(eps))              # eps * ln(|y0| / sqrt(eps))
    assert abs(report.t_enter - t_exact) <= 0.1 * dt_slow   # entry located inside the step
    assert report.y0_distance == pytest.approx(1.0, abs=1e-10)
    assert report.bound == pytest.approx(np.sqrt(2.0 * eps) * 2.0, rel=1e-10)
    assert report.ratio == pytest.approx(0.0163, abs=2e-3)
    assert report.ratio <= 1.0
    assert report.K == 0.0
    assert report.length_ok


def test_prototype_bound_monotone_in_eps():
    reports = []
    for eps in (1e-2, 1e-3, 1e-4):
        A = np.diag([-1.0, -1.0 / eps])
        model = linear_model(A, np.zeros(2))
        dec = spectral_split(A)
        assert dec.epsilon == pytest.approx(eps, rel=1e-9)
        reports.append(measure_fast_time_ode(dec, model, np.array([1.0, 1.0])))
    t = [r.t_enter for r in reports]
    b = [r.bound for r in reports]
    assert t[0] > t[1] > t[2]
    assert b[0] / b[2] == pytest.approx(10.0, rel=1e-6)  # bound ~ sqrt(eps)
    assert all(r.ratio <= 1.0 for r in reports)


def test_start_inside_neighborhood_rejected(mm_dec, mm_model, mm_eq):
    with pytest.raises(ContractViolationError):
        measure_fast_time_ode(mm_dec.value, mm_model, mm_eq.value)


def test_unresolved_dt_rejected():
    model, dec = _prototype(1e-4)
    bad_dt = 2.0 * dec.epsilon / (10.0 * dec.slow_rate)
    with pytest.raises(ContractViolationError):
        measure_fast_time_ode(dec, model, np.array([1.0, 1.0]), dt=bad_dt)


@pytest.mark.parametrize("bad", [
    {"dt": 0.0}, {"dt": -1e-3}, {"dt": np.inf}, {"dt": np.nan},
    {"max_time": 0.0}, {"max_time": -1.0}, {"max_time": np.inf}, {"max_time": np.nan},
], ids=lambda bad: "-".join(f"{k}={v}" for k, v in bad.items()))
def test_step_and_budget_must_be_finite_and_positive(mm_dec, mm_model, bad):
    """A NaN ``max_time`` never ends a loop that does not enter and a NaN
    ``dt`` fails every comparison: both are contract errors up front."""
    with pytest.raises(ContractViolationError, match=next(iter(bad))):
        measure_fast_time_ode(mm_dec.value, mm_model, Z_RIGHT, **bad)


def test_ode_non_entry_within_budget(mm_dec, mm_model):
    with pytest.raises(ConvergenceError):
        measure_fast_time_ode(mm_dec.value, mm_model, Z_RIGHT, max_time=1e-4)


def _stiff_linear():
    """A source rate of -1000 far above the fast scale (fast_rate 1, eps 1e-3):
    the uncapped fast-scale step 0.05 is unstable for its explicit stages."""
    A = np.diag([-1e-3, -1.0, -1000.0])
    return linear_model(A, np.zeros(3), diffusion=np.full(3, 0.01)), spectral_split(A)


def test_unstable_transient_raises_divergence():
    """An explicit step beyond the stability limit of the source stops both
    measurements with DivergenceError, without a numpy overflow warning or a
    contract error on the non-finite source."""
    model, dec = _stiff_linear()
    with pytest.raises(DivergenceError, match="non-finite by t = "):
        measure_fast_time_ode(dec, model, np.ones(3), dt=0.05)
    bc = BoundaryConditions(np.zeros(3), np.ones(3))
    with pytest.raises(DivergenceError, match="non-finite by t = "):
        measure_fast_time_pde(dec, model, bc, SolverSettings(node_count=21), x0=0.5, dt=0.05)


def test_default_step_is_stable_for_the_fastest_source_rate(mm_dec):
    """The default step is capped at 1 / max|lambda|: 1e-3 for the stiff
    linear model, which both measurements then complete.  The enzyme model's
    cap (about 0.48) does not bind its fast-scale step."""
    model, dec = _stiff_linear()
    assert _default_dt(dec) == pytest.approx(1e-3, rel=1e-12)
    bc = BoundaryConditions(np.zeros(3), np.ones(3))
    for report in (measure_fast_time_ode(dec, model, np.ones(3)),
                   measure_fast_time_pde(dec, model, bc, SolverSettings(node_count=21), x0=0.5)):
        assert report.dt == _default_dt(dec)
        assert np.isfinite([report.t_enter, report.bound, report.ratio, report.K]).all()
    mm = mm_dec.value
    assert _default_dt(mm) == mm.epsilon / (20.0 * mm.slow_rate)
    assert 1.0 / np.abs(mm.eigenvalues).max() > 10.0 * _default_dt(mm)


# ---------------------------------------------------------------------------
# Michaelis-Menten transients
# ---------------------------------------------------------------------------

def test_mm_ode_bound_holds(fasttime_ode_mm):
    report = fasttime_ode_mm.value
    assert report.ratio <= 1.0
    assert report.K == 0.0
    assert report.t_enter > 0.0 and report.bound > 0.0
    assert report.length_ok


def test_mm_pde_bound_holds(fasttime_pde_mm):
    report = fasttime_pde_mm.value
    assert report.ratio <= 1.0
    assert 0.0 < report.K <= 3.0


def test_pde_zero_diffusion_degenerates_to_ode():
    m0 = michaelis_menten_model(MichaelisMentenParams(delta=0.0))
    from fastslow.gql import build_surrogate, default_sample_states
    from fastslow.models import equilibrium
    eq = equilibrium(m0, [1.0, 0.5, 0.5])
    dec = spectral_split(build_surrogate(m0, default_sample_states(m0, extra=[eq])))
    bc = BoundaryConditions(eq, Z_RIGHT)
    settings = SolverSettings(node_count=101)
    x0 = 0.9
    i0 = round(x0 * 100)
    from fastslow.pde import linear_initial_profile
    z0 = linear_initial_profile(eq, Z_RIGHT, Grid1D(101)).states[i0]
    dt = 0.005
    rep_pde = measure_fast_time_pde(dec, m0, bc, settings, x0=x0, dt=dt)
    rep_ode = measure_fast_time_ode(dec, m0, z0, dt=dt)
    assert rep_pde.t_enter == rep_ode.t_enter
    assert rep_pde.y0_distance == rep_ode.y0_distance
    assert rep_pde.bound == rep_ode.bound
    assert rep_pde.K == 0.0
    assert rep_pde.path_length == pytest.approx(rep_ode.path_length, abs=1e-13)


def test_entry_times_match_the_fine_step_reference(mm_dec, mm_model, mm_bc,
                                                   fasttime_ode_mm, fasttime_pde_mm):
    """Default-step entry times against RK4 at dt = 5e-5 (written by
    ``tests/data/make_golden.py --fasttime``); the located entry of the
    second-order step is within 1.5e-3 of it (ODE +9.8e-4, PDE +7.2e-4 at
    N = 101 and +6.9e-4 at N = 401)."""
    golden = np.load(GOLDEN)
    pde401 = measure_fast_time_pde(mm_dec.value, mm_model, mm_bc,
                                   SolverSettings(node_count=401), x0=0.8)
    for report, key in ((fasttime_ode_mm.value, "ode"), (fasttime_pde_mm.value, "pde101"),
                        (pde401, "pde401")):
        assert report.dt == _default_dt(mm_dec.value)
        assert report.t_enter == pytest.approx(float(golden[key]), rel=1.5e-3), key


@pytest.mark.parametrize("mode", ["ode", "pde401"])
def test_entry_time_converges_at_second_order(mm_dec, mm_model, mm_bc, mode):
    """Self-convergence over dt0 / 2^k, k = 0..4: each observed order
    log2(|t_k - t_k+1| / |t_k+1 - t_k+2|) is about 2 (measured 1.90, 2.28,
    1.94 for the ODE and 1.98, 1.94, 1.88 for the PDE at N = 401)."""
    dec = mm_dec.value
    if mode == "ode":
        run = lambda dt: measure_fast_time_ode(dec, mm_model, Z_RIGHT, dt=dt)
    else:
        run = lambda dt: measure_fast_time_pde(dec, mm_model, mm_bc,
                                               SolverSettings(node_count=401), x0=0.8, dt=dt)
    t = np.array([run(_default_dt(dec) / 2 ** k).t_enter for k in range(5)])
    diffs = np.abs(np.diff(t))
    orders = np.log2(diffs[:-1] / diffs[1:])
    assert np.all((1.7 <= orders) & (orders <= 2.4)), orders


def test_transport_is_negligible_in_the_fast_subsystem(mm_dec, mm_model, mm_bc):
    """The paper's central claim: from the same start, the PDE entry time at
    N = 401 differs from the transport-free (ODE) one by at most eps K
    (measured +0.090 % at x0 = 0.2 and +0.49 % at x0 = 0.5, eps K = 1.97e-2).
    Near the right boundary the claim does not hold: at x0 = 0.8 the
    difference is +21.6 %.  That is printed as a finding, not asserted."""
    dec, N = mm_dec.value, 401
    states = linear_initial_profile(mm_bc.left_state, mm_bc.right_state, Grid1D(N)).states
    for x0 in (0.2, 0.5, 0.8):
        pde = measure_fast_time_pde(dec, mm_model, mm_bc, SolverSettings(node_count=N), x0=x0)
        ode = measure_fast_time_ode(dec, mm_model, states[round(x0 * (N - 1))])
        rel = (pde.t_enter - ode.t_enter) / ode.t_enter
        eps_k = dec.epsilon * pde.K
        print(f"x0 = {x0}: PDE vs ODE entry time {rel:+.3%}, eps K = {eps_k:.3g}")
        if x0 < 0.8:
            assert abs(rel) <= eps_k


@pytest.mark.parametrize("N", [3, 401])
def test_implicit_diffusion_stage_holds_the_ends(N):
    """The implicit stage solves (I - GAMMA dt D Lap) x = b on the interior
    with the end rows of b held exactly, per species, including a species
    without diffusion.  At N = 401 the coupling GAMMA dt D / dx^2 is about
    11, so a factorisation that pivoted the held rows would move them."""
    D, dx, dt = np.array([0.01, 0.02, 0.0]), 1.0 / (N - 1), 0.024
    b = np.random.default_rng(N).normal(size=(N, 3))
    x = _diffusion_solver(D, N, dx, dt)(b)
    assert np.array_equal(x[[0, -1]], b[[0, -1]])
    assert np.array_equal(x[:, 2], b[:, 2])
    lap = (x[:-2] - 2.0 * x[1:-1] + x[2:]) / (dx * dx)
    assert np.abs(x[1:-1] - (GAMMA * dt) * D * lap - b[1:-1]).max() <= 1e-12


def test_pde_boundary_x0_rejected(mm_dec, mm_model, mm_bc):
    with pytest.raises(ContractViolationError):
        measure_fast_time_pde(mm_dec.value, mm_model, mm_bc, SolverSettings(), x0=0.9999)
    with pytest.raises(ContractViolationError):
        measure_fast_time_pde(mm_dec.value, mm_model, mm_bc, SolverSettings(), x0=0.0)


def test_pde_node_inside_diffusion_layer_never_enters(mm_dec, mm_model, mm_bc):
    """At x0 = 0.9 the stationary fast residual exceeds the threshold: the
    diffusion-shifted layer keeps that node outside the homogeneous slow
    neighborhood, so entry never happens."""
    with pytest.raises(ConvergenceError):
        measure_fast_time_pde(mm_dec.value, mm_model, mm_bc, SolverSettings(),
                              x0=0.9, max_time=5.0)


def test_pde_evaluates_the_source_twice_per_step(mm_dec, mm_model, mm_bc):
    """Each step evaluates the N - 2 interior nodes once per explicit stage.
    The evaluation of each new state also gives its entry test, its K sample
    and the next step's first stage: 2 (N - 2) source states per step."""
    calls = []

    def source(z):
        calls.append(int(np.prod(np.shape(z)[:-1])))
        return mm_model.source(z)

    counted = dataclasses.replace(mm_model, source=source)
    N = 21
    report = measure_fast_time_pde(mm_dec.value, counted, mm_bc,
                                   SolverSettings(node_count=N), x0=0.5)
    steps = (calls.count(N - 2) - 1) // 2
    assert steps > 0 and report.K > 0.0
    assert report.steps == steps and report.dt == _default_dt(mm_dec.value)
    # the start is tested once, the start state evaluated once before the
    # loop, then each step is its second stage and the new state
    end = 2 + 2 * steps
    assert calls[:end] == [1, N - 2] + [N - 2, N - 2] * steps
    assert sum(calls[2:end]) == steps * 2 * (N - 2)
    assert N - 2 not in calls[end:]  # the fibre anchor evaluates single states


def test_ode_evaluates_the_source_twice_per_step(mm_dec, mm_model):
    """The ODE twin of the PDE call pattern, all on single states: the start
    check, the start's first terms, then each step's second stage and new
    state.  The fibre anchor's (1, 3) calls come after them.  Without
    transport no K is sampled, so K is exactly 0."""
    shapes = []

    def source(z):
        shapes.append(np.shape(z))
        return mm_model.source(z)

    counted = dataclasses.replace(mm_model, source=source)
    report = measure_fast_time_ode(mm_dec.value, counted, Z_RIGHT)
    end = 2 + 2 * report.steps
    assert report.steps > 0 and report.K == 0.0
    assert shapes.count((3,)) == end
    assert shapes[:end] == [(3,)] * end
    assert shapes[end:] and set(shapes[end:]) == {(1, 3)}


def test_reports_match_the_pinned_reports(mm_dec, mm_model, mm_bc):
    """Default-step reports of the ODE from (2, 0, 1) and 64 seeded starts and
    of the PDE at (N, x0) = (101, 0.8), (401, 0.2), (401, 0.5) and
    (401, 0.8), against ``tests/data/make_golden.py --reports``: the same
    step counts, every float field within 1e-12 relative."""
    golden = np.load(REPORTS)
    fields = [str(f) for f in golden["fields"]]
    dec = mm_dec.value
    cases = {
        "ode": [measure_fast_time_ode(dec, mm_model, z0) for z0 in golden["starts"]],
        "pde": [measure_fast_time_pde(dec, mm_model, mm_bc, SolverSettings(node_count=int(n)),
                                      x0=float(x0)) for n, x0 in golden["pde_cases"]],
    }
    for key, reports in cases.items():
        assert [r.steps for r in reports] == golden[f"{key}_steps"].tolist(), key
        floats = np.array([[getattr(r, f) for f in fields] for r in reports])
        np.testing.assert_allclose(floats, golden[key], rtol=1e-12, atol=0.0, err_msg=key)


def test_source_turning_non_finite_raises_divergence():
    """A source that turns NaN once the fast component has fallen below 0.5,
    half way to the slow neighborhood, stops both measurements with
    DivergenceError, not with a contract error on the non-finite source."""
    A = np.diag([-1e-4, -1.0])
    model = linear_model(A, np.zeros(2), diffusion=np.full(2, 0.01))
    dec = spectral_split(A)
    broken = dataclasses.replace(
        model, source=lambda z: np.where(z[..., 1:] < 0.5, np.nan, model.source(z)))
    with pytest.raises(DivergenceError, match="non-finite by t = "):
        measure_fast_time_ode(dec, broken, np.ones(2))
    bc = BoundaryConditions(np.ones(2), np.ones(2))
    with pytest.raises(DivergenceError, match="non-finite by t = "):
        measure_fast_time_pde(dec, broken, bc, SolverSettings(node_count=21), x0=0.5)


def test_fast_residual_norm_scale(mm_dec, mm_model):
    # near the manifold the normalized residual tracks fast-coordinate distance
    g = fast_residual_norm(mm_dec.value, mm_model, Z_RIGHT)
    assert g > np.sqrt(mm_dec.value.epsilon)
