import itertools
import json

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from fastslow.cli import main
from fastslow.core import Grid1D, SpatialProfile
from fastslow.errors import (
    BoundaryNodeError,
    ContractViolationError,
    ConvergenceError,
    DegenerateParametrizationError,
    ParametrizationError,
)
from fastslow.models import MichaelisMentenParams, linear_model, michaelis_menten_model
from fastslow.pde import BoundaryConditions, SolverSettings, integrate_to_steady
from fastslow.redim import (
    Manifold1D,
    Manifold2D,
    constant_gradient,
    evolve_redim_1d,
    evolve_redim_2d,
    gradient_estimate_from_profile,
    local_diffusion_1d,
    local_diffusion_2d,
    pseudo_inverse,
    redim_rhs_1d,
    tangent_projector,
)

YEQ = np.sqrt(3.0) - 1.0
Z_EQ = np.array([0.0, YEQ, YEQ])
Z_RIGHT = np.array([2.0, 0.0, 1.0])


# ---------------------------------------------------------------------------
# projector algebra
# ---------------------------------------------------------------------------

def test_pseudo_inverse_unit_column():
    out = pseudo_inverse(np.array([1.0, 0.0, 0.0]))
    assert np.allclose(out, [[1.0, 0.0, 0.0]], atol=1e-15)


def test_pseudo_inverse_ones_column():
    out = pseudo_inverse(np.array([1.0, 1.0, 1.0]))
    assert np.allclose(out, np.full((1, 3), 1.0 / 3.0), atol=1e-15)


def test_pseudo_inverse_orthonormal_pair():
    P = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
    assert np.allclose(pseudo_inverse(P), P.T, atol=1e-15)


def test_pseudo_inverse_left_inverse_property():
    rng = np.random.default_rng(5)
    for _ in range(50):
        P = rng.normal(size=(3, 2))
        pinv = pseudo_inverse(P)
        assert np.abs(pinv @ P - np.eye(2)).max() <= 1e-12


def test_pseudo_inverse_rank_deficient():
    with pytest.raises(DegenerateParametrizationError):
        pseudo_inverse(np.zeros((3, 1)))
    with pytest.raises(DegenerateParametrizationError):
        pseudo_inverse(np.array([[1.0, 1.0], [2.0, 2.0], [0.5, 0.5]]))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("f", [pseudo_inverse, tangent_projector])
def test_projector_algebra_rejects_non_finite_tangents(f, bad):
    """Checked before the Gram condition number, whose SVD does not converge
    on a NaN."""
    with pytest.raises(ContractViolationError, match="finite"):
        f(np.array([[1.0, 0.0], [bad, 1.0], [0.0, 0.0]]))


def test_projector_axis_column():
    P = tangent_projector(np.array([1.0, 0.0, 0.0]))
    assert P == pytest.approx(np.diag([0.0, 1.0, 1.0]))


def test_projector_matches_outer_product_form():
    # rank-one case: I - (1 / |psi|^2) * psi psi^T
    v = np.array([1.3, -0.4, 2.1])
    expect = np.eye(3) - np.outer(v, v) / (v @ v)
    assert tangent_projector(v) == pytest.approx(expect, abs=1e-14)


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 32 - 1), st.integers(min_value=1, max_value=2))
@example(729, 2)  # 1.68e-12 off idempotent when the projector was I - P P^+
def test_projector_identities(seed, m):
    rng = np.random.default_rng(seed)
    P = rng.normal(size=(3, m))
    if np.linalg.cond(P.T @ P) > 1e6:
        return
    proj = tangent_projector(P)
    assert np.abs(proj @ proj - proj).max() <= 1e-12
    assert np.abs(proj - proj.T).max() <= 1e-12
    assert np.abs(proj @ P).max() <= 1e-12


# ---------------------------------------------------------------------------
# gradient estimates
# ---------------------------------------------------------------------------

def test_gradient_from_linear_profile():
    g = Grid1D(21)
    states = np.stack([2.0 * g.nodes, 1.0 - g.nodes, g.nodes], axis=1)
    est = gradient_estimate_from_profile(SpatialProfile(g, states), "1d")
    assert est.chi1(np.linspace(0.0, 2.0, 7)) == pytest.approx(2.0, abs=1e-12)


def test_gradient_constant_profile_rejected():
    profile = SpatialProfile(Grid1D(11), np.ones((11, 3)))
    with pytest.raises(ParametrizationError):
        gradient_estimate_from_profile(profile, "1d")


def test_gradient_2d_components():
    g = Grid1D(21)
    states = np.stack([2.0 * g.nodes, 1.0 - g.nodes, g.nodes], axis=1)
    est = gradient_estimate_from_profile(SpatialProfile(g, states), "2d")
    theta = np.linspace(0.0, 2.0, 5)
    assert est.chi1(theta) == pytest.approx(2.0, abs=1e-12)
    assert est.chi2(theta) == pytest.approx(-1.0, abs=1e-12)


def test_gradient_positive_on_stationary_profile(mm_grad1):
    theta = np.linspace(0.0, 2.0, 101)
    assert np.all(mm_grad1.chi1(theta) > 0.0)


# ---------------------------------------------------------------------------
# local diffusion terms
# ---------------------------------------------------------------------------

def _manifold_from(theta, Y, Z, chi):
    states = np.stack([theta, Y, Z], axis=1)
    return Manifold1D(theta_grid=theta, states=states, chi=np.asarray(chi, dtype=float))


def test_local_diffusion_1d_straight_line_vanishes():
    m = michaelis_menten_model()
    theta = np.linspace(0.0, 2.0, 21)
    man = _manifold_from(theta, 0.7 - 0.35 * theta, 0.7 + 0.15 * theta, np.ones(21))
    for j in (1, 10, 19):
        assert local_diffusion_1d(man, m, j) == pytest.approx(np.zeros(3), abs=1e-12)


def test_local_diffusion_1d_zero_chi():
    m = michaelis_menten_model()
    theta = np.linspace(0.0, 2.0, 11)
    man = _manifold_from(theta, theta ** 2, np.cos(theta), np.zeros(11))
    assert np.all(local_diffusion_1d(man, m, 5) == 0.0)


def test_local_diffusion_1d_quadratic():
    m = michaelis_menten_model()  # delta = 0.01
    theta = np.linspace(0.0, 2.0, 21)
    man = _manifold_from(theta, theta ** 2, np.zeros(21), np.ones(21))
    out = local_diffusion_1d(man, m, 10)
    assert out[0] == 0.0
    assert out[1] == pytest.approx(0.02, abs=1e-12)
    assert out[2] == pytest.approx(0.0, abs=1e-12)


def _manifold2d_from(t1, t2, Z, chi1, chi2):
    C1 = np.full((len(t1), len(t2)), chi1, dtype=float)
    C2 = np.full((len(t1), len(t2)), chi2, dtype=float)
    return Manifold2D(theta1_grid=t1, theta2_grid=t2, Z_values=Z, chi1=C1, chi2=C2)


def test_local_diffusion_2d_planar_vanishes():
    m = michaelis_menten_model()
    t1 = np.linspace(0.0, 2.0, 11)
    t2 = np.linspace(0.0, 1.0, 9)
    Z = 0.3 + 0.2 * t1[:, None] - 0.1 * t2[None, :]
    man = _manifold2d_from(t1, t2, Z, 1.0, 1.0)
    assert local_diffusion_2d(man, m, 5, 4) == pytest.approx(0.0, abs=1e-12)


def test_local_diffusion_2d_quadratic_theta1():
    m = michaelis_menten_model()
    t1 = np.linspace(0.0, 2.0, 11)
    t2 = np.linspace(0.0, 1.0, 9)
    Z = (t1 ** 2)[:, None] + 0.0 * t2[None, :]
    man = _manifold2d_from(t1, t2, Z, 1.0, 0.0)
    assert local_diffusion_2d(man, m, 5, 4) == pytest.approx(0.02, abs=1e-12)


def test_local_diffusion_2d_mixed_term():
    m = michaelis_menten_model()
    t1 = np.linspace(0.0, 2.0, 11)
    t2 = np.linspace(0.0, 1.0, 9)
    Z = t1[:, None] * t2[None, :]
    man = _manifold2d_from(t1, t2, Z, 1.0, 1.0)
    assert local_diffusion_2d(man, m, 5, 4) == pytest.approx(0.02, abs=1e-12)


def test_local_diffusion_boundary_rejected():
    m = michaelis_menten_model()
    theta = np.linspace(0.0, 2.0, 11)
    man = _manifold_from(theta, theta, theta, np.ones(11))
    with pytest.raises(BoundaryNodeError):
        local_diffusion_1d(man, m, 0)


# ---------------------------------------------------------------------------
# graph-form RHS
# ---------------------------------------------------------------------------

def test_rhs_flat_manifold_term_dropout():
    m = michaelis_menten_model()
    theta = np.linspace(0.0, 2.0, 21)
    c, d = 0.4, 0.6
    man = _manifold_from(theta, np.full(21, c), np.full(21, d), np.ones(21))
    for j in (1, 10, 19):
        dY, dZ = redim_rhs_1d(man, m, j)
        phi = m.source(np.array([theta[j], c, d]))
        assert dY == pytest.approx(phi[1], abs=1e-12)
        assert dZ == pytest.approx(phi[2], abs=1e-12)


def test_rhs_projected_equivalence_identity():
    """dY == (PG)_Y - Y_theta (PG)_X and likewise for Z, at any manifold."""
    m = michaelis_menten_model()
    rng = np.random.default_rng(18)
    theta = np.linspace(0.0, 2.0, 31)
    for _ in range(20):
        Y = 0.5 + 0.3 * np.sin(theta * rng.uniform(0.5, 2.0)) + 0.05 * rng.normal(size=31)
        Z = 0.5 + 0.3 * np.cos(theta * rng.uniform(0.5, 2.0)) + 0.05 * rng.normal(size=31)
        man = _manifold_from(theta, Y, Z, np.ones(31))
        j = int(rng.integers(1, 30))
        dth = man.spacing
        Y_t = (man.states[j + 1, 1] - man.states[j - 1, 1]) / (2 * dth)
        Z_t = (man.states[j + 1, 2] - man.states[j - 1, 2]) / (2 * dth)
        G = m.source(man.states[j]) + local_diffusion_1d(man, m, j)
        PG = tangent_projector(np.array([1.0, Y_t, Z_t])) @ G
        dY, dZ = redim_rhs_1d(man, m, j)
        assert dY == pytest.approx(PG[1] - Y_t * PG[0], abs=1e-11)
        assert dZ == pytest.approx(PG[2] - Z_t * PG[0], abs=1e-11)


def test_rhs_vanishes_on_converged_manifold(redim1d_mm, mm_model):
    man = redim1d_mm.value
    M = man.theta_grid.shape[0]
    rates = [redim_rhs_1d(man, mm_model, j) for j in range(1, M - 1)]
    assert max(max(abs(a), abs(b)) for a, b in rates) < 1e-8


def test_projected_residual_vanishes_on_converged_manifold(redim1d_mm, mm_model):
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


# ---------------------------------------------------------------------------
# 1-D relaxation
# ---------------------------------------------------------------------------

def test_redim1d_needs_two_species():
    """The 1-D REDIM relaxes species 2 .. n over species 1: a one-species
    model raises ContractViolationError before any solve (it ended in a
    ValueError from the steady solver's empty residual)."""
    model = linear_model(np.array([[-1.0]]), np.zeros(1))
    with pytest.raises(ContractViolationError, match="2 or more species; model has 1"):
        evolve_redim_1d(model, ([0.0], [1.0]), M=11, grad=constant_gradient(1.0, "1d"))


def test_redim1d_anchors_bit_exact(redim1d_mm, mm_eq):
    man = redim1d_mm.value
    assert np.array_equal(man.states[0], mm_eq.value)
    assert np.array_equal(man.states[-1], Z_RIGHT)
    assert np.array_equal(man.states[:, 0], man.theta_grid)


def test_redim1d_matches_stationary_profile(redim1d_mm, steady_101):
    man = redim1d_mm.value
    prof = steady_101.value.profile.states
    Ym = np.interp(prof[:, 0], man.theta_grid, man.states[:, 1])
    Zm = np.interp(prof[:, 0], man.theta_grid, man.states[:, 2])
    dist = np.sqrt((prof[:, 1] - Ym) ** 2 + (prof[:, 2] - Zm) ** 2)
    assert dist.max() <= 1e-2


def test_redim1d_grid_refinement(mm_model, mm_bc, mm_grad1, redim1d_mm):
    coarse = evolve_redim_1d(mm_model, (mm_bc.left_state, mm_bc.right_state),
                             M=51, grad=mm_grad1)
    fine = redim1d_mm.value
    assert np.abs(fine.states[::2] - coarse.states).max() <= 1e-3


def test_redim1d_coincides_with_the_profile_at_second_order(mm_model, mm_bc):
    """The REDIM-1D on M = N nodes, with chi from the N-node profile, against
    that profile (acceptance 6's distance) for N = 51 to 801: measured
    1.038e-3, 3.259e-4, 9.642e-5, 2.557e-5 and 6.632e-6, observed orders
    1.672, 1.757, 1.915 and 1.947.  The coarse grids are not yet asymptotic,
    so only the two finest orders are held to 2."""
    dists = []
    for n in (51, 101, 201, 401, 801):
        profile = integrate_to_steady(mm_model, mm_bc, SolverSettings(node_count=n)).profile
        man = evolve_redim_1d(mm_model, (mm_bc.left_state, mm_bc.right_state), M=n,
                              grad=gradient_estimate_from_profile(profile, "1d"))
        prof = profile.states
        Ym = np.interp(prof[:, 0], man.theta_grid, man.states[:, 1])
        Zm = np.interp(prof[:, 0], man.theta_grid, man.states[:, 2])
        dists.append(np.sqrt((prof[:, 1] - Ym) ** 2 + (prof[:, 2] - Zm) ** 2).max())
    dists = np.array(dists)
    orders = np.log2(dists[:-1] / dists[1:])
    print("REDIM-1D to profile distances", dists, "orders", orders)
    assert np.all(np.diff(dists) < 0.0)
    assert np.all((1.85 <= orders[-2:]) & (orders[-2:] <= 2.15)), orders


def test_redim2d_contains_the_profile_at_second_order(mm_model, mm_bc):
    """The REDIM-2D on M x M nodes, with chi from the (2M - 1)-node profile,
    against that profile (``perfbench/checks.containment_error``: sup |Z|
    distance at equal (X, Y)) for M = 31, 61 and 121: measured 1.149e-3,
    3.386e-4 and 9.600e-5, observed orders 1.762 and 1.819 (1.880 at M = 241
    outside this suite), the same to these digits whether the sequenced
    levels start with Newton steps (10, 10 + 3, 10 + 3 + 3 steps) or with
    PTC (10, 10 + 6, 10 + 6 + 6).  The orders still rise towards 2, so the
    finest is held to [1.75, 2.15]: 0.07 below the measured value, the upper
    bound that of the REDIM-1D test."""
    from scipy.interpolate import RegularGridInterpolator
    dists = []
    for M in (31, 61, 121):
        prof = integrate_to_steady(mm_model, mm_bc, SolverSettings(node_count=2 * M - 1)).profile
        man = evolve_redim_2d(mm_model, (0.0, 2.0), (0.0, 1.0), M1=M, M2=M,
                              grad=gradient_estimate_from_profile(prof, "2d"),
                              anchor_values=(float(mm_bc.left_state[2]),
                                             float(mm_bc.right_state[2])))
        itp = RegularGridInterpolator((man.theta1_grid, man.theta2_grid), man.Z_values)
        lo = [man.theta1_grid[0], man.theta2_grid[0]]
        hi = [man.theta1_grid[-1], man.theta2_grid[-1]]
        pts = np.clip(prof.states[:, :2], lo, hi)
        dists.append(np.abs(itp(pts) - prof.states[:, 2]).max())
    dists = np.array(dists)
    orders = np.log2(dists[:-1] / dists[1:])
    print("REDIM-2D to profile distances", dists, "orders", orders)
    assert np.all(np.diff(dists) < 0.0)
    assert 1.75 <= orders[-1] <= 2.15, orders


def _straight_line(mm_bc, M):
    """The unsequenced start of an M x M REDIM-2D over theta1 in [0, 2]: Z
    linear in theta1 between the boundary states, constant in theta2."""
    z_lo, z_hi = float(mm_bc.left_state[2]), float(mm_bc.right_state[2])
    t1 = np.linspace(0.0, 2.0, M)
    return np.repeat((z_lo + (z_hi - z_lo) * (t1 - t1[0]) / (t1[-1] - t1[0]))[:, None], M, 1)


def test_sequenced_redim2d_matches_the_unsequenced_solve(mm_model, mm_bc, mm_grad2, redim2d_mm):
    """The 61 x 61 REDIM-2D starts from its 31 x 31 solution, with Newton
    steps; given the straight line as ``initial_z`` it rejects its first
    Newton step and relaxes from there with PTC instead.  Each stops with
    a residual below ``tol`` (4.4e-9 and 1.5e-10).  The node term of the Z rate's Jacobian,
    J_ZZ - Z_X J_XZ - Z_Y J_YZ, lies in [-18.6, -0.22] over the solution, so
    each stop lies within about ``tol / 0.22`` of the fixed point and the two
    within ``2 tol / 0.22`` = 9.1e-8 (measured 7.6e-10).  The held theta1
    edges keep the line, bit for bit."""
    tol, line = 1e-8, _straight_line(mm_bc, 61)
    cold = evolve_redim_2d(mm_model, (0.0, 2.0), (0.0, 1.0), M1=61, M2=61, grad=mm_grad2,
                           tol=tol, initial_z=line)
    seq = redim2d_mm.value.Z_values
    assert np.abs(seq - cold.Z_values).max() <= 2.0 * tol / 0.22
    assert np.array_equal(seq[[0, -1]], line[[0, -1]])
    assert np.array_equal(cold.Z_values[[0, -1]], line[[0, -1]])


def test_redim2d_whose_newton_start_fails_relaxes_from_the_prolonged_start(
        monkeypatch, mm_model, mm_bc, mm_grad2):
    """The 61 x 61 level's first Newton step is made to return a NaN residual:
    the level restarts PTC from its prolonged 31 x 31 start, bit for bit as
    PTC from that start given as ``initial_z`` (its first Newton step made
    to fail the same way), and its history logs the failed step."""
    from fastslow import redim, steady
    starts, histories = [], []

    def newton_fails(rate, initial, free, tol):
        if initial.shape == (61, 61):
            starts.append(initial)
            calls, plain = itertools.count(), rate

            def rate(A):  # NaN after the first step, and only there
                R, jac = plain(A)
                return (R + np.nan if next(calls) == 1 else R), jac
        A, history = steady.relax_free(rate, initial, free, tol)
        histories.append(history)
        return A, history

    anchors = (float(mm_bc.left_state[2]), float(mm_bc.right_state[2]))
    setup = dict(theta1_range=(0.0, 2.0), theta2_range=(0.0, 1.0), grad=mm_grad2, M1=61, M2=61)
    with monkeypatch.context() as m:
        m.setattr(redim, "relax_free", newton_fails)
        sequenced = evolve_redim_2d(mm_model, **setup, anchor_values=anchors)
        cold = evolve_redim_2d(mm_model, **setup, initial_z=starts[0])
    assert len(starts) == 2 and len(histories) == 3
    assert histories[1][1][0] == np.inf and np.isnan(histories[1][1][1])
    assert histories[1][2] == histories[1][0] and histories[1][2:] == histories[2][2:]
    assert all(tau < np.inf for tau, _ in histories[1][2:])
    assert np.array_equal(sequenced.Z_values, cold.Z_values)


def test_redim2d_whose_coarse_level_fails_starts_from_the_line(mm_model, mm_bc):
    """With chi = 0.3 the 31 x 31 REDIM-2D does not relax (its PTC solve
    ends at step 11, at 668 against its start's 2.42), though the 61 x 61
    one does: the coarse level is dropped and the fine one relaxes from the
    straight line, bit for bit as if ``initial_z`` were that line (a coarse
    start would move the result by about 1e-9)."""
    anchors = (float(mm_bc.left_state[2]), float(mm_bc.right_state[2]))
    setup = dict(theta1_range=(0.0, 2.0), theta2_range=(0.0, 1.0),
                 grad=constant_gradient((0.3, 0.3), "2d"))
    sequenced = evolve_redim_2d(mm_model, **setup, M1=61, M2=61, anchor_values=anchors)
    cold = evolve_redim_2d(mm_model, **setup, M1=61, M2=61, initial_z=_straight_line(mm_bc, 61))
    assert np.array_equal(sequenced.Z_values, cold.Z_values)


def _residuals(monkeypatch):
    """One list per ``relax_free`` call made through :mod:`fastslow.redim`:
    the residual of each ``rate`` evaluation, i.e. its history, kept also
    when the solve raises."""
    from fastslow import redim, steady
    calls = []

    def recording(rate, initial, free, tol):
        calls.append([])

        def logged(A):
            R, jac = rate(A)
            calls[-1].append(float(np.abs(R).max()))
            return R, jac
        return steady.relax_free(logged, initial, free, tol)

    monkeypatch.setattr(redim, "relax_free", recording)
    return calls


def _ends_at_the_first_ptc_step_not_below_its_start(residuals, error):
    """A Newton attempt, then PTC from the same start whose every step but
    the last ends below the start's residual; the last does not, and the
    error carries its residual.  Returns the PTC residuals."""
    ptc = residuals[residuals.index(residuals[0], 1):]
    assert all(r < ptc[0] for r in ptc[1:-1]), ptc
    assert not ptc[-1] < ptc[0] and error.residual == ptc[-1], ptc
    return ptc


def test_redim2d_hold_none_with_diffusion_ends_at_its_first_step_not_below_the_start(
        monkeypatch, mm_model, mm_bc, mm_grad2):
    """``hold="none"`` gives no boundary data, and with the enzyme model's
    diffusion the REDIM-2D does not relax: each level ends at its first PTC
    step that does not end below its start.  At 61 x 61, from the line once
    the 31 x 31 level fails, the rejected Newton step is followed by 2.5,
    1.3, 4.6e4: at most 3 steps, where 200 PTC steps were taken before."""
    calls = _residuals(monkeypatch)
    with pytest.raises(ConvergenceError, match="not stationary") as exc:
        evolve_redim_2d(mm_model, (0.0, 2.0), (0.0, 1.0), M1=61, M2=61, grad=mm_grad2,
                        anchor_values=(float(mm_bc.left_state[2]), float(mm_bc.right_state[2])),
                        hold="none")
    assert len(calls) == 2
    _ends_at_the_first_ptc_step_not_below_its_start(calls[1], exc.value)
    assert len(calls[1]) - 2 <= 3, calls[1]  # the two starts are not steps


@pytest.mark.parametrize("chi", [0.3, 0.5])
def test_redim2d_31_with_weak_constant_closure_ends_at_its_first_rising_step(
        monkeypatch, tmp_path, capsys, mm_model, mm_bc, chi):
    """With constant chi = 0.3 or 0.5 the 31 x 31 REDIM-2D does not relax
    (at 61 x 61 it does): from its start's 2.42, PTC falls to 0.036 and
    2.2e-3, then ends at its first step that rises to the start's residual
    or above, step 11 (668) and step 21 (184), where 200 PTC steps were
    taken before, and ``fastslow redim`` on it exits 3.  Steps that rise
    above the previous one but stay below the start are taken."""
    calls = _residuals(monkeypatch)
    with pytest.raises(ConvergenceError, match="not stationary") as exc:
        evolve_redim_2d(mm_model, (0.0, 2.0), (0.0, 1.0), M1=31, M2=31,
                        grad=constant_gradient(chi, "2d"),
                        anchor_values=(float(mm_bc.left_state[2]), float(mm_bc.right_state[2])))
    assert len(calls) == 1
    _ends_at_the_first_ptc_step_not_below_its_start(calls[0], exc.value)

    config = tmp_path / "config.json"
    config.write_text(json.dumps({"redim2d_points": [31, 31]}))
    assert main(["redim", "--dim", "2", "--grad", f"const:{chi}", "--config", str(config),
                 "--out", str(tmp_path / "redim2d.csv")]) == 3
    assert "not stationary" in capsys.readouterr().err


def test_redim1d_rejects_degenerate_anchors(mm_model):
    with pytest.raises(ContractViolationError):
        evolve_redim_1d(mm_model, (Z_EQ, Z_EQ), M=11)


def test_redim1d_non_convergence_carries_residual(mm_model):
    with pytest.raises(ConvergenceError) as exc:
        evolve_redim_1d(mm_model, (Z_EQ, Z_RIGHT), M=11, tol=1e-300)
    assert exc.value.residual is not None and exc.value.residual > 0.0


# ---------------------------------------------------------------------------
# 2-D relaxation
# ---------------------------------------------------------------------------

def _plane_test_model():
    V = np.array([
        [1.0, 0.0, 0.3],    # slow
        [0.0, 1.0, -0.2],   # slow
        [0.5, 0.4, 1.0],    # fast
    ]).T
    lam = np.array([-0.2, -0.5, -30.0])
    A = V @ np.diag(lam) @ np.linalg.inv(V)
    z_star = np.array([1.0, 0.5, 0.5])
    w_f = np.linalg.inv(V)[2]

    def plane(t1, t2):
        return z_star[2] - (w_f[0] * (t1 - z_star[0]) + w_f[1] * (t2 - z_star[1])) / w_f[2]

    return linear_model(A, z_star), plane


def test_redim2d_linear_model_invariant_plane():
    model, plane = _plane_test_model()
    t1 = np.linspace(0.0, 2.0, 31)
    t2 = np.linspace(0.0, 1.0, 31)
    TH1, TH2 = np.meshgrid(t1, t2, indexing="ij")
    target = plane(TH1, TH2)
    # planar start on the eigenplane stays there
    on_plane = evolve_redim_2d(model, (0, 2), (0, 1), M1=31, M2=31,
                               grad=constant_gradient((0.0, 0.0), "2d"),
                               initial_z=target, hold="none", tol=1e-10)
    assert np.abs(on_plane.Z_values - target).max() <= 1e-8
    # a wrong planar start converges to the eigenplane
    flat = evolve_redim_2d(model, (0, 2), (0, 1), M1=31, M2=31,
                           grad=constant_gradient((0.0, 0.0), "2d"),
                           initial_z=np.full_like(target, 0.5), hold="none", tol=1e-10)
    assert np.abs(flat.Z_values - target).max() <= 1e-8


@pytest.mark.parametrize("hold", ["theta1", "all", "none"])
def test_redim2d_rejects_an_axis_of_3_nodes(mm_model, hold):
    """Every hold mode takes one-sided second differences at the edges,
    which reach 3 nodes in: an axis needs at least 4 nodes."""
    for M1, M2 in ((3, 11), (11, 3)):
        with pytest.raises(ContractViolationError, match="at least 4 nodes"):
            evolve_redim_2d(mm_model, (0.0, 2.0), (0.0, 1.0), M1=M1, M2=M2,
                            anchor_values=(YEQ, 1.0), hold=hold)


def test_redim2d_converged_residual(redim2d_mm, mm_model):
    man = redim2d_mm.value
    # spot-check stationarity through the public single-node pieces
    t1, t2 = man.theta1_grid, man.theta2_grid
    d1, d2 = man.spacing
    rng = np.random.default_rng(3)
    for _ in range(40):
        i = int(rng.integers(1, len(t1) - 1))
        j = int(rng.integers(1, len(t2) - 1))
        z = man.state(i, j)
        G = mm_model.source(z)
        GZ = G[2] + local_diffusion_2d(man, mm_model, i, j)
        Z1 = (man.Z_values[i + 1, j] - man.Z_values[i - 1, j]) / (2 * d1)
        Z2 = (man.Z_values[i, j + 1] - man.Z_values[i, j - 1]) / (2 * d2)
        assert abs(GZ - Z1 * G[0] - Z2 * G[1]) < 1e-7


def test_redim2d_contains_stationary_profile(redim2d_mm, steady_101):
    from scipy.interpolate import RegularGridInterpolator
    man = redim2d_mm.value
    itp = RegularGridInterpolator((man.theta1_grid, man.theta2_grid), man.Z_values)
    prof = steady_101.value.profile.states
    pts = np.clip(prof[:, :2], [man.theta1_grid[0], man.theta2_grid[0]],
                  [man.theta1_grid[-1], man.theta2_grid[-1]])
    assert np.abs(itp(pts) - prof[:, 2]).max() <= 2e-2


# the profile's and the REDIMs' steady tolerance: two solves of one problem
# that agree only to within it tell nothing about which way an axis points
SOLVE_TOL = 1e-8


def test_profile_closure_does_not_depend_on_which_way_x_points(
        mm_model, mm_bc, steady_101, redim1d_mm, redim2d_mm):
    """With the boundary states swapped, X falls along x: the profile is the
    shipped one reversed (2.8e-10), its closure's chi1 and chi2 are the
    shipped ones negated (2.4e-9 and 8.1e-10 on the theta grids), and the
    REDIM-1D and REDIM-2D built from it, which see chi only in products of
    two, match the shipped ones (8.7e-11 and 3.9e-10)."""
    swapped = integrate_to_steady(
        mm_model, BoundaryConditions(left_state=mm_bc.right_state, right_state=mm_bc.left_state),
        SolverSettings()).profile
    assert np.abs(swapped.states[::-1] - steady_101.value.profile.states).max() <= SOLVE_TOL

    r1d = evolve_redim_1d(mm_model, (mm_bc.left_state, mm_bc.right_state), M=101,
                          grad=gradient_estimate_from_profile(swapped, "1d"))
    r2d = evolve_redim_2d(mm_model, (0.0, 2.0), (0.0, 1.0), M1=61, M2=61,
                          grad=gradient_estimate_from_profile(swapped, "2d"),
                          anchor_values=(float(mm_bc.left_state[2]), float(mm_bc.right_state[2])))
    shipped1, shipped2 = redim1d_mm.value, redim2d_mm.value
    assert np.abs(r1d.chi + shipped1.chi).max() <= SOLVE_TOL
    assert np.abs(r2d.chi1 + shipped2.chi1).max() <= SOLVE_TOL
    assert np.abs(r2d.chi2 + shipped2.chi2).max() <= SOLVE_TOL
    assert np.abs(r1d.states - shipped1.states).max() <= SOLVE_TOL
    assert np.abs(r2d.Z_values - shipped2.Z_values).max() <= SOLVE_TOL


def test_redims_do_not_depend_on_which_way_theta_points(mm_model, mm_bc, mm_grad1, mm_grad2,
                                                        redim1d_mm, redim2d_mm):
    """Swapped anchors give the REDIM-1D reversed (3.8e-14); a reversed
    theta1 range with swapped anchor values gives the REDIM-2D flipped along
    theta1 (4.9e-11), a reversed theta2 range flipped along theta2
    (8.2e-11)."""
    r1d = evolve_redim_1d(mm_model, (mm_bc.right_state, mm_bc.left_state), M=101,
                          grad=mm_grad1)
    assert np.abs(r1d.states[::-1] - redim1d_mm.value.states).max() <= SOLVE_TOL

    z_lo, z_hi = float(mm_bc.left_state[2]), float(mm_bc.right_state[2])
    shipped = redim2d_mm.value.Z_values
    flip1 = evolve_redim_2d(mm_model, (2.0, 0.0), (0.0, 1.0), M1=61, M2=61, grad=mm_grad2,
                            anchor_values=(z_hi, z_lo))
    flip2 = evolve_redim_2d(mm_model, (0.0, 2.0), (1.0, 0.0), M1=61, M2=61, grad=mm_grad2,
                            anchor_values=(z_lo, z_hi))
    assert np.abs(flip1.Z_values[::-1] - shipped).max() <= SOLVE_TOL
    assert np.abs(flip2.Z_values[:, ::-1] - shipped).max() <= SOLVE_TOL


def test_redim2d_zero_diffusion_reduces_to_slow_manifold(mm_dec):
    m0 = michaelis_menten_model(MichaelisMentenParams(delta=0.0))
    man = evolve_redim_2d(m0, (0.0, 2.0), (0.0, 1.0), M1=31, M2=31,
                          grad=constant_gradient((0.0, 0.0), "2d"),
                          anchor_values=(YEQ, 1.0), hold="none")
    dec = mm_dec.value
    TH1, TH2 = np.meshgrid(man.theta1_grid, man.theta2_grid, indexing="ij")
    z = np.stack([TH1, TH2, man.Z_values], axis=-1)
    g_raw = np.abs(m0.source(z) @ dec.Zt_f.T)[..., 0]
    assert g_raw.max() <= np.sqrt(dec.epsilon)
