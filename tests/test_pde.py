import numpy as np
import pytest

from fastslow.core import Grid1D, SpatialProfile, eval_full_rhs, laplacian
from fastslow.errors import BoundaryNodeError, ContractViolationError, ConvergenceError
from fastslow.models import MichaelisMentenParams, michaelis_menten_model
from fastslow.pde import (
    BoundaryConditions,
    SolverSettings,
    integrate_to_steady,
    linear_initial_profile,
)

YEQ = np.sqrt(3.0) - 1.0
Z_EQ = np.array([0.0, YEQ, YEQ])
Z_RIGHT = np.array([2.0, 0.0, 1.0])


def _sin_profile(n):
    g = Grid1D(n)
    return SpatialProfile(g, np.sin(np.pi * g.nodes)[:, None]), g


# ---------------------------------------------------------------------------
# laplacian
# ---------------------------------------------------------------------------

def test_laplacian_linear_profile():
    g = Grid1D(51)
    profile = SpatialProfile(g, (0.3 + 1.7 * g.nodes)[:, None])
    for i in (1, 25, 49):
        assert laplacian(profile, i)[0] == pytest.approx(0.0, abs=1e-9)


def test_laplacian_quadratic_exact():
    g = Grid1D(41)
    profile = SpatialProfile(g, (g.nodes ** 2)[:, None])
    for i in range(1, 40):
        assert laplacian(profile, i)[0] == pytest.approx(2.0, abs=1e-9)


def test_laplacian_sine_value():
    profile, g = _sin_profile(101)
    mid = 50
    val = laplacian(profile, mid)[0]
    assert abs(val - (-np.pi ** 2)) < 9e-3


def test_laplacian_second_order_convergence():
    errs = []
    for n in (101, 201):
        profile, g = _sin_profile(n)
        x = g.nodes
        errs.append(max(
            abs(laplacian(profile, i)[0] + np.pi ** 2 * np.sin(np.pi * x[i]))
            for i in range(1, n - 1)
        ))
    ratio = errs[0] / errs[1]
    assert 3.7 <= ratio <= 4.3


def test_laplacian_boundary_rejected():
    profile, _ = _sin_profile(11)
    with pytest.raises(BoundaryNodeError):
        laplacian(profile, 0)
    with pytest.raises(BoundaryNodeError):
        laplacian(profile, 10)


# ---------------------------------------------------------------------------
# initial profile
# ---------------------------------------------------------------------------

def test_initial_profile_endpoints_exact():
    profile = linear_initial_profile(Z_EQ, Z_RIGHT, Grid1D(101))
    assert np.array_equal(profile.states[0], Z_EQ)
    assert np.array_equal(profile.states[-1], Z_RIGHT)


def test_initial_profile_midpoint():
    profile = linear_initial_profile(Z_EQ, Z_RIGHT, Grid1D(101))
    mid = profile.states[50]
    assert mid == pytest.approx(0.5 * (Z_EQ + Z_RIGHT), abs=1e-14)
    assert mid == pytest.approx([1.0, 0.3660254, 0.8660254], abs=1e-7)


# ---------------------------------------------------------------------------
# steady state
# ---------------------------------------------------------------------------

def test_steady_profile_converged(steady_101, mm_model):
    result = steady_101.value
    interior = [
        np.abs(eval_full_rhs(mm_model, result.profile, i)).max()
        for i in range(1, result.profile.grid.node_count - 1)
    ]
    assert max(interior) < 1e-8
    assert np.array_equal(result.profile.states[-1], Z_RIGHT)
    assert result.profile.states[0] == pytest.approx(Z_EQ, abs=1e-10)


def test_steady_profile_history_is_logged(steady_101):
    """The start at pseudo-time 0, then one row per Newton step, each logged
    at pseudo-time ``inf``."""
    hist = steady_101.value.residual_history
    assert len(hist) == steady_101.value.steps + 1
    assert [t for t, _ in hist] == [0.0] + [np.inf] * steady_101.value.steps
    assert hist[-1][1] < 1e-8 <= hist[0][1]


def test_profile_fallback_counts_its_steps_not_its_starts():
    """Right state (0.375, 0, 0) with delta = 1e-3: the Newton step from the
    line ends above the start (0.0985 -> 0.111), and PTC from the same start
    converges in 69 steps.  The history holds both starts, and ``steps``
    counts the 70 steps between them, one of them Newton's."""
    m = michaelis_menten_model(MichaelisMentenParams(delta=1e-3))
    result = integrate_to_steady(m, BoundaryConditions(Z_EQ, [0.375, 0.0, 0.0]),
                                 SolverSettings(node_count=51))
    hist = result.residual_history
    assert hist[-1][1] < SolverSettings().steady_tol
    assert result.steps == 70 and len(hist) == 72 and hist[2] == hist[0]
    assert [t for t, _ in hist].count(np.inf) == 1


def test_residual_decreases_over_first_steps(steady_101):
    residuals = [r for _, r in steady_101.value.residual_history]
    assert all(b < a for a, b in zip(residuals, residuals[1:]))


def test_steady_grid_refinement(steady_101, steady_201):
    coarse = steady_101.value.profile.states
    fine = steady_201.value.profile.states
    assert np.abs(fine[::2] - coarse).max() <= 1e-3


def test_stationary_profile_converges_at_second_order(mm_model, mm_bc):
    """The sup difference at shared nodes between the profiles on N and 2N - 1
    nodes, from 51 up to 1601 nodes, falls by a factor of about 4 per halving
    of dx: observed orders 1.964, 1.993, 1.997 and 2.000."""
    nodes = (51, 101, 201, 401, 801, 1601)
    profiles = [integrate_to_steady(mm_model, mm_bc, SolverSettings(node_count=n))
                .profile.states for n in nodes]
    diffs = [np.abs(fine[::2] - coarse).max() for coarse, fine in zip(profiles, profiles[1:])]
    orders = np.log2(np.array(diffs[:-1]) / np.array(diffs[1:]))
    assert len(orders) == 4 and np.all((1.9 <= orders) & (orders <= 2.1)), orders


def test_zero_diffusion_equilibrium_bcs():
    m = michaelis_menten_model(MichaelisMentenParams(delta=0.0))
    bc = BoundaryConditions(Z_EQ, Z_EQ)
    result = integrate_to_steady(m, bc, SolverSettings(node_count=21))
    assert np.abs(result.profile.states - Z_EQ).max() < 1e-10
    assert result.steps == 0


def test_unreachable_tolerance_errors():
    m = michaelis_menten_model()
    bc = BoundaryConditions(Z_EQ, Z_RIGHT)
    with pytest.raises(ConvergenceError) as exc:
        integrate_to_steady(m, bc, SolverSettings(node_count=21, steady_tol=1e-20))
    assert exc.value.residual is not None and exc.value.residual > 0.0


@pytest.mark.parametrize("tol", [-1e-8, 0.0, np.inf, np.nan])
def test_steady_tol_must_be_finite_and_positive(tol):
    # an infinite tol would return the linear start as the stationary profile,
    # and no residual falls below a zero one
    with pytest.raises(ContractViolationError, match="steady_tol"):
        SolverSettings(steady_tol=tol)


def test_profile_x_component_monotone(steady_101):
    X = steady_101.value.profile.states[:, 0]
    assert np.all(np.diff(X) > 0.0)
