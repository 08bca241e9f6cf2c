"""The shared steady-state solver: fixed points, failures and grid scaling."""

from pathlib import Path

import numpy as np
import pytest

from fastslow.core import ReactionDiffusionModel, eval_source, interior_full_rhs
from fastslow.errors import ConvergenceError, DivergenceError
from fastslow.models import equilibrium, michaelis_menten_model
from fastslow.pde import BoundaryConditions, SolverSettings, integrate_to_steady
from fastslow.redim import _rhs_2d, evolve_redim_1d, evolve_redim_2d
from fastslow.steady import DTAU0, FD_STEP, damped_newton, grouped_fd_jacobian, solve_steady

# Steady states of the RK4 relaxations at the acceptance configurations,
# written by tests/data/make_golden.py (see its docstring for the commit).
GOLDEN = np.load(Path(__file__).parent / "data" / "golden.npz")
GOLDEN_TOL = 1e-6


def test_profile_matches_rk4_golden(steady_101):
    assert np.abs(steady_101.value.profile.states - GOLDEN["profile"]).max() <= GOLDEN_TOL


def test_redim1d_matches_rk4_golden(redim1d_mm):
    assert np.abs(redim1d_mm.value.states - GOLDEN["redim1d"]).max() <= GOLDEN_TOL


def test_redim2d_matches_rk4_golden(redim2d_mm):
    assert np.abs(redim2d_mm.value.Z_values - GOLDEN["redim2d"]).max() <= GOLDEN_TOL


NAN_MODEL = ReactionDiffusionModel(
    name="nan-source",
    species=("a", "b", "c"),
    source=lambda z: np.full_like(np.asarray(z, dtype=float), np.nan),
    jac=lambda z: np.zeros(np.asarray(z).shape[:-1] + (3, 3)),
    diffusion=np.zeros(3),
)


@pytest.mark.parametrize("solve", [
    lambda m: integrate_to_steady(m, BoundaryConditions(np.zeros(3), np.ones(3)),
                                  SolverSettings(node_count=5)),
    lambda m: evolve_redim_1d(m, (np.zeros(3), np.ones(3)), M=5),
    lambda m: evolve_redim_2d(m, (0.0, 1.0), (0.0, 1.0), M1=5, M2=5,
                              anchor_values=(0.0, 1.0)),
], ids=["profile", "redim1d", "redim2d"])
def test_non_finite_residual_raises(solve):
    # a while-residual-above-tol loop would stop at once on NaN and return
    with pytest.raises(DivergenceError):
        solve(NAN_MODEL)


def test_profile_iterations_are_grid_independent(mm_model, mm_bc, steady_101):
    fine = integrate_to_steady(mm_model, mm_bc, SolverSettings(node_count=1601))
    assert fine.steps <= 2 * steady_101.value.steps


def _redim2d_free_edges(model):
    # the 2-D manifold residual with free edges, whose one-sided
    # differences give the widest stencil in the package
    t = np.linspace(0.0, 1.0, 9)
    TH1, TH2 = np.meshgrid(2.0 * t, t, indexing="ij")
    C = np.full(TH1.shape, 0.7)

    def F(x):
        return _rhs_2d(x.reshape(TH1.shape), TH1, TH2, C, C, 0.25, 0.125, model).ravel()

    x = 0.5 + 0.3 * np.sin(3.0 * TH1) * np.cos(2.0 * TH2)
    return F, x.ravel(), TH1.shape, (3, 3)


def _profile_interior(model):
    # every species couples with every other at a node: a whole-axis reach
    states = np.linspace([0.0, 0.7, 0.7], [2.0, 0.0, 1.0], 12)

    def F(x):
        S = states.copy()
        S[1:-1] = x.reshape(10, 3)
        return interior_full_rhs(model, S, 1.0 / 11.0)[1:-1].ravel()

    return F, states[1:-1].ravel() + 0.01, (10, 3), (1, 2)


@pytest.mark.parametrize("problem", [_redim2d_free_edges, _profile_interior],
                         ids=["redim2d-free-edges", "profile-species"])
def test_grouped_jacobian_matches_column_by_column_differences(mm_model, problem):
    F, x, shape, reach = problem(mm_model)
    Fx = F(x)
    bw, ab = grouped_fd_jacobian(F, shape, reach)(x, Fx)
    r, c = np.indices((x.size, x.size))
    grouped = np.where(abs(r - c) <= bw, ab[np.clip(2 * bw + r - c, 0, 3 * bw), c], 0.0)
    dense = np.empty_like(grouped)
    for k in range(x.size):
        xp = x.copy()
        h = FD_STEP * max(1.0, abs(x[k]))
        xp[k] += h
        dense[:, k] = (F(xp) - Fx) / h
    # the band is kept in single precision
    assert np.abs(grouped - dense).max() <= 1e-6 * np.abs(dense).max()


def test_singular_step_matrix_carries_residual():
    # J = I / dtau makes the first step matrix I / dtau - J exactly zero
    def jac(x, Fx):
        return 0, np.full((1, 2), 1.0 / DTAU0, dtype=np.float32, order="F")

    with pytest.raises(ConvergenceError) as exc:
        solve_steady(lambda x: x + 1.0, jac, np.zeros(2), 1e-8)
    assert exc.value.residual == 1.0


def test_damped_newton_rows_are_independent_equilibrium_solves():
    """With P = B = I and a zero offset each row is an equilibrium solve: a
    singular start is flagged on its own row and the others converge to
    what :func:`equilibrium` returns from the same guess."""
    model = michaelis_menten_model()
    guesses = np.array([[1.0, 0.5, 0.5], [2.0, 0.0, 1.0], [1.0, 0.5, 0.0], [0.3, 0.9, 0.7]])
    eye = np.eye(3)
    z, converged, singular, residual = damped_newton(
        lambda s: eval_source(model, s), model.jacobian, eye, eye, np.zeros((4, 3)),
        guesses, 1e-12, 100)
    assert singular.tolist() == [False, False, True, False]
    assert converged.tolist() == [True, True, False, True]
    assert np.all(residual[converged] < 1e-12)
    for k in np.flatnonzero(converged):
        assert z[k] == pytest.approx(equilibrium(model, guesses[k]), abs=1e-14)
