"""The shared steady-state solver: fixed points, failures and grid scaling."""

import dataclasses
from pathlib import Path

import numpy as np
import pytest

from fastslow import pde, redim
from fastslow.core import ReactionDiffusionModel, eval_source
from fastslow.errors import ConvergenceError, DivergenceError
from fastslow.models import MichaelisMentenParams, equilibrium, michaelis_menten_model
from fastslow.pde import BoundaryConditions, SolverSettings, integrate_to_steady
from fastslow.redim import constant_gradient, evolve_redim_1d, evolve_redim_2d
from fastslow.steady import (
    DTAU0,
    band_assembler,
    damped_newton,
    difference_matrix,
    relax_free,
)

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


def _captured(monkeypatch, module, solve):
    """The ``(rate, initial, free)`` that ``solve`` hands to ``relax_free``."""
    seen = []

    def capture(rate, initial, free, tol):
        seen.append((rate, initial, free))
        return initial, [(0.0, 0.0)]

    monkeypatch.setattr(module, "relax_free", capture)
    solve()
    return seen[0]


# small grids; the test moves the start off any fixed point so that every
# term of each Jacobian is exercised
PROBLEMS = {
    "profile": (pde, lambda m: integrate_to_steady(
        m, BoundaryConditions([0.0, 0.7, 0.7], [2.0, 0.0, 1.0]), SolverSettings(node_count=12))),
    "redim1d": (redim, lambda m: evolve_redim_1d(
        m, ([0.0, 0.7, 0.7], [2.0, 0.0, 1.0]), M=12, grad=constant_gradient(0.8))),
}
for _hold in ("theta1", "all", "none"):
    # "none" takes one-sided differences at every edge: the widest stencil
    PROBLEMS[f"redim2d-{_hold}"] = (redim, lambda m, hold=_hold: evolve_redim_2d(
        m, (0.0, 2.0), (0.0, 1.0), M1=9, M2=8, grad=constant_gradient((0.7, 0.4), "2d"),
        anchor_values=(0.3, 1.0), hold=hold))


@pytest.mark.parametrize("case", list(PROBLEMS) + ["profile-fd-fallback"])
def test_exact_band_matches_column_by_column_differences(monkeypatch, case):
    """Each assembled band against forward differences of the same residual;
    a model without ``jac`` goes through ``core.fd_jacobian``."""
    model = michaelis_menten_model(MichaelisMentenParams(delta=0.1))
    if case == "profile-fd-fallback":
        case, model = "profile", dataclasses.replace(model, jac=None)
    module, solve = PROBLEMS[case]
    rate, A, free = _captured(monkeypatch, module, lambda: solve(model))
    A = A + 0.05 * np.sin(np.arange(A.size)).reshape(A.shape)
    x = A[free].ravel()

    def F(x):
        B = A.copy()
        B[free] = x.reshape(A[free].shape)
        return rate(B)[0].ravel()

    Fx = F(x)
    bw, ab = rate(A)[1]()
    r, c = np.indices((x.size, x.size))
    band = np.where(abs(r - c) <= bw, ab[np.clip(2 * bw + r - c, 0, 3 * bw), c], 0.0)
    dense = np.empty_like(band)
    for k in range(x.size):
        xp = x.copy()
        h = 1.5e-8 * max(1.0, abs(x[k]))
        xp[k] += h
        dense[:, k] = (F(xp) - Fx) / h
    # the band is kept in single precision
    assert np.abs(band - dense).max() <= 1e-6 * np.abs(dense).max()


def _recorded(monkeypatch, module):
    """Histories of every ``relax_free`` call made through ``module``."""
    histories = []

    def recording(*args):
        A, history = relax_free(*args)
        histories.append(history)
        return A, history

    monkeypatch.setattr(module, "relax_free", recording)
    return histories


@pytest.mark.parametrize("N", [51, 101, 201, 1601])
def test_profile_iteration_count_is_pinned(mm_model, mm_bc, N):
    result = integrate_to_steady(mm_model, mm_bc, SolverSettings(node_count=N))
    assert result.steps <= 11
    assert result.residual_history[-1][1] < SolverSettings().steady_tol


def test_redim_iteration_counts_are_pinned(monkeypatch, mm_model, mm_bc, mm_grad1, mm_grad2):
    """The exact Jacobian must not take more steps than the forward-difference
    one it replaced: 10 for REDIM-1D at M = 101 and 10 for REDIM-2D at 61 x 61
    (the configurations of the conftest fixtures)."""
    histories = _recorded(monkeypatch, redim)
    evolve_redim_1d(mm_model, (mm_bc.left_state, mm_bc.right_state), M=101, grad=mm_grad1)
    evolve_redim_2d(mm_model, (0.0, 2.0), (0.0, 1.0), M1=61, M2=61, grad=mm_grad2,
                    anchor_values=(float(mm_bc.left_state[2]), float(mm_bc.right_state[2])))
    steps = [len(h) - 1 for h in histories]
    assert len(steps) == 2 and steps[0] <= 10 and steps[1] <= 10, steps
    assert all(h[-1][1] < 1e-8 for h in histories)


def test_singular_step_matrix_carries_residual():
    # J = I / dtau makes the first step matrix I / dtau - J exactly zero
    def jac():
        return 0, np.full((1, 2), 1.0 / DTAU0, dtype=np.float32, order="F")

    with pytest.raises(ConvergenceError) as exc:
        relax_free(lambda A: (A + 1.0, jac), np.zeros(2), np.s_[:], 1e-8)
    assert exc.value.residual == 1.0


def test_relax_free_holds_the_rest_and_logs_each_step():
    """A 6 x 5 array with its border held: the interior relaxes under
    ``Lap_0 A - A - A^3 / 2 + 1``, coupled to the held rows by the second
    difference along the first axis."""
    initial = np.random.default_rng(3).uniform(-1.0, 1.0, (6, 5))
    free, tol = np.s_[1:-1, 1:-1], 1e-10
    assemble = band_assembler(initial[free].shape, [
        (difference_matrix(6, 1.0, k, free[0]), {0: np.ones(3)}) for k in (2, 0)])

    def rate(A):
        Af = A[free]
        R = A[:-2, 1:-1] - 2.0 * Af + A[2:, 1:-1] - Af - 0.5 * Af ** 3 + 1.0
        return R, lambda: assemble([1.0, -1.0 - 1.5 * Af ** 2])

    start = initial.copy()
    A, history = relax_free(rate, initial, free, tol)
    held = np.ones(initial.shape, dtype=bool)
    held[free] = False
    assert np.array_equal(initial, start)
    assert np.array_equal(A[held], initial[held])
    assert history[0] == (0.0, float(np.abs(rate(initial)[0]).max()))
    taus = [tau for tau, _ in history]
    assert len(history) > 2 and all(a < b for a, b in zip(taus, taus[1:]))
    assert history[-1][1] < tol
    assert history[-1][1] == float(np.abs(rate(A)[0]).max())


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
