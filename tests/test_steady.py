"""The shared steady-state solver: fixed points, failures and grid scaling."""

import dataclasses
import itertools
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from fastslow import pde, redim, steady
from fastslow.core import ReactionDiffusionModel, eval_source
from fastslow.errors import ConvergenceError, DivergenceError
from fastslow.gql import default_slow_grid
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
# The profile's residual histories at N = 51, 101 and 201, written by
# tests/data/make_golden.py --histories (see its docstring for the commit).
GOLDEN_HISTORIES = np.load(Path(__file__).parent / "data" / "golden_histories.npz")


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

    def capture(rate, initial, free, tol, *args, **kwargs):
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


def _dense(bw, ab):
    """The matrix whose band ``ab`` holds in LAPACK gbsv storage."""
    n = ab.shape[1]
    r, c = np.indices((n, n))
    return np.where(abs(r - c) <= bw, ab[np.clip(2 * bw + r - c, 0, 3 * bw), c], 0.0)


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
    band = _dense(*rate(A)[1]())
    dense = np.empty_like(band)
    for k in range(x.size):
        xp = x.copy()
        h = 1.5e-8 * max(1.0, abs(x[k]))
        xp[k] += h
        dense[:, k] = (F(xp) - Fx) / h
    # the band is kept in single precision
    assert np.abs(band - dense).max() <= 1e-6 * np.abs(dense).max()


def _ptc(rate):
    """``rate`` with a NaN residual after the first step, and only there: the
    solve rejects its first Newton step and restarts PTC on ``rate`` itself,
    so its history from the third entry on is the PTC solve's."""
    calls = itertools.count()

    def poisoned(A):
        R, jac = rate(A)
        return (R + np.nan if next(calls) == 1 else R), jac
    return poisoned


def _recorded(monkeypatch, module):
    """Histories of every ``relax_free`` call made through ``module``."""
    histories = []

    def recording(*args, **kwargs):
        A, history = relax_free(*args, **kwargs)
        histories.append(history)
        return A, history

    monkeypatch.setattr(module, "relax_free", recording)
    return histories


@pytest.mark.parametrize("N", [51, 101, 201, 1601])
def test_profile_iteration_count_is_pinned(mm_model, mm_bc, N):
    """Newton from the linear start: 4 steps up to N = 201 and 5 at 1601
    (11 PTC steps from ``DTAU0`` at every N), none of them rejected."""
    result = integrate_to_steady(mm_model, mm_bc, SolverSettings(node_count=N))
    assert result.steps <= {51: 4, 101: 4, 201: 4, 1601: 5}[N]
    assert all(tau == np.inf for tau, _ in result.residual_history[1:])
    assert result.residual_history[-1][1] < SolverSettings().steady_tol


def test_redim_iteration_counts_are_pinned(monkeypatch, mm_model, mm_bc, mm_grad1, mm_grad2):
    """The configurations of the conftest fixtures.  The REDIM-1D at M = 101
    takes at most 6 Newton steps from its straight line (10 PTC steps from
    ``DTAU0``).  The 61 x 61 REDIM-2D is grid-sequenced: at 31 x 31 the
    first Newton step from the line ends above the start, and PTC from the
    line takes at most 10 steps (as many as the forward-difference Jacobian
    took); then at most 3 Newton steps at 61 x 61 from the interpolated
    coarse solution (6 PTC steps from ``DTAU0``).  No other Newton step is
    rejected, and the profile keeps its histories bit for bit."""
    histories = _recorded(monkeypatch, redim)
    evolve_redim_1d(mm_model, (mm_bc.left_state, mm_bc.right_state), M=101, grad=mm_grad1)
    evolve_redim_2d(mm_model, (0.0, 2.0), (0.0, 1.0), M1=61, M2=61, grad=mm_grad2,
                    anchor_values=(float(mm_bc.left_state[2]), float(mm_bc.right_state[2])))
    steps = [len(h) - 1 for h in histories]
    assert len(steps) == 3, steps
    assert steps[0] <= 6 and steps[2] <= 3, steps
    assert all(h[-1][1] < 1e-8 for h in histories)
    for newton in (histories[0], histories[2]):  # no step was rejected
        assert all(tau == np.inf for tau, _ in newton[1:])
    coarse = histories[1]  # one rejected Newton step, then PTC from the line
    assert coarse[1][0] == np.inf and coarse[1][1] > coarse[0][1] and coarse[2] == coarse[0]
    assert all(tau < np.inf for tau, _ in coarse[3:]) and len(coarse) - 3 <= 10, steps
    for n in (51, 101, 201):
        got = integrate_to_steady(mm_model, mm_bc, SolverSettings(node_count=n))
        assert np.array_equal(np.array(got.residual_history), GOLDEN_HISTORIES[f"n{n}"])


@settings(max_examples=20, deadline=None)
@given(st.tuples(*[st.floats(0.0, 1.0)] * 3), st.floats(-3.0, 0.0))
@example(corner=(0.0, 1.0, 0.1875), log_delta=-3.0)
@example(corner=(0.0, 0.0, 1.0), log_delta=-3.0)
@example(corner=(0.5, 1.0, 0.5), log_delta=-3.0)
def test_newton_profile_agrees_with_the_ptc_solve(mm_eq, corner, log_delta):
    """A right boundary state anywhere in the working box and delta from
    1e-3 to 1, at N = 51: the profile as shipped, Newton from the linear
    start, takes no more steps than PTC from ``DTAU0`` on the same start
    (its first Newton step poisoned, :func:`_ptc`).  The three examples are
    PTC solves whose residual rises on the way down, at step 13, 15 and 22
    (3.3e-4 to 3.6e-4 at the first), and stays below the start's; they
    converge in 16, 19 and 47 steps.
    Both stop with a residual below ``tol``, so, linearised at the PTC
    solution, they differ by at most ``|J^-1|_inf (r + r') <= 2 tol
    |J^-1|_inf``.  In 120 seeded draws the difference reached at most 0.24
    of that bound, and 4.3e-7 at most (against 2.6e-6, at delta = 1.7e-3),
    where PTC's residual (7.9e-9 against Newton's 3e-14) sets it."""
    model = michaelis_menten_model(MichaelisMentenParams(delta=10.0 ** log_delta))
    lo, hi = model.working_box
    bc = BoundaryConditions(mm_eq.value, lo + np.array(corner) * (hi - lo))
    grid = SolverSettings(node_count=51)
    rates = []

    def ptc(rate, initial, free, tol):
        rates.append(rate)
        return relax_free(_ptc(rate), initial, free, tol)

    shipped = integrate_to_steady(model, bc, grid)
    with pytest.MonkeyPatch.context() as m:
        m.setattr(pde, "relax_free", ptc)
        cold = integrate_to_steady(model, bc, grid)
    assert all(tau < np.inf for tau, _ in cold.residual_history[2:])
    assert shipped.steps <= len(cold.residual_history) - 3
    J = _dense(*rates[0](cold.profile.states)[1]())
    bound = 2.0 * grid.steady_tol * np.abs(np.linalg.inv(J)).sum(axis=1).max()
    assert np.abs(shipped.profile.states - cold.profile.states).max() <= bound


def _arctan_rate(A):
    """``-arctan(A)``, node by node: its Newton step overshoots from ``|A| >
    1.39`` (``2 -> -3.54``) and converges from below."""
    def jac():
        return 0, np.asfortranarray(-1.0 / (1.0 + A[None] ** 2), dtype=np.float32)
    return -np.arctan(A), jac


def test_failed_newton_attempt_restarts_the_cold_solve():
    """From a start where the Newton step ends above it, the solve logs
    that step and returns the array and history of PTC from the same start
    (the cold solve, :func:`_ptc`) after it; from a start in Newton's basin,
    it converges in Newton steps alone, in fewer of them than PTC."""
    far, near = np.array([2.0, 0.5, -1.0]), np.array([0.5, -0.3, 1.0])
    cold_A, cold = relax_free(_ptc(_arctan_rate), far, np.s_[:], 1e-10)
    A, history = relax_free(_arctan_rate, far, np.s_[:], 1e-10)
    assert np.array_equal(A, cold_A)
    assert history[0] == cold[0] and history[2:] == cold[2:]
    assert history[1][0] == np.inf and history[1][1] > history[0][1]
    assert all(tau < np.inf for tau, _ in cold[2:])

    A, history = relax_free(_arctan_rate, near, np.s_[:], 1e-10)
    assert all(tau == np.inf for tau, _ in history[1:])
    assert all(b < a for (_, a), (_, b) in zip(history, history[1:]))
    assert history[-1][1] < 1e-10
    assert len(history) < len(relax_free(_ptc(_arctan_rate), near, np.s_[:], 1e-10)[1]) - 2


def _isin_difference_matrix(m, d, order, s):
    """:func:`difference_matrix` as it was, keeping column ``i + k`` by
    membership in the slice's indices."""
    central, edge = [([0.0, 1.0, 0.0], [1.0]), ([-0.5, 0.0, 0.5], [-1.5, 2.0, -0.5]),
                     ([1.0, -2.0, 1.0], [2.0, -5.0, 4.0, -1.0])][order]
    P = {k: np.zeros(m) for k in range(-3, 4)}
    for k, c in zip((-1, 0, 1), central):
        P[k][1:-1] = c / d ** order
    for k, c in enumerate(edge):
        P[k][0], P[-k][-1] = c / d ** order, (-1) ** order * c / d ** order
    i = np.arange(m)[s]
    return {k: c for k, c in ((k, p[s] * np.isin(i + k, i)) for k, p in P.items()) if c.any()}


@pytest.mark.parametrize("s", [np.s_[:], np.s_[1:-1]], ids=["all", "interior"])
@pytest.mark.parametrize("order", [0, 1, 2])
@pytest.mark.parametrize("m", [4, 5, 9, 61])
def test_difference_matrix_range_test_matches_membership(m, order, s):
    """A slice is contiguous, so the range test on its columns keeps the same
    diagonals, bit for bit, as the membership test it replaced."""
    got, ref = difference_matrix(m, 0.3, order, s), _isin_difference_matrix(m, 0.3, order, s)
    assert got.keys() == ref.keys()
    assert all(np.array_equal(got[k], ref[k]) for k in ref)


def test_singular_step_matrix_carries_residual():
    """``1 + A^2`` with J = I / DTAU0: the Newton step (to -0.1) ends at 1.01,
    above the start's 1, and the first PTC step matrix, I / DTAU0 - J, is
    exactly zero; a singular Newton step would restart PTC instead."""
    def jac():
        return 0, np.full((1, 2), 1.0 / DTAU0, dtype=np.float32, order="F")

    with pytest.raises(ConvergenceError, match="singular step matrix") as exc:
        relax_free(lambda A: (1.0 + A * A, jac), np.zeros(2), np.s_[:], 1e-8)
    assert exc.value.residual == 1.0


def test_non_finite_ptc_step_raises_divergence():
    """A Newton step to a NaN residual restarts PTC; a PTC step to one raises
    DivergenceError, not the ConvergenceError of a step that ends finite
    above its start."""
    def jac():
        return 0, np.ones((1, 1), dtype=np.float32, order="F")

    seen = []

    def rate(A):  # 1 at the start, NaN anywhere else
        seen.append(float(A[0]))
        return np.where(A == 0.0, 1.0, np.nan), jac

    with pytest.raises(DivergenceError):
        relax_free(rate, np.zeros(1), np.s_[:], 1e-8)
    assert seen == [0.0, -1.0, 0.0, pytest.approx(1.0 / 9.0)]  # Newton, then PTC


def test_relax_free_holds_the_rest_and_logs_each_step():
    """A 6 x 5 array with its border held: the interior relaxes under
    ``Lap_0 A - A - A^3 / 2 + 1``, coupled to the held rows by the second
    difference along the first axis.  It converges in Newton steps alone;
    PTC (:func:`_ptc`) logs rising pseudo-times.  Both lower the residual
    at every step."""
    initial = np.random.default_rng(3).uniform(-1.0, 1.0, (6, 5))
    free, tol = np.s_[1:-1, 1:-1], 1e-10
    assemble = band_assembler(initial[free].shape, [
        (difference_matrix(6, 1.0, k, free[0]), {0: np.ones(3)}) for k in (2, 0)])

    def rate(A):
        Af = A[free]
        R = A[:-2, 1:-1] - 2.0 * Af + A[2:, 1:-1] - Af - 0.5 * Af ** 3 + 1.0
        return R, lambda: assemble([1.0, -1.0 - 1.5 * Af ** 2])

    start = initial.copy()
    held = np.ones(initial.shape, dtype=bool)
    held[free] = False
    A_newton, newton = relax_free(rate, initial, free, tol)
    A_ptc, ptc = relax_free(_ptc(rate), initial, free, tol)
    assert np.array_equal(initial, start)
    for A, history in ((A_newton, newton), (A_ptc, ptc[2:])):
        assert np.array_equal(A[held], initial[held])
        assert history[0] == (0.0, float(np.abs(rate(initial)[0]).max()))
        residuals = [r for _, r in history]
        assert len(history) > 2 and all(b < a for a, b in zip(residuals, residuals[1:]))
        assert history[-1][1] < tol
        assert history[-1][1] == float(np.abs(rate(A)[0]).max())
    assert all(tau == np.inf for tau, _ in newton[1:])  # Newton steps alone
    taus = [tau for tau, _ in ptc[2:]]
    assert all(a < b for a, b in zip(taus, taus[1:]))


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


def _sequential_damped_newton(phi, jacobian, P, B, offset, U0, tol, max_iter):
    """:func:`damped_newton` with the line search it replaced: one ``phi``
    call per halving, 1, 1/2, ..., 2**-39, for the rows not yet improved."""
    m = offset.shape[0]
    U = np.zeros((m, B.shape[1])) if U0 is None else np.array(
        np.broadcast_to(U0, (m, B.shape[1])), dtype=float)
    z = U @ B.T + offset
    g = phi(z) @ P.T
    gnorm = np.abs(g).max(axis=1)
    live = np.ones(m, dtype=bool)
    singular = np.zeros(m, dtype=bool)
    for _ in range(max_iter):
        live &= ~(gnorm < tol)
        rows = np.flatnonzero(live)
        if rows.size == 0:
            break
        dU, ok = steady._solve_rows(P @ jacobian(z[rows]) @ B, -g[rows])
        singular[rows[~ok]] = True
        live[rows[~ok]] = False
        rows, dU = rows[ok], dU[ok]
        step = 1.0
        for _ in range(40):
            U_new = U[rows] + step * dU
            z_new = U_new @ B.T + offset[rows]
            g_new = phi(z_new) @ P.T
            gnorm_new = np.abs(g_new).max(axis=1)
            down = gnorm_new < gnorm[rows]
            took = rows[down]
            U[took], z[took], g[took], gnorm[took] = (
                U_new[down], z_new[down], g_new[down], gnorm_new[down])
            rows, dU = rows[~down], dU[~down]
            if rows.size == 0:
                break
            step *= 0.5
        live[rows] = False
    return z, gnorm < tol, singular, gnorm


def _cubic_rows():
    """``z^3 = 1`` from starts whose full Newton step overshoots by 2**k: the
    residual first falls at a length in each block of the line search, none
    does from 1e-7 (a step of 3e13), and the derivative vanishes at 0."""
    starts = np.array([[-1.0], [2.0], [0.1], [1e-2], [1e-3], [1e-4], [1e-5], [1e-6], [1e-7], [0.0]])
    eye = np.eye(1)
    return (lambda z: z ** 3 - 1.0, lambda z: 3.0 * z[..., None] ** 2, eye, eye,
            np.zeros((len(starts), 1)), starts, 1e-12, 100)


def _mesh_rows(mm_model, mm_dec, mm_eq):
    """The 12-per-axis slow mesh of the enzyme model, whose Jacobian is
    zeroed below X = 0.2 (a singular reduced Jacobian) and flipped above
    X = 1.8 (every step climbs)."""
    dec = mm_dec.value

    def jacobian(z):
        J = mm_model.jacobian(z)
        J[z[:, 0] < 0.2] = 0.0
        J[z[:, 0] > 1.8] *= -1.0
        return J

    V = default_slow_grid(dec, mm_model, 12)
    return (lambda z: eval_source(mm_model, z), jacobian, dec.Zt_f, dec.Z_f, V @ dec.Z_s.T,
            dec.Zt_f @ mm_eq.value, 1e-10, 60)


@pytest.mark.parametrize("problem", ["cubic", "mesh"])
def test_block_line_search_matches_the_sequential_one(problem, mm_model, mm_dec, mm_eq):
    """Each row takes the first length that lowers its residual, as when the
    lengths were tried one call at a time: the same iterates, flags and
    residuals, bit for bit, on rows that converge, fail the line search or
    stop on a singular Jacobian."""
    args = _cubic_rows() if problem == "cubic" else _mesh_rows(mm_model, mm_dec, mm_eq)
    z, converged, singular, residual = damped_newton(*args)
    ref = _sequential_damped_newton(*args)
    for got, want in zip((z, converged, singular, residual), ref):
        assert np.array_equal(got, want)
    assert converged.any() and singular.any() and (~converged & ~singular).any()
