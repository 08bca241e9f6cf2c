"""The shared steady-state solver: fixed points, failures and grid scaling."""

import dataclasses
import itertools
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from fastslow import pde, redim, steady
from fastslow.core import ReactionDiffusionModel, eval_source
from fastslow.errors import ContractViolationError, ConvergenceError, DivergenceError
from fastslow.gql import default_slow_grid, spectral_split
from fastslow.models import (
    MichaelisMentenParams,
    equilibrium,
    linear_model,
    michaelis_menten_model,
)
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


def _matrix(diagonals, m):
    """The ``m x m`` matrix of ``{k: c}``, ``c[i]`` at row ``i``, column ``i + k``."""
    A = np.zeros((m, m))
    for k, c in diagonals.items():
        i = np.arange(max(-k, 0), m - max(k, 0))
        A[i, i + k] = c[i]
    return A


@settings(max_examples=60, deadline=None)
@given(n0=st.integers(4, 9), n1=st.integers(1, 7), seed=st.integers(0, 2 ** 32 - 1),
       terms=st.lists(st.tuples(st.integers(0, 2), st.booleans(), st.integers(0, 2),
                                st.booleans(),
                                st.sampled_from(["dense", "scalar", "column", "full"])),
                      min_size=1, max_size=4))
def test_band_assembler_matches_a_dense_oracle(n0, n1, seed, terms):
    """Every band entry (rows ``bw:`` of the LAPACK storage) equals the dense
    ``sum_a kron(e_a e_a^T P, W_a)`` to float32 rounding, and the dense
    matrix is zero outside the band.  Terms are difference matrices of
    order 0-2 on the slices ``[:]`` and ``[1:-1]``, with dense node blocks
    or a weighted stencil (also of any order, on either slice) whose weight
    is a scalar, ``(n0, 1)`` or ``(n0, n1)``.  The band is assembled twice,
    with NaN written into the rows left to gbsv in between: the second
    call is exact as well."""
    rng = np.random.default_rng(seed)
    built, J, scale = [], np.zeros((n0 * n1, n0 * n1)), np.zeros((n0 * n1, n0 * n1))
    for order, interior, stencil_order, stencil_interior, kind in terms:
        s = np.s_[1:-1] if interior else np.s_[:]
        P = difference_matrix(n0 + 2 * interior, 0.3, order, s)
        if kind == "dense":
            W, w = None, rng.standard_normal((n0, n1, n1))
            blocks = w
        else:
            W = difference_matrix(n1 + 2 * stencil_interior, 0.7, stencil_order,
                                  np.s_[1:-1] if stencil_interior else np.s_[:])
            assume(W)  # a first difference on one interior node is empty
            w = {"scalar": rng.standard_normal(), "column": rng.standard_normal((n0, 1)),
                 "full": rng.standard_normal((n0, n1))}[kind]
            w_rows = np.broadcast_to(w, (n0, n1))
            blocks = [w_rows[a][:, None] * _matrix(W, n1) for a in range(n0)]
        built.append(((P, W), w))
        for a in range(n0):
            row = np.zeros((n0, n0))
            row[a] = _matrix(P, n0)[a]
            J += np.kron(row, blocks[a])
            scale += np.abs(np.kron(row, blocks[a]))
    assemble = band_assembler((n0, n1), [t for t, _ in built])
    r, c = np.indices(J.shape)
    for _ in range(2):
        bw, ab = assemble([w for _, w in built])
        inside = np.abs(r - c) <= bw
        assert not J[~inside].any()
        got = ab[bw:][(bw + r - c)[inside], c[inside]].astype(float)
        err = np.abs(got - J[inside])
        assert (err <= 4.0 * np.finfo(np.float32).eps * scale[inside]).all(), err.max()
        ab[:bw] = np.nan  # gbsv's fill-in rows: no assembly may read them


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


@pytest.mark.parametrize("tol", [0.0, -1.0, np.nan, np.inf])
def test_relax_free_tol_must_be_finite_and_positive(tol, mm_model, mm_bc):
    """A tol no residual can fall below (0, -1, NaN), or one every start
    meets (inf), is a contract error before the rate is evaluated."""
    def rate(A):
        raise AssertionError("evaluated")
    with pytest.raises(ContractViolationError, match="tol"):
        relax_free(rate, np.zeros((3, 2)), np.s_[1:-1], tol)
    with pytest.raises(ContractViolationError, match="tol"):
        evolve_redim_1d(mm_model, (mm_bc.left_state, mm_bc.right_state), M=11, tol=tol)


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
    call per halving, 1, 1/2, ..., 2**-(HALVINGS - 1), for the rows not yet
    improved."""
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
        for _ in range(steady.HALVINGS):
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
    """``z^3 = 1`` from starts whose full Newton step overshoots by 2**k.
    From -1, 2, 0.1 and 1e-2 the residual first falls at the full step or at
    a length of the first or second block (2**-1, 2**-5, 2**-12), and they
    converge.  From 1e-3, 1e-4, 1e-5 and 1e-6 it would first fall at 2**-19,
    2**-25, 2**-32 and 2**-38, past the damping floor 2**-16, so they stop
    unconverged at their start, as does 1e-7 (a step of 3e13, first falling
    at 2**-45); the derivative vanishes at 0."""
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


# one-by-one pivots and right-hand sides at the edges of the double range
EDGES = (0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324, 2.2250738585072014e-308,
         1e-310, 1e-300, -1e-300, 1e300, -1e300, np.finfo(float).max, 1.0, -3.0)
EDGE_FLOATS = st.sampled_from(EDGES) | st.floats(allow_nan=True, allow_infinity=True)


def _bits(x):
    """Bit patterns, every NaN as one: LAPACK and a division may set a NaN's
    sign bit differently, and a NaN step freezes its row either way."""
    x = np.array(x, dtype=float)
    x[np.isnan(x)] = np.nan
    return x.view(np.int64)


@settings(max_examples=300, deadline=None)
@given(pairs=st.lists(st.tuples(EDGE_FLOATS, EDGE_FLOATS), min_size=1, max_size=9))
@example(pairs=list(itertools.product(EDGES, EDGES)))
@example(pairs=[(a, 1.0) for a in EDGES if a != 0.0])
def test_one_by_one_steps_divide_as_lapack_solves(pairs):
    """The 1 x 1 reduced step of an n_f = 1 split is a division: bit for bit
    what ``np.linalg.solve`` gives, with no warning (the test's warnings are
    errors), and the same rows flagged singular as LAPACK flags them one
    matrix at a time, exactly the zero pivots."""
    A = np.array([a for a, _ in pairs]).reshape(-1, 1, 1)
    b = np.array([c for _, c in pairs]).reshape(-1, 1)
    want, want_ok = [], []
    for Ai, bi in zip(A, b):
        try:
            want.append(np.linalg.solve(Ai, bi))
            want_ok.append(True)
        except np.linalg.LinAlgError:
            want.append([np.nan])
            want_ok.append(False)
    assert want_ok == (A[:, 0, 0] != 0.0).tolist()
    x, ok = steady._solve_rows(A, b)
    assert ok.tolist() == want_ok
    assert np.array_equal(_bits(x), _bits(want))
    if all(want_ok):
        assert np.array_equal(_bits(steady._solve(A, b)),
                              _bits(np.linalg.solve(A, b[..., None])[..., 0]))
    else:
        with pytest.raises(np.linalg.LinAlgError):
            steady._solve(A, b)


def _counting_solve(monkeypatch):
    """Replace ``np.linalg.solve`` by a wrapper that records the shape of
    every stack it solves."""
    shapes, solve = [], np.linalg.solve

    def counted(A, b):
        shapes.append(np.shape(A))
        return solve(A, b)
    monkeypatch.setattr(np.linalg, "solve", counted)
    return shapes


def test_fast_pairs_still_go_through_lapack(monkeypatch):
    """An n_f = 2 split (the linear model with rates 1e-3, 1 and 1000) takes
    its 2 x 2 reduced steps through ``np.linalg.solve`` and lands on the
    exact fast coordinates in one Newton step."""
    A = np.diag([-1e-3, -1.0, -1000.0])
    z_star = np.array([0.1, 0.2, 0.3])
    model, dec = linear_model(A, z_star), spectral_split(A)
    assert (dec.n_s, dec.n_f) == (1, 2)
    V = np.linspace(-1.0, 1.0, 7)[:, None]
    args = (model.source, model.jacobian, dec.Zt_f, dec.Z_f, V @ dec.Z_s.T,
            np.array([5.0, -3.0]), 1e-12, 20)
    shapes = _counting_solve(monkeypatch)
    z, converged, singular, residual = damped_newton(*args)
    assert shapes == [(7, 2, 2)]
    assert converged.all() and not singular.any() and (residual < 1e-12).all()
    assert np.allclose(z @ dec.Zt_f.T, dec.Zt_f @ z_star, rtol=0.0, atol=1e-14)


def test_one_fast_rate_never_calls_lapack(monkeypatch, mm_model, mm_dec, mm_eq):
    """The enzyme model's slow mesh (n_f = 1) divides every reduced step:
    ``np.linalg.solve`` is never called."""
    dec = mm_dec.value
    assert dec.n_f == 1
    V = default_slow_grid(dec, mm_model, 12)
    shapes = _counting_solve(monkeypatch)
    _, converged, _, _ = damped_newton(
        lambda z: eval_source(mm_model, z), mm_model.jacobian, dec.Zt_f, dec.Z_f,
        V @ dec.Z_s.T, dec.Zt_f @ mm_eq.value, 1e-10, 60)
    assert shapes == [] and converged.any()



def _recorded_newton(mm_model, mm_dec, problem, start, U0, zero_below, max_iter, m):
    """``damped_newton`` on ``m`` copies of one enzyme-model row, with a
    ``phi`` and a ``jacobian`` that record every state they see: a fibre
    through the slow coordinates ``start[:2]``, from ``U0``, or the
    equilibrium from the guess ``start``.  The Jacobian is zero at states
    with X below ``zero_below``; at most ``max_iter`` iterations.  Returns
    the outcome (the four results, or the error's type and message) and the
    calls."""
    calls = []

    def phi(z):
        calls.append(("phi", z.copy()))
        return eval_source(mm_model, z)

    def jacobian(z):
        calls.append(("jacobian", z.copy()))
        J = mm_model.jacobian(z)
        if zero_below is not None:
            J[z[:, 0] < zero_below] = 0.0
        return J

    if problem == "fibre":
        dec = mm_dec.value
        P, B, offset = dec.Zt_f, dec.Z_f, np.array(start[:2]) @ dec.Z_s.T
    else:
        P = B = np.eye(3)
        offset, U0 = np.zeros(3), start
    try:
        out = damped_newton(phi, jacobian, P, B, np.tile(offset, (m, 1)),
                            np.array(U0, dtype=float), 1e-12, max_iter)
    except Exception as exc:  # the compared solves must fail alike
        out = (type(exc), str(exc))
    return out, calls


def _no_full_steps(phi, jacobian, P, B, offset, U, z, g, tol, max_iter):
    """``steady._full_steps`` taking no step: the stacked loop then runs the
    row from its start, as it ran every row before the one-row path."""
    return U, z, g, np.abs(g).max(axis=1), False, None, max_iter


def _bits_of(out):
    return [(type(x), x.tobytes()) if isinstance(x, np.ndarray) else x for x in out]


@settings(max_examples=200, deadline=None)
@given(problem=st.sampled_from(["fibre", "equilibrium"]),
       start=st.tuples(*[st.floats(-2.0, 4.0)] * 3),
       U0=st.lists(st.floats(-3.0, 3.0), min_size=1, max_size=1),
       zero_below=st.none() | st.floats(-1.0, 3.0),
       max_iter=st.integers(0, 4) | st.just(60))
@example("fibre", (-0.09300256542417357, 0.3330318672246814, 0.0), [-0.6684159495201561],
         None, 60)
@example("fibre", (-0.5228212673137794, -0.5249249786437415, 0.0), [-0.12849530204471477],
         None, 60)
@example("fibre", (0.9362114869980132, -0.4095345897096701, 0.0), [0.6170020348271854], 10.0, 60)
@example("fibre", (0.9362114869980132, -0.4095345897096701, 0.0), [0.6170020348271854], 1.52, 60)
@example("equilibrium", (-0.020434676788517514, -1.8749806702194556, 2.960688241656098),
         [0.0], None, 60)
@example("equilibrium", (-0.5793428584431763, 1.6564953147391988, -1.7466160618370157),
         [0.0], None, 60)
@example("equilibrium", (1.0, 0.5, 0.0), [0.0], None, 60)
def test_one_row_takes_the_stacked_iteration(mm_model, mm_dec, problem, start, U0,
                                             zero_below, max_iter):
    """A row solved alone takes its full steps without the stacked loop's
    row indices, and hands the stacked loop the full step that does not
    lower its residual.  It ends as the stacked loop ends the same row,
    bit for bit (``z``, ``converged``, ``singular``, ``residual``, or the
    same error), after the same kernel calls on the same states.  The same
    row twice in a two-row stack ends twice alike, with every call holding
    the pair.  (A one-row stack is not compared with a two-row one: numpy
    forms ``phi(z) @ P.T`` on one row as a dot product and on two as a
    matrix-vector product, which may differ in the last bit.)  The
    examples: a fibre whose first full step is rejected (the hand-over,
    then convergence), a fibre with no root (the damping floor), a zero
    reduced Jacobian at the start and after two full steps (a 1 x 1
    singular step), an equilibrium guess whose second full step is rejected,
    one that ends at the damping floor, and one whose 3 x 3 Jacobian is
    singular at the start."""
    args = (mm_model, mm_dec, problem, start, U0, zero_below, max_iter)
    one, calls = _recorded_newton(*args, 1)
    with mock.patch.object(steady, "_full_steps", _no_full_steps):
        stacked, stacked_calls = _recorded_newton(*args, 1)
    assert _bits_of(one) == _bits_of(stacked)
    assert [(kind, z.tobytes()) for kind, z in calls] == [
        (kind, z.tobytes()) for kind, z in stacked_calls]
    two, pair_calls = _recorded_newton(*args, 2)
    if not isinstance(two[0], type):
        assert all(x[0].tobytes() == x[1].tobytes() for x in two)
    for _, pair in pair_calls:
        assert pair[::2].tobytes() == pair[1::2].tobytes()
