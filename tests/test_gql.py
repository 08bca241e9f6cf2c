import dataclasses
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fastslow.core import ReactionDiffusionModel
from fastslow.errors import (
    ContractViolationError,
    EmptyMeshError,
    IllPosedSampleError,
    NoDecompositionError,
    SingularJacobianError,
)
from fastslow.gql import (
    build_surrogate,
    decomposed_rhs,
    default_sample_states,
    default_slow_grid,
    from_fast_slow_coords,
    slow_manifold_mesh,
    solve_on_fiber,
    spectral_split,
    to_fast_slow_coords,
)
from fastslow.models import linear_model


GOLDEN_MESH = Path(__file__).parent / "data" / "golden_mesh.npz"


def _random_linear(seed=3, n=3):
    rng = np.random.default_rng(seed)
    V = rng.normal(size=(n, n)) + np.eye(n)
    lam = np.array([-0.2, -0.5, -30.0])
    A = V @ np.diag(lam) @ np.linalg.inv(V)
    return linear_model(A, np.zeros(n)), A, lam


# ---------------------------------------------------------------------------
# surrogate construction
# ---------------------------------------------------------------------------

def test_exact_mode_recovers_linear_field():
    m, A, _ = _random_linear()
    rng = np.random.default_rng(11)
    samples = rng.normal(size=(3, 3)) + 2.0 * np.eye(3)
    T = build_surrogate(m, samples)
    assert np.linalg.norm(T - A) <= 1e-12 * np.linalg.norm(A)


def test_least_squares_recovers_linear_field():
    m, A, _ = _random_linear(seed=5)
    rng = np.random.default_rng(13)
    samples = rng.normal(size=(12, 3))
    T = build_surrogate(m, samples)
    assert np.linalg.norm(T - A) <= 1e-10 * np.linalg.norm(A)


def test_exact_mode_duplicate_samples_rejected():
    m, _, _ = _random_linear()
    samples = np.array([[1.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
    with pytest.raises(IllPosedSampleError):
        build_surrogate(m, samples)


def test_exact_mode_sample_count_enforced():
    m, _, _ = _random_linear()
    with pytest.raises(ContractViolationError):
        build_surrogate(m, np.eye(3)[:2])


@pytest.mark.parametrize("c", [1e6, 1e8])
def test_near_dependent_samples_rejected(c):
    """A third sample column within noise / c of the sum of the other two
    puts cond(Psi Psi^T) at 9.8e12 (c = 1e6) and 2.6e18 (c = 1e8)."""
    m, _, _ = _random_linear()
    rng = np.random.default_rng(3)
    samples = rng.normal(size=(10, 3))
    samples[:, 2] = samples[:, 0] + samples[:, 1] + rng.normal(size=10) / c
    with pytest.raises(IllPosedSampleError):
        build_surrogate(m, samples)


def test_mm_surrogate_has_one_fast_eigenvalue(mm_model, mm_eq):
    samples = default_sample_states(mm_model, extra=[mm_eq.value])
    assert samples.shape == (9, 3)
    T = build_surrogate(mm_model, samples)
    dec = spectral_split(T, min_gap_ratio=10.0)
    assert dec.n_f == 1 and dec.n_s == 2
    mags = np.abs(dec.eigenvalues)
    assert mags[2] / mags[1] >= 10.0
    assert dec.epsilon == pytest.approx(0.0194875845, abs=1e-9)


# ---------------------------------------------------------------------------
# spectral splitting
# ---------------------------------------------------------------------------

def test_split_diagonal_case():
    dec = spectral_split(np.diag([-0.1, -0.5, -50.0]))
    assert dec.n_s == 2 and dec.n_f == 1
    assert sorted(np.abs(dec.slow_eigenvalues)) == pytest.approx([0.1, 0.5])
    assert np.abs(dec.fast_eigenvalues) == pytest.approx([50.0])
    assert dec.epsilon == pytest.approx(0.01, abs=1e-15)


def test_split_requires_gap():
    with pytest.raises(NoDecompositionError):
        spectral_split(np.diag([-1.0, -2.0, -3.0]), min_gap_ratio=10.0)


@pytest.mark.parametrize("ratio", [1.0, 0.5, np.inf, np.nan])
def test_split_gap_ratio_must_be_finite_and_above_1(ratio):
    # a NaN ratio would accept the gap of 1.5 below
    with pytest.raises(ContractViolationError, match="min_gap_ratio"):
        spectral_split(np.diag([-1.0, -1.5]), min_gap_ratio=ratio)


def test_split_two_by_two():
    dec = spectral_split(np.diag([-1.0, -100.0]))
    assert np.allclose(dec.Z_f.ravel(), [0.0, 1.0])
    assert np.allclose(dec.Z_s.ravel(), [1.0, 0.0])
    assert np.abs(dec.Z_tilde @ dec.Z - np.eye(2)).max() < 1e-12


def test_split_handles_complex_fast_pair():
    # fast 2x2 rotation block must stay together and keep the basis real
    rng = np.random.default_rng(2)
    Q = np.linalg.qr(rng.normal(size=(4, 4)))[0]
    B = np.zeros((4, 4))
    B[0, 0], B[1, 1] = -0.1, -0.3
    B[2:, 2:] = [[-50.0, 30.0], [-30.0, -50.0]]
    T = Q @ B @ Q.T
    dec = spectral_split(T)
    assert dec.n_f == 2
    assert np.isrealobj(dec.Z)
    assert np.abs(dec.Zt_f @ T @ dec.Z_s).max() <= 1e-10
    assert np.abs(dec.Zt_s @ T @ dec.Z_f).max() <= 1e-10


def test_block_diagonalization_invariants(mm_dec):
    dec = mm_dec.value
    T = dec.T
    assert np.abs(dec.Z @ dec.Z_tilde - np.eye(3)).max() <= 1e-10
    assert np.abs(dec.Z_tilde @ dec.Z - np.eye(3)).max() <= 1e-10
    assert np.abs(dec.Zt_f @ T @ dec.Z_s).max() <= 1e-8
    assert np.abs(dec.Zt_s @ T @ dec.Z_f).max() <= 1e-8
    blocks = dec.Z_tilde @ T @ dec.Z
    blocks[: dec.n_f, dec.n_f:] = 0.0
    blocks[dec.n_f:, : dec.n_f] = 0.0
    rec = dec.Z @ blocks @ dec.Z_tilde
    assert np.linalg.norm(rec - T) <= 1e-10 * np.linalg.norm(T)


@settings(max_examples=30, deadline=None)
@given(st.floats(min_value=1e-6, max_value=1e6))
def test_epsilon_invariant_under_scaling(c):
    T = np.diag([-0.1, -0.5, -50.0])
    base = spectral_split(T)
    scaled = spectral_split(c * T)
    assert scaled.split_index == base.split_index
    assert scaled.epsilon == pytest.approx(base.epsilon, rel=1e-12)


# ---------------------------------------------------------------------------
# coordinates and decomposed dynamics
# ---------------------------------------------------------------------------

def test_coordinate_pickoff():
    dec = spectral_split(np.diag([-1.0, -100.0]))
    U, V = to_fast_slow_coords(dec, np.array([2.0, 3.0]))
    assert U == pytest.approx([3.0]) and V == pytest.approx([2.0])
    assert np.all(to_fast_slow_coords(dec, np.zeros(2))[0] == 0.0)


@settings(max_examples=100, deadline=None)
@given(zl=st.lists(st.floats(min_value=-10, max_value=10), min_size=3, max_size=3))
def test_coordinate_roundtrip(mm_dec, zl):
    dec = mm_dec.value
    z = np.array(zl)
    U, V = to_fast_slow_coords(dec, z)
    assert from_fast_slow_coords(dec, U, V) == pytest.approx(z, abs=1e-10)


def test_decomposed_rhs_at_equilibrium(mm_dec, mm_model, mm_eq):
    dU, dV = decomposed_rhs(mm_dec.value, mm_model, mm_eq.value)
    assert np.abs(dU).max() < 1e-10 and np.abs(dV).max() < 1e-10


def test_decomposed_rhs_block_dynamics_linear():
    lam = np.array([-0.5, -80.0])
    dec = spectral_split(np.diag(lam))
    m = linear_model(np.diag(lam), np.zeros(2))
    z = np.array([1.5, -0.7])
    U, V = to_fast_slow_coords(dec, z)
    dU, dV = decomposed_rhs(dec, m, z)
    assert dU == pytest.approx(-80.0 * U, abs=1e-10)
    assert dV == pytest.approx(-0.5 * V, abs=1e-10)


def test_decomposed_rhs_consistency(mm_dec, mm_model):
    dec = mm_dec.value
    z = np.array([2.0, 0.0, 1.0])
    dU, dV = decomposed_rhs(dec, mm_model, z)
    back = from_fast_slow_coords(dec, dU, dV)
    assert back == pytest.approx([-2.99, 0.1, -2.9], abs=1e-10)


# ---------------------------------------------------------------------------
# zero-order slow manifold
# ---------------------------------------------------------------------------

def test_mesh_contains_equilibrium(mm_dec, mm_model, mm_eq):
    dec = mm_dec.value
    _, V_eq = to_fast_slow_coords(dec, mm_eq.value)
    mesh = slow_manifold_mesh(dec, mm_model, V_eq[None, :], tol=1e-12,
                              U0=dec.Zt_f @ mm_eq.value)
    assert mesh.converged[0]
    assert mesh.states[0] == pytest.approx(mm_eq.value, abs=1e-9)


def test_mesh_postcondition(mm_mesh, mm_dec, mm_model):
    dec = mm_dec.value
    mesh = mm_mesh.value
    assert mesh.converged.sum() > 0.5 * len(mesh.converged)
    for z in mesh.states[mesh.converged]:
        assert np.abs(dec.Zt_f @ mm_model.source(z)).max() < 1e-10
    # about 10x the batched Newton's time for these 900 fibres
    assert mm_mesh.seconds < 0.35, f"30/axis mesh took {mm_mesh.seconds:.3f}s"


def test_mesh_matches_golden(mm_mesh):
    """Same manifold as the per-fibre scalar Newton loop that wrote the
    golden mesh (``tests/data/make_golden.py --mesh``)."""
    golden = np.load(GOLDEN_MESH)
    mesh = mm_mesh.value
    assert np.array_equal(mesh.V, golden["V"])
    assert np.array_equal(mesh.converged, golden["converged"])
    ok = golden["converged"]
    assert np.abs(mesh.states[ok] - golden["states"][ok]).max() <= 1e-12
    assert np.isnan(mesh.states[~ok]).all()


def test_mesh_all_nodes_unreachable(mm_dec, mm_model):
    far = np.array([[1e8, 1e8], [-1e8, 1e8]])
    with pytest.raises(EmptyMeshError):
        slow_manifold_mesh(mm_dec.value, mm_model, far, tol=1e-12)


def test_mesh_empty_grid_raises(mm_dec, mm_model):
    grid = default_slow_grid(mm_dec.value, mm_model, points_per_axis=0)
    assert grid.shape == (0, 2)
    with pytest.raises(EmptyMeshError):
        slow_manifold_mesh(mm_dec.value, mm_model, grid)


def _three_outcome_model():
    """Over ``spectral_split(diag(-1, -100))`` the fast coordinate is z2 and
    the slow one z1.  The fast residual ``-100 e - 50 e^3``, ``e = z2 - z1``,
    has one root on every fibre, but the supplied Jacobian is exact only for
    0 <= z1 <= 1.  It is zero (a singular reduced Jacobian) for z1 < 0, and
    of the wrong sign for z1 > 1, where every step climbs and all halvings
    fail the line search."""
    def source(z):
        e = z[..., 1] - z[..., 0]
        return np.stack([-z[..., 0], -100.0 * e - 50.0 * e ** 3], axis=-1)

    def jac(z):
        e = z[..., 1] - z[..., 0]
        slope = -100.0 - 150.0 * e ** 2
        slope = np.where(z[..., 0] < 0.0, 0.0, np.where(z[..., 0] > 1.0, -slope, slope))
        J = np.zeros(z.shape[:-1] + (2, 2))
        J[..., 0, 0] = -1.0
        J[..., 1, 0] = -slope
        J[..., 1, 1] = slope
        return J

    return ReactionDiffusionModel(name="three-outcome", species=("z1", "z2"),
                                  source=source, jac=jac, diffusion=np.zeros(2))


def test_mesh_failure_paths_match_row_by_row_fibers():
    dec = spectral_split(np.diag([-1.0, -100.0]))
    model = _three_outcome_model()
    grid = np.linspace(-1.0, 2.0, 25)[:, None]
    mesh = slow_manifold_mesh(dec, model, grid)

    rows, outcomes = [], set()
    for v in grid:
        try:
            z, ok = solve_on_fiber(dec, model, v, tol=1e-10)
            outcomes.add("converged" if ok else "line search")
        except SingularJacobianError:
            ok = False
            outcomes.add("singular")
        rows.append(z if ok else np.full(2, np.nan))
    assert outcomes == {"converged", "line search", "singular"}
    assert np.array_equal(mesh.converged, (grid[:, 0] >= 0.0) & (grid[:, 0] <= 1.0))
    np.testing.assert_allclose(mesh.states, np.array(rows), rtol=0.0, atol=1e-14)
    with pytest.raises(SingularJacobianError):
        solve_on_fiber(dec, model, grid[0], tol=1e-10)


def test_mesh_non_finite_source_raises(mm_dec, mm_model, mm_eq):
    dec = mm_dec.value
    nan_model = dataclasses.replace(
        mm_model,
        source=lambda z: np.where(z[..., :1] > 1.5, np.nan, mm_model.source(z)),
    )
    grid = default_slow_grid(dec, mm_model, points_per_axis=10)
    with pytest.raises(ContractViolationError):
        slow_manifold_mesh(dec, nan_model, grid, U0=dec.Zt_f @ mm_eq.value)


def test_profile_slow_tail_near_mesh(mm_dec, mm_model, steady_101):
    """The genuinely slow part of the stationary profile rides the zero-order
    manifold; distance grows with the fast-residual threshold."""
    dec = mm_dec.value
    states = steady_101.value.profile.states
    g_raw = np.abs(mm_model.source(states) @ dec.Zt_f.T)[:, 0]
    sqeps = np.sqrt(dec.epsilon)

    def fiber_distance(p):
        z, ok = solve_on_fiber(dec, mm_model, dec.Zt_s @ p, U0=dec.Zt_f @ p)
        assert ok
        return float(np.linalg.norm(z - p))

    deep = states[g_raw < 0.1 * sqeps]
    assert len(deep) >= 10
    assert max(fiber_distance(p) for p in deep) <= 1e-2
    edge = states[g_raw < sqeps]
    assert max(fiber_distance(p) for p in edge) <= sqeps
