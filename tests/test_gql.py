import dataclasses
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg as sla
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from fastslow import _lapack
from fastslow.cli import main
from fastslow.core import ReactionDiffusionModel
from fastslow.errors import (
    ContractViolationError,
    DivergenceError,
    EmptyMeshError,
    IllPosedSampleError,
    NoDecompositionError,
    SingularJacobianError,
    SplitConflictError,
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


CACHED = {
    "Z_f": lambda d: d.Z[:, : d.n_f],
    "Z_s": lambda d: d.Z[:, d.n_f:],
    "Zt_f": lambda d: d.Z_tilde[: d.n_f],
    "Zt_s": lambda d: d.Z_tilde[d.n_f:],
    "fast_rate": lambda d: float(np.abs(d.eigenvalues[d.split_index:]).min()),
    "slow_rate": lambda d: float(np.abs(d.eigenvalues[: d.split_index]).max()),
}


def test_cached_quantities_follow_the_fields(mm_dec):
    """The bases' blocks and the two rates are computed once per instance and
    equal their definitions from the fields, also on a ``dataclasses.replace``
    copy with another ``Z_tilde`` and other eigenvalues made after the
    original's values were cached.  The fields stay frozen."""
    dec = mm_dec.value
    for name, definition in CACHED.items():
        assert np.array_equal(getattr(dec, name), definition(dec)), name
        assert getattr(dec, name) is getattr(dec, name), name
    other = dataclasses.replace(dec, Z_tilde=2.0 * dec.Z_tilde,
                                eigenvalues=3.0 * dec.eigenvalues)
    for name, definition in CACHED.items():
        assert np.array_equal(getattr(other, name), definition(other)), name
    for name in ("Zt_f", "Zt_s", "fast_rate", "slow_rate"):  # no stale value carried over
        assert not np.array_equal(getattr(other, name), getattr(dec, name)), name
    assert type(other.fast_rate) is float and other.fast_rate == 3.0 * dec.fast_rate
    for name in ("Z", "Z_tilde", "eigenvalues", "n_f", "Zt_f", "fast_rate"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(dec, name, None)


@settings(max_examples=30, deadline=None)
@given(st.floats(min_value=1e-6, max_value=1e6))
def test_epsilon_invariant_under_scaling(c):
    T = np.diag([-0.1, -0.5, -50.0])
    base = spectral_split(T)
    scaled = spectral_split(c * T)
    assert scaled.split_index == base.split_index
    assert scaled.epsilon == pytest.approx(base.epsilon, rel=1e-12)


# -- the split against scipy.linalg as a reference ----------------------------

EPS = np.finfo(float).eps
ELEMENTS = st.floats(-10.0, 10.0, allow_subnormal=False)


@st.composite
def square_matrices(draw, min_side=2, max_side=6):
    """Real matrices, often with a rotation block on top: a complex pair."""
    n = draw(st.integers(min_side, max_side))
    a = draw(hnp.arrays(np.float64, (n, n), elements=ELEMENTS))
    if n >= 2 and draw(st.booleans()):
        k = draw(st.integers(0, n - 2))
        re, im = draw(st.floats(-50.0, 50.0)), draw(st.floats(1.0, 50.0))
        a[k:k + 2, k:k + 2] += [[re, im], [-im, re]]
    return a


def _sort(a):
    """The split's fast count and sort: the real Schur form's eigenvalues
    whose magnitudes pass the geometric mean at the largest gap, a threshold
    that keeps the reordered eigenvalues, which a sorted ``dgees`` tests again,
    on their side."""
    _, _, wr, wi, _, _, _ = sla.lapack.dgees(lambda re, im: None, a)
    mags = np.sort(np.abs(wr + 1j * wi))
    with np.errstate(over="ignore"):
        k = int(np.argmax(mags[1:] / mags[:-1]))
    thresh = float(np.sqrt(mags[k]) * np.sqrt(mags[k + 1]))
    return len(mags) - k - 1, lambda re, im: np.abs(re + 1j * im) > thresh


# eigenvalues 0.5 +- 30i and -0.4, and 0.5 +- 3i and -40: a complex pair
# that leads the sort, and one that trails it
PAIR_FAST = np.array([[0.5, -30.0, 1.0], [30.0, 0.5, 2.0], [0.0, 0.0, -0.4]])
PAIR_SLOW = np.array([[0.5, -3.0, 1.0], [3.0, 0.5, 2.0], [0.0, 0.0, -40.0]])

# near-defective clusters, on which the balanced eigenvalues (LAPACK dgeev)
# and the real Schur form's (dgees) put the gap in different places: the
# pair of TINY has magnitudes 2.5e-135 by one and 6.3e-9 by the other, and
# CHAIN has 3 fast eigenvalues by dgeev and 5 by dgees
TINY = 6.43844181e-270
CHAIN = np.full((6, 6), 1e-12)
CHAIN[2, 4], CHAIN[4, 0] = -5.0, 2.5


def test_the_examples_have_a_schur_block_on_each_side():
    R, _, sdim = sla.schur(PAIR_FAST, output="real", sort=_sort(PAIR_FAST)[1])
    assert sdim == 2 and R[1, 0] != 0.0
    R, _, sdim = sla.schur(PAIR_SLOW, output="real", sort=_sort(PAIR_SLOW)[1])
    assert sdim == 1 and R[2, 1] != 0.0


@settings(max_examples=200, deadline=None)
@given(a=square_matrices(), ratio=st.floats(1.01, 4.0))
@example(a=PAIR_FAST, ratio=2.0)
@example(a=PAIR_SLOW, ratio=2.0)
@example(a=np.array([[1.0, TINY, TINY], [TINY, TINY, 1.0], [TINY, TINY, TINY]]), ratio=2.0)
@example(a=CHAIN, ratio=2.0)
def test_split_block_diagonalizes_and_agrees_with_scipy(a, ratio):
    """The bases are inverse to each other and decouple T, their columns
    follow the sign rule, and the decoupling ``X`` agrees with
    ``scipy.linalg.solve_sylvester`` on the same ordered Schur blocks.  The
    bounds are rounding bounds: ``n eps`` times the norms involved, and for
    ``X`` divided by ``sep(R11, R22)``, the smallest singular value of the
    Sylvester operator.  Over the 11,149 splits of 24,000 draws the largest
    ratio to each was 4.8, 1.0 and 1.1; they allow 16.  The gap and the
    ordering come from one Schur form, so none raised
    :class:`SplitConflictError`, where 439 did with the balanced eigenvalues."""
    n = a.shape[0]
    try:
        dec = spectral_split(a, min_gap_ratio=ratio)
    except NoDecompositionError:
        return
    n_f, fast = _sort(a)
    Z, Zt = dec.Z, dec.Z_tilde
    assert dec.n_f == n_f
    # each bound divides out of the error: their product can pass the double
    # range (|Z| |Z_tilde| near 1e178 each for eigenvalues near 1e-179)
    norm_Z, norm_Zt, norm_T = (np.linalg.norm(m, 2) for m in (Z, Zt, a))
    assert np.abs(Zt @ Z - np.eye(n)).max() / norm_Z / norm_Zt <= 16 * n * EPS
    for block in (dec.Zt_f @ a @ dec.Z_s, dec.Zt_s @ a @ dec.Z_f):
        assert np.abs(block).max() / norm_Z / norm_Zt / norm_T <= 16 * n * EPS
    for k in range(n):
        assert Z[np.argmax(np.abs(Z[:, k])), k] > 0.0

    # not scipy's count: it tests the reordered eigenvalues again, and those of
    # a near-defective cluster move (test_lapack.py)
    R, Q, _ = sla.schur(a, output="real", sort=fast)
    R11, R12, R22 = R[:n_f, :n_f], R[:n_f, n_f:], R[n_f:, n_f:]
    expected = sla.solve_sylvester(R11, -R22, -R12)
    WD = Q.T @ Z  # [[I, X], [0, I]] with the columns' signs
    X = WD[:n_f, n_f:] * np.sign(np.diag(WD))[n_f:]
    sep = np.linalg.svd(np.kron(np.eye(n - n_f), R11) - np.kron(R22.T, np.eye(n_f)),
                        compute_uv=False)[-1]
    error = np.abs(X - expected).max() * sep / np.linalg.norm(R, 2)
    assert error / (1 + np.linalg.norm(expected, 2)) <= 16 * n * EPS


def _with_info(routine, info):
    """``routine`` with its ``info`` replaced, except on workspace queries."""
    def stub(*args, **kwargs):
        result = routine(*args, **kwargs)
        return result if kwargs.get("lwork") == -1 else result[:-1] + (info,)
    return stub


@pytest.mark.parametrize("routine, info", [
    ("dgees", -2), ("dgees", 1), ("dgees", 3), ("dtrsen", 1),
], ids=["-2", "1", "3", "dtrsen-1"])
def test_schur_failures_raise_split_conflict(monkeypatch, capsys, tmp_path, routine, info):
    """For n = 3: an illegal argument and a QR failure of the Schur form
    (``dgees`` info 1 .. n), and a reordering that fails (``dtrsen`` info 1),
    are package errors, not numpy's LinAlgError, and ``fastslow gql`` ends in
    one ``error:`` line and exit 4."""
    monkeypatch.setattr(_lapack, routine, _with_info(getattr(_lapack, routine), info))
    with pytest.raises(SplitConflictError, match=f"{routine} info {info}"):
        spectral_split(PAIR_SLOW)
    report = tmp_path / "gql_report.json"
    assert main(["gql", "--out-report", str(report)]) == 4
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and f"{routine} info {info}" in err[0]
    assert not report.exists()


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_split_rejects_a_non_finite_surrogate(bad):
    T = np.diag([-0.1, -0.5, -50.0])
    T[0, 2] = bad
    with pytest.raises(ContractViolationError, match="finite"):
        spectral_split(T)


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


def test_mesh_line_search_evaluates_in_blocks(mm_dec, mm_model, mm_eq, mm_mesh):
    """The 30-per-axis mesh makes 583 source calls when each fibre halves its
    step one call at a time down to 2**-39, 93 with the shorter lengths
    tried in blocks of 8, and 33 on 10,424 states (27,661 before) once the
    line search stops at the damping floor 2**-16: the fibres with no root
    stop there instead of halving until rounding stops them.  With all 16
    shorter lengths in one call it makes 23 calls, one per iteration plus
    one per iteration whose full step leaves a row unimproved, on 12,016
    states: more states for fewer calls, in the same 11 iterations."""
    calls = []

    def source(z):
        calls.append(z.shape[0])
        return mm_model.source(z)

    dec = mm_dec.value
    grid = default_slow_grid(dec, mm_model, points_per_axis=30)
    mesh = slow_manifold_mesh(dec, dataclasses.replace(mm_model, source=source), grid,
                              tol=1e-10, U0=dec.Zt_f @ mm_eq.value)
    assert (len(calls), sum(calls)) == (23, 12016)
    assert np.array_equal(mesh.states, mm_mesh.value.states, equal_nan=True)


@pytest.mark.parametrize("tol", [0.0, -1.0, np.nan, np.inf])
def test_fiber_tol_must_be_finite_and_positive(tol, mm_dec, mm_model):
    """Both fibre entry points refuse a tol that is not finite and positive
    before any source evaluation."""
    def source(z):
        raise AssertionError("evaluated")
    dec, model = mm_dec.value, dataclasses.replace(mm_model, source=source)
    grid = default_slow_grid(dec, mm_model, points_per_axis=3)
    with pytest.raises(ContractViolationError, match="tol"):
        slow_manifold_mesh(dec, model, grid, tol=tol)
    with pytest.raises(ContractViolationError, match="tol"):
        solve_on_fiber(dec, model, grid[4], tol=tol)


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
    with pytest.raises(DivergenceError, match="non-finite"):
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
