import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import optimize

from fastslow.errors import ContractViolationError, ConvergenceError, SingularJacobianError
from fastslow.models import (
    MichaelisMentenParams,
    equilibrium,
    linear_model,
    michaelis_menten_jacobian,
    michaelis_menten_model,
    michaelis_menten_source,
)

YEQ = np.sqrt(3.0) - 1.0


def test_default_params():
    p = MichaelisMentenParams()
    assert (p.L1, p.L2, p.L3, p.L4, p.mu, p.delta) == (0.99, 1.0, 0.05, 0.1, 1.0, 0.01)


def test_param_validation():
    with pytest.raises(ContractViolationError):
        MichaelisMentenParams(L2=0.0)
    with pytest.raises(ContractViolationError):
        MichaelisMentenParams(L1=1.0)


@pytest.mark.parametrize(
    "z, expected",
    [
        ((2.0, 0.0, 1.0), (-2.99, 0.1, -2.9)),
        ((0.0, 1.0, 1.0), (0.0, -0.05, -0.05)),
        ((0.0, YEQ, YEQ), (0.0, 0.0, 0.0)),
    ],
)
def test_source_values(z, expected):
    out = michaelis_menten_source(MichaelisMentenParams(), np.array(z))
    assert out == pytest.approx(expected, abs=1e-12)


BOX_STATE = st.tuples(st.floats(0.0, 2.0), st.floats(0.0, 1.0), st.floats(0.0, 1.0))


@settings(max_examples=60, deadline=None)
@given(z=BOX_STATE, k=st.integers(1, 4), m=st.integers(1, 4),
       seed=st.integers(0, 2**32 - 1), data=st.data())
def test_kernels_are_shape_invariant(z, k, m, seed, data):
    """One code path for every leading shape: a state alone, as a (1, 3) row
    and inside a (k, m, 3) stack of other working-box states gives the same
    source and Jacobian bit for bit."""
    p = MichaelisMentenParams()
    z = np.array(z)
    stack = np.random.default_rng(seed).uniform([0.0, 0.0, 0.0], [2.0, 1.0, 1.0],
                                                size=(k, m, 3))
    i, j = data.draw(st.integers(0, k - 1)), data.draw(st.integers(0, m - 1))
    stack[i, j] = z
    for kernel, shape in ((michaelis_menten_source, (3,)),
                          (michaelis_menten_jacobian, (3, 3))):
        single = kernel(p, z)
        assert single.shape == shape
        assert np.array_equal(kernel(p, z[None]), single[None])
        assert np.array_equal(kernel(p, stack)[i, j], single)


def test_equilibrium_default():
    m = michaelis_menten_model()
    z = equilibrium(m, [1.0, 0.5, 0.5])
    assert z == pytest.approx([0.0, YEQ, YEQ], abs=1e-10)


def test_equilibrium_against_independent_root_finder():
    m = michaelis_menten_model()
    ours = equilibrium(m, [1.0, 0.5, 0.5])
    ref = optimize.fsolve(lambda z: m.source(z), np.array([1.0, 0.5, 0.5]), xtol=1e-13)
    assert ours == pytest.approx(ref, abs=1e-9)
    # Y solves Y^2 + 2Y - 2 = 0 for the default parameters
    assert ours[1] ** 2 + 2.0 * ours[1] - 2.0 == pytest.approx(0.0, abs=1e-10)


def test_equilibrium_basin_from_boundary_state():
    m = michaelis_menten_model()
    z = equilibrium(m, [2.0, 0.0, 1.0])
    assert z == pytest.approx([0.0, YEQ, YEQ], abs=1e-10)


def test_equilibrium_identities():
    m = michaelis_menten_model()
    z = equilibrium(m, [1.0, 0.5, 0.5], tol=1e-13)
    assert abs(z[0]) <= 1e-12
    assert abs(z[1] - z[2]) <= 1e-12


@settings(max_examples=40, deadline=None)
@given(
    st.floats(min_value=0.05, max_value=1.95),
    st.floats(min_value=0.05, max_value=0.95),
    st.floats(min_value=0.05, max_value=1.0),
)
def test_equilibrium_guess_independent(gx, gy, gz):
    # the Z = 0 face has a structurally singular Jacobian, so guesses stay off it
    m = michaelis_menten_model()
    z = equilibrium(m, [gx, gy, gz])
    assert z == pytest.approx([0.0, YEQ, YEQ], abs=1e-10)


def test_singular_jacobian_reported():
    m = michaelis_menten_model()
    with pytest.raises(SingularJacobianError):
        equilibrium(m, [1.0, 0.5, 0.0])


@pytest.mark.parametrize("tol", [0.0, -1e-12, np.inf, np.nan])
def test_equilibrium_tol_must_be_finite_and_positive(tol):
    # an infinite tol would return the guess as the equilibrium
    with pytest.raises(ContractViolationError, match="tol"):
        equilibrium(michaelis_menten_model(), [1.0, 0.5, 0.5], tol=tol)


def test_equilibrium_non_convergence():
    m = michaelis_menten_model()
    with pytest.raises(ConvergenceError) as exc:
        equilibrium(m, [1.0, 0.5, 0.5], tol=1e-13, max_iter=1)
    # the residual of the last iterate, below that of the guess
    assert 1e-13 <= exc.value.residual < np.abs(m.source(np.array([1.0, 0.5, 0.5]))).max()


def test_linear_model_one_step():
    A = np.array([[-2.0, 1.0], [0.5, -3.0]])
    z_star = np.array([0.4, -0.2])
    m = linear_model(A, z_star)
    for guess in ([10.0, -5.0], [0.0, 0.0], [1e3, 1e3]):
        assert equilibrium(m, guess) == pytest.approx(z_star, abs=1e-9)


def test_linear_model_rejects_zero_real_part():
    with pytest.raises(ContractViolationError):
        linear_model(np.array([[0.0, 1.0], [-1.0, 0.0]]), [0.0, 0.0])


def test_linear_model_rejects_diffusion_of_wrong_length():
    A = np.array([[-1.0, 0.0], [0.0, -2.0]])
    with pytest.raises(ContractViolationError, match="diffusion needs 2"):
        linear_model(A, [1.0, 1.0], diffusion=[1.0])
    assert linear_model(A, [1.0, 1.0], diffusion=[1.0, 0.5]).dimension == 2


def test_equilibrium_jacobian_is_stable():
    m = michaelis_menten_model()
    z = equilibrium(m, [1.0, 0.5, 0.5])
    eig = np.linalg.eigvals(m.jacobian(z))
    assert np.all(eig.real < 0.0)
