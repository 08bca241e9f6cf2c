import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import optimize

from fastslow.errors import ContractViolationError, ConvergenceError, SingularJacobianError
from fastslow.models import (
    MichaelisMentenParams,
    equilibrium,
    linear_model,
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


def test_equilibrium_non_convergence():
    m = michaelis_menten_model()
    with pytest.raises(ConvergenceError):
        equilibrium(m, [1.0, 0.5, 0.5], tol=1e-13, max_iter=1)


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
