"""Built-in reference models and the equilibrium solver.

Two models are provided: the 3-species Michaelis-Menten enzyme system used
throughout, and a linear shifted model ``F(z) = A (z - z*)`` which has
closed-form behaviour and serves as a test oracle.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .core import ReactionDiffusionModel, as_state, eval_source
from .errors import ContractViolationError, ConvergenceError, SingularJacobianError
from .steady import damped_newton

__all__ = [
    "MichaelisMentenParams",
    "michaelis_menten_source",
    "michaelis_menten_model",
    "linear_model",
    "equilibrium",
    "MM_SPECIES",
]

MM_SPECIES = ("X", "Y", "Z")


@dataclass(frozen=True)
class MichaelisMentenParams:
    """Rate-constant ratios and the common diffusion coefficient."""

    L1: float = 0.99
    L2: float = 1.0
    L3: float = 0.05
    L4: float = 0.1
    mu: float = 1.0
    delta: float = 0.01

    def __post_init__(self):
        if min(self.L1, self.L2, self.L3, self.L4, self.mu) <= 0.0:
            raise ContractViolationError("rate-constant ratios must be positive")
        if self.L1 == 1.0:
            raise ContractViolationError("L1 = 1 destroys the isolated equilibrium")
        if self.delta < 0.0:
            raise ContractViolationError("diffusion coefficient must be >= 0")


def michaelis_menten_source(params: MichaelisMentenParams, z) -> np.ndarray:
    """Reaction rates of the 3-species enzyme system, vectorized over states.

    The Z component is the (1/L2)-weighted combination of the X balance and
    mu times the Y balance, which makes (0, sqrt(3)-1, sqrt(3)-1) an exact
    equilibrium for the default parameters.

    Every leading shape takes the same path: the species are unpacked from
    ``z.T`` and written back through ``out.T``, so a single state runs on
    numpy scalars and a stack on arrays, with the same operations.
    """
    z = np.asarray(z, dtype=float)
    X, Y, Z = z.T
    p = params
    fY = -p.L3 * Y * Z + (p.L4 / p.L2) * (1.0 - Y)
    out = np.empty(z.shape)
    out.T[0] = -X * Z + p.L1 * (1.0 - Z - p.mu * (1.0 - Y))
    out.T[1] = fY
    out.T[2] = (1.0 / p.L2) * ((-X * Z + 1.0 - Z - p.mu * (1.0 - Y)) + p.mu * fY)
    return out


def michaelis_menten_jacobian(params: MichaelisMentenParams, z) -> np.ndarray:
    """Analytic Jacobian of :func:`michaelis_menten_source`, shape ``(..., 3, 3)``,
    on the same single path: ``J[c, r]`` below is entry (r, c) of each matrix."""
    z = np.asarray(z, dtype=float)
    X, Y, Z = z.T
    p = params
    dY_dY = -p.L3 * Z - p.L4 / p.L2
    dY_dZ = -p.L3 * Y
    out = np.empty(z.shape + (3,))
    J = out.T
    J[0, 0], J[1, 0], J[2, 0] = -Z, p.L1 * p.mu, -X - p.L1
    J[0, 1], J[1, 1], J[2, 1] = 0.0, dY_dY, dY_dZ
    J[0, 2] = -Z / p.L2
    J[1, 2] = (p.mu / p.L2) * (1.0 + dY_dY)
    J[2, 2] = (1.0 / p.L2) * (-X - 1.0 + p.mu * dY_dZ)
    return out


def michaelis_menten_model(params: MichaelisMentenParams | None = None) -> ReactionDiffusionModel:
    """The enzyme model with its analytic Jacobian and working box."""
    p = params or MichaelisMentenParams()
    lo = np.array([0.0, 0.0, 0.0])
    hi = np.array([2.0, 1.0, 1.0])
    return ReactionDiffusionModel(
        name="michaelis-menten",
        species=MM_SPECIES,
        source=lambda z: michaelis_menten_source(p, z),
        jac=lambda z: michaelis_menten_jacobian(p, z),
        diffusion=np.full(3, p.delta),
        working_box=(lo, hi),
        params=asdict(p),
    )


def linear_model(A, z_star, diffusion=None, name: str = "linear") -> ReactionDiffusionModel:
    """Shifted linear model F(z) = A (z - z*); Newton is exact in one step."""
    A = np.array(A, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ContractViolationError("A must be a square matrix")
    n = A.shape[0]
    z_star = as_state(z_star, n)
    eig = np.linalg.eigvals(A)
    if np.any(np.abs(eig.real) < 1e-14):
        raise ContractViolationError("A must have no eigenvalue with zero real part")
    diffusion = np.zeros(n) if diffusion is None else np.asarray(diffusion, dtype=float)
    if diffusion.shape != (n,):
        raise ContractViolationError(
            f"diffusion needs {n} coefficients, got shape {diffusion.shape}"
        )

    def source(z):
        return (np.asarray(z, dtype=float) - z_star) @ A.T

    def jac(z):
        z = np.asarray(z, dtype=float)
        return np.broadcast_to(A, z.shape[:-1] + (n, n)).copy()

    return ReactionDiffusionModel(
        name=name,
        species=tuple(f"z{i+1}" for i in range(n)),
        source=source,
        jac=jac,
        diffusion=diffusion,
        params={"A": A.tolist(), "z_star": z_star.tolist()},
    )


def equilibrium(model: ReactionDiffusionModel, initial_guess, tol: float = 1e-12,
                max_iter: int = 100) -> np.ndarray:
    """Damped Newton solve of source(z) = 0: :func:`damped_newton` on one row,
    with the whole state space as the fibre."""
    if not 0.0 < tol < np.inf:
        raise ContractViolationError(f"tol must be finite and positive, got {tol!r}")
    eye = np.eye(model.dimension)
    z, converged, singular, residual = damped_newton(
        lambda z: eval_source(model, z), model.jacobian, eye, eye,
        np.zeros((1, model.dimension)), as_state(initial_guess, model.dimension),
        tol, max_iter)
    if singular[0]:
        raise SingularJacobianError(f"singular Jacobian at iterate {z[0]}")
    if not converged[0]:
        raise ConvergenceError(f"no equilibrium within {max_iter} damped Newton iterations",
                               residual=float(residual[0]))
    out = z[0]
    out.setflags(write=False)
    return out
