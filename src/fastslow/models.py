"""Built-in reference models and the equilibrium solver.

Two models are provided: the 3-species Michaelis-Menten enzyme system used
throughout, and a linear shifted model ``F(z) = A (z - z*)`` which has
closed-form behaviour and serves as a test oracle.
"""

from __future__ import annotations

import math
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
        if not np.isfinite(list(asdict(self).values())).all():
            raise ContractViolationError(f"parameters must be finite, got {asdict(self)}")
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

    One state, alone or as a ``(1, 3)`` row, is unpacked to Python floats, a
    stack along ``z.T`` to arrays (:func:`_unpack`); both run the same
    operations, so a state has the same rates bit for bit in any stack.
    """
    (X, Y, Z), stack = _unpack(z)
    p = params
    # shared subexpressions, each evaluated once: the same operations on the
    # same operands as written out in full, so the same values
    XZ, Y1 = -X * Z, 1.0 - Y
    muY1 = p.mu * Y1
    fY = -p.L3 * Y * Z + (p.L4 / p.L2) * Y1
    rates = (XZ + p.L1 * (1.0 - Z - muY1),
             fY,
             (1.0 / p.L2) * ((XZ + 1.0 - Z - muY1) + p.mu * fY))
    return _pack(rates, stack, (3,))


def michaelis_menten_jacobian(params: MichaelisMentenParams, z) -> np.ndarray:
    """Analytic Jacobian of :func:`michaelis_menten_source`, shape ``(..., 3, 3)``,
    on the same two unpackings."""
    (X, Y, Z), stack = _unpack(z)
    return _pack(_jacobian_rows(params, X, Y, Z), stack, (3, 3))


def _jacobian_rows(p, X, Y, Z):
    """The Jacobian's entries in C order, each made as it is packed: on a
    stack, all nine alive at once (a tuple) raised the peak traced memory
    of a 60-per-axis slow mesh by a tenth."""
    dY_dY = -p.L3 * Z - p.L4 / p.L2
    dY_dZ = -p.L3 * Y
    yield -Z
    yield p.L1 * p.mu
    yield -X - p.L1
    yield 0.0
    yield dY_dY
    yield dY_dZ
    yield -Z / p.L2
    yield (p.mu / p.L2) * (1.0 + dY_dY)
    yield (1.0 / p.L2) * (-X - 1.0 + p.mu * dY_dZ)


def _unpack(z):
    """The species of ``z`` and its leading shape: Python floats for one
    state (``z.tolist()``, or its one row's), so a kernel call costs about a
    microsecond, else arrays over the stack in the transposed layout of
    ``z.T``, whose dozens of array operations cost several times that even
    on one row.  A state of any other length than 3 raises ValueError."""
    z = np.asarray(z, dtype=float)
    stack = z.shape[:-1]
    if stack == ():
        return z.tolist(), stack
    return (z[0].tolist() if stack == (1,) else z.T), stack


def _pack(values, stack, shape):
    """A new ``stack + shape`` array holding ``values``, an iterable of the
    entries of each ``shape`` block in C order, as :func:`_unpack` gave them.
    One state's rates, a tuple of floats, become the ``(3,)`` block as they
    stand, and a ``(1,)`` stack is a new axis on that block."""
    if stack in ((), (1,)):
        out = np.array(values) if len(shape) == 1 else np.array([*values]).reshape(shape)
        return out[None] if stack else out
    out = np.empty(stack + shape)
    entries = out.reshape(stack + (math.prod(shape),)).T
    for k, v in enumerate(values):
        entries[k] = v
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
