"""Method-of-lines discretisation of the 1-D reaction-diffusion system.

The stationary profile is the steady state of dS/dt = source(S) + D Lap(S)
on the interior nodes, reached by :mod:`fastslow.steady`; boundary nodes are
Dirichlet-held.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    Grid1D,
    ReactionDiffusionModel,
    SpatialProfile,
    as_state,
    interior_terms,
)
from .errors import ContractViolationError
from .steady import band_assembler, difference_matrix, relax_free

__all__ = [
    "BoundaryConditions",
    "SolverSettings",
    "SteadyResult",
    "linear_initial_profile",
    "integrate_to_steady",
]


@dataclass(frozen=True)
class BoundaryConditions:
    """Dirichlet values at x = 0 and x = 1."""

    left_state: np.ndarray
    right_state: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "left_state", as_state(self.left_state))
        object.__setattr__(self, "right_state", as_state(self.right_state))
        if self.left_state.shape != self.right_state.shape:
            raise ContractViolationError("boundary states must have equal dimension")


@dataclass(frozen=True)
class SolverSettings:
    node_count: int = 101
    steady_tol: float = 1e-8

    def __post_init__(self):
        if self.node_count < 3:
            raise ContractViolationError("node_count must be >= 3")
        if not 0.0 <= self.steady_tol < np.inf:
            raise ContractViolationError(
                f"steady_tol must be finite and >= 0, got {self.steady_tol!r}")


@dataclass(frozen=True)
class SteadyResult:
    """A stationary profile and how the solver reached it.

    ``residual_history`` holds one ``(pseudo_time, residual)`` pair for the
    start and each step, and ``steps`` is its length less one.  A Newton
    step logs pseudo-time ``inf``.  If a Newton step does not lower the
    residual, the history holds the attempt, that step last, then the
    history of the pseudo-transient continuation solve from the same start
    (:func:`~fastslow.steady.relax_free`).
    """

    profile: SpatialProfile
    residual_history: tuple
    steps: int


def linear_initial_profile(left, right, grid: Grid1D) -> SpatialProfile:
    """Straight lines joining the boundary states, componentwise."""
    left = as_state(left)
    right = as_state(right)
    x = grid.nodes
    states = left + np.outer(x, right - left)
    states[0] = left     # endpoints exact regardless of rounding in the blend
    states[-1] = right
    return SpatialProfile(grid, states)


def integrate_to_steady(model: ReactionDiffusionModel, bc: BoundaryConditions,
                        settings: SolverSettings | None = None) -> SteadyResult:
    """Relax the linear initial profile to stationarity.

    Newton steps from the linear start, with pseudo-transient continuation
    from the same start at the first step that does not lower the residual
    (:func:`~fastslow.steady.relax_free`).  Convergence is judged by the
    sup-norm of the full interior RHS, which must fall below
    ``settings.steady_tol``.
    """
    settings = settings or SolverSettings()
    grid = Grid1D(settings.node_count)
    initial = linear_initial_profile(bc.left_state, bc.right_state, grid).states
    N, dx, inner = grid.node_count, grid.spacing, np.s_[1:-1]
    # each node's source Jacobian, and diag(D) on the Laplacian
    assemble = band_assembler(initial[inner].shape, [(difference_matrix(N, dx, 0, inner), None), (
        difference_matrix(N, dx, 2, inner), {0: model.diffusion})])

    def rate(S):
        return (np.add(*interior_terms(model, S, dx)),
                lambda: assemble([model.jacobian(S[inner]), 1.0]))
    states, history = relax_free(rate, initial, inner, settings.steady_tol)
    return SteadyResult(
        profile=SpatialProfile(grid, states),
        residual_history=tuple(history),
        steps=len(history) - 1,
    )
