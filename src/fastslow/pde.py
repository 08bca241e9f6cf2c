"""Method-of-lines discretisation of the 1-D reaction-diffusion system.

The stationary profile is the steady state of dS/dt = source(S) + D Lap(S)
on the interior nodes, reached by :mod:`fastslow.steady`; boundary nodes are
Dirichlet-held.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .core import (
    Grid1D,
    ReactionDiffusionModel,
    SpatialProfile,
    as_state,
    interior_full_rhs,
)
from .errors import BoundaryNodeError, ContractViolationError
from .steady import relax_free

__all__ = [
    "BoundaryConditions",
    "SolverSettings",
    "SteadyResult",
    "laplacian",
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
        if self.steady_tol < 0.0:
            raise ContractViolationError("steady_tol must be >= 0")


@dataclass(frozen=True)
class SteadyResult:
    """A stationary profile and how the solver reached it.

    ``steps`` counts the pseudo-transient continuation iterations,
    ``elapsed_time`` is the pseudo-time reached and ``residual_history``
    holds one ``(pseudo_time, residual)`` pair for the start and each
    accepted step.
    """

    profile: SpatialProfile
    elapsed_time: float
    residual_history: tuple
    steps: int
    wall_seconds: float


def laplacian(profile: SpatialProfile, node_index: int) -> np.ndarray:
    """Second central difference at an interior node, componentwise."""
    N = profile.grid.node_count
    if not 0 < node_index < N - 1:
        raise BoundaryNodeError(f"node {node_index} is not interior")
    S = profile.states
    dx = profile.grid.spacing
    return (S[node_index - 1] - 2.0 * S[node_index] + S[node_index + 1]) / (dx * dx)


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

    Convergence is judged by the sup-norm of the full interior RHS, which
    must fall below ``settings.steady_tol``.
    """
    settings = settings or SolverSettings()
    grid = Grid1D(settings.node_count)
    initial = linear_initial_profile(bc.left_state, bc.right_state, grid).states
    wall0 = time.perf_counter()
    states, history = relax_free(lambda S: interior_full_rhs(model, S, grid.spacing),
                                 initial, np.s_[1:-1], (1, initial.shape[1] - 1),
                                 settings.steady_tol)
    return SteadyResult(
        profile=SpatialProfile(grid, states),
        elapsed_time=history[-1][0],
        residual_history=tuple(history),
        steps=len(history) - 1,
        wall_seconds=time.perf_counter() - wall0,
    )
