"""Global quasi-linearization: linear surrogate, spectral splitting, and the
fast/slow coordinate machinery.

The surrogate ``T`` is a global linear fit ``T psi ~ F(psi)`` over a sample
set.  Splitting its spectrum at the largest consecutive magnitude gap yields
invariant fast and slow subspaces; these are computed from one real Schur
form (LAPACK ``dgees``), which gives the eigenvalues, reordered with the fast
cluster leading (``dtrsen``) and decoupled by one triangular Sylvester solve
(``dtrsyl``) on its own blocks, so the basis stays real and well conditioned
even for complex or clustered eigenvalues.  Everything downstream
(zero-order slow manifold, decomposed dynamics, transient diagnostics) hangs
off the resulting :class:`GqlDecomposition`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import _lapack
from .core import ReactionDiffusionModel, eval_source
from .errors import (
    ContractViolationError,
    EmptyMeshError,
    IllPosedSampleError,
    NoDecompositionError,
    SingularJacobianError,
    SplitConflictError,
)
from .steady import damped_newton

__all__ = [
    "GqlDecomposition",
    "SlowManifoldMesh",
    "build_surrogate",
    "spectral_split",
    "to_fast_slow_coords",
    "from_fast_slow_coords",
    "decomposed_rhs",
    "solve_on_fiber",
    "slow_manifold_mesh",
    "default_sample_states",
]

COND_LIMIT = 1e12


@dataclass(frozen=True)
class GqlDecomposition:
    """Spectral fast/slow split of a linear surrogate.

    ``eigenvalues`` are sorted ascending by magnitude; the first
    ``split_index`` (= n_s) entries are slow, the rest fast.  ``Z`` holds the
    invariant-subspace basis ordered fast-then-slow, ``Z_tilde`` is its
    inverse, and ``epsilon`` is the gap ratio max|slow| / min|fast|.
    """

    T: np.ndarray
    eigenvalues: np.ndarray
    split_index: int
    n_f: int
    n_s: int
    Z: np.ndarray
    Z_tilde: np.ndarray
    epsilon: float

    # Derived once per instance: a cached_property writes the instance
    # __dict__ directly, past the frozen __setattr__, and
    # dataclasses.replace builds a new instance with an empty cache.
    @cached_property
    def Z_f(self) -> np.ndarray:
        return self.Z[:, : self.n_f]

    @cached_property
    def Z_s(self) -> np.ndarray:
        return self.Z[:, self.n_f:]

    @cached_property
    def Zt_f(self) -> np.ndarray:
        return self.Z_tilde[: self.n_f]

    @cached_property
    def Zt_s(self) -> np.ndarray:
        return self.Z_tilde[self.n_f:]

    @property
    def slow_eigenvalues(self) -> np.ndarray:
        return self.eigenvalues[: self.split_index]

    @property
    def fast_eigenvalues(self) -> np.ndarray:
        return self.eigenvalues[self.split_index:]

    @cached_property
    def fast_rate(self) -> float:
        """Smallest fast eigenvalue magnitude (slowest fast rate)."""
        return float(np.abs(self.fast_eigenvalues).min())

    @cached_property
    def slow_rate(self) -> float:
        """Largest slow eigenvalue magnitude (fastest slow rate)."""
        return float(np.abs(self.slow_eigenvalues).max())


def default_sample_states(model: ReactionDiffusionModel, extra=()) -> np.ndarray:
    """Vertices of the model's working box plus any extra states (e.g. the
    equilibrium).  This hull covers the region the solvers access."""
    if model.working_box is None:
        raise ContractViolationError(f"model {model.name} declares no working box")
    lo, hi = model.working_box
    n = model.dimension
    verts = np.array(
        [[(hi if (k >> i) & 1 else lo)[i] for i in range(n)] for k in range(2 ** n)]
    )
    extra = [np.asarray(e, dtype=float) for e in extra]
    return np.vstack([verts] + extra) if extra else verts


def build_surrogate(model: ReactionDiffusionModel, sample_states) -> np.ndarray:
    """Fit the global linear surrogate T with T psi ~ F(psi).

    Minimizes the Frobenius misfit over >= n samples via the normal equations
    ``G T^T = Psi F^T``, ``G = Psi Psi^T``; on n samples this is the
    interpolant.  An ill-conditioned ``G`` raises :class:`IllPosedSampleError`.
    """
    samples = np.array(sample_states, dtype=float)
    if samples.ndim != 2 or samples.shape[1] != model.dimension:
        raise ContractViolationError(
            f"sample array must be (m, {model.dimension}), got {samples.shape}"
        )
    n = model.dimension
    if samples.shape[0] < n:
        raise ContractViolationError(f"the surrogate needs at least {n} samples, "
                                     f"got {samples.shape[0]}")
    Psi = samples.T                               # (n, m), one sample per column
    F = np.stack([eval_source(model, s) for s in samples], axis=1)
    G = Psi @ Psi.T
    if np.linalg.cond(G) > COND_LIMIT:
        raise IllPosedSampleError("sample matrix is rank deficient")
    return np.linalg.solve(G, Psi @ F.T).T


def spectral_split(T, min_gap_ratio: float = 10.0) -> GqlDecomposition:
    """Split the spectrum of T at its largest consecutive magnitude gap.

    The eigenvalues are those of the real Schur form ``Q^T T Q = R`` (an
    unsorted ``dgees``), sorted ascending by magnitude; the split is placed
    at the maximal ratio |lam_{i+1}| / |lam_i|, and anything below
    ``min_gap_ratio`` is rejected.  ``dtrsen`` reorders ``R`` to put the
    fast cluster, the magnitudes above the largest slow one, leading:
    ``[[R11, R12], [0, R22]]``, block-diagonalized by ``X`` with
    ``R11 X - X R22 = -R12``, which ``dtrsyl`` solves on the quasi-triangular
    blocks as they are, so ``Zt_f T Z_s`` and ``Zt_s T Z_f`` vanish to
    rounding.  Four LAPACK calls in all: a workspace query, the Schur form,
    its reordering and the Sylvester solve; one set of eigenvalues gives the
    gap, ``epsilon`` and the ordering.  A non-finite T raises
    :class:`ContractViolationError`; a Schur form or a reordering that fails
    raises :class:`SplitConflictError`.
    """
    T = np.array(T, dtype=float)
    if T.ndim != 2 or T.shape[0] != T.shape[1]:
        raise ContractViolationError("T must be square")
    n = T.shape[0]
    if n < 2:
        raise ContractViolationError("need dimension >= 2 to split")
    if not np.isfinite(T).all():
        raise ContractViolationError("T must be finite")
    if not 1.0 < min_gap_ratio < np.inf:
        raise ContractViolationError(f"min_gap_ratio must be finite and > 1, "
                                     f"got {min_gap_ratio!r}")

    # the binding requires a select argument; unsorted, dgees never calls it
    lwork = int(_lapack.dgees(bool, T, lwork=-1)[-2][0])
    R, _, wr, wi, Q, _, info = _lapack.dgees(bool, T, lwork=lwork)
    if info != 0:
        raise SplitConflictError(f"real Schur form failed (dgees info {info})")
    lam = wr + 1j * wi
    mags = np.abs(lam)
    order = np.argsort(mags, kind="stable")
    sorted_mags = mags[order]
    if sorted_mags[0] == 0.0:
        raise NoDecompositionError("surrogate has a zero eigenvalue; gap undefined")
    with np.errstate(over="ignore"):  # a ratio past the double range is an infinite gap
        ratios = sorted_mags[1:] / sorted_mags[:-1]
    split = int(np.argmax(ratios)) + 1
    gap = float(ratios[split - 1])
    # a conjugate pair has bitwise equal magnitudes, a ratio of 1, so a gap
    # above min_gap_ratio > 1 never separates one
    if gap < min_gap_ratio:
        raise NoDecompositionError(
            f"largest spectral gap {gap:.3g} is below min_gap_ratio {min_gap_ratio:g}"
        )

    n_s = split
    n_f = n - split
    epsilon = float(sorted_mags[split - 1] / sorted_mags[split])

    # the n_f magnitudes above the largest slow one lead the reordered form
    fast = mags > sorted_mags[split - 1]
    R, Q, _, _, _, _, _, info = _lapack.dtrsen(fast, R, Q, job="N")
    if info != 0:
        raise SplitConflictError(f"Schur reordering failed (dtrsen info {info})")
    R11, R12, R22 = R[:n_f, :n_f], R[:n_f, n_f:], R[n_f:, n_f:]
    X, scale, _ = _lapack.dtrsyl(R11, R22, -R12, isgn=-1)
    X = X / scale  # scale < 1 only where dtrsyl avoids overflow
    W = np.eye(n)
    W[:n_f, n_f:] = X
    W_inv = np.eye(n)
    W_inv[:n_f, n_f:] = -X
    Z = Q @ W
    Z_tilde = W_inv @ Q.T

    # canonical column signs (largest-magnitude entry positive) keep the
    # basis deterministic and make diagonal surrogates yield +e_k columns
    for k in range(n):
        lead = np.argmax(np.abs(Z[:, k]))
        if Z[lead, k] < 0.0:
            Z[:, k] = -Z[:, k]
            Z_tilde[k, :] = -Z_tilde[k, :]

    return GqlDecomposition(
        T=T, eigenvalues=lam[order], split_index=split, n_f=n_f, n_s=n_s,
        Z=Z, Z_tilde=Z_tilde, epsilon=epsilon,
    )


def to_fast_slow_coords(dec: GqlDecomposition, z):
    """Project a state onto fast coordinates U and slow coordinates V."""
    z = np.asarray(z, dtype=float)
    return dec.Zt_f @ z, dec.Zt_s @ z


def from_fast_slow_coords(dec: GqlDecomposition, U, V) -> np.ndarray:
    """Inverse of :func:`to_fast_slow_coords`; also maps stacks of coordinate
    rows, ``(m, n_f)`` and ``(m, n_s)``, to an ``(m, n)`` stack of states."""
    return np.atleast_1d(U) @ dec.Z_f.T + np.atleast_1d(V) @ dec.Z_s.T


def decomposed_rhs(dec: GqlDecomposition, model: ReactionDiffusionModel, z):
    """Source term expressed in fast/slow coordinates: (dU, dV)."""
    phi = eval_source(model, z)
    return dec.Zt_f @ phi, dec.Zt_s @ phi


FIBER_MAX_ITER = 60   # Newton iterations per fibre


def _fiber_newton(dec: GqlDecomposition, model: ReactionDiffusionModel, V, U0,
                  tol: float):
    """:func:`damped_newton` on ``Zt_f phi(z) = 0`` for a ``(m, n_s)`` stack of
    fibres ``z = U Z_f^T + V Z_s^T``, at most ``FIBER_MAX_ITER`` (60)
    iterations; ``U0`` is None (zero) or broadcasts to ``(m, n_f)``."""
    return damped_newton(lambda z: eval_source(model, z), model.jacobian,
                         dec.Zt_f, dec.Z_f, V @ dec.Z_s.T, U0, tol, FIBER_MAX_ITER)


def solve_on_fiber(dec: GqlDecomposition, model: ReactionDiffusionModel, V,
                   U0=None, tol: float = 1e-12):
    """Newton-solve the fast residual Zt_f phi = 0 along the fiber of fixed V.

    Returns ``(z, converged)``.  This is the batched fibre Newton of
    :func:`slow_manifold_mesh` on one row, at most ``FIBER_MAX_ITER`` (60)
    iterations.  The row takes its full steps on its own arrays, with no
    row indices and, for one fast coordinate, the 1 x 1 step divided on
    Python floats; a step of the reduced Jacobian ``Zt_f J(z) Z_f`` that
    does not lower the residual is handed to the stacked iteration, which
    tries ``2**-1`` .. ``2**-16``, the damping floor of
    :func:`damped_newton`, in one source call; a fibre no length improves
    returns unconverged.  The row makes the same source calls, on the same
    states, as the stacked iteration would.  The 129 fast-time anchors
    measured took full steps only.  Raises
    :class:`SingularJacobianError` when the reduced Jacobian is singular,
    and :class:`ContractViolationError` when ``tol`` is not finite and
    positive.
    """
    V = np.atleast_1d(np.asarray(V, dtype=float))
    z, converged, singular, _ = _fiber_newton(dec, model, V[None], U0, tol)
    if singular[0]:
        raise SingularJacobianError("fiber Newton hit a singular reduced Jacobian")
    return z[0], bool(converged[0])


@dataclass(frozen=True)
class SlowManifoldMesh:
    """Zero-order slow manifold sampled on a grid of slow coordinates.

    Non-convergent nodes stay in ``V`` but are masked out of ``converged``;
    their ``states`` rows are NaN, never fabricated values.
    """

    V: np.ndarray          # (m, n_s) slow coordinates
    states: np.ndarray     # (m, n) full states, NaN where not converged
    converged: np.ndarray  # (m,) bool


def slow_manifold_mesh(dec: GqlDecomposition, model: ReactionDiffusionModel,
                       slow_grid, tol: float = 1e-10, U0=None) -> SlowManifoldMesh:
    """Solve the zero-order manifold condition at every slow-coordinate node.

    All fibres go through one batched damped Newton (the iteration of
    :func:`solve_on_fiber`, started from ``U0`` or zero).  A node whose
    fibre fails its line search or hits a singular reduced Jacobian is
    left unconverged; :class:`EmptyMeshError` is raised when the grid is
    empty or no node converges, and :class:`ContractViolationError` when
    ``tol`` is not finite and positive.  The line search stops at the
    damping floor ``2**-16``: every converged fibre of the 10 to 120 per
    axis meshes took full steps only.  The fibres with no root (312 of
    3600 at 60 per axis) stop there; with the 16 shorter lengths in one
    call, that mesh takes 13 iterations, 27 source calls, 44,850 states.
    """
    V_pts = np.array(slow_grid, dtype=float)
    if V_pts.ndim == 1:
        V_pts = V_pts[:, None]
    if V_pts.shape[1] != dec.n_s:
        raise ContractViolationError(
            f"slow grid must have {dec.n_s} coordinates per node"
        )
    if V_pts.shape[0] == 0:
        raise EmptyMeshError("slow grid has no nodes")
    z, ok, _, _ = _fiber_newton(dec, model, V_pts, U0, tol)
    if not ok.any():
        raise EmptyMeshError("no slow-manifold grid node converged")
    states = np.where(ok[:, None], z, np.nan)
    return SlowManifoldMesh(V=V_pts, states=states, converged=ok)


def default_slow_grid(dec: GqlDecomposition, model: ReactionDiffusionModel,
                      points_per_axis: int = 30) -> np.ndarray:
    """Tensor grid over the slow-coordinate image of the working box."""
    corners = default_sample_states(model)
    Vc = corners @ dec.Zt_s.T
    lo, hi = Vc.min(axis=0), Vc.max(axis=0)
    axes = [np.linspace(lo[k], hi[k], points_per_axis) for k in range(dec.n_s)]
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=1)
