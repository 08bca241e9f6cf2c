"""Reaction-diffusion manifolds by projected pseudo-time relaxation.

A 1-D manifold is a graph (theta, Y(theta), Z(theta)) over theta = X, a 2-D
manifold a graph Z(theta1, theta2) over (theta1, theta2) = (X, Y).  Keeping
the graph coordinates frozen and evolving only the remaining components with

    d(psi_k)/dtau = G_k - sum_j (d psi_k / d theta_j) G_{theta_j},
    G = source + local diffusion,

is equivalent, at stationarity, to the projected evolution
(I - Psi_theta Psi_theta^+) G = 0 for non-degenerate graphs; the projector
identities and the co-vanishing of both residuals are enforced by tests
rather than assumed.

The local diffusion closure needs the spatial gradients of the manifold
parameters; by default they are interpolated from a detailed stationary
profile (chi(theta) = dX/dx at the x where X(x) = theta), with a constant
override available.

The stationary manifold is the steady state of this pseudo-time evolution,
reached by the pseudo-transient continuation of :mod:`fastslow.steady`; the
unknowns are the graph values at the nodes that are not held.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import ReactionDiffusionModel, SpatialProfile, as_state, interior_terms
from .errors import (
    BoundaryNodeError,
    ContractViolationError,
    DegenerateParametrizationError,
    NumericalError,
    ParametrizationError,
)
from .steady import band_assembler, difference_matrix, relax_free

__all__ = [
    "GradientEstimate",
    "Manifold1D",
    "Manifold2D",
    "pseudo_inverse",
    "tangent_projector",
    "gradient_estimate_from_profile",
    "constant_gradient",
    "local_diffusion_1d",
    "local_diffusion_2d",
    "redim_rhs_1d",
    "evolve_redim_1d",
    "evolve_redim_2d",
]

GRAM_COND_LIMIT = 1e12
# coarsest level of the REDIM-2D grid sequencing: at 61 x 61 a further
# 16 x 16 level took 10 + 3 + 3 steps in 0.053 s against 10 + 3 in 0.050 s
COARSEST = 31


# ---------------------------------------------------------------------------
# projector algebra
# ---------------------------------------------------------------------------

def pseudo_inverse(Psi_theta) -> np.ndarray:
    """Moore-Penrose pseudo-inverse (Psi^T Psi)^{-1} Psi^T of a tall full-rank
    tangent matrix."""
    P = np.array(Psi_theta, dtype=float)
    if P.ndim == 1:
        P = P[:, None]
    gram = P.T @ P
    if np.linalg.cond(gram) > GRAM_COND_LIMIT:
        raise DegenerateParametrizationError(
            "tangent matrix is rank deficient (Gram condition number too large)"
        )
    return np.linalg.solve(gram, P.T)


def tangent_projector(Psi_theta) -> np.ndarray:
    """Orthogonal projector I - Psi Psi^+ onto the normal space of the graph,
    formed as I - Q Q^T from an orthonormal basis Q of the tangents."""
    P = np.array(Psi_theta, dtype=float)
    if P.ndim == 1:
        P = P[:, None]
    pseudo_inverse(P)  # raises DegenerateParametrizationError if P is rank deficient
    Q = np.linalg.qr(P)[0]
    return np.eye(P.shape[0]) - Q @ Q.T


# ---------------------------------------------------------------------------
# gradient-estimate closure
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GradientEstimate:
    """Spatial gradients of the manifold parameters as functions of theta1.

    ``knots`` are increasing theta1 values; ``values`` is (K,) for 1-D mode
    (dX/dx) or (K, 2) for 2-D mode (dX/dx, dY/dx).  Outside the knot range
    the nearest value extends constantly.  A constant estimate uses a single
    pair of knots.
    """

    mode: str
    knots: np.ndarray
    values: np.ndarray

    def chi1(self, theta) -> np.ndarray:
        v = self.values if self.mode == "1d" else self.values[:, 0]
        return np.interp(np.asarray(theta, dtype=float), self.knots, v)

    def chi2(self, theta) -> np.ndarray:
        if self.mode != "2d":
            raise ContractViolationError("chi2 requires a 2-D gradient estimate")
        return np.interp(np.asarray(theta, dtype=float), self.knots, self.values[:, 1])


def constant_gradient(values, mode: str = "1d") -> GradientEstimate:
    """Constant chi (1-D) or constant (chi1, chi2) pair (2-D)."""
    knots = np.array([0.0, 1.0])
    if mode == "1d":
        v = float(np.atleast_1d(values)[0])
        return GradientEstimate("1d", knots, np.array([v, v]))
    if mode == "2d":
        pair = np.atleast_1d(np.asarray(values, dtype=float))
        if pair.size == 1:
            pair = np.array([pair[0], pair[0]])
        return GradientEstimate("2d", knots, np.array([pair, pair]))
    raise ContractViolationError(f"unknown gradient mode {mode!r}")


def gradient_estimate_from_profile(profile: SpatialProfile,
                                   parametrization: str = "1d") -> GradientEstimate:
    """Derive chi from a detailed stationary profile via the map x -> X(x).

    Requires X strictly monotone along x; the derivative dX/dx (and dY/dx in
    2-D mode) is taken by central differences on the x grid and re-indexed by
    theta = X.
    """
    if parametrization not in ("1d", "2d"):
        raise ContractViolationError(f"unknown parametrization {parametrization!r}")
    x = profile.grid.nodes
    X = profile.states[:, 0]
    dX = np.diff(X)
    if np.all(dX > 0.0):
        flip = False
    elif np.all(dX < 0.0):
        flip = True
    else:
        raise ParametrizationError(
            "profile X component is not strictly monotone in x"
        )
    dXdx = np.gradient(X, x)
    if parametrization == "1d":
        knots, values = X, dXdx
    else:
        dYdx = np.gradient(profile.states[:, 1], x)
        knots, values = X, np.stack([dXdx, dYdx], axis=1)
    if flip:
        knots, values = knots[::-1], values[::-1]
    return GradientEstimate(parametrization, knots.copy(), np.array(values))


# ---------------------------------------------------------------------------
# manifold containers
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Manifold1D:
    """Graph-form curve (theta, Y, Z) with chi sampled on the theta grid."""

    theta_grid: np.ndarray
    states: np.ndarray   # (M, n); states[:, 0] == theta_grid
    chi: np.ndarray      # (M,)

    def __post_init__(self):
        if self.theta_grid.shape[0] < 3:
            raise ContractViolationError("need at least 3 theta nodes")
        if self.states.shape[0] != self.theta_grid.shape[0]:
            raise ContractViolationError("states/theta length mismatch")

    @property
    def spacing(self) -> float:
        return float(self.theta_grid[1] - self.theta_grid[0])


@dataclass(frozen=True)
class Manifold2D:
    """Graph-form surface Z(theta1, theta2) with per-node gradient closure."""

    theta1_grid: np.ndarray
    theta2_grid: np.ndarray
    Z_values: np.ndarray   # (M1, M2)
    chi1: np.ndarray       # (M1, M2)
    chi2: np.ndarray       # (M1, M2)

    def __post_init__(self):
        M1, M2 = self.theta1_grid.shape[0], self.theta2_grid.shape[0]
        if M1 < 3 or M2 < 3:
            raise ContractViolationError("need at least 3 nodes per theta axis")
        if self.Z_values.shape != (M1, M2):
            raise ContractViolationError("Z_values shape mismatch")

    @property
    def spacing(self):
        return (float(self.theta1_grid[1] - self.theta1_grid[0]),
                float(self.theta2_grid[1] - self.theta2_grid[0]))

    def state(self, i: int, j: int) -> np.ndarray:
        return np.array([self.theta1_grid[i], self.theta2_grid[j], self.Z_values[i, j]])


# ---------------------------------------------------------------------------
# local diffusion and the 1-D projected RHS
# ---------------------------------------------------------------------------

def local_diffusion_1d(manifold: Manifold1D, model: ReactionDiffusionModel,
                       j: int) -> np.ndarray:
    """delta * chi^2 * Psi_thetatheta at an interior theta node.

    The first (graph) component is identically zero: X == theta is linear in
    theta, so its second derivative vanishes analytically.
    """
    M = manifold.theta_grid.shape[0]
    if not 0 < j < M - 1:
        raise BoundaryNodeError(f"theta node {j} is not interior")
    dth = manifold.spacing
    S = manifold.states
    sec = (S[j - 1] - 2.0 * S[j] + S[j + 1]) / (dth * dth)
    out = model.diffusion * (manifold.chi[j] ** 2) * sec
    out[0] = 0.0
    return out


def local_diffusion_2d(manifold: Manifold2D, model: ReactionDiffusionModel,
                       i: int, j: int) -> float:
    """Gradient-contracted Hessian of Z at an interior node, scaled by delta.

    Only the Z component is nonzero: the X = theta1 and Y = theta2 components
    have vanishing theta-Hessians.
    """
    M1, M2 = manifold.theta1_grid.shape[0], manifold.theta2_grid.shape[0]
    if not (0 < i < M1 - 1 and 0 < j < M2 - 1):
        raise BoundaryNodeError(f"node ({i}, {j}) is not interior")
    d1, d2 = manifold.spacing
    Zv = manifold.Z_values
    z11 = (Zv[i - 1, j] - 2.0 * Zv[i, j] + Zv[i + 1, j]) / (d1 * d1)
    z22 = (Zv[i, j - 1] - 2.0 * Zv[i, j] + Zv[i, j + 1]) / (d2 * d2)
    z12 = (Zv[i + 1, j + 1] - Zv[i + 1, j - 1] - Zv[i - 1, j + 1] + Zv[i - 1, j - 1]) / (4.0 * d1 * d2)
    c1, c2 = manifold.chi1[i, j], manifold.chi2[i, j]
    delta = float(model.diffusion[-1])
    return delta * (c1 * c1 * z11 + 2.0 * c1 * c2 * z12 + c2 * c2 * z22)


def redim_rhs_1d(manifold: Manifold1D, model: ReactionDiffusionModel, j: int):
    """Graph-form normal evolution rate (dY, dZ) at an interior node."""
    M = manifold.theta_grid.shape[0]
    if not 0 < j < M - 1:
        raise BoundaryNodeError(f"theta node {j} is not interior")
    dth = manifold.spacing
    S = manifold.states
    G = model.source(S[j]) + local_diffusion_1d(manifold, model, j)
    Y_t = (S[j + 1, 1] - S[j - 1, 1]) / (2.0 * dth)
    Z_t = (S[j + 1, 2] - S[j - 1, 2]) / (2.0 * dth)
    return G[1] - Y_t * G[0], G[2] - Z_t * G[0]


# ---------------------------------------------------------------------------
# vectorized relaxation internals
# ---------------------------------------------------------------------------

def _rhs_1d_interior(states, chi, dth, model, assemble):
    """Graph-form rates of ``states[1:-1, 1:]`` and ``jac()``, their band: the
    node block ``J[1:, 1:] - s J[0, 1:]`` (``s`` the slope), ``-G_0`` on the
    first difference and ``D chi^2`` on the second."""
    source, transport = interior_terms(model, states, dth)
    G = source + chi[1:-1, None] ** 2 * transport
    G[:, 0] = source[:, 0]  # X == theta is linear: no local diffusion
    slope = (states[2:] - states[:-2]) / (2.0 * dth)

    def jac():
        J = model.jacobian(states[1:-1])[:, :, 1:]
        return assemble([J[:, 1:] - slope[:, 1:, None] * J[:, None, 0], -G[:, [0]],
                         model.diffusion[1:] * chi[1:-1, None] ** 2])
    return G[:, 1:] - slope[:, 1:] * G[:, [0]], jac


def evolve_redim_1d(model: ReactionDiffusionModel, anchors, M: int = 101,
                    grad: GradientEstimate | None = None,
                    tol: float = 1e-8) -> Manifold1D:
    """Relax the straight-line initial curve to a stationary 1-D manifold.

    ``anchors`` are (left_state, right_state); their first components set the
    theta range and both endpoints stay Dirichlet-pinned throughout.  The
    solve takes Newton steps from the line, and restarts PTC from it at the
    first step that ends at or above the line's residual
    (:func:`~fastslow.steady.relax_free`).
    """
    left = as_state(anchors[0], model.dimension)
    right = as_state(anchors[1], model.dimension)
    if left[0] == right[0]:
        raise ContractViolationError("anchors must differ in the graph coordinate")
    if grad is None:
        grad = constant_gradient(0.0, "1d")
    theta = np.linspace(left[0], right[0], M)
    dth = float(theta[1] - theta[0])
    frac = (theta - left[0]) / (right[0] - left[0])
    states = left + np.outer(frac, right - left)
    states[:, 0] = theta
    states[0] = left
    states[-1] = right
    chi = np.asarray(grad.chi1(theta), dtype=float)

    # interior nodes; theta itself is the graph coordinate and stays put
    eye, inner = {0: np.ones(model.dimension - 1)}, np.s_[1:-1]
    assemble = band_assembler(states[inner, 1:].shape, [
        (difference_matrix(M, dth, k, inner), W) for k, W in ((0, None), (1, eye), (2, eye))])
    states, _ = relax_free(lambda S: _rhs_1d_interior(S, chi, dth, model, assemble), states,
                           np.s_[1:-1, 1:], tol)
    return Manifold1D(theta_grid=theta, states=states, chi=chi)


def _prolong(Z, axis):
    """Linear interpolation of ``Z`` along ``axis`` onto the nested grid of
    ``2 m - 1`` nodes: the old nodes, and the midpoints between them."""
    Z = np.moveaxis(Z, axis, 0)
    out = np.empty((2 * len(Z) - 1,) + Z.shape[1:])
    out[::2] = Z
    out[1::2] = 0.5 * (Z[:-1] + Z[1:])
    return np.moveaxis(out, 0, axis)


def evolve_redim_2d(model: ReactionDiffusionModel, theta1_range, theta2_range,
                    M1: int = 61, M2: int = 61,
                    grad: GradientEstimate | None = None, tol: float = 1e-8,
                    initial_z=None, hold: str = "theta1",
                    anchor_values=(None, None)) -> Manifold2D:
    """Relax Z(theta1, theta2) to a stationary 2-D manifold.

    Initialization is a straight line in theta1 between ``anchor_values``
    (constant along theta2) unless ``initial_z`` is given.  Without
    ``initial_z``, a grid whose node counts are both odd and at least
    ``2 * COARSEST - 1`` is grid-sequenced: the nested grid of
    ``((M1 + 1) / 2, (M2 + 1) / 2)`` nodes is solved first, the same way,
    and its solution, interpolated bilinearly, starts the nodes that relax;
    the held nodes keep the straight line.  Each solve takes Newton steps,
    and restarts PTC from the same start at the first step that ends at or
    above the start's residual (:func:`~fastslow.steady.relax_free`).  The
    enzyme model at 61 x 61 then takes 1 + 10 + 3 steps (a rejected Newton
    step and 10 PTC steps at 31 x 31 from the line, then 3 Newton steps at
    61 x 61) instead of 1 + 10 from the line, and 121 x 121 takes
    1 + 10 + 3 + 3.  With the profile's closure and ``tol`` = 1e-8 the
    result lies within 7.6e-10 (61 x 61) and 1.1e-8 (121 x 121) of the
    solve from the straight line as ``initial_z``, and at 61 x 61 within
    1.5e-9 for constant chi = 0.1 and 5.8e-9 for chi = 1.  With chi = 0.1
    at 121 x 121, though, both solves stop below ``tol`` yet lie 0.028
    apart, most at the theta2 = 1 edge, node (87, 120), and 0.024 at most
    in the interior.  A coarse level that does not relax is dropped,
    and the finer grid starts from the line.  ``hold`` selects which
    boundary nodes stay pinned at their initial values:

    - ``"theta1"`` (default): only the theta1-extreme edges, where the
      manifold is anchored; the theta2-extreme edges relax with one-sided
      differences.  Holding all four edges pins the initialization error of
      the free edges into the solution, which is visible wherever the
      manifold hugs a theta2 edge.
    - ``"all"``: every boundary node (fully Dirichlet relaxation).
    - ``"none"``: free relaxation of the whole grid, with no boundary
      data.  Only for a model without diffusion, where the slow manifold
      is pointwise attracting; with diffusion it does not converge (the
      enzyme model at 61 x 61 with the profile's closure raises
      ConvergenceError at its first PTC step that ends at or above the
      start's residual: 2.5 at the start, then 1.3 and 4.6e4).
    """
    if hold not in ("theta1", "all", "none"):
        raise ContractViolationError(f"unknown hold mode {hold!r}")
    if model.dimension != 3:
        raise ContractViolationError(
            f"the 2-D REDIM is a graph Z(X, Y) of 3 species; model has {model.dimension}"
        )
    if min(M1, M2) < 4:
        # every hold mode takes one-sided second differences at the edges
        raise ContractViolationError(f"the 2-D REDIM needs at least 4 nodes per axis, "
                                     f"got M1 = {M1}, M2 = {M2}")
    free = (slice(None) if hold == "none" else slice(1, -1),
            slice(1, -1) if hold == "all" else slice(None))
    levels = [(M1, M2)]  # the grids to solve, coarsest first
    z_lo, z_hi = anchor_values
    if initial_z is not None:
        Zv = np.array(initial_z, dtype=float)
        if Zv.shape != (M1, M2):
            raise ContractViolationError("initial_z shape mismatch")
    elif z_lo is None or z_hi is None:
        raise ContractViolationError(
            "anchor_values (Z at theta1 endpoints) required without initial_z"
        )
    else:
        Zv = None
        while levels[0][0] % 2 and levels[0][1] % 2 and min(levels[0]) >= 2 * COARSEST - 1:
            levels.insert(0, ((levels[0][0] + 1) // 2, (levels[0][1] + 1) // 2))

    if grad is None:
        grad = constant_gradient((0.0, 0.0), "2d")
    delta = float(model.diffusion[-1])
    for M1, M2 in levels:
        t1 = np.linspace(theta1_range[0], theta1_range[1], M1)
        t2 = np.linspace(theta2_range[0], theta2_range[1], M2)
        TH1, TH2 = np.meshgrid(t1, t2, indexing="ij")
        if initial_z is None:
            line = z_lo + (z_hi - z_lo) * (t1 - t1[0]) / (t1[-1] - t1[0])
            coarse, Zv = Zv, np.repeat(line[:, None], M2, axis=1)
            if coarse is not None:
                Zv[free] = _prolong(_prolong(coarse, 0), 1)[free]
        c1_line = np.asarray(grad.chi1(t1), dtype=float)
        c2_line = np.asarray(grad.chi2(t1), dtype=float)
        C1 = np.repeat(c1_line[:, None], M2, axis=1)
        C2 = np.repeat(c2_line[:, None], M2, axis=1)

        # the rate and its Jacobian take their stencils from the same matrices
        axes = [(len(t), float(t[1] - t[0])) for t in (t1, t2)]
        (D1, D2), (E1, E2) = [[sum(np.diag(c[max(-k, 0):m - max(k, 0)], k)
                                   for k, c in difference_matrix(m, d, o).items()) for o in (1, 2)]
                              for m, d in axes]
        (A0, A1, A2), (B0, B1, B2) = [[difference_matrix(m, d, o, s) for o in (0, 1, 2)]
                                      for (m, d), s in zip(axes, free)]
        assemble = band_assembler(TH1[free].shape, [(A0, B0), (A1, B0), (A0, B1),
                                                    (A2, B0), (A1, B1), (A0, B2)])

        def rate(Zv):
            """Graph-form rates of ``Z[free]`` and ``jac()``, their band: the node
            terms J_ZZ - Z1 J_XZ - Z2 J_YZ, then -Phi_X, -Phi_Y, delta C1^2, 2 delta
            C1 C2 and delta C2^2 on D1 x I, I x D1, D2 x I, D1 x D1 and I x D2."""
            z = np.stack([TH1, TH2, Zv], axis=-1)
            Phi = model.source(z)
            Z1, Z2 = D1 @ Zv, Zv @ E1.T
            LZ = delta * (C1 * C1 * (D2 @ Zv) + 2.0 * C1 * C2 * (Z1 @ E1.T)
                          + C2 * C2 * (Zv @ E2.T))

            def jac():
                J = model.jacobian(z[free])[..., 2]
                return assemble([J[..., 2] - Z1[free] * J[..., 0] - Z2[free] * J[..., 1],
                                 -Phi[free][..., 0], -Phi[free][..., 1]] + [
                    delta * C[free] for C in (C1 * C1, 2.0 * C1 * C2, C2 * C2)])
            return ((Phi[..., 2] + LZ) - Z1 * Phi[..., 0] - Z2 * Phi[..., 1])[free], jac
        try:
            Zv, _ = relax_free(rate, Zv, free, tol)
        except NumericalError:
            if (M1, M2) == levels[-1]:
                raise
            Zv = None  # the coarse grid need not relax where this one does: keep the line
    return Manifold2D(theta1_grid=t1, theta2_grid=t2, Z_values=Zv, chi1=C1, chi2=C2)
