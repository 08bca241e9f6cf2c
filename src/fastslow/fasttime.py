"""Empirical fast-transient time measurements against the analytic bound.

Conventions.  The decomposition supplies two characteristic rates: the
slowest fast eigenvalue magnitude ``fast_rate`` and the fastest slow one
``slow_rate`` (their ratio is epsilon).  To compare runs of different
stiffness on one scale, the fast residual is normalized by ``fast_rate``

    ghat(z) = || Zt_f phi(z) ||_2 / fast_rate,

so that near the manifold ghat approximates the fast-coordinate distance,
and measured times are reported in slow-time units, t_slow = t * slow_rate.
In these units the scalar prototype eps * y' = -y enters the slow
neighborhood {ghat < sqrt(eps)} at exactly eps * ln(|y0| / sqrt(eps)), and
the transient-length argument gives the entry-time bound

    sqrt(2 eps) * 2 * (1 + eps K) * |y0 - ys|,

with K = 0 for the homogeneous system.  K bounds transport against fast
reaction, |Zt_f L| <= K |Zt_f phi|, sampled outside the slow neighborhood.
The same constant (including the factor 2) is used with and without
transport so that the zero-diffusion limit of the PDE measurement reproduces
the ODE one identically.

Both transients are integrated by one ARS(2,2,2) IMEX Runge-Kutta loop
(Ascher, Ruuth & Spiteri, Appl. Numer. Math. 25, 1997) at the fast-scale step
``eps / (20 slow_rate)``, at most ``1 / max|lambda|``: diffusion implicit, the
source explicit.  The implicit stages are tridiagonal solves, so the step is
not held to the explicit diffusion limit dx^2 / (2 D); without transport the
step is the explicit second-order Runge-Kutta method the tableau contains.
The entry time is located inside the step by linear interpolation of ghat
between the two steps that straddle sqrt(eps).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _lapack
from .core import (
    Grid1D,
    ReactionDiffusionModel,
    as_state,
    eval_source,
    interior_terms,
)
from .errors import ContractViolationError, ConvergenceError, DivergenceError
from .gql import GqlDecomposition, solve_on_fiber
from .pde import BoundaryConditions, SolverSettings, linear_initial_profile

__all__ = [
    "FastTimeReport",
    "fast_residual_norm",
    "slow_neighborhood_test",
    "measure_fast_time_ode",
    "measure_fast_time_pde",
]


@dataclass(frozen=True)
class FastTimeReport:
    """Measured entry into the slow neighborhood vs. the analytic bound.

    ``t_enter`` and ``bound`` are in slow-time units (model time times the
    slow rate).  ``ratio`` above 1 is a finding to report, never an
    exception.  ``path_length`` is the fast-coordinate arc length through the
    step of entry and ``length_ok`` whether the simple-transient assumption
    path_length <= 2 |y0 - ys| held.  ``steps`` counts the integration steps
    of model-time length ``dt``.
    """

    epsilon: float
    y0_distance: float
    K: float
    t_enter: float
    bound: float
    ratio: float
    path_length: float
    length_ok: bool
    steps: int
    dt: float


def _norm(g) -> float:
    """Euclidean norm of the vector ``g``: ``np.linalg.norm``'s
    ``sqrt(g . g)``, bit for bit, where ``g . g`` fits in a float; where it
    overflows, the norm of ``g`` scaled by its largest magnitude, inf only
    where that norm is beyond the float range.  Both callers run it under
    an ``np.errstate`` that ignores overflow and invalid values."""
    square = float(g @ g)
    if square < math.inf:
        return math.sqrt(square)
    scale = float(np.abs(g).max())
    if not scale < math.inf:
        return math.inf
    u = g / scale
    return scale * math.sqrt(float(u @ u))


def fast_residual_norm(dec: GqlDecomposition, model: ReactionDiffusionModel, z) -> float:
    """Rate-normalized fast residual ghat(z), with ``g = Zt_f phi(z)``: its
    Euclidean norm as :func:`_norm` gives it, with no floating-point
    warning."""
    with np.errstate(over="ignore", invalid="ignore"):
        return _norm(dec.Zt_f @ eval_source(model, z)) / dec.fast_rate


def slow_neighborhood_test(dec: GqlDecomposition, model: ReactionDiffusionModel, z) -> bool:
    """True iff ghat(z) < sqrt(epsilon)."""
    return fast_residual_norm(dec, model, z) < math.sqrt(dec.epsilon)


def _default_dt(dec: GqlDecomposition) -> float:
    # half of both limits: dt * slow_rate <= eps/10, 2 / |lambda| for the explicit stages
    return min(dec.epsilon / (20.0 * dec.slow_rate), 1.0 / float(np.abs(dec.eigenvalues).max()))


def _check_step(dec: GqlDecomposition, dt: float, max_time: float) -> None:
    if not 0.0 < dt < math.inf:
        raise ContractViolationError(f"dt must be finite and positive, got {dt!r}")
    if not 0.0 < max_time < math.inf:
        raise ContractViolationError(f"max_time must be finite and positive, got {max_time!r}")
    if dt * dec.slow_rate > dec.epsilon / 10.0 * (1.0 + 1e-12):
        raise ContractViolationError(
            "dt does not resolve the fast scale (needs dt * slow_rate <= eps/10)"
        )


# ARS(2,2,2): both implicit stages carry GAMMA on the diagonal, so one
# factorisation serves the whole run; the last stage is the new state.
GAMMA = 1.0 - np.sqrt(0.5)
DELTA = 1.0 - 0.5 / GAMMA


def _diffusion_solver(diffusion, node_count: int, dx: float, dt: float):
    """``solve(b) = (I - GAMMA dt D Lap)^(-1) b`` on states of shape (N, n),
    with the end rows of ``b`` held as Dirichlet values.

    The held values enter the first and last interior equations through the
    right-hand side.  The interior tridiagonals of all species are stacked
    into one system, with no coupling between the blocks, factored here once.
    """
    a = (GAMMA * dt / (dx * dx)) * np.asarray(diffusion, dtype=float)
    n, m = a.shape[0], node_count - 2
    off = np.repeat(-a, m)
    off[m - 1::m] = 0.0
    factors = _lapack.dgttrf(off[:-1], np.repeat(1.0 + 2.0 * a, m), off[:-1])[:5]

    def solve(b):
        rhs = b[1:-1].T.copy()  # species after species, as the systems are stacked
        rhs[:, 0] += a * b[0]
        rhs[:, -1] += a * b[-1]
        x = b.copy()
        x[1:-1] = _lapack.dgttrs(*factors, rhs.ravel(), overwrite_b=True)[0].reshape(n, m).T
        return x
    return solve


def _measure(dec, model, y, track, dt, max_time, terms, solver):
    """Integrate dy/dt = f(y) + L y until the tracked state enters the slow
    neighborhood and compare the entry time with the bound.

    One ARS(2,2,2) step: ``terms(Y)`` gives the explicit source ``f(Y)`` and
    the transport ``L Y``, and ``solver(dt)`` the implicit-stage solve
    ``b -> (I - GAMMA dt L)^(-1) b``; the tracked state is ``y[track]``.
    The two arrays of a ``terms`` call must stay valid through the next
    call, as a step's two sets of terms are used side by side.  Without
    transport (the ODE) ``terms``, ``solver`` and ``track`` are None: ``y``
    is the tracked state, the step calls ``model.source`` itself and skips
    the implicit stages (the identity), the transport and its K sample,
    and its two stage sums are formed on the Python floats of the state
    and its rates, in the operations and order of the array expressions,
    so with the same values at a fraction of the cost on 3 species.  The
    terms of each new state serve three uses: the entry test of the
    tracked state, a K sample if it has not entered, and the first stage
    of the next step.  The ODE evaluates its start once, through
    :func:`~fastslow.core.eval_source`, so a start whose source is not
    finite raises DivergenceError; that one array gives the start check's
    ghat and step 1's first stage.  The PDE checks its tracked node with its
    own single-state call, as a node's rates in a stack of nodes need not
    match those of a single-state call bit for bit.  With one fast coordinate
    the path increments and the entry test's ghat are taken on Python
    floats, ``sqrt(d * d)``: a one-element dot product is one rounded
    product, so these are the bits of the array norms they replace; the
    projections ``Zt_f @ z`` stay numpy's.  The default ``dt`` is
    :func:`_default_dt`.
    A step that leaves ``y`` non-finite raises DivergenceError.  The PDE
    tests ``y`` at every step, as it tracks one node.  The ODE tests it
    only once the path length is non-finite: under IEEE arithmetic a
    non-finite component of ``y`` makes ``Zt_f @ y`` non-finite even where
    ``Zt_f`` is zero (0 * inf and 0 * NaN are NaN), and so the path, so it
    raises at the same step.
    """
    threshold = math.sqrt(dec.epsilon)
    source, Zt_f, fast_rate = model.source, dec.Zt_f, dec.fast_rate
    if track is None:  # one evaluation: the start's check and step 1's first stage
        z0 = y
        with np.errstate(over="ignore", invalid="ignore"):
            F1 = eval_source(model, y)
            g = _norm(Zt_f @ F1) / fast_rate
    else:
        z0 = y[track]
        g = fast_residual_norm(dec, model, z0)
    if g < threshold:
        raise ContractViolationError("the start state already lies in the slow neighborhood")
    if dt is None:
        dt = _default_dt(dec)
    if max_time is None:
        max_time = 200.0 / dec.fast_rate
    _check_step(dec, dt, max_time)
    if solver is not None:
        solve = solver(dt)
    # Python floats, for the ODE's stage sums
    h, gamma_dt, delta, rest = float(dt), float(GAMMA * dt), float(DELTA), float(1.0 - DELTA)
    transport_dt = (1.0 - GAMMA) * dt
    t = K = path = 0.0
    steps = 0
    U0 = Zt_f @ z0
    if U0.size == 1:  # one fast coordinate: its norms on Python floats
        def coordinate(v):
            return (Zt_f @ v).item()

        def size(d):
            return math.sqrt(d * d)
        U_prev = U0.item()
    else:
        def coordinate(v):
            return Zt_f @ v

        def size(d):
            return math.sqrt(d @ d)  # np.linalg.norm's formula for a real vector
        U_prev = U0
    # an unstable step overflows; the finiteness check below reports it
    with np.errstate(over="ignore", invalid="ignore"):
        if solver is None:
            v = y.tolist()
        else:
            F1, L1 = terms(y)
        while True:
            if t > max_time:
                raise ConvergenceError(
                    f"tracked state did not enter the slow neighborhood by t = {max_time:g}"
                )
            if solver is None:
                f1 = F1.tolist()
                f2 = source(np.array([a + gamma_dt * f for a, f in zip(v, f1)])).tolist()
                v = [a + h * (delta * p + rest * q) for a, p, q in zip(v, f1, f2)]
                y = z = np.array(v)
            else:
                K = max(K, _transport_ratio_max(dec, F1, L1))
                F2, L2 = terms(solve(y + gamma_dt * F1))
                y = solve(y + h * (delta * F1 + rest * F2) + transport_dt * L2)
                z = y[track]
            steps += 1
            U = coordinate(z)
            path += size(U - U_prev)
            # the ODE tracks all of y: a non-finite y makes path non-finite
            if (solver is not None or not path < math.inf) and not np.isfinite(y).all():
                raise DivergenceError(
                    f"transient became non-finite by t = {t + dt:g} (dt = {dt:g})")
            U_prev = U
            if solver is None:
                F1 = source(y)
                g_new = size(coordinate(F1)) / fast_rate
            else:
                F1, L1 = terms(y)
                g_new = size(coordinate(F1[track])) / fast_rate
            if g_new < threshold:
                break
            g = g_new
            t += dt
    t_slow = (t + dt * (g - threshold) / (g - g_new)) * dec.slow_rate
    # the fast fiber through the start meets the zero-order manifold at z_s
    z_s, ok = solve_on_fiber(dec, model, dec.Zt_s @ z0, U0=U0, tol=1e-12)
    if not ok:
        raise ConvergenceError("fast-fiber Newton did not reach the slow manifold")
    dist = float(np.linalg.norm(U0 - dec.Zt_f @ z_s))
    bound = float(np.sqrt(2.0 * dec.epsilon) * 2.0 * (1.0 + dec.epsilon * K) * dist)
    return FastTimeReport(
        epsilon=dec.epsilon,
        y0_distance=dist,
        K=K,
        t_enter=t_slow,
        bound=bound,
        ratio=t_slow / bound if bound > 0.0 else np.inf,
        path_length=path,
        length_ok=bool(path <= 2.0 * dist),
        steps=steps,
        dt=dt,
    )


def measure_fast_time_ode(dec: GqlDecomposition, model: ReactionDiffusionModel,
                          z0, dt: float | None = None,
                          max_time: float | None = None) -> FastTimeReport:
    """Integrate dz/dt = phi(z) and time the entry into the slow neighborhood:
    the PDE measurement on one node without transport."""
    return _measure(dec, model, as_state(z0, model.dimension), None, dt, max_time,
                    None, None)


def _transport_ratio_max(dec, source, transport):
    """max over the nodes outside the slow neighborhood of |Zt_f L| /
    |Zt_f phi| (scale free), from the source phi and transport L = D Lap of
    :func:`interior_terms`; 0 for an all-zero transport.  A row with zero
    source, such as a held end row, never lies outside."""
    Lf = transport @ dec.Zt_f.T
    gf = source @ dec.Zt_f.T
    gn = np.sqrt(np.add.reduce(gf * gf, axis=1))  # np.linalg.norm(gf, axis=1)
    outside = gn / dec.fast_rate >= np.sqrt(dec.epsilon)
    if not outside.any():
        return 0.0
    Ln = np.sqrt(np.add.reduce(Lf * Lf, axis=1))
    return float((Ln[outside] / gn[outside]).max())


def measure_fast_time_pde(dec: GqlDecomposition, model: ReactionDiffusionModel,
                          bc: BoundaryConditions, settings: SolverSettings | None = None,
                          x0: float = 0.8, dt: float | None = None,
                          max_time: float | None = None) -> FastTimeReport:
    """Track the node nearest x0 of the transient PDE solution and time its
    entry into the slow neighborhood; K is accumulated along the way."""
    settings = settings or SolverSettings()
    if not 0.0 < x0 < 1.0:
        raise ContractViolationError("x0 must lie strictly inside (0, 1)")
    grid = Grid1D(settings.node_count)
    i0 = int(round(x0 * (settings.node_count - 1)))
    if i0 <= 0 or i0 >= settings.node_count - 1:
        raise ContractViolationError(
            "x0 falls on a Dirichlet-held boundary node"
        )
    states = linear_initial_profile(bc.left_state, bc.right_state, grid).states
    dx = grid.spacing

    # two (F, L) buffers in turn, so that a step's two sets of terms can
    # live side by side; the held end rows get neither source nor
    # transport, and stay zero
    buffers = [np.zeros((2,) + states.shape) for _ in range(2)]

    def terms(S):
        buffers.reverse()
        F, L = buffers[0]
        F[1:-1], L[1:-1] = interior_terms(model, S, dx)
        return F, L

    return _measure(dec, model, states, i0, dt, max_time, terms,
                    lambda dt: _diffusion_solver(model.diffusion, grid.node_count, dx, dt))
