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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    Grid1D,
    ReactionDiffusionModel,
    as_state,
    eval_source,
    interior_full_rhs,
    interior_terms,
)
from .errors import ContractViolationError, ConvergenceError
from .gql import GqlDecomposition, solve_on_fiber
from .pde import BoundaryConditions, SolverSettings, linear_initial_profile, stable_dt

__all__ = [
    "FastTimeReport",
    "fast_residual_norm",
    "slow_neighborhood_test",
    "measure_fast_time_ode",
    "measure_fast_time_pde",
    "estimate_K",
]


@dataclass(frozen=True)
class FastTimeReport:
    """Measured entry into the slow neighborhood vs. the analytic bound.

    ``t_enter`` and ``bound`` are in slow-time units (model time times the
    slow rate); ``t_enter_model`` keeps the raw integration time.  ``ratio``
    above 1 is a finding to report, never an exception.  ``path_length`` is
    the fast-coordinate arc length until entry and ``length_ok`` whether the
    simple-transient assumption path_length <= 2 |y0 - ys| held.
    """

    epsilon: float
    y0_distance: float
    K: float
    t_enter: float
    bound: float
    ratio: float
    t_enter_model: float
    path_length: float
    length_ok: bool


def fast_residual_norm(dec: GqlDecomposition, model: ReactionDiffusionModel, z) -> float:
    """Rate-normalized fast residual ghat(z)."""
    g = dec.Zt_f @ eval_source(model, z)
    return float(np.linalg.norm(g) / dec.fast_rate)


def slow_neighborhood_test(dec: GqlDecomposition, model: ReactionDiffusionModel, z) -> bool:
    """True iff ghat(z) < sqrt(epsilon)."""
    return fast_residual_norm(dec, model, z) < np.sqrt(dec.epsilon)


def _default_dt(dec: GqlDecomposition) -> float:
    # half the admissible maximum; the precondition is dt * slow_rate <= eps/10
    return dec.epsilon / (20.0 * dec.slow_rate)


def _check_dt(dec: GqlDecomposition, dt: float) -> None:
    if dt <= 0.0:
        raise ContractViolationError("dt must be positive")
    if dt * dec.slow_rate > dec.epsilon / 10.0 * (1.0 + 1e-12):
        raise ContractViolationError(
            "dt does not resolve the fast scale (needs dt * slow_rate <= eps/10)"
        )


def _fiber_anchor(dec, model, z0):
    """Intersection of the fast fiber through z0 with the zero-order manifold."""
    U0, V0 = dec.Zt_f @ z0, dec.Zt_s @ z0
    z_s, ok = solve_on_fiber(dec, model, V0, U0=U0, tol=1e-12)
    if not ok:
        raise ConvergenceError("fast-fiber Newton did not reach the slow manifold")
    dist = float(np.linalg.norm(U0 - dec.Zt_f @ z_s))
    return z_s, dist


def _report(dec, t_model, dist, K, path_length):
    t_slow = t_model * dec.slow_rate
    bound = float(np.sqrt(2.0 * dec.epsilon) * 2.0 * (1.0 + dec.epsilon * K) * dist)
    return FastTimeReport(
        epsilon=dec.epsilon,
        y0_distance=dist,
        K=K,
        t_enter=t_slow,
        bound=bound,
        ratio=t_slow / bound if bound > 0.0 else np.inf,
        t_enter_model=t_model,
        path_length=path_length,
        length_ok=bool(path_length <= 2.0 * dist),
    )


def measure_fast_time_ode(dec: GqlDecomposition, model: ReactionDiffusionModel,
                          z0, dt: float | None = None,
                          max_time: float | None = None) -> FastTimeReport:
    """Integrate dz/dt = phi(z) and time the entry into the slow neighborhood."""
    z = np.array(as_state(z0, model.dimension))
    if slow_neighborhood_test(dec, model, z):
        raise ContractViolationError("z0 already lies in the slow neighborhood")
    if dt is None:
        dt = _default_dt(dec)
    _check_dt(dec, dt)
    if max_time is None:
        max_time = 200.0 / dec.fast_rate
    t = 0.0
    path = 0.0
    U_prev = dec.Zt_f @ z
    while not slow_neighborhood_test(dec, model, z):
        if t > max_time:
            raise ConvergenceError(
                f"trajectory did not enter the slow neighborhood by t = {max_time:g}"
            )
        k1 = model.source(z)
        k2 = model.source(z + 0.5 * dt * k1)
        k3 = model.source(z + 0.5 * dt * k2)
        k4 = model.source(z + dt * k3)
        z = z + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        U = dec.Zt_f @ z
        path += float(np.linalg.norm(U - U_prev))
        U_prev = U
        t += dt
    _, dist = _fiber_anchor(dec, model, np.asarray(z0, dtype=float))
    return _report(dec, t, dist, 0.0, path)


def _transport_ratio_max(dec, source, transport):
    """max over the interior nodes outside the slow neighborhood of
    |Zt_f L| / |Zt_f phi| (scale free), from the interior source phi and
    transport L = D Lap of :func:`interior_terms`."""
    Lf = transport @ dec.Zt_f.T
    gf = source @ dec.Zt_f.T
    gn = np.linalg.norm(gf, axis=1)
    outside = gn / dec.fast_rate >= np.sqrt(dec.epsilon)
    if not outside.any():
        return 0.0
    Ln = np.linalg.norm(Lf, axis=1)
    return float((Ln[outside] / gn[outside]).max())


def estimate_K(dec: GqlDecomposition, model: ReactionDiffusionModel,
               profile_snapshots) -> float:
    """Transport-to-fast-reaction ratio over transient profile snapshots;
    0 if no sampled state lies outside the slow neighborhood."""
    K = 0.0
    for snap in profile_snapshots:
        terms = interior_terms(model, snap.states, snap.grid.spacing)
        K = max(K, _transport_ratio_max(dec, *terms))
    return K


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
    profile = linear_initial_profile(bc.left_state, bc.right_state, grid)
    states = np.array(profile.states)
    dx = grid.spacing
    z0 = states[i0].copy()
    if slow_neighborhood_test(dec, model, z0):
        raise ContractViolationError("state at x0 already lies in the slow neighborhood")
    if dt is None:
        dt = min(_default_dt(dec),
                 stable_dt(model, profile, safety=settings.dt_safety))
    _check_dt(dec, dt)
    if max_time is None:
        max_time = 200.0 / dec.fast_rate
    t = 0.0
    K = 0.0
    path = 0.0
    U_prev = dec.Zt_f @ z0
    while not slow_neighborhood_test(dec, model, states[i0]):
        if t > max_time:
            raise ConvergenceError(
                f"tracked node did not enter the slow neighborhood by t = {max_time:g}"
            )
        # one source evaluation serves both K and the first RK4 stage
        source, transport = interior_terms(model, states, dx)
        K = max(K, _transport_ratio_max(dec, source, transport))
        k1 = np.zeros_like(states)
        k1[1:-1] = source + transport
        k2 = interior_full_rhs(model, states + (0.5 * dt) * k1, dx)
        k3 = interior_full_rhs(model, states + (0.5 * dt) * k2, dx)
        k4 = interior_full_rhs(model, states + dt * k3, dx)
        states = states + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        U = dec.Zt_f @ states[i0]
        path += float(np.linalg.norm(U - U_prev))
        U_prev = U
        t += dt
    _, dist = _fiber_anchor(dec, model, z0)
    return _report(dec, t, dist, K, path)
