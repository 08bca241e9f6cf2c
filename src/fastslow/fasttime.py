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
from .pde import BoundaryConditions, SolverSettings, linear_initial_profile

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


DT_SAFETY = 0.8   # fraction of the explicit stability limit of the PDE step


def _stable_dt(model: ReactionDiffusionModel, states, dx: float) -> float:
    """Step of the explicit PDE transient: DT_SAFETY * min(dx^2/(2 max D),
    2/rho), rho the Gershgorin row-sum bound on the source Jacobian over
    all nodes."""
    dmax = float(model.diffusion.max())
    diff_limit = dx * dx / (2.0 * dmax) if dmax > 0.0 else np.inf
    rho = float(np.abs(model.jacobian(states)).sum(axis=-1).max())
    src_limit = 2.0 / rho if rho > 0.0 else np.inf
    return DT_SAFETY * min(diff_limit, src_limit)


def _entry_time(dec, model, rhs, first, y, track, dt, max_time, dt_cap=None):
    """RK4-integrate dy/dt = rhs(y) until ``y[track]`` enters the slow
    neighborhood; returns the model time, K and the fast-coordinate path.

    ``first(y)`` gives the first RK4 stage together with a K sample, so one
    source evaluation can serve both.  The default ``dt`` is
    :func:`_default_dt`, capped by ``dt_cap(y)`` when given.
    """
    if slow_neighborhood_test(dec, model, y[track]):
        raise ContractViolationError("the start state already lies in the slow neighborhood")
    if dt is None:
        dt = _default_dt(dec) if dt_cap is None else min(_default_dt(dec), dt_cap(y))
    _check_dt(dec, dt)
    if max_time is None:
        max_time = 200.0 / dec.fast_rate
    t = K = path = 0.0
    U_prev = dec.Zt_f @ y[track]
    while not slow_neighborhood_test(dec, model, y[track]):
        if t > max_time:
            raise ConvergenceError(
                f"tracked state did not enter the slow neighborhood by t = {max_time:g}"
            )
        k1, K_sample = first(y)
        K = max(K, K_sample)
        k2 = rhs(y + (0.5 * dt) * k1)
        k3 = rhs(y + (0.5 * dt) * k2)
        k4 = rhs(y + dt * k3)
        y = y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        U = dec.Zt_f @ y[track]
        path += float(np.linalg.norm(U - U_prev))
        U_prev = U
        t += dt
    return t, K, path


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
    z = as_state(z0, model.dimension)
    t, K, path = _entry_time(dec, model, model.source, lambda y: (model.source(y), 0.0),
                             z, ..., dt, max_time)
    _, dist = _fiber_anchor(dec, model, z)
    return _report(dec, t, dist, K, path)


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
    states = linear_initial_profile(bc.left_state, bc.right_state, grid).states
    dx = grid.spacing

    def first(S):
        # one source evaluation serves both K and the first RK4 stage
        source, transport = interior_terms(model, S, dx)
        k1 = np.zeros_like(S)
        k1[1:-1] = source + transport
        return k1, _transport_ratio_max(dec, source, transport)

    t, K, path = _entry_time(dec, model, lambda S: interior_full_rhs(model, S, dx), first,
                             states, i0, dt, max_time,
                             dt_cap=lambda S: _stable_dt(model, S, dx))
    _, dist = _fiber_anchor(dec, model, states[i0])
    return _report(dec, t, dist, K, path)
