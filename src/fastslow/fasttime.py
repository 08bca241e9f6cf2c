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

One measurement times both transients.  It checks the start, sets and
checks the step and the time budget, runs a step function, tracks the path
length, locates the entry, anchors the start's fast fibre and forms the
bound and the report.  A step function advances one transient by the
ARS(2,2,2) IMEX Runge-Kutta scheme (Ascher, Ruuth & Spiteri, Appl. Numer.
Math. 25, 1997), one step per yield, with diffusion implicit and the source
explicit: :func:`_pde_steps` with tridiagonal implicit stages and the K
sample, :func:`_ode_steps` without transport, which leaves the explicit
second-order Runge-Kutta method the tableau contains.  The step is the
fast-scale ``eps / (20 slow_rate)``, at most ``1 / max|lambda|``; it is not
held to the explicit diffusion limit dx^2 / (2 D).  The entry time is
located inside the step by linear interpolation of ghat between the two
steps that straddle sqrt(eps).
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
GAMMA = 1.0 - math.sqrt(0.5)
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


def _measure(dec, model, z0, steps, dt, max_time):
    """Run a transient until its tracked state enters the slow neighborhood
    and compare the entry time with the bound.

    ``z0`` is the tracked state at the start, and ``steps(F, dt)`` the
    transient's step function: a generator that takes the start's rates
    ``F`` and the step ``dt`` and yields, once per step, the tracked state,
    its rates and the transport ratio K sampled so far.  It ends without a
    yield at the step that leaves its state non-finite, where the
    measurement raises DivergenceError; it runs under this function's
    ``np.errstate``, so such a step overflows without a warning.  The start
    is evaluated once, through :func:`~fastslow.core.eval_source` (a start
    whose source is not finite raises DivergenceError), for the start check
    and the step function.  With one fast coordinate the path increments
    and the entry test's ghat are taken on Python floats, ``sqrt(d * d)``:
    a one-element dot product is one rounded product, so these are the bits
    of the array norms they replace; the projections ``Zt_f @ z`` stay
    numpy's.  The default ``dt`` is :func:`_default_dt`.
    """
    threshold = math.sqrt(dec.epsilon)
    Zt_f, fast_rate = dec.Zt_f, dec.fast_rate
    with np.errstate(over="ignore", invalid="ignore"):
        F = eval_source(model, z0)
        g = _norm(Zt_f @ F) / fast_rate
    if g < threshold:
        raise ContractViolationError("the start state already lies in the slow neighborhood")
    if dt is None:
        dt = _default_dt(dec)
    if max_time is None:
        max_time = 200.0 / fast_rate
    _check_step(dec, dt, max_time)
    t = path = 0.0
    count = 0
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
    with np.errstate(over="ignore", invalid="ignore"):
        for z, F, K in steps(F, dt):
            count += 1
            U = coordinate(z)
            path += size(U - U_prev)
            U_prev = U
            g_new = size(coordinate(F)) / fast_rate
            if g_new < threshold:
                break
            g = g_new
            t += dt
            if t > max_time:
                raise ConvergenceError(
                    f"tracked state did not enter the slow neighborhood by t = {max_time:g}"
                )
        else:
            raise DivergenceError(f"transient became non-finite by t = {t + dt:g} (dt = {dt:g})")
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
        steps=count,
        dt=dt,
    )


def _ode_steps(model, y, F, dt):
    """ARS(2,2,2) steps of dz/dt = phi(z) from ``y``, whose rates are ``F``:
    without transport the implicit stages are the identity, so this is the
    explicit second-order Runge-Kutta method of the tableau, and K is 0.
    The stage sums are formed on the Python floats of the state and its
    rates, in the operations and order of the PDE's array expressions, so
    with the same values at a fraction of the cost on 3 species.  Each step
    calls ``model.source`` twice: its second stage and the new state, whose
    rates serve the entry test and the next step's first stage."""
    source = model.source
    h = float(dt)  # numpy scalars would slow the float arithmetic
    gamma_dt, rest = GAMMA * h, 1.0 - DELTA
    v = y.tolist()
    while True:
        f1 = F.tolist()
        f2 = source(np.array([a + gamma_dt * f for a, f in zip(v, f1)])).tolist()
        v = [a + h * (DELTA * p + rest * q) for a, p, q in zip(v, f1, f2)]
        if not all(map(math.isfinite, v)):
            return
        y = np.array(v)
        F = source(y)
        yield y, F, 0.0


def measure_fast_time_ode(dec: GqlDecomposition, model: ReactionDiffusionModel,
                          z0, dt: float | None = None,
                          max_time: float | None = None) -> FastTimeReport:
    """Integrate dz/dt = phi(z) and time the entry into the slow neighborhood:
    the PDE measurement on one node without transport."""
    y = as_state(z0, model.dimension)
    return _measure(dec, model, y, lambda F, dt: _ode_steps(model, y, F, dt), dt, max_time)


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


def _pde_steps(dec, model, y, track, dx, dt):
    """ARS(2,2,2) steps of dy/dt = f(y) + D Lap y from the profile ``y``,
    its end rows held, tracking node ``track``: diffusion implicit
    (:func:`_diffusion_solver`), the source explicit.  Each step samples K
    (:func:`_transport_ratio_max`) at the state it starts from, whose
    tracked node has not entered, and evaluates the N - 2 interior nodes
    twice: its second stage and the new state, whose terms serve the entry
    test, the next K sample and the next step's first stage.  The terms go into one fixed
    (F, L) pair of buffers per stage, whose held end rows stay zero."""
    solve = _diffusion_solver(model.diffusion, y.shape[0], dx, dt)
    gamma_dt, rest, transport_dt = GAMMA * dt, 1.0 - DELTA, (1.0 - GAMMA) * dt
    F1, L1, F2, L2 = np.zeros((4,) + y.shape)
    F1[1:-1], L1[1:-1] = interior_terms(model, y, dx)
    K = 0.0
    while True:
        K = max(K, _transport_ratio_max(dec, F1, L1))
        F2[1:-1], L2[1:-1] = interior_terms(model, solve(y + gamma_dt * F1), dx)
        y = solve(y + dt * (DELTA * F1 + rest * F2) + transport_dt * L2)
        if not np.isfinite(y).all():
            return
        F1[1:-1], L1[1:-1] = interior_terms(model, y, dx)
        yield y[track], F1[track], K


def measure_fast_time_pde(dec: GqlDecomposition, model: ReactionDiffusionModel,
                          bc: BoundaryConditions, settings: SolverSettings | None = None,
                          x0: float = 0.8, dt: float | None = None,
                          max_time: float | None = None) -> FastTimeReport:
    """Track the node nearest x0 of the transient PDE solution from the
    linear profile and time its entry into the slow neighborhood; K is
    accumulated along the way.  Of ``settings`` only ``node_count`` is read.

    The start check evaluates the tracked node on its own, and the steps
    evaluate it again in the stack of interior nodes, as a node's rates in
    a stack need not match a single-state call bit for bit."""
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
    return _measure(dec, model, states[i0],
                    lambda F, dt: _pde_steps(dec, model, states, i0, grid.spacing, dt),
                    dt, max_time)
