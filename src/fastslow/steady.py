"""Nonlinear steady-state solvers: pseudo-time relaxations dx/dtau = F(x)
and the damped Newton of the equilibrium and the slow-manifold fibres.

The stationary profile and the 1-D and 2-D manifolds are all reached by one
pseudo-transient continuation (Kelley & Keyes, SIAM J. Numer. Anal. 35,
1998): implicit Euler steps (I / dtau - J) d = F(x), x <- x + d, with dtau
grown by switched evolution relaxation, dtau <- dtau * |F_old| / |F_new|
(Mulder & van Leer, JCP 59, 1985).  Far from the solution this follows the
pseudo-time path; as the residual falls the step becomes Newton's.

The equilibrium and the zero-order slow manifold are small dense problems,
solved row by row in one batched damped Newton (:func:`damped_newton`).
"""

from __future__ import annotations

import numpy as np
import scipy.linalg as sla

from .errors import ConvergenceError, DivergenceError

__all__ = ["damped_newton", "grouped_fd_jacobian", "relax_free", "solve_steady"]

DTAU0 = 0.1           # first pseudo-time step, in the model's time units
MAX_ITERATIONS = 200
FD_STEP = 1.5e-8      # ~ sqrt(machine epsilon), relative to max(1, |x|)
HALVINGS = 40         # step halvings per damped-Newton line search


def grouped_fd_jacobian(F, shape, reach):
    """Forward-difference Jacobian of ``F`` as a callable ``jac(x, Fx)``.

    Output ``r`` may depend only on the unknowns, laid out as an array of
    ``shape``, within ``reach[a]`` steps of ``r`` along each axis ``a``, so
    columns whose rows cannot overlap share one evaluation of ``F`` (Curtis,
    Powell & Reid, IMA J. Appl. Math. 13, 1974).  ``jac`` returns ``(bw, ab)``:
    the half-bandwidth and the band in LAPACK gbsv storage, ``J[r, c]`` at
    ``ab[2 * bw + r - c, c]``; ``ab`` is overwritten by the next call.
    """
    shape, reach = np.array(shape), np.array(reach)
    width = np.minimum(2 * reach + 1, shape)
    idx = np.indices(shape).reshape(len(shape), -1)     # multi-index per unknown
    group = np.ravel_multi_index(tuple(idx % width[:, None]), width)
    strides = np.cumprod(shape[::-1])[::-1] // shape    # of the flattened order
    bw = int(reach @ strides)
    # single precision halves the band: the forward differences are only
    # good to about FD_STEP anyway, and residuals stay in double precision
    ab = np.empty((3 * bw + 1, idx.shape[1]), dtype=np.float32, order="F")

    def jac(x, Fx):
        h = FD_STEP * np.maximum(1.0, np.abs(x))
        ab[:] = 0.0
        for g, g_idx in enumerate(np.ndindex(*width)):
            xp = x.copy()
            xp[group == g] += h[group == g]
            dF = F(xp) - Fx
            r = np.flatnonzero(dF)
            # along each axis, a window of `width` indices holds every column
            # within reach of row r, and one of them is in group g
            start = np.clip(idx[:, r] - reach[:, None], 0, (shape - width)[:, None])
            c_idx = start + (np.array(g_idx)[:, None] - start) % width[:, None]
            c = np.ravel_multi_index(tuple(c_idx), shape)
            ab[2 * bw + r - c, c] = dF[r] / h[c]
        return bw, ab

    return jac


def solve_steady(F, jac, x0, tol):
    """Relax ``x0`` until the sup-norm of ``F`` falls below ``tol``.

    ``jac(x, Fx)`` returns the band of the Jacobian of ``F`` as
    :func:`grouped_fd_jacobian` does.  Returns ``x`` and one ``(pseudo_time,
    residual)`` pair for the start and each step.  A non-finite residual
    raises DivergenceError; a singular step or MAX_ITERATIONS steps without
    convergence raise ConvergenceError carrying the residual.
    """
    x = np.array(x0, dtype=float)
    Fx = F(x)
    residual = float(np.abs(Fx).max())
    tau, dtau = 0.0, DTAU0
    history = [(tau, residual)]
    while True:
        if not np.isfinite(residual):
            raise DivergenceError(f"non-finite residual at pseudo-time {tau:g}")
        if residual < tol:
            return x, history
        if len(history) > MAX_ITERATIONS:
            raise ConvergenceError(f"not stationary after {MAX_ITERATIONS} steps",
                                   residual=residual)
        bw, ab = jac(x, Fx)
        ab *= -1.0
        ab[2 * bw] += 1.0 / dtau
        _, _, d, info = sla.lapack.sgbsv(bw, bw, ab, Fx.astype(np.float32), overwrite_ab=True)
        if info > 0:
            raise ConvergenceError(f"singular step matrix at pseudo-time {tau:g}",
                                   residual=residual)
        x = x + d
        Fx = F(x)
        tau += dtau
        residual = float(np.abs(Fx).max())
        # dtau * |F_old| / |F_new| at every step telescopes to this
        dtau = DTAU0 * history[0][1] / residual if residual > 0.0 else np.inf
        history.append((tau, residual))


def relax_free(rate, initial, free, reach, tol):
    """Steady state of d(A[free])/dtau = rate(A)[free], the rest of A held.

    ``free`` selects a rectangular block of ``initial`` and ``reach`` is the
    stencil reach of ``rate`` along each of its axes.  Returns the relaxed
    array, bit-identical to ``initial`` outside ``free``, and the history.
    """
    shape = initial[free].shape

    def with_free(x):
        out = np.array(initial, dtype=float)
        out[free] = x.reshape(shape)
        return out

    def F(x):
        return rate(with_free(x))[free].ravel()

    x, history = solve_steady(F, grouped_fd_jacobian(F, shape, reach),
                              initial[free].ravel(), tol)
    return with_free(x), history


def _solve_rows(A, b):
    """Solve ``A[i] x[i] = b[i]`` for a stack; returns ``(x, ok)``.

    A stack holding one matrix that LAPACK finds singular makes the stacked
    solve fail as a whole, so such a stack is bisected until each singular
    matrix stands alone; its row of ``x`` is NaN and its ``ok`` False.
    """
    try:
        return np.linalg.solve(A, b[..., None])[..., 0], np.ones(len(b), dtype=bool)
    except np.linalg.LinAlgError:
        if len(b) == 1:
            return np.full_like(b, np.nan), np.zeros(1, dtype=bool)
    h = len(b) // 2
    x1, ok1 = _solve_rows(A[:h], b[:h])
    x2, ok2 = _solve_rows(A[h:], b[h:])
    return np.concatenate([x1, x2]), np.concatenate([ok1, ok2])


def damped_newton(phi, jacobian, P, B, offset, U0, tol, max_iter):
    """Damped Newton on ``P phi(U B^T + offset) = 0`` for a stack of rows.

    ``phi`` and ``jacobian`` map ``(m, n)`` states to ``(m, n)`` values and
    ``(m, n, n)`` Jacobians; ``offset`` is ``(m, n)``, one problem per row,
    and ``U0`` is ``None`` (start at zero) or broadcasts to ``(m, B.shape[1])``.
    Each row runs its own iteration: it stops once ``|g|_inf < tol``, with
    ``g = P phi(z)``, steps by ``solve(P J(z) B, -g)`` and halves the step
    until the residual strictly decreases, at most ``HALVINGS`` times.  A row
    freezes when it converges, when its line search fails or when its
    reduced Jacobian is singular.  Only rows still iterating are evaluated,
    so every row evaluates the same states it would alone.  Returns
    ``(z, converged, singular, residual)``, one entry per row: the last
    iterate, whether its residual is below ``tol``, whether it stopped on a
    singular Jacobian, and ``|g|_inf`` there.
    """
    m = offset.shape[0]
    U = np.zeros((m, B.shape[1])) if U0 is None else np.array(
        np.broadcast_to(U0, (m, B.shape[1])), dtype=float)
    z = U @ B.T + offset
    g = phi(z) @ P.T
    gnorm = np.abs(g).max(axis=1)
    live = np.ones(m, dtype=bool)
    singular = np.zeros(m, dtype=bool)
    for _ in range(max_iter):
        live &= ~(gnorm < tol)
        rows = np.flatnonzero(live)
        if rows.size == 0:
            break
        dU, ok = _solve_rows(P @ jacobian(z[rows]) @ B, -g[rows])
        singular[rows[~ok]] = True
        live[rows[~ok]] = False
        rows, dU = rows[ok], dU[ok]
        step = 1.0
        for _ in range(HALVINGS):
            U_new = U[rows] + step * dU
            z_new = U_new @ B.T + offset[rows]
            g_new = phi(z_new) @ P.T
            gnorm_new = np.abs(g_new).max(axis=1)
            down = gnorm_new < gnorm[rows]
            took = rows[down]
            U[took], z[took], g[took], gnorm[took] = (
                U_new[down], z_new[down], g_new[down], gnorm_new[down])
            rows, dU = rows[~down], dU[~down]
            if rows.size == 0:
                break
            step *= 0.5
        live[rows] = False  # no halving decreased the residual
    return z, gnorm < tol, singular, gnorm
