"""Nonlinear steady-state solvers: pseudo-time relaxations dx/dtau = F(x)
and the damped Newton of the equilibrium and the slow-manifold fibres.

The stationary profile and the 1-D and 2-D manifolds are all reached by one
pseudo-transient continuation (Kelley & Keyes, SIAM J. Numer. Anal. 35,
1998): implicit Euler steps (I / dtau - J) d = F(x), x <- x + d, with dtau
grown by switched evolution relaxation, dtau <- dtau * |F_old| / |F_new|
(Mulder & van Leer, JCP 59, 1985).  Far from the solution this follows the
pseudo-time path; as the residual falls the step becomes Newton's.  Its
Jacobian is exact, assembled from a 1-D matrix along each grid axis.

The equilibrium and the zero-order slow manifold are small dense problems,
solved row by row in one batched damped Newton (:func:`damped_newton`).
"""

from __future__ import annotations

import numpy as np
import scipy.linalg as sla

from .errors import ConvergenceError, DivergenceError

__all__ = ["band_assembler", "damped_newton", "difference_matrix", "relax_free"]

DTAU0 = 0.1           # first pseudo-time step, in the model's time units
MAX_ITERATIONS = 200
HALVINGS = 40         # step halvings per damped-Newton line search


def difference_matrix(m, d, order, s=np.s_[:]):
    """The identity (``order`` 0), first or second difference (1, 2) on ``m``
    nodes of spacing ``d``, central with one-sided second-order end rows
    (reaching 3 nodes in), in the rows and columns of the slice ``s``:
    diagonals ``{k: c}``, ``c[i]`` in row ``i`` and column ``i + k``."""
    central, edge = [([0.0, 1.0, 0.0], [1.0]), ([-0.5, 0.0, 0.5], [-1.5, 2.0, -0.5]),
                     ([1.0, -2.0, 1.0], [2.0, -5.0, 4.0, -1.0])][order]
    P = {k: np.zeros(m) for k in range(-3, 4)}
    for k, c in zip((-1, 0, 1), central):
        P[k][1:-1] = c / d ** order
    for k, c in enumerate(edge):  # a first difference changes sign under reflection
        P[k][0], P[-k][-1] = c / d ** order, (-1) ** order * c / d ** order
    i = np.arange(m)[s]
    return {k: c for k, c in ((k, p[s] * np.isin(i + k, i)) for k, p in P.items()) if c.any()}


def band_assembler(shape, terms):
    """``assemble(weights)``: a Jacobian in the unknowns of ``shape`` ``(n0, n1)``
    (C order) as ``(bw, ab)``, the band in LAPACK gbsv storage, ``J[r, c]`` at
    ``ab[2 * bw + r - c, c]`` (``ab`` is reused).  Term ``(P, W)`` and weight
    ``w`` add ``P[a, a'] W_a[b, b']`` at row ``(a, b)``, column ``(a', b')``:
    ``P``, ``W`` as diagonals, ``W_a = diag(w[a]) W``, or ``w[a]`` if W is None."""
    n0, n1 = shape
    n, dense = n0 * n1, range(1 - n1, n1)
    bw = max(abs(k * n1 + l) for P, W in terms for k in P for l in (dense if W is None else W))
    # the band LU runs in blocks of 32 columns: at 61 x 61 nodes it factors
    # a half-bandwidth of 64 in 10 ms, 63 in 26 ms; pad if under 8 diagonals
    bw += -bw % 32 if -bw % 32 < 8 else 0
    # single precision halves the band; residuals stay in double precision
    ab = np.empty((3 * bw + 1, n), dtype=np.float32, order="F")

    def assemble(weights):
        ab[:] = 0.0
        for (P, W), w in zip(terms, weights):
            if W is None:  # diagonal l of the dense blocks, zero where undefined
                Wa = {l: np.zeros((n0, n1)) for l in dense}
                for l, c in Wa.items():
                    c[:, max(-l, 0):n1 - max(l, 0)] = np.diagonal(w, l, 1, 2)
            else:
                Wa = {l: w * c for l, c in W.items()}
            for k, p in P.items():
                for l, c in Wa.items():  # J[r, r + s] = v[r]
                    s, v = k * n1 + l, (p[:, None] * c).ravel()
                    ab[2 * bw - s, max(s, 0):n + min(s, 0)] += v[max(-s, 0):n - max(s, 0)]
        return bw, ab

    return assemble


def relax_free(rate, initial, free, tol):
    """Steady state of d(A[free])/dtau = rate(A), the rest of A held: relax
    ``initial`` until the sup-norm of the rate falls below ``tol``.

    ``free`` selects a rectangular block of ``initial``; ``rate(A)`` returns the
    rates of ``A[free]`` and ``jac()``, the band of their Jacobian at ``A``
    (:func:`band_assembler`).  Returns the relaxed array, bit-identical to
    ``initial`` outside ``free``, and one ``(pseudo_time, residual)`` pair for
    the start and each step.  A non-finite residual raises DivergenceError; a
    singular step or MAX_ITERATIONS steps without convergence raise
    ConvergenceError carrying the residual.
    """
    A = np.array(initial, dtype=float)
    shape = A[free].shape
    R, jac = rate(A)
    residual = float(np.abs(R).max())
    tau, dtau = 0.0, DTAU0
    history = [(tau, residual)]
    while True:
        if not np.isfinite(residual):
            raise DivergenceError(f"non-finite residual at pseudo-time {tau:g}")
        if residual < tol:
            return A, history
        if len(history) > MAX_ITERATIONS:
            raise ConvergenceError(f"not stationary after {MAX_ITERATIONS} steps",
                                   residual=residual)
        bw, ab = jac()
        ab *= -1.0
        ab[2 * bw] += 1.0 / dtau
        _, _, d, info = sla.lapack.sgbsv(bw, bw, ab, R.ravel().astype(np.float32),
                                         overwrite_ab=True)
        if info > 0:
            raise ConvergenceError(f"singular step matrix at pseudo-time {tau:g}",
                                   residual=residual)
        A[free] += d.reshape(shape)
        R, jac = rate(A)
        tau += dtau
        residual = float(np.abs(R).max())
        # dtau * |F_old| / |F_new| at every step telescopes to this
        dtau = DTAU0 * history[0][1] / residual if residual > 0.0 else np.inf
        history.append((tau, residual))


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
