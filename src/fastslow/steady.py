"""Nonlinear steady-state solvers: pseudo-time relaxations dx/dtau = F(x)
and the damped Newton of the equilibrium and the slow-manifold fibres.

The stationary profile and the 1-D and 2-D manifolds are all reached by one
pseudo-transient continuation (PTC; Kelley & Keyes, SIAM J. Numer. Anal. 35,
1998): implicit Euler steps (I / dtau - J) d = F(x), x <- x + d, with dtau
grown by switched evolution relaxation, dtau <- dtau * |F_old| / |F_new|
(Mulder & van Leer, JCP 59, 1985).  Far from the solution this follows the
pseudo-time path; as the residual falls the step becomes Newton's.  Its
Jacobian is exact, assembled from a 1-D matrix along each grid axis.  One
rule decides the path: no step may end at or above the residual of the
start it came from.  A solve takes Newton steps from its start, and
restarts the pseudo-time path from the same start at the first step that
does, so a failed attempt costs its steps only; on the pseudo-time path
such a step ends the solve.  Below that bound the residual may rise and
fall again, as a PTC residual may before its Newton phase; switched
evolution relaxation then shortens the step, but never below the first.

- The stationary profile and the REDIM-1D converge in Newton steps from
  their straight lines: 4 at N = 51, 101 and 201 (5 at 1601) where PTC
  takes 11, and 6 at M = 101 where PTC takes 10.
- A grid-sequenced REDIM-2D level converges in Newton steps from its
  prolonged coarse solution: 3 at 61 x 61 where PTC takes 6.
- The REDIM-2D's coarsest level (31 x 31, from its straight line) rejects
  its first Newton step (2.42 -> 2.53 for the profile's closure, above the
  start) and relaxes by PTC.

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
HALVINGS = 40         # step lengths 1, 1/2, ..., 2**-39 per damped-Newton line search
BLOCK = 8             # shorter step lengths evaluated in one call
# the full step, then the shorter lengths in blocks: 1 | 2**-1 .. 2**-8 | ...,
# each a (lengths, 1, 1) column that scales a stack of steps
_STEP_BLOCKS = [b[:, None, None] for b in np.split(np.ldexp(1.0, -np.arange(HALVINGS)),
                                                   range(1, HALVINGS, BLOCK))]


def difference_matrix(m, d, order, s=np.s_[:]):
    """The identity (``order`` 0), first or second difference (1, 2) on ``m``
    nodes of spacing ``d``, central with one-sided second-order end rows
    (reaching 3 nodes in), in the rows and columns of the contiguous slice
    ``s``: diagonals ``{k: c}``, ``c[i]`` in row ``i`` and column ``i + k``."""
    central, edge = [([0.0, 1.0, 0.0], [1.0]), ([-0.5, 0.0, 0.5], [-1.5, 2.0, -0.5]),
                     ([1.0, -2.0, 1.0], [2.0, -5.0, 4.0, -1.0])][order]
    P = {k: np.zeros(m) for k in range(-3, 4)}
    for k, c in zip((-1, 0, 1), central):
        P[k][1:-1] = c / d ** order
    for k, c in enumerate(edge):  # a first difference changes sign under reflection
        P[k][0], P[-k][-1] = c / d ** order, (-1) ** order * c / d ** order
    i = np.arange(m)[s]  # column i + k is in s iff it lies in [i[0], i[-1]]
    return {k: c for k, c in ((k, p[s] * ((i[0] <= i + k) & (i + k <= i[-1])))
                              for k, p in P.items()) if c.any()}


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
    the start and each step.

    No step may end at or above ``r0``, the residual of ``initial``.  The
    solve takes Newton steps (pseudo-time ``inf``) from ``initial``; at the
    first one that does, a singular one or ``MAX_ITERATIONS`` of them, it
    restarts PTC from ``initial`` at ``DTAU0``, so a failed attempt costs
    its steps only (with chi = 0.1 the 121 x 121 REDIM-2D's attempt ends at
    its sixth step, where the residual goes from 8.01 to 56 against a
    start of 8.41).  The history then holds the attempt, its last step the
    rejected one, and the PTC solve's history after it, from the same
    start.  Below ``r0`` a residual may rise: the PTC step then shrinks
    by switched evolution relaxation, never below ``DTAU0``.  On the PTC
    path a step that ends at or above ``r0``, a singular step or
    ``MAX_ITERATIONS`` steps raise ConvergenceError carrying the residual;
    a non-finite residual raises DivergenceError.
    """
    history = []
    for dtau_start in (np.inf, DTAU0):  # Newton steps, then PTC from the same start
        A = np.array(initial, dtype=float)
        R, jac = rate(A)
        tau, dtau, residual = 0.0, dtau_start, float(np.abs(R).max())
        history.append((tau, residual))
        if not np.isfinite(residual):
            raise DivergenceError(f"non-finite residual at pseudo-time {tau:g}")
        r0 = residual
        for step in range(MAX_ITERATIONS + 1):
            if residual < tol:
                return A, history
            if step == MAX_ITERATIONS:
                failure = ConvergenceError(f"not stationary after {step} steps",
                                           residual=residual)
                break
            bw, ab = jac()
            ab *= -1.0
            ab[2 * bw] += 1.0 / dtau
            _, _, d, info = sla.lapack.sgbsv(bw, bw, ab, R.ravel().astype(np.float32),
                                             overwrite_ab=True)
            if info > 0:
                failure = ConvergenceError(f"singular step matrix at pseudo-time {tau:g}",
                                           residual=residual)
                break
            A[free] += d.reshape(A[free].shape)
            R, jac = rate(A)
            tau += dtau
            residual = float(np.abs(R).max())
            history.append((tau, residual))
            if not residual < r0:  # also a non-finite residual
                failure = ConvergenceError(f"not stationary: step {step + 1} ended at "
                                           f"{residual:.3g}, not below its start's "
                                           f"{r0:.3g}", residual=residual)
                break
            # dtau * |F_old| / |F_new| at every step telescopes to this
            dtau = dtau_start * r0 / residual if residual > 0.0 else np.inf
    if not np.isfinite(failure.residual):
        raise DivergenceError(f"non-finite residual at pseudo-time {tau:g}")
    raise failure


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
    ``g = P phi(z)``, steps by ``solve(P J(z) B, -g)`` scaled by the first of
    the lengths ``2**-k``, ``k = 0 .. HALVINGS - 1``, that strictly decreases
    its residual.  The full step of every row is tried in one ``phi`` call;
    the rows it does not improve try the shorter lengths in blocks of
    ``BLOCK`` per call, so every length of a block is evaluated, also those
    past the one a row takes, and ``phi`` must accept them (an
    :func:`~fastslow.core.eval_source` that raises on a non-finite value
    raises for any of them).  A row freezes when it converges, when no
    length decreases its residual or when its reduced Jacobian is
    singular.  Only rows still iterating are evaluated, and each row takes
    the step it would take alone.  An iteration's work is proportional to
    its live rows, kept as an ascending index array; the blocks of lengths
    are built once, at import, and a row's offset is broadcast over them,
    so a one-row solve costs its kernel calls and a few dozen small array
    operations per iteration.  Returns ``(z, converged, singular,
    residual)``, one entry per row: the last iterate, whether its residual
    is below ``tol``, whether it stopped on a singular Jacobian, and
    ``|g|_inf`` there.
    """
    m, k = offset.shape[0], B.shape[1]
    PT, BT = P.T, B.T
    U = np.zeros((m, k))
    if U0 is not None:
        U[:] = U0
    z = U @ BT + offset
    n = z.shape[1]
    g = phi(z) @ PT
    gnorm = np.abs(g).max(axis=1)
    singular = np.zeros(m, dtype=bool)
    rows = np.arange(m)  # the rows still iterating, ascending
    for _ in range(max_iter):
        rows = rows[~(gnorm[rows] < tol)]
        if rows.size == 0:
            break
        dU, ok = _solve_rows(P @ jacobian(z[rows]) @ B, -g[rows])
        if not ok.all():
            singular[rows[~ok]] = True
            rows, dU = rows[ok], dU[ok]
        r = rows  # the rows no length has moved yet
        for steps in _STEP_BLOCKS:
            U_new = (U[r] + steps * dU).reshape(-1, k)
            z_new = ((U_new @ BT).reshape(len(steps), -1, n) + offset[r]).reshape(-1, n)
            g_new = phi(z_new) @ PT
            gnorm_new = np.abs(g_new).max(axis=1)
            down = gnorm_new.reshape(len(steps), -1) < gnorm[r]
            hit = down.any(axis=0)
            # the first length that decreases the residual, as a row of the block
            pick = down.argmax(axis=0)[hit] * len(r) + np.flatnonzero(hit)
            took = r[hit]
            U[took], z[took], g[took], gnorm[took] = (
                U_new[pick], z_new[pick], g_new[pick], gnorm_new[pick])
            if hit.all():
                break
            r, dU = r[~hit], dU[~hit]
        else:  # no length decreased the residual of the rows in r
            rows = np.delete(rows, np.searchsorted(rows, r))
    return z, gnorm < tol, singular, gnorm
