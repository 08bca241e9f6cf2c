"""Nonlinear steady-state solvers: pseudo-time relaxations dx/dtau = F(x)
and the damped Newton of the equilibrium and the slow-manifold fibres.

The stationary profile and the 1-D and 2-D manifolds are all reached by one
pseudo-transient continuation (PTC; Kelley & Keyes, SIAM J. Numer. Anal. 35,
1998): implicit Euler steps (I / dtau - J) d = F(x), x <- x + d, with dtau
grown by switched evolution relaxation, dtau <- dtau * |F_old| / |F_new|
(Mulder & van Leer, JCP 59, 1985).  Far from the solution this follows the
pseudo-time path; as the residual falls the step becomes Newton's.  Its
Jacobian is exact, a sum of Kronecker terms of a 1-D matrix along each grid
axis, written straight into the LAPACK band (:func:`band_assembler`): a
diagonal of dense node blocks through one strided view of the band, a
weighted stencil one band row per pair of diagonals, and the rows that the
band LU keeps for its fill-in left to it.  The step is solved as
(J - I / dtau) d = -F(x), so the band goes to LAPACK as assembled, its
diagonal shifted; a half-bandwidth from 56 to 64 is stored at 65, where
LAPACK's band LU runs blocked.  A solve takes Newton steps from
its start while each lowers the residual (the contraction monitor of
Deuflhard's NLEQ codes), and restarts the pseudo-time path from the same
start at the first that does not, so a failed attempt costs its steps only.
On the pseudo-time path no step may end at or above the start's residual;
such a step ends the solve.  Below that bound the residual may rise and
fall again, as a PTC residual may before its Newton phase; switched
evolution relaxation then shortens the step, but never below the first.

- The stationary profile and the REDIM-1D converge in Newton steps from
  their straight lines: 4 at N = 51 to 25601 where PTC takes 11 (N = 51
  to 1601), and 6 at M = 101 where PTC takes 10.
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
from numpy.lib.stride_tricks import as_strided

from . import _lapack
from .errors import ContractViolationError, ConvergenceError, DivergenceError

__all__ = ["band_assembler", "damped_newton", "difference_matrix", "relax_free"]

DTAU0 = 0.1           # first pseudo-time step, in the model's time units
MAX_ITERATIONS = 200
# step lengths 1, 1/2, ..., 2**-16 per damped-Newton line search, the full
# step in one call and the 16 shorter ones in one more: a row that no
# length improves stops there, unconverged, as damped Newton codes stop at
# a minimum damping factor (lambda_min = 1e-4 in Deuflhard's NLEQ codes; 1e-8
# for extremely nonlinear problems).  2**-16 is the shortest floor that moves
# no converged mesh row and no equilibrium outcome measured: 2**-12 changes 2
# of 600 seeded equilibrium starts, 2**-8 changes 12.
HALVINGS = 17
# 2**-1 .. 2**-16 as a (lengths, 1, 1) column that scales a stack of steps
_STEPS = np.ldexp(1.0, -np.arange(1, HALVINGS))[:, None, None]
# dgbtrf factors in blocks of 32 columns only when KU > 64 and KL >= 32:
# reference LAPACK's ilaenv gives NB = 1 for xGBTRF at KU <= 64 and 32 above,
# so a band at most 64 wide takes the unblocked dgbtf2.  dgbsv on the last
# Newton matrix of an M1 x M2 REDIM-2D (hold "theta1", half-bandwidth M2 + 2),
# in ms at its own width / widened to 65 (medians, 2-vCPU VM, one BLAS thread):
# M1 = 61: 52: 2.77 / 3.35, 54: 3.19 / 3.40, 55: 3.49 / 3.50, 56: 3.77 / 3.60,
# 57: 4.48 / 3.73, 60: 4.94 / 4.12, 63: 5.98 / 4.37, 64: 5.56 / 4.47;
# M1 = 31: 33: 0.51 / 0.86.  So a half-bandwidth from BLOCKED_FROM to 64 is
# widened to BLOCKED.
BLOCKED, BLOCKED_FROM = 65, 56


def _check_tol(tol):
    if not 0.0 < tol < np.inf:
        raise ContractViolationError(f"tol must be finite and positive, got {tol!r}")


def difference_matrix(m, d, order, s=np.s_[:]):
    """The identity (``order`` 0), first or second difference (1, 2) on ``m``
    nodes of spacing ``d``, central with one-sided second-order end rows
    (reaching 3 nodes in), in the rows and columns of the contiguous slice
    ``s``: diagonals ``{k: c}``, ``c[i]`` in row ``i`` and column ``i + k``."""
    central, edge = [([0.0, 1.0, 0.0], [1.0]), ([-0.5, 0.0, 0.5], [-1.5, 2.0, -0.5]),
                     ([1.0, -2.0, 1.0], [2.0, -5.0, 4.0, -1.0])][order]
    P = np.zeros((7, m))  # diagonals -3..3
    P[2:5, 1:-1] = np.array(central)[:, None] / d ** order
    for k, c in enumerate(edge):  # a first difference changes sign under reflection
        P[3 + k, 0], P[3 - k, -1] = c / d ** order, (-1) ** order * c / d ** order
    i = np.arange(m)[s]  # column i + k is in s iff it lies in [i[0], i[-1]]
    # diagonals -1..1, and the reach of each end row that s holds
    ks = np.arange(-3 if i[-1] == m - 1 else -1, (3 if i[0] == 0 else 1) + 1)
    P = P[ks + 3][:, s] * ((i[0] <= i + ks[:, None]) & (i + ks[:, None] <= i[-1]))
    return {int(k): c for k, c in zip(ks, P) if c.any()}


def band_assembler(shape, terms):
    """``assemble(weights)``: a Jacobian in the unknowns of ``shape`` ``(n0, n1)``
    (C order) as ``(bw, ab)``, the band in LAPACK gbsv storage, ``J[r, c]`` at
    ``ab[2 * bw + r - c, c]`` (``ab`` is reused).  Term ``(P, W)`` and weight
    ``w`` add ``P[a, a'] W_a[b, b']`` at row ``(a, b)``, column ``(a', b')``:
    ``P``, ``W`` as diagonals, ``W_a = diag(w[a]) W``, or ``w[a]`` if W is None.

    ``ab`` is Fortran-ordered, so ``J[r, c]`` sits at flat offset
    ``2 bw + r + c (ld - 1)``, ``ld = 3 bw + 1``: affine in the block row ``a``
    and the in-block pair ``(b, b')``.  Diagonal ``k`` of a dense-block term
    (W None) is thus one strided ``(a, b, b')`` view of the band, written by
    one add; a weighted-stencil term adds one band row per ``(k, l)``.  Each
    entry sums its terms in their order.  Only rows ``bw:`` are written: gbsv
    keeps rows ``:bw`` for its fill-in, and the caller need not set them.

    ``bw`` is the half-bandwidth of the terms, but one from ``BLOCKED_FROM``
    to 64 is widened to ``BLOCKED`` with zero diagonals, where the LU that
    ``dgbsv`` runs is blocked; the rule keys on ``bw`` alone."""
    n0, n1 = shape
    n, dense = n0 * n1, range(1 - n1, n1)
    bw = max(abs(k * n1 + l) for P, W in terms for k in P for l in (dense if W is None else W))
    if BLOCKED_FROM <= bw < BLOCKED:  # zero diagonals buy the blocked LU
        bw = BLOCKED
    ld = 3 * bw + 1
    ab = np.empty((ld, n), order="F")
    flat, e = ab.reshape(-1, order="F"), ab.itemsize  # a view: ab is F-contiguous

    def blocks(k):  # rows a of P's diagonal k that have a column a + k, as (a, b, b')
        a = np.s_[max(-k, 0):n0 - max(k, 0)]
        start = 2 * bw + (a.start * ld + k * (ld - 1)) * n1
        return a, as_strided(flat[start:], (a.stop - a.start, n1, n1),
                             (n1 * ld * e, e, (ld - 1) * e))

    views = [{k: blocks(k) for k in P if abs(k) < n0} if W is None else None
             for P, W in terms]

    def assemble(weights):
        ab[bw:] = 0.0
        for (P, W), w, view in zip(terms, weights, views):
            if view is not None:  # the dense blocks of diagonal k, all (b, b') at once
                for k, (a, v) in view.items():
                    v += P[k][a, None, None] * w[a]
                continue
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

    Each step solves ``(J - I / dtau) d = -R`` by ``dgbsv``: the negated
    form of ``(I / dtau - J) d = R``, whose ``d`` it gives bit for bit
    (negation is exact, and partial pivoting compares magnitudes), with
    only the band's diagonal and the n-vector ``R`` touched before the LU.

    The solve takes Newton steps (pseudo-time ``inf``) from ``initial``; at
    the first one that does not end below the residual it started from, a
    singular one or ``MAX_ITERATIONS`` of them, it restarts PTC from
    ``initial`` at ``DTAU0``, so a failed attempt costs its steps only (with
    chi = 0.1 the 121 x 121 REDIM-2D's attempt ends at its fifth step, where
    the residual rises from 0.06 to 0.28).  The history holds the attempt,
    its last step the rejected one, and the PTC solve's history after it,
    from the same start.  No PTC step may end at or above ``r0``, the
    residual of ``initial``; below it a residual may rise: the step then
    shrinks by switched evolution relaxation, never below ``DTAU0``.  On the
    PTC path a step that ends at or above ``r0``, a singular step or
    ``MAX_ITERATIONS`` steps raise ConvergenceError carrying the residual; a
    non-finite residual raises DivergenceError; a ``tol`` that is not finite
    and positive raises ContractViolationError before any step.  The rates,
    the band and the right-hand side are evaluated under one ``np.errstate``
    per solve that ignores overflow and invalid values: a rate, band or
    right-hand side that overflows does so silently, and the step it spoils
    ends in one of these errors, not in a numpy warning.
    """
    _check_tol(tol)
    # rates, band and right-hand side alike: left to the residual checks
    with np.errstate(over="ignore", invalid="ignore"):
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
                ab[2 * bw] -= 1.0 / dtau  # (J - I / dtau) d = -R
                _, _, d, info = _lapack.dgbsv(bw, bw, ab, -R.ravel(), overwrite_ab=True)
                if info > 0:
                    failure = ConvergenceError(f"singular step matrix at pseudo-time {tau:g}",
                                               residual=residual)
                    break
                A[free] += d.reshape(A[free].shape)
                R, jac = rate(A)
                tau, last = tau + dtau, residual
                residual = float(np.abs(R).max())
                history.append((tau, residual))
                if not residual < (last if dtau_start == np.inf else r0):  # also non-finite
                    failure = ConvergenceError(f"not stationary: step {step + 1} ended at "
                                               f"{residual:.3g}, not below its start's "
                                               f"{r0:.3g}", residual=residual)
                    break
                # dtau * |F_old| / |F_new| at every step telescopes to this
                dtau = dtau_start * r0 / residual if residual > 0.0 else np.inf
    if not np.isfinite(failure.residual):
        raise DivergenceError(f"non-finite residual at pseudo-time {tau:g}")
    raise failure


def _solve(A, b):
    """``x`` with ``A[i] x[i] = b[i]`` for a stack, as ``np.linalg.solve``
    gives it: bit for bit, with no floating-point warning, and raising
    LinAlgError when one matrix is singular.

    A stack of 1 x 1 matrices none of which is zero is divided, ``b / A``:
    LAPACK's LU of a 1 x 1 matrix is that one division, and a zero its only
    singular pivot.  The division skips the solver's dispatch: a 3,600-row
    stack in about 8 us instead of 290 us, one row in about 2.5 us instead
    of 5 (2-vCPU VM).  A stack holding a zero goes to ``np.linalg.solve``,
    which raises.
    """
    if A.shape[-1] == 1 and np.count_nonzero(A) == A.size:
        with np.errstate(over="ignore", invalid="ignore"):  # as np.linalg.solve
            return b / A[..., 0]
    return np.linalg.solve(A, b[..., None])[..., 0]


def _solve_rows(A, b):
    """Solve ``A[i] x[i] = b[i]`` for a stack; returns ``(x, ok)``.

    A stack holding one matrix that LAPACK finds singular makes the stacked
    solve (:func:`_solve`) fail as a whole, so such a stack is bisected
    until each singular matrix stands alone; its row of ``x`` is NaN and
    its ``ok`` False.
    """
    try:
        return _solve(A, b), np.ones(len(b), dtype=bool)
    except np.linalg.LinAlgError:
        if len(b) == 1:
            return np.full_like(b, np.nan), np.zeros(1, dtype=bool)
    h = len(b) // 2
    x1, ok1 = _solve_rows(A[:h], b[:h])
    x2, ok2 = _solve_rows(A[h:], b[h:])
    return np.concatenate([x1, x2]), np.concatenate([ok1, ok2])


def _full_steps(phi, jacobian, P, B, offset, U, z, g, tol, max_iter):
    """The full steps of :func:`damped_newton`'s one row from ``(U, z, g)``,
    in the stacked loop's operations and order, on the ``(1, .)`` arrays:
    its residual is compared as a Python float, and no row index is kept.

    A 1 x 1 reduced Jacobian is divided on Python floats: the same IEEE
    division as :func:`_solve`'s, a zero pivot its only singular case, and
    no numpy warning to silence.  Larger ones go through :func:`_solve`.
    The row stops at convergence, at a singular reduced Jacobian, or at a
    full step that does not lower its residual.  Returns ``(U, z, g,
    gnorm, singular, trial, left)``: the iterate, its residual as a
    ``(1,)`` array, whether the Jacobian was singular, ``trial``, None or
    that rejected step as ``(dU, U_new, z_new, g_new, gnorm_new)`` arrays,
    and the iterations left to the stacked loop, the first of which tries
    the trial's shorter lengths (0 unless there is a trial)."""
    BT, PT = B.T, P.T
    gnorm, singular, trial, left = float(np.abs(g).max()), False, None, 0
    for it in range(max_iter):
        if gnorm < tol:
            break
        J = P @ jacobian(z) @ B
        if J.size == 1:
            pivot = J.item()
            if pivot == 0.0:
                singular = True
                break
            dU = -g.item() / pivot
        else:
            try:
                dU = _solve(J, -g)
            except np.linalg.LinAlgError:
                singular = True
                break
        U_new = U + dU
        z_new = U_new @ BT + offset
        g_new = phi(z_new) @ PT
        gnorm_new = float(np.abs(g_new).max())
        if not gnorm_new < gnorm:
            trial = (np.reshape(dU, (1, -1)), U_new, z_new, g_new, np.array([gnorm_new]))
            left = max_iter - it
            break
        U, z, g, gnorm = U_new, z_new, g_new, gnorm_new
    return U, z, g, np.array([gnorm]), singular, trial, left


def damped_newton(phi, jacobian, P, B, offset, U0, tol, max_iter):
    """Damped Newton on ``P phi(U B^T + offset) = 0`` for a stack of rows.

    ``phi`` and ``jacobian`` map ``(m, n)`` states to ``(m, n)`` values and
    ``(m, n, n)`` Jacobians; ``offset`` is ``(m, n)``, one problem per row,
    and ``U0`` is ``None`` (start at zero) or broadcasts to ``(m, B.shape[1])``.
    Each row runs its own iteration: it stops once ``|g|_inf < tol``, with
    ``g = P phi(z)``, steps by ``solve(P J(z) B, -g)`` scaled by the first of
    the lengths ``2**-k``, ``k = 0 .. HALVINGS - 1``, that strictly decreases
    its residual.  The full step ``U + dU`` of every row is tried in one
    ``phi`` call; where it improves every live row, those rows are updated
    in place.  The rows it does not improve try all the shorter lengths in
    one more call, so every length is evaluated, also those past the one a
    row takes, and ``phi`` must accept them (an
    :func:`~fastslow.core.eval_source` that raises on a non-finite value
    raises for any of them).  A row freezes when it converges, when no
    length down to ``2**-(HALVINGS - 1)`` decreases its residual (the
    damping floor) or when its reduced Jacobian is singular.  Only rows
    still iterating are evaluated.  An iteration's work is proportional to
    its live rows, kept as an ascending index array, or read and written as
    whole arrays while every row iterates; the stack is solved in one call
    (:func:`_solve`: one division where ``B`` has one column, as for the
    enzyme model's one fast rate, else ``np.linalg.solve``), bisected
    (:func:`_solve_rows`) only when a matrix is singular, and the column
    of lengths is built once, at import.  An iteration thus makes at most
    two ``phi`` calls.

    One row (``m == 1``: every fibre anchor of a fast-time measurement, and
    the equilibrium) takes its full steps in :func:`_full_steps`, on its
    ``(1, .)`` arrays with its residual a Python float, no row indices and,
    with one column in ``B``, the division on Python floats: a step then
    costs its kernel calls and a few small array products.  At the first
    full step that does not lower the residual it hands the stacked loop
    that evaluated step and the iterations left, and the line search goes
    on there; at a singular reduced Jacobian it stops.  The row thus makes
    the same kernel calls, on the same states, as the stacked loop makes
    for it.  A row alone is not bit for bit the same row in a larger stack:
    numpy forms ``phi(z) @ P.T`` for one row as a dot product and for
    several as a matrix-vector product, whose sums may round apart.

    Returns ``(z, converged, singular, residual)``, one entry per row: the
    last iterate, whether its residual is below ``tol``, whether it stopped
    on a singular Jacobian, and ``|g|_inf`` there.  A ``tol`` that is not
    finite and positive raises ContractViolationError before any iteration.
    """
    _check_tol(tol)
    m, k = offset.shape[0], B.shape[1]
    PT, BT = P.T, B.T
    U = np.zeros((m, k))
    if U0 is not None:
        U[:] = U0
    z = U @ BT + offset
    n = z.shape[1]
    g = phi(z) @ PT
    singular = np.zeros(m, dtype=bool)
    trial = None
    if m == 1:
        U, z, g, gnorm, singular[0], trial, max_iter = _full_steps(
            phi, jacobian, P, B, offset, U, z, g, tol, max_iter)
    else:
        gnorm = np.abs(g).max(axis=1)
    rows = np.arange(m)  # the rows still iterating, ascending
    for _ in range(max_iter):
        if trial is None:
            rows = rows[~(gnorm[rows] < tol)]
            if rows.size == 0:
                break
            live = np.s_[:] if rows.size == m else rows  # every row iterates: no gathers
            J, b = P @ jacobian(z[live]) @ B, -g[live]
            try:
                dU = _solve(J, b)
            except np.linalg.LinAlgError:
                dU, ok = _solve_rows(J, b)
                singular[rows[~ok]] = True
                rows, dU = rows[ok], dU[ok]
                if rows.size == 0:
                    break
                live = rows
            U_new = U[live] + dU  # the full step
            z_new = U_new @ BT + offset[live]
            g_new = phi(z_new) @ PT
            gnorm_new = np.abs(g_new).max(axis=1)
        else:  # the one row's full step, which did not lower its residual
            (dU, U_new, z_new, g_new, gnorm_new), trial, live = trial, None, np.s_[:]
        down = gnorm_new < gnorm[live]
        if down.all():
            U[live], z[live], g[live], gnorm[live] = U_new, z_new, g_new, gnorm_new
            continue
        took = rows[down]
        U[took], z[took], g[took], gnorm[took] = (
            U_new[down], z_new[down], g_new[down], gnorm_new[down])
        r, dU = rows[~down], dU[~down]  # the rows the full step does not improve
        U_new = (U[r] + _STEPS * dU).reshape(-1, k)
        z_new = ((U_new @ BT).reshape(len(_STEPS), -1, n) + offset[r]).reshape(-1, n)
        g_new = phi(z_new) @ PT
        gnorm_new = np.abs(g_new).max(axis=1)
        down = gnorm_new.reshape(len(_STEPS), -1) < gnorm[r]
        hit = down.any(axis=0)
        # the first length that decreases the residual, as a row of the call
        pick = down.argmax(axis=0)[hit] * len(r) + np.flatnonzero(hit)
        took = r[hit]
        U[took], z[took], g[took], gnorm[took] = (
            U_new[pick], z_new[pick], g_new[pick], gnorm_new[pick])
        # no length decreased the residual of the rows in r[~hit]: the damping floor
        rows = np.delete(rows, np.searchsorted(rows, r[~hit]))
    return z, gnorm < tol, singular, gnorm
