"""Output checks, recomputed by the benchmark through public functions.

Every residual here is computed from the returned (or written) result with
the package's per-node oracles (``eval_full_rhs``, ``redim_rhs_1d``,
``local_diffusion_2d``, ``decomposed_rhs``), not read back from the solver,
so a faster solver cannot pass by stopping earlier or by redefining its own
residual.  Thresholds are the acceptance suite's.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np

from fastslow import core, gql, redim

COINCIDENCE_TOL = 1e-2   # REDIM-1D vs stationary profile (acceptance 6)
CONTAINMENT_TOL = 2e-2   # stationary profile vs REDIM-2D (acceptance 7)
GRID_TOL = 1e-3          # N = 101 vs N = 201 profiles (acceptance 5)
DECOUPLING_TOL = 1e-8    # off-diagonal blocks of the split surrogate


def sha256(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def profile_residual(model, profile) -> float:
    """Sup of the full interior RHS, node by node through ``eval_full_rhs``."""
    return max(float(np.abs(core.eval_full_rhs(model, profile, i)).max())
               for i in range(1, profile.grid.node_count - 1))


def grid_difference(coarse, fine) -> float:
    """Sup difference of two profiles at the coarse grid's nodes (fine = 2x)."""
    return float(np.abs(fine.states[::2] - coarse.states).max())


def redim1d_residual(model, manifold) -> float:
    return max(float(np.abs(redim.redim_rhs_1d(manifold, model, j)).max())
               for j in range(1, manifold.theta_grid.shape[0] - 1))


def redim2d_residual(model, manifold) -> float:
    """Sup of the graph-form Z rate over every node the solver relaxes.

    The pipeline's REDIM-2D holds only the theta1-extreme rows; the
    theta2-extreme edges relax too, so they are checked as well.  Interior
    nodes take their local diffusion from ``local_diffusion_2d``; edge nodes
    use second-order one-sided theta2 differences, as the solver does.
    Checking the interior alone would pass edges that were pinned or left
    unconverged, since the interior is stationary for any edge values taken
    as Dirichlet data.
    """
    t1, t2, Zv = manifold.theta1_grid, manifold.theta2_grid, manifold.Z_values
    d1, d2 = manifold.spacing
    worst = 0.0
    for i in range(1, t1.shape[0] - 1):
        z = np.stack([np.full(t2.shape[0] - 2, t1[i]), t2[1:-1], Zv[i, 1:-1]], axis=1)
        phi = model.source(z)
        for j in range(1, t2.shape[0] - 1):
            z1 = (Zv[i + 1, j] - Zv[i - 1, j]) / (2.0 * d1)
            z2 = (Zv[i, j + 1] - Zv[i, j - 1]) / (2.0 * d2)
            p = phi[j - 1]
            rate = p[2] + redim.local_diffusion_2d(manifold, model, i, j) - z1 * p[0] - z2 * p[1]
            worst = max(worst, abs(float(rate)))
    return max(worst, _theta2_edge_residual(model, manifold, 0),
               _theta2_edge_residual(model, manifold, -1))


def _one_sided(A, d, edge):
    """First and second derivatives along axis 1 at column ``edge`` (0 or
    -1), both second-order one-sided."""
    s = 1 if edge == 0 else -1
    c0, c1, c2, c3 = (A[:, edge + k * s] for k in range(4))
    return s * (-3.0 * c0 + 4.0 * c1 - c2) / (2.0 * d), (2.0 * c0 - 5.0 * c1 + 4.0 * c2 - c3) / (d * d)


def _theta2_edge_residual(model, manifold, edge) -> float:
    """Sup of the Z rate on the theta2 edge ``edge`` (0 or -1), corner rows excluded."""
    t1, t2, Zv = manifold.theta1_grid, manifold.theta2_grid, manifold.Z_values
    d1, d2 = manifold.spacing
    inner = Zv[1:-1]
    Z1_all = (Zv[2:] - Zv[:-2]) / (2.0 * d1)            # central theta1 slope, every column
    z1 = Z1_all[:, edge]
    z11 = (Zv[:-2, edge] - 2.0 * inner[:, edge] + Zv[2:, edge]) / (d1 * d1)
    z2, z22 = _one_sided(inner, d2, edge)
    z12, _ = _one_sided(Z1_all, d2, edge)
    c1, c2 = manifold.chi1[1:-1, edge], manifold.chi2[1:-1, edge]
    delta = float(model.diffusion[-1])
    phi = model.source(np.stack([t1[1:-1], np.full(t1.shape[0] - 2, t2[edge]),
                                 inner[:, edge]], axis=1))
    rate = (phi[:, 2] + delta * (c1 * c1 * z11 + 2.0 * c1 * c2 * z12 + c2 * c2 * z22)
            - z1 * phi[:, 0] - z2 * phi[:, 1])
    return float(np.abs(rate).max())


def coincidence_error(profile_states, manifold) -> float:
    """Sup distance in (Y, Z) between the profile and the REDIM-1D at equal X."""
    X = profile_states[:, 0]
    Ym = np.interp(X, manifold.theta_grid, manifold.states[:, 1])
    Zm = np.interp(X, manifold.theta_grid, manifold.states[:, 2])
    return float(np.sqrt((profile_states[:, 1] - Ym) ** 2
                         + (profile_states[:, 2] - Zm) ** 2).max())


def containment_error(profile_states, manifold) -> float:
    """Sup |Z| distance between the profile and the REDIM-2D at equal (X, Y)."""
    from scipy.interpolate import RegularGridInterpolator
    itp = RegularGridInterpolator((manifold.theta1_grid, manifold.theta2_grid),
                                  manifold.Z_values)
    lo = [manifold.theta1_grid[0], manifold.theta2_grid[0]]
    hi = [manifold.theta1_grid[-1], manifold.theta2_grid[-1]]
    pts = np.clip(profile_states[:, :2], lo, hi)
    return float(np.abs(itp(pts) - profile_states[:, 2]).max())


def mesh_residual(dec, model, states) -> float:
    """Sup fast residual ``Zt_f phi`` over the given (converged) mesh states."""
    worst = 0.0
    for z in states:
        dU, _ = gql.decomposed_rhs(dec, model, z)
        worst = max(worst, float(np.abs(dU).max()))
    return worst


def split_defects(dec) -> tuple:
    """(gap ratio, worst off-diagonal block entry) of a fast/slow split."""
    mags = np.abs(dec.eigenvalues)
    gap = float(mags[dec.split_index] / mags[dec.split_index - 1])
    off = max(float(np.abs(dec.Zt_f @ dec.T @ dec.Z_s).max()),
              float(np.abs(dec.Zt_s @ dec.T @ dec.Z_f).max()))
    return gap, off


# ---------------------------------------------------------------------------
# artifact readers for the study workload
# ---------------------------------------------------------------------------

def read_rows(path) -> np.ndarray:
    """Numeric rows of a pipeline CSV (provenance and header lines skipped)."""
    return np.atleast_2d(np.loadtxt(path, delimiter=",", skiprows=2))


def read_decomposition(path) -> gql.GqlDecomposition:
    with open(path, "r", encoding="utf-8") as fh:
        rep = json.load(fh)
    n = int(rep["n_f"]) + int(rep["n_s"])
    return gql.GqlDecomposition(
        T=np.reshape(rep["T"], (n, n)),
        eigenvalues=np.array([complex(e["re"], e["im"]) for e in rep["eigenvalues"]]),
        split_index=int(rep["split_index"]),
        n_f=int(rep["n_f"]),
        n_s=int(rep["n_s"]),
        Z=np.reshape(rep["Z"], (n, n)),
        Z_tilde=np.reshape(rep["Z_tilde"], (n, n)),
        epsilon=float(rep["epsilon"]),
    )


def read_manifold1d(path, grad) -> redim.Manifold1D:
    rows = read_rows(path)
    theta = rows[:, 0]
    return redim.Manifold1D(theta_grid=theta, states=rows[:, 1:],
                            chi=np.asarray(grad.chi1(theta), dtype=float))


def read_manifold2d(path, grad) -> redim.Manifold2D:
    rows = read_rows(path)
    t1 = np.unique(rows[:, 0])
    t2 = np.unique(rows[:, 1])
    Zv = rows[:, 4].reshape(t1.shape[0], t2.shape[0])
    C1 = np.repeat(np.asarray(grad.chi1(t1), dtype=float)[:, None], t2.shape[0], axis=1)
    C2 = np.repeat(np.asarray(grad.chi2(t1), dtype=float)[:, None], t2.shape[0], axis=1)
    return redim.Manifold2D(theta1_grid=t1, theta2_grid=t2, Z_values=Zv, chi1=C1, chi2=C2)
