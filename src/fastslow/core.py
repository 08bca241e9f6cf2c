"""Domain types and right-hand-side assembly for reaction-diffusion systems.

A state vector is a plain 1-D ``numpy`` array of species values.  All model
callables are vectorized: they accept arrays of shape ``(..., n)`` and act on
the trailing axis, which keeps the method-of-lines solvers free of per-node
Python loops.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import BoundaryNodeError, ContractViolationError, DivergenceError

__all__ = [
    "Grid1D",
    "SpatialProfile",
    "ReactionDiffusionModel",
    "as_state",
    "eval_source",
    "laplacian",
    "eval_full_rhs",
    "write_rows_csv",
    "write_profile_csv",
    "read_profile_csv",
]

# double round-trips losslessly with 17 significant digits
FLOAT_FMT = "%.17g"
CSV_BLOCK_ROWS = 512


def as_state(values, dimension: Optional[int] = None) -> np.ndarray:
    """Coerce ``values`` to a read-only, finite float state vector of checked shape."""
    z = np.array(values, dtype=float, copy=True)
    if z.ndim != 1:
        raise ContractViolationError(f"state vector must be 1-D, got shape {z.shape}")
    if dimension is not None and z.shape[0] != dimension:
        raise ContractViolationError(
            f"state vector has length {z.shape[0]}, expected {dimension}"
        )
    if not np.isfinite(z).all():
        raise ContractViolationError(f"state vector must be finite, got {z.tolist()}")
    z.setflags(write=False)
    return z


@dataclass(frozen=True)
class Grid1D:
    """Uniform grid on [0, 1] with ``node_count`` nodes."""

    node_count: int

    def __post_init__(self):
        if self.node_count < 3:
            raise ContractViolationError("grid needs at least 3 nodes")

    @property
    def spacing(self) -> float:
        return 1.0 / (self.node_count - 1)

    @property
    def nodes(self) -> np.ndarray:
        x = np.linspace(0.0, 1.0, self.node_count)
        x.setflags(write=False)
        return x


@dataclass(frozen=True)
class SpatialProfile:
    """States on a Grid1D, one row per node; shape (N, n)."""

    grid: Grid1D
    states: np.ndarray

    def __post_init__(self):
        states = np.array(self.states, dtype=float, copy=True)
        if states.ndim != 2 or states.shape[0] != self.grid.node_count:
            raise ContractViolationError(
                f"states shape {states.shape} does not match grid with "
                f"{self.grid.node_count} nodes"
            )
        states.setflags(write=False)
        object.__setattr__(self, "states", states)


@dataclass(frozen=True)
class ReactionDiffusionModel:
    """A reaction-diffusion model: source term, diffusion coefficients, metadata.

    ``source`` maps ``(..., n) -> (..., n)``.  ``jac`` (optional) maps
    ``(..., n) -> (..., n, n)``; when absent a central finite-difference
    Jacobian is used.  ``diffusion`` holds the diagonal diffusion
    coefficients, one per species.
    """

    name: str
    species: tuple
    source: Callable[[np.ndarray], np.ndarray]
    diffusion: np.ndarray
    jac: Optional[Callable[[np.ndarray], np.ndarray]] = None
    working_box: Optional[tuple] = None  # (lo, hi) arrays bounding the accessed region
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        d = np.array(self.diffusion, dtype=float, copy=True)
        if d.ndim != 1:
            raise ContractViolationError("diffusion must be a 1-D coefficient vector")
        if not np.all((0.0 <= d) & (d < np.inf)):  # NaN fails both
            raise ContractViolationError("diffusion coefficients must be finite and >= 0")
        d.setflags(write=False)
        object.__setattr__(self, "diffusion", d)

    @property
    def dimension(self) -> int:
        return self.diffusion.shape[0]

    def jacobian(self, z: np.ndarray) -> np.ndarray:
        """Jacobian of the source at ``z``: analytic if provided, else central FD."""
        if self.jac is not None:
            return np.asarray(self.jac(np.asarray(z, dtype=float)))
        return fd_jacobian(self.source, z)


def fd_jacobian(f: Callable, z, step: float = 1e-7) -> np.ndarray:
    """Central finite-difference Jacobian of a vectorized map at one state."""
    z = np.asarray(z, dtype=float)
    n = z.shape[-1]
    cols = []
    for k in range(n):
        e = np.zeros(n)
        e[k] = step
        cols.append((f(z + e) - f(z - e)) / (2.0 * step))
    return np.stack(cols, axis=-1)


def eval_source(model: ReactionDiffusionModel, z) -> np.ndarray:
    """Evaluate the reaction source at one state; pure and deterministic.

    A state of another length raises :class:`ContractViolationError`, a
    non-finite value of the source :class:`DivergenceError`: a source that
    overflows is a numerical failure, not a bad argument."""
    z = np.asarray(z, dtype=float)
    if z.shape[-1] != model.dimension:
        raise ContractViolationError(
            f"state length {z.shape[-1]} does not match model dimension {model.dimension}"
        )
    out = np.asarray(model.source(z), dtype=float)
    if not np.isfinite(out).all():
        raise DivergenceError("source produced non-finite components")
    return out


def laplacian(profile: SpatialProfile, node_index: int) -> np.ndarray:
    """Second central difference at an interior node, componentwise."""
    N = profile.grid.node_count
    if not 0 < node_index < N - 1:
        raise BoundaryNodeError(
            f"node {node_index} is not interior (boundary values are Dirichlet-held)"
        )
    S = profile.states
    dx = profile.grid.spacing
    return (S[node_index - 1] - 2.0 * S[node_index] + S[node_index + 1]) / (dx * dx)


def eval_full_rhs(model: ReactionDiffusionModel, profile: SpatialProfile, node_index: int) -> np.ndarray:
    """Source plus diagonal diffusion at an interior node of a profile."""
    lap = laplacian(profile, node_index)
    return eval_source(model, profile.states[node_index]) + model.diffusion * lap


def interior_terms(model: ReactionDiffusionModel, states: np.ndarray, dx: float):
    """Source and diffusion ``D Lap`` on all interior nodes, as two arrays."""
    lap = (states[:-2] - 2.0 * states[1:-1] + states[2:]) / (dx * dx)
    return model.source(states[1:-1]), model.diffusion * lap


def write_rows_csv(path, header, rows, comment: str) -> None:
    """Write ``# comment``, the header and a 2-D array of rows as CSV, 17
    significant digits; a comment spanning lines is rejected.  Within each
    block of rows, a column that repeats values (a grid axis) formats each
    distinct value once, keyed on its bits, since ``-0.0`` prints as ``-0``."""
    if "\n" in comment or "\r" in comment:
        raise ContractViolationError(f"CSV comment must be one line, got {comment!r}")
    rows = np.asarray(rows, dtype=float)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# {comment}\n" + ",".join(header) + "\n")
        # one % per block of rows: the whole array at once costs more memory
        for k in range(0, len(rows), CSV_BLOCK_ROWS):
            block = rows[k:k + CSV_BLOCK_ROWS]
            cells, formats = block.astype(object), [FLOAT_FMT] * block.shape[1]
            for j, c in enumerate(block.T):
                bits, where = np.unique(c.view(np.int64), return_inverse=True)
                if len(bits) < len(c):
                    text = f"{FLOAT_FMT}\n" * len(bits) % tuple(bits.view(float).tolist())
                    cells[:, j] = np.array(text.split("\n"), dtype=object)[where]
                    formats[j] = "%s"
            line = ",".join(formats) + "\n"
            fh.write(line * len(block) % tuple(cells.ravel().tolist()))


def write_profile_csv(path, profile: SpatialProfile, species, comment: str = "") -> None:
    """Write a profile as CSV with header ``x,<species...>``."""
    write_rows_csv(path, ["x", *species], np.column_stack([profile.grid.nodes, profile.states]),
                   comment)


def read_profile_csv(path) -> SpatialProfile:
    """Read a profile CSV written by :func:`write_profile_csv`; a file that
    does not hold at least 3 rows of finite numbers raises
    :class:`ContractViolationError`."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = [line.strip() for line in fh]
        data = np.array([[float(tok) for tok in line.split(",")] for line in lines
                         if line and not line.startswith(("#", "x,"))], dtype=float)
    except ValueError as exc:  # undecodable text, a non-numeric cell or a ragged row
        raise ContractViolationError(f"profile CSV {path} is malformed: {exc}") from exc
    if data.ndim != 2 or data.shape[0] < 3:
        raise ContractViolationError(f"profile CSV {path} is malformed")
    if not np.isfinite(data).all():
        raise ContractViolationError(f"profile CSV {path} is malformed: a cell is not finite")
    return SpatialProfile(Grid1D(data.shape[0]), data[:, 1:])
