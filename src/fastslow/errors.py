"""Exception hierarchy shared by all fastslow modules.

Exit-code grouping used by the CLI:
  2 -> ConfigError
  3 -> NumericalError (non-convergence, blow-up)
  4 -> DecompositionError (rank/gap/parametrization failures)
"""


class FastSlowError(Exception):
    """Base class for all errors raised by this package."""


class ContractViolationError(FastSlowError):
    """A documented precondition was violated (e.g. dimension mismatch)."""


class BoundaryNodeError(ContractViolationError):
    """An interior-only operation was asked for a boundary node."""


class ConfigError(FastSlowError):
    """Bad run configuration (unknown keys, malformed values, bad flags)."""


class NumericalError(FastSlowError):
    """Base for runtime numerical failures."""


class ConvergenceError(NumericalError):
    """An iteration did not reach its tolerance within its budget."""

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


class DivergenceError(NumericalError):
    """Non-finite values appeared during integration."""


class DecompositionError(FastSlowError):
    """Base for fast/slow decomposition failures."""


class IllPosedSampleError(DecompositionError):
    """Sample matrix for the linear surrogate is (near) rank deficient."""


class NoDecompositionError(DecompositionError):
    """No spectral gap of the required ratio exists."""


class SplitConflictError(DecompositionError):
    """The real Schur form cannot realise the proposed split: LAPACK failed
    to compute it, or to reorder it with the fast cluster leading (blocks
    too close to swap stably)."""


class SingularJacobianError(DecompositionError):
    """Newton iteration hit a singular Jacobian."""


class DegenerateParametrizationError(DecompositionError):
    """Manifold tangent matrix lost full column rank."""


class ParametrizationError(DecompositionError):
    """A profile cannot be parametrized as requested (non-monotone parameter)."""


class EmptyMeshError(DecompositionError):
    """No slow-manifold grid node converged."""
