"""Fast-slow decomposition, stationary profiles and reaction-diffusion
manifolds for stiff reaction-diffusion systems."""

__version__ = "0.1.0"

from .core import (  # noqa: F401
    Grid1D,
    ReactionDiffusionModel,
    SpatialProfile,
    eval_full_rhs,
    eval_source,
    laplacian,
)
from .models import (  # noqa: F401
    MichaelisMentenParams,
    equilibrium,
    linear_model,
    michaelis_menten_model,
)
from .gql import (  # noqa: F401
    GqlDecomposition,
    build_surrogate,
    decomposed_rhs,
    slow_manifold_mesh,
    spectral_split,
    to_fast_slow_coords,
)
from .pde import (  # noqa: F401
    BoundaryConditions,
    SolverSettings,
    integrate_to_steady,
    linear_initial_profile,
)
from .redim import (  # noqa: F401
    GradientEstimate,
    Manifold1D,
    Manifold2D,
    evolve_redim_1d,
    evolve_redim_2d,
    gradient_estimate_from_profile,
    pseudo_inverse,
    tangent_projector,
)
from .fasttime import (  # noqa: F401
    FastTimeReport,
    estimate_K,
    measure_fast_time_ode,
    measure_fast_time_pde,
    slow_neighborhood_test,
)
