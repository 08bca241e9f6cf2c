#!/usr/bin/env python3
"""Write the steady states of the acceptance configurations to ``golden.npz``.

The configurations are those of the test fixtures: the stationary profile at
N = 101, the REDIM-1D at M = 101 and the REDIM-2D at 61 x 61 with the default
``hold="theta1"``, both with the profile-derived gradient estimate.  The
committed ``golden.npz`` was written at commit ef248e7, whose three solvers
were explicit RK4 pseudo-time relaxations; ``tests/test_steady.py`` checks
that the current solver reaches the same fixed points.

Usage: PYTHONPATH=src python tests/data/make_golden.py [out.npz]
"""

import sys
from pathlib import Path

import numpy as np

from fastslow.models import equilibrium, michaelis_menten_model
from fastslow.pde import BoundaryConditions, SolverSettings, integrate_to_steady
from fastslow.redim import evolve_redim_1d, evolve_redim_2d, gradient_estimate_from_profile


def main(out):
    model = michaelis_menten_model()
    z_eq = equilibrium(model, [1.0, 0.5, 0.5], tol=1e-13)
    bc = BoundaryConditions(left_state=z_eq, right_state=np.array([2.0, 0.0, 1.0]))
    profile = integrate_to_steady(model, bc, SolverSettings(node_count=101)).profile
    m1 = evolve_redim_1d(model, (bc.left_state, bc.right_state), M=101,
                         grad=gradient_estimate_from_profile(profile, "1d"))
    m2 = evolve_redim_2d(model, (0.0, 2.0), (0.0, 1.0), M1=61, M2=61,
                         grad=gradient_estimate_from_profile(profile, "2d"),
                         anchor_values=(float(z_eq[2]), float(bc.right_state[2])))
    np.savez(out, profile=profile.states, redim1d=m1.states, redim2d=m2.Z_values)


if __name__ == "__main__":
    main(sys.argv[1] if len(sys.argv) > 1 else Path(__file__).with_name("golden.npz"))
