#!/usr/bin/env python3
"""Write the reference outputs of the acceptance configurations.

Without ``--mesh`` it writes the steady states to ``golden.npz``: the
stationary profile at N = 101, the REDIM-1D at M = 101 and the REDIM-2D at
61 x 61 with the default ``hold="theta1"``, both with the profile-derived
gradient estimate.  The committed ``golden.npz`` was written at commit
ef248e7, whose three solvers were explicit RK4 pseudo-time relaxations;
``tests/test_steady.py`` checks that the current solver reaches the same
fixed points.

With ``--mesh`` it writes the 30/axis zero-order slow-manifold mesh of the
``mm_mesh`` fixture (``tol=1e-10``, started from the equilibrium's fast
coordinates) to ``golden_mesh.npz``: ``V``, ``states`` and ``converged``.
The committed ``golden_mesh.npz`` was written at commit 191001d, which
solved each fibre with its own scalar Newton loop; ``tests/test_gql.py``
checks that the batched fibre Newton reaches the same manifold.

With ``--fasttime`` it writes fine-step entry times into the slow
neighborhood (slow-time units, RK4 at ``dt = 5e-5`` read at a step
boundary) to ``golden_fasttime.npz``: ``ode`` from (2, 0, 1), and ``pde101``
and ``pde401``, the PDE tracked at x0 = 0.8 on N = 101 and N = 401 nodes.
The committed ``golden_fasttime.npz`` was written at commit c307251, whose
entry-time loop was explicit RK4; ``tests/test_fasttime.py`` checks the
current default-step entry times against it.  The N = 401 run takes about
10 s.

With ``--reports`` it writes the default-step ``FastTimeReport`` fields to
``golden_fasttime_reports.npz``: ``starts`` holds (2, 0, 1) and
``REPORT_STARTS`` states drawn uniformly from the working box by
``REPORT_SEED``, rejecting any already inside the slow neighborhood;
``pde_cases`` holds the PDE's (N, x0) pairs.  ``ode`` and ``pde`` hold the
float fields named in ``fields``, one row per case, and ``ode_steps`` and
``pde_steps`` the step counts.  The committed file was written at commit
3156dd7; ``tests/test_fasttime.py`` checks that the current measurement
returns the same reports.

With ``--histories`` it writes the ``residual_history`` of the stationary
profile at N = 51, 101 and 201 (``SolverSettings`` defaults otherwise) to
``golden_histories.npz``, one ``(steps + 1, 2)`` array per N under ``n51``,
``n101`` and ``n201``.  The committed file was written on top of commit
d117077, once the profile started with Newton steps from its linear start
(4 steps at each N, pseudo-time 0 and then ``inf``; 11 PTC steps before);
``tests/test_steady.py`` checks that the profile still takes the same
steps, bit for bit.

Usage: PYTHONPATH=src python tests/data/make_golden.py [--mesh | --fasttime | --reports | --histories] [out.npz]
"""

import dataclasses
import sys
from pathlib import Path

import numpy as np

from fastslow.fasttime import (
    FastTimeReport,
    measure_fast_time_ode,
    measure_fast_time_pde,
    slow_neighborhood_test,
)
from fastslow.gql import (
    build_surrogate,
    default_sample_states,
    default_slow_grid,
    slow_manifold_mesh,
    spectral_split,
)
from fastslow.models import equilibrium, michaelis_menten_model
from fastslow.pde import BoundaryConditions, SolverSettings, integrate_to_steady
from fastslow.redim import evolve_redim_1d, evolve_redim_2d, gradient_estimate_from_profile


def write_steady(out, model, z_eq):
    bc = BoundaryConditions(left_state=z_eq, right_state=np.array([2.0, 0.0, 1.0]))
    profile = integrate_to_steady(model, bc, SolverSettings(node_count=101)).profile
    m1 = evolve_redim_1d(model, (bc.left_state, bc.right_state), M=101,
                         grad=gradient_estimate_from_profile(profile, "1d"))
    m2 = evolve_redim_2d(model, (0.0, 2.0), (0.0, 1.0), M1=61, M2=61,
                         grad=gradient_estimate_from_profile(profile, "2d"),
                         anchor_values=(float(z_eq[2]), float(bc.right_state[2])))
    np.savez(out, profile=profile.states, redim1d=m1.states, redim2d=m2.Z_values)


def write_mesh(out, model, z_eq):
    dec = spectral_split(build_surrogate(model, default_sample_states(model, extra=[z_eq])))
    grid = default_slow_grid(dec, model, points_per_axis=30)
    mesh = slow_manifold_mesh(dec, model, grid, tol=1e-10, U0=dec.Zt_f @ z_eq)
    np.savez(out, V=mesh.V, states=mesh.states, converged=mesh.converged)


FASTTIME_REFERENCE_DT = 5e-5


def write_fasttime(out, model, z_eq):
    dec = spectral_split(build_surrogate(model, default_sample_states(model, extra=[z_eq])))
    right = np.array([2.0, 0.0, 1.0])
    bc = BoundaryConditions(left_state=z_eq, right_state=right)
    dt = FASTTIME_REFERENCE_DT
    pde = {f"pde{n}": measure_fast_time_pde(dec, model, bc, SolverSettings(node_count=n),
                                            x0=0.8, dt=dt).t_enter
           for n in (101, 401)}
    np.savez(out, ode=measure_fast_time_ode(dec, model, right, dt=dt).t_enter, dt=dt, **pde)


REPORT_SEED = 1
REPORT_STARTS = 64
REPORT_PDE_CASES = ((101, 0.8), (401, 0.2), (401, 0.5), (401, 0.8))
REPORT_FLOAT_FIELDS = tuple(f.name for f in dataclasses.fields(FastTimeReport)
                            if f.type == "float")


def report_starts(dec, model, seed=REPORT_SEED, count=REPORT_STARTS):
    """(2, 0, 1), then ``count`` seeded working-box states outside the slow
    neighborhood."""
    rng = np.random.default_rng(seed)
    lo, hi = model.working_box
    out = [np.array([2.0, 0.0, 1.0])]
    while len(out) < count + 1:
        z = rng.uniform(lo, hi)
        if not slow_neighborhood_test(dec, model, z):
            out.append(z)
    return np.array(out)


def write_reports(out, model, z_eq):
    dec = spectral_split(build_surrogate(model, default_sample_states(model, extra=[z_eq])))
    bc = BoundaryConditions(left_state=z_eq, right_state=np.array([2.0, 0.0, 1.0]))
    starts = report_starts(dec, model)
    ode = [measure_fast_time_ode(dec, model, z0) for z0 in starts]
    pde = [measure_fast_time_pde(dec, model, bc, SolverSettings(node_count=n), x0=x0)
           for n, x0 in REPORT_PDE_CASES]

    def floats(reports):
        return np.array([[getattr(r, f) for f in REPORT_FLOAT_FIELDS] for r in reports])

    np.savez(out, fields=np.array(REPORT_FLOAT_FIELDS), starts=starts,
             pde_cases=np.array(REPORT_PDE_CASES), ode=floats(ode),
             ode_steps=np.array([r.steps for r in ode]), pde=floats(pde),
             pde_steps=np.array([r.steps for r in pde]))


def write_histories(out, model, z_eq):
    bc = BoundaryConditions(left_state=z_eq, right_state=np.array([2.0, 0.0, 1.0]))
    np.savez(out, **{f"n{n}": np.array(integrate_to_steady(
        model, bc, SolverSettings(node_count=n)).residual_history) for n in (51, 101, 201)})


WRITERS = {"": ("golden.npz", write_steady),
           "--mesh": ("golden_mesh.npz", write_mesh),
           "--fasttime": ("golden_fasttime.npz", write_fasttime),
           "--reports": ("golden_fasttime_reports.npz", write_reports),
           "--histories": ("golden_histories.npz", write_histories)}


def main(argv):
    flags = [a for a in argv if a in WRITERS]
    args = [a for a in argv if a not in WRITERS]
    name, write = WRITERS[flags[0] if flags else ""]
    out = args[0] if args else Path(__file__).with_name(name)
    model = michaelis_menten_model()
    z_eq = equilibrium(model, [1.0, 0.5, 0.5], tol=1e-13)
    write(out, model, z_eq)


if __name__ == "__main__":
    main(sys.argv[1:])
