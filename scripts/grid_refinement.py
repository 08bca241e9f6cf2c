#!/usr/bin/env python3
"""Grid-refinement study: stationary profiles at N = 51 ... 1601 with their
observed order of convergence, and the second-order convergence of the
discrete Laplacian.

Usage: python scripts/grid_refinement.py
"""

import time

import numpy as np

from fastslow.core import Grid1D, SpatialProfile
from fastslow.models import equilibrium, michaelis_menten_model
from fastslow.pde import BoundaryConditions, SolverSettings, integrate_to_steady, laplacian


def laplacian_error(n):
    g = Grid1D(n)
    profile = SpatialProfile(g, np.sin(np.pi * g.nodes)[:, None])
    return max(
        abs(laplacian(profile, i)[0] + np.pi ** 2 * np.sin(np.pi * g.nodes[i]))
        for i in range(1, n - 1)
    )


def main():
    model = michaelis_menten_model()
    z_eq = equilibrium(model, [1.0, 0.5, 0.5])
    bc = BoundaryConditions(z_eq, np.array([2.0, 0.0, 1.0]))

    print("Laplacian on sin(pi x):")
    errs = {n: laplacian_error(n) for n in (51, 101, 201, 401)}
    prev = None
    for n, err in errs.items():
        ratio = "" if prev is None else f"  ratio {prev / err:.3f}"
        print(f"  N = {n:4d}: max err {err:.3e}{ratio}")
        prev = err

    print("Stationary profiles:")
    nodes = (51, 101, 201, 401, 801, 1601)
    profiles = {}
    for n in nodes:
        t0 = time.perf_counter()
        result = integrate_to_steady(model, bc, SolverSettings(node_count=n))
        profiles[n] = result.profile.states
        print(f"  N = {n:4d}: iterations {result.steps:3d}, pseudo-time "
              f"{result.elapsed_time:9.3e}, wall {time.perf_counter() - t0:6.3f}s")
    prev = None
    for coarse, fine in zip(nodes, nodes[1:]):
        d = np.abs(profiles[fine][::2] - profiles[coarse]).max()
        order = "" if prev is None else f"  observed order {np.log2(prev / d):.3f}"
        print(f"  sup diff N={coarse} vs N={fine} at shared nodes: {d:.3e}{order}")
        prev = d


if __name__ == "__main__":
    main()
