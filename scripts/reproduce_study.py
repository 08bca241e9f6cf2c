#!/usr/bin/env python3
"""Run the full enzyme-model study with paper defaults and summarize it.

Writes the six pipeline artifacts (gql_report.json, slow_manifold.csv,
stationary_profile.csv, redim1d.csv, redim2d.csv, fasttime.csv) and prints
the headline diagnostics: spectral gap, stiffness ratio, stationary residual,
manifold/profile distances and the fast-time bound ratios.

Usage: python scripts/reproduce_study.py [out_dir]
"""

import json
import sys
import time

import numpy as np

from fastslow.cli import RunConfig, run_pipeline
from fastslow.core import read_profile_csv


def main():
    out_dir = sys.argv[1] if len(sys.argv) > 1 else "study_out"
    config = RunConfig(out_dir=out_dir)
    t0 = time.perf_counter()
    paths = run_pipeline(config)
    wall = time.perf_counter() - t0

    with open(paths["gql_report"], encoding="utf-8") as fh:
        report = json.load(fh)
    mags = sorted(float(np.hypot(e["re"], e["im"])) for e in report["eigenvalues"])
    print(f"artifacts in {out_dir}/ ({wall:.1f}s)")
    print("  eigenvalue magnitudes: " + ", ".join(f"{m:.6g}" for m in mags))
    print(f"  n_f = {report['n_f']}, gap = {mags[-1] / mags[-2]:.1f}, "
          f"epsilon = {report['epsilon']:.4g}")

    profile = read_profile_csv(paths["stationary_profile"])
    print(f"  stationary profile: {profile.grid.node_count} nodes, "
          f"X in [{profile.states[:, 0].min():.3g}, {profile.states[:, 0].max():.3g}]")

    curve = np.loadtxt(paths["redim1d"], delimiter=",", skiprows=2)
    Ym = np.interp(profile.states[:, 0], curve[:, 0], curve[:, 2])
    Zm = np.interp(profile.states[:, 0], curve[:, 0], curve[:, 3])
    d1 = np.sqrt((profile.states[:, 1] - Ym) ** 2 + (profile.states[:, 2] - Zm) ** 2).max()
    print(f"  1-D manifold vs profile: sup distance {d1:.2e}")

    ft = np.loadtxt(paths["fasttime"], delimiter=",", skiprows=2)
    for label, row in zip(("ode", "pde"), np.atleast_2d(ft)):
        print(f"  fast-time {label}: t_enter = {row[3]:.4g}, bound = {row[4]:.4g}, "
              f"ratio = {row[5]:.3f}, K = {row[1]:.3f}")


if __name__ == "__main__":
    main()
