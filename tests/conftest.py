"""Session-scoped fixtures for the expensive shared computations.

Heavy runs (stationary profiles, manifold relaxations, transient
measurements) are computed once per session; wall-clock seconds are recorded
so the acceptance suite can assert its runtime budgets against the actual
computation instead of a cached lookup.
"""

import os

# One BLAS/OpenMP thread, set before numpy is first imported (this conftest
# is where a test session first imports it): with the default threading the
# first band LU solves in a fresh process sometimes stall in OpenBLAS.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import time
from collections import namedtuple

import numpy as np
import pytest

from fastslow.fasttime import measure_fast_time_ode, measure_fast_time_pde
from fastslow.gql import (
    build_surrogate,
    default_sample_states,
    default_slow_grid,
    slow_manifold_mesh,
    spectral_split,
)
from fastslow.models import equilibrium, michaelis_menten_model
from fastslow.pde import BoundaryConditions, SolverSettings, integrate_to_steady
from fastslow.redim import (
    evolve_redim_1d,
    evolve_redim_2d,
    gradient_estimate_from_profile,
)

Timed = namedtuple("Timed", ["value", "seconds"])

RIGHT_STATE = np.array([2.0, 0.0, 1.0])


def _timed(fn):
    t0 = time.perf_counter()
    value = fn()
    return Timed(value, time.perf_counter() - t0)


@pytest.fixture(scope="session")
def mm_model():
    return michaelis_menten_model()


@pytest.fixture(scope="session")
def mm_eq(mm_model):
    return _timed(lambda: equilibrium(mm_model, [1.0, 0.5, 0.5], tol=1e-13))


@pytest.fixture(scope="session")
def mm_dec(mm_model, mm_eq):
    def build():
        samples = default_sample_states(mm_model, extra=[mm_eq.value])
        return spectral_split(build_surrogate(mm_model, samples))
    return _timed(build)


@pytest.fixture(scope="session")
def mm_bc(mm_eq):
    return BoundaryConditions(left_state=mm_eq.value, right_state=RIGHT_STATE)


@pytest.fixture(scope="session")
def steady_101(mm_model, mm_bc):
    return _timed(lambda: integrate_to_steady(mm_model, mm_bc, SolverSettings()))


@pytest.fixture(scope="session")
def steady_201(mm_model, mm_bc):
    return _timed(
        lambda: integrate_to_steady(mm_model, mm_bc, SolverSettings(node_count=201))
    )


@pytest.fixture(scope="session")
def mm_grad1(steady_101):
    return gradient_estimate_from_profile(steady_101.value.profile, "1d")


@pytest.fixture(scope="session")
def mm_grad2(steady_101):
    return gradient_estimate_from_profile(steady_101.value.profile, "2d")


@pytest.fixture(scope="session")
def redim1d_mm(mm_model, mm_bc, mm_grad1):
    return _timed(
        lambda: evolve_redim_1d(
            mm_model, (mm_bc.left_state, mm_bc.right_state), M=101, grad=mm_grad1
        )
    )


@pytest.fixture(scope="session")
def redim2d_mm(mm_model, mm_bc, mm_grad2):
    return _timed(
        lambda: evolve_redim_2d(
            mm_model,
            theta1_range=(0.0, 2.0),
            theta2_range=(0.0, 1.0),
            M1=61,
            M2=61,
            grad=mm_grad2,
            anchor_values=(float(mm_bc.left_state[2]), float(mm_bc.right_state[2])),
        )
    )


@pytest.fixture(scope="session")
def mm_mesh(mm_model, mm_dec, mm_eq):
    dec = mm_dec.value
    def build():
        grid = default_slow_grid(dec, mm_model, points_per_axis=30)
        return slow_manifold_mesh(dec, mm_model, grid, tol=1e-10,
                                  U0=dec.Zt_f @ mm_eq.value)
    return _timed(build)


@pytest.fixture(scope="session")
def fasttime_ode_mm(mm_dec, mm_model):
    return _timed(lambda: measure_fast_time_ode(mm_dec.value, mm_model, RIGHT_STATE))


@pytest.fixture(scope="session")
def fasttime_pde_mm(mm_dec, mm_model, mm_bc):
    return _timed(
        lambda: measure_fast_time_pde(
            mm_dec.value, mm_model, mm_bc, SolverSettings(), x0=0.8
        )
    )
