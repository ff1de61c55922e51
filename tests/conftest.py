"""Shared fixtures and frozen expected values.

The analytic constants below were computed independently of the library
(40-digit arithmetic on the closed-form antiderivatives of the scalar
benchmark, cross-checked by direct high-precision quadrature) and are frozen
here as the oracle for the unit and acceptance tests.
"""

import numpy as np
import pytest

import sampledlq as sq

# scalar benchmark on [0, 1]: A = 1/2, B = 1, W = 2, R = 1, S = 0, q_a = 1
ANALYTIC = {
    "Z10": 1.6487212707001282,        # e^(1/2)
    "ZB0": 1.2974425414002563,        # 2 (e^(1/2) - 1)
    "ZWZ0": 3.4365636569180905,       # 2 (e - 1)
    "ZBWZ0": 1.6833571482351558,      # 4 (e + 1 - 2 e^(1/2))
    "ZBWZB0": 0.9871739652682612,     # 8 (e + 4 - 4 e^(1/2))
    "T0": 1.9871739652682612,         # ZBWZB0 + 1
    "P0": 1.6833571482351558,
    "Q0": 3.4365636569180905,
    "K0": 2.0105731105232970,         # Q0 - P0^2 / T0
    "U0": -0.8471111123921698,        # -P0 / T0
    "COST0": 1.0052865552616485,      # K0 / 2
    "Q_END0": 0.5496432761896332,     # Z10 + ZB0 * U0
    "ORACLE_C": 1.7182818284590452,   # e - 1 = C(0) = Q0 / 2
    "PERMANENT_COST": 0.8641644977691128,
}


@pytest.fixture(scope="session")
def dontchev_entry():
    return sq.get_problem("dontchev")


@pytest.fixture(scope="session")
def dontchev(dontchev_entry):
    return dontchev_entry.problem


@pytest.fixture(scope="session")
def analytic():
    return ANALYTIC


def solve_with_simulation(problem, grid, M):
    """Pipeline plus simulation: (blocks, sweep, solution, its simulated cost, its trajectory)."""
    blocks, sweep, sol = sq.solve(problem, grid, M)
    traj = sq.simulate_state(problem, sq.PiecewiseConstantControl(grid, sol.U), M)
    return blocks, sweep, sol, sq.evaluate_cost(traj), traj


def max_relative_residual(problem, sol, M_res):
    """Worst interval residual scaled by 1 + |U_i|."""
    control = sq.PiecewiseConstantControl(sol.grid, sol.U)
    traj = sq.simulate_state(problem, control, M_res)
    costate = sq.simulate_costate(traj, M_res)
    r = sq.pmp_residual_sampled(costate)
    scale = 1.0 + np.linalg.norm(np.atleast_2d(sol.U), axis=1)
    return float(np.max(np.linalg.norm(r, axis=1) / scale))
