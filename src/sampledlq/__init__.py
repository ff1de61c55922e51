"""Optimal sampled-data (zero-order-hold) control for linear-quadratic problems.

Workflow: build an LQProblem (it checks its data when built), pick a
SamplingGrid, assemble per-interval integral blocks, run the backward sweep,
synthesize the optimal coefficients forward, and verify with simulation,
stationarity residuals, and the dense QP oracle.
"""

from .blocks import IntervalBlocks, compute_all_blocks, simpson_weights
from .errors import SampledLQError
from .oracle import DenseQP, assemble_qp, cross_check, solve_qp
from .problem import (
    CoefficientFunction,
    LQProblem,
    SamplingGrid,
    grid_from_durations,
    load_problem,
    make_problem,
    uniform_grid,
)
from .registry import ProblemRegistryEntry, get_problem, list_problems, random_problem
from .riccati import (
    RiccatiSweep,
    SampledSolution,
    backward_sweep,
    forward_synthesis,
    solve,
    value_function,
)
from .simulate import (
    CostateTrajectory,
    PiecewiseConstantControl,
    Trajectory,
    averaged_control,
    cost_of_permanent,
    costs_of_control_batch,
    evaluate_cost,
    pmp_residual_permanent,
    pmp_residual_sampled,
    running_costs,
    simulate_costate,
    simulate_state,
    terminal_cost,
)

__version__ = "0.1.0"
