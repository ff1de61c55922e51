"""Backward Riccati-type recursion and forward synthesis of the optimal control.

The value function at s_i is V_i(y) = 1/2 [y; 1]^T V_i [y; 1], with
V_N = [[S, 0], [0, 0]].  With z = [y; U; 1] and Phi_i = [step_i; e_last] the
interval's map z -> [q(s_{i+1}); 1], the sweep runs i = N-1 .. 0:

    X_i        = Phi_i^T V_{i+1} Phi_i + state_cost_i + control_cost_i (on the [U; 1] corner)
    feedback_i = -T_i^{-1} X_i[U, (y, 1)],   T_i = X_i[U, U] by its Cholesky factor
    V_i        = X_i[(y, 1), (y, 1)] + X_i[(y, 1), U] feedback_i

1/2 z^T X_i z is the cost from s_i on, optimal after s_{i+1}, and V_i, its
minimum over U, is one Schur complement.  `RiccatiSweep` stacks the forms on
a leading index axis: X (N, n+m+1, n+m+1), feedback (N, m, n+1) and
V (N+1, n+1, n+1), whose last row is V_N.  The paper's names are read-only
views carrying that axis (segments as in `transition.ZView`):

    F = X[1, 1]   G = X[y, 1]   H = X[U, 1]   K = V[y, y]   gain   = feedback[:, y]
    P = X[U, y]   Q = X[y, y]   T = X[U, U]   J = V[y, 1]   offset = feedback[:, 1]
                                              Y = V[1, 1]

so K_i = Q_i - P_i^T T_i^{-1} P_i, J_i = G_i - P_i^T T_i^{-1} H_i and
Y_i = F_i - <T_i^{-1} H_i, H_i>, with K[N] = S, J[N] = 0 and Y[N] = 0.  The
optimal coefficients follow forward as U_i = feedback_i [q(s_i); 1], and the
optimal cost is V_0(q_a).

Because the last interval's step absorbs the -q_b shift, the forward
recursion's final node is the shifted terminal state q(b) - q_b; every stated
identity (value function, costate linearity) then holds verbatim at i = N.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

import numpy as np
from scipy.linalg import LinAlgError, cho_factor, cho_solve

from .blocks import IntervalBlocks, compute_all_blocks
from .errors import DimensionMismatch, IndexOutOfRange, NonFinite, TNotPD
from .problem import LQProblem, SamplingGrid
from .transition import ZView


@dataclass(frozen=True, eq=False)
class RiccatiSweep:
    """The recursion's quadratic forms, stacked by interval index."""

    X: np.ndarray         # (N, n+m+1, n+m+1), cost-to-go forms on [y; U; 1]
    feedback: np.ndarray  # (N, m, n+1), [gain | offset]
    V: np.ndarray         # (N+1, n+1, n+1), value forms on [y; 1]; V[N] = [[S, 0], [0, 0]]

    F = ZView("X", "1", "1")
    G = ZView("X", "y", "1")
    H = ZView("X", "U", "1")
    P = ZView("X", "U", "y")
    Q = ZView("X", "y", "y")
    T = ZView("X", "U", "U")
    K = ZView("V", "y", "y")
    J = ZView("V", "y", "1")
    Y = ZView("V", "1", "1")
    gain = ZView("feedback", ":", "y")
    offset = ZView("feedback", ":", "1")

    @property
    def dims(self) -> tuple:
        return self.V.shape[-1] - 1, self.feedback.shape[-2]

    @property
    def N(self) -> int:
        return self.X.shape[0]


@dataclass(frozen=True, eq=False)
class SampledSolution:
    grid: Optional[SamplingGrid]
    U: np.ndarray        # (N, m)
    q_nodes: np.ndarray  # (N+1, n); the last node is q(b) - q_b
    predicted_cost: float
    simulated_cost: Optional[float] = None

    def with_simulated_cost(self, value: float) -> "SampledSolution":
        return replace(self, simulated_cost=float(value))


def backward_sweep(blocks: IntervalBlocks, S: np.ndarray) -> RiccatiSweep:
    """Run the recursion over the stacked blocks from terminal weight S."""
    n, m = blocks.dims
    S = np.asarray(S, dtype=float)
    if S.shape != (n, n):
        raise DimensionMismatch(f"S has shape {S.shape}, expected {(n, n)}")
    N = blocks.N
    X = np.empty((N, n + m + 1, n + m + 1))
    # (m, n+1) rows column-major, as cho_solve returns them: feedback[i] @ z
    # in the synthesis then rounds as it does on cho_solve's own result
    feedback = np.empty((N, n + 1, m)).transpose(0, 2, 1)
    V = np.zeros((N + 1, n + 1, n + 1))
    V[N, :n, :n] = 0.5 * (S + S.T)

    U, yo = slice(n, n + m), np.r_[0:n, n + m]  # the U and [y; 1] entries of z
    last = np.eye(1, n + m + 1, n + m)
    for i in reversed(range(N)):
        Phi = np.concatenate((blocks.step[i], last))
        Xi, Vi = X[i], V[i]
        with np.errstate(over="ignore", invalid="ignore"):
            Xi[...] = Phi.T @ V[i + 1] @ Phi + blocks.state_cost[i]
            Xi[n:, n:] += blocks.control_cost[i]
            Xi[...] = 0.5 * (Xi + Xi.T)
        if not np.all(np.isfinite(Xi)):
            raise NonFinite(f"cost-to-go form overflowed on interval {i}")
        try:
            factor = cho_factor(Xi[U, U], lower=True)
        except LinAlgError as exc:
            raise TNotPD(i) from exc
        fb = -cho_solve(factor, Xi[U, yo])
        Vi[...] = Xi[np.ix_(yo, yo)] + Xi[yo, U] @ fb
        Vi[...] = 0.5 * (Vi + Vi.T)
        feedback[i] = fb
    return RiccatiSweep(X=X, feedback=feedback, V=V)


def forward_synthesis(
    sweep: RiccatiSweep, blocks: IntervalBlocks, q_a: np.ndarray, grid: Optional[SamplingGrid] = None
) -> SampledSolution:
    """Optimal coefficients and state samples by forward induction from q_a."""
    N, (n, m) = sweep.N, sweep.dims
    if blocks.N != N:
        raise DimensionMismatch(f"sweep has {N} intervals, blocks {blocks.N}")
    q_a = np.asarray(q_a, dtype=float)
    if q_a.shape != (n,):
        raise DimensionMismatch(f"q_a has shape {q_a.shape}, sweep expects {(n,)}")
    U = np.empty((N, m))
    q_nodes = np.empty((N + 1, n))
    q_nodes[0] = q_a
    for i in range(N):
        U[i] = sweep.feedback[i] @ np.append(q_nodes[i], 1.0)
        q_nodes[i + 1] = blocks.step[i] @ np.concatenate((q_nodes[i], U[i], [1.0]))
    return SampledSolution(grid=grid, U=U, q_nodes=q_nodes, predicted_cost=value_function(sweep, 0, q_a))


def value_function(sweep: RiccatiSweep, j: int, y: np.ndarray) -> float:
    """V_j(y) = 1/2 [y; 1]^T V_j [y; 1] = 1/2 <K_j y, y> + <J_j, y> + 1/2 Y_j."""
    if not 0 <= j <= sweep.N:
        raise IndexOutOfRange(f"value function index {j} out of range for N={sweep.N}")
    y = np.asarray(y, dtype=float)
    n = sweep.dims[0]
    if y.shape != (n,):
        raise DimensionMismatch(f"y has shape {y.shape}, expected {(n,)}")
    z = np.append(y, 1.0)
    with np.errstate(over="ignore", invalid="ignore"):
        value = float(0.5 * (z @ (sweep.V[j] @ z)))
    if not np.isfinite(value):
        raise NonFinite(f"value function V_{j} overflowed")
    return value


def closed_loop_gain(sweep: RiccatiSweep, i: int):
    """(gain_i, offset_i) with U_i = gain_i q(s_i) + offset_i."""
    if not 0 <= i < sweep.N:
        raise IndexOutOfRange(f"gain index {i} out of range for N={sweep.N}")
    return sweep.gain[i], sweep.offset[i]


def solve(p: LQProblem, grid: SamplingGrid, M: int = 64):
    """Full pipeline: blocks, backward sweep, forward synthesis; returns (blocks, sweep, solution)."""
    blocks = compute_all_blocks(p, grid, M)
    sweep = backward_sweep(blocks, p.S)
    solution = forward_synthesis(sweep, blocks, p.q_a, grid=grid)
    return blocks, sweep, solution
