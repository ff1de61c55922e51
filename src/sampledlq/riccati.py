"""Backward Riccati-type recursion and forward synthesis of the optimal control.

The value function at s_i is V_i(y) = 1/2 [y; 1]^T V_i [y; 1], with
V_N = [[S, 0], [0, 0]].  With z = [y; U; 1] and Phi_i = [step_i; e_last] the
interval's map z -> [q(s_{i+1}); 1], the sweep runs i = N-1 .. 0:

    X_i        = Phi_i^T V_{i+1} Phi_i + state_cost_i + control_cost_i (on the [U; 1] corner)
    feedback_i = -T_i^{-1} X_i[U, (y, 1)],   T_i = X_i[U, U] by its Cholesky factor
    V_i        = X_i[(y, 1), (y, 1)] + X_i[(y, 1), U] feedback_i

1/2 z^T X_i z is the cost from s_i on, optimal after s_{i+1}, and V_i, its
minimum over U, is one Schur complement.  The paper's names are read-only
views (segments as in `transition.ZView`):

    F = X[1, 1]   G = X[y, 1]   H = X[U, 1]   K = V[y, y]   gain   = feedback[:, y]
    P = X[U, y]   Q = X[y, y]   T = X[U, U]   J = V[y, 1]   offset = feedback[:, 1]
                                              Y = V[1, 1]

so K_i = Q_i - P_i^T T_i^{-1} P_i, J_i = G_i - P_i^T T_i^{-1} H_i and
Y_i = F_i - <T_i^{-1} H_i, H_i>.  The optimal coefficients follow forward as
U_i = feedback_i [q(s_i); 1], and the optimal cost is V_0(q_a).

Because the last interval's step absorbs the -q_b shift, the forward
recursion's final node is the shifted terminal state q(b) - q_b; every stated
identity (value function, costate linearity) then holds verbatim at i = N.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

import numpy as np
from scipy.linalg import LinAlgError, cho_factor, cho_solve

from .blocks import compute_all_blocks
from .errors import DimensionMismatch, IndexOutOfRange, NonFinite, TNotPD
from .problem import LQProblem, SamplingGrid
from .transition import ZView


@dataclass(frozen=True, eq=False)
class SweepStep:
    """The recursion's quadratic forms for one interval index."""

    i: int
    X: np.ndarray         # (n+m+1) x (n+m+1), cost-to-go form on [y; U; 1]
    T_factor: tuple       # Cholesky factor of T = X[U, U]
    V: np.ndarray         # (n+1) x (n+1), value form V_i on [y; 1]
    feedback: np.ndarray  # m x (n+1), [gain | offset]

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
        return self.V.shape[0] - 1, self.feedback.shape[0]


@dataclass(frozen=True, eq=False)
class RiccatiSweep:
    steps: tuple
    V_N: np.ndarray  # (n+1) x (n+1), [[S, 0], [0, 0]]

    K_N = ZView("V_N", "y", "y")
    J_N = ZView("V_N", "y", "1")
    Y_N = ZView("V_N", "1", "1")

    @property
    def dims(self) -> tuple:
        return self.V_N.shape[0] - 1, 0  # no U segment

    @property
    def N(self) -> int:
        return len(self.steps)


@dataclass(frozen=True, eq=False)
class SampledSolution:
    grid: Optional[SamplingGrid]
    U: np.ndarray        # (N, m)
    q_nodes: np.ndarray  # (N+1, n); the last node is q(b) - q_b
    predicted_cost: float
    simulated_cost: Optional[float] = None

    def with_simulated_cost(self, value: float) -> "SampledSolution":
        return replace(self, simulated_cost=float(value))


def backward_sweep(blocks: list, S: np.ndarray) -> RiccatiSweep:
    """Run the recursion over the given blocks from terminal weight S."""
    if not blocks:
        raise DimensionMismatch("need at least one interval block")
    n, m = blocks[0].dims
    S = np.asarray(S, dtype=float)
    if S.shape != (n, n):
        raise DimensionMismatch(f"S has shape {S.shape}, expected {(n, n)}")
    V_N = np.pad(0.5 * (S + S.T), (0, 1))  # [[S, 0], [0, 0]]

    U, yo = slice(n, n + m), np.r_[0:n, n + m]  # the U and [y; 1] entries of z
    last = np.eye(1, n + m + 1, n + m)
    V, steps = V_N, []
    for blk in reversed(blocks):
        Phi = np.concatenate((blk.step, last))
        with np.errstate(over="ignore", invalid="ignore"):
            X = Phi.T @ V @ Phi + blk.state_cost
            X[n:, n:] += blk.control_cost
            X = 0.5 * (X + X.T)
        if not np.all(np.isfinite(X)):
            raise NonFinite(f"cost-to-go form overflowed on interval {blk.i}")
        try:
            factor = cho_factor(X[U, U], lower=True)
        except LinAlgError as exc:
            raise TNotPD(blk.i) from exc
        feedback = -cho_solve(factor, X[U, yo])
        V = X[np.ix_(yo, yo)] + X[yo, U] @ feedback
        V = 0.5 * (V + V.T)
        steps.append(SweepStep(i=blk.i, X=X, T_factor=factor, V=V, feedback=feedback))
    steps.reverse()
    return RiccatiSweep(steps=tuple(steps), V_N=V_N)


def forward_synthesis(
    sweep: RiccatiSweep, blocks: list, q_a: np.ndarray, grid: Optional[SamplingGrid] = None
) -> SampledSolution:
    """Optimal coefficients and state samples by forward induction from q_a."""
    if sweep.N != len(blocks):
        raise DimensionMismatch(f"sweep has {sweep.N} steps, blocks {len(blocks)}")
    q = np.asarray(q_a, dtype=float)
    n = q.shape[0]
    if sweep.K_N.shape != (n, n):
        raise DimensionMismatch(f"q_a has dimension {n}, sweep expects {sweep.K_N.shape[0]}")
    q_nodes = [q]
    U = []
    for step, blk in zip(sweep.steps, blocks):
        u = step.feedback @ np.concatenate((q, [1.0]))
        q = blk.step @ np.concatenate((q, u, [1.0]))
        U.append(u)
        q_nodes.append(q)
    predicted = value_function(sweep, 0, q_nodes[0])
    return SampledSolution(
        grid=grid,
        U=np.array(U),
        q_nodes=np.array(q_nodes),
        predicted_cost=predicted,
    )


def value_function(sweep: RiccatiSweep, j: int, y: np.ndarray) -> float:
    """V_j(y) = 1/2 [y; 1]^T V_j [y; 1] = 1/2 <K_j y, y> + <J_j, y> + 1/2 Y_j."""
    if not 0 <= j <= sweep.N:
        raise IndexOutOfRange(f"value function index {j} out of range for N={sweep.N}")
    y = np.asarray(y, dtype=float)
    V = sweep.V_N if j == sweep.N else sweep.steps[j].V
    if y.shape != (V.shape[0] - 1,):
        raise DimensionMismatch(f"y has shape {y.shape}, expected {(V.shape[0] - 1,)}")
    z = np.append(y, 1.0)
    with np.errstate(over="ignore", invalid="ignore"):
        value = float(0.5 * (z @ (V @ z)))
    if not np.isfinite(value):
        raise NonFinite(f"value function V_{j} overflowed")
    return value


def closed_loop_gain(sweep: RiccatiSweep, i: int):
    """(gain_i, offset_i) with U_i = gain_i q(s_i) + offset_i."""
    if not 0 <= i < sweep.N:
        raise IndexOutOfRange(f"gain index {i} out of range for N={sweep.N}")
    step = sweep.steps[i]
    return step.gain, step.offset


def solve(p: LQProblem, grid: SamplingGrid, M: int = 64):
    """Full pipeline: blocks, backward sweep, forward synthesis.

    Returns (blocks, sweep, solution).
    """
    blocks = compute_all_blocks(p, grid, M)
    sweep = backward_sweep(blocks, p.S)
    solution = forward_synthesis(sweep, blocks, p.q_a, grid=grid)
    return blocks, sweep, solution
