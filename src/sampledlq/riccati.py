"""Backward Riccati-type recursion and forward synthesis of the optimal control.

The value function at s_i is V_i(y) = 1/2 [y; 1]^T V_i [y; 1], with
V_N = [[S, 0], [0, 0]] for the terminal weight S the blocks hold: with the
last step's -q_b shift, the blocks carry the whole terminal cost.  With
z = [y; U; 1] and Phi_i = [step_i; e_last] the interval's map
z -> [q(s_{i+1}); 1], the sweep runs i = N-1 .. 0 from the blocks alone:

    X_i        = Phi_i^T V_{i+1} Phi_i + state_cost_i + control_cost_i (on the [U; 1] corner)
    feedback_i = -T_i^{-1} X_i[U, (y, 1)],   T_i = X_i[U, U] = L_i L_i^T
    V_i        = X_i[(y, 1), (y, 1)] + X_i[(y, 1), U] feedback_i

1/2 z^T X_i z is the cost from s_i on, optimal after s_{i+1}, and V_i, its
minimum over U, is one Schur complement.  The loop runs on z permuted once
per solve to [y; 1; U], so that X_i's [y; 1] and U parts are basic slices;
X is permuted back at the end.  An X_i that is not finite raises `NonFinite`
before T_i is read.  feedback_i is `solve(L_i^T, solve(L_i, .))` on the
Cholesky factor L_i of T_i, and a T_i that is not positive definite (NaN
included) raises `TNotPD(i)`.  For m >= 2 `numpy.linalg` does both; for
m = 1 L_i = sqrt(T_i), LAPACK's 1 x 1 factor, and two in-place scalings by
1 / L_i are bitwise the solve pair that m >= 2 calls (trsm scales by the
reciprocal), without its Python-level wrappers.  `RiccatiSweep`
stacks the forms on a leading index axis: X (N, n+m+1, n+m+1), feedback
(N, m, n+1) and V (N+1, n+1, n+1), whose last row is V_N.  The paper's names
are read-only views carrying that axis (segments as in `transition.ZView`):

    F = X[1, 1]   G = X[y, 1]   H = X[U, 1]   K = V[y, y]   gain   = feedback[:, y]
    P = X[U, y]   Q = X[y, y]   T = X[U, U]   J = V[y, 1]   offset = feedback[:, 1]
                                              Y = V[1, 1]

so K_i = Q_i - P_i^T T_i^{-1} P_i, J_i = G_i - P_i^T T_i^{-1} H_i and
Y_i = F_i - <T_i^{-1} H_i, H_i>, with K[N] = S, J[N] = 0 and Y[N] = 0.  The
sweep records the blocks it ran over, so the optimal coefficients follow
forward from the sweep alone as U_i = feedback_i [q(s_i); 1], on the grid
the blocks record, and the optimal cost is V_0(q_a).

Because the last interval's step absorbs the -q_b shift, the forward
recursion's final node is the shifted terminal state q(b) - q_b; every stated
identity (value function, costate linearity) then holds verbatim at i = N.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .blocks import IntervalBlocks, compute_all_blocks
from .errors import DimensionMismatch, IndexOutOfRange, NonFinite, TNotPD, ValidationError
from .problem import LQProblem, SamplingGrid, _is_integer
from .transition import ZView


@dataclass(frozen=True, eq=False)
class RiccatiSweep:
    """The recursion's quadratic forms, stacked by interval index, with the blocks it ran over."""

    X: np.ndarray         # (N, n+m+1, n+m+1), cost-to-go forms on [y; U; 1]
    feedback: np.ndarray  # (N, m, n+1), [gain | offset]
    V: np.ndarray         # (N+1, n+1, n+1), value forms on [y; 1]; V[N] = [[S, 0], [0, 0]]
    blocks: IntervalBlocks  # the blocks it ran over, which hold S and the grid

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
    """The optimal coefficients on grid, their state samples and the sweep's predicted cost."""

    grid: SamplingGrid
    U: np.ndarray        # (N, m)
    q_nodes: np.ndarray  # (N+1, n); the last node is q(b) - q_b
    predicted_cost: float


def backward_sweep(blocks: IntervalBlocks) -> RiccatiSweep:
    """Run the recursion over the stacked blocks from their terminal weight S; the sweep records them."""
    (n, m), N = blocks.dims, blocks.N
    X = np.empty((N, n + m + 1, n + m + 1))  # on [y; 1; U] until the loop ends
    feedback = np.empty((N, m, n + 1))
    V = np.zeros((N + 1, n + 1, n + 1))
    V[N, :n, :n] = blocks.S

    order, corner = [*range(n), n + m, *range(n, n + m)], [m, *range(m)]  # z to [y; 1; U], [U; 1] to [1; U]
    state_cost = blocks.state_cost.take(order, axis=1).take(order, axis=2)
    control_cost = blocks.control_cost.take(corner, axis=1).take(corner, axis=2)
    Phi = np.zeros((N, n + 1, n + m + 1))  # [step_i; the row that keeps the 1]
    Phi[:, :n] = blocks.step.take(order, axis=2)
    Phi[:, n, n] = 1.0
    yo, U = slice(0, n + 1), slice(n + 1, None)
    rows = zip(X[::-1], feedback[::-1], V[-2::-1], V[:0:-1], Phi[::-1], state_cost[::-1], control_cost[::-1])
    with np.errstate(over="ignore", invalid="ignore"):
        for i, (Xi, f, Vi, V_next, Phi_i, sc, cc) in zip(range(N - 1, -1, -1), rows):
            form = Phi_i.T @ V_next @ Phi_i
            form += sc
            form[n:, n:] += cc
            np.add(form, form.T, out=Xi)  # symmetrized as 0.5 * (form + form.T)
            Xi *= 0.5
            if not np.isfinite(Xi).all():
                raise NonFinite(f"cost-to-go form overflowed on interval {i}")
            np.negative(Xi[U, yo], out=f)
            if m == 1:  # the solve pair with L = sqrt(T), LAPACK's 1 x 1 factor: two scalings
                T = float(Xi[-1, -1])
                if not T > 0:
                    raise TNotPD(i)
                scale = 1.0 / math.sqrt(T)
                f *= scale
                f *= scale
            else:
                try:
                    L = np.linalg.cholesky(Xi[U, U])
                except np.linalg.LinAlgError as exc:
                    raise TNotPD(i) from exc
                f[...] = np.linalg.solve(L.T, np.linalg.solve(L, f))
            form = Xi[yo, U] @ f
            form += Xi[yo, yo]
            np.add(form, form.T, out=Vi)
            Vi *= 0.5
    back = [*range(n), *range(n + 1, n + m + 1), n]  # [y; 1; U] to z
    return RiccatiSweep(X=X.take(back, axis=1).take(back, axis=2), feedback=feedback, V=V, blocks=blocks)


def forward_synthesis(sweep: RiccatiSweep, q_a: np.ndarray) -> SampledSolution:
    """Optimal coefficients and state samples on the sweep's grid, by forward induction from q_a."""
    N, (n, m), blocks = sweep.N, sweep.dims, sweep.blocks
    q_a = np.asarray(q_a, dtype=float)
    if q_a.shape != (n,):
        raise DimensionMismatch(f"q_a has shape {q_a.shape}, sweep expects {(n,)}")
    if not np.isfinite(q_a).all():
        raise ValidationError(f"q_a is not finite: {q_a.tolist()}")
    U = np.empty((N, m))
    q_nodes = np.empty((N + 1, n))
    q_nodes[0] = q_a
    y1, z = np.ones(n + 1), np.ones(n + m + 1)  # [q(s_i); 1] and [q(s_i); U_i; 1]
    for feedback, step, u, q, q_next in zip(sweep.feedback, blocks.step, U, q_nodes[:-1], q_nodes[1:]):
        y1[:n] = z[:n] = q
        np.matmul(feedback, y1, out=u)
        z[n:-1] = u
        np.matmul(step, z, out=q_next)
    return SampledSolution(grid=blocks.grid, U=U, q_nodes=q_nodes, predicted_cost=value_function(sweep, 0, q_a))


def value_function(sweep: RiccatiSweep, j: int, y: np.ndarray) -> float:
    """V_j(y) = 1/2 [y; 1]^T V_j [y; 1] = 1/2 <K_j y, y> + <J_j, y> + 1/2 Y_j.

    A y that is not finite raises `ValidationError`; a finite y whose value overflows, `NonFinite`.
    """
    if not _is_integer(j) or not 0 <= j <= sweep.N:
        raise IndexOutOfRange(f"value function index {j!r} is not an integer in range for N={sweep.N}")
    y = np.asarray(y, dtype=float)
    n = sweep.dims[0]
    if y.shape != (n,):
        raise DimensionMismatch(f"y has shape {y.shape}, expected {(n,)}")
    if not np.isfinite(y).all():
        raise ValidationError(f"y is not finite: {y.tolist()}")
    z = np.append(y, 1.0)
    with np.errstate(over="ignore", invalid="ignore"):
        value = float(0.5 * (z @ (sweep.V[j] @ z)))
    if not np.isfinite(value):
        raise NonFinite(f"value function V_{j} overflowed")
    return value


def solve(p: LQProblem, grid: SamplingGrid, M: int = 64):
    """Full pipeline: blocks, backward sweep, forward synthesis; returns (blocks, sweep, solution)."""
    blocks = compute_all_blocks(p, grid, M)
    sweep = backward_sweep(blocks)
    solution = forward_synthesis(sweep, p.q_a)
    return blocks, sweep, solution
