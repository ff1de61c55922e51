"""Per-interval affine map and quadratic forms assembled from propagation node data.

On interval i the state is q(tau) = Y(tau) z, with z = [y; U; 1] and
Y = [Z | Gamma | xi] the propagation nodes.  So the interval's step is one
affine map in z and its running cost one quadratic form,

    int <W (q - x), q - x> + <R (U - v), U - v> = z^T state_cost z + [U; 1]^T control_cost [U; 1],

each integrated by composite Simpson on the shared RK4 nodes:

    step         = Y(s_{i+1}), minus q_b in the last column on the last interval
    state_cost   = int [Z | Gamma | xi - x]^T W [Z | Gamma | xi - x]    on z
    control_cost = int [Id | -v]^T R [Id | -v]                          on [U; 1]

The paper's blocks are read-only views into these three arrays (segments
y, U, 1 of z as in `transition.ZView`; RV is negated, a copy):

    Zstep  = step[:, y]   ZWZ        = state_cost[y, y]   Rbar = control_cost[U, U]
    ZB     = step[:, U]   ZBWZ       = state_cost[U, y]   RV   = -control_cost[U, 1]
    ZOmega = step[:, 1]   ZBWZB      = state_cost[U, U]   RV2  = control_cost[1, 1]
                          ZBWZOmegaX = state_cost[U, 1]
                          ZWZOmegaX  = state_cost[y, 1]
                          WZOmegaX2  = state_cost[1, 1]

The blocks also keep the nodes they were integrated on: Ys, the
[Z | Gamma | xi] values, times, their 2M+1 node times, and dynamics, the
problem's A, B and omega objects that alone fix those values.  The state
run of the same dynamics under a control on the same grid and M marches
these nodes (`simulate.simulate_state`) instead of forming them again.

`compute_blocks` gives one interval's arrays; `compute_all_blocks` stacks
every interval's on a leading axis, so row i of step (N, n, n+m+1),
state_cost (N, n+m+1, n+m+1), control_cost (N, m+1, m+1), Ys
(N, 2M+1, n, n+m+1) and times (N, 2M+1) is interval i, and each view above
carries that axis too (blocks.Zstep[i] is interval i's).  The stack is
filled in place, one interval at a time.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from functools import lru_cache

import numpy as np

from .errors import DimensionMismatch, IndexOutOfRange, NodeMismatch, ValidationError
from .problem import LQProblem, SamplingGrid, check_grid
from .transition import IntervalPropagation, ZView, propagate_interval


@dataclass(frozen=True, eq=False)
class IntervalBlocks:
    """One interval's blocks, or every interval's stacked on a leading axis."""

    step: np.ndarray          # ([N,] n, n+m+1), [Zstep | ZB | ZOmega]
    state_cost: np.ndarray    # ([N,] n+m+1, n+m+1)
    control_cost: np.ndarray  # ([N,] m+1, m+1)
    Ys: np.ndarray            # ([N,] 2M+1, n, n+m+1), [Z | Gamma | xi] at the nodes
    times: np.ndarray         # ([N,] 2M+1), the node times
    dynamics: tuple           # the problem's (A, B, omega), which alone fix Ys

    Zstep = ZView("step", ":", "y")
    ZB = ZView("step", ":", "U")
    ZOmega = ZView("step", ":", "1")
    ZWZ = ZView("state_cost", "y", "y")
    ZBWZ = ZView("state_cost", "U", "y")
    ZBWZB = ZView("state_cost", "U", "U")
    ZBWZOmegaX = ZView("state_cost", "U", "1")
    ZWZOmegaX = ZView("state_cost", "y", "1")
    WZOmegaX2 = ZView("state_cost", "1", "1")
    Rbar = ZView("control_cost", "U", "U")
    RV = ZView("control_cost", "U", "1", sign=-1.0)
    RV2 = ZView("control_cost", "1", "1")

    @property
    def dims(self) -> tuple:
        return self.step.shape[-2], self.control_cost.shape[-1] - 1

    @property
    def N(self) -> int:
        """The number of stacked intervals; one interval's unstacked blocks have none."""
        if self.step.ndim != 3:
            raise DimensionMismatch("these are one interval's blocks, not a stack of them")
        return self.step.shape[0]

    def to_jsonable(self, i: int) -> dict:
        """Interval i of the stack: its index and every paper-named block, in table order."""
        if not 0 <= i < self.N:
            raise IndexOutOfRange(f"interval {i} out of range for N={self.N}")
        views = (name for name, view in vars(IntervalBlocks).items() if isinstance(view, ZView))
        return {"i": i, **{name: getattr(self, name)[i].tolist() for name in views}}


@lru_cache(maxsize=8)  # a few node counts per process; bounded, as a pattern is as long as the run
def _simpson_pattern(num_nodes: int) -> np.ndarray:
    """The read-only 1, 4, 2, 4, ..., 2, 4, 1 pattern of composite Simpson."""
    w = np.ones(num_nodes)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    w.setflags(write=False)
    return w


def simpson_weights(num_nodes: int, delta: float) -> np.ndarray:
    """Composite Simpson weights for an odd node count with spacing delta, a fresh array."""
    if num_nodes < 3 or num_nodes % 2 == 0:
        raise ValidationError(f"Simpson needs an odd node count >= 3, got {num_nodes}")
    return _simpson_pattern(num_nodes) * (delta / 3.0)


def compute_blocks(
    p: LQProblem, grid: SamplingGrid, i: int, prop: IntervalPropagation
) -> IntervalBlocks:
    """Assemble the interval blocks from one interval's propagation data."""
    if prop.i != i:
        raise NodeMismatch(f"propagation is for interval {prop.i}, expected {i}")
    nodes = prop.nodes
    if nodes[0] != grid.s[i] or nodes[-1] != grid.s[i + 1]:
        raise NodeMismatch(f"propagation nodes do not span interval {i} of this grid")
    num = nodes.shape[0]
    delta = float(grid.h[i]) / (num - 1)
    w = simpson_weights(num, delta)

    Wk = p.W.eval_many(nodes)
    Rk = p.R.eval_many(nodes)
    xk = p.x_ref.eval_many(nodes)
    vk = p.v_ref.eval_many(nodes)

    Y = prop.Ys.copy()  # [Z | Gamma | xi - x]
    Y[..., -1] -= xk
    Iv = np.empty(vk.shape + (p.m + 1,))  # [Id | -v]
    Iv[..., :-1] = np.eye(p.m)
    np.negative(vk, out=Iv[..., -1])
    state_cost = np.einsum("k,kai,kaj->ij", w, Y, Wk @ Y)
    control_cost = np.einsum("k,kai,kaj->ij", w, Iv, Rk @ Iv)

    step = prop.Ys[-1].copy()
    if i == grid.N - 1:
        step[:, -1] -= p.q_b

    return IntervalBlocks(
        step=step,
        state_cost=0.5 * (state_cost + state_cost.T),
        control_cost=0.5 * (control_cost + control_cost.T),
        Ys=prop.Ys,
        times=nodes,
        dynamics=(p.A, p.B, p.omega),
    )


def compute_all_blocks(p: LQProblem, grid: SamplingGrid, M: int) -> IntervalBlocks:
    """Every interval's blocks stacked on a leading axis, row i interval i; q_a is never an input."""
    if not p.validated:
        raise ValidationError("problem must be validated before computing blocks")
    check_grid(p, grid)
    names = [f.name for f in fields(IntervalBlocks)][:-1]  # the arrays, not dynamics
    stack = None
    for i in range(grid.N):
        row = compute_blocks(p, grid, i, propagate_interval(p, grid, i, M))
        if stack is None:
            arrays = (np.empty((grid.N,) + getattr(row, name).shape) for name in names)
            stack = IntervalBlocks(*arrays, dynamics=row.dynamics)
        for name in names:
            getattr(stack, name)[i] = getattr(row, name)
    return stack
