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

The blocks hold the whole terminal cost: S, the problem's validated,
symmetric terminal weight, beside the -q_b shift the last step carries, so
the backward sweep starts from them alone.  They also keep their grid and
the nodes they were integrated on: Ys, the [Z | Gamma | xi] values, times,
their 2M+1 node times, and dynamics, the problem's A, B and omega objects
that alone fix those values.  The state run of the same dynamics under a
control on the same grid and M marches these nodes
(`simulate.simulate_state`) instead of forming them again, and the forward
synthesis returns its solution on that grid.

`compute_all_blocks` returns one stack: row i of step (N, n, n+m+1),
state_cost (N, n+m+1, n+m+1), control_cost (N, m+1, m+1), Ys
(N, 2M+1, n, n+m+1) and times (N, 2M+1) is interval i, and each view above
carries that axis too (blocks.Zstep[i] is interval i's).
`transition.propagate_interval` runs once per interval, interval i's RK4
recurrence into row i of Ys.  The forms run once per group of intervals:
with A, B, omega, W, x, R and v all constant, every input of an interval's
forms (its nodes, its Simpson weights, W, x, R and v) depends on its length
alone, so intervals of bitwise equal length form one group and take the
forms of its first; otherwise each interval is a group.  `compute_blocks`
forms one group's state_cost with one GEMM, and one batched GEMM forms
every group's control_cost.  The rest runs once per solve: the horizon's
half grids and node times, the table [A | B | omega] and every interval's
RK4 step maps (`transition._affine_maps`, one `eval_many` per coefficient),
the Simpson weights, W, x, R and v (one `eval_many` each) on the groups'
node times, the symmetrization of both forms, and step, read off the
stacked nodes.  Each GEMM stacks an interval's (node, row) pairs:
sum_k w_k F_k^T G_k = (w F)^T G.

`simpson_weights` is the package's one Simpson rule, used by `simulate` too:
it reads the spacing off the node times, so none is passed apart from them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, IndexOutOfRange, NonFinite, TooLarge, ValidationError
from .problem import LQProblem, SamplingGrid, _is_integer, check_grid
from .transition import ZView, _affine_maps, _horizon_half_grid, propagate_interval


@dataclass(frozen=True, eq=False)
class IntervalBlocks:
    """Every interval's blocks, stacked on a leading axis: row i is interval i."""

    step: np.ndarray          # (N, n, n+m+1), [Zstep | ZB | ZOmega]
    state_cost: np.ndarray    # (N, n+m+1, n+m+1)
    control_cost: np.ndarray  # (N, m+1, m+1)
    S: np.ndarray             # (n, n), the terminal weight
    Ys: np.ndarray            # (N, 2M+1, n, n+m+1), [Z | Gamma | xi] at the nodes
    times: np.ndarray         # (N, 2M+1), the node times
    grid: SamplingGrid        # the grid they were computed on
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
        """The number of stacked intervals; a record built without the interval axis has none."""
        if self.step.ndim != 3:
            raise DimensionMismatch("these blocks have no interval axis, so they are not a stack")
        return self.step.shape[0]

    def to_jsonable(self, i: int) -> dict:
        """Interval i of the stack: its index and every paper-named block, in table order."""
        if not _is_integer(i) or not 0 <= i < self.N:
            raise IndexOutOfRange(f"interval {i!r} is not an integer in range for N={self.N}")
        views = (name for name, view in vars(IntervalBlocks).items() if isinstance(view, ZView))
        return {"i": int(i), **{name: getattr(self, name)[i].tolist() for name in views}}


def simpson_weights(times: np.ndarray) -> np.ndarray:
    """Composite Simpson weights (..., K) on equally spaced node times (..., K), K odd >= 3.

    Each row's spacing is read off its ends, (times[-1] - times[0]) / (K - 1).
    """
    K = times.shape[-1]
    if K < 3 or K % 2 == 0:
        raise ValidationError(f"Simpson needs an odd node count >= 3, got {K}")
    w = np.ones(K)  # 1, 4, 2, 4, ..., 2, 4, 1
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return w * (((times[..., -1] - times[..., 0]) / (K - 1))[..., None] / 3.0)


def compute_blocks(w: np.ndarray, Wk: np.ndarray, xk: np.ndarray, Ys: np.ndarray) -> np.ndarray:
    """One interval's state form, not yet symmetrized, by Simpson weights w on its nodes Ys and W, x there."""
    Y = Ys.copy()  # [Z | Gamma | xi - x]
    Y[..., -1] -= xk
    d = Y.shape[-1]  # the weighted nodes' rows stacked, for one GEMM
    return (w[:, None, None] * Y).reshape(-1, d).T @ (Wk @ Y).reshape(-1, d)


def compute_all_blocks(p: LQProblem, grid: SamplingGrid, M: int) -> IntervalBlocks:
    """Every interval's blocks stacked on a leading axis, row i interval i; q_a is never an input.

    With A, B, omega, W, x, R and v all of kind "constant", intervals of
    bitwise equal length s[i+1] - s[i] share one state form and one
    control form, formed on the first of them and bitwise equal to their
    own; any other problem forms each interval's.  Forms that overflow raise `NonFinite`
    naming the first such interval, and stacks or forms that do not fit in
    memory `TooLarge`.
    """
    if not p.validated:
        raise ValidationError("problem must be validated before computing blocks")
    check_grid(p, grid)
    half, delta = _horizon_half_grid(grid, M)
    maps = _affine_maps(p, half, delta)
    try:
        times = half[:, ::2].copy()  # a copy, so the half grids can go
        del half, delta
        Ys = np.empty((grid.N, 2 * M + 1) + maps.shape[-2:])
        for i in range(grid.N):
            Ys[i] = propagate_interval(maps, i, M)
        del maps  # the forms below need only the nodes
        heads, at, rows = range(grid.N), times, slice(None)  # the intervals formed, their node times, each row's form
        if all(cf.kind == "constant" for cf in (p.A, p.B, p.omega, p.W, p.x_ref, p.R, p.v_ref)):
            first = {}  # each distinct length's first interval: the forms depend on the length alone
            own = [first.setdefault(h, i) for i, h in enumerate(np.diff(grid.s).tolist())]
            heads = list(first.values())
            at, rows = times[heads], np.searchsorted(heads, own)
        w = simpson_weights(at)
        Wk, xk = p.W.eval_many(at), p.x_ref.eval_many(at)
        with np.errstate(over="ignore", invalid="ignore"):  # a form that overflows is caught below
            state_cost = np.stack([compute_blocks(w[k], Wk[k], xk[k], Ys[i]) for k, i in enumerate(heads)])
            Iv = np.empty(at.shape + (p.m, p.m + 1))  # [Id | -v]
            Iv[..., :-1] = np.eye(p.m)
            np.negative(p.v_ref.eval_many(at), out=Iv[..., -1])
            RIv = p.R.eval_many(at) @ Iv
            flat = (len(heads), -1, p.m + 1)  # each formed interval's node rows stacked, one GEMM per group
            control_cost = np.swapaxes((w[..., None, None] * Iv).reshape(flat), 1, 2) @ RIv.reshape(flat)
            state_cost, control_cost = (0.5 * (f + np.swapaxes(f, -1, -2)) for f in (state_cost, control_cost))
        finite = np.isfinite(state_cost).all(axis=(1, 2)) & np.isfinite(control_cost).all(axis=(1, 2))
        if not finite.all():  # a shared form's first interval is the first that takes it
            raise NonFinite(f"cost forms overflowed on interval {heads[np.argmin(finite)]}")
        state_cost, control_cost = state_cost[rows], control_cost[rows]
    except MemoryError:
        raise TooLarge(f"N = {grid.N} intervals at M = {M} substeps: the blocks do not fit in memory") from None
    step = Ys[:, -1].copy()
    step[-1, :, -1] -= p.q_b
    return IntervalBlocks(step, state_cost, control_cost, p.S, Ys, times, grid, dynamics=(p.A, p.B, p.omega))

