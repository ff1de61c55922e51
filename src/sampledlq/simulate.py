"""Trajectories, cost evaluation, stationarity residuals, averaged controls.

Every simulation here has one layout.  On interval i the state is the affine
image q = Z q_i + Gamma U_i + xi of the interval's start state and constant
control, so one call of the interval propagation's RK4 kernel forms the
[Z | Gamma | xi] nodes of all N intervals (2M half-steps, 2M+1 stored nodes
each) on the stacked half grids, and one march carries a run across the
joins: it applies interval i's nodes to [q_i; U_i; 1] and takes q_{i+1} from
the last node.  Blocks computed on the same grid and M already hold those
nodes, and `simulate_state` given them only marches.  The march serves one
control (`simulate_state`) and the batch's zero control.  The costate and
the dense run (one interval [a, b] under the forcing B u(t) + omega) need
only a vector, so they form no nodes: `transition._vector_run` composes
each interval's RK4 step maps, and then the interval maps, into one tree,
and fills in the vector at every join and node from it.  The costate runs
backward from p(b) = -S (q(b) - q_b), last interval first, with step
-delta: the half grids and the state nodes are reversed once, so it reads
-A^T and W (q - x) in run order; RK4 stages falling between stored state
nodes use linear interpolation of q.  The dense run's
coefficients are A and B u + omega.  A run is returned alone: its end value
is its last node, which `Trajectory.q_end` and `CostateTrajectory.p_end`
read.

Runs are stored as (N, 2M+1, ...) arrays, so the running cost, the sampled
residual and the averaged control are each one Simpson reduction over them,
with weights `blocks.simpson_weights` reads off the node times, and the cost
quadrature here and the block quadrature integrate the same discrete
functional.  A `Trajectory` records the problem and the control it
ran and a `CostateTrajectory` the state run it followed, so the cost, the
costate and the sampled residual take the problem, the control, the grid and
the nodes from the record alone and cannot be handed another's.

A batch of controls (the oracle's) marches only the zero control.  Its cost
is quadratic in the controls, so each interval's cost about the zero-control
run is one Simpson quadratic form in [dy_i; U_i] on the same nodes, and the
controls enter through those small forms alone, never through node arrays.
The zero control's cost and the forms' linear terms come from the same
Gramian GEMM per interval, on the march's nodes with e0 = q0 - x as last column.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .blocks import IntervalBlocks, simpson_weights
from .errors import DimensionMismatch, InvalidInterval, NodeMismatch, NonFinite, TooLarge
from .problem import LQProblem, SamplingGrid, check_grid
from .transition import _affine_nodes, _half_grid, _horizon_half_grid, _vector_run


@dataclass(frozen=True, eq=False)
class PiecewiseConstantControl:
    """Control held constant on each sampling interval: coefficients U_i."""

    grid: SamplingGrid
    U: np.ndarray  # (N, m)

    def __post_init__(self):
        U = np.array(self.U, dtype=float)  # a copy: the caller's array is not frozen
        if U.ndim == 1:
            U = U[:, None]
        if U.ndim != 2:
            raise DimensionMismatch(f"control coefficients have shape {U.shape}, expected (N, m) or (N,)")
        if U.shape[0] != self.grid.N:
            raise DimensionMismatch(f"{U.shape[0]} coefficients for {self.grid.N} intervals")
        if not np.all(np.isfinite(U)):
            raise NonFinite("control coefficients are not finite")
        U.setflags(write=False)
        object.__setattr__(self, "U", U)

    @property
    def m(self) -> int:
        return self.U.shape[1]

    def __call__(self, t: float) -> np.ndarray:
        """Right-continuous evaluation on [a, b], with u(b) = U_{N-1}; any other t raises `InvalidInterval`."""
        if not self.grid.a <= t <= self.grid.b:  # NaN included
            raise InvalidInterval(f"t = {t!r} is outside the control's grid [{self.grid.a}, {self.grid.b}]")
        idx = int(np.searchsorted(self.grid.s, t, side="right") - 1)
        return self.U[min(idx, self.grid.N - 1)]


@dataclass(frozen=True, eq=False)
class Trajectory:
    """The state run of one control, with the problem and the control it ran."""

    problem: LQProblem
    control: PiecewiseConstantControl
    times: np.ndarray  # (N, 2M+1) node times; times[i] is interval i's
    qs: np.ndarray     # (N, 2M+1, n) states

    @property
    def q_end(self) -> np.ndarray:
        """q(b), the last node of the run."""
        return self.qs[-1, -1]

    @property
    def grid(self) -> SamplingGrid:
        return self.control.grid

    @property
    def substeps(self) -> int:
        return (self.times.shape[1] - 1) // 2


@dataclass(frozen=True, eq=False)
class CostateTrajectory:
    """The costate along one state run, with that run."""

    state: Trajectory
    ps: np.ndarray     # (N, 2M+1, n), on state.times

    @property
    def p_end(self) -> np.ndarray:
        """p(b) = -S (q(b) - q_b), the last node of the run."""
        return self.ps[-1, -1]


def _march(nodes: np.ndarray, y: np.ndarray, inputs: np.ndarray):
    """Carry one run across the interval joins on per-interval affine nodes.

    nodes (N, 2M+1, n, n+c) hold each interval's [Z | G] in the order the
    run visits the intervals, y (n,) the start value and inputs (N, c) each
    interval's constant input.  On interval i the run is
    Y_i = nodes[i] [y_i; inputs[i]] with node 0 set to y_i itself (nodes[i, 0]
    is [Id | 0]), so the joins are exact, and y_{i+1} = Y_i[-1]: one GEMV of
    nodes[i]'s stacked rows after node 0 into row i of the output.  Returns
    the runs (N, 2M+1, n), whose last node is the final value.  A run that
    overflows anywhere raises NonFinite once it is done: non-finite values
    carry forward, and the overflowed interval's run stays in the output.
    """
    N, K, n, w = nodes.shape
    ys = np.empty((N, K, n))
    zs = np.empty((N, w))  # [y_i; inputs[i]], y_i filled as the run reaches it
    zs[:, n:] = inputs
    ys[0, 0] = y
    with np.errstate(over="ignore", invalid="ignore"):
        for Z, z, run in zip(nodes[:, 1:].reshape(N, -1, w), zs, ys[:, 1:].reshape(N, -1)):
            z[:n] = y
            np.matmul(Z, z, out=run)
            y = run[-n:]
    ys[1:, 0] = ys[:-1, -1]
    if not np.all(np.isfinite(ys)):
        raise NonFinite("simulation diverged")
    return ys


def _running_cost(p: LQProblem, times: np.ndarray, qs: np.ndarray, us: np.ndarray) -> np.ndarray:
    """1/2 int <W(q-x), q-x> + <R(u-v), u-v> by composite Simpson, one value per interval.

    times (..., 2M+1) are equally spaced node times, qs (..., 2M+1, n) the
    state nodes and us (..., 2M+1 or 1, m) the controls at the nodes or
    constant over them; returns (...).  A finite state too
    large for its cost to be finite raises NonFinite.
    """
    w = simpson_weights(times)
    e = qs - p.x_ref.eval_many(times)
    du = us - p.v_ref.eval_many(times)
    with np.errstate(over="ignore", invalid="ignore"):
        We = (p.W.eval_many(times) @ e[..., None])[..., 0]
        Rdu = (p.R.eval_many(times) @ du[..., None])[..., 0]
        cost = 0.5 * (np.einsum("...k,...ka,...ka->...", w, We, e)
                      + np.einsum("...k,...ka,...ka->...", w, Rdu, du))
    if not np.all(np.isfinite(cost)):
        raise NonFinite("running cost is not finite")
    return cost


def simulate_state(
    p: LQProblem, u: PiecewiseConstantControl, M: int = 64, blocks: Optional[IntervalBlocks] = None
) -> Trajectory:
    """Integrate dq/dt = A q + B U_i + omega from q(a) = q_a; the run records p and u.

    One kernel call forms every interval's [Z | Gamma | xi] nodes, and the
    march applies them to [q_i; U_i; 1].  Given p's blocks on u's grid at
    M, the march applies the nodes they hold instead, which are bitwise the
    same.  The A, B and omega objects the blocks record alone fix those
    nodes, their sizes included: blocks computed from other objects than
    p's, or whose node times are not this grid's at M, raise NodeMismatch;
    other q_a, weights or S keep them, as `dataclasses.replace(p, q_a=...)`
    does.
    """
    if u.m != p.m:
        raise DimensionMismatch(f"control has m={u.m}, problem has m={p.m}")
    grid = u.grid
    check_grid(p, grid)
    half, delta = _horizon_half_grid(grid, M)
    times = half[:, ::2]
    if blocks is None:
        nodes = _affine_nodes(p, half, delta)
    elif any(c is not d for c, d in zip(blocks.dynamics, (p.A, p.B, p.omega))):
        raise NodeMismatch("blocks were computed for other dynamics (A, B or omega)")
    elif not np.array_equal(blocks.times, times):
        raise NodeMismatch(f"blocks were not computed on this grid at M={M}")
    else:
        nodes = blocks.Ys
    qs = _march(nodes, p.q_a, np.hstack((u.U, np.ones((grid.N, 1)))))
    return Trajectory(problem=p, control=u, times=times, qs=qs)


def terminal_cost(p: LQProblem, q_end: np.ndarray) -> float:
    d = q_end - p.q_b
    return float(0.5 * (d @ (p.S @ d)))


def running_costs(traj: Trajectory) -> np.ndarray:
    """Per-interval values of 1/2 int [<W(q-x), q-x> + <R(U_i-v), U_i-v>] on traj, under the problem it ran."""
    return _running_cost(traj.problem, traj.times, traj.qs, traj.control.U[:, None])


def evaluate_cost(traj: Trajectory) -> float:
    """C(u) of traj's control u by composite Simpson on the trajectory nodes plus the terminal term."""
    return float(np.sum(running_costs(traj)) + terminal_cost(traj.problem, traj.q_end))


def _costate(p: LQProblem, half: np.ndarray, delta: np.ndarray, qs: np.ndarray, p_end: np.ndarray) -> np.ndarray:
    """Costate nodes (N, 2M+1, n) of dp/dt = -A^T p + W (q - x), run backward from p_end at the last time.

    half (N, 4M+1) are the stacked half grids with steps delta (N,) and qs
    (N, 2M+1, n) the state nodes on them; q at half-step stages is the
    average of the adjacent nodes.  One vector run takes the last interval
    first, on the reversed half grids with step -delta.  half and qs are
    reversed once, so a chunk of rows reads -A^T (one matrix when A is
    constant) and W (q - x) in run order.
    """
    half, qs = half[::-1, ::-1], qs[::-1, ::-1]

    def coefficients(rows):
        h, q = half[rows], qs[rows]
        e = np.empty(h.shape + q.shape[-1:])
        e[..., ::2, :] = q
        e[..., 1::2, :] = 0.5 * (q[..., 1:, :] + q[..., :-1, :])
        e -= p.x_ref.eval_many(h)
        A = p.A.eval_many(p.a if p.A.kind == "constant" else h)
        return np.negative(np.swapaxes(A, -1, -2)), np.einsum("...ab,...b->...a", p.W.eval_many(h), e)

    try:
        return _vector_run(coefficients, -delta[::-1], p_end, (half.shape[-1] - 1) // 2)[::-1, ::-1]
    except MemoryError:
        M = (half.shape[-1] - 1) // 4
        raise TooLarge(f"M = {M} substeps: the costate's 2M+1 RK4 nodes do not fit in memory") from None


def simulate_costate(traj: Trajectory, M: int = 64) -> CostateTrajectory:
    """Integrate the costate backward from p(b) = -S (q(b) - q_b) along traj, under the problem it ran."""
    if traj.substeps != M:
        raise NodeMismatch(f"trajectory was stored with M={traj.substeps}, asked for M={M}")
    p = traj.problem
    half, delta = _horizon_half_grid(traj.grid, M)
    ps = _costate(p, half, delta, traj.qs, -(p.S @ (traj.q_end - p.q_b)))
    return CostateTrajectory(state=traj, ps=ps)


def pmp_residual_sampled(costate: CostateTrajectory) -> np.ndarray:
    """Residuals r_i = U_i - Rbar_i^{-1} (RV_i + int B^T p ds) per interval, for the state run's problem and control."""
    traj = costate.state
    p = traj.problem
    times = traj.times
    w = simpson_weights(times)
    R = p.R.eval_many(times)
    Rbar = np.einsum("ik,ikab->iab", w, R)
    RV = np.einsum("ik,ikab,ikb->ia", w, R, p.v_ref.eval_many(times))
    integral = np.einsum("ik,ikab,ika->ib", w, p.B.eval_many(times), costate.ps)
    Rbar = 0.5 * (Rbar + np.swapaxes(Rbar, -1, -2))
    return traj.control.U - np.linalg.solve(Rbar, (RV + integral)[..., None])[..., 0]


def _eval_control_function(u_fn: Callable, ts: np.ndarray, m: int) -> np.ndarray:
    vals = np.empty((ts.shape[0], m))
    for k, t in enumerate(ts):
        val = np.atleast_1d(np.asarray(u_fn(float(t)), dtype=float))
        if val.shape != (m,):
            raise DimensionMismatch(f"control function returned shape {val.shape}, expected ({m},)")
        vals[k] = val
    if not np.all(np.isfinite(vals)):
        raise NonFinite("control function returned non-finite values")
    return vals


def _dense_state(p: LQProblem, u_fn: Callable, M: int):
    """Half grid, step, control values on it and state nodes of u_fn over [a, b], 2M RK4 steps.

    [a, b] is one interval of a vector run from q_a under the coefficients
    A and B u + omega.  A run that does not fit in memory raises `TooLarge`.
    """
    half, delta = _half_grid(p.a, p.b, M)
    u_half = _eval_control_function(u_fn, half, p.m)

    def coefficients(rows):
        C = np.matmul(p.B.eval_many(half), u_half[..., None])[None, ..., 0]
        C += p.omega.eval_many(half)
        return p.A.eval_many(p.a if p.A.kind == "constant" else half[None]), C

    try:
        return half, delta, u_half, _vector_run(coefficients, np.array([delta]), p.q_a, 2 * M)[0]
    except MemoryError:
        raise TooLarge(f"M = {M} substeps: the dense run's 2M+1 RK4 nodes do not fit in memory") from None


def pmp_residual_permanent(p: LQProblem, u_fn: Callable, M: int = 512) -> float:
    """max_t || u(t) - v(t) - R(t)^{-1} B(t)^T p(t) || under the control u_fn.

    State and costate are integrated densely over [a, b] with 2M RK4 steps.
    """
    half, delta, u_half, qs = _dense_state(p, u_fn, M)
    ps = _costate(p, half[None], np.array([delta]), qs[None], -(p.S @ (qs[-1] - p.q_b)))[0]

    nodes = half[::2]
    Rn = p.R.eval_many(nodes)
    Bn = p.B.eval_many(nodes)
    vn = p.v_ref.eval_many(nodes)
    rhs = np.einsum("kab,ka->kb", Bn, ps)
    pull = np.linalg.solve(Rn, rhs[..., None])[..., 0]
    res = u_half[::2] - vn - pull
    return float(np.max(np.linalg.norm(res, axis=1)))


def cost_of_permanent(p: LQProblem, u_fn: Callable, M: int = 512) -> float:
    """C(u_fn) for an arbitrary (not piecewise-constant) control, densely simulated."""
    half, _, u_half, qs = _dense_state(p, u_fn, M)
    running = _running_cost(p, half[::2], qs, u_half[::2])
    return float(running + terminal_cost(p, qs[-1]))


def averaged_control(u_fn: Callable, grid: SamplingGrid, M: int = 64) -> PiecewiseConstantControl:
    """Interval means U_i = (1/h_i) int u(s) ds; m is the size of u_fn's values.

    A `PiecewiseConstantControl`'s are exact, M unused: its steps summed over
    the pieces between both grids' sample times.  A callable's are by composite Simpson.
    """
    if isinstance(u_fn, PiecewiseConstantControl):
        ref = u_fn.grid
        if grid.a < ref.a or grid.b > ref.b:
            raise InvalidInterval(f"grid spans [{grid.a}, {grid.b}], beyond the control's grid [{ref.a}, {ref.b}]")
        t = np.union1d(grid.s, ref.s[(ref.s > grid.a) & (ref.s < grid.b)])  # the pieces' ends
        j = np.searchsorted(ref.s, t[:-1], side="right") - 1  # each piece's interval in the control's grid
        steps = np.diff(t)[:, None] * u_fn.U[j]  # each piece's integral
        return PiecewiseConstantControl(grid, np.add.reduceat(steps, np.searchsorted(t, grid.s[:-1])) / grid.h[:, None])
    half, _ = _horizon_half_grid(grid, M)
    nodes = half[:, ::2]
    m = np.size(u_fn(float(nodes[0, 0])))
    vals = _eval_control_function(u_fn, nodes.ravel(), m).reshape(nodes.shape + (m,))
    w = simpson_weights(nodes)
    return PiecewiseConstantControl(grid=grid, U=np.einsum("ik,ika->ia", w, vals) / grid.h[:, None])


def costs_of_control_batch(p: LQProblem, grid: SamplingGrid, Us: np.ndarray, M: int = 64) -> np.ndarray:
    """C(u) for a batch of piecewise-constant controls, shape (L, N, m) -> (L,).

    Equal to simulate_state + evaluate_cost per control up to rounding, with
    the cost taken about the zero control.  One march of U = 0 gives each
    interval's running cost c0_i and the tracking error e0 = q0 - x at the
    nodes.  A control moves the state on interval i by D_i dz_i, with
    D = [Z | Gamma] the unit responses and dz_i = [dy_i; U_i], where
    dy_0 = 0 and dy_{i+1} = D_i(s_{i+1}) dz_i.  Its running cost there is
    c0_i + <g_i, dz_i> + 1/2 <H_i dz_i, dz_i>, with the Simpson integrals

        H_i = int D^T W D, plus int R on the U corner
        g_i = int D^T W e0, minus int R v on the U rows

    on the nodes of the zero-control run, and its terminal cost is taken at
    q0(b) + dy_N, as the offset (q0(b) - q_b) + dy_N.  After the march e0
    replaces the nodes' xi column: int [D | e0]^T W [D | e0] holds the W parts
    of H, g and 2 c0_i, and one product R v their R parts.  The controls meet
    only the (n+m)-sized forms, so no node array is L wide.  Rounding
    scales with the zero-control error e0 and each control's response
    D dz, not with |q|: a run far from the origin but on target loses
    nothing to the size of its state.  Forms that do not fit in memory
    raise `TooLarge`.
    """
    Us = np.asarray(Us, dtype=float)
    if Us.ndim != 3 or Us.shape[1] != grid.N or Us.shape[2] != p.m:
        raise DimensionMismatch(f"control batch has shape {Us.shape}, expected (L, {grid.N}, {p.m})")
    check_grid(p, grid)
    n, m = p.n, p.m
    half, delta = _horizon_half_grid(grid, M)
    times = half[:, ::2]
    nodes = _affine_nodes(p, half, delta)
    try:
        q0 = _march(nodes, p.q_a, np.hstack((np.zeros((grid.N, m)), np.ones((grid.N, 1)))))

        w = simpson_weights(times)  # (N, 2M+1)
        D = nodes[..., :-1]
        flat = (grid.N, -1, n + m + 1)  # the nodes' rows stacked, for one GEMM per interval
        with np.errstate(over="ignore", invalid="ignore"):
            nodes[..., -1] = q0 - p.x_ref.eval_many(times)  # e0 in place of xi, which the march has used
            wWY = w[..., None, None] * (p.W.eval_many(times) @ nodes)
            G = np.swapaxes(nodes.reshape(flat), 1, 2) @ wWY.reshape(flat)
            R, v = p.R.eval_many(times), p.v_ref.eval_many(times)
            Rv = np.einsum("ikab,ikb->ika", R, v)
            H = G[:, :-1, :-1]
            H[:, n:, n:] += np.einsum("ik,ikab->iab", w, R)
            g = G[:, :-1, -1]
            g[:, n:] -= np.einsum("ik,ika->ia", w, Rv)
            c0 = 0.5 * (G[:, -1, -1] + np.einsum("ik,ika,ika->i", w, Rv, v))

            dz = np.empty((grid.N, n + m, Us.shape[0]))
            dz[:, n:] = Us.transpose(1, 2, 0)
            dy = np.zeros((n, Us.shape[0]))
            for i in range(grid.N):
                dz[i, :n] = dy
                dy = D[i, -1] @ dz[i]
            d = (q0[-1, -1] - p.q_b)[:, None] + dy
            costs = (np.sum(c0) + np.einsum("ial,ial->l", dz, g[..., None] + 0.5 * (H @ dz))
                     + 0.5 * np.einsum("al,al->l", p.S @ d, d))
    except MemoryError:
        raise TooLarge(f"M = {M} substeps: the batch's forms for {Us.shape[0]} controls do not fit in memory") from None
    if not np.all(np.isfinite(costs)):
        raise NonFinite("batch cost is not finite")
    return costs
