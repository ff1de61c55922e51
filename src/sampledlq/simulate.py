"""Trajectories, cost evaluation, stationarity residuals, averaged controls.

Every simulation here runs the interval propagation's RK4 kernel (the step
maps of `transition._step_maps`, run by the prefix scan `_run_maps`) with its
node layout (2M half-steps, 2M+1 stored nodes per interval), so the cost
quadrature here and the block quadrature integrate the same discrete
functional.  The state and costate runs of a piecewise-constant control each
form the step maps of all N intervals in one call on the stacked half grids
and scan all N*2M of them in one pass; each interval's nodes are slices of
that one array, so neighbouring intervals share their joining node exactly.
The costate runs backward from p(b) = -S (q(b) - q_b): the same kernel, fed
-A^T and the forcing on the reversed half grids with step -delta.  RK4 stages
falling between stored state nodes still use linear interpolation of q.

One Simpson quadrature gives the running cost of every run.  A single
piecewise-constant control's horizon run applies the step maps of the m+1
forcing columns [B | omega] to [U_i; 1] before the scan.  A batch of L
controls (the oracle's) runs one interval at a time, with a trailing axis
L, and applies the interval's [Z | Gamma | xi] nodes to [q; U; 1] after
the scan, so no L-wide array is scanned.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
from scipy.linalg import cho_factor, cho_solve

from .blocks import simpson_weights
from .errors import DimensionMismatch, NodeMismatch, NonFinite
from .problem import LQProblem, SamplingGrid
from .transition import (
    _affine_nodes, _half_grid, _horizon_half_grid, _interval_half_grid, _rk4_linear, _run_maps, _step_maps,
)


@dataclass(frozen=True, eq=False)
class PiecewiseConstantControl:
    """Control held constant on each sampling interval: coefficients U_i."""

    grid: SamplingGrid
    U: np.ndarray  # (N, m)

    def __post_init__(self):
        U = np.array(self.U, dtype=float)  # a copy: the caller's array is not frozen
        if U.ndim == 1:
            U = U[:, None]
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
        """Right-continuous evaluation, with u(b) = U_{N-1}."""
        idx = int(np.searchsorted(self.grid.s, t, side="right") - 1)
        idx = min(max(idx, 0), self.grid.N - 1)
        return self.U[idx]


@dataclass(frozen=True, eq=False)
class Trajectory:
    grid: SamplingGrid
    times: tuple   # per interval, (2M+1,) node times
    qs: tuple      # per interval, (2M+1, n) states
    q_end: np.ndarray

    @property
    def substeps(self) -> int:
        return (self.times[0].shape[0] - 1) // 2


@dataclass(frozen=True, eq=False)
class CostateTrajectory:
    grid: SamplingGrid
    times: tuple
    ps: tuple
    p_end: np.ndarray

    @property
    def substeps(self) -> int:
        return (self.times[0].shape[0] - 1) // 2


def _same_grid(g1: SamplingGrid, g2: SamplingGrid) -> bool:
    return g1 is g2 or (np.array_equal(g1.s, g2.s))


def _check_control_dim(p: LQProblem, m: int) -> None:
    if m != p.m:
        raise DimensionMismatch(f"control has m={m}, problem has m={p.m}")


def _eval(cf, times: np.ndarray) -> np.ndarray:
    """Values of a coefficient at an array of times of any shape."""
    return cf.eval_many(times.ravel()).reshape(times.shape + cf.shape)


def _per_interval(nodes: np.ndarray, M: int) -> tuple:
    """Each interval's 2M+1 nodes as views of one horizon array of N*2M+1 nodes."""
    return tuple(nodes[k : k + 2 * M + 1] for k in range(0, nodes.shape[0] - 1, 2 * M))


def _states(p: LQProblem, half: np.ndarray, delta: float, q: np.ndarray, U: np.ndarray) -> np.ndarray:
    """State nodes (2M+1, n, L) of dq/dt = A q + B u + omega from q (n, L).

    U holds the controls as (m, L), constant over half, or as (4M+1, m, L).
    For constant U the nodes of all runs are [Z | Gamma | xi] [q; U; 1], one
    matrix product on the interval's affine nodes: no L-wide array meets
    the stage formulas or the scan.
    """
    _check_control_dim(p, U.shape[-2])
    if U.ndim == 3:
        Cs = p.B.eval_many(half) @ U + p.omega.eval_many(half)[..., None]
        return _rk4_linear(p.A.eval_many(half), Cs, q, delta)
    Ys = _affine_nodes(p, half, delta)
    runs = np.vstack((q, U, np.ones((1, U.shape[1]))))
    return (Ys.reshape(-1, Ys.shape[-1]) @ runs).reshape(Ys.shape[:2] + (-1,))


def _running_cost(p: LQProblem, nodes: np.ndarray, delta: float, qs: np.ndarray, us: np.ndarray) -> np.ndarray:
    """1/2 int <W(q-x), q-x> + <R(u-v), u-v> by composite Simpson, one value per run.

    qs (2M+1, n, L) are state nodes; us holds the controls as (m, L) or (2M+1, m, L).
    A finite state too large for its cost to be finite raises NonFinite.
    """
    _check_control_dim(p, us.shape[-2])
    w = simpson_weights(nodes.shape[0], delta)
    e = qs - p.x_ref.eval_many(nodes)[..., None]
    du = us - p.v_ref.eval_many(nodes)[..., None]
    with np.errstate(over="ignore", invalid="ignore"):
        We = p.W.eval_many(nodes) @ e
        Rdu = p.R.eval_many(nodes) @ du
        cost = 0.5 * (np.einsum("k,kal,kal->l", w, We, e) + np.einsum("k,kal,kal->l", w, Rdu, du))
    if not np.all(np.isfinite(cost)):
        raise NonFinite("running cost is not finite")
    return cost


def simulate_state(p: LQProblem, u: PiecewiseConstantControl, M: int = 64) -> Trajectory:
    """Integrate dq/dt = A q + B U_i + omega from q(a) = q_a.

    One pass forms the step maps of [B | omega] on every interval, applies
    each interval's to [U_i; 1], and scans all N*2M maps from q_a.
    """
    _check_control_dim(p, u.m)
    grid = u.grid
    half, delta = _horizon_half_grid(grid, M)
    B, omega = _eval(p.B, half), _eval(p.omega, half)[..., None]
    Phi, Psi = _step_maps(_eval(p.A, half), np.concatenate((B, omega), axis=-1), delta)
    psi = Psi @ np.hstack((u.U, np.ones((grid.N, 1))))[:, None, :, None]
    qs = _run_maps(Phi.reshape(-1, p.n, p.n), psi.reshape(-1, p.n), np.asarray(p.q_a, dtype=float))
    if not np.all(np.isfinite(qs)):
        raise NonFinite("state simulation diverged")
    return Trajectory(grid=grid, times=tuple(half[:, ::2]), qs=_per_interval(qs, M), q_end=qs[-1])


def terminal_cost(p: LQProblem, q_end: np.ndarray) -> float:
    d = q_end - p.q_b
    return float(0.5 * (d @ (p.S @ d)))


def running_costs(p: LQProblem, u: PiecewiseConstantControl, traj: Trajectory) -> np.ndarray:
    """Per-interval values of 1/2 int [<W(q-x), q-x> + <R(U_i-v), U_i-v>]."""
    if not _same_grid(traj.grid, u.grid):
        raise NodeMismatch("trajectory and control use different grids")
    grid = traj.grid
    out = np.empty(grid.N)
    for i in range(grid.N):
        nodes = traj.times[i]
        delta = float(grid.h[i]) / (nodes.shape[0] - 1)
        out[i] = _running_cost(p, nodes, delta, traj.qs[i][..., None], u.U[i][:, None])[0]
    return out


def evaluate_cost(p: LQProblem, u: PiecewiseConstantControl, traj: Trajectory) -> float:
    """C(u) by composite Simpson on the trajectory nodes plus the terminal term."""
    return float(np.sum(running_costs(p, u, traj)) + terminal_cost(p, traj.q_end))


def _costate_nodes(p: LQProblem, half: np.ndarray, delta, qs: np.ndarray, p_hi: np.ndarray) -> np.ndarray:
    """RK4 nodes (1 + steps, n) of dp/dt = -A^T p + W (q - x), run backward from p_hi at the last time.

    half is one half grid (4M+1,) with a scalar delta, or a stack (N, 4M+1)
    with deltas (N,); qs (..., 2M+1, n) are the stored state nodes on them,
    and q at half-step stages is the average of the adjacent nodes.  The
    reversed grids run back to back; the nodes come back in forward order.
    """
    q_half = np.empty(half.shape + qs.shape[-1:])
    q_half[..., ::2, :] = qs
    q_half[..., 1::2, :] = 0.5 * (qs[..., :-1, :] + qs[..., 1:, :])
    forcing = (_eval(p.W, half) @ (q_half - _eval(p.x_ref, half))[..., None])[..., 0]
    minus_At = -np.swapaxes(_eval(p.A, half), -1, -2)
    axes = tuple(range(half.ndim))
    return _rk4_linear(np.flip(minus_At, axes), np.flip(forcing, axes), p_hi, -np.flip(delta))[::-1]


def simulate_costate(p: LQProblem, traj: Trajectory, M: int = 64) -> CostateTrajectory:
    """Integrate the costate backward from p(b) = -S (q(b) - q_b) along traj."""
    if traj.substeps != M:
        raise NodeMismatch(f"trajectory was stored with M={traj.substeps}, asked for M={M}")
    half, delta = _horizon_half_grid(traj.grid, M)
    p_end = -(p.S @ (traj.q_end - p.q_b))
    ps = _costate_nodes(p, half, delta, np.stack(traj.qs), p_end)
    if not np.all(np.isfinite(ps)):
        raise NonFinite("costate simulation diverged")
    return CostateTrajectory(grid=traj.grid, times=traj.times, ps=_per_interval(ps, M), p_end=p_end)


def pmp_residual_sampled(p: LQProblem, sol, costate: CostateTrajectory) -> np.ndarray:
    """Residuals r_i = U_i - Rbar_i^{-1} (RV_i + int B^T p ds), one row per interval."""
    grid = costate.grid
    if sol.grid is not None and not _same_grid(sol.grid, grid):
        raise NodeMismatch("solution and costate use different grids")
    U = np.asarray(sol.U, dtype=float)
    if U.shape[0] != grid.N:
        raise NodeMismatch(f"{U.shape[0]} coefficients for {grid.N} intervals")
    out = np.empty_like(U)
    for i in range(grid.N):
        nodes = costate.times[i]
        num = nodes.shape[0]
        w = simpson_weights(num, float(grid.h[i]) / (num - 1))
        Rk = p.R.eval_many(nodes)
        Bk = p.B.eval_many(nodes)
        vk = p.v_ref.eval_many(nodes)
        Rbar = np.einsum("k,kij->ij", w, Rk)
        RV = np.einsum("k,kij,kj->i", w, Rk, vk)
        integral = np.einsum("k,kab,ka->b", w, Bk, costate.ps[i])
        rhs = RV + integral
        out[i] = U[i] - cho_solve(cho_factor(0.5 * (Rbar + Rbar.T), lower=True), rhs)
    return out


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
    """Half grid, step, control values on it and state nodes of u_fn over [a, b], 2M RK4 steps."""
    half, delta = _half_grid(p.a, p.b, p.b - p.a, M)
    u_half = _eval_control_function(u_fn, half, p.m)
    qs = _states(p, half, delta, np.asarray(p.q_a, dtype=float)[:, None], u_half[..., None])[..., 0]
    if not np.all(np.isfinite(qs)):
        raise NonFinite("state simulation diverged")
    return half, delta, u_half, qs


def pmp_residual_permanent(p: LQProblem, u_fn: Callable, M: int = 512) -> float:
    """max_t || u(t) - v(t) - R(t)^{-1} B(t)^T p(t) || under the control u_fn.

    State and costate are integrated densely over [a, b] with 2M RK4 steps.
    """
    half, delta, u_half, qs = _dense_state(p, u_fn, M)
    ps = _costate_nodes(p, half, delta, qs, -(p.S @ (qs[-1] - p.q_b)))
    if not np.all(np.isfinite(ps)):
        raise NonFinite("costate simulation diverged")

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
    half, delta, u_half, qs = _dense_state(p, u_fn, M)
    running = _running_cost(p, half[::2], delta, qs[..., None], u_half[::2, :, None])[0]
    return float(running + terminal_cost(p, qs[-1]))


def averaged_control(u_fn: Callable, grid: SamplingGrid, M: int = 64, m: int = 1) -> PiecewiseConstantControl:
    """Interval means U_i = (1/h_i) int u(s) ds by composite Simpson."""
    U = np.empty((grid.N, m))
    for i in range(grid.N):
        half, delta = _interval_half_grid(grid, i, M)
        nodes = half[::2]
        w = simpson_weights(nodes.shape[0], delta)
        vals = _eval_control_function(u_fn, nodes, m)
        U[i] = (w @ vals) / float(grid.h[i])
    return PiecewiseConstantControl(grid=grid, U=U)


def costs_of_control_batch(p: LQProblem, grid: SamplingGrid, Us: np.ndarray, M: int = 64) -> np.ndarray:
    """C(u) for a batch of piecewise-constant controls, shape (L, N, m) -> (L,).

    Column-for-column equivalent to simulate_state + evaluate_cost per
    control; the RK4 steps and Simpson sums are shared across the batch.
    """
    Us = np.asarray(Us, dtype=float)
    if Us.ndim != 3 or Us.shape[1] != grid.N or Us.shape[2] != p.m:
        raise DimensionMismatch(f"control batch has shape {Us.shape}, expected (L, {grid.N}, {p.m})")
    L = Us.shape[0]
    q = np.broadcast_to(np.asarray(p.q_a, dtype=float)[:, None], (p.n, L)).copy()
    total = np.zeros(L)
    for i in range(grid.N):
        half, delta = _interval_half_grid(grid, i, M)
        Ucol = Us[:, i, :].T
        qs = _states(p, half, delta, q, Ucol)
        if not np.all(np.isfinite(qs)):
            raise NonFinite("state simulation diverged in batch")
        q = qs[-1]
        total += _running_cost(p, half[::2], delta, qs, Ucol)
    d = q - p.q_b[:, None]
    return total + 0.5 * np.einsum("al,al->l", p.S @ d, d)
