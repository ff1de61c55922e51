"""Trajectories, cost evaluation, stationarity residuals, averaged controls.

Every simulation here runs the interval propagation's RK4 kernel
(`transition._rk4_linear`) with its node layout (2M half-steps, 2M+1 stored
nodes per interval), so the cost quadrature here and the block quadrature
integrate the same discrete functional.  The costate runs backward from
p(b) = -S (q(b) - q_b): the same kernel, fed -A^T and the forcing on the
reversed half grid with step -delta.  RK4 stages falling between stored state
nodes still use linear interpolation of q.

State runs carry a trailing batch axis L of controls (one control is a batch
of one), and one Simpson quadrature gives the running cost of every run.
Piecewise-constant controls, single or batched, go through the step maps of
the m+1 forcing columns [B | omega], applied to [U; 1] for the whole batch.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
from scipy.linalg import cho_factor, cho_solve

from .blocks import simpson_weights
from .errors import DimensionMismatch, NodeMismatch, NonFinite, ValidationError
from .problem import LQProblem, SamplingGrid
from .transition import _rk4_linear, _run_maps, _step_maps


@dataclass(frozen=True, eq=False)
class PiecewiseConstantControl:
    """Control held constant on each sampling interval: coefficients U_i."""

    grid: SamplingGrid
    U: np.ndarray  # (N, m)

    def __post_init__(self):
        U = np.asarray(self.U, dtype=float)
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


def _half_grid(lo: float, hi: float, h: float, M: int):
    """The 4M+1 RK4 half-step times on [lo, hi] and the step delta = h / 2M."""
    if M < 1:
        raise ValidationError(f"need M >= 1, got {M}")
    return np.linspace(lo, hi, 4 * M + 1), h / (2 * M)


def _interval_half_grid(grid: SamplingGrid, i: int, M: int):
    return _half_grid(grid.s[i], grid.s[i + 1], float(grid.h[i]), M)


def _check_control_dim(p: LQProblem, m: int) -> None:
    if m != p.m:
        raise DimensionMismatch(f"control has m={m}, problem has m={p.m}")


def _states(p: LQProblem, half: np.ndarray, delta: float, q: np.ndarray, U: np.ndarray) -> np.ndarray:
    """State nodes (2M+1, n, L) of dq/dt = A q + B u + omega from q (n, L).

    U holds the controls as (m, L), constant over half, or as (4M+1, m, L).
    For constant U no L-wide forcing meets the stage formulas.
    """
    _check_control_dim(p, U.shape[-2])
    As = p.A.eval_many(half)
    B, omega = p.B.eval_many(half), p.omega.eval_many(half)[..., None]
    if U.ndim == 3:
        return _rk4_linear(As, B @ U + omega, q, delta)
    Phi, Psi = _step_maps(As, np.concatenate((B, omega), axis=-1), delta)
    return _run_maps(Phi, Psi @ np.vstack((U, np.ones((1, U.shape[1])))), q)


def _running_cost(p: LQProblem, nodes: np.ndarray, delta: float, qs: np.ndarray, us: np.ndarray) -> np.ndarray:
    """1/2 int <W(q-x), q-x> + <R(u-v), u-v> by composite Simpson, one value per run.

    qs (2M+1, n, L) are state nodes; us holds the controls as (m, L) or (2M+1, m, L).
    """
    _check_control_dim(p, us.shape[-2])
    w = simpson_weights(nodes.shape[0], delta)
    e = qs - p.x_ref.eval_many(nodes)[..., None]
    du = us - p.v_ref.eval_many(nodes)[..., None]
    We = p.W.eval_many(nodes) @ e
    Rdu = p.R.eval_many(nodes) @ du
    return 0.5 * (np.einsum("k,kal,kal->l", w, We, e) + np.einsum("k,kal,kal->l", w, Rdu, du))


def simulate_state(p: LQProblem, u: PiecewiseConstantControl, M: int = 64) -> Trajectory:
    """Integrate dq/dt = A q + B U_i + omega from q(a) = q_a."""
    grid = u.grid
    q = np.asarray(p.q_a, dtype=float)[:, None]
    times = []
    qs = []
    for i in range(grid.N):
        half, delta = _interval_half_grid(grid, i, M)
        nodes = _states(p, half, delta, q, u.U[i][:, None])
        times.append(half[::2])
        qs.append(nodes[..., 0])
        q = nodes[-1]
    if not np.all(np.isfinite(q)):
        raise NonFinite("state simulation diverged")
    return Trajectory(grid=grid, times=tuple(times), qs=tuple(qs), q_end=q[:, 0])


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


def _costate_nodes(p: LQProblem, half: np.ndarray, delta: float, qs: np.ndarray, p_hi: np.ndarray) -> np.ndarray:
    """RK4 nodes of dp/dt = -A^T p + W (q - x), run backward from p_hi at half[-1].

    qs are the 2M+1 stored state nodes, and q at half-step stages is the
    average of the adjacent nodes.
    """
    q_half = np.empty(half.shape + qs.shape[1:])
    q_half[::2] = qs
    q_half[1::2] = 0.5 * (qs[:-1] + qs[1:])
    forcing = (p.W.eval_many(half) @ (q_half - p.x_ref.eval_many(half))[..., None])[..., 0]
    minus_At = -np.swapaxes(p.A.eval_many(half), 1, 2)
    return _rk4_linear(minus_At[::-1], forcing[::-1], p_hi, -delta)[::-1]


def simulate_costate(p: LQProblem, traj: Trajectory, M: int = 64) -> CostateTrajectory:
    """Integrate the costate backward from p(b) = -S (q(b) - q_b) along traj."""
    if traj.substeps != M:
        raise NodeMismatch(f"trajectory was stored with M={traj.substeps}, asked for M={M}")
    grid = traj.grid
    p_end = -(p.S @ (traj.q_end - p.q_b))
    ps = [None] * grid.N
    p_hi = p_end
    for i in range(grid.N - 1, -1, -1):
        half, delta = _interval_half_grid(grid, i, M)
        nodes = _costate_nodes(p, half, delta, traj.qs[i], p_hi)
        ps[i] = nodes
        p_hi = nodes[0]
    if not np.all(np.isfinite(p_hi)):
        raise NonFinite("costate simulation diverged")
    return CostateTrajectory(grid=grid, times=traj.times, ps=tuple(ps), p_end=p_end)


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
    if not np.all(np.isfinite(qs[-1])):
        raise NonFinite("state simulation diverged")
    return half, delta, u_half, qs


def pmp_residual_permanent(p: LQProblem, u_fn: Callable, M: int = 512) -> float:
    """max_t || u(t) - v(t) - R(t)^{-1} B(t)^T p(t) || under the control u_fn.

    State and costate are integrated densely over [a, b] with 2M RK4 steps.
    """
    half, delta, u_half, qs = _dense_state(p, u_fn, M)
    ps = _costate_nodes(p, half, delta, qs, -(p.S @ (qs[-1] - p.q_b)))

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
        q = qs[-1]
        total += _running_cost(p, half[::2], delta, qs, Ucol)
    if not np.all(np.isfinite(q)):
        raise NonFinite("state simulation diverged in batch")
    d = q - p.q_b[:, None]
    return total + 0.5 * np.einsum("al,al->l", p.S @ d, d)
