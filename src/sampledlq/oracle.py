"""Brute-force verification: the sampled problem as an explicit dense QP.

The cost is exactly quadratic in the stacked control vector, so the QP data
is reconstructed from O((mN)^2) plain cost evaluations:

    c      = C(0)
    g_j    = (C(e_j) - C(-e_j)) / 2
    Hq_jj  = C(e_j) + C(-e_j) - 2 C(0)
    Hq_jk  = C(e_j + e_k) - C(e_j) - C(e_k) + C(0)     (j != k)

Nothing of the Riccati path is reused: only the simulator produces the cost
values, so agreement between -Hq^{-1} g and the sweep's coefficients is
independent evidence.  The simulator's batch marches the zero control once
and takes every other control's cost from its own Simpson quadratic forms
on that run's nodes, not from `blocks` or `riccati`.  Controls are stacked
interval-major: component j = i*m + r is entry r of U_i.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NotPD, TooLarge
from .problem import LQProblem, SamplingGrid
from .riccati import solve as riccati_solve
from .simulate import costs_of_control_batch

GUARD_MN = 400


@dataclass(frozen=True, eq=False)
class DenseQP:
    """C(u_U) = 1/2 <Hq U, U> + <g, U> + c over stacked control vectors U."""

    Hq: np.ndarray
    g: np.ndarray
    c: float

    def value(self, U: np.ndarray) -> float:
        U = np.asarray(U, dtype=float)
        return float(0.5 * (U @ (self.Hq @ U)) + self.g @ U + self.c)


@dataclass(frozen=True, eq=False)
class CrossCheckReport:
    U_sweep: np.ndarray
    U_qp: np.ndarray
    diffs: np.ndarray
    max_abs_diff: float
    max_rel_diff: float
    cost_sweep: float
    cost_qp: float
    cost_diff: float
    certificate_norm: float


def assemble_qp(p: LQProblem, grid: SamplingGrid, M: int = 64) -> DenseQP:
    """Reconstruct the dense QP from cost evaluations of basis controls; `TooLarge` past GUARD_MN or memory."""
    dim = p.m * grid.N
    if dim > GUARD_MN:
        raise TooLarge(f"oracle guard exceeded: mN = {dim} > {GUARD_MN}")
    L = 1 + 2 * dim + dim * (dim - 1) // 2  # zero, +-e_j and e_j + e_k
    try:
        j, k = np.triu_indices(dim, 1)  # the pairs j < k, row-major
        batch = np.zeros((L, grid.N, p.m))
    except MemoryError:
        raise TooLarge(f"oracle batch: {L} controls of mN = {dim} do not fit in memory") from None
    flat = batch.reshape(L, dim)
    np.fill_diagonal(flat[1 : 1 + dim], 1.0)
    np.fill_diagonal(flat[1 + dim : 1 + 2 * dim], -1.0)
    pair_rows = np.arange(1 + 2 * dim, L)
    flat[pair_rows, j] = 1.0
    flat[pair_rows, k] = 1.0

    costs = costs_of_control_batch(p, grid, batch, M)
    c = float(costs[0])
    Cp = costs[1 : 1 + dim]
    Cm = costs[1 + dim : 1 + 2 * dim]
    g = 0.5 * (Cp - Cm)
    Hq = np.zeros((dim, dim))
    np.fill_diagonal(Hq, Cp + Cm - 2.0 * c)
    Hq[j, k] = costs[1 + 2 * dim :] - Cp[j] - Cp[k] + c
    Hq[k, j] = Hq[j, k]
    return DenseQP(Hq=Hq, g=g, c=c)


def solve_qp(qp: DenseQP):
    """U_hat = -Hq^{-1} g by numpy's Cholesky factor of Hq; `NotPD` if Hq is not positive definite."""
    try:
        L = np.linalg.cholesky(qp.Hq)
    except np.linalg.LinAlgError as exc:
        raise NotPD("Hq", None, float(np.linalg.eigvalsh(qp.Hq)[0])) from exc
    return -np.linalg.solve(L.T, np.linalg.solve(L, qp.g))


def cross_check(p: LQProblem, grid: SamplingGrid, M: int = 64) -> CrossCheckReport:
    """Solve by sweep and by QP, report the disagreement."""
    sol = riccati_solve(p, grid, M)[2]  # the sweep, which holds the blocks, is not kept through the QP
    qp = assemble_qp(p, grid, M)
    U_qp = solve_qp(qp)
    U_sweep = sol.U.reshape(-1)
    diffs = np.abs(U_sweep - U_qp)
    max_abs = float(np.max(diffs))
    scale = 1.0 + float(np.max(np.abs(U_qp)))
    cost_qp = qp.value(U_qp)
    return CrossCheckReport(
        U_sweep=U_sweep,
        U_qp=U_qp,
        diffs=diffs,
        max_abs_diff=max_abs,
        max_rel_diff=max_abs / scale,
        cost_sweep=float(sol.predicted_cost),
        cost_qp=cost_qp,
        cost_diff=abs(float(sol.predicted_cost) - cost_qp),
        certificate_norm=float(np.linalg.norm(qp.Hq @ U_qp + qp.g)),
    )
