"""State-transition matrix and Duhamel primitives over one sampling interval.

One fixed-step RK4 pass integrates the augmented system

    Z' = A(t) Z,          Z(s_i) = Id
    Gamma' = A(t) Gamma + B(t),   Gamma(s_i) = 0
    xi' = A(t) xi + omega(t),     xi(s_i) = 0

so that q(tau) = Z(tau) y + Gamma(tau) U + xi(tau) for the interval's constant
control U and start state y.  The 2M half-steps leave 2M+1 stored nodes whose
spacing matches composite Simpson quadrature downstream.

Y' = A(t) Y + C(t) is linear, so each RK4 step is an affine map
Y_{k+1} = Phi_k Y_k + psi_k.  The kernel forms all 2M maps in one vectorized
pass of the stage formulas over the step axis, then steps the recurrence with
one matmul and one add per step: for n <= 4 the cost of a step is numpy call
overhead, not arithmetic, so the loop keeps only the calls that must be serial.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import IndexOutOfRange, NonFinite, ValidationError
from .problem import LQProblem, SamplingGrid


@dataclass(frozen=True, eq=False)
class IntervalPropagation:
    """Dense node values of Z, Gamma, xi on one sampling interval."""

    i: int
    nodes: np.ndarray   # (2M+1,) times in [s_i, s_{i+1}]
    Zs: np.ndarray      # (2M+1, n, n)
    Gammas: np.ndarray  # (2M+1, n, m)
    Xis: np.ndarray     # (2M+1, n)

    @property
    def substeps(self) -> int:
        return (self.nodes.shape[0] - 1) // 2


def _half_grid(lo: float, hi: float, h: float, M: int):
    """The 4M+1 RK4 half-step times on [lo, hi] and the step delta = h / 2M."""
    if M < 1:
        raise ValidationError(f"need M >= 1, got {M}")
    return np.linspace(lo, hi, 4 * M + 1), h / (2 * M)


def _interval_half_grid(grid: SamplingGrid, i: int, M: int):
    return _half_grid(grid.s[i], grid.s[i + 1], float(grid.h[i]), M)


def _step_maps(As: np.ndarray, Cs: np.ndarray, delta: float):
    """Affine maps (Phi, psi) of the 2M RK4 steps of Y' = A(t) Y + C(t).

    As (4M+1, n, n) and Cs (4M+1, n, c) hold coefficient values on the
    half-step grid.  The stage formulas run once over the step axis on
    Y = [Id | 0] with forcing [0 | C], so Y_{k+1} = Phi[k] Y_k + psi[k] with
    Phi (2M, n, n) and psi (2M, n, c).
    """
    n = As.shape[-1]
    Y = np.hstack((np.eye(n), np.zeros(Cs.shape[1:])))
    F = np.concatenate((np.zeros(Cs.shape[:2] + (n,)), Cs), axis=-1)
    hd = 0.5 * delta
    sixth = delta / 6.0
    A0, A1, A2 = As[:-1:2], As[1::2], As[2::2]
    C0, C1, C2 = F[:-1:2], F[1::2], F[2::2]
    k1 = A0 @ Y + C0
    k2 = A1 @ (Y + hd * k1) + C1
    k3 = A1 @ (Y + hd * k2) + C1
    k4 = A2 @ (Y + delta * k3) + C2
    Y = Y + sixth * (k1 + 2.0 * (k2 + k3) + k4)
    return np.ascontiguousarray(Y[..., :n]), np.ascontiguousarray(Y[..., n:])


def _run_maps(Phi: np.ndarray, psi: np.ndarray, Y0: np.ndarray) -> np.ndarray:
    """Node values Y_0 .. Y_2M of the recurrence Y_{k+1} = Phi[k] Y_k + psi[k]."""
    Y = Y0
    out = [Y]
    for P, c in zip(Phi, psi):
        Y = P @ Y + c
        out.append(Y)
    return np.array(out)


def _rk4_linear(As: np.ndarray, Cs: np.ndarray, Y0: np.ndarray, delta: float) -> np.ndarray:
    """Integrate Y' = A(t) Y + C(t) over 2M steps of size delta.

    As and Cs hold coefficient values on the half-step grid (4M+1 entries),
    each Cs entry shaped like Y0; returns the 2M+1 node values of Y.
    """
    Phi, psi = _step_maps(As, Cs.reshape(Cs.shape[:2] + (-1,)), delta)
    return _run_maps(Phi, psi.reshape(psi.shape[:1] + Y0.shape), Y0)


def propagate_interval(p: LQProblem, grid: SamplingGrid, i: int, M: int) -> IntervalPropagation:
    """Z, Gamma, xi at the 2M+1 nodes of interval i, via 2M RK4 half-steps."""
    if not 0 <= i < grid.N:
        raise IndexOutOfRange(f"interval {i} out of range for N={grid.N}")
    half, delta = _interval_half_grid(grid, i, M)
    n, m = p.n, p.m

    As = np.ascontiguousarray(p.A.eval_many(half))
    Cs = np.zeros((half.shape[0], n, n + m + 1))
    Cs[:, :, n : n + m] = p.B.eval_many(half)
    Cs[:, :, n + m] = p.omega.eval_many(half)

    Y0 = np.zeros((n, n + m + 1))
    Y0[:, :n] = np.eye(n)
    Ys = _rk4_linear(As, Cs, Y0, delta)
    if not np.all(np.isfinite(Ys)):
        raise NonFinite(f"propagation diverged on interval {i}")

    return IntervalPropagation(
        i=i,
        nodes=half[::2],
        Zs=np.ascontiguousarray(Ys[:, :, :n]),
        Gammas=np.ascontiguousarray(Ys[:, :, n : n + m]),
        Xis=np.ascontiguousarray(Ys[:, :, n + m]),
    )


def transition_matrix(p: LQProblem, t: float, s: float, M: int = 64) -> np.ndarray:
    """Z(t, s), integrating forward or backward as needed; Z(s, s) = Id."""
    n = p.n
    half, delta = _half_grid(s, t, t - s, M)
    if t == s:
        return np.eye(n)
    As = np.ascontiguousarray(p.A.eval_many(half))
    Cs = np.zeros((half.shape[0], n, n))
    Zs = _rk4_linear(As, Cs, np.eye(n), delta)
    Z = Zs[-1]
    if not np.all(np.isfinite(Z)):
        raise NonFinite(f"transition matrix diverged between s={s} and t={t}")
    return Z
