"""State-transition matrix and Duhamel primitives over one sampling interval.

One fixed-step RK4 pass integrates the augmented system

    Z' = A(t) Z,          Z(s_i) = Id
    Gamma' = A(t) Gamma + B(t),   Gamma(s_i) = 0
    xi' = A(t) xi + omega(t),     xi(s_i) = 0

so that q(tau) = Z(tau) y + Gamma(tau) U + xi(tau) for the interval's constant
control U and start state y.  The 2M half-steps leave 2M+1 stored nodes whose
spacing matches composite Simpson quadrature downstream.

Y' = A(t) Y + C(t) is linear, so each RK4 step is an affine map
Y_{k+1} = Phi_k Y_k + psi_k.  The kernel forms the maps of every step in one
vectorized pass of the stage formulas, over the step axis and over any
leading axis of stacked half grids (one per sampling interval), and then
runs the recurrence as a prefix scan: composing affine maps is associative,
so log2(K) levels of batched matmuls give all K nodes.  Grids stacked on a
leading axis run back to back, which is how `simulate` runs state and
costate over the whole horizon in one scan each.
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


def _horizon_half_grid(grid: SamplingGrid, M: int):
    """Every interval's half grid stacked (N, 4M+1), each from its own linspace, and the (N,) steps."""
    halves, deltas = zip(*(_interval_half_grid(grid, i, M) for i in range(grid.N)))
    return np.stack(halves), np.array(deltas)


def _step_maps(As: np.ndarray, Cs: np.ndarray, delta):
    """Affine maps (Phi, psi) of the RK4 steps of Y' = A(t) Y + C(t).

    As (..., 2K+1, n, n) and Cs (..., 2K+1, n, c) hold coefficient values on
    one half-step grid or on a stack of them, and delta is the step, a scalar
    or one per grid (shape ...).  The stage formulas run once over every step
    on Y = [Id | 0] with forcing [0 | C], so Y_{k+1} = Phi[..., k] Y_k +
    psi[..., k] with Phi (..., K, n, n) and psi (..., K, n, c).  The stages
    live in four step-sized buffers updated in place.  Overflow warnings are
    off, as in `_run_maps`: a map that overflows makes the nodes non-finite.
    """
    n = As.shape[-1]
    delta = np.asarray(delta, dtype=float)[..., None, None, None]
    hd = 0.5 * delta
    sixth = delta / 6.0
    diag = (Ellipsis, np.arange(n), np.arange(n))
    A0, A1, A2 = As[..., :-1:2, :, :], As[..., 1::2, :, :], As[..., 2::2, :, :]
    C0, C1, C2 = Cs[..., :-1:2, :, :], Cs[..., 1::2, :, :], Cs[..., 2::2, :, :]

    def stage(A, T, C, out):
        """out = A @ T + [0 | C]."""
        np.matmul(A, T, out=out)
        out[..., n:] += C
        return out

    def shifted(scale, k, out):
        """out = Y + scale * k."""
        np.multiply(scale, k, out=out)
        out[diag] += 1.0
        return out

    with np.errstate(over="ignore", invalid="ignore"):
        k1 = np.concatenate((A0, C0), axis=-1)  # A0 @ Y + [0 | C0]
        T = shifted(hd, k1, np.empty_like(k1))
        k2 = stage(A1, T, C1, np.empty_like(k1))
        k3 = stage(A1, shifted(hd, k2, T), C1, np.empty_like(k1))
        k2 += k3
        k4 = stage(A2, shifted(delta, k3, T), C2, k3)
        # Y + sixth * (k1 + 2 (k2 + k3) + k4), summed in that order
        k2 *= 2.0
        k1 += k2
        k1 += k4
        k1 *= sixth
        k1[diag] += 1.0
    return k1[..., :n], k1[..., n:]


def _run_maps(Phi: np.ndarray, psi: np.ndarray, Y0: np.ndarray) -> np.ndarray:
    """Node values Y_0 .. Y_K of the recurrence Y_{k+1} = Phi[k] Y_k + psi[k].

    An inclusive Hillis-Steele scan of the affine maps, whose composition
    (P2, c2) o (P1, c1) = (P2 P1, P2 c1 + c2) is associative.  Y_0 is folded
    into the first map, so c[k] holds Y_{k+1} once its prefix reaches step 0.
    At level d, Id + E[j] is the product of the d maps ending at step d + j;
    the level adds (Id + E) c[:-d] to c[d:] and keeps the products of 2d
    maps for the steps from 2d on, the only ones that still need them.
    Products are carried as E = P - Id, since a step map is Id + O(delta):
    (Id + E2)(Id + E1) = Id + E2 + E1 + E2 E1 keeps the low bits that
    rounding P2 P1 near Id loses, which holds the scan to the serial
    recurrence's accuracy.  Composed transition matrices can overflow
    before the nodes do; warnings are off here, and every caller checks
    its nodes for finiteness.
    """
    K, n = Phi.shape[:2]
    out = np.empty((K + 1,) + Y0.shape)
    out[0] = Y0
    c = out[1:].reshape(K, n, -1)
    c[...] = psi.reshape(c.shape)
    with np.errstate(over="ignore", invalid="ignore"):
        c[0] += Phi[0] @ Y0.reshape(c.shape[1:])
        E = Phi[1:] - np.eye(n)
        d = 1
        while d < K:
            c[d:] += c[:-d] + E @ c[:-d]
            E = E[d:] + E[:-d] + E[d:] @ E[:-d]
            d *= 2
    return out


def _rk4_linear(As: np.ndarray, Cs: np.ndarray, Y0: np.ndarray, delta) -> np.ndarray:
    """Integrate Y' = A(t) Y + C(t) over the RK4 steps of one or a stack of half grids.

    As (..., 2K+1, n, n) and Cs hold coefficient values on the half-step
    grids, each Cs entry shaped like Y0; delta is a scalar or one step per
    grid.  Stacked grids run back to back from Y0; returns all node values,
    (1 + steps,) + Y0.shape.
    """
    n = As.shape[-1]
    Phi, psi = _step_maps(As, Cs.reshape(As.shape[:-1] + (-1,)), delta)
    return _run_maps(Phi.reshape(-1, n, n), psi.reshape((-1,) + Y0.shape), Y0)


def _affine_nodes(p: LQProblem, half: np.ndarray, delta: float) -> np.ndarray:
    """[Z | Gamma | xi] (2M+1, n, n+m+1) on one half grid: the run from [Id | 0] under the forcing [0 | B | omega]."""
    n, m = p.n, p.m
    Cs = np.zeros((half.shape[0], n, n + m + 1))
    Cs[:, :, n : n + m] = p.B.eval_many(half)
    Cs[:, :, n + m] = p.omega.eval_many(half)
    return _rk4_linear(p.A.eval_many(half), Cs, np.eye(n, n + m + 1), delta)


def propagate_interval(p: LQProblem, grid: SamplingGrid, i: int, M: int) -> IntervalPropagation:
    """Z, Gamma, xi at the 2M+1 nodes of interval i, via 2M RK4 half-steps."""
    if not 0 <= i < grid.N:
        raise IndexOutOfRange(f"interval {i} out of range for N={grid.N}")
    half, delta = _interval_half_grid(grid, i, M)
    n, m = p.n, p.m
    Ys = _affine_nodes(p, half, delta)
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
