"""State-transition matrix and Duhamel primitives over sampling intervals.

One fixed-step RK4 pass integrates the augmented system

    Z' = A(t) Z,          Z(s_i) = Id
    Gamma' = A(t) Gamma + B(t),   Gamma(s_i) = 0
    xi' = A(t) xi + omega(t),     xi(s_i) = 0

so that q(tau) = Z(tau) y + Gamma(tau) U + xi(tau) for the interval's constant
control U and start state y.  The 2M half-steps leave 2M+1 stored nodes whose
spacing matches composite Simpson quadrature downstream.

Y' = A(t) Y + C(t) is linear, so each RK4 step is an affine map
Y_{k+1} = Phi_k Y_k + psi_k.  The kernel forms the maps of every step in one
vectorized pass of the stage formulas and runs them as a prefix scan from
[Id | 0]: composing affine maps is associative, so log2(K) levels of batched
matmuls give all K+1 nodes [Z | G] of the run.  Half grids stacked on leading
axes (one per sampling interval) run independently, so one call forms the
[Z | Gamma | xi] nodes of every interval; `simulate` carries the state across
the interval joins with them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import IndexOutOfRange, InvalidInterval, NonFinite, TooLarge, ValidationError
from .problem import INTP_MAX, LQProblem, SamplingGrid

TINY = float(np.finfo(float).tiny)  # the smallest normal float


class ZView:
    """Read-only block of a stored array in the z = [y; U; 1] layout, named in a layout table.

    rows and cols name segments of the last two axes: "y" the first n
    entries, "U" the m entries before the last, "1" the last entry and ":"
    all of them, with (n, m) = owner.dims.  Leading axes, such as a stack's
    interval axis, are kept: a block that is "1" on both axes reads as a
    float for one interval and as an (N,) array for a stack of N.  sign -1
    gives the negated block, a copy.
    """

    def __init__(self, array: str, rows: str, cols: str, sign: float = 1.0):
        self.array, self.rows, self.cols, self.sign = array, rows, cols, sign

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        n, m = obj.dims
        seg = {"y": slice(0, n), "U": slice(-1 - m, -1), "1": -1, ":": slice(None)}
        block = getattr(obj, self.array)[..., seg[self.rows], seg[self.cols]]
        if self.sign < 0:
            block = 0.0 - block  # not -block: a zero block reads +0.0
        return float(block) if np.ndim(block) == 0 else block


@dataclass(frozen=True, eq=False)
class IntervalPropagation:
    """Dense node values Y = [Z | Gamma | xi] on one sampling interval, q(tau) = Y(tau) [y; U; 1]."""

    i: int
    nodes: np.ndarray  # (2M+1,) times in [s_i, s_{i+1}]
    Ys: np.ndarray     # (2M+1, n, n+m+1)

    Zs = ZView("Ys", ":", "y")      # (2M+1, n, n)
    Gammas = ZView("Ys", ":", "U")  # (2M+1, n, m)
    Xis = ZView("Ys", ":", "1")     # (2M+1, n)

    @property
    def dims(self) -> tuple:
        return self.Ys.shape[1], self.Ys.shape[2] - self.Ys.shape[1] - 1

    @property
    def substeps(self) -> int:
        return (self.nodes.shape[0] - 1) // 2


def _half_grid(lo, hi, h, M: int):
    """The 4M+1 RK4 half-step times on [lo, hi] and the step delta = h / 2M.

    lo, hi and h are scalars, or arrays (N,) of interval ends and lengths,
    which give one half grid per row (N, 4M+1) and N steps.
    """
    if M < 1:
        raise ValidationError(f"need M >= 1, got {M}")
    if 4 * M + 1 > INTP_MAX:
        raise TooLarge(f"M = {M} substeps: 4M+1 half-grid nodes exceed the platform's array index range")
    try:
        # the time axis last; axis 0 for scalar ends skips linspace's moveaxis
        half = np.linspace(lo, hi, 4 * M + 1, axis=np.ndim(lo))
    except MemoryError:
        raise TooLarge(f"M = {M} substeps: 4M+1 half-grid nodes do not fit in memory") from None
    return half, h / (2 * M)


def _check_steps(smallest, M: int) -> None:
    """A sampling interval's steps h / 2M must be normal floats.

    A subnormal step has lost relative precision, so the RK4 run on it would
    be quietly wrong.
    """
    if smallest < TINY:
        raise InvalidInterval(f"step h/(2M) = {smallest:g} at M = {M} is below the smallest normal float")


def _interval_half_grid(grid: SamplingGrid, i: int, M: int):
    half, delta = _half_grid(grid.s[i], grid.s[i + 1], float(grid.h[i]), M)
    _check_steps(delta, M)
    return half, delta


def _horizon_half_grid(grid: SamplingGrid, M: int):
    """Every interval's half grid stacked (N, 4M+1) and the (N,) steps, bitwise equal to `_interval_half_grid`'s."""
    half, delta = _half_grid(grid.s[:-1], grid.s[1:], grid.h, M)
    _check_steps(delta.min(), M)
    return half, delta


def _step_maps(As: np.ndarray, Cs: np.ndarray, delta) -> np.ndarray:
    """Increments E_k = [Phi_k - Id | psi_k] of the RK4 steps of Y' = A(t) Y + C(t).

    As (..., 2K+1, n, n) and Cs (..., 2K+1, n, c) hold coefficient values on
    one half-step grid or on a stack of them, and delta is the step, a scalar
    or one per grid (shape ...).  The stage formulas run once over every step
    on Y = [Id | 0] with forcing [0 | C], so Y_{k+1} = Phi_k Y_k + [0 | psi_k]
    with [Phi_k - Id | psi_k] = maps[..., k], shape (..., K, n, n+c).  The
    increment is returned without adding Id, which would round away its low
    bits.  The stages live in four step-sized buffers updated in place.
    Overflow warnings are off, as in `_run_maps`: a map that overflows makes
    the nodes non-finite.
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
        # sixth * (k1 + 2 (k2 + k3) + k4), summed in that order
        k2 *= 2.0
        k1 += k2
        k1 += k4
        k1 *= sixth
    return k1


def _run_maps(maps: np.ndarray) -> np.ndarray:
    """Nodes [Z_k | G_k], k = 0 .. K, of Y_{k+1} = Phi_k Y_k + [0 | psi_k] from Y_0 = [Id | 0].

    maps (..., K, n, n+c) holds the steps' increments E_k = [Phi_k - Id | psi_k]
    as `_step_maps` returns them; leading axes are independent runs.  Node k
    is the composite of the first k maps, so the nodes are an inclusive
    Hillis-Steele scan of the maps, whose composition is associative.
    Composites are carried as increments too, since a step map is
    Id + O(delta): (Id + E2) after (Id + E1) is Id + E2 + E1 + E2[:, :n] E1,
    which keeps the low bits that rounding P2 P1 near Id loses and holds
    the scan to the serial recurrence's accuracy.  At level d, entry j >= d
    holds the composite of the d maps ending at step j and takes in the one
    ending d steps earlier.  Composites can overflow before the nodes
    would; warnings are off here, and every caller checks its nodes for
    finiteness.
    """
    K, n = maps.shape[-3:-1]
    diag = (Ellipsis, np.arange(n), np.arange(n))
    out = np.zeros(maps.shape[:-3] + (K + 1,) + maps.shape[-2:])
    E = out[..., 1:, :, :]
    E[...] = maps
    with np.errstate(over="ignore", invalid="ignore"):
        d = 1
        while d < K:
            E[..., d:, :, :] += E[..., :-d, :, :] + E[..., d:, :, :n] @ E[..., :-d, :, :]
            d *= 2
    out[diag] += 1.0
    return out


def _rk4_linear(As: np.ndarray, Cs: np.ndarray, delta) -> np.ndarray:
    """Nodes [Z | G] (..., K+1, n, n+c) of Y' = A(t) Y + C(t), Y = [Id | 0] at each half grid's start.

    As (..., 2K+1, n, n) and Cs (..., 2K+1, n, c) hold coefficient values on
    one half grid or on a stack of them; delta is a scalar or one step per
    grid.  A run from y under the forcing C v is Z y + G v.
    """
    return _run_maps(_step_maps(As, Cs, delta))


def _affine_nodes(p: LQProblem, half: np.ndarray, delta) -> np.ndarray:
    """[Z | Gamma | xi] (..., 2M+1, n, n+m+1) on one half grid (4M+1,) or a stack (..., 4M+1) of them."""
    forcing = np.concatenate((p.B.eval_many(half), p.omega.eval_many(half)[..., None]), axis=-1)
    return _rk4_linear(p.A.eval_many(half), forcing, delta)


def propagate_interval(p: LQProblem, grid: SamplingGrid, i: int, M: int) -> IntervalPropagation:
    """[Z | Gamma | xi] at the 2M+1 nodes of interval i, via 2M RK4 half-steps."""
    if not 0 <= i < grid.N:
        raise IndexOutOfRange(f"interval {i} out of range for N={grid.N}")
    half, delta = _interval_half_grid(grid, i, M)
    Ys = _affine_nodes(p, half, delta)
    if not np.isfinite(Ys).all():
        raise NonFinite(f"propagation diverged on interval {i}")
    return IntervalPropagation(i=i, nodes=half[::2], Ys=Ys)
