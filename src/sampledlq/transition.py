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

With A, B and omega constant every step has the same map (a zero-order
hold): the kernel forms it once and composes it by doubling, K - 1
compositions in place of the scan's K log2(K), into bitwise the scan's nodes.
"""

from __future__ import annotations

import numpy as np

from .errors import IndexOutOfRange, InvalidInterval, NonFinite, TooLarge, ValidationError
from .problem import INTP_MAX, LQProblem, SamplingGrid, _is_integer

TINY = float(np.finfo(float).tiny)  # the smallest normal float


class ZView:
    """Read-only block of a stored array in the z = [y; U; 1] layout, named in a layout table.

    rows and cols name segments of the last two axes: "y" the first n
    entries, "U" the m entries before the last, "1" the last entry and ":"
    all of them, with (n, m) = owner.dims.  Leading axes, such as a stack's
    interval axis, are kept: a block that is "1" on both axes reads as an
    (N,) array for a stack of N.  sign -1 gives the negated block, a copy.
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
        return block


def _half_grid(lo, hi, h, M: int):
    """The 4M+1 RK4 half-step times on [lo, hi] and the step delta = h / 2M.

    lo, hi and h are scalars, or arrays (N,) of interval ends and lengths,
    which give one half grid per row (N, 4M+1) and N steps.  The times are
    `np.linspace(lo, hi, 4M+1)`'s, bitwise: k * ((hi - lo) / 4M) + lo, with
    the last set to hi.  Every step's size must be a normal float: a
    subnormal step has lost relative precision, so the RK4 run on it would
    be quietly wrong.  That check also rules out a zero spacing, the one
    case where linspace's arithmetic differs.
    """
    if not _is_integer(M):
        raise ValidationError(f"M must be an integer, got {M!r}")
    if M < 1:
        raise ValidationError(f"need M >= 1, got {M}")
    if 4 * M + 1 > INTP_MAX:
        raise TooLarge(f"M = {M} substeps: 4M+1 half-grid nodes exceed the platform's array index range")
    delta = h / (2 * M)
    smallest = abs(delta).min() if isinstance(delta, np.ndarray) else abs(delta)
    if smallest < TINY:
        raise InvalidInterval(f"step h/(2M) = {smallest:g} at M = {M} is below the smallest normal float")
    lo, hi = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
    try:
        half = np.arange(4 * M + 1, dtype=float) * ((hi - lo) / (4 * M))[..., None]
    except MemoryError:
        raise TooLarge(f"M = {M} substeps: 4M+1 half-grid nodes do not fit in memory") from None
    half += lo[..., None]
    half[..., -1] = hi
    return half, delta


def _horizon_half_grid(grid: SamplingGrid, M: int):
    """Every interval's half grid stacked (N, 4M+1) and the (N,) steps, bitwise equal to `propagate_interval`'s."""
    return _half_grid(grid.s[:-1], grid.s[1:], grid.h, M)


def _add_identity(out: np.ndarray) -> None:
    """out += [Id | 0] on each trailing (n, w) matrix, n <= w, as one add on a strided view of the diagonals.

    out must be C-contiguous: on any other layout `reshape` would copy, and
    the add would be lost.
    """
    n, w = out.shape[-2:]
    diagonals = out.reshape(out.shape[:-2] + (-1,))[..., : n * (w + 1) : w + 1]
    diagonals += 1.0


def _step_maps(As: np.ndarray, Cs: np.ndarray, delta) -> np.ndarray:
    """Increments E_k = [Phi_k - Id | psi_k] of the RK4 steps of Y' = A(t) Y + C(t).

    As (..., 2K+1, n, n) and Cs (..., 2K+1, n, c) hold coefficient values on
    one half-step grid or on a stack of them, and delta is the step, a scalar
    or one per grid (shape ...).  The stage formulas run once over every step
    on Y = [Id | 0] with forcing [0 | C], so Y_{k+1} = Phi_k Y_k + [0 | psi_k]
    with [Phi_k - Id | psi_k] = maps[..., k], shape (..., K, n, n+c).  The
    increment is returned without adding Id, which would round away its low
    bits.  The stages live in four step-sized C-contiguous buffers updated in
    place.  A map that overflows makes the nodes non-finite; `_rk4_linear`,
    the only caller, turns overflow warnings off.
    """
    n = As.shape[-1]
    delta = np.asarray(delta, dtype=float)[..., None, None, None]
    hd = 0.5 * delta
    sixth = delta / 6.0
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
        _add_identity(out)
        return out

    k1 = np.concatenate((A0, C0), axis=-1)  # A0 @ Y + [0 | C0]
    T = shifted(hd, k1, np.empty(k1.shape))
    k2 = stage(A1, T, C1, np.empty(k1.shape))
    k3 = stage(A1, shifted(hd, k2, T), C1, np.empty(k1.shape))
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
    ending d steps earlier.  On equal maps (stride 0 on the step axis) the
    entries j >= d - 1 all hold one composite U of d maps, so a level fills
    only entries d .. 2d-1, as U after entries 0 .. d-1: doubling, bitwise
    the scan.  Composites can overflow before the nodes would; `_rk4_linear`,
    the only caller, turns overflow warnings off, and every caller of it
    checks its nodes for finiteness.
    """
    K, n = maps.shape[-3:-1]
    out = np.zeros(maps.shape[:-3] + (K + 1,) + maps.shape[-2:])
    E = out[..., 1:, :, :]
    E[...] = maps
    d = 1
    while d < K and maps.strides[-3] == 0:
        U, lo = E[..., d - 1 : d, :, :], E[..., : min(d, K - d), :, :]
        E[..., d : d + lo.shape[-3], :, :] = U + (lo + U[..., :n] @ lo)
        d *= 2
    while d < K:
        E[..., d:, :, :] += E[..., :-d, :, :] + E[..., d:, :, :n] @ E[..., :-d, :, :]
        d *= 2
    _add_identity(out)
    return out


def _rk4_linear(As: np.ndarray, Cs: np.ndarray, delta) -> np.ndarray:
    """Nodes [Z | G] (..., K+1, n, n+c) of Y' = A(t) Y + C(t), Y = [Id | 0] at each half grid's start.

    As (..., 2K+1, n, n) and Cs (..., 2K+1, n, c) hold coefficient values on
    one half grid or on a stack of them; delta is a scalar or one step per
    grid.  As and Cs both stride 0 on the half-step axis (constants, as
    `eval_many` gives them) give one step map, formed on the first three
    points.  A run from y under the forcing C v is Z y + G v.  Overflow and
    invalid-value warnings are off for the whole run: a run that overflows
    has non-finite nodes, which every caller checks.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        if As.strides[-3] == 0 == Cs.strides[-3]:
            one = np.ascontiguousarray(_step_maps(As[..., :3, :, :], Cs[..., :3, :, :], delta))
            shape = one.shape[:-3] + (As.shape[-3] // 2,) + one.shape[-2:]  # repeated with stride 0
            return _run_maps(np.ndarray(shape, float, buffer=one, strides=one.strides[:-3] + (0,) + one.strides[-2:]))
        return _run_maps(_step_maps(As, Cs, delta))


def _affine_nodes(p: LQProblem, half: np.ndarray, delta) -> np.ndarray:
    """[Z | Gamma | xi] (..., 2M+1, n, n+m+1) on one half grid (4M+1,) or a stack (..., 4M+1) of them."""
    try:
        if p.B.kind == p.omega.kind == "constant":  # one (n, m+1) value, stride 0 on the half grid as A's
            value = np.concatenate((p.B.eval_many(p.a), p.omega.eval_many(p.a)[:, None]), axis=-1, dtype=float)
            forcing = np.ndarray(half.shape + value.shape, float, value, strides=(0,) * half.ndim + value.strides)
        else:
            forcing = np.concatenate((p.B.eval_many(half), p.omega.eval_many(half)[..., None]), axis=-1)
        return _rk4_linear(p.A.eval_many(half), forcing, delta)
    except MemoryError:
        raise TooLarge(f"M = {(half.shape[-1] - 1) // 4} substeps: 2M+1 RK4 nodes do not fit in memory") from None


def propagate_interval(p: LQProblem, grid: SamplingGrid, i: int, M: int):
    """Interval i's node times (2M+1,) and [Z | Gamma | xi] nodes (2M+1, n, n+m+1), via 2M RK4 half-steps.

    The times run from s_i to s_{i+1} exactly, with spacing h_i / 2M; a
    node at time t holds Y(t) with q(t) = Y(t) [y; U; 1].
    """
    if not _is_integer(i) or not 0 <= i < grid.N:
        raise IndexOutOfRange(f"interval {i!r} is not an integer in range for N={grid.N}")
    half, delta = _half_grid(grid.s[i], grid.s[i + 1], float(grid.h[i]), M)
    Ys = _affine_nodes(p, half, delta)
    if not np.isfinite(Ys).all():
        raise NonFinite(f"propagation diverged on interval {i}")
    return half[::2], Ys
