"""State-transition matrix and Duhamel primitives over sampling intervals.

One fixed-step RK4 pass integrates the augmented system

    Z' = A(t) Z,          Z(s_i) = Id
    Gamma' = A(t) Gamma + B(t),   Gamma(s_i) = 0
    xi' = A(t) xi + omega(t),     xi(s_i) = 0

so that q(tau) = Z(tau) y + Gamma(tau) U + xi(tau) for the interval's constant
control U and start state y.  The 2M half-steps leave 2M+1 stored nodes whose
spacing matches composite Simpson quadrature downstream.

Y' = A(t) Y + C(t) is linear, so each RK4 step is an affine map
Y_{k+1} = Phi_k Y_k + psi_k.  The kernel reads one coefficient table
F = [A | C] per run, which its callers build: [A | B | omega] for the
interval nodes, [-A^T | W (q - x)] for the costate and [A | B u + omega] for
the dense run.  It forms the maps of every step in one vectorized pass of
the stage formulas, run on [Id | 0] with A distributed over it, so each
stage is a table row plus a step times A @ (the previous stage), and runs
them as a prefix scan from [Id | 0]: composing affine maps is associative,
so log2(K) levels of batched matmuls give all K+1 nodes [Z | G] of the
run.  Half grids stacked on leading axes (one per sampling interval) run
independently, so one call forms the [Z | Gamma | xi] nodes of every
interval; `simulate` carries the state across the interval joins with them.

With A, B and omega constant every step has the same map (a zero-order
hold): the table is one value repeated with stride 0, and the kernel forms
the map once and composes it by doubling, K - 1 compositions in place of the
scan's K log2(K), into bitwise the scan's nodes.
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


def _half_grid(lo, hi, M: int):
    """The 4M+1 RK4 half-step times on [lo, hi] and the step delta = (hi - lo) / 2M.

    lo and hi are scalars, or arrays (N,) of interval ends, which give one
    half grid per row (N, 4M+1) and N steps.  The times are
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
    lo, hi = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
    span = hi - lo
    delta = span / (2 * M)
    smallest = abs(delta).min() if isinstance(delta, np.ndarray) else abs(delta)
    if smallest < TINY:
        raise InvalidInterval(f"step h/(2M) = {smallest:g} at M = {M} is below the smallest normal float")
    try:
        half = np.arange(4 * M + 1, dtype=float) * (span / (4 * M))[..., None]
    except MemoryError:
        raise TooLarge(f"M = {M} substeps: 4M+1 half-grid nodes do not fit in memory") from None
    half += lo[..., None]
    half[..., -1] = hi
    return half, delta


def _horizon_half_grid(grid: SamplingGrid, M: int):
    """Every interval's half grid stacked (N, 4M+1) and the (N,) steps, bitwise equal to `propagate_interval`'s."""
    return _half_grid(grid.s[:-1], grid.s[1:], M)


def _add_identity(out: np.ndarray) -> None:
    """out += [Id | 0] on each trailing (n, w) matrix, n <= w, as one add on a strided view of the diagonals.

    `_run_maps` alone calls it, once per run, to turn the scanned
    increments into nodes.  out must be C-contiguous: on any other layout
    `reshape` would copy, and the add would be lost.
    """
    n, w = out.shape[-2:]
    diagonals = out.reshape(out.shape[:-2] + (-1,))[..., : n * (w + 1) : w + 1]
    diagonals += 1.0


def _step_maps(F: np.ndarray, delta) -> np.ndarray:
    """Increments E_k = [Phi_k - Id | psi_k] of the RK4 steps of Y' = A(t) Y + C(t).

    F (..., 2K+1, n, n+c) is the coefficient table [A | C] on one half-step
    grid or on a stack of them, and delta is the step, a scalar or one per
    grid (shape ...).  Run from Y = [Id | 0] under the forcing [0 | C], the
    RK4 stages of step k, on the table's points F_0, F_1, F_2 = F[..., 2k],
    F[..., 2k+1], F[..., 2k+2] with A_j = F_j[:, :n], are

        k1 = F_0,  k2 = F_1 + (delta/2) A_1 k1,  k3 = F_1 + (delta/2) A_1 k2,
        k4 = F_2 + delta A_2 k3,

    the classical stages with A distributed over the basis, so no stage adds
    Id.  Y_{k+1} = Phi_k Y_k + [0 | psi_k] with [Phi_k - Id | psi_k] =
    maps[..., k] = delta/6 (k1 + 2 (k2 + k3) + k4), shape (..., K, n, n+c).
    The increment is returned without adding Id, which would round away its
    low bits.  The stages live in three step-sized C-contiguous buffers
    updated in place.  A map that overflows makes the nodes non-finite;
    `_rk4_linear`, the only caller, turns overflow warnings off.
    """
    n = F.shape[-2]
    delta = np.asarray(delta, dtype=float)[..., None, None, None]
    hd = 0.5 * delta
    F0, F1, F2 = F[..., :-1:2, :, :], F[..., 1::2, :, :], F[..., 2::2, :, :]
    A1 = F1[..., :n]
    k2 = np.matmul(A1, F0)
    k2 *= hd
    k2 += F1
    k3 = np.matmul(A1, k2)
    k3 *= hd
    k3 += F1
    k4 = np.matmul(F2[..., :n], k3)
    k4 *= delta
    k4 += F2
    # delta/6 * (k1 + 2 (k2 + k3) + k4), summed in that order
    k2 += k3
    k2 *= 2.0
    k2 += F0
    k2 += k4
    k2 *= delta / 6.0
    return k2


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


def _rk4_linear(F: np.ndarray, delta) -> np.ndarray:
    """Nodes [Z | G] (..., K+1, n, n+c) of Y' = A(t) Y + C(t), Y = [Id | 0] at each half grid's start.

    F (..., 2K+1, n, n+c) is the coefficient table [A | C] on one half grid
    or on a stack of them; delta is a scalar or one step per grid.  A table
    with stride 0 on the half-step axis (one constant value repeated, as
    `_affine_nodes` builds it for constant A, B and omega) gives one step
    map, formed on the first three points.  A run from y under the forcing
    C v is Z y + G v.  Overflow and invalid-value warnings are off for the
    whole run: a run that overflows has non-finite nodes, which every caller
    checks.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        if F.strides[-3] == 0:
            one = _step_maps(F[..., :3, :, :], delta)
            shape = one.shape[:-3] + (F.shape[-3] // 2,) + one.shape[-2:]  # repeated with stride 0
            return _run_maps(np.ndarray(shape, float, buffer=one, strides=one.strides[:-3] + (0,) + one.strides[-2:]))
        return _run_maps(_step_maps(F, delta))


def _affine_nodes(p: LQProblem, half: np.ndarray, delta) -> np.ndarray:
    """[Z | Gamma | xi] (..., 2M+1, n, n+m+1) on one half grid (4M+1,) or a stack (..., 4M+1) of them.

    The kernel's table is [A | B | omega], each constant one evaluated once,
    at a; with all three constant it is that one (n, n+m+1) value, repeated
    on the half grid with stride 0.
    """
    try:
        constant = p.A.kind == p.B.kind == p.omega.kind == "constant"
        F = np.empty((() if constant else half.shape) + (p.n, p.n + p.m + 1))
        for cf, cols in zip((p.A, p.B, p.omega), (slice(0, p.n), slice(p.n, -1), -1)):
            F[..., cols] = cf.eval_many(p.a if cf.kind == "constant" else half)
        if constant:
            F = np.ndarray(half.shape + F.shape, float, F, strides=(0,) * half.ndim + F.strides)
        return _rk4_linear(F, delta)
    except MemoryError:
        raise TooLarge(f"M = {(half.shape[-1] - 1) // 4} substeps: 2M+1 RK4 nodes do not fit in memory") from None


def propagate_interval(p: LQProblem, grid: SamplingGrid, i: int, M: int):
    """Interval i's node times (2M+1,) and [Z | Gamma | xi] nodes (2M+1, n, n+m+1), via 2M RK4 half-steps.

    The times run from s_i to s_{i+1} exactly, with spacing h_i / 2M; a
    node at time t holds Y(t) with q(t) = Y(t) [y; U; 1].
    """
    if not _is_integer(i) or not 0 <= i < grid.N:
        raise IndexOutOfRange(f"interval {i!r} is not an integer in range for N={grid.N}")
    half, delta = _half_grid(grid.s[i], grid.s[i + 1], M)
    Ys = _affine_nodes(p, half, delta)
    if not np.isfinite(Ys).all():
        raise NonFinite(f"propagation diverged on interval {i}")
    return half[::2], Ys
