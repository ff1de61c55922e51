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
F = [A | C] per run, which its caller builds ([A | B | omega] for the
interval nodes).  It forms the maps of every step in one vectorized pass of
the stage formulas, run on [Id | 0] with A distributed over it, so each
stage is a table row plus a step times A @ (the previous stage), and runs
them as a prefix scan from [Id | 0]: composing affine maps is associative,
so log2(K) levels of batched matmuls give all K+1 nodes [Z | G] of the
run.  Half grids stacked on leading axes (one per sampling interval) run
independently.

The kernel runs in two phases: `_step_maps` forms the step maps from the
table, and `_run_maps` composes them into nodes.  For the interval nodes,
`_affine_maps` forms the table [A | B | omega] on the horizon's stacked
half grids and every interval's maps, once per solve.  `propagate_interval`
then runs one interval's recurrence, which `blocks.compute_all_blocks`
calls once per interval, and `_affine_nodes` runs every interval's in one
call, for `simulate`, which carries the state across the interval joins.

With A, B and omega constant every step has the same map (a zero-order
hold): `_affine_maps` forms it once per interval, on the first three
half-step points, and repeats it with stride 0 on the step axis, which
`_run_maps` composes by doubling, K - 1 compositions in place of the scan's
K log2(K), into bitwise the scan's nodes.

A run that needs only a vector, the costate [-A^T | W (q - x)] and the
dense run [A | B u + omega], forms no nodes: `_vector_run` composes each
interval's step maps pairwise into one map (an up-sweep of about 2K
compositions), then the N interval maps, padded with zero maps to a power
of two, by the same up-sweep: the top of one tree.  Its down-sweep applies
the kept halves to vectors, which gives the vector at every join and then
at every node, in log2(N) + log2(K) levels with no loop over intervals.
With A constant each interval's steps share one homogeneous map, formed
once on three half-step points.
"""

from __future__ import annotations

import numpy as np

from .errors import IndexOutOfRange, InvalidInterval, NonFinite, TooLarge, ValidationError
from .problem import INTP_MAX, LQProblem, SamplingGrid, _is_integer

TINY = float(np.finfo(float).tiny)  # the smallest normal float
TABLE_BYTES = 2**20  # the most coefficient table `_affine_maps` holds at once


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
    smallest = abs(delta).min()
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
    its callers, `_affine_maps` and `_increments`, run it with
    overflow warnings off.
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
    the scan.  The increments become nodes by one add of [Id | 0], on a
    strided view of out's diagonals (out is C-contiguous, so `reshape` does
    not copy).  Composites can overflow before the nodes would; every caller
    turns overflow warnings off and checks the nodes for finiteness.
    """
    K, n, w = maps.shape[-3:]
    out = np.zeros(maps.shape[:-3] + (K + 1,) + maps.shape[-2:])
    E = out[..., 1:, :, :]
    E[...] = maps
    d = 1
    while d < K and maps.strides[-3] == 0:
        U, lo = E[..., d - 1 : d, :, :], E[..., : min(d, K - d), :, :]
        dst = np.matmul(U[..., :n], lo, out=E[..., d : d + lo.shape[-3], :, :])
        dst += lo
        dst += U
        d *= 2
    while d < K:
        E[..., d:, :, :] += E[..., :-d, :, :] + E[..., d:, :, :n] @ E[..., :-d, :, :]
        d *= 2
    diagonals = out.reshape(out.shape[:-2] + (-1,))[..., : n * (w + 1) : w + 1]
    diagonals += 1.0
    return out


def _apply(E: np.ndarray, y: np.ndarray) -> np.ndarray:
    """y_j + E_j [y_j; 1] for the maps E of `_increments`' layouts and vectors y (r, J, n).

    E is (r, J, n, n+1), one map per vector, or (r, 1, n, n+J), one
    homogeneous part for an interval's J forcing columns: then the product
    is one GEMM per interval.
    """
    n = y.shape[-1]
    if E.shape[-1] == n + 1:
        return y + ((E[..., :n] @ y[..., None])[..., 0] + E[..., n])
    return y + (y @ np.swapaxes(E[:, 0, :, :n], -1, -2) + np.swapaxes(E[:, 0, :, n:], -1, -2))


def _increments(coefficients, rows: slice, delta: np.ndarray, L: int) -> np.ndarray:
    """Step increments of y' = A y + c on r intervals, [Phi_k - Id | psi_k] padded with zero steps to L.

    coefficients(rows) gives C (r, 2K+1, n), c on the intervals' half
    grids, and A there (r, 2K+1, n, n), or one (n, n) when constant: then
    the table has three points, [A | c at step k's point j] for j = 0, 1,
    2, and `_step_maps` forms the homogeneous increment once per interval,
    with A applied to every step's forcing as one product.  That layout,
    (r, 1, n, n+K) with step k's psi in column n+k, is kept when K = L;
    otherwise the increments are (r, L, n, n+1), and the pad steps' are
    zero, which compose exactly.  A and C are dropped once the table holds
    them.
    """
    A, C = coefficients(rows)
    r, K, n = C.shape[0], C.shape[1] // 2, C.shape[-1]
    if A.ndim == 2:
        F = np.empty((r, 3, n, n + K))
        F[..., :n] = A
        for j in range(3):
            F[:, j, :, n:] = np.swapaxes(C[:, j : j + 2 * K : 2], -1, -2)
    else:
        F = np.empty(C.shape + (n + 1,))
        F[..., :n] = A
        F[..., n] = C
    del A, C
    E = _step_maps(F, delta)
    if K == L:
        return E
    padded = np.zeros((r, L, n, n + 1))
    if E.shape[1] == 1:
        padded[:, :K, :, :n] = E[..., :n]
        padded[:, :K, :, n] = np.swapaxes(E[:, 0, :, n:], -1, -2)
    else:
        padded[:, :K] = E
    return padded


def _up_sweep(E: np.ndarray, lefts: list, rows: slice, N: int) -> np.ndarray:
    """Compose the maps on E's axis 1 pairwise, level by level, into one map per row; returns it (r, n, n+1).

    E holds the increments of r runs in `_increments`' layouts, a power of
    two of them per run.  Pairs compose as increments, as `_run_maps`
    composes them, E2 + (E1 + E2[:, :n] E1).  Each level's left halves are
    copied to lefts[level][rows], an (N, ...) array that the first call
    appends, so that no level is held past the next.
    """
    n = E.shape[2]
    level = 0
    while E.shape[1] > 1 or E.shape[-1] > n + 1:
        if E.shape[1] > 1:
            E1, E2 = E[:, ::2], E[:, 1::2]
        else:  # the forcing columns pair up under the one homogeneous part
            E1, E2 = (np.concatenate((E[..., :n], E[..., n + j :: 2]), axis=-1) for j in (0, 1))
        if level == len(lefts):
            lefts.append(np.empty((N,) + E1.shape[1:]))
        lefts[level][rows] = E1
        E = E2 + (E1 + E2[..., :n] @ E1)
        level += 1
    return E[:, 0]


def _down_sweep(lefts: list, ys: np.ndarray) -> None:
    """Fill ys (r, 2^depth + 1, n) between its given ends 0 and 2^depth from `_up_sweep`'s left halves."""
    for level in reversed(range(len(lefts))):
        s = 2 << level
        ys[:, s // 2 :: s] = _apply(lefts[level], ys[:, :-1:s])


def _vector_run(coefficients, delta: np.ndarray, y: np.ndarray, K: int) -> np.ndarray:
    """The run (N, K+1, n) of y' = A(t) y + c(t) from y over N intervals of K RK4 steps, interval 0 first.

    coefficients(rows) gives A and c on the half grids (2K+1 points) of the
    intervals in the slice rows, as `_increments` takes them; delta (N,)
    are the steps.  Only vectors are run, never nodes.  Each interval's
    step increments are composed pairwise, level by level, into one map (an
    up-sweep, as increments, as `_run_maps` composes them: about 2K
    compositions), and the left half of every level is kept.  The N
    interval maps, padded with zero maps to a power of two, are the top of
    the tree: the same up-sweep composes them into the horizon's map, and
    the down-sweep gives y at every join, then, from the kept halves, at
    every node.  Coefficients, tables and increments are formed in chunks
    of intervals whose table is at most TABLE_BYTES.  A run that overflows
    raises NonFinite("simulation diverged"); a MemoryError is left to the
    caller.
    """
    N, n = delta.shape[0], y.shape[0]
    L = 1 << (K - 1).bit_length()
    rows = max(1, TABLE_BYTES // (8 * (2 * K + 1) * n * (n + 1)))
    lefts, tops = [], []
    ends = np.zeros((1, 1 << (N - 1).bit_length(), n, n + 1))
    with np.errstate(over="ignore", invalid="ignore"):
        for lo in range(0, N, rows):
            r = slice(lo, min(lo + rows, N))
            ends[0, r] = _up_sweep(_increments(coefficients, r, delta[r], L), lefts, r, N)
        joins = np.empty((1, ends.shape[1] + 1, n))
        joins[0, 0] = y
        joins[:, -1:] = _apply(_up_sweep(ends, tops, slice(None), 1)[:, None], joins[:, :1])
        _down_sweep(tops, joins)
        ys = np.empty((N, L + 1, n))
        ys[:, 0], ys[:, L] = joins[0, :N], joins[0, 1 : N + 1]
        _down_sweep(lefts, ys)
    ys = ys[:, : K + 1]
    if not np.all(np.isfinite(ys)):
        raise NonFinite("simulation diverged")
    return ys


def _nodes_too_large(M: int) -> TooLarge:
    return TooLarge(f"M = {M} substeps: 2M+1 RK4 nodes do not fit in memory")


def _affine_table(p: LQProblem, half: np.ndarray) -> np.ndarray:
    """The table [A | B | omega] (..., 4M+1, n, n+m+1) on a half grid or a stack; a constant is evaluated at a alone."""
    F = np.empty(half.shape + (p.n, p.n + p.m + 1))
    for cf, cols in zip((p.A, p.B, p.omega), (slice(0, p.n), slice(p.n, -1), -1)):
        F[..., cols] = cf.eval_many(p.a if cf.kind == "constant" else half)
    return F


def _affine_maps(p: LQProblem, half: np.ndarray, delta) -> np.ndarray:
    """The step increments (..., 2M, n, n+m+1) of [Z | Gamma | xi] on one half grid (4M+1,) or a stack (N, 4M+1).

    The first phase of the interval nodes: one table [A | B | omega] and
    one `_step_maps` call.  Constant A, B and omega give one map per
    interval, formed on its first three half-step points and repeated with
    stride 0 on the step axis.  Otherwise a stack whose table would pass
    TABLE_BYTES is formed in chunks of intervals, each chunk's table freed
    once its maps exist, so only the maps are held at full size.  Maps that
    do not fit in memory raise `TooLarge`.
    """
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            if p.A.kind == p.B.kind == p.omega.kind == "constant":
                one = _step_maps(_affine_table(p, half[..., :3]), delta)
                shape = one.shape[:-3] + (half.shape[-1] // 2,) + one.shape[-2:]
                return np.ndarray(shape, float, one, strides=one.strides[:-3] + (0,) + one.strides[-2:])
            rows = max(1, TABLE_BYTES // (8 * half.shape[-1] * p.n * (p.n + p.m + 1)))
            if half.ndim == 1 or half.shape[0] <= rows:
                return _step_maps(_affine_table(p, half), delta)
            maps = np.empty((half.shape[0], half.shape[1] // 2, p.n, p.n + p.m + 1))
            for lo in range(0, half.shape[0], rows):
                maps[lo : lo + rows] = _step_maps(_affine_table(p, half[lo : lo + rows]), delta[lo : lo + rows])
            return maps
    except MemoryError:
        raise _nodes_too_large((half.shape[-1] - 1) // 4) from None


def _affine_nodes(p: LQProblem, half: np.ndarray, delta) -> np.ndarray:
    """[Z | Gamma | xi] (..., 2M+1, n, n+m+1) on one half grid (4M+1,) or a stack (N, 4M+1) of them.

    `_run_maps` on the maps of `_affine_maps`: the same two phases as
    `compute_all_blocks`, which runs the second one interval at a time.
    """
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            return _run_maps(_affine_maps(p, half, delta))
    except MemoryError:
        raise _nodes_too_large((half.shape[-1] - 1) // 4) from None


def propagate_interval(maps: np.ndarray, i: int, M: int) -> np.ndarray:
    """Interval i's [Z | Gamma | xi] nodes (2M+1, n, n+m+1): the recurrence of its 2M RK4 step maps.

    maps (N, 2M, n, n+m+1) are every interval's step increments, as
    `_affine_maps` forms them on the horizon's half grids; a node at time t
    holds Y(t) with q(t) = Y(t) [y; U; 1].  Nodes that overflow raise
    `NonFinite` naming the interval.
    """
    if not _is_integer(i) or not 0 <= i < maps.shape[0]:
        raise IndexOutOfRange(f"interval {i!r} is not an integer in range for N={maps.shape[0]}")
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            Ys = _run_maps(maps[i])
    except MemoryError:
        raise _nodes_too_large(M) from None
    if not np.isfinite(Ys).all():
        raise NonFinite(f"propagation diverged on interval {i}")
    return Ys
