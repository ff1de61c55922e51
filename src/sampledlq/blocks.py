"""Per-interval integral blocks assembled from propagation node data.

With Gamma(tau) and xi(tau) from the interval propagation, every block is an
integral over [s_i, s_{i+1}] evaluated by composite Simpson on the shared
RK4 nodes:

    ZB      = Gamma(s_{i+1})
    ZOmega  = xi(s_{i+1})            (minus q_b on the last interval)
    ZWZ     = int Z^T W Z            ZBWZ    = int Gamma^T W Z
    ZBWZB   = int Gamma^T W Gamma    Rbar    = int R
    ZWZOmegaX  = int Z^T W (xi - x)  ZBWZOmegaX = int Gamma^T W (xi - x)
    WZOmegaX2  = int <W (xi - x), xi - x>
    RV      = int R v                RV2     = int <R v, v>
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NodeMismatch, ValidationError
from .problem import LQProblem, SamplingGrid, check_grid
from .transition import IntervalPropagation, propagate_interval


@dataclass(frozen=True, eq=False)
class IntervalBlocks:
    i: int
    Zstep: np.ndarray       # Z(s_{i+1}, s_i), n x n
    ZB: np.ndarray          # n x m
    ZOmega: np.ndarray      # n
    ZWZ: np.ndarray         # n x n
    ZBWZ: np.ndarray        # m x n
    ZBWZB: np.ndarray       # m x m
    ZBWZOmegaX: np.ndarray  # m
    ZWZOmegaX: np.ndarray   # n
    WZOmegaX2: float
    Rbar: np.ndarray        # m x m
    RV: np.ndarray          # m
    RV2: float

    def to_jsonable(self) -> dict:
        return {
            "i": self.i,
            "Zstep": self.Zstep.tolist(),
            "ZB": self.ZB.tolist(),
            "ZOmega": self.ZOmega.tolist(),
            "ZWZ": self.ZWZ.tolist(),
            "ZBWZ": self.ZBWZ.tolist(),
            "ZBWZB": self.ZBWZB.tolist(),
            "ZBWZOmegaX": self.ZBWZOmegaX.tolist(),
            "ZWZOmegaX": self.ZWZOmegaX.tolist(),
            "WZOmegaX2": self.WZOmegaX2,
            "Rbar": self.Rbar.tolist(),
            "RV": self.RV.tolist(),
            "RV2": self.RV2,
        }


def simpson_weights(num_nodes: int, delta: float) -> np.ndarray:
    """Composite Simpson weights for an odd node count with spacing delta."""
    if num_nodes < 3 or num_nodes % 2 == 0:
        raise ValidationError(f"Simpson needs an odd node count >= 3, got {num_nodes}")
    w = np.ones(num_nodes)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return w * (delta / 3.0)


def compute_blocks(
    p: LQProblem, grid: SamplingGrid, i: int, prop: IntervalPropagation
) -> IntervalBlocks:
    """Assemble the interval blocks from one interval's propagation data."""
    if prop.i != i:
        raise NodeMismatch(f"propagation is for interval {prop.i}, expected {i}")
    nodes = prop.nodes
    if nodes[0] != grid.s[i] or nodes[-1] != grid.s[i + 1]:
        raise NodeMismatch(f"propagation nodes do not span interval {i} of this grid")
    num = nodes.shape[0]
    delta = float(grid.h[i]) / (num - 1)
    w = simpson_weights(num, delta)

    Zs, Gammas, Xis = prop.Zs, prop.Gammas, prop.Xis
    Wk = p.W.eval_many(nodes)
    Rk = p.R.eval_many(nodes)
    xk = p.x_ref.eval_many(nodes)
    vk = p.v_ref.eval_many(nodes)

    WZ = Wk @ Zs
    WG = Wk @ Gammas
    e = Xis - xk
    We = (Wk @ e[..., None])[..., 0]
    Rv = (Rk @ vk[..., None])[..., 0]

    ZWZ = np.einsum("k,kai,kaj->ij", w, Zs, WZ)
    ZBWZ = np.einsum("k,kai,kaj->ij", w, Gammas, WZ)
    ZBWZB = np.einsum("k,kai,kaj->ij", w, Gammas, WG)
    ZBWZOmegaX = np.einsum("k,kai,ka->i", w, Gammas, We)
    ZWZOmegaX = np.einsum("k,kai,ka->i", w, Zs, We)
    WZOmegaX2 = float(np.einsum("k,ka,ka->", w, We, e))
    Rbar = np.einsum("k,kij->ij", w, Rk)
    RV = np.einsum("k,ka->a", w, Rv)
    RV2 = float(np.einsum("k,ka,ka->", w, Rv, vk))

    ZOmega = Xis[-1].copy()
    if i == grid.N - 1:
        ZOmega -= p.q_b

    return IntervalBlocks(
        i=i,
        Zstep=Zs[-1],
        ZB=Gammas[-1],
        ZOmega=ZOmega,
        ZWZ=0.5 * (ZWZ + ZWZ.T),
        ZBWZ=ZBWZ,
        ZBWZB=0.5 * (ZBWZB + ZBWZB.T),
        ZBWZOmegaX=ZBWZOmegaX,
        ZWZOmegaX=ZWZOmegaX,
        WZOmegaX2=WZOmegaX2,
        Rbar=0.5 * (Rbar + Rbar.T),
        RV=RV,
        RV2=RV2,
    )


def compute_all_blocks(p: LQProblem, grid: SamplingGrid, M: int) -> list:
    """Blocks for every interval, ordered by index; q_a is never an input."""
    if not p.validated:
        raise ValidationError("problem must be validated before computing blocks")
    check_grid(p, grid)
    return [
        compute_blocks(p, grid, i, propagate_interval(p, grid, i, M))
        for i in range(grid.N)
    ]
