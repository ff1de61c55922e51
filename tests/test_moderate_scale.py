"""Seeded problems past desk scale: (n, m, N) = (16, 4, 6) and (24, 6, 4), polynomial A(t) and omega(t).

`random_problem` stays at n <= 4, m <= 3 and N <= 8.  These problems are
built the same way, at M = 16, and run through the dense-QP oracle, the
long-double sweep and the chunked step-map table.  Each bound is relative
to the problem's own scale, 1 + max|U| (1 + |cost| for the cost), and the
value measured when the bound was set is noted beside it.
"""

import numpy as np
import pytest

import sampledlq as sq
from sampledlq import transition
from sampledlq.oracle import cross_check

from test_riccati import _longdouble_solve

M = 16
SIZES = [(16, 4, 6), (24, 6, 4)]


def _moderate_problem(n, m, N, seed=1):
    """A problem built like `random_problem`'s forced ones, with degree-1 A(t) scaled by 1/sqrt(n) so that
    |A| stays order one, and a grid of N durations drawn in [0.5, 1.5] and scaled to [0, 1]."""
    rng = np.random.default_rng(seed)
    A = sq.CoefficientFunction.poly(np.moveaxis(rng.uniform(-1.0, 1.0, size=(2, n, n)), 0, -1) / np.sqrt(n))
    B = rng.uniform(-1.0, 1.0, size=(n, m))
    Mw, Mr, Ms = (rng.uniform(-1.0, 1.0, size=(k, k)) for k in (n, m, n))
    omega = sq.CoefficientFunction.poly(rng.uniform(-0.5, 0.5, size=(n, 2)))
    p = sq.validate_problem(sq.make_problem(
        0.0, 1.0, A=A, B=B, W=Mw.T @ Mw, R=0.3 * np.eye(m) + Mr.T @ Mr, S=Ms.T @ Ms,
        q_a=rng.uniform(-1.0, 1.0, size=n), omega=omega, x=rng.uniform(-0.5, 0.5, size=n),
        v=rng.uniform(-0.5, 0.5, size=m), q_b=rng.uniform(-0.5, 0.5, size=n)))
    d = rng.uniform(0.5, 1.5, size=N)
    return p, sq.grid_from_durations(d / d.sum(), 0.0, 1.0)


@pytest.fixture(scope="module", params=SIZES, ids=[f"n{n}-m{m}-N{N}" for n, m, N in SIZES])
def case(request):
    p, grid = _moderate_problem(*request.param)
    assert (p.n, p.m, grid.N) == request.param and p.A.kind == p.omega.kind == "poly"
    return p, grid


def test_oracle_agrees(case):
    # measured 6.0e-14 at (16, 4, 6) and 1.2e-13 at (24, 6, 4)
    report = cross_check(*case, M)
    assert report.max_rel_diff <= 1e-12


@pytest.mark.skipif(np.finfo(np.longdouble).eps >= 1e-18, reason="long double is no wider than double here")
def test_sweep_within_long_double_reference(case):
    # measured 8.8e-16 and 1.7e-15 of 1 + max|U| for U, 7.7e-17 and 1.5e-16 of 1 + |cost| for the cost
    p, grid = case
    blocks, _, sol = sq.solve(p, grid, M)
    ref_U, ref_cost = _longdouble_solve(blocks, p.S, p.q_a)
    assert np.max(np.abs(sol.U - ref_U)) <= 1e-14 * (1.0 + np.max(np.abs(ref_U)))
    assert abs(sol.predicted_cost - ref_cost) <= 1e-14 * (1.0 + abs(ref_cost))


def test_chunked_step_maps_bitwise_equal(case, monkeypatch):
    # tables of two intervals at most (at n = 24 the default budget chunks so too): the maps are
    # formed in N / 2 chunks, bitwise those of one table of all N intervals
    p, grid = case
    half, delta = transition._horizon_half_grid(grid, M)
    chunks = []
    step_maps = transition._step_maps
    monkeypatch.setattr(transition, "_step_maps", lambda F, d: chunks.append(F.shape[0]) or step_maps(F, d))
    maps = {}
    for name, budget in (("whole", 2**62), ("chunked", 2 * 8 * half.shape[-1] * p.n * (p.n + p.m + 1))):
        monkeypatch.setattr(transition, "TABLE_BYTES", budget)
        maps[name] = transition._affine_maps(p, half, delta)
    assert chunks == [grid.N] + [2] * (grid.N // 2)
    assert maps["chunked"].tobytes() == maps["whole"].tobytes()
