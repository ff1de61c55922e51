"""Seeded problems past desk scale: (n, m, N) = (16, 4, 6) and (24, 6, 4), in three kinds.

`random_problem` stays at n <= 4, m <= 3 and N <= 8.  These problems are
built the same way, at M = 16, and run through the dense-QP oracle, the
long-double sweep, the long-double costate loop and the chunked step-map
table.  The kinds:

    poly      degree-1 A(t) and polynomial omega(t); W, R and v constant
    weights   the same, with W(t), R(t) and v(t) of degree 1 as well
    constant  A, B and omega constant (poly's values at t = 0), so the nodes
              run by doubling and the costate in its constant-A layout

Each bound is relative to the problem's own scale, 1 + max|U| (1 + |cost|
for the cost, 1 + |ref| for the costate, which is also bounded against 1
plus its node's largest |ref|), and the values measured when the bound was
set are noted beside it, in the order poly, weights, constant and
(16, 4, 6) before (24, 6, 4).  Criteria 6 and 7 of the acceptance suite, the
sweep's invariants and dynamic programming, are checked on every case too.
"""

import numpy as np
import pytest

import sampledlq as sq
from sampledlq import transition
from sampledlq.oracle import cross_check

from test_riccati import _longdouble_solve
from test_transition import _costate_ulp, _costate_ulp_bound, _reference_costate

M = 16
SIZES = [(16, 4, 6), (24, 6, 4)]
KINDS = ["poly", "weights", "constant"]
LONG_DOUBLE = pytest.mark.skipif(np.finfo(np.longdouble).eps >= 1e-18, reason="long double is no wider than double here")


def _moderate_problem(n, m, N, kind="poly", seed=1):
    """A problem built like `random_problem`'s forced ones, with degree-1 A(t) scaled by 1/sqrt(n) so that
    |A| stays order one, and a grid of N durations drawn in [0.5, 1.5] and scaled to [0, 1].  The
    "weights" kind's W(t) and R(t) run linearly between two PSD (PD) ends, so they stay PSD (PD) on
    [0, 1]."""
    rng = np.random.default_rng(seed)
    A = np.moveaxis(rng.uniform(-1.0, 1.0, size=(2, n, n)), 0, -1) / np.sqrt(n)
    B = rng.uniform(-1.0, 1.0, size=(n, m))
    Mw, Mr, Ms = (rng.uniform(-1.0, 1.0, size=(k, k)) for k in (n, m, n))
    omega = rng.uniform(-0.5, 0.5, size=(n, 2))
    q_a = rng.uniform(-1.0, 1.0, size=n)
    x, v, q_b = (rng.uniform(-0.5, 0.5, size=k) for k in (n, m, n))
    d = rng.uniform(0.5, 1.5, size=N)
    W, R = Mw.T @ Mw, 0.3 * np.eye(m) + Mr.T @ Mr
    if kind == "constant":
        A, omega = A[..., 0], omega[:, 0]
    else:
        A, omega = sq.CoefficientFunction.poly(A), sq.CoefficientFunction.poly(omega)
    if kind == "weights":
        Mw1, Mr1 = (rng.uniform(-1.0, 1.0, size=(k, k)) for k in (n, m))
        W1, R1, v1 = Mw1.T @ Mw1, 0.3 * np.eye(m) + Mr1.T @ Mr1, rng.uniform(-0.5, 0.5, size=m)
        W, R, v = (sq.CoefficientFunction.poly(np.stack((e0, e1 - e0), axis=-1)) for e0, e1 in ((W, W1), (R, R1), (v, v1)))
    p = sq.make_problem(
        0.0, 1.0, A=A, B=B, W=W, R=R, S=Ms.T @ Ms, q_a=q_a, omega=omega, x=x, v=v, q_b=q_b)
    return p, sq.grid_from_durations(d / d.sum(), 0.0, 1.0)


def _ids(params):
    return [f"n{n}-m{m}-N{N}" + ("" if kind == "poly" else f"-{kind}") for (n, m, N), kind in params]


CASES = [(size, kind) for kind in KINDS for size in SIZES]


@pytest.fixture(scope="module", params=CASES, ids=_ids(CASES))
def case(request):
    size, kind = request.param
    p, grid = _moderate_problem(*size, kind)
    assert (p.n, p.m, grid.N) == size
    assert [cf.kind for cf in (p.A, p.omega, p.W, p.R, p.v_ref)] == {
        "poly": ["poly", "poly", "constant", "constant", "constant"],
        "weights": ["poly"] * 5,
        "constant": ["constant"] * 5}[kind]
    return p, grid


def test_oracle_agrees(case):
    # measured 6.0e-14 and 1.2e-13 (poly), 8.8e-14 and 9.4e-14 (weights), 4.2e-14 and 8.5e-14 (constant)
    report = cross_check(*case, M)
    assert report.max_rel_diff <= 1e-12


@LONG_DOUBLE
def test_sweep_within_long_double_reference(case):
    # measured 8.8e-16 and 1.7e-15 (poly), 1.4e-15 and 1.5e-15 (weights), 1.7e-15 and 1.3e-15
    # (constant) of 1 + max|U| for U, and 7.7e-17 and 1.5e-16, 3.1e-18 and 1.4e-17, 2.2e-16 and
    # 1.4e-16 of 1 + |cost| for the cost
    p, grid = case
    blocks, _, sol = sq.solve(p, grid, M)
    ref_U, ref_cost = _longdouble_solve(blocks, p.S, p.q_a)
    assert np.max(np.abs(sol.U - ref_U)) <= 1e-14 * (1.0 + np.max(np.abs(ref_U)))
    assert abs(sol.predicted_cost - ref_cost) <= 1e-14 * (1.0 + abs(ref_cost))


@LONG_DOUBLE
def test_costate_within_long_double_loop(case):
    # the costate of the optimal control's run against its stage loop in long double: measured 1.86
    # and 2.32 (poly), 1.72 and 2.11 (weights), 1.92 and 1.35 (constant) ulp of 1 + |ref|.  The
    # desk-scale bound of two ulp (test_transition.py) does not hold at n = 24: poly read 3.65 there
    # when the costate reversed its coefficients per chunk, so the bound here is four.  In ulp of 1 +
    # the node's largest |ref|, under the bound in n that the desk-scale check also asserts (3.2 at
    # n = 16, 4 at n = 24), the same runs read 1.86 and 1.20, 1.24 and 0.90, 1.18 and 0.86.
    p, grid = case
    sol = sq.solve(p, grid, M)[2]
    traj = sq.simulate_state(p, sq.PiecewiseConstantControl(grid, sol.U), M)
    ps = sq.simulate_costate(traj, M).ps
    half, delta = transition._horizon_half_grid(grid, M)
    ref = _reference_costate(p, half, delta, traj.qs, -(p.S @ (traj.q_end - p.q_b)), np.longdouble)
    assert np.max(np.abs(ps - ref) / (1.0 + np.abs(ref))) <= 4 * np.finfo(float).eps
    assert _costate_ulp(ps, ref) <= _costate_ulp_bound(p.n)


def test_sweep_invariants(case):
    # criterion 6: every T_i bitwise symmetric and positive definite (smallest eigenvalue measured 0.131
    # and 0.532, 0.142 and 0.566, 0.132 and 0.506), and no K_i short of PSD by more than 1e-8 of
    # 1 + |K_i| (every K_i measured PD, its smallest eigenvalue 0.0185 and 0.00757 in each kind)
    sweep = sq.solve(*case, M)[1]
    for T, K in zip(sweep.T, sweep.K):
        assert np.array_equal(T, T.T)
        assert np.linalg.eigvalsh(T)[0] > 0.0
        assert -np.linalg.eigvalsh(K)[0] / (1.0 + np.linalg.norm(K)) <= 1e-8


def test_dynamic_programming(case):
    # criterion 7: the tail from j = N // 2 re-solved gives the full solve's blocks j: and V[j] bitwise
    # (measured exactly 0 apart), and the optimal run keeps Bellman's equation V_k(y_k) = running
    # cost of interval k + V_{k+1}(y_{k+1}) to 1e-6 of 1 + |V_k| (measured 3.5e-16 and 4.6e-16,
    # 3.7e-16 and 6.4e-16, 2.6e-16 and 6.7e-16)
    p, grid = case
    blocks, sweep, sol = sq.solve(p, grid, M)
    j = grid.N // 2
    tail_blocks, tail_sweep, _ = sq.solve(p, grid.tail(j), M)
    for name in ("step", "state_cost", "control_cost", "Ys", "times"):
        assert getattr(tail_blocks, name).tobytes() == getattr(blocks, name)[j:].tobytes(), name
    assert tail_sweep.V[0].tobytes() == sweep.V[j].tobytes()
    traj = sq.simulate_state(p, sq.PiecewiseConstantControl(grid, sol.U), M, blocks)
    costs = sq.running_costs(traj)
    V = [sq.value_function(sweep, k, y) for k, y in enumerate([*traj.qs[:, 0], traj.q_end - p.q_b])]
    for k in range(grid.N):
        assert abs(V[k] - (costs[k] + V[k + 1])) <= 1e-6 * (1.0 + abs(V[k]))


@pytest.mark.parametrize("size", SIZES, ids=_ids((size, "poly") for size in SIZES))
def test_chunked_step_maps_bitwise_equal(size, monkeypatch):
    # tables of two intervals at most (at n = 24 the default budget chunks so too): the maps are
    # formed in N / 2 chunks, bitwise those of one table of all N intervals
    p, grid = _moderate_problem(*size)
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
