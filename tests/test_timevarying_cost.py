"""Acceptance checks on problems whose cost data depend on time.

The paper's problem class has a general quadratic cost: W, R, x and v may
depend on t.  `random_problem` and the registry hold them constant, so the
generator here draws polynomial W(t), R(t), x(t) and v(t), with constant or
polynomial A, and runs criterion 2's oracle check, criterion 5's residual
and the criterion 6 and 7 invariants on them at the acceptance tolerances.
These are also the runs that send a time-varying W (q - x) through the
costate's forcing.
"""

import numpy as np
import pytest

import sampledlq as sq
from conftest import max_relative_residual

SEEDS = range(6)
M = 64


def _poly(coeffs):
    """A CoefficientFunction from coefficients stacked lowest degree first, (deg+1,) + shape."""
    return sq.CoefficientFunction.poly(np.moveaxis(coeffs, 0, -1))


def _gram(rng, k, shift):
    """shift I + M(t)^T M(t) as a polynomial, M(t) a random k x k matrix polynomial of degree 1 or 2."""
    deg = int(rng.integers(1, 3))
    Mc = rng.uniform(-1.0, 1.0, size=(deg + 1, k, k))
    G = np.zeros((2 * deg + 1, k, k))
    for i in range(deg + 1):
        for j in range(deg + 1):
            G[i + j] += Mc[i].T @ Mc[j]
    G = 0.5 * (G + np.swapaxes(G, 1, 2))
    G[0] += shift * np.eye(k)
    return _poly(G)


def timevarying_cost_problem(seed):
    """Seeded validated problem with W(t) = M(t)^T M(t), R(t) = c I + M(t)^T M(t), and a grid.

    Odd seeds give a polynomial A(t), even seeds a constant A.  Seeds
    divisible by 3 are homogeneous (omega, x, v and q_b zero); the others
    have polynomial x(t), v(t) and omega(t).  Dimensions stay desk-scale
    (n <= 3, m <= 2, N <= 6).
    """
    rng = np.random.default_rng(1000 + seed)
    n, m, N = int(rng.integers(1, 4)), int(rng.integers(1, 3)), int(rng.integers(2, 7))
    a, b = 0.0, float(rng.uniform(0.8, 1.4))
    if seed % 2:
        A = _poly(rng.uniform(-0.8, 0.8, size=(int(rng.integers(2, 4)), n, n)))
    else:
        A = rng.uniform(-1.0, 1.0, size=(n, n))
    B = rng.uniform(-1.0, 1.0, size=(n, m))
    W, R = _gram(rng, n, 0.0), _gram(rng, m, 0.3)
    Ms = rng.uniform(-1.0, 1.0, size=(n, n))
    q_a = rng.uniform(-1.0, 1.0, size=n)
    if seed % 3 == 0:
        omega = x = v = q_b = None
    else:
        omega = _poly(rng.uniform(-0.5, 0.5, size=(2, n)))
        x = _poly(rng.uniform(-0.5, 0.5, size=(3, n)))
        v = _poly(rng.uniform(-0.5, 0.5, size=(3, m)))
        q_b = rng.uniform(-0.5, 0.5, size=n)
    p = sq.validate_problem(sq.make_problem(a, b, A=A, B=B, W=W, R=R, S=Ms.T @ Ms, q_a=q_a,
                                            omega=omega, x=x, v=v, q_b=q_b))
    d = rng.uniform(0.5, 1.5, size=N)
    return p, sq.grid_from_durations(d / d.sum() * (b - a), a, b)


@pytest.fixture(scope="module")
def suite():
    """(seed, problem, grid, sweep, solution) at M = 64 for every seed."""
    out = []
    for seed in SEEDS:
        p, grid = timevarying_cost_problem(seed)
        _, sweep, sol = sq.solve(p, grid, M)
        out.append((seed, p, grid, sweep, sol))
    return out


def test_generator_varies_the_cost_data(suite):
    kinds = [(p.A.kind, p.W.kind, p.R.kind, p.x_ref.kind, p.v_ref.kind) for _, p, _, _, _ in suite]
    assert {k[0] for k in kinds} == {"constant", "poly"}
    assert all(k[1:3] == ("poly", "poly") for k in kinds)
    assert sum(k[3:] == ("poly", "poly") for k in kinds) == 4


def test_oracle_equivalence(suite):
    # criterion 2's tolerances
    for _, p, grid, _, _ in suite:
        report = sq.cross_check(p, grid, M)
        assert report.max_rel_diff <= 1e-6
        assert abs(report.cost_diff) / (1.0 + abs(report.cost_sweep)) <= 1e-6


def test_stationarity_residual(suite):
    # criterion 5: solved at M = 64, the costate run checked at M = 512
    for _, p, _, _, sol in suite:
        assert max_relative_residual(p, sol, 512) <= 1e-6


def test_sweep_invariants(suite):
    # criterion 6: T symmetric positive definite, K PSD up to rounding, no affine terms when homogeneous
    for seed, _, _, sweep, _ in suite:
        for i in range(sweep.N):
            T, K = sweep.T[i], sweep.K[i]
            assert np.array_equal(T, T.T)
            assert np.linalg.eigvalsh(T).min() > 0.0
            assert -np.linalg.eigvalsh(K).min() / (1.0 + np.linalg.norm(K)) <= 1e-8
            if seed % 3 == 0:
                affine = (np.linalg.norm(sweep.J[i]), abs(sweep.Y[i]), np.linalg.norm(sweep.H[i]),
                          np.linalg.norm(sweep.G[i]), abs(sweep.F[i]))
                assert max(affine) <= 1e-10


def test_dynamic_programming(suite):
    # criterion 7: Bellman steps and V_0 against the simulated costs, and a tail re-solve
    for _, p, grid, sweep, sol in suite:
        traj = sq.simulate_state(p, sq.PiecewiseConstantControl(grid, sol.U), M)
        rc = sq.running_costs(traj)
        ys = [traj.qs[j][0] for j in range(grid.N)] + [traj.q_end - p.q_b]
        V = [sq.value_function(sweep, j, ys[j]) for j in range(grid.N + 1)]
        for j in range(grid.N):
            assert abs(V[j] - (rc[j] + V[j + 1])) <= 1e-6 * (1.0 + abs(V[j]))
        assert abs(V[0] - (rc.sum() + sq.terminal_cost(p, traj.q_end))) <= 1e-6 * (1.0 + abs(V[0]))
        j = grid.N // 2
        _, tail, _ = sq.solve(p, grid.tail(j), M)
        for got, want in ((tail.K[0], sweep.K[j]), (tail.J[0], sweep.J[j]), (tail.Y[0], sweep.Y[j])):
            assert np.linalg.norm(got - want) <= 1e-8 * (1.0 + np.linalg.norm(want))
