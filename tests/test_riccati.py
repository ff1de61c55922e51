from dataclasses import fields, replace

import numpy as np
import pytest
from scipy.linalg import cho_factor, cho_solve

import sampledlq as sq
from sampledlq.errors import DimensionMismatch, IndexOutOfRange, NonFinite, TNotPD
from sampledlq.problem import make_problem
from sampledlq.transition import propagate_interval


@pytest.fixture(scope="module")
def timevarying():
    return sq.get_problem("timevarying-demo").problem


class TestScalarBenchmarkSweep:
    def test_single_interval_recursion(self, dontchev, analytic):
        blocks, sweep, sol = sq.solve(dontchev, sq.uniform_grid(1, 0, 1), M=256)
        assert sweep.T[0, 0, 0] == pytest.approx(analytic["T0"], abs=1e-12)
        assert sweep.P[0, 0, 0] == pytest.approx(analytic["P0"], abs=1e-12)
        assert sweep.Q[0, 0, 0] == pytest.approx(analytic["Q0"], abs=1e-12)
        assert sweep.K[0, 0, 0] == pytest.approx(analytic["K0"], abs=1e-12)
        assert not np.any(sweep.H[0]) and not np.any(sweep.G[0]) and sweep.F[0] == 0.0
        assert sol.U[0, 0] == pytest.approx(analytic["U0"], abs=1e-12)
        assert sol.predicted_cost == pytest.approx(analytic["COST0"], abs=1e-12)
        assert sol.q_nodes[1, 0] == pytest.approx(analytic["Q_END0"], abs=1e-12)

    def test_terminal_data(self, dontchev):
        _, sweep, _ = sq.solve(dontchev, sq.uniform_grid(1, 0, 1), M=16)
        assert np.array_equal(sweep.K[1], dontchev.S)
        assert not np.any(sweep.J[1])
        assert sweep.Y[1] == 0.0
        assert sweep.N == 1
        assert sweep.V.shape == (2, 2, 2)

    def test_terminal_value_form(self, timevarying):
        # V[N] = [[S, 0], [0, 0]], so V_N(y) = 1/2 <S y, y> with no affine part
        grid = sq.uniform_grid(3, 0, 1)
        _, sweep, _ = sq.solve(timevarying, grid, M=8)
        S = timevarying.S
        assert np.array_equal(sweep.V[grid.N], np.block([[S, np.zeros((2, 1))], [np.zeros((1, 3))]]))
        y = np.array([0.5, -2.0])
        assert sq.value_function(sweep, grid.N, y) == 0.5 * (y @ S @ y)

    def test_value_function_quadratic(self, dontchev, analytic):
        _, sweep, _ = sq.solve(dontchev, sq.uniform_grid(1, 0, 1), M=256)
        for y in (0.0, 1.0, -2.0, 0.3):
            expected = 0.5 * analytic["K0"] * y * y
            assert sq.value_function(sweep, 0, [y]) == pytest.approx(expected, abs=1e-10)
        assert sq.value_function(sweep, 1, [3.0]) == 0.0


class TestRecursionAlgebra:
    def test_stored_pieces_consistent(self, timevarying):
        _, sweep, _ = sq.solve(timevarying, sq.uniform_grid(4, 0, 1), M=32)
        for i in range(sweep.N):
            T, P, H = sweep.T[i], sweep.P[i], sweep.H[i]
            TinvP = np.linalg.solve(T, P)
            TinvH = np.linalg.solve(T, H)
            assert np.allclose(sweep.K[i], sweep.Q[i] - P.T @ TinvP, atol=1e-12)
            assert np.allclose(sweep.J[i], sweep.G[i] - P.T @ TinvH, atol=1e-12)
            assert sweep.Y[i] == pytest.approx(sweep.F[i] - H @ TinvH, abs=1e-12)
            assert np.allclose(sweep.gain[i], -TinvP, atol=1e-12)
            assert np.allclose(sweep.offset[i], -TinvH, atol=1e-12)

    def test_no_running_or_terminal_weight(self):
        p = sq.validate_problem(make_problem(0, 1, A=[[0.5]], B=[[1.0]], W=[[0.0]],
                                             R=[[1.0]], S=[[0.0]], q_a=[1.0]))
        blocks, sweep, sol = sq.solve(p, sq.uniform_grid(3, 0, 1), M=16)
        assert not np.any(sweep.K)
        assert np.array_equal(sweep.T, blocks.Rbar)
        # Nothing penalizes the state, so the optimal control is zero.
        assert np.allclose(sol.U, 0.0, atol=1e-14)
        assert sol.predicted_cost == pytest.approx(0.0, abs=1e-15)

    def test_homogeneous_affine_terms_vanish(self):
        p = sq.get_problem("double-integrator").problem
        _, sweep, sol = sq.solve(p, sq.uniform_grid(4, 0, 1), M=16)
        assert not np.any(sweep.H)
        assert not np.any(sweep.G)
        assert not np.any(sweep.J)
        assert not np.any(sweep.F) and not np.any(sweep.Y)
        assert np.array_equal(sweep.offset, np.zeros((4, p.m)))

    def test_quadratic_terms_ignore_inhomogeneous_data(self, timevarying):
        grid = sq.uniform_grid(3, 0, 1)
        _, sweep_full, _ = sq.solve(timevarying, grid, M=16)
        bare = sq.validate_problem(replace(
            timevarying,
            omega=sq.CoefficientFunction.zeros((2,)),
            x_ref=sq.CoefficientFunction.zeros((2,)),
            v_ref=sq.CoefficientFunction.zeros((1,)),
            q_b=np.zeros(2),
        ))
        _, sweep_bare, _ = sq.solve(bare, grid, M=16)
        for name in ("K", "P", "Q", "T", "gain"):
            assert np.array_equal(getattr(sweep_full, name), getattr(sweep_bare, name))

    def test_kernel_matrices_psd(self):
        for seed in range(1000, 1025):
            p, grid = sq.random_problem(seed)
            _, sweep, _ = sq.solve(p, grid, M=16)
            for i in range(sweep.N):
                K = sweep.K[i]
                assert np.array_equal(K, K.T)
                lo = np.linalg.eigvalsh(K).min()
                scale = 1.0 + np.linalg.norm(K)
                assert lo >= -1e-8 * scale
                assert np.linalg.eigvalsh(sweep.T[i]).min() > 0.0


class TestSynthesis:
    def test_state_recursion_matches_blocks(self, timevarying):
        blocks, sweep, sol = sq.solve(timevarying, sq.uniform_grid(4, 0, 1), M=16)
        assert np.array_equal(sol.q_nodes[0], timevarying.q_a)
        for i in range(4):
            u = sol.U[i]
            expect = blocks.step[i] @ np.concatenate((sol.q_nodes[i], u, [1.0]))
            assert np.array_equal(sol.q_nodes[i + 1], expect)
            assert np.allclose(u, sweep.gain[i] @ sol.q_nodes[i] + sweep.offset[i], atol=1e-14)

    def test_predicted_cost_is_initial_value(self, timevarying):
        _, sweep, sol = sq.solve(timevarying, sq.uniform_grid(5, 0, 1), M=16)
        assert sol.predicted_cost == sq.value_function(sweep, 0, timevarying.q_a)
        assert [f.name for f in fields(sol)] == ["grid", "U", "q_nodes", "predicted_cost"]

    def test_index_guards(self, dontchev):
        _, sweep, _ = sq.solve(dontchev, sq.uniform_grid(2, 0, 1), M=8)
        with pytest.raises(IndexOutOfRange):
            sq.value_function(sweep, 3, [0.0])
        with pytest.raises(IndexOutOfRange):
            sq.value_function(sweep, -1, [0.0])
        for bad in (1.5, True, np.float64(1.0), "1"):  # no float, bool or string is an index, integer-valued or not
            with pytest.raises(IndexOutOfRange):
                sq.value_function(sweep, bad, [0.0])
        assert sq.value_function(sweep, np.int64(1), [0.5]) == sq.value_function(sweep, 1, [0.5])

    def test_dimension_guards(self, dontchev):
        grid = sq.uniform_grid(2, 0, 1)
        blocks, sweep, _ = sq.solve(dontchev, grid, M=8)
        with pytest.raises(DimensionMismatch):
            sq.forward_synthesis(sweep, replace(blocks, step=blocks.step[:1]), dontchev.q_a)
        with pytest.raises(DimensionMismatch):
            sq.forward_synthesis(sweep, blocks, np.zeros(2))
        # double-integrator's (n, m) = (2, 1) blocks on as many intervals as dontchev's (1, 1) sweep
        di = sq.get_problem("double-integrator").problem
        with pytest.raises(DimensionMismatch):
            sq.forward_synthesis(sweep, sq.compute_all_blocks(di, sq.uniform_grid(2, di.a, di.b), M=8), dontchev.q_a)
        # one interval's blocks, not a stack: their rows are not intervals
        one = replace(blocks, step=blocks.step[0], state_cost=blocks.state_cost[0], control_cost=blocks.control_cost[0])
        with pytest.raises(DimensionMismatch):
            sq.backward_sweep(one, dontchev.S)
        for j in (0, 2):
            with pytest.raises(DimensionMismatch):
                sq.value_function(sweep, j, [1.0, 2.0, 3.0])

    def test_solution_on_the_blocks_grid(self, dontchev):
        # the blocks record their grid, so no other grid can be named for their coefficients
        grid = sq.uniform_grid(3, 0, 1)
        for g in (grid, grid.tail(1)):
            blocks, sweep, sol = sq.solve(dontchev, g, M=8)
            assert blocks.grid is g and sol.grid is g
            assert sq.forward_synthesis(sweep, blocks, dontchev.q_a).grid is g


class TestTailConsistency:
    def test_tail_resolve_matches_sweep(self, timevarying):
        grid = sq.uniform_grid(5, 0, 1)
        _, sweep, _ = sq.solve(timevarying, grid, M=16)
        for j in (1, 3):
            _, tail_sweep, _ = sq.solve(timevarying, grid.tail(j), M=16)
            assert np.array_equal(tail_sweep.K[0], sweep.K[j])
            assert np.array_equal(tail_sweep.J[0], sweep.J[j])
            assert tail_sweep.Y[0] == sweep.Y[j]

    def test_nonpositive_T_detected(self, dontchev):
        blocks = sq.compute_all_blocks(dontchev, sq.uniform_grid(1, 0, 1), M=8)
        bad = replace(blocks, control_cost=np.array([[[-5.0, 0.0], [0.0, 0.0]]]))
        with pytest.raises(TNotPD):
            sq.backward_sweep(bad, dontchev.S)

    @staticmethod
    def _double_integrator(m):
        return sq.validate_problem(make_problem(0, 1, A=[[0.0, 1.0], [0.0, 0.0]], B=np.eye(2)[:, :m], W=np.eye(2),
                                                R=np.eye(m), S=np.eye(2), q_a=[1.0, 0.0]))

    @pytest.mark.parametrize("j", [1, 2])
    @pytest.mark.parametrize("kind, m", [("indefinite", 2), ("zero", 2), ("indefinite", 1), ("zero", 1)],
                             ids=["indefinite", "zero", "indefinite-m1", "zero-m1"])
    def test_nonpositive_T_names_its_interval(self, kind, j, m):
        # m = 2 factors T_j; m = 1 reads it as a number
        p = self._double_integrator(m)
        blocks = sq.compute_all_blocks(p, sq.uniform_grid(4, 0, 1), M=8)
        step, state_cost, control_cost = blocks.step.copy(), blocks.state_cost.copy(), blocks.control_cost.copy()
        if kind == "indefinite":
            # the tail after interval j is unchanged, so T_j becomes diag(1, -1) or -1 up to rounding
            T = sq.backward_sweep(blocks, p.S).T[j]
            control_cost[j, :m, :m] += np.diag([1.0, -1.0][-m:]) - T
        else:
            # no U entry left on interval j: T_j is exactly zero
            U = slice(2, 2 + m)
            step[j, :, U] = 0.0
            state_cost[j, U, :] = state_cost[j, :, U] = 0.0
            control_cost[j, :m, :] = control_cost[j, :, :m] = 0.0
        bad = replace(blocks, step=step, state_cost=state_cost, control_cost=control_cost)
        with pytest.raises(TNotPD) as info:
            sq.backward_sweep(bad, p.S)
        assert info.value.i == j

    def test_nan_in_X_is_nonfinite_before_T_is_read(self):
        # m = 1: a NaN at T_2 itself, which "not T > 0" would call TNotPD, is an overflowed form
        p = self._double_integrator(1)
        blocks = sq.compute_all_blocks(p, sq.uniform_grid(4, 0, 1), M=8)
        state_cost = blocks.state_cost.copy()
        state_cost[2, 2, 2] = np.nan
        with pytest.raises(NonFinite, match="interval 2$"):
            sq.backward_sweep(replace(blocks, state_cost=state_cost), p.S)

    def test_overflowing_cost_to_go_is_typed(self, dontchev):
        # <S q_b, q_b> overflows; the form's inf would turn every entry of the
        # next interval's Phi^T V Phi into NaN (0 * inf)
        p = replace(dontchev, S=np.array([[1.0]]), q_b=np.array([1e200]))
        with pytest.raises(NonFinite):
            sq.solve(p, sq.uniform_grid(2, 0, 1), M=8)

    def test_overflowing_value_function_is_typed(self, dontchev):
        # the sweep's forms stay finite, but 1/2 <K_0 q_a, q_a> overflows
        p = replace(dontchev, S=np.array([[1.0]]), q_a=np.array([1e160]))
        with pytest.raises(NonFinite, match="value function V_0"):
            sq.solve(p, sq.uniform_grid(2, 0, 1), M=8)


@pytest.mark.parametrize("name, bound", [("dontchev", 5e-6), ("double-integrator", 2.5e-6), ("timevarying-demo", 1e-5)])
def test_costate_is_minus_the_value_gradient(name, bound):
    # the sampled PMP and the sweep meet in p(s_i) = -(K_i q(s_i) + J_i) at the optimum; the
    # costate run's interpolated half-steps leave a relative gap of O(M^-2), 4x smaller a doubling
    p = sq.get_problem(name).problem
    grid = sq.uniform_grid(5, p.a, p.b)
    gaps = []
    for M in (8, 16, 32, 64):
        blocks, sweep, sol = sq.solve(p, grid, M)
        traj = sq.simulate_state(p, sq.PiecewiseConstantControl(grid, sol.U), M, blocks)
        ps, qs = sq.simulate_costate(traj, M).ps[:, 0], traj.qs[:, 0]
        gap = ps + np.einsum("iab,ib->ia", sweep.K[:-1], qs) + sweep.J[:-1]
        gaps.append(np.max(np.abs(gap)) / np.max(np.abs(ps)))
    assert gaps[0] <= bound
    for coarse, fine in zip(gaps, gaps[1:]):
        assert 3.9 <= coarse / fine <= 4.1


def test_paper_names_are_views_of_the_stored_forms(timevarying):
    grid = sq.uniform_grid(2, 0, 1)
    blocks, sweep, _ = sq.solve(timevarying, grid, M=8)
    cases = [
        (blocks, ["step", "state_cost", "control_cost", "Ys", "times", "grid", "dynamics"],
         ["Zstep", "ZB", "ZOmega", "ZWZ", "ZBWZ", "ZBWZB", "ZBWZOmegaX", "ZWZOmegaX", "Rbar"]),
        (sweep, ["X", "feedback", "V"],
         ["G", "H", "P", "Q", "T", "K", "J", "gain", "offset"]),
    ]
    for obj, stored, views in cases:
        assert [f.name for f in fields(obj)] == stored
        for name in views:
            assert any(np.shares_memory(getattr(obj, name), getattr(obj, f)) for f in stored if f not in ("grid", "dynamics"))
    assert sweep.X.shape == (2, 4, 4) and sweep.feedback.shape == (2, 1, 3) and sweep.V.shape == (3, 3, 3)
    assert np.array_equal(blocks.RV, -blocks.control_cost[..., :-1, -1])
    # a one-by-one block reads as an array over the stack
    for name in ("WZOmegaX2", "RV2"):
        assert getattr(blocks, name).shape == (2,)
    assert sweep.F.shape == (2,) and sweep.Y.shape == (3,)


# -- the quadratic-form blocks and sweep against the per-block formulas --------


def _reference_blocks(p, grid, M):
    """Test-only reference for compute_all_blocks: each paper-named block by its own Simpson integral."""
    out = []
    for i in range(grid.N):
        times, Ys = propagate_interval(p, grid, i, M)
        w = sq.simpson_weights(times)
        Zs, Gammas, Xis = Ys[..., :p.n], Ys[..., p.n:-1], Ys[..., -1]
        Wk, Rk, xk, vk = (cf.eval_many(times) for cf in (p.W, p.R, p.x_ref, p.v_ref))
        WZ = Wk @ Zs
        WG = Wk @ Gammas
        e = Xis - xk
        We = (Wk @ e[..., None])[..., 0]
        Rv = (Rk @ vk[..., None])[..., 0]
        ZWZ = np.einsum("k,kai,kaj->ij", w, Zs, WZ)
        ZBWZB = np.einsum("k,kai,kaj->ij", w, Gammas, WG)
        Rbar = np.einsum("k,kij->ij", w, Rk)
        out.append(dict(
            Zstep=Zs[-1], ZB=Gammas[-1], ZOmega=Xis[-1] - (p.q_b if i == grid.N - 1 else 0.0),
            ZWZ=0.5 * (ZWZ + ZWZ.T),
            ZBWZ=np.einsum("k,kai,kaj->ij", w, Gammas, WZ),
            ZBWZB=0.5 * (ZBWZB + ZBWZB.T),
            ZBWZOmegaX=np.einsum("k,kai,ka->i", w, Gammas, We),
            ZWZOmegaX=np.einsum("k,kai,ka->i", w, Zs, We),
            WZOmegaX2=float(np.einsum("k,ka,ka->", w, We, e)),
            Rbar=0.5 * (Rbar + Rbar.T),
            RV=np.einsum("k,ka->a", w, Rv),
            RV2=float(np.einsum("k,ka,ka->", w, Rv, vk)),
        ))
    return out


def _reference_solve(p, grid, M):
    """Test-only reference for solve: the six-formula sweep (F, G, H, P, Q, T) over `_reference_blocks`,
    then forward synthesis.  Returns (X, V, feedback) per interval, U and the predicted cost."""
    blocks = _reference_blocks(p, grid, M)
    K, J, Y = 0.5 * (p.S + p.S.T), np.zeros(p.n), 0.0
    steps = []
    for b in reversed(blocks):
        Z, ZB, ZO = b["Zstep"], b["ZB"], b["ZOmega"]
        KZO_J = K @ ZO + J
        F = float(ZO @ (K @ ZO) + b["WZOmegaX2"] + b["RV2"] + 2.0 * (J @ ZO) + Y)
        G = Z.T @ KZO_J + b["ZWZOmegaX"]
        H = ZB.T @ KZO_J + b["ZBWZOmegaX"] - b["RV"]
        P = ZB.T @ (K @ Z) + b["ZBWZ"]
        Q = Z.T @ (K @ Z) + b["ZWZ"]
        Q = 0.5 * (Q + Q.T)
        T = ZB.T @ (K @ ZB) + b["ZBWZB"] + b["Rbar"]
        T = 0.5 * (T + T.T)
        factor = cho_factor(T, lower=True)
        TinvP = cho_solve(factor, P)
        TinvH = cho_solve(factor, H)
        X = np.block([[Q, P.T, G[:, None]], [P, T, H[:, None]], [G[None], H[None], np.array([[F]])]])
        K = Q - P.T @ TinvP
        K, J, Y = 0.5 * (K + K.T), G - P.T @ TinvH, float(F - H @ TinvH)
        steps.append((X, np.block([[K, J[:, None]], [J[None], np.array([[Y]])]]),
                      np.hstack((-TinvP, -TinvH[:, None]))))
    steps.reverse()
    K0, J0, Y0 = (steps[0][1][:-1, :-1], steps[0][1][:-1, -1], steps[0][1][-1, -1])
    q = p.q_a
    U = []
    for (_, _, feedback), b in zip(steps, blocks):
        u = feedback[:, :-1] @ q + feedback[:, -1]
        q = b["Zstep"] @ q + b["ZB"] @ u + b["ZOmega"]
        U.append(u)
    return steps, np.array(U), 0.5 * (p.q_a @ K0 @ p.q_a) + J0 @ p.q_a + 0.5 * Y0


def _reference_case(source):
    if isinstance(source, int):
        return sq.random_problem(source)
    p = sq.get_problem(source).problem
    return p, sq.grid_from_durations(np.array([0.2, 0.5, 0.3]) * (p.b - p.a), p.a, p.b)


@pytest.mark.parametrize("source", ["dontchev", "double-integrator", "timevarying-demo", 2, 3, 8, 11, 12, 20])
def test_one_control_feedback_is_lapack_solve_bitwise(source):
    # For m = 1 the sweep's in-place substitutions scale by 1 / L_00, as trsm does, so the
    # feedback is bitwise numpy.linalg's solve pair on the same X_i and Cholesky factor.
    p, grid = _reference_case(source)
    assert p.m == 1
    _, sweep, _ = sq.solve(p, grid, M=16)
    yo = np.r_[0:p.n, p.n + 1]
    for i in range(sweep.N):
        L = np.linalg.cholesky(sweep.T[i])
        ref = -np.linalg.solve(L.T, np.linalg.solve(L, sweep.X[i][p.n:p.n + 1, yo]))
        assert sweep.feedback[i].tobytes() == ref.tobytes()


@pytest.mark.parametrize("source", ["dontchev", "double-integrator", "timevarying-demo"] + list(range(30)))
def test_quadratic_forms_match_per_block_formulas(source):
    p, grid = _reference_case(source)
    M = 16
    blocks, sweep, sol = sq.solve(p, grid, M)
    ref_steps, ref_U, ref_cost = _reference_solve(p, grid, M)
    got = [a for i in range(sweep.N) for a in (sweep.X[i], sweep.V[i], sweep.feedback[i])] + [sol.U, sol.predicted_cost]
    ref = [a for step in ref_steps for a in step] + [ref_U, ref_cost]
    for g, r in zip(got, ref):
        assert np.shape(g) == np.shape(r)
        assert np.max(np.abs(g - r)) <= 1e-13 * (1.0 + np.max(np.abs(r)))


def _fancy_index_sweep(blocks, S):
    """(X, feedback, V) of the sweep that read X_i's [y; 1] and U parts by fancy indexing and factored every T_i."""
    (n, m), N = blocks.dims, blocks.N
    X, feedback, V = np.empty((N, n + m + 1, n + m + 1)), np.empty((N, m, n + 1)), np.zeros((N + 1, n + 1, n + 1))
    V[N, :n, :n] = 0.5 * (S + S.T)
    U, yo = slice(n, n + m), np.r_[0:n, n + m]
    Phi = np.zeros((N, n + 1, n + m + 1))
    Phi[:, :n] = blocks.step
    Phi[:, n, -1] = 1.0
    for i in reversed(range(N)):
        form = Phi[i].T @ V[i + 1] @ Phi[i]
        form += blocks.state_cost[i]
        form[n:, n:] += blocks.control_cost[i]
        X[i] = 0.5 * (form + form.T)
        L = np.linalg.cholesky(X[i][U, U])
        f = feedback[i]
        f[...] = np.linalg.solve(L.T, np.linalg.solve(L, -X[i][U, yo]))
        form = X[i][yo, U] @ f
        form += X[i][np.ix_(yo, yo)]
        V[i] = 0.5 * (form + form.T)
    return X, feedback, V


@pytest.mark.parametrize("source", ["dontchev", "double-integrator", "timevarying-demo"] + list(range(12)))
def test_sweep_bitwise_equal_to_fancy_index_loop(source):
    # the sweep reads a [y; 1; U] permutation of X_i by basic slices, and for m = 1 takes
    # sqrt(T_i) itself and scales in place of the solve pair; every byte of X, feedback and V is
    # the loop's (seeds 0-11 have m = 1 to 3)
    p, grid = _reference_case(source)
    blocks, sweep, _ = sq.solve(p, grid, M=16)
    for got, ref in zip((sweep.X, sweep.feedback, sweep.V), _fancy_index_sweep(blocks, p.S)):
        assert got.tobytes() == ref.tobytes()


# -- the sweep and synthesis against a long-double reference ------------------


def _longdouble_solve(blocks, S, q_a):
    """Test-only reference: the sweep and synthesis in np.longdouble on the float64 blocks, with a
    hand-written Cholesky factor and triangular solves (np.linalg takes no long double).
    Returns U and the predicted cost."""
    ld = np.longdouble
    (n, m), N = blocks.dims, blocks.N
    U, yo = slice(n, n + m), np.r_[0:n, n + m]
    V = np.zeros((n + 1, n + 1), ld)
    V[:n, :n] = 0.5 * (S.astype(ld) + S.T)
    feedback = []
    for i in reversed(range(N)):
        Phi = np.zeros((n + 1, n + m + 1), ld)
        Phi[:n], Phi[n, -1] = blocks.step[i], 1
        X = Phi.T @ V @ Phi + blocks.state_cost[i]
        X[n:, n:] += blocks.control_cost[i]
        X = 0.5 * (X + X.T)
        T, f = X[U, U], -X[U, yo]
        L = np.zeros((m, m), ld)
        for j in range(m):
            L[j, j] = np.sqrt(T[j, j] - L[j, :j] @ L[j, :j])
            L[j + 1:, j] = (T[j + 1:, j] - L[j + 1:, :j] @ L[j, :j]) / L[j, j]
        for j in range(m):  # L w = f
            f[j] = (f[j] - L[j, :j] @ f[:j]) / L[j, j]
        for j in reversed(range(m)):  # L^T f = w
            f[j] = (f[j] - L[j + 1:, j] @ f[j + 1:]) / L[j, j]
        V = X[np.ix_(yo, yo)] + X[yo, U] @ f
        V = 0.5 * (V + V.T)
        feedback.append(f)
    q, Us = q_a.astype(ld), []
    for i, f in enumerate(reversed(feedback)):
        Us.append(f[:, :n] @ q + f[:, n])
        q = blocks.step[i] @ np.concatenate((q, Us[-1], [1]))
    z = np.append(q_a.astype(ld), 1)
    return np.array(Us), 0.5 * (z @ V @ z)


def _double_integrator_case(R=1.0, ratio=None):
    """double-integrator at control weight R, on uniform:8 or on 8 durations alternating 1 : ratio."""
    p = sq.validate_problem(make_problem(0, 1, A=[[0.0, 1.0], [0.0, 0.0]], B=[[0.0], [1.0]], W=np.eye(2),
                                         R=[[R]], S=np.eye(2), q_a=[1.0, 0.0]))
    if ratio is None:
        return p, sq.uniform_grid(8, 0, 1)
    d = np.tile([1.0, ratio], 4)
    return p, sq.grid_from_durations(d / d.sum(), 0.0, 1.0)


LONGDOUBLE_CASES = [("seed", k) for k in range(60)] + [("R", r) for r in (1e-2, 1e-5, 1e-8)] + [
    ("ratio", r) for r in (1e3, 1e6)]


@pytest.mark.skipif(np.finfo(np.longdouble).eps >= 1e-18, reason="long double is no wider than double here")
@pytest.mark.parametrize("kind, value", LONGDOUBLE_CASES, ids=[f"{k}={v:g}" for k, v in LONGDOUBLE_CASES])
def test_sweep_and_synthesis_within_long_double_reference(kind, value):
    # the float64 sweep (numpy's solve pair for m >= 2, two scalings for m = 1) and synthesis
    # against the same recursion in long double on the same blocks: their own rounding only
    p, grid = sq.random_problem(value) if kind == "seed" else _double_integrator_case(**{kind: value})
    blocks, _, sol = sq.solve(p, grid, M=16)
    ref_U, ref_cost = _longdouble_solve(blocks, p.S, p.q_a)
    assert np.max(np.abs(sol.U - ref_U)) <= 1e-14 * (1.0 + np.max(np.abs(ref_U)))
    assert abs(sol.predicted_cost - ref_cost) <= 1e-14 * (1.0 + abs(ref_cost))
