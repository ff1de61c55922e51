import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sampledlq as sq
from sampledlq.errors import NotPD, TooLarge
from sampledlq.oracle import DenseQP, assemble_qp, cross_check, solve_qp
from sampledlq.problem import make_problem


class TestAssembly:
    def test_scalar_single_interval(self, dontchev, analytic):
        qp = assemble_qp(dontchev, sq.uniform_grid(1, 0, 1), M=256)
        # With K_N = S = 0 the exact Hessian is T and the gradient is P q_a.
        assert qp.Hq[0, 0] == pytest.approx(analytic["T0"], abs=1e-9)
        assert qp.g[0] == pytest.approx(analytic["P0"], abs=1e-9)
        assert qp.c == pytest.approx(analytic["ORACLE_C"], abs=1e-9)

    def test_pure_control_cost_is_block_diagonal(self):
        p = sq.validate_problem(make_problem(0, 1, A=[[0.5]], B=[[1.0]], W=[[0.0]],
                                             R=[[2.0]], S=[[0.0]], q_a=[1.0]))
        grid = sq.uniform_grid(3, 0, 1)
        qp = assemble_qp(p, grid, M=16)
        blocks = sq.compute_all_blocks(p, grid, M=16)
        expected = np.diag(blocks.Rbar[:, 0, 0])
        assert np.allclose(qp.Hq, expected, atol=1e-10)
        assert np.allclose(qp.g, 0.0, atol=1e-12)
        assert qp.c == pytest.approx(0.0, abs=1e-12)

    def test_hessian_symmetric(self, dontchev):
        qp = assemble_qp(dontchev, sq.uniform_grid(4, 0, 1), M=16)
        assert np.array_equal(qp.Hq, qp.Hq.T)

    def test_guard_rejects_large_stack(self, dontchev):
        with pytest.raises(TooLarge):
            assemble_qp(dontchev, sq.uniform_grid(401, 0, 1), M=2)

    @given(st.floats(-4.0, 4.0), st.floats(-4.0, 4.0))
    @settings(deadline=None, max_examples=25)
    def test_quadratic_model_reproduces_cost(self, u0, u1):
        p = sq.get_problem("dontchev").problem
        grid = sq.uniform_grid(2, 0, 1)
        qp = assemble_qp(p, grid, M=32)
        U = np.array([u0, u1])
        direct = sq.costs_of_control_batch(p, grid, U.reshape(1, 2, 1), M=32)[0]
        model = qp.value(U)
        assert abs(model - direct) <= 1e-9 * (1.0 + abs(direct))

    def test_multidimensional_model(self):
        p = sq.get_problem("timevarying-demo").problem
        grid = sq.uniform_grid(3, 0, 1)
        qp = assemble_qp(p, grid, M=16)
        rng = np.random.default_rng(3)
        for _ in range(4):
            U = rng.normal(size=(3, 1))
            direct = sq.costs_of_control_batch(p, grid, U[None], M=16)[0]
            assert abs(qp.value(U.ravel()) - direct) <= 1e-9 * (1.0 + abs(direct))


class TestSolveQP:
    def test_identity_hessian(self):
        qp = DenseQP(Hq=np.eye(2), g=np.array([-1.0, 2.0]), c=0.5)
        U = solve_qp(qp)
        assert np.allclose(U, [1.0, -2.0], atol=1e-14)
        assert qp.value(U) == pytest.approx(0.5 - 0.5 * 5.0)

    def test_not_positive_definite(self):
        qp = DenseQP(Hq=np.array([[0.0]]), g=np.array([1.0]), c=0.0)
        with pytest.raises(NotPD):
            solve_qp(qp)

    def test_indefinite_hessian_reports_min_eigenvalue(self):
        qp = DenseQP(Hq=np.array([[1.0, 2.0], [2.0, 1.0]]), g=np.array([1.0, 0.0]), c=0.0)
        with pytest.raises(NotPD) as info:
            solve_qp(qp)
        assert info.value.name == "Hq" and info.value.t is None
        assert info.value.eigenvalue == pytest.approx(-1.0, abs=1e-14)
        assert info.value.exit_code == 2

    def test_scalar_benchmark_minimizer(self, dontchev, analytic):
        qp = assemble_qp(dontchev, sq.uniform_grid(1, 0, 1), M=256)
        U = solve_qp(qp)
        assert U[0] == pytest.approx(analytic["U0"], abs=1e-9)
        assert qp.value(U) == pytest.approx(analytic["COST0"], abs=1e-9)


class TestCrossCheck:
    def test_scalar_benchmark_agreement(self, dontchev):
        report = cross_check(dontchev, sq.uniform_grid(3, 0, 1), M=64)
        assert report.max_rel_diff <= 1e-10
        assert abs(report.cost_diff) <= 1e-10
        assert report.certificate_norm <= 1e-9 * (1.0 + np.linalg.norm(report.U_qp))
        assert report.U_sweep.shape == (3,)
        assert report.U_qp.shape == (3,)

    def test_random_problems_agree(self):
        for seed in range(1, 9):
            p, grid = sq.random_problem(seed)
            report = cross_check(p, grid, M=16)
            scale = 1.0 + np.max(np.abs(report.U_sweep))
            assert report.max_abs_diff <= 1e-8 * scale, f"seed {seed}"
            assert abs(report.cost_diff) <= 1e-8 * (1.0 + abs(report.cost_sweep))
