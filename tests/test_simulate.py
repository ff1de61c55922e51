from dataclasses import replace

import numpy as np
import pytest

import sampledlq as sq
from sampledlq.errors import DimensionMismatch, NodeMismatch, NonFinite, ValidationError
from sampledlq.problem import make_problem

E = np.e


@pytest.fixture(scope="module")
def timevarying():
    return sq.get_problem("timevarying-demo").problem


def zero_control(grid, m=1):
    return sq.PiecewiseConstantControl(grid, np.zeros((grid.N, m)))


class TestPiecewiseConstantControl:
    def test_right_continuous_lookup(self):
        grid = sq.grid_from_durations([0.5, 0.5], 0.0, 1.0)
        u = sq.PiecewiseConstantControl(grid, np.array([[1.0], [2.0]]))
        assert u(0.0)[0] == 1.0
        assert u(0.49999)[0] == 1.0
        assert u(0.5)[0] == 2.0
        assert u(1.0)[0] == 2.0

    def test_one_dimensional_promotion(self):
        grid = sq.uniform_grid(3, 0, 1)
        u = sq.PiecewiseConstantControl(grid, np.array([1.0, 2.0, 3.0]))
        assert u.U.shape == (3, 1)
        assert u.m == 1

    def test_coefficients_read_only(self):
        u = zero_control(sq.uniform_grid(2, 0, 1))
        with pytest.raises(ValueError):
            u.U[0, 0] = 1.0

    def test_caller_array_stays_writeable(self):
        U = np.zeros((2, 1))
        u = sq.PiecewiseConstantControl(sq.uniform_grid(2, 0, 1), U)
        assert U.flags.writeable
        U[0, 0] = 1.0
        assert u.U[0, 0] == 0.0

    def test_wrong_count_rejected(self):
        grid = sq.uniform_grid(3, 0, 1)
        with pytest.raises(DimensionMismatch):
            sq.PiecewiseConstantControl(grid, np.zeros((2, 1)))

    def test_nonfinite_rejected(self):
        grid = sq.uniform_grid(1, 0, 1)
        with pytest.raises(NonFinite):
            sq.PiecewiseConstantControl(grid, np.array([[np.nan]]))


class TestSimulateState:
    def test_uncontrolled_exponential(self, dontchev):
        traj = sq.simulate_state(dontchev, zero_control(sq.uniform_grid(4, 0, 1)), M=64)
        assert traj.q_end[0] == pytest.approx(np.sqrt(E), abs=1e-10)
        for nodes, qs in zip(traj.times, traj.qs):
            assert np.allclose(qs[:, 0], np.exp(0.5 * nodes), atol=1e-10)

    def test_optimal_coefficient_endpoint(self, dontchev, analytic):
        grid = sq.uniform_grid(1, 0, 1)
        u = sq.PiecewiseConstantControl(grid, np.array([[analytic["U0"]]]))
        traj = sq.simulate_state(dontchev, u, M=256)
        assert traj.q_end[0] == pytest.approx(analytic["Q_END0"], abs=1e-12)
        assert traj.substeps == 256

    def test_interval_joins_bitwise(self, timevarying):
        grid = sq.grid_from_durations([0.2, 0.5, 0.3], 0.0, 1.0)
        u = sq.PiecewiseConstantControl(grid, np.array([[0.4], [-0.2], [1.0]]))
        traj = sq.simulate_state(timevarying, u, M=8)
        for i in range(grid.N - 1):
            assert np.array_equal(traj.qs[i][-1], traj.qs[i + 1][0])
        assert np.array_equal(traj.qs[-1][-1], traj.q_end)

    def test_matches_forward_synthesis(self, timevarying):
        grid = sq.uniform_grid(4, 0, 1)
        _, _, sol = sq.solve(timevarying, grid, M=32)
        traj = sq.simulate_state(timevarying, sq.PiecewiseConstantControl(grid, sol.U), M=32)
        # Interior nodes coincide; the synthesis stores q(b) - q_b at the end.
        for i in range(grid.N):
            assert np.allclose(traj.qs[i][0], sol.q_nodes[i], atol=1e-12)
        assert np.allclose(traj.q_end - timevarying.q_b, sol.q_nodes[-1], atol=1e-12)


class TestCost:
    def test_zero_control_cost(self, dontchev, analytic):
        u = zero_control(sq.uniform_grid(2, 0, 1))
        traj = sq.simulate_state(dontchev, u, M=128)
        assert sq.evaluate_cost(dontchev, u, traj) == pytest.approx(
            analytic["ORACLE_C"], abs=1e-10)

    def test_simulated_matches_predicted(self, dontchev, analytic):
        grid = sq.uniform_grid(1, 0, 1)
        _, _, sol = sq.solve(dontchev, grid, M=256)
        u = sq.PiecewiseConstantControl(grid, sol.U)
        traj = sq.simulate_state(dontchev, u, M=256)
        cost = sq.evaluate_cost(dontchev, u, traj)
        assert cost == pytest.approx(analytic["COST0"], abs=1e-10)
        assert cost == pytest.approx(sol.predicted_cost, abs=1e-10)

    def test_terminal_cost(self):
        p = sq.validate_problem(make_problem(0, 1, A=[[0.0]], B=[[1.0]], W=[[0.0]],
                                             R=[[1.0]], S=[[3.0]], q_a=[0.0], q_b=[1.0]))
        assert sq.terminal_cost(p, np.array([4.0])) == pytest.approx(0.5 * 3.0 * 9.0)
        assert sq.terminal_cost(p, np.array([1.0])) == 0.0

    def test_running_costs_additive(self, timevarying):
        grid = sq.uniform_grid(3, 0, 1)
        u = sq.PiecewiseConstantControl(grid, np.array([[0.1], [0.2], [0.3]]))
        traj = sq.simulate_state(timevarying, u, M=64)
        parts = sq.running_costs(timevarying, u, traj)
        assert parts.shape == (3,)
        assert np.all(parts >= 0.0)
        total = sq.evaluate_cost(timevarying, u, traj)
        assert total == pytest.approx(np.sum(parts) + sq.terminal_cost(
            timevarying, traj.q_end), abs=1e-12)

    def test_grid_mismatch_rejected(self, dontchev):
        u = zero_control(sq.uniform_grid(2, 0, 1))
        traj = sq.simulate_state(dontchev, u, M=8)
        other = zero_control(sq.grid_from_durations([0.4, 0.6], 0.0, 1.0))
        with pytest.raises(NodeMismatch):
            sq.running_costs(dontchev, other, traj)

    def test_batch_matches_loop(self, timevarying):
        grid = sq.uniform_grid(3, 0, 1)
        rng = np.random.default_rng(0)
        Us = rng.normal(size=(5, 3, 1))
        batch = sq.costs_of_control_batch(timevarying, grid, Us, M=32)
        for k in range(5):
            u = sq.PiecewiseConstantControl(grid, Us[k])
            traj = sq.simulate_state(timevarying, u, M=32)
            single = sq.evaluate_cost(timevarying, u, traj)
            assert batch[k] == pytest.approx(single, rel=1e-12, abs=1e-12)


class TestCostate:
    def test_terminal_condition_exact(self, timevarying):
        grid = sq.uniform_grid(2, 0, 1)
        u = sq.PiecewiseConstantControl(grid, np.array([[0.3], [-0.1]]))
        traj = sq.simulate_state(timevarying, u, M=32)
        costate = sq.simulate_costate(timevarying, traj, M=32)
        expected = -timevarying.S @ (traj.q_end - timevarying.q_b)
        assert np.array_equal(costate.p_end, expected)
        assert np.array_equal(costate.ps[-1][-1], costate.p_end)

    def test_scalar_closed_form(self, dontchev):
        # Uncontrolled state e^(t/2) gives p(t) = -2 e^(-t/2) (e - e^t).
        u = zero_control(sq.uniform_grid(2, 0, 1))
        traj = sq.simulate_state(dontchev, u, M=256)
        costate = sq.simulate_costate(dontchev, traj, M=256)
        for nodes, ps in zip(costate.times, costate.ps):
            exact = -2.0 * np.exp(-0.5 * nodes) * (E - np.exp(nodes))
            assert np.allclose(ps[:, 0], exact, atol=1e-5)

    def test_substep_mismatch_rejected(self, dontchev):
        u = zero_control(sq.uniform_grid(1, 0, 1))
        traj = sq.simulate_state(dontchev, u, M=16)
        with pytest.raises(NodeMismatch):
            sq.simulate_costate(dontchev, traj, M=32)


class TestSampledResidual:
    def test_optimal_solution_small_residual(self, dontchev):
        from conftest import max_relative_residual

        for N in (1, 5):
            _, _, sol = sq.solve(dontchev, sq.uniform_grid(N, 0, 1), M=256)
            assert max_relative_residual(dontchev, sol, 256) <= 1e-6

    def test_perturbed_solution_flagged(self, dontchev):
        from conftest import max_relative_residual

        grid = sq.uniform_grid(2, 0, 1)
        _, _, sol = sq.solve(dontchev, grid, M=256)
        bad = replace(sol, U=sol.U + 0.01)
        assert max_relative_residual(dontchev, bad, 256) >= 1e-3

    def test_residual_shape(self, timevarying):
        grid = sq.uniform_grid(3, 0, 1)
        _, _, sol = sq.solve(timevarying, grid, M=64)
        u = sq.PiecewiseConstantControl(grid, sol.U)
        traj = sq.simulate_state(timevarying, u, M=64)
        costate = sq.simulate_costate(timevarying, traj, M=64)
        r = sq.pmp_residual_sampled(timevarying, sol, costate)
        assert r.shape == (3, 1)


class TestPermanentControl:
    def test_reference_residual_small(self, dontchev_entry, dontchev):
        res = sq.pmp_residual_permanent(dontchev, dontchev_entry.reference_control, M=512)
        assert res <= 1e-5

    def test_zero_control_not_stationary(self, dontchev):
        res = sq.pmp_residual_permanent(dontchev, lambda t: np.zeros(1), M=128)
        assert res >= 0.1

    def test_reference_cost(self, dontchev_entry, dontchev, analytic):
        cost = sq.cost_of_permanent(dontchev, dontchev_entry.reference_control, M=512)
        assert cost == pytest.approx(analytic["PERMANENT_COST"], abs=1e-8)

    def test_zero_permanent_cost(self, dontchev, analytic):
        cost = sq.cost_of_permanent(dontchev, lambda t: np.zeros(1), M=256)
        assert cost == pytest.approx(analytic["ORACLE_C"], abs=1e-10)


class TestAveragedControl:
    def test_linear_function_exact_means(self):
        grid = sq.uniform_grid(2, 0, 1)
        u = sq.averaged_control(lambda t: np.array([t]), grid, M=16)
        assert u.U[0, 0] == pytest.approx(0.25, abs=1e-14)
        assert u.U[1, 0] == pytest.approx(0.75, abs=1e-14)

    def test_constant_function_reproduced(self, dontchev):
        grid = sq.grid_from_durations([0.1, 0.9], 0.0, 1.0)
        u = sq.averaged_control(lambda t: np.array([2.5]), grid, M=8)
        assert np.allclose(u.U, 2.5, atol=1e-14)

    def test_averaging_beats_nothing_but_not_optimal(self, dontchev, dontchev_entry):
        # One sandwich instance: C(u_ref) <= C(sampled optimal) <= C(averaged u_ref).
        grid = sq.uniform_grid(2, 0, 1)
        _, _, sol = sq.solve(dontchev, grid, M=128)
        u_star = sq.PiecewiseConstantControl(grid, sol.U)
        cost_star = sq.evaluate_cost(dontchev, u_star,
                                     sq.simulate_state(dontchev, u_star, M=128))
        u_avg = sq.averaged_control(dontchev_entry.reference_control, grid, M=128)
        cost_avg = sq.evaluate_cost(dontchev, u_avg,
                                    sq.simulate_state(dontchev, u_avg, M=128))
        cost_ref = sq.cost_of_permanent(dontchev, dontchev_entry.reference_control, M=512)
        assert cost_ref <= cost_star + 1e-12
        assert cost_star <= cost_avg + 1e-12


def _costate_at(p, grid, M):
    traj = sq.simulate_state(p, zero_control(grid), M=16)
    return sq.simulate_costate(p, traj, M)


TAKES_M = {
    "simulate_state": lambda p, grid, M: sq.simulate_state(p, zero_control(grid), M),
    "simulate_costate": _costate_at,
    "pmp_residual_permanent": lambda p, grid, M: sq.pmp_residual_permanent(p, lambda t: np.zeros(1), M),
    "cost_of_permanent": lambda p, grid, M: sq.cost_of_permanent(p, lambda t: np.zeros(1), M),
    "averaged_control": lambda p, grid, M: sq.averaged_control(lambda t: np.zeros(1), grid, M),
    "costs_of_control_batch": lambda p, grid, M: sq.costs_of_control_batch(p, grid, np.zeros((1, grid.N, 1)), M),
    "propagate_interval": lambda p, grid, M: sq.propagate_interval(p, grid, 0, M),
    "transition_matrix": lambda p, grid, M: sq.transition_matrix(p, 1.0, 0.0, M),
    "transition_matrix_at_s": lambda p, grid, M: sq.transition_matrix(p, 0.5, 0.5, M),
    "compute_all_blocks": lambda p, grid, M: sq.compute_all_blocks(p, grid, M),
    "solve": lambda p, grid, M: sq.solve(p, grid, M),
    "assemble_qp": lambda p, grid, M: sq.assemble_qp(p, grid, M),
    "cross_check": lambda p, grid, M: sq.cross_check(p, grid, M),
}


class TestTypedErrors:
    @pytest.mark.parametrize("M", [0, -1])
    @pytest.mark.parametrize("name", sorted(TAKES_M))
    def test_nonpositive_substeps_rejected(self, dontchev, name, M):
        with pytest.raises(ValidationError):
            TAKES_M[name](dontchev, sq.uniform_grid(2, 0, 1), M)

    def test_control_dimension_checked(self, dontchev):
        grid = sq.uniform_grid(2, 0, 1)
        two = zero_control(grid, m=2)
        with pytest.raises(DimensionMismatch):
            sq.simulate_state(dontchev, two, M=8)
        traj = sq.simulate_state(dontchev, zero_control(grid), M=8)
        with pytest.raises(DimensionMismatch):
            sq.running_costs(dontchev, two, traj)
        with pytest.raises(DimensionMismatch):
            sq.cost_of_permanent(dontchev, lambda t: np.zeros(2), M=8)
        with pytest.raises(DimensionMismatch):
            sq.pmp_residual_permanent(dontchev, lambda t: np.zeros(2), M=8)
