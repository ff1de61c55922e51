import warnings
from dataclasses import replace

import numpy as np
import pytest

import sampledlq as sq
from sampledlq.errors import DimensionMismatch, InvalidInterval, NodeMismatch, NonFinite, ValidationError
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

    @pytest.mark.parametrize("M", [4, 16])
    @pytest.mark.parametrize("source", ["dontchev", "double-integrator", "timevarying-demo", *range(30)])
    def test_blocks_nodes_give_the_same_run(self, source, M):
        if isinstance(source, str):
            p = sq.get_problem(source).problem
            grids = [sq.uniform_grid(8, p.a, p.b), sq.grid_from_durations([0.2, 0.5, 0.3], p.a, p.b)]
        else:
            p, grid = sq.random_problem(source)
            grids = [grid]
        for grid in grids:
            blocks, _, sol = sq.solve(p, grid, M)
            u = sq.PiecewiseConstantControl(grid, sol.U)
            fresh, reused = sq.simulate_state(p, u, M), sq.simulate_state(p, u, M, blocks)
            for name in ("qs", "q_end", "times"):
                assert getattr(reused, name).tobytes() == getattr(fresh, name).tobytes()

    def test_foreign_blocks_rejected(self, dontchev, timevarying):
        grid = sq.uniform_grid(3, 0, 1)
        u = zero_control(grid)
        other_grid = sq.compute_all_blocks(timevarying, sq.grid_from_durations([0.2, 0.5, 0.3], 0, 1), M=8)
        other_M = sq.compute_all_blocks(timevarying, grid, M=4)
        for blocks in (other_grid, other_M):
            with pytest.raises(NodeMismatch):
                sq.simulate_state(timevarying, u, 8, blocks)
        scalar = sq.compute_all_blocks(dontchev, grid, M=8)
        with pytest.raises(DimensionMismatch):  # n = 1 blocks for an n = 2 problem
            sq.simulate_state(timevarying, u, 8, scalar)
        # dontchev's blocks (A = 0.5) would march q(b) = e^0.5 for A = 2, not e^2
        steeper = replace(dontchev, A=sq.CoefficientFunction.constant([[2.0]]))
        with pytest.raises(NodeMismatch, match="other dynamics"):
            sq.simulate_state(steeper, u, 8, scalar)
        # a new start state keeps the dynamics, so the blocks still serve it
        moved = replace(dontchev, q_a=np.array([2.0]))
        assert sq.simulate_state(moved, u, 8, scalar).qs.tobytes() == sq.simulate_state(moved, u, 8).qs.tobytes()


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

    def test_batch_matches_loop(self):
        # every registry problem on an unequal grid and random seeds 0-29
        cases = [(p, sq.grid_from_durations(np.array([0.2, 0.5, 0.3]) * (p.b - p.a), p.a, p.b))
                 for p in (sq.get_problem(name).problem for name in sq.list_problems())]
        cases += [sq.random_problem(seed) for seed in range(30)]
        # unvalidated: W keeps a skew part, which no quadratic cost sees
        skew = make_problem(0.0, 1.0, A=[[0.0, 1.0], [-1.0, 0.0]], B=[[0.0], [1.0]], W=[[1.0, 0.5], [-0.5, 1.0]],
                            R=[[2.0]], S=np.eye(2), q_a=[1.0, 0.0], x=[0.5, 0.0], v=[0.1])
        cases.append((skew, sq.grid_from_durations([0.2, 0.5, 0.3], 0.0, 1.0)))
        rng = np.random.default_rng(0)
        for p, grid in cases:
            Us = rng.normal(size=(5, grid.N, p.m))
            batch = sq.costs_of_control_batch(p, grid, Us, M=32)
            for k in range(5):
                u = sq.PiecewiseConstantControl(grid, Us[k])
                single = sq.evaluate_cost(p, u, sq.simulate_state(p, u, M=32))
                assert abs(batch[k] - single) <= 1e-13 * (1.0 + abs(single))

    def test_batch_translation_invariant(self):
        # q_a = x = q_b = [X, 0] on double-integrator: the plant only moves the
        # position by the velocity, so the costs cannot depend on X
        grid = sq.grid_from_durations([0.2, 0.5, 0.3], 0.0, 1.0)
        Us = np.random.default_rng(1).normal(size=(5, grid.N, 1))

        def costs(X):
            p = sq.validate_problem(make_problem(0.0, 1.0, A=[[0.0, 1.0], [0.0, 0.0]], B=[[0.0], [1.0]],
                                                 W=np.eye(2), R=[[1.0]], S=np.eye(2),
                                                 q_a=[X, 0.0], x=[X, 0.0], q_b=[X, 0.0]))
            return sq.costs_of_control_batch(p, grid, Us, M=32)

        base = costs(0.0)
        assert np.all(base > 0.05)
        for X in (1e2, 1e4):
            assert np.all(np.abs(costs(X) - base) <= 1e-13 * (1.0 + np.abs(base)))


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

    def test_interval_joins_bitwise(self, timevarying):
        grid = sq.grid_from_durations([0.2, 0.5, 0.3], 0.0, 1.0)
        u = sq.PiecewiseConstantControl(grid, np.array([[0.4], [-0.2], [1.0]]))
        costate = sq.simulate_costate(timevarying, sq.simulate_state(timevarying, u, M=8), M=8)
        for i in range(grid.N - 1):
            assert np.array_equal(costate.ps[i][-1], costate.ps[i + 1][0])

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

    def test_control_size_from_values(self):
        # m = 2 from the values; Simpson's means of t and t^3 are exact
        grid = sq.grid_from_durations([0.25, 0.75], 0.0, 1.0)
        u = sq.averaged_control(lambda t: np.array([t, t**3]), grid, M=8)
        lo, hi = grid.s[:-1], grid.s[1:]
        means = np.stack(((hi**2 - lo**2) / 2.0, (hi**4 - lo**4) / 4.0), axis=1) / grid.h[:, None]
        assert u.U.shape == (2, 2)
        assert np.allclose(u.U, means, rtol=0.0, atol=1e-15)

    def test_value_size_change_rejected(self):
        with pytest.raises(DimensionMismatch):
            sq.averaged_control(lambda t: np.zeros(1 if t < 0.5 else 2), sq.uniform_grid(2, 0, 1), M=4)

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

    def test_residual_control_dimension_checked(self):
        p, grid = sq.random_problem(5)  # m = 3
        _, _, sol = sq.solve(p, grid, M=16)
        costate = sq.simulate_costate(p, sq.simulate_state(p, sq.PiecewiseConstantControl(grid, sol.U), M=16), M=16)
        with pytest.raises(DimensionMismatch):
            sq.pmp_residual_sampled(p, replace(sol, U=sol.U[:, :1]), costate)

    @pytest.mark.parametrize("a, b", [(0.0, 2.0), (-0.5, 1.0), (0.0, 0.5)])
    def test_grid_off_problem_interval_rejected(self, dontchev, a, b):
        # dontchev lives on [0, 1]: a grid past b, before a, or short of b is refused
        grid = sq.uniform_grid(4, a, b)
        for run in (lambda: sq.solve(dontchev, grid, M=8),
                    lambda: sq.simulate_state(dontchev, zero_control(grid), M=8),
                    lambda: sq.cross_check(dontchev, grid, M=8)):
            with pytest.raises(InvalidInterval):
                run()

    def test_tail_grid_accepted(self, dontchev):
        tail = sq.uniform_grid(4, 0.0, 1.0).tail(1)
        _, _, sol = sq.solve(dontchev, tail, M=8)
        sq.simulate_state(dontchev, sq.PiecewiseConstantControl(tail, sol.U), M=8)
        sq.costs_of_control_batch(dontchev, tail, np.zeros((2, tail.N, 1)), M=8)

    def test_overflow_raises_nonfinite(self):
        # A = 30000 over steps of 1/32 or 1/16: the RK4 step maps and their
        # products overflow, which must surface as NonFinite, not a RuntimeWarning.
        def scalar(A):
            return sq.validate_problem(make_problem(0, 1, A=[[A]], B=[[1.0]], W=[[1.0]], R=[[1.0]],
                                                    S=[[1.0]], q_a=[1.0], q_b=[1.0]))
        grid = sq.uniform_grid(4, 0, 1)
        u = zero_control(grid)
        p = scalar(30000.0)
        calm = sq.simulate_state(scalar(0.0), u, M=8)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for run in (lambda: sq.simulate_state(p, u, M=8),
                        lambda: sq.simulate_costate(p, calm, M=8),
                        lambda: sq.costs_of_control_batch(p, grid, np.zeros((3, 4, 1)), M=8),
                        lambda: sq.pmp_residual_permanent(p, lambda t: [0.0], M=8),
                        lambda: sq.cost_of_permanent(p, lambda t: [0.0], M=8)):
                with pytest.raises(NonFinite):
                    run()

    @staticmethod
    def _growing(q_a, q_b):
        # A = 5 on intervals of 1/4: every interval's nodes stay below e^1.25
        return sq.validate_problem(make_problem(0, 1, A=5.0, B=1.0, W=1.0, R=1.0, S=1.0, q_a=[q_a], q_b=[q_b]))

    def test_state_overflow_mid_horizon(self):
        # q_a = 1e307 grows by e^1.25 an interval and leaves the float range on the third
        p = self._growing(1e307, 0.0)
        grid = sq.uniform_grid(4, 0, 1)
        blocks = sq.compute_all_blocks(p, grid, M=8)
        assert np.all(np.isfinite(blocks.Ys))
        for given in (None, blocks):
            with pytest.raises(NonFinite, match="^simulation diverged$"):
                sq.simulate_state(p, zero_control(grid), 8, given)

    def test_costate_overflow_mid_horizon(self):
        # the state stays at 0, and p(b) = -S (q(b) - q_b) = -1e307 grows by e^1.25
        # an interval backward, leaving the float range on the third from the end
        p = self._growing(0.0, -1e307)
        traj = sq.simulate_state(p, zero_control(sq.uniform_grid(4, 0, 1)), M=8)
        assert np.all(traj.qs == 0.0)
        with pytest.raises(NonFinite, match="^simulation diverged$"):
            sq.simulate_costate(p, traj, M=8)
