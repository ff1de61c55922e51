from dataclasses import fields, replace

import numpy as np
import pytest
from scipy.linalg import expm

import sampledlq as sq
from sampledlq import blocks as blocks_module
from sampledlq.errors import DimensionMismatch, IndexOutOfRange, NodeMismatch, ValidationError
from sampledlq.problem import make_problem
from sampledlq.transition import propagate_interval


@pytest.fixture(scope="module")
def homogeneous():
    return sq.get_problem("double-integrator").problem


class TestSimpsonWeights:
    def test_three_nodes(self):
        w = sq.simpson_weights(3, 0.5)
        assert np.allclose(w, np.array([1.0, 4.0, 1.0]) * 0.5 / 3.0)

    def test_weights_sum_to_length(self):
        w = sq.simpson_weights(9, 0.125)
        assert np.sum(w) == pytest.approx(1.0, abs=1e-15)

    def test_even_count_rejected(self):
        with pytest.raises(ValidationError):
            sq.simpson_weights(4, 0.1)

    def test_exact_for_cubics(self):
        nodes = np.linspace(0.0, 1.0, 5)
        w = sq.simpson_weights(5, 0.25)
        assert w @ nodes**3 == pytest.approx(0.25, abs=1e-15)

    def test_fresh_writable_result(self):
        first = sq.simpson_weights(7, 0.5)
        assert first.flags.writeable
        first[:] = -1.0
        second = sq.simpson_weights(7, 0.5)
        assert second.tobytes() == (np.array([1.0, 4.0, 2.0, 4.0, 2.0, 4.0, 1.0]) * (0.5 / 3.0)).tobytes()
        assert not np.shares_memory(first, second)
        rows = sq.simpson_weights(7, np.array([[0.5], [0.25]]))  # one spacing per row
        assert rows.shape == (2, 7) and rows[0].tobytes() == second.tobytes()

    @pytest.mark.parametrize("bad", [1, 2, 4])
    def test_bad_count_rejected_after_a_valid_one(self, bad):
        sq.simpson_weights(5, 0.25)
        sq.simpson_weights(3, 0.25)
        with pytest.raises(ValidationError):
            sq.simpson_weights(bad, 0.25)


class TestScalarBenchmarkBlocks:
    def test_single_interval_values(self, dontchev, analytic):
        grid = sq.uniform_grid(1, 0, 1)
        blocks = sq.compute_all_blocks(dontchev, grid, M=256)
        assert blocks.Zstep[0, 0, 0] == pytest.approx(analytic["Z10"], abs=1e-12)
        assert blocks.ZB[0, 0, 0] == pytest.approx(analytic["ZB0"], abs=1e-12)
        assert blocks.ZWZ[0, 0, 0] == pytest.approx(analytic["ZWZ0"], abs=1e-12)
        assert blocks.ZBWZ[0, 0, 0] == pytest.approx(analytic["ZBWZ0"], abs=1e-12)
        assert blocks.ZBWZB[0, 0, 0] == pytest.approx(analytic["ZBWZB0"], abs=1e-12)
        assert blocks.Rbar[0, 0, 0] == pytest.approx(1.0, abs=1e-12)

    def test_shift_free_terms_vanish(self, dontchev):
        # omega = x = v = 0 and q_b = 0, so every inhomogeneous block is zero.
        blocks = sq.compute_all_blocks(dontchev, sq.uniform_grid(1, 0, 1), M=16)
        assert not np.any(blocks.ZOmega)
        assert not np.any(blocks.ZBWZOmegaX)
        assert not np.any(blocks.ZWZOmegaX)
        assert not np.any(blocks.WZOmegaX2)
        assert not np.any(blocks.RV)
        assert not np.any(blocks.RV2)

    def test_quarter_interval_step(self, dontchev):
        blocks = sq.compute_all_blocks(dontchev, sq.uniform_grid(4, 0, 1), M=64)
        for i in range(4):
            assert blocks.Zstep[i, 0, 0] == pytest.approx(np.exp(0.125), abs=1e-12)


class TestBlockStructure:
    def test_zero_W_kills_state_coupling(self):
        p = sq.validate_problem(make_problem(0, 1, A=[[0.5]], B=[[1.0]], W=[[0.0]],
                                             R=[[1.0]], S=[[1.0]], q_a=[1.0]))
        blocks = sq.compute_all_blocks(p, sq.uniform_grid(1, 0, 1), M=16)
        assert not np.any(blocks.ZWZ)
        assert not np.any(blocks.ZBWZ)
        assert not np.any(blocks.ZBWZB)
        assert blocks.Rbar[0, 0, 0] == pytest.approx(1.0, abs=1e-12)

    def test_homogeneous_inhomogeneous_blocks_zero(self, homogeneous):
        grid = sq.uniform_grid(3, 0, 1)
        blocks = sq.compute_all_blocks(homogeneous, grid, M=8)
        assert not np.any(blocks.ZOmega)
        assert not np.any(blocks.ZBWZOmegaX)
        assert not np.any(blocks.ZWZOmegaX)
        assert not np.any(blocks.WZOmegaX2)
        assert not np.any(blocks.RV)
        assert not np.any(blocks.RV2)

    def test_terminal_shift_enters_last_interval_only(self):
        p = sq.validate_problem(make_problem(0, 1, A=[[0.0]], B=[[1.0]], W=[[0.0]],
                                             R=[[1.0]], S=[[1.0]], q_a=[0.0], q_b=[2.0]))
        blocks = sq.compute_all_blocks(p, sq.uniform_grid(2, 0, 1), M=8)
        assert not np.any(blocks.ZOmega[0])
        # xi = 0 here, so the last interval carries exactly -q_b.
        assert np.allclose(blocks.ZOmega[1], [-2.0], atol=1e-14)

    def test_blocks_independent_of_initial_state(self, dontchev):
        grid = sq.uniform_grid(2, 0, 1)
        base = sq.compute_all_blocks(dontchev, grid, M=8)
        moved = sq.compute_all_blocks(replace(dontchev, q_a=np.array([7.5])), grid, M=8)
        assert np.array_equal(base.ZWZ, moved.ZWZ)
        assert np.array_equal(base.ZB, moved.ZB)
        assert np.array_equal(base.Rbar, moved.Rbar)

    def test_symmetry(self):
        for seed in (1, 4, 9):
            p, grid = sq.random_problem(seed)
            blocks = sq.compute_all_blocks(p, grid, M=8)
            for name in ("ZWZ", "ZBWZB", "Rbar"):
                block = getattr(blocks, name)
                assert np.array_equal(block, np.swapaxes(block, -1, -2))

    def test_positive_semidefinite(self):
        for seed in (1, 4, 9, 12):
            p, grid = sq.random_problem(seed)
            blocks = sq.compute_all_blocks(p, grid, M=16)
            assert np.linalg.eigvalsh(blocks.ZWZ).min() >= -1e-9
            assert np.linalg.eigvalsh(blocks.ZBWZB).min() >= -1e-9

    def test_rbar_coercive(self):
        for seed in (1, 4, 9, 12):
            p, grid = sq.random_problem(seed)
            lo = np.linalg.eigvalsh(sq.compute_all_blocks(p, grid, M=16).Rbar).min(axis=-1)
            assert np.all(lo >= p.c_R * grid.h * (1.0 - 1e-6))


class TestConsistency:
    def test_substep_refinement_converges(self):
        p = sq.get_problem("timevarying-demo").problem
        grid = sq.uniform_grid(2, 0, 1)
        coarse = sq.compute_all_blocks(p, grid, M=64)
        fine = sq.compute_all_blocks(p, grid, M=128)
        for i in range(grid.N):
            for name in ("Zstep", "ZB", "ZOmega", "ZWZ", "ZBWZ", "ZBWZB",
                         "ZBWZOmegaX", "ZWZOmegaX", "Rbar", "RV"):
                a, b = getattr(coarse, name)[i], getattr(fine, name)[i]
                assert np.linalg.norm(a - b) <= 1e-8 * (1.0 + np.linalg.norm(b))

    def test_tail_blocks_bitwise_equal(self):
        p, _ = sq.random_problem(6)
        grid = sq.uniform_grid(3, p.a, p.b)
        full = sq.compute_all_blocks(p, grid, M=8)
        tail = sq.compute_all_blocks(p, grid.tail(1), M=8)
        for name in ("Zstep", "ZB", "ZOmega", "ZWZ", "Rbar", "RV"):
            assert np.array_equal(getattr(full, name)[1:], getattr(tail, name))

    def test_wrong_interval_rejected(self, dontchev):
        grid = sq.uniform_grid(2, 0, 1)
        prop = propagate_interval(dontchev, grid, 0, M=4)
        with pytest.raises(NodeMismatch):
            sq.compute_blocks(dontchev, grid, 1, prop)

    def test_foreign_grid_rejected(self, dontchev):
        grid = sq.uniform_grid(2, 0, 1)
        other = sq.grid_from_durations([0.3, 0.7], 0.0, 1.0)
        prop = propagate_interval(dontchev, other, 0, M=4)
        with pytest.raises(NodeMismatch):
            sq.compute_blocks(dontchev, grid, 0, prop)

    def test_requires_validated_problem(self):
        p = make_problem(0, 1, A=[[0.5]], B=[[1.0]], W=[[2.0]], R=[[1.0]],
                         S=[[0.0]], q_a=[1.0])
        with pytest.raises(ValidationError):
            sq.compute_all_blocks(p, sq.uniform_grid(1, 0, 1), M=8)

    def test_to_jsonable_roundtrips(self, dontchev):
        grid = sq.uniform_grid(1, 0, 1)
        blocks = sq.compute_all_blocks(dontchev, grid, M=8)
        doc = blocks.to_jsonable(0)
        assert doc["i"] == 0
        assert doc["ZB"] == [[blocks.ZB[0, 0, 0]]]
        assert isinstance(doc["RV2"], float)
        with pytest.raises(IndexOutOfRange):  # would wrap to the last interval
            blocks.to_jsonable(-1)
        one = sq.compute_blocks(dontchev, grid, 0, propagate_interval(dontchev, grid, 0, M=8))
        with pytest.raises(DimensionMismatch):  # one interval's blocks, not a stack
            one.to_jsonable(0)

    @pytest.mark.parametrize("source", ["timevarying-demo", 3, 8, 11])
    def test_rows_are_the_interval_blocks(self, source):
        if isinstance(source, str):
            p = sq.get_problem(source).problem
            grid = sq.grid_from_durations([0.2, 0.5, 0.3], p.a, p.b)
        else:
            p, grid = sq.random_problem(source)
        blocks = sq.compute_all_blocks(p, grid, M=8)
        for i in range(grid.N):
            row = sq.compute_blocks(p, grid, i, propagate_interval(p, grid, i, M=8))
            assert all(a is b is c for a, b, c in zip(blocks.dynamics, row.dynamics, (p.A, p.B, p.omega), strict=True))
            for f in fields(row)[:-1]:  # the arrays
                stacked = getattr(blocks, f.name)
                assert stacked.shape == (grid.N,) + getattr(row, f.name).shape
                assert stacked[i].tobytes() == getattr(row, f.name).tobytes()  # bitwise, signed zeros too

    def test_no_broadcast_helper_per_interval(self, homogeneous, monkeypatch):
        # one propagation and one block assembly per interval, and no np.broadcast_to on that path
        calls = {"broadcast_to": 0, "propagate_interval": 0, "compute_blocks": 0}

        def counting(module, name):
            original = getattr(module, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)

            monkeypatch.setattr(module, name, wrapper)

        counting(np, "broadcast_to")
        counting(blocks_module, "propagate_interval")
        counting(blocks_module, "compute_blocks")
        sq.compute_all_blocks(homogeneous, sq.uniform_grid(4, homogeneous.a, homogeneous.b), M=8)
        assert calls == {"broadcast_to": 0, "propagate_interval": 4, "compute_blocks": 4}


# -- constant-coefficient blocks against Van Loan's exact integrals -------------


def _van_loan_blocks(p, h):
    """Exact step and state_cost of an interval of length h for constant A, B, omega, W and x.

    On z = [y; U; 1], q(s_i + t) is the first n rows of e^{Ft} z with
    F = [[A, B, omega], [0, 0, 0]], and q - x = E e^{Ft} z with E = [Id, 0, -x].
    The exponential of [[-F^T, E^T W E], [0, F]] h is [[., G], [0, e^{Fh}]], and
    int_0^h e^{F^T t} E^T W E e^{Ft} dt = e^{Fh}^T G (C. F. Van Loan, "Computing
    integrals involving the matrix exponential", IEEE TAC 23(3), 1978).
    """
    n, m, t = p.n, p.m, p.a
    d = n + m + 1
    F = np.zeros((d, d))
    F[:n] = np.hstack((p.A(t), p.B(t), p.omega(t)[:, None]))
    E = np.hstack((np.eye(n), np.zeros((n, m)), -p.x_ref(t)[:, None]))
    C = np.zeros((2 * d, 2 * d))
    C[:d, :d], C[:d, d:], C[d:, d:] = -F.T, E.T @ p.W(t) @ E, F
    ex = expm(C * h)
    return ex[d:, d:][:n], ex[d:, d:].T @ ex[:d, d:]


@pytest.mark.parametrize("source", ["dontchev", "double-integrator", 2, 4])
def test_constant_blocks_converge_to_van_loan_at_fourth_order(source):
    # random seeds that are 2 or 4 mod 6 have constant A and omega; on interval 0
    # of uniform:4 each doubling of M from 2 to 32 cuts the error by about 16
    p = sq.get_problem(source).problem if isinstance(source, str) else sq.random_problem(source)[0]
    grid = sq.uniform_grid(4, p.a, p.b)
    h = float(grid.h[0])
    refs = dict(zip(("step", "state_cost"), _van_loan_blocks(p, h)))
    errors = {name: [] for name in refs}
    # constant R and v: Simpson integrates [Id | -v]^T R [Id | -v] exactly
    Iv = np.hstack((np.eye(p.m), -p.v_ref(p.a)[:, None]))
    control_cost = h * Iv.T @ p.R(p.a) @ Iv
    for M in (2, 4, 8, 16, 32):
        blocks = sq.compute_all_blocks(p, grid, M)
        for name, ref in refs.items():
            errors[name].append(np.max(np.abs(getattr(blocks, name)[0] - ref)) / (1.0 + np.max(np.abs(ref))))
        assert np.max(np.abs(blocks.control_cost[0] - control_cost)) <= 1e-14 * (1.0 + np.max(np.abs(control_cost)))
    for name, errs in errors.items():
        if source == "double-integrator" and name == "step":
            # A is nilpotent and B constant, so e^{Ft} is a quadratic in t, which RK4 integrates exactly
            assert max(errs) <= 1e-15
            continue
        for e0, e1 in zip(errs, errs[1:]):
            assert 15.0 <= e0 / e1 <= 17.5, (name, errs)
