import json
from dataclasses import replace

import numpy as np
import pytest
from scipy.linalg import expm

import sampledlq as sq
from sampledlq import blocks as blocks_module
from sampledlq import transition
from sampledlq.errors import DimensionMismatch, IndexOutOfRange, ValidationError
from sampledlq.problem import make_problem


@pytest.fixture(scope="module")
def homogeneous():
    return sq.get_problem("double-integrator").problem


class TestSimpsonWeights:
    def test_three_nodes(self):
        w = sq.simpson_weights(np.array([0.0, 0.5, 1.0]))
        assert np.allclose(w, np.array([1.0, 4.0, 1.0]) * 0.5 / 3.0)

    def test_weights_sum_to_length(self):
        w = sq.simpson_weights(np.linspace(0.0, 1.0, 9))
        assert np.sum(w) == pytest.approx(1.0, abs=1e-15)

    def test_even_count_rejected(self):
        with pytest.raises(ValidationError):
            sq.simpson_weights(np.linspace(0.0, 0.3, 4))

    def test_exact_for_cubics(self):
        nodes = np.linspace(0.0, 1.0, 5)
        w = sq.simpson_weights(nodes)
        assert w @ nodes**3 == pytest.approx(0.25, abs=1e-15)

    def test_fresh_writable_result(self):
        first = sq.simpson_weights(np.linspace(0.0, 3.0, 7))
        assert first.flags.writeable
        first[:] = -1.0
        second = sq.simpson_weights(np.linspace(0.0, 3.0, 7))
        assert second.tobytes() == (np.array([1.0, 4.0, 2.0, 4.0, 2.0, 4.0, 1.0]) * (0.5 / 3.0)).tobytes()
        assert not np.shares_memory(first, second)
        rows = sq.simpson_weights(np.stack([np.linspace(0.0, 3.0, 7), np.linspace(1.0, 2.5, 7)]))
        assert rows.shape == (2, 7) and rows[0].tobytes() == second.tobytes()

    def test_spacing_read_from_each_rows_ends(self):
        # each row of a (2, 3, K) stack of node times gets the spacing of its own ends
        ends = np.array([[[0.0, 1.0], [1.0, 1.5], [-2.0, 6.0]], [[0.25, 0.5], [3.0, 7.0], [0.0, 1e-3]]])
        times = ends[..., :1] + np.arange(5) * ((ends[..., 1:] - ends[..., :1]) / 4)
        w = sq.simpson_weights(times)
        assert w.shape == (2, 3, 5)
        assert np.allclose(w.sum(axis=-1), ends[..., 1] - ends[..., 0], rtol=1e-15, atol=0.0)

    @pytest.mark.parametrize("bad", [1, 2, 4])
    def test_bad_count_rejected_after_a_valid_one(self, bad):
        sq.simpson_weights(np.linspace(0.0, 1.0, 5))
        sq.simpson_weights(np.linspace(0.0, 1.0, 3))
        with pytest.raises(ValidationError):
            sq.simpson_weights(np.linspace(0.0, 1.0, bad))


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
        for bad in (1.5, True, np.float64(0.0)):  # True would index a new axis, not interval 1
            with pytest.raises(IndexOutOfRange):
                blocks.to_jsonable(bad)
        assert json.dumps(blocks.to_jsonable(np.int64(0))) == json.dumps(doc)
        one = replace(blocks, step=blocks.step[0], state_cost=blocks.state_cost[0], control_cost=blocks.control_cost[0])
        with pytest.raises(DimensionMismatch):  # a record without the interval axis, not a stack
            one.to_jsonable(0)

    @pytest.mark.parametrize("source", ["timevarying-demo", 3, 8, 11])
    def test_rows_are_the_interval_blocks(self, source):
        if isinstance(source, str):
            p = sq.get_problem(source).problem
            grid = sq.grid_from_durations([0.2, 0.5, 0.3], p.a, p.b)
        else:
            p, grid = sq.random_problem(source)
        _assert_rows_are_the_interval_blocks(p, grid, 8)

    @pytest.mark.parametrize("source, durations, poly_W, forms", [
        ("double-integrator", None, False, 1),
        ("timevarying-demo", None, False, 4),
        ("dontchev", [0.25, 0.5, 0.25], False, 2),
        ("double-integrator", None, True, 4),
    ], ids=["double-integrator", "timevarying-demo", "dontchev-durations", "double-integrator-poly-W"])
    def test_no_broadcast_helper_per_interval(self, source, durations, poly_W, forms, monkeypatch):
        # one propagation per interval and one state form per distinct form (one per length for
        # constant data, one per interval otherwise: the kind decides, not the values, so W as a
        # degree-0 polynomial keeps one per interval), no np.broadcast_to on that path, no
        # np.einsum (both forms are GEMMs), A, B and omega evaluated once per solve for the step
        # maps of every interval, and W, x, R and v once per solve, on the formed intervals' node
        # times (counted by identity)
        calls = {"broadcast_to": 0, "einsum": 0, "propagate_interval": 0, "compute_blocks": 0}

        def counting(module, name):
            original = getattr(module, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)

            monkeypatch.setattr(module, name, wrapper)

        counting(np, "broadcast_to")
        counting(np, "einsum")
        counting(blocks_module, "propagate_interval")
        counting(blocks_module, "compute_blocks")
        p = sq.get_problem(source).problem
        if poly_W:
            p = replace(p, W=sq.CoefficientFunction.poly(p.W.eval_many(p.a)[..., None]))
        grid = sq.uniform_grid(4, p.a, p.b) if durations is None else sq.grid_from_durations(durations, p.a, p.b)
        names = {id(cf): name for name, cf in (("A", p.A), ("B", p.B), ("omega", p.omega), ("W", p.W),
                                                ("x_ref", p.x_ref), ("R", p.R), ("v_ref", p.v_ref))}
        evals = dict.fromkeys(names.values(), 0)
        eval_many = sq.CoefficientFunction.eval_many

        def counting_eval(coefficient, ts):
            if id(coefficient) in names:
                evals[names[id(coefficient)]] += 1
            return eval_many(coefficient, ts)

        monkeypatch.setattr(sq.CoefficientFunction, "eval_many", counting_eval)
        blocks = sq.compute_all_blocks(p, grid, M=8)
        assert calls == {"broadcast_to": 0, "einsum": 0, "propagate_interval": grid.N, "compute_blocks": forms}
        assert blocks.state_cost.shape[0] == blocks.control_cost.shape[0] == grid.N
        assert evals == {"A": 1, "B": 1, "omega": 1, "W": 1, "x_ref": 1, "R": 1, "v_ref": 1}


# -- constant data on equal intervals: one form per distinct length ---------------


def _assert_rows_are_the_interval_blocks(p, grid, M):
    """Every row of the blocks is bitwise the blocks of its interval, formed on that interval alone."""
    blocks = sq.compute_all_blocks(p, grid, M)
    assert all(a is b for a, b in zip(blocks.dynamics, (p.A, p.B, p.omega), strict=True))
    for i in range(grid.N):
        half, delta = transition._half_grid(grid.s[i], grid.s[i + 1], M)
        times, Ys = half[::2], transition._affine_nodes(p, half, delta)
        state_cost, control_cost = _reference_interval_forms(p, times, Ys)
        step = Ys[-1].copy()
        if i == grid.N - 1:
            step[:, -1] -= p.q_b
        rows = {"step": step, "state_cost": state_cost, "control_cost": control_cost, "Ys": Ys, "times": times}
        for name, row in rows.items():
            stacked = getattr(blocks, name)
            assert stacked.shape == (grid.N,) + row.shape
            assert stacked[i].tobytes() == row.tobytes(), (name, i)  # bitwise, signed zeros too


@pytest.mark.parametrize("M", [1, 3, 16, 64])
@pytest.mark.parametrize("spec", ["uniform:5", "uniform:6", "durations"])
@pytest.mark.parametrize("source", ["dontchev", "double-integrator", "timevarying-demo"])
def test_shared_forms_bitwise_equal_to_per_interval_forms(source, spec, M):
    # uniform:5 on [0, 1] has lengths that differ in their last bits, uniform:6 and the dyadic
    # durations repeat lengths exactly
    p = sq.get_problem(source).problem
    if spec == "durations":
        grid = sq.grid_from_durations([0.125, 0.25, 0.125, 0.25, 0.25], p.a, p.b)
    else:
        grid = sq.uniform_grid(int(spec.split(":")[1]), p.a, p.b)
    _assert_rows_are_the_interval_blocks(p, grid, M)


@pytest.mark.parametrize("seed", range(60))
def test_random_blocks_bitwise_equal_to_per_interval_forms(seed):
    p, grid = sq.random_problem(seed)
    _assert_rows_are_the_interval_blocks(p, grid, 8)


@pytest.mark.parametrize("M", [8, 32])
@pytest.mark.parametrize("source", ["dontchev", "timevarying-demo", 0, 4, 11])
def test_constant_control_form_bitwise_equal_to_per_node_form(source, M):
    # constant R and v read at every node (stride 0) against the same R and v as degree-0
    # polynomials evaluated at every node: the control forms agree bitwise
    if isinstance(source, str):
        p = sq.get_problem(source).problem
        grid = sq.grid_from_durations([0.2, 0.5, 0.3], p.a, p.b)
    else:
        p, grid = sq.random_problem(source)
    poly = replace(p, R=sq.CoefficientFunction.poly(p.R.eval_many(p.a)[..., None]),
                   v_ref=sq.CoefficientFunction.poly(p.v_ref.eval_many(p.a)[..., None]))
    assert p.R.kind == p.v_ref.kind == "constant" and poly.R.kind == poly.v_ref.kind == "poly"
    constant, per_node = (sq.compute_all_blocks(q, grid, M).control_cost for q in (p, poly))
    assert constant.tobytes() == per_node.tobytes()


def _gemm_form(w, F, G):
    """sum_k w_k F_k^T G_k as compute_all_blocks forms it: the weighted node rows stacked, one GEMM."""
    d = F.shape[-1]
    return (w[:, None, None] * F).reshape(-1, d).T @ G.reshape(-1, d)


def _einsum_form(w, F, G):
    """sum_k w_k F_k^T G_k by numpy's three-operand einsum, the blocks' formula before the GEMM."""
    return np.einsum("k,kai,kaj->ij", w, F, G)


def _reference_interval_forms(p, times, Ys, form=_gemm_form):
    """One interval's symmetrized (state_cost, control_cost), formed on that interval alone."""
    w = sq.simpson_weights(times)
    Wk = p.W.eval_many(times)
    Rk = p.R.eval_many(times)
    xk = p.x_ref.eval_many(times)
    vk = p.v_ref.eval_many(times)
    Y = Ys.copy()  # [Z | Gamma | xi - x]
    Y[..., -1] -= xk
    Iv = np.empty(vk.shape + (p.m + 1,))  # [Id | -v]
    Iv[..., :-1] = np.eye(p.m)
    np.negative(vk, out=Iv[..., -1])
    state_cost = form(w, Y, Wk @ Y)
    control_cost = form(w, Iv, Rk @ Iv)
    return 0.5 * (state_cost + state_cost.T), 0.5 * (control_cost + control_cost.T)


@pytest.mark.parametrize("M", [8, 32])
@pytest.mark.parametrize("source", ["dontchev", "double-integrator", "timevarying-demo", 3, 8, 11])
def test_gemm_forms_match_the_einsum(source, M):
    # the GEMM changes only the order of accumulation, so the forms agree with the einsum's to rounding
    if isinstance(source, str):
        p = sq.get_problem(source).problem
        grid = sq.grid_from_durations([0.2, 0.5, 0.3], p.a, p.b)
    else:
        p, grid = sq.random_problem(source)
    blocks = sq.compute_all_blocks(p, grid, M)
    for i in range(grid.N):
        refs = _reference_interval_forms(p, blocks.times[i], blocks.Ys[i], form=_einsum_form)
        for name, ref in zip(("state_cost", "control_cost"), refs):
            err = np.max(np.abs(getattr(blocks, name)[i] - ref))
            assert err <= 1e-14 * (1.0 + np.max(np.abs(ref))), (name, i, err)


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


# -- time-varying blocks, state run and batch cost against an ODE reference ----


def _ode_case(source):
    """(problem, grid): a registry problem on durations 0.2, 0.5, 0.3, or random_problem(seed)."""
    if isinstance(source, str):
        p = sq.get_problem(source).problem
        return p, sq.grid_from_durations([0.2, 0.5, 0.3], p.a, p.b)
    return sq.random_problem(source)


def _ode_reference(p, grid, times):
    """Test-only reference for the shared RK4 kernel, independent of it: scipy's DOP853 at rtol 1e-13.

    On interval i it integrates Y' = A Y + [0 | B | omega] from Y = [Id | 0]
    and, alongside, the state form [Z | Gamma | xi - x]^T W [Z | Gamma | xi - x]
    and the control form [Id | -v]^T R [Id | -v] from 0, from times[i, 0] to
    times[i, -1].  Returns Y = [Z | Gamma | xi] at times (N, K, n, n+m+1) and
    the integrated forms (N, n+m+1, n+m+1) and (N, m+1, m+1).
    """
    from scipy.integrate import solve_ivp

    n, m = p.n, p.m
    d = n + m + 1

    def rhs(t, y):
        Y = y[: n * d].reshape(n, d)
        dY = p.A(t) @ Y
        dY[:, n:-1] += p.B(t)
        dY[:, -1] += p.omega(t)
        e = Y.copy()
        e[:, -1] -= p.x_ref(t)
        Iv = np.hstack((np.eye(m), -p.v_ref(t)[:, None]))
        return np.concatenate((dY.ravel(), (e.T @ p.W(t) @ e).ravel(), (Iv.T @ p.R(t) @ Iv).ravel()))

    y0 = np.zeros(n * d + d * d + (m + 1) ** 2)
    y0[: n * d : d + 1] = 1.0
    Ys, state_cost, control_cost = [], [], []
    for t in times:
        run = solve_ivp(rhs, (t[0], t[-1]), y0, method="DOP853", t_eval=t, rtol=1e-13, atol=1e-15)
        Ys.append(run.y[: n * d].T.reshape(-1, n, d))
        state_cost.append(run.y[n * d : -((m + 1) ** 2), -1].reshape(d, d))
        control_cost.append(run.y[-((m + 1) ** 2) :, -1].reshape(m + 1, m + 1))
    return np.array(Ys), np.array(state_cost), np.array(control_cost)


def _reference_runs(p, reference, Us):
    """The state nodes (L, N, K, n) and costs (L,) of the controls Us (L, N, m) on the reference's nodes and forms."""
    qs, costs = [], []
    for U in Us:
        q, cost, run = p.q_a, 0.0, []
        for Y, state_cost, control_cost, u in zip(*reference, U):
            z = np.concatenate((q, u, [1.0]))
            run.append(Y @ z)
            cost += 0.5 * (z @ state_cost @ z + z[p.n :] @ control_cost @ z[p.n :])
            q = run[-1][-1]
        qs.append(run)
        costs.append(cost + 0.5 * (q - p.q_b) @ p.S @ (q - p.q_b))
    return np.array(qs), np.array(costs)


@pytest.mark.parametrize("source", ["timevarying-demo", 3, 5])
def test_time_varying_kernel_converges_to_ode_reference(source):
    # the blocks, the state run and the batch share one RK4 kernel, so only an outside reference
    # sees its error: each doubling of M cuts it 15-17x.  Seeds 3 and 5 run one or two intervals
    # of 0.5-1.3, where the ratio from M = 2 and 4 is not yet asymptotic (13.9-18.3): their pin
    # starts at M = 8
    p, grid = _ode_case(source)
    Ms = (2, 4, 8, 16, 32) if isinstance(source, str) else (8, 16, 32)
    last = sq.compute_all_blocks(p, grid, Ms[-1])
    reference = _ode_reference(p, grid, last.times)
    Ys, state_cost, control_cost = reference
    errors = {"Ys": [], "state_cost": []}
    for M in Ms:
        blocks = last if M == Ms[-1] else sq.compute_all_blocks(p, grid, M)
        for name, got, ref in (("Ys", blocks.Ys[:, -1], Ys[:, -1]), ("state_cost", blocks.state_cost, state_cost)):
            errors[name].append(np.max(np.abs(got - ref)) / (1.0 + np.max(np.abs(ref))))
        # constant R and v: Simpson integrates the control form exactly
        assert np.max(np.abs(blocks.control_cost - control_cost)) <= 1e-14 * (1.0 + np.max(np.abs(control_cost)))
    for name, errs in errors.items():
        for e0, e1 in zip(errs, errs[1:]):
            assert 15.0 <= e0 / e1 <= 17.0, (name, errs)

    # at M = 32 the state run and the batch cost are about 16x as close as at M = 16 (at most 5.3e-9 here)
    rng = np.random.default_rng(0)
    Us = np.concatenate((np.zeros((1, grid.N, p.m)), rng.uniform(-1.0, 1.0, (3, grid.N, p.m))))
    ref_qs, ref_costs = _reference_runs(p, reference, Us)
    for U, ref_q in zip(Us, ref_qs):
        qs = sq.simulate_state(p, sq.PiecewiseConstantControl(grid, U), Ms[-1]).qs
        assert np.max(np.abs(qs - ref_q)) <= 1e-8 * (1.0 + np.max(np.abs(ref_q)))
    costs = sq.costs_of_control_batch(p, grid, Us, Ms[-1])
    assert np.max(np.abs(costs - ref_costs) / (1.0 + np.abs(ref_costs))) <= 1e-8
