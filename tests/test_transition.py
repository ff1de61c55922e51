import collections
import dataclasses

import numpy as np
import pytest

import sampledlq as sq
from sampledlq import simulate, transition
from sampledlq.errors import IndexOutOfRange, InvalidInterval, NonFinite, TooLarge
from sampledlq.problem import make_problem
from sampledlq.transition import propagate_interval


@pytest.fixture(scope="module")
def timevarying():
    return sq.get_problem("timevarying-demo").problem


def _interval_half_grid(grid, i, M):
    """Interval i's own half grid and step."""
    return transition._half_grid(grid.s[i], grid.s[i + 1], M)


def _propagate(p, grid, i, M):
    """Interval i's node times, and its nodes split into Z, Gamma and xi, from the kernel on its own half grid."""
    half, delta = _interval_half_grid(grid, i, M)
    Ys = transition._affine_nodes(p, half, delta)
    return half[::2], Ys[..., :p.n], Ys[..., p.n:-1], Ys[..., -1]


class TestPropagateInterval:
    def test_zero_dynamics_identity(self):
        p = sq.validate_problem(make_problem(0, 1, A=[[0.0]], B=[[1.0]], W=[[1.0]],
                                             R=[[1.0]], S=[[0.0]], q_a=[1.0]))
        times, Zs, Gammas, Xis = _propagate(p, sq.uniform_grid(1, 0, 1), 0, M=8)
        for Z in Zs:
            assert np.allclose(Z, np.eye(1), atol=1e-14)
        # Gamma(tau) = tau for B = 1, and xi stays zero.
        assert np.allclose(Gammas[:, 0, 0], times, atol=1e-14)
        assert np.allclose(Xis, 0.0, atol=0.0)

    def test_scalar_exponential(self, dontchev, analytic):
        times, Zs, Gammas, _ = _propagate(dontchev, sq.uniform_grid(1, 0, 1), 0, M=64)
        assert Zs[-1][0, 0] == pytest.approx(analytic["Z10"], abs=1e-10)
        assert Gammas[-1][0, 0] == pytest.approx(analytic["ZB0"], abs=1e-10)
        assert times.shape == (2 * 64 + 1,)

    def test_node_endpoints_bitwise(self, dontchev):
        grid = sq.grid_from_durations([0.3, 0.7], 0.0, 1.0)
        for i in range(grid.N):
            times = _propagate(dontchev, grid, i, M=4)[0]
            assert times[0] == grid.s[i]
            assert times[-1] == grid.s[i + 1]
            assert len(times) == 2 * 4 + 1

    def test_forcing_accumulates(self, timevarying):
        _, Zs, _, Xis = _propagate(timevarying, sq.uniform_grid(2, 0, 1), 1, M=16)
        # omega(t) = [0, 0.2 t] is nonzero on [0.5, 1], so xi must move.
        assert np.linalg.norm(Xis[-1]) > 1e-4
        assert np.all(np.isfinite(Zs))

    def test_gamma_matches_simpson_reconstruction(self, timevarying):
        grid = sq.uniform_grid(1, 0, 1)
        M = 32
        times, Zs, Gammas, Xis = _propagate(timevarying, grid, 0, M)
        w = sq.simpson_weights(times)
        Zend = Zs[-1]
        gamma = np.zeros_like(Gammas[-1])
        xi = np.zeros_like(Xis[-1])
        for k, s in enumerate(times):
            Zfrom = Zend @ np.linalg.inv(Zs[k])
            gamma += w[k] * (Zfrom @ timevarying.B(s))
            xi += w[k] * (Zfrom @ timevarying.omega(s))
        assert np.linalg.norm(Gammas[-1] - gamma) <= 1e-7
        assert np.linalg.norm(Xis[-1] - xi) <= 1e-7

    def test_fourth_order_convergence(self, timevarying):
        grid = sq.uniform_grid(1, 0, 1)
        ref = _propagate(timevarying, grid, 0, M=1024)[1][-1]
        errs = []
        for M in (4, 8, 16):
            Z = _propagate(timevarying, grid, 0, M)[1][-1]
            errs.append(np.linalg.norm(Z - ref))
        for e0, e1 in zip(errs, errs[1:]):
            assert 8.0 <= e0 / e1 <= 32.0


def _transition(p, t, s, M):
    """Z(t, s) from the kernel's two phases on Z' = A Z on the half grid from s to t, backward when t < s.

    The table is A alone (no forcing columns), copied out so that a constant A is scanned too."""
    half, delta = transition._half_grid(s, t, M)
    return transition._run_maps(transition._step_maps(np.array(p.A.eval_many(half)), delta))[-1]


class TestTransitionMatrix:
    """The state-transition matrix Z(t, s) as the RK4 kernel forms it."""

    def test_scalar_forward_and_backward(self, dontchev, analytic):
        # backward runs take the negative step -delta, as the costate's do
        assert _transition(dontchev, 1.0, 0.0, 64)[0, 0] == pytest.approx(analytic["Z10"], abs=1e-10)
        assert _transition(dontchev, 0.0, 1.0, 64)[0, 0] == pytest.approx(1.0 / analytic["Z10"], abs=1e-10)

    def test_inverse_pair(self, timevarying):
        Zf = _transition(timevarying, 0.8, 0.2, 128)
        Zb = _transition(timevarying, 0.2, 0.8, 128)
        assert np.allclose(Zf @ Zb, np.eye(2), atol=1e-9)

    def test_semigroup_property(self):
        for seed in (2, 3, 7, 10):
            p, _ = sq.random_problem(seed)
            mid = 0.5 * (p.a + p.b)
            whole = _transition(p, p.b, p.a, 128)
            split = _transition(p, p.b, mid, 128) @ _transition(p, mid, p.a, 128)
            scale = 1.0 + np.linalg.norm(whole)
            assert np.linalg.norm(whole - split) <= 1e-8 * scale


HALF_GRIDS = [sq.uniform_grid(7, 0.0, 1.0), sq.uniform_grid(5, -0.3, 2.9),
              sq.grid_from_durations([0.1, 0.25, 0.05, 0.6], 0.0, 1.0),
              sq.grid_from_durations([0.7, 0.1 / 3, 1.3, 0.2], 0.2, 0.2 + 0.7 + 0.1 / 3 + 1.3 + 0.2)]


@pytest.mark.parametrize("M", [1, 4, 32, 64])
@pytest.mark.parametrize("grid", HALF_GRIDS + [sq.random_problem(seed)[1] for seed in range(3)])
def test_horizon_half_grid_bitwise_per_interval(grid, M):
    # the stacked half grids of the simulations are the per-interval ones of the blocks
    half, delta = transition._horizon_half_grid(grid, M)
    assert half.shape == (grid.N, 4 * M + 1) and delta.shape == (grid.N,)
    for i in range(grid.N):
        half_i, delta_i = _interval_half_grid(grid, i, M)
        assert half[i].tobytes() == half_i.tobytes()
        assert np.float64(delta[i]).tobytes() == np.float64(delta_i).tobytes()


def _linspace_grids(a, b):
    """uniform:N for N in 1, 3, 7, 64, 1000 and two seeded durations: grids on [a, b]."""
    grids = [sq.uniform_grid(N, a, b) for N in (1, 3, 7, 64, 1000)]
    for seed, N in ((0, 5), (1, 50)):
        d = np.random.default_rng(seed).uniform(1.0, 4.0, size=N)
        grids.append(sq.grid_from_durations(d / d.sum() * (b - a), a, b))
    return grids


@pytest.mark.parametrize("M", [1, 2, 3, 16, 24, 64, 512])
@pytest.mark.parametrize("a, b", [(0.0, 1.0), (-3.7, 2.1), (1e6, 1e6 + 1.0), (0.0, 1.3)])
def test_half_grid_is_linspace_bitwise(a, b, M):
    # _half_grid repeats linspace's arithmetic without calling it, for scalar and stacked ends;
    # M = 3 and 24 make 4M no power of two, so the order of the division shows
    for grid in _linspace_grids(a, b):
        stacked, _ = transition._horizon_half_grid(grid, M)
        for i in range(grid.N):
            ref = np.linspace(grid.s[i], grid.s[i + 1], 4 * M + 1).tobytes()
            assert stacked[i].tobytes() == ref
            assert _interval_half_grid(grid, i, M)[0].tobytes() == ref


# -- the step-map kernel against the stage-by-stage RK4 loop it replaced ------


def _reference_rk4_linear(As, Cs, Y0, delta):
    """Test-only reference: RK4 stage formulas applied step by step to Y."""
    steps = (As.shape[0] - 1) // 2
    out = np.empty((steps + 1,) + Y0.shape, dtype=Y0.dtype)
    out[0] = Y0
    Y = Y0
    hd = 0.5 * delta
    sixth = delta / 6.0
    for k in range(steps):
        j = 2 * k
        A0, A1, A2 = As[j], As[j + 1], As[j + 2]
        C0, C1, C2 = Cs[j], Cs[j + 1], Cs[j + 2]
        k1 = A0 @ Y + C0
        k2 = A1 @ (Y + hd * k1) + C1
        k3 = A1 @ (Y + hd * k2) + C1
        k4 = A2 @ (Y + delta * k3) + C2
        Y = Y + sixth * (k1 + 2.0 * (k2 + k3) + k4)
        out[k + 1] = Y
    return out


def _reference_run_maps(maps):
    """Test-only reference for transition._run_maps: the recurrence Y <- Y + E[:, :n] Y + [0 | E[:, n:]]
    stepped one increment at a time from [Id | 0]."""
    n = maps.shape[-2]
    Y = np.broadcast_to(np.eye(n, maps.shape[-1]), maps.shape[:-3] + maps.shape[-2:])
    out = [Y]
    for k in range(maps.shape[-3]):
        Y = Y + maps[..., k, :, :n] @ Y
        Y[..., n:] += maps[..., k, :, n:]
        out.append(Y)
    return np.stack(out, axis=-3)


def _reference_nodes(F, delta):
    """Test-only reference for the kernel's two phases: the stage loop on the table F = [A | C] run
    from [Id | 0] under the forcing [0 | C], one stacked half grid at a time."""
    lead, n = F.shape[:-3], F.shape[-2]
    delta = np.broadcast_to(delta, lead)
    out = np.empty(lead + ((F.shape[-3] + 1) // 2,) + F.shape[-2:])
    for idx in np.ndindex(lead):
        As = F[idx][..., :n]
        forcing = np.concatenate((np.zeros(As.shape), F[idx][..., n:]), axis=-1)
        out[idx] = _reference_rk4_linear(As, forcing, np.eye(n, out.shape[-1]), delta[idx])
    return out


def _reference_affine_nodes(p, half, delta):
    """Test-only reference for transition._affine_nodes: the stage loop on the table [A | B | omega]."""
    return _reference_nodes(_table(p, half), delta)


def _reference_state_run(p, half, delta, q, U, dtype=float):
    """Test-only reference: the stage loop on dq/dt = A q + B u + omega from q (n, L), with the
    forcing formed per half-step from U, (m, L) constant or (4M+1, m, L); coefficients and stages in dtype."""
    A, B, omega = (cf.eval_many(half).astype(dtype) for cf in (p.A, p.B, p.omega))
    return _reference_rk4_linear(A, B @ U.astype(dtype) + omega[..., None], q.astype(dtype), dtype(delta))


def _reference_simulate_state(p, u, M, dtype=float):
    """Test-only reference for simulate_state: one stage-loop run per interval, chained."""
    q = np.asarray(p.q_a, dtype=dtype)[:, None]
    times, qs = [], []
    for i in range(u.grid.N):
        half, delta = _interval_half_grid(u.grid, i, M)
        nodes = _reference_state_run(p, half, delta, q, u.U[i][:, None], dtype)
        times.append(half[::2])
        qs.append(nodes[..., 0])
        q = nodes[-1]
    return simulate.Trajectory(problem=p, control=u, times=np.stack(times), qs=np.stack(qs))


def _reference_costs_of_control_batch(p, grid, Us, M):
    """Test-only reference for costs_of_control_batch: one reference state run and cost per control."""
    controls = [sq.PiecewiseConstantControl(grid, U) for U in Us]
    return np.array([sq.evaluate_cost(_reference_simulate_state(p, u, M)) for u in controls])


def _reference_dense_state(p, u_fn, M):
    """Test-only reference for simulate._dense_state: one stage-loop run over [a, b]."""
    half, delta = transition._half_grid(p.a, p.b, M)
    u_half = simulate._eval_control_function(u_fn, half, p.m)
    qs = _reference_state_run(p, half, delta, np.asarray(p.q_a, dtype=float)[:, None], u_half[..., None])
    return half, delta, u_half, qs[..., 0]


def _reference_costate(p, half, delta, qs, p_end, dtype=float):
    """Test-only reference for simulate._costate: one backward stage-loop run per interval, last
    interval first, each from the costate its successor left at the join; the table is formed in
    float64 and the stages run in dtype."""
    ps = np.empty(qs.shape, dtype=dtype)
    p_hi = np.asarray(p_end, dtype=dtype)
    for i in reversed(range(half.shape[0])):
        q_half = np.empty((half.shape[1], qs.shape[-1]))
        q_half[::2] = qs[i]
        q_half[1::2] = 0.5 * (qs[i, :-1] + qs[i, 1:])
        forcing = (p.W.eval_many(half[i]) @ (q_half - p.x_ref.eval_many(half[i]))[..., None]).astype(dtype)
        minus_At = (-np.swapaxes(p.A.eval_many(half[i]), -1, -2)).astype(dtype)
        ps[i] = _reference_rk4_linear(minus_At[::-1], forcing[::-1, :, 0], p_hi, dtype(-delta[i]))[::-1]
        p_hi = ps[i, 0]
    return ps


def _costate_ulp(ps, ref):
    """The costate's largest error in ulp of 1 + the largest |ref| at its node: an entry's rounding
    error scales with its node's largest entry, not with its own."""
    scale = 1.0 + np.max(np.abs(ref), axis=-1, keepdims=True)
    return float(np.max(np.abs(ps - ref) / scale) / np.finfo(float).eps)


def _costate_ulp_bound(n):
    """The bound on `_costate_ulp` at state size n: 2 ulp up to n = 4, then 0.1 ulp more a state, 4 at n = 24.

    The dot products of length n in each RK4 stage let rounding grow linearly in n in the worst case.
    Over n = 1..32 (test_moderate_scale.py's problems, three kinds, seeds 1-6, N = 4 and 6, M = 16,
    the optimal and a seeded control) the largest reading was 2.02 ulp, at n = 14.
    """
    return 2.0 + max(0, n - 4) / 10


def _use_reference_kernel(monkeypatch):
    """Swap stage-loop references in for the library's kernel and for its state, batch, dense-state
    and costate runs; returns a Counter of the reference calls made."""
    calls = collections.Counter()

    def counted(fn):
        def wrapper(*args):
            calls[fn.__name__] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(transition, "_affine_nodes", counted(_reference_affine_nodes))
    monkeypatch.setattr(sq, "simulate_state", counted(_reference_simulate_state))
    monkeypatch.setattr(sq, "costs_of_control_batch", counted(_reference_costs_of_control_batch))
    monkeypatch.setattr(simulate, "_dense_state", counted(_reference_dense_state))
    monkeypatch.setattr(simulate, "_costate", counted(_reference_costate))
    return calls


def _kernel_outputs(p, grid, M):
    """Every RK4-backed public result on one problem, as a flat list of arrays."""
    rng = np.random.default_rng(M)
    out = []
    for i in range(grid.N):
        out += _propagate(p, grid, i, M)[1:]
    u = sq.PiecewiseConstantControl(grid, rng.uniform(-1.0, 1.0, size=(grid.N, p.m)))
    traj = sq.simulate_state(p, u, M)
    out += [traj.qs, traj.q_end, sq.simulate_costate(traj, M).ps]
    out.append(sq.costs_of_control_batch(p, grid, rng.uniform(-1.0, 1.0, size=(4, grid.N, p.m)), M))

    def u_fn(t):
        return np.cos(3.0 * t + np.arange(p.m))

    out += [np.array(sq.cost_of_permanent(p, u_fn, M)), np.array(sq.pmp_residual_permanent(p, u_fn, M))]
    return out


def _kernel_case(source):
    if isinstance(source, int):
        return sq.random_problem(source)
    p = sq.get_problem(source).problem
    return p, sq.grid_from_durations(np.array([0.2, 0.5, 0.3]) * (p.b - p.a), p.a, p.b)


@pytest.mark.parametrize("M", [16, 32])
@pytest.mark.parametrize("source", ["dontchev", "double-integrator", "timevarying-demo"] + list(range(30)))
def test_step_maps_match_stage_loop(source, M, monkeypatch):
    p, grid = _kernel_case(source)
    got = _kernel_outputs(p, grid, M)
    with monkeypatch.context() as mp:
        calls = _use_reference_kernel(mp)
        ref = _kernel_outputs(p, grid, M)
    # the interval-node reference ran for each interval's propagation and for no simulation;
    # the state, batch, dense-state and costate references ran for every simulation
    # (the dense residual runs state and costate)
    assert calls == {"_reference_affine_nodes": grid.N, "_reference_simulate_state": 1,
                     "_reference_costs_of_control_batch": 1, "_reference_dense_state": 2,
                     "_reference_costate": 2}
    assert len(got) == len(ref)
    for g, r in zip(got, ref):
        assert g.shape == r.shape
        assert np.max(np.abs(g - r)) <= 1e-13 * (1.0 + np.max(np.abs(r)))


@pytest.mark.parametrize("lam_delta", [2.7, 2.78, 3.0])
def test_stiff_steps_near_rk4_real_axis_limit(lam_delta, monkeypatch):
    # Upper-triangular A with eigenvalues -lam and -lam/2, lam * delta near
    # RK4's real-axis stability limit (about 2.785).  M = 8 on [0, 1]: delta = 1/16.
    M = 8
    lam = lam_delta * 2 * M
    p = sq.validate_problem(make_problem(0, 1, A=[[-lam, 1.0], [0.0, -0.5 * lam]], B=[[1.0], [1.0]],
                                         W=np.eye(2), R=[[1.0]], S=np.zeros((2, 2)), q_a=[1.0, 1.0],
                                         omega=[0.5, -0.5]))
    grid = sq.uniform_grid(1, 0, 1)
    got = _propagate(p, grid, 0, M)[1:]
    with monkeypatch.context() as mp:
        _use_reference_kernel(mp)
        ref = _propagate(p, grid, 0, M)[1:]
    for g, r in zip(got, ref):  # Z, Gamma and xi
        assert np.max(np.abs(g - r)) <= 1e-14 * np.max(np.abs(r))
    Zs = got[0]
    if lam_delta > 2.785:
        # Past the limit both kernels grow by the RK4 amplification factor
        # R(-3) = 1.375 per step, 2M steps, and neither raises: there is no
        # guard on ||A|| * delta yet (ROADMAP item 8).
        assert np.all(np.isfinite(Zs))
        assert Zs[-1][0, 0] == pytest.approx(1.375 ** (2 * M), rel=1e-12)
    else:
        assert np.max(np.abs(Zs)) <= 1.0


# -- the scan's rounding error over a long horizon against the serial recurrence --


def _long_horizon_case(source):
    if isinstance(source, tuple):
        # upper-triangular A with the given eigenvalues
        p = sq.validate_problem(make_problem(0, 1, A=[[source[0], 1.0], [0.0, source[1]]], B=[[1.0], [1.0]],
                                             W=np.eye(2), R=[[1.0]], S=np.zeros((2, 2)), q_a=[1.0, 1.0],
                                             omega=[0.5, -0.5]))
    elif isinstance(source, int):
        p = sq.random_problem(source)[0]
    else:
        p = sq.get_problem(source).problem
    return p, sq.uniform_grid(64, p.a, p.b)


@pytest.mark.parametrize("source", ["timevarying-demo"] + list(range(10)) + [(20.0, 10.0), (-40.0, -20.0)])
def test_horizon_scan_error_within_serial_loop_error(source, monkeypatch):
    # N = 64, M = 32: 64 scans of 64 step maps, carried across the joins by the march.
    # Its error against a long-double stage loop may be at most 4x that of the float64
    # serial recurrence on the same maps and the same march.
    p, grid = _long_horizon_case(source)
    M = 32
    u = sq.PiecewiseConstantControl(grid, np.random.default_rng(0).uniform(-1.0, 1.0, size=(grid.N, p.m)))
    ref = _reference_simulate_state(p, u, M, np.longdouble).qs

    def error(traj):
        return max(float(np.max(np.abs(q - r) / (1.0 + np.abs(r)))) for q, r in zip(traj.qs, ref))

    scan = error(sq.simulate_state(p, u, M))
    equal = []

    def serial(maps):
        equal.append(maps.strides[-3] == 0)
        return _reference_run_maps(maps)

    with monkeypatch.context() as mp:
        mp.setattr(transition, "_run_maps", serial)
        loop = error(sq.simulate_state(p, u, M))
    # constant A, B and omega hand the serial loop the one step map, repeated, that the doubling composed
    assert equal == [all(cf.kind == "constant" for cf in (p.A, p.B, p.omega))]
    assert scan <= 4.0 * loop


# -- constant A, B and omega: one step map, composed by doubling ---------------


def _spy_step_maps(monkeypatch):
    """Record the half-step count of every coefficient table `_step_maps` is handed."""
    points = []
    original = transition._step_maps

    def spy(F, delta):
        points.append(F.shape[-3])
        return original(F, delta)

    monkeypatch.setattr(transition, "_step_maps", spy)
    return points


def _scan_nodes(p, half, delta):
    """_affine_nodes' nodes with the table [A | B | omega] copied out to full size, so every step map is formed and scanned."""
    return transition._run_maps(transition._step_maps(_table(p, half), delta))


def _table(p, half):
    """The table [A | B | omega] on a half grid, every coefficient evaluated there and copied out."""
    return np.concatenate((p.A.eval_many(half), p.B.eval_many(half), p.omega.eval_many(half)[..., None]), axis=-1)


@pytest.mark.parametrize("M", [1, 2, 3, 5, 16, 32, 64])
@pytest.mark.parametrize("source", ["dontchev", "double-integrator", 2, 4, 8, 10, 14])
def test_equal_step_doubling_bitwise_equal_to_scan(source, M, monkeypatch):
    # M = 3 and 5 make 2M no power of two, so the last doubling fills part of a level
    p = _kernel_case(source)[0]
    durations = np.array([0.2, 0.5, 0.3]) * (p.b - p.a)
    for grid in (sq.uniform_grid(5, p.a, p.b), sq.grid_from_durations(durations, p.a, p.b)):
        half, delta = transition._horizon_half_grid(grid, M)
        with monkeypatch.context() as mp:
            points = _spy_step_maps(mp)
            stacked = transition._affine_nodes(p, half, delta)
            per_interval = [transition._affine_nodes(p, *_interval_half_grid(grid, i, M)) for i in range(grid.N)]
        assert points == [3] * (1 + grid.N)  # one step map per run, on three half-step points
        assert stacked.tobytes() == _scan_nodes(p, half, delta).tobytes()
        for i, Ys in enumerate(per_interval):
            assert Ys.tobytes() == _scan_nodes(p, half[i], delta[i]).tobytes() == stacked[i].tobytes()
        # and _run_maps on the equal maps, repeated by a stride-0 view and copied out
        maps = np.broadcast_to(transition._step_maps(_table(p, half[:, :3]), delta),
                               (grid.N, 2 * M) + stacked.shape[-2:])
        assert transition._run_maps(maps).tobytes() == transition._run_maps(maps.copy()).tobytes()


@pytest.mark.parametrize("source", ["dontchev", "double-integrator", 4, "timevarying-demo", 1, 3])
def test_equal_step_path_serves_its_callers(source, monkeypatch):
    # the blocks, a state run without blocks and the oracle's batch form one step map per interval
    # on constant A, B and omega, in one call on the stacked half grids; polynomial A or omega
    # forms every step's map
    p, grid = _kernel_case(source)
    M = 8
    u = sq.PiecewiseConstantControl(grid, np.ones((grid.N, p.m)))
    constant = all(cf.kind == "constant" for cf in (p.A, p.B, p.omega))
    assert constant == (source not in ("timevarying-demo", 1, 3))
    for run in (lambda: sq.compute_all_blocks(p, grid, M), lambda: sq.simulate_state(p, u, M),
                lambda: sq.costs_of_control_batch(p, grid, np.ones((2, grid.N, p.m)), M)):
        with monkeypatch.context() as mp:
            points = _spy_step_maps(mp)
            run()
        assert points == [3 if constant else 4 * M + 1]


@pytest.mark.parametrize("source", ["timevarying-demo", 1, 3])
def test_chunked_step_maps_bitwise_equal(source, monkeypatch):
    # a table past TABLE_BYTES is formed in chunks of intervals, here 2 + 2 + 1 of 5, into
    # bitwise the maps of one call, and the blocks and a state run on them do not move
    p = _kernel_case(source)[0]
    grid = sq.uniform_grid(5, p.a, p.b)
    M = 8
    u = sq.PiecewiseConstantControl(grid, np.ones((grid.N, p.m)))
    half, delta = transition._horizon_half_grid(grid, M)
    whole = transition._affine_maps(p, half, delta)
    blocks, traj = sq.compute_all_blocks(p, grid, M), sq.simulate_state(p, u, M)
    with monkeypatch.context() as mp:
        mp.setattr(transition, "TABLE_BYTES", 2 * 8 * (4 * M + 1) * p.n * (p.n + p.m + 1))
        points = _spy_step_maps(mp)
        chunked = transition._affine_maps(p, half, delta)
        assert points == [4 * M + 1] * 3
        assert chunked.tobytes() == whole.tobytes()
        chunked_blocks, chunked_traj = sq.compute_all_blocks(p, grid, M), sq.simulate_state(p, u, M)
    for name in ("Ys", "step", "state_cost", "control_cost", "times"):
        assert getattr(chunked_blocks, name).tobytes() == getattr(blocks, name).tobytes()
    assert chunked_traj.qs.tobytes() == traj.qs.tobytes()


@pytest.mark.parametrize("source", ["dontchev", "timevarying-demo"])
def test_step_maps_out_of_memory_raise_too_large(source, monkeypatch):
    # a MemoryError while the table and step maps are formed, before any recurrence, is TooLarge too
    p = _kernel_case(source)[0]
    grid = sq.uniform_grid(3, p.a, p.b)

    def no_memory(F, delta):
        raise MemoryError

    monkeypatch.setattr(transition, "_step_maps", no_memory)
    u = sq.PiecewiseConstantControl(grid, np.zeros((grid.N, p.m)))
    for run in (lambda: sq.compute_all_blocks(p, grid, 8), lambda: sq.simulate_state(p, u, 8)):
        with pytest.raises(TooLarge, match=r"M = 8 substeps: 2M\+1 RK4 nodes do not fit in memory"):
            run()


def test_blocks_name_the_interval_whose_nodes_overflow():
    # A = 30000 at M = 32: steps of 1/64000 on the first interval stay finite, steps of 0.999/64
    # on the second overflow; the recurrence of interval 1 raises, with no RuntimeWarning
    p = sq.validate_problem(make_problem(0, 1, A=[[30000.0]], B=[[1.0]], W=[[1.0]], R=[[1.0]],
                                         S=[[1.0]], q_a=[1.0]))
    grid = sq.grid_from_durations([0.001, 0.999], 0.0, 1.0)
    with pytest.raises(NonFinite, match="propagation diverged on interval 1"):
        sq.compute_all_blocks(p, grid, 32)


@pytest.mark.parametrize("source", ["dontchev", "timevarying-demo"])
def test_nodes_out_of_memory_raise_too_large(source, monkeypatch):
    # a MemoryError while the nodes are formed, here from a stand-in for their allocation, is TooLarge
    p = _kernel_case(source)[0]
    grid = sq.uniform_grid(3, p.a, p.b)

    def no_memory(maps):
        raise MemoryError

    monkeypatch.setattr(transition, "_run_maps", no_memory)
    u = sq.PiecewiseConstantControl(grid, np.zeros((grid.N, p.m)))
    for run in (lambda: sq.compute_all_blocks(p, grid, 8), lambda: sq.simulate_state(p, u, 8),
                lambda: sq.costs_of_control_batch(p, grid, np.zeros((2, grid.N, p.m)), 8)):
        with pytest.raises(TooLarge, match=r"M = 8 substeps: 2M\+1 RK4 nodes do not fit in memory"):
            run()


@pytest.mark.parametrize("source", ["dontchev", "double-integrator", "timevarying-demo"] + list(range(10)))
def test_propagation_within_one_ulp_of_long_double_loop(source):
    # The step maps are returned as increments Phi_k - Id and composed as such, so no
    # node loses the increments' low bits to a rounding of Id + increment: every
    # [Z | Gamma | xi] node is within one ulp of 1 + |ref| of a long-double stage loop
    # on the same coefficient values.  N = 8, M = 32.
    p = _kernel_case(source)[0]
    grid = sq.uniform_grid(8, p.a, p.b)
    M = 32
    ld = np.longdouble
    for i in range(grid.N):
        half, delta = _interval_half_grid(grid, i, M)
        Ys = transition._affine_nodes(p, half, delta)
        As = p.A.eval_many(half)
        forcing = np.concatenate((np.zeros(As.shape), p.B.eval_many(half), p.omega.eval_many(half)[..., None]), axis=-1)
        ref = _reference_rk4_linear(As.astype(ld), forcing.astype(ld), np.eye(p.n, Ys.shape[-1], dtype=ld), ld(delta))
        assert np.max(np.abs(Ys - ref) / (1.0 + np.abs(ref))) <= np.finfo(float).eps


def _long_double_nodes(As, C, delta):
    """The stage loop in long double from [Id | 0] under the forcing [0 | C], on float64 coefficient values."""
    ld = np.longdouble
    n = As.shape[-1]
    forcing = np.concatenate((np.zeros(As.shape), C), axis=-1).astype(ld)
    return _reference_rk4_linear(As.astype(ld), forcing, np.eye(n, forcing.shape[-1], dtype=ld), ld(delta))


@pytest.mark.parametrize("source", ["dontchev", "double-integrator", "timevarying-demo"] + list(range(10)))
def test_stacked_nodes_within_one_ulp_of_long_double_loop(source):
    # the simulations' one kernel call on every interval's half grid, under the same bound as the
    # per-interval propagation: one ulp of 1 + |ref|.  N = 8, M = 32.
    p = _kernel_case(source)[0]
    half, delta = transition._horizon_half_grid(sq.uniform_grid(8, p.a, p.b), 32)
    Ys = transition._affine_nodes(p, half, delta)
    for i in range(half.shape[0]):
        F = _table(p, half[i])
        ref = _long_double_nodes(F[..., :p.n], F[..., p.n:], delta[i])
        assert np.max(np.abs(Ys[i] - ref) / (1.0 + np.abs(ref))) <= np.finfo(float).eps


@pytest.mark.parametrize("source", ["dontchev", "double-integrator", "timevarying-demo"] + list(range(10)))
def test_costate_nodes_within_one_ulp_of_long_double_loop(source):
    # the costate's vector run, on the table [-A^T | W (q - x)] over the reversed half grids with
    # step -delta, against the same table's stage loop in long double: the tree composes the step
    # maps as increments, so every node is within two ulp of 1 + |ref|, and within
    # `_costate_ulp_bound(n)` (two ulp at n <= 4) of 1 plus its node's largest |ref|.  N = 8, M = 32,
    # a seeded control.
    p = _kernel_case(source)[0]
    grid = sq.uniform_grid(8, p.a, p.b)
    M = 32
    u = sq.PiecewiseConstantControl(grid, np.random.default_rng(0).uniform(-1.0, 1.0, size=(grid.N, p.m)))
    traj = sq.simulate_state(p, u, M)
    ps = sq.simulate_costate(traj, M).ps
    half, delta = transition._horizon_half_grid(grid, M)
    ref = _reference_costate(p, half, delta, traj.qs, -(p.S @ (traj.q_end - p.q_b)), np.longdouble)
    assert np.max(np.abs(ps - ref) / (1.0 + np.abs(ref))) <= 2 * np.finfo(float).eps
    assert _costate_ulp(ps, ref) <= _costate_ulp_bound(p.n)


def _costate_and_reference(p, grid, M):
    """The costate of a seeded control's run and `_reference_costate` on the same run."""
    u = sq.PiecewiseConstantControl(grid, np.random.default_rng(1).uniform(-1.0, 1.0, size=(grid.N, p.m)))
    traj = sq.simulate_state(p, u, M)
    half, delta = transition._horizon_half_grid(grid, M)
    return sq.simulate_costate(traj, M).ps, _reference_costate(p, half, delta, traj.qs, -(p.S @ (traj.q_end - p.q_b)))


def _assert_close(got, ref):
    assert got.shape == ref.shape
    assert np.max(np.abs(got - ref)) <= 1e-13 * (1.0 + np.max(np.abs(ref)))


@pytest.mark.parametrize("M", [1, 3, 5])
@pytest.mark.parametrize("source", ["dontchev", "double-integrator", "timevarying-demo", 2, 3])
def test_vector_run_pads_a_step_count_short_of_a_power_of_two(source, M):
    # 2M = 2, 6 and 10 steps, the last two padded with zero increments to 8 and 16: the costate
    # and the dense run against their stage loops
    p, grid = _kernel_case(source)
    _assert_close(*_costate_and_reference(p, grid, M))

    def u_fn(t):
        return np.cos(3.0 * t + np.arange(p.m))

    _assert_close(simulate._dense_state(p, u_fn, M)[3], _reference_dense_state(p, u_fn, M)[3])


@pytest.mark.parametrize("M", [4, 32])
@pytest.mark.parametrize("source", ["dontchev", "timevarying-demo", 3, 4])
def test_vector_run_on_durations_a_thousand_fold_apart(source, M):
    # max h / min h = 1e3: every interval's steps differ, and the march joins runs of both sizes
    p = _kernel_case(source)[0]
    grid = sq.grid_from_durations(np.array([1e-3, 0.4, 1.0, 0.02, 1e-3]) / 1.422 * (p.b - p.a), p.a, p.b)
    assert np.max(grid.h) / np.min(grid.h) == pytest.approx(1e3)
    _assert_close(*_costate_and_reference(p, grid, M))


@pytest.mark.parametrize("N", [1, 2, 3, 5, 7, "durations"])
@pytest.mark.parametrize("source", ["double-integrator", "timevarying-demo"])
def test_interval_tree_on_interval_counts_short_of_a_power_of_two(source, N):
    # the N interval maps are the top of the vector run's tree, padded with zero maps to 1, 2, 4,
    # 8, 8 and 8; double-integrator takes the constant-A path, timevarying-demo the general one
    p = sq.get_problem(source).problem
    if N == "durations":
        grid = sq.grid_from_durations(np.array([0.1, 0.3, 0.05, 0.25, 0.2, 0.1]) * (p.b - p.a), p.a, p.b)
    else:
        grid = sq.uniform_grid(N, p.a, p.b)
    assert (p.A.kind == "constant") == (source == "double-integrator")
    _assert_close(*_costate_and_reference(p, grid, 4))


@pytest.mark.parametrize("source", ["double-integrator", "timevarying-demo"])
def test_costate_in_chunks_of_intervals(source, monkeypatch):
    # a table past TABLE_BYTES is formed in chunks of intervals, here 2 + 2 + 2 + 1 of 7 counted
    # from the last interval, each read forward off the stacked half grids and state run: bitwise
    # the run of one chunk, and within the stage loop's bound
    p = sq.get_problem(source).problem
    grid, M = sq.uniform_grid(7, p.a, p.b), 4
    whole = _costate_and_reference(p, grid, M)
    with monkeypatch.context() as mp:
        mp.setattr(transition, "TABLE_BYTES", 2 * 8 * (4 * M + 1) * p.n * (p.n + 1))
        rows, increments = [], transition._increments
        mp.setattr(transition, "_increments", lambda c, r, *args: rows.append(r) or increments(c, r, *args))
        chunked, ref = _costate_and_reference(p, grid, M)
    assert [(r.start, r.stop) for r in rows] == [(0, 2), (2, 4), (4, 6), (6, 7)]
    assert chunked.tobytes() == whole[0].tobytes()
    _assert_close(chunked, ref)


@pytest.mark.parametrize("M", [3, 8])
@pytest.mark.parametrize("source", ["dontchev", "double-integrator", 2, 4])
def test_costate_constant_A_path_matches_general_path(source, M, monkeypatch):
    # a constant A forms one homogeneous step increment per interval, on three half-step points;
    # the same A as a degree-0 polynomial forms every step's, on the whole half grid
    p, grid = _kernel_case(source)
    poly = dataclasses.replace(p, A=sq.CoefficientFunction.poly(p.A.eval_many(p.a)[..., None]))
    assert p.A.kind == "constant" and poly.A.kind == "poly"
    runs = {}
    for name, q in (("constant", p), ("poly", poly)):
        with monkeypatch.context() as mp:
            points = _spy_step_maps(mp)
            runs[name] = _costate_and_reference(q, grid, M)
        assert points == [3 if name == "constant" else 4 * M + 1] * 2  # the state run's, then the costate's
        _assert_close(*runs[name])
    _assert_close(runs["constant"][0], runs["poly"][0])


@pytest.mark.parametrize("M", [1, 64])
def test_subnormal_step_rejected_where_grids_meet_M(dontchev, M):
    # h / 2M below the smallest normal float has lost its relative precision
    grid = sq.grid_from_durations([1e-320, 1.0], 0.0, 1.0)
    with pytest.raises(InvalidInterval, match="smallest normal float"):
        transition._horizon_half_grid(grid, M)
    with pytest.raises(InvalidInterval, match="smallest normal float"):
        sq.compute_all_blocks(dontchev, grid, M)
    # the other interval's step is normal, as are both at 1e-300
    assert np.all(np.diff(_interval_half_grid(grid, 1, M)[0][::2]) == 1.0 / (2 * M))
    assert transition._horizon_half_grid(sq.grid_from_durations([1e-300, 1.0], 0.0, 1.0), M)[1][0] > 0
    with pytest.raises(InvalidInterval, match="smallest normal float"):
        simulate.simulate_state(dontchev, simulate.PiecewiseConstantControl(grid, np.zeros((2, 1))), M)


def test_substeps_beyond_index_range(dontchev):
    # 4M + 1 half-grid nodes past np.intp's range; nothing is allocated before the check
    with pytest.raises(TooLarge, match=f"M = {2**64}"):
        sq.compute_all_blocks(dontchev, sq.uniform_grid(1, 0.0, 1.0), 2**64)


def test_interval_index_must_be_an_integer(dontchev):
    maps = transition._affine_maps(dontchev, *transition._horizon_half_grid(sq.uniform_grid(3, 0.0, 1.0), 4))
    for bad in (1.5, True, np.float64(1.0), 3, -1):
        with pytest.raises(IndexOutOfRange):
            propagate_interval(maps, bad, 4)
    assert propagate_interval(maps, np.int64(1), 4).tobytes() == propagate_interval(maps, 1, 4).tobytes()
