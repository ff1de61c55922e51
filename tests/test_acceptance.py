"""End-to-end acceptance suite.

Eight criteria cover the scalar closed-form benchmark, sweep/QP oracle
equivalence over 100 seeded random problems, convergence of the sampled
solution to the permanent control, the cost sandwich, stationarity residuals,
structural invariants of the backward sweep, dynamic-programming consistency,
and the distinction from interval-averaged coefficients.

Each test prints exactly one "[criterion k] PASS/FAIL: ..." line (through
the terminal reporter with output capture suspended, so a plain `pytest`
run shows it) and then asserts.
"""

import time

import numpy as np
import pytest

import sampledlq as sq
from conftest import max_relative_residual, solve_with_simulation

GRID_SIZES = (2, 5, 10, 30, 100)
RANDOM_SEEDS = range(100)


def _report(request, k: int, ok: bool, detail: str) -> None:
    line = f"[criterion {k}] {'PASS' if ok else 'FAIL'}: {detail}"
    plugins = request.config.pluginmanager
    reporter, capture = plugins.get_plugin("terminalreporter"), plugins.get_plugin("capturemanager")
    if reporter is not None and capture is not None:
        with capture.global_and_fixture_disabled():
            reporter.ensure_newline()  # ends a line after a file path, not after -q's progress dots
            if reporter._tw.width_of_current_line:
                reporter.write("\n")
            reporter.write_line(line)
    else:
        print(line, flush=True)
    assert ok, line


@pytest.fixture(scope="module")
def random_suite():
    """(seed, problem, grid, blocks, sweep, solution) at M=64 for 100 seeds."""
    suite = []
    for seed in RANDOM_SEEDS:
        problem, grid = sq.random_problem(seed)
        blocks, sweep, sol = sq.solve(problem, grid, M=64)
        suite.append((seed, problem, grid, blocks, sweep, sol))
    return suite


@pytest.fixture(scope="module")
def convergence(dontchev, dontchev_entry):
    """Sampled solutions and averaged-control costs on the benchmark grids."""
    u_ref = dontchev_entry.reference_control
    t0 = time.perf_counter()
    data = {}
    for N in GRID_SIZES:
        grid = sq.uniform_grid(N, dontchev.a, dontchev.b)
        _, _, sol, cost, _ = solve_with_simulation(dontchev, grid, 64)
        u_avg = sq.averaged_control(u_ref, grid, M=64)
        cost_avg = sq.evaluate_cost(sq.simulate_state(dontchev, u_avg, M=64))
        ref_nodes = np.array([u_ref(float(grid.s[i])) for i in range(N)])
        node_err = float(np.max(np.abs(sol.U[:, 0] - ref_nodes)))
        data[N] = {
            "sol": sol,
            "cost_sampled": cost,
            "cost_averaged": cost_avg,
            "node_err": node_err,
            "U_averaged": u_avg.U,
        }
    data["elapsed"] = time.perf_counter() - t0
    return data


@pytest.fixture(scope="module")
def reference_cost(dontchev, dontchev_entry):
    return sq.cost_of_permanent(dontchev, dontchev_entry.reference_control, M=512)


def test_criterion_1_scalar_benchmark(request, dontchev, analytic):
    t0 = time.perf_counter()
    _, sweep, sol = sq.solve(dontchev, sq.uniform_grid(1, 0, 1), M=256)
    elapsed = time.perf_counter() - t0
    pairs = [
        (sweep.T[0, 0, 0], analytic["T0"]),
        (sweep.P[0, 0, 0], analytic["P0"]),
        (sweep.Q[0, 0, 0], analytic["Q0"]),
        (sweep.K[0, 0, 0], analytic["K0"]),
        (sol.U[0, 0], analytic["U0"]),
        (sol.predicted_cost, analytic["COST0"]),
    ]
    dev = max(abs(got - want) for got, want in pairs)
    ok = dev <= 1e-8 and elapsed < 1.0
    _report(request, 1, ok,
            f"K0={sweep.K[0, 0, 0]:.10f} U0={sol.U[0, 0]:.10f} "
            f"cost={sol.predicted_cost:.10f} max dev {dev:.2e}, {elapsed:.2f} s")


def test_criterion_2_oracle_equivalence(request):
    t0 = time.perf_counter()
    worst_u = 0.0
    worst_cost = 0.0
    for seed in RANDOM_SEEDS:
        problem, grid = sq.random_problem(seed)
        report = sq.cross_check(problem, grid, M=64)
        worst_u = max(worst_u, report.max_rel_diff)
        worst_cost = max(worst_cost,
                         abs(report.cost_diff) / (1.0 + abs(report.cost_sweep)))
    elapsed = time.perf_counter() - t0
    ok = worst_u <= 1e-6 and worst_cost <= 1e-6 and elapsed < 60.0
    _report(request, 2, ok,
            f"100 problems, worst coefficient rel diff {worst_u:.2e}, "
            f"worst cost rel diff {worst_cost:.2e}, {elapsed:.1f} s")


def test_criterion_3_convergence(request, convergence, analytic):
    errs = [convergence[N]["node_err"] for N in GRID_SIZES]
    decreasing = all(a > b for a, b in zip(errs, errs[1:]))
    ratio = errs[0] / errs[-1]
    cost_gap = abs(convergence[100]["cost_sampled"] - analytic["PERMANENT_COST"])
    elapsed = convergence["elapsed"]
    ok = decreasing and ratio >= 10.0 and cost_gap <= 1e-3 and elapsed < 10.0
    err_text = ", ".join(f"{e:.4g}" for e in errs)
    _report(request, 3, ok,
            f"node errors [{err_text}] (N=2 over N=100: {ratio:.1f}x), "
            f"|C - {analytic['PERMANENT_COST']:.7f}| = {cost_gap:.2e}, {elapsed:.1f} s")


def test_criterion_4_cost_sandwich(request, convergence, reference_cost):
    worst = -np.inf
    ok = True
    for N in GRID_SIZES:
        cost_star = convergence[N]["cost_sampled"]
        cost_avg = convergence[N]["cost_averaged"]
        tol = 1e-6 * (1.0 + cost_avg)
        ok = ok and (reference_cost - tol <= cost_star <= cost_avg + tol)
        worst = max(worst, reference_cost - cost_star, cost_star - cost_avg)
    _report(request, 4, ok,
            f"C(ref)={reference_cost:.8f} <= C(sampled) <= C(averaged) on all "
            f"grids (worst margin violation {worst:.2e})")


def test_criterion_5_stationarity_residuals(request, dontchev, dontchev_entry,
                                            convergence, random_suite):
    worst = 0.0
    _, _, sol1 = sq.solve(dontchev, sq.uniform_grid(1, 0, 1), M=256)
    worst = max(worst, max_relative_residual(dontchev, sol1, 256))
    for N in GRID_SIZES:
        worst = max(worst,
                    max_relative_residual(dontchev, convergence[N]["sol"], 256))
    for _, problem, _, _, _, sol in random_suite:
        worst = max(worst, max_relative_residual(problem, sol, 512))
    permanent = sq.pmp_residual_permanent(
        dontchev, dontchev_entry.reference_control, M=512)
    ok = worst <= 1e-6 and permanent <= 1e-5
    _report(request, 5, ok,
            f"worst sampled residual {worst:.2e} (tol 1e-6), "
            f"permanent residual {permanent:.2e} (tol 1e-5)")


def test_criterion_6_sweep_invariants(request, random_suite):
    worst_T = np.inf
    worst_K = -np.inf
    worst_affine = 0.0
    homogeneous = 0
    for seed, _, _, _, sweep, _ in random_suite:
        for i in range(sweep.N):
            T, K = sweep.T[i], sweep.K[i]
            assert np.array_equal(T, T.T)
            worst_T = min(worst_T, np.linalg.eigvalsh(T).min())
            deficit = (-np.linalg.eigvalsh(K).min()
                       / (1.0 + np.linalg.norm(K)))
            worst_K = max(worst_K, deficit)
        if seed % 2 == 0:  # random_problem's even seeds have zero omega, x, v and q_b
            homogeneous += 1
            for i in range(sweep.N):
                worst_affine = max(
                    worst_affine, np.linalg.norm(sweep.J[i]), abs(sweep.Y[i]),
                    np.linalg.norm(sweep.H[i]), np.linalg.norm(sweep.G[i]), abs(sweep.F[i]))
    ok = worst_T > 0.0 and worst_K <= 1e-8 and worst_affine <= 1e-10
    _report(request, 6, ok,
            f"min T eigenvalue {worst_T:.2e}, worst scaled K deficit {worst_K:.2e}, "
            f"affine terms of {homogeneous} homogeneous runs <= {worst_affine:.1e}")


def test_criterion_7_dynamic_programming(request, dontchev, random_suite):
    grid5 = sq.uniform_grid(5, 0, 1)
    _, sweep5, sol5 = sq.solve(dontchev, grid5, M=64)
    cases = [(dontchev, grid5, sweep5, sol5)]
    cases += [(problem, grid, sweep, sol)
              for _, problem, grid, _, sweep, sol in random_suite[:10]]

    worst_bellman = 0.0
    worst_tail = 0.0
    worst_v0 = 0.0
    for problem, grid, sweep, sol in cases:
        control = sq.PiecewiseConstantControl(grid, sol.U)
        traj = sq.simulate_state(problem, control, M=64)
        rc = sq.running_costs(traj)
        tc = sq.terminal_cost(problem, traj.q_end)
        ys = [traj.qs[j][0] for j in range(grid.N)]
        ys.append(traj.q_end - problem.q_b)
        V = [sq.value_function(sweep, j, ys[j]) for j in range(grid.N + 1)]
        for j in range(grid.N):
            gap = abs(V[j] - (rc[j] + V[j + 1]))
            worst_bellman = max(worst_bellman, gap / (1.0 + abs(V[j])))
        worst_v0 = max(worst_v0,
                       abs(V[0] - (rc.sum() + tc)) / (1.0 + abs(V[0])))

        j = grid.N // 2
        _, tail_sweep, _ = sq.solve(problem, grid.tail(j), M=64)
        K, J, Y = sweep.K[j], sweep.J[j], sweep.Y[j]
        worst_tail = max(
            worst_tail,
            np.linalg.norm(tail_sweep.K[0] - K) / (1.0 + np.linalg.norm(K)),
            np.linalg.norm(tail_sweep.J[0] - J) / (1.0 + np.linalg.norm(J)),
            abs(tail_sweep.Y[0] - Y) / (1.0 + abs(Y)))
    ok = worst_bellman <= 1e-6 and worst_tail <= 1e-8 and worst_v0 <= 1e-6
    _report(request, 7, ok,
            f"{len(cases)} solutions: worst Bellman gap {worst_bellman:.2e}, "
            f"worst tail re-solve deviation {worst_tail:.2e}, "
            f"worst V0 vs simulated cost {worst_v0:.2e}")


def test_criterion_8_averaged_distinction(request, convergence):
    cost_star = convergence[2]["cost_sampled"]
    cost_avg = convergence[2]["cost_averaged"]
    maxdiff = float(np.max(np.abs(
        convergence[2]["U_averaged"] - convergence[2]["sol"].U)))
    ok = maxdiff > 1e-3 and cost_avg > cost_star
    _report(request, 8, ok,
            f"N=2: max |U_averaged - U_optimal| = {maxdiff:.3e} > 1e-3, "
            f"C(averaged)={cost_avg:.8f} > C(optimal)={cost_star:.8f}")
