"""Command-line front end: solve, converge, compare-averaged, oracle-check.

Exit codes: 0 ok, 2 input/validation, 3 numerical failure, 4 oracle
disagreement.  Data files use '.' decimals and 17 significant digits so that
reruns of identical command lines are byte-identical.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from dataclasses import replace

import numpy as np

from . import registry
from .errors import (
    MissingReference,
    OracleMismatch,
    SampledLQError,
    UnknownProblem,
    ValidationError,
)
from .oracle import cross_check
from .problem import (
    LQProblem,
    SamplingGrid,
    grid_from_durations,
    load_problem,
    uniform_grid,
    validate_problem,
)
from .riccati import solve as riccati_solve
from .simulate import (
    PiecewiseConstantControl,
    averaged_control,
    cost_of_permanent,
    evaluate_cost,
    pmp_residual_sampled,
    simulate_costate,
    simulate_state,
)

ORACLE_REL_TOL = 1e-6


def _fmt(x) -> str:
    return f"{float(x):.17g}"


def _parse_grid(spec: str, a: float, b: float) -> SamplingGrid:
    kind, _, rest = spec.partition(":")
    if kind == "uniform":
        try:
            N = int(rest)
        except ValueError:
            raise ValidationError(f"bad grid spec {spec!r}: expected uniform:N") from None
        return uniform_grid(N, a, b)
    if kind == "durations":
        try:
            h = [float(v) for v in rest.split(",") if v]
        except ValueError:
            raise ValidationError(f"bad grid spec {spec!r}: expected durations:h1,h2,...") from None
        return grid_from_durations(h, a, b)
    raise ValidationError(f"bad grid spec {spec!r}: expected uniform:N or durations:...")


def _parse_vector(text: str) -> np.ndarray:
    try:
        return np.array([float(v) for v in text.split(",") if v != ""])
    except ValueError:
        raise ValidationError(f"bad vector {text!r}: expected comma-separated numbers") from None


def _parse_seed(text: str) -> int:
    kind, _, rest = text.partition(":")
    if kind != "seed" or not rest:
        raise ValidationError(f"bad random spec {text!r}: expected seed:K")
    try:
        return int(rest)
    except ValueError:
        raise ValidationError(f"bad random spec {text!r}: expected an integer seed") from None


def _resolve_problem(args):
    """Returns (problem, default_grid_or_None, registry_entry_or_None, label)."""
    if getattr(args, "random", None):
        seed = _parse_seed(args.random)
        problem, grid = registry.random_problem(seed)
        label = f"random(seed={seed})"
        entry = None
    else:
        name = args.problem
        if name is None:
            raise ValidationError("one of --problem or --random is required")
        if name in registry.list_problems():
            entry = registry.get_problem(name)
            problem, grid, label = entry.problem, None, name
        elif os.path.exists(name):
            problem = validate_problem(load_problem(name))
            entry, grid, label = None, None, name
        else:
            raise UnknownProblem(f"unknown problem: {name!r}")
    if getattr(args, "qa", None) is not None:
        q_a = _parse_vector(args.qa)
        if q_a.shape != (problem.n,):
            raise ValidationError(f"--qa has {q_a.shape[0]} entries, problem has n={problem.n}")
        q_a.setflags(write=False)
        problem = replace(problem, q_a=q_a)
    return problem, grid, entry, label


def _require_grid(args, default_grid, problem):
    if getattr(args, "grid", None):
        return _parse_grid(args.grid, problem.a, problem.b)
    if default_grid is not None:
        return default_grid
    raise ValidationError("missing --grid")


def _resolve_reference(args, entry, problem, max_N, M):
    """Returns (u_ref callable, reference cost, description)."""
    spec = getattr(args, "reference", None) or "closed-form"
    if spec == "closed-form":
        if entry is None or entry.reference_control is None:
            raise MissingReference("no closed-form reference control for this problem")
        u_ref = entry.reference_control
        ref_cost = cost_of_permanent(problem, u_ref, M=512)
        return u_ref, ref_cost, "closed-form"
    kind, _, rest = spec.partition(":")
    if kind != "fine":
        raise ValidationError(f"bad reference spec {spec!r}: expected closed-form or fine:N")
    try:
        N_ref = int(rest)
    except ValueError:
        raise ValidationError(f"bad reference spec {spec!r}: expected fine:N") from None
    if N_ref <= max_N:
        raise ValidationError(f"fine reference N={N_ref} must exceed the largest requested N={max_N}")
    grid_ref = uniform_grid(N_ref, problem.a, problem.b)
    _, _, sol_ref = riccati_solve(problem, grid_ref, M)
    control_ref = PiecewiseConstantControl(grid_ref, sol_ref.U)
    traj_ref = simulate_state(problem, control_ref, M)
    ref_cost = evaluate_cost(problem, control_ref, traj_ref)
    return control_ref, ref_cost, f"fine:{N_ref}"


def _write_csv(path: str, header: list, rows: list) -> None:
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(header)
        for row in rows:
            writer.writerow([cell if isinstance(cell, str) else _fmt(cell) for cell in row])


def _vec_str(v, digits=10) -> str:
    return "[" + ", ".join(f"{float(x):.{digits}g}" for x in np.atleast_1d(v)) + "]"


def cmd_solve(args) -> int:
    problem, default_grid, entry, label = _resolve_problem(args)
    grid = _require_grid(args, default_grid, problem)
    M = args.substeps
    blocks, sweep, sol = riccati_solve(problem, grid, M)
    control = PiecewiseConstantControl(grid, sol.U)
    traj = simulate_state(problem, control, M)
    sol = sol.with_simulated_cost(evaluate_cost(problem, control, traj))
    costate = simulate_costate(problem, traj, M)
    residuals = pmp_residual_sampled(problem, sol, costate)
    res_max = float(np.max(np.linalg.norm(residuals, axis=1)))

    print(f"problem: {label}  N={grid.N}  ||h||={grid.norm_delta:.10g}  M={M}")
    for i in range(grid.N):
        print(f"U[{i}] = {_vec_str(sol.U[i])}")
    print(f"predicted cost = {sol.predicted_cost:.10g}")
    print(f"simulated cost = {sol.simulated_cost:.10g}")
    print(f"q(b) = {_vec_str(traj.q_end)}")
    print(f"max sampled-stationarity residual = {res_max:.3e}")

    if args.debug_blocks:
        for blk in blocks:
            print(json.dumps(blk.to_jsonable()))

    if args.out:
        if args.format == "json":
            doc = {
                "problem": label,
                "grid": {"h": grid.h.tolist(), "s": grid.s.tolist()},
                "U": sol.U.tolist(),
                "q_nodes": sol.q_nodes.tolist(),
                "q_end": traj.q_end.tolist(),
                "predicted_cost": sol.predicted_cost,
                "simulated_cost": sol.simulated_cost,
                "steps": [
                    {"i": step.i, "gain": step.gain.tolist(), "offset": step.offset.tolist()}
                    for step in sweep.steps
                ],
            }
            with open(args.out, "w") as f:
                json.dump(doc, f, indent=2)
                f.write("\n")
        else:
            header = ["i", "s_i", "h_i"] + [f"U_{j + 1}" for j in range(problem.m)]
            rows = [
                [str(i), grid.s[i], grid.h[i], *sol.U[i]]
                for i in range(grid.N)
            ]
            _write_csv(args.out, header, rows)
    return 0


def cmd_converge(args) -> int:
    problem, default_grid, entry, label = _resolve_problem(args)
    try:
        Ns = [int(v) for v in args.grids.split(",") if v]
    except ValueError:
        raise ValidationError(f"bad --grids {args.grids!r}: expected N1,N2,...") from None
    if not Ns:
        raise ValidationError("--grids must list at least one N")
    M = args.substeps
    u_ref, ref_cost, ref_desc = _resolve_reference(args, entry, problem, max(Ns), M)

    rows = []
    traces = []
    for N in Ns:
        grid = uniform_grid(N, problem.a, problem.b)
        _, _, sol = riccati_solve(problem, grid, M)
        control = PiecewiseConstantControl(grid, sol.U)
        traj = simulate_state(problem, control, M)
        cost_sampled = evaluate_cost(problem, control, traj)
        u_h = averaged_control(u_ref, grid, M, m=problem.m)
        traj_h = simulate_state(problem, u_h, M)
        cost_averaged = evaluate_cost(problem, u_h, traj_h)
        ref_at_nodes = np.array(
            [np.atleast_1d(np.asarray(u_ref(float(grid.s[i])), dtype=float)) for i in range(N)]
        )
        max_node_err = float(np.max(np.linalg.norm(sol.U - ref_at_nodes, axis=1)))
        rows.append([N, grid.norm_delta, max_node_err, cost_sampled, cost_sampled - ref_cost, cost_averaged])
        trace_rows = []
        for i in range(grid.N):
            for t in traj.times[i]:
                u_r = np.atleast_1d(np.asarray(u_ref(float(t)), dtype=float))
                trace_rows.append([t, *sol.U[i], *u_r])
        traces.append((N, trace_rows))

    print(f"problem: {label}  reference: {ref_desc}  C(u*_ref)={ref_cost:.10g}  M={M}")
    print("N, norm_delta, max_node_err, cost_sampled, cost_gap, cost_averaged")
    for row in rows:
        print(f"{row[0]}, {row[1]:.6g}, {row[2]:.6e}, {row[3]:.10g}, {row[4]:.6e}, {row[5]:.10g}")

    if args.out:
        header = ["N", "norm_delta", "max_node_err", "cost_sampled", "cost_gap", "cost_averaged"]
        _write_csv(args.out, header, [[str(r[0]), *r[1:]] for r in rows])
        stem, ext = os.path.splitext(args.out)
        if problem.m == 1:
            trace_header = ["t", "u_sampled", "u_reference"]
        else:
            trace_header = (
                ["t"]
                + [f"u_sampled_{j + 1}" for j in range(problem.m)]
                + [f"u_reference_{j + 1}" for j in range(problem.m)]
            )
        for N, trace_rows in traces:
            _write_csv(f"{stem}_trace_N{N}{ext or '.csv'}", trace_header, trace_rows)
    return 0


def cmd_compare_averaged(args) -> int:
    problem, default_grid, entry, label = _resolve_problem(args)
    grid = _require_grid(args, default_grid, problem)
    M = args.substeps
    u_ref, ref_cost, ref_desc = _resolve_reference(args, entry, problem, 0, M)
    _, _, sol = riccati_solve(problem, grid, M)
    control = PiecewiseConstantControl(grid, sol.U)
    cost_sampled = evaluate_cost(problem, control, simulate_state(problem, control, M))
    u_h = averaged_control(u_ref, grid, M, m=problem.m)
    cost_averaged = evaluate_cost(problem, u_h, simulate_state(problem, u_h, M))
    diffs = np.linalg.norm(sol.U - u_h.U, axis=1)

    print(f"problem: {label}  N={grid.N}  reference: {ref_desc}  M={M}")
    print(f"cost_sampled  = {cost_sampled:.10g}")
    print(f"cost_averaged = {cost_averaged:.10g}")
    print(f"max |U_averaged - U_optimal| = {float(np.max(diffs)):.6e}")

    if args.out:
        if problem.m == 1:
            header = ["i", "s_i", "U_optimal", "U_averaged", "diff"]
            rows = [
                [str(i), grid.s[i], sol.U[i, 0], u_h.U[i, 0], diffs[i]]
                for i in range(grid.N)
            ]
        else:
            header = (
                ["i", "s_i"]
                + [f"U_optimal_{j + 1}" for j in range(problem.m)]
                + [f"U_averaged_{j + 1}" for j in range(problem.m)]
                + ["diff"]
            )
            rows = [
                [str(i), grid.s[i], *sol.U[i], *u_h.U[i], diffs[i]]
                for i in range(grid.N)
            ]
        _write_csv(args.out, header, rows)
    return 0


def cmd_oracle_check(args) -> int:
    problem, default_grid, entry, label = _resolve_problem(args)
    grid = _require_grid(args, default_grid, problem)
    report = cross_check(problem, grid, args.substeps)

    print(f"problem: {label}  N={grid.N}  M={args.substeps}")
    print("j, U_sweep, U_qp, diff")
    for j in range(report.U_sweep.shape[0]):
        print(f"{j}, {report.U_sweep[j]:.12g}, {report.U_qp[j]:.12g}, {report.diffs[j]:.3e}")
    print(f"max abs diff = {report.max_abs_diff:.3e}")
    print(f"max rel diff = {report.max_rel_diff:.3e}")
    print(f"cost sweep = {report.cost_sweep:.12g}  cost qp = {report.cost_qp:.12g}")
    print(f"certificate |Hq U + g| = {report.certificate_norm:.3e}")

    if args.out:
        with open(args.out, "w") as f:
            json.dump(report.to_jsonable(), f, indent=2)
            f.write("\n")

    if report.max_rel_diff > ORACLE_REL_TOL:
        raise OracleMismatch(f"oracle disagreement: max rel diff {report.max_rel_diff:.3e} > {ORACLE_REL_TOL:g}")
    return 0


def _add_common(sub, grid_flag=True):
    sub.add_argument("--problem", help="registry name or problem file path")
    sub.add_argument("--random", metavar="seed:K", help="seeded random problem instead of --problem")
    sub.add_argument("--qa", help="override initial state, comma-separated")
    sub.add_argument("--substeps", type=int, default=64, metavar="M",
                     help="RK4 half-step pairs per interval (default 64)")
    sub.add_argument("--out", help="output data file path")
    if grid_flag:
        sub.add_argument("--grid", help="uniform:N or durations:h1,h2,...")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sampledlq",
        description="Optimal sampled-data (zero-order-hold) control of LQ problems",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="solve one problem on one grid")
    _add_common(p_solve)
    p_solve.add_argument("--format", choices=["csv", "json"], default="csv")
    p_solve.add_argument("--debug-blocks", action="store_true",
                         help="print one JSON object per interval with all block values")
    p_solve.set_defaults(func=cmd_solve)

    p_conv = sub.add_parser("converge", help="sweep grid sizes against a reference control")
    _add_common(p_conv, grid_flag=False)
    p_conv.add_argument("--grids", required=True, metavar="N1,N2,...")
    p_conv.add_argument("--reference", default="closed-form", metavar="closed-form|fine:N")
    p_conv.set_defaults(func=cmd_converge)

    p_cmp = sub.add_parser("compare-averaged", help="optimal vs averaged coefficients on one grid")
    _add_common(p_cmp)
    p_cmp.add_argument("--reference", default="closed-form", metavar="closed-form|fine:N")
    p_cmp.set_defaults(func=cmd_compare_averaged)

    p_orc = sub.add_parser("oracle-check", help="cross-check the sweep against the dense QP")
    _add_common(p_orc)
    p_orc.set_defaults(func=cmd_oracle_check)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except SampledLQError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
