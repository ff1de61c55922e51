"""Command-line front end: solve, converge, compare-averaged, oracle-check.

Exit codes: 0 ok, 2 input/validation, 3 numerical failure, 4 oracle
disagreement.  CSV files use '.' decimals and 17 significant digits so that
reruns of identical command lines are byte-identical.  A JSON file's text is
`json.dumps(doc, indent=2)` of its document with every array as nested lists,
written by `_json` from the arrays themselves: each array, and the solve's
`steps` records, is one template of `%s` slots for its shape, filled once
with the entries' `float.__repr__` spellings (NaN and the infinities as json
spells them).  An `--out` path that cannot be written exits 2.

`main(argv)` can be called repeatedly in one process: the argument parser is
built on the first call and reused, and no state carries from one call to
the next.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import math
import os
import sys
from dataclasses import fields, replace

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


def _parse(cast, rest: str, what: str, text: str, usage: str):
    """cast(rest), with a ValueError reported as a bad `what` spelled `text`."""
    try:
        return cast(rest)
    except ValueError:
        raise ValidationError(f"bad {what} {text!r}: expected {usage}") from None


def _list_of(cast):
    """Parser of a comma-separated list whose items are read by cast; empty items are skipped."""
    return lambda text: [cast(v) for v in text.split(",") if v]


def _parse_grid(spec: str, a: float, b: float) -> SamplingGrid:
    kind, _, rest = spec.partition(":")
    if kind == "uniform":
        return uniform_grid(_parse(int, rest, "grid spec", spec, "uniform:N"), a, b)
    if kind == "durations":
        return grid_from_durations(_parse(_list_of(float), rest, "grid spec", spec, "durations:h1,h2,..."), a, b)
    raise ValidationError(f"bad grid spec {spec!r}: expected uniform:N or durations:...")


def _resolve(args):
    """Returns (problem, grid, registry entry or None, label).

    The grid is None only for a subcommand without --grid (converge)."""
    if args.random and args.problem is not None:
        raise ValidationError("give one of --problem or --random, not both")
    if args.random:
        kind, _, rest = args.random.partition(":")
        if kind != "seed" or not rest:
            raise ValidationError(f"bad random spec {args.random!r}: expected seed:K")
        seed = _parse(int, rest, "random spec", args.random, "an integer seed")
        problem, grid = registry.random_problem(seed)
        entry, label = None, f"random(seed={seed})"
    elif args.problem is None:
        raise ValidationError("one of --problem or --random is required")
    elif args.problem in registry.list_problems():
        entry = registry.get_problem(args.problem)
        problem, grid, label = entry.problem, None, args.problem
    elif os.path.exists(args.problem):
        problem = validate_problem(load_problem(args.problem))
        entry, grid, label = None, None, args.problem
    else:
        raise UnknownProblem(f"unknown problem: {args.problem!r}")
    if args.qa is not None:
        q_a = np.array(_parse(_list_of(float), args.qa, "vector", args.qa, "comma-separated numbers"))
        if not np.all(np.isfinite(q_a)):
            raise ValidationError(f"bad vector {args.qa!r}: entries must be finite")
        if q_a.shape != (problem.n,):
            raise ValidationError(f"--qa has {q_a.shape[0]} entries, problem has n={problem.n}")
        q_a.setflags(write=False)
        problem = replace(problem, q_a=q_a)
    if not hasattr(args, "grid"):
        grid = None
    elif args.grid:
        grid = _parse_grid(args.grid, problem.a, problem.b)
    elif grid is None:
        raise ValidationError("missing --grid")
    return problem, grid, entry, label


def _simulate(problem, control, M, blocks=None):
    """(trajectory, cost) of one control, marched on the blocks' nodes when given."""
    traj = simulate_state(problem, control, M, blocks)
    return traj, evaluate_cost(traj)


def _solve(problem, grid, M):
    """(blocks, sweep, solution, its simulated cost, its trajectory) on one grid."""
    blocks, sweep, sol = riccati_solve(problem, grid, M)
    traj, cost = _simulate(problem, PiecewiseConstantControl(grid, sol.U), M, blocks)
    return blocks, sweep, sol, cost, traj


def _averaged(problem, u_ref, grid, M):
    """(u_h, cost): the interval averages of u_ref on grid and their simulated cost."""
    u_h = averaged_control(u_ref, grid, M)
    return u_h, _simulate(problem, u_h, M)[1]


def _resolve_reference(args, entry, problem, max_N, M):
    """Returns (u_ref callable, reference cost, description)."""
    spec = args.reference or "closed-form"
    if spec == "closed-form":
        if entry is None or entry.reference_control is None:
            raise MissingReference("no closed-form reference control for this problem")
        if not np.array_equal(problem.q_a, entry.problem.q_a):
            raise MissingReference(f"the closed-form reference holds only for q_a = {_vec_str(entry.problem.q_a)}; "
                                   "use --reference fine:N")
        u_ref = entry.reference_control
        ref_cost = cost_of_permanent(problem, u_ref, M=512)
        return u_ref, ref_cost, "closed-form"
    kind, _, rest = spec.partition(":")
    if kind != "fine":
        raise ValidationError(f"bad reference spec {spec!r}: expected closed-form or fine:N")
    N_ref = _parse(int, rest, "reference spec", spec, "fine:N")
    if N_ref <= max_N:
        raise ValidationError(f"fine reference N={N_ref} must exceed the largest requested N={max_N}")
    grid_ref = uniform_grid(N_ref, problem.a, problem.b)
    _, _, sol_ref, cost_ref, _ = _solve(problem, grid_ref, M)
    return PiecewiseConstantControl(grid_ref, sol_ref.U), cost_ref, f"fine:{N_ref}"


def _labels(name: str, m: int) -> list:
    """CSV column names of an m-vector: the bare name for a scalar, else name_1 ... name_m."""
    return [f"{name}_{j + 1}" for j in range(m)] if m > 1 else [name]


def _open_out(path: str):
    """path opened to write text as it is given; a path that cannot be opened is a ValidationError."""
    try:
        return open(path, "w", newline="")
    except OSError as exc:
        raise ValidationError(f"cannot write {path!r}: {exc}") from None


def _write_csv(path: str, header: list, rows: list) -> None:
    with _open_out(path) as f:
        writer = csv.writer(f)
        writer.writerow(header)
        for row in rows:
            writer.writerow([cell if isinstance(cell, str) else _fmt(cell) for cell in row])


class _Records(dict):
    """Arrays with N rows by name, written as a JSON list of N records: record r maps each name to row r."""


_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _floats(values: list) -> list:
    """json's spelling of each float in values: float.__repr__, or NaN, Infinity and -Infinity."""
    return [_NONFINITE.get(c, c) for c in map(float.__repr__, values)]


def _cells(a: np.ndarray) -> list:
    """json's spelling of each entry of a float or integer array, in C order."""
    values = a.ravel().tolist()
    return list(map(int.__repr__, values)) if a.dtype.kind in "iu" else _floats(values)


def _nest(shape: tuple, pad: str, leaf: str = "%s") -> str:
    """Template of nested lists of that shape in json's indent=2 layout at indent pad, each entry leaf."""
    if not shape:
        return leaf
    if not shape[0]:
        return "[]"
    inner = pad + "  "
    return "[\n" + ",\n".join([inner + _nest(shape[1:], inner, leaf)] * shape[0]) + "\n" + pad + "]"


def _json(v, pad: str = "") -> str:
    """json.dumps(v, indent=2) at indent pad, with v's ndarrays and _Records read as the nested lists they hold.

    v's dicts have str keys.  An array or a _Records is one block, a
    template filled once: json's own encoder with an indent recurses in
    Python over every list and dict, as a recursion here would.
    """
    inner = pad + "  "
    if isinstance(v, np.ndarray):
        return _nest(v.shape, pad) % tuple(_cells(v))
    if isinstance(v, _Records):
        N = len(next(iter(v.values())))
        keys = (json.dumps(k).replace("%", "%%") for k in v)
        items = (f"{inner}  {k}: {_nest(a.shape[1:], inner + '  ')}" for k, a in zip(keys, v.values()))
        record = "{\n" + ",\n".join(items) + "\n" + inner + "}"
        rows = [np.array(_cells(a), dtype=object).reshape(N, math.prod(a.shape[1:])) for a in v.values()]
        return _nest((N,), pad, record) % tuple(np.concatenate(rows, axis=1).ravel().tolist())
    if isinstance(v, dict) and v:
        return "{\n" + ",\n".join(f"{inner}{json.dumps(k)}: {_json(x, inner)}" for k, x in v.items()) + "\n" + pad + "}"
    if isinstance(v, (list, tuple)) and v:
        return "[\n" + ",\n".join(inner + _json(x, inner) for x in v) + "\n" + pad + "]"
    if isinstance(v, float):
        return _floats([v])[0]
    return json.dumps(v)


def _write_json(path: str, doc) -> None:
    with _open_out(path) as f:
        f.write(_json(doc) + "\n")


def _vec_str(v, digits=10) -> str:
    return "[" + ", ".join(f"{float(x):.{digits}g}" for x in v) + "]"


def cmd_solve(args) -> int:
    problem, grid, _, label = _resolve(args)
    M = args.substeps
    blocks, sweep, sol, cost, traj = _solve(problem, grid, M)
    # format the blocks now: their node stack is as large as the costate run, so drop it, and the
    # sweep that records it, first
    block_lines = [json.dumps(blocks.to_jsonable(i)) for i in range(grid.N)] if args.debug_blocks else []
    steps = _Records(i=np.arange(grid.N), gain=sweep.gain, offset=sweep.offset)
    del blocks, sweep
    costate = simulate_costate(traj, M)
    residuals = pmp_residual_sampled(costate)
    res_max = float(np.max(np.linalg.norm(residuals, axis=1)))

    print(f"problem: {label}  N={grid.N}  ||h||={grid.norm_delta:.10g}  M={M}")
    print("\n".join(f"U[{i}] = {_vec_str(u)}" for i, u in enumerate(sol.U.tolist())))
    print(f"predicted cost = {sol.predicted_cost:.10g}")
    print(f"simulated cost = {cost:.10g}")
    print(f"q(b) = {_vec_str(traj.q_end)}")
    print(f"max sampled-stationarity residual = {res_max:.3e}")

    for line in block_lines:
        print(line)

    if args.out:
        if args.format == "json":
            _write_json(args.out, {
                "problem": label,
                "grid": {"h": grid.h, "s": grid.s},
                "U": sol.U,
                "q_nodes": sol.q_nodes,
                "q_end": traj.q_end,
                "predicted_cost": sol.predicted_cost,
                "simulated_cost": cost,
                "steps": steps,
            })
        else:
            header = ["i", "s_i", "h_i"] + [f"U_{j + 1}" for j in range(problem.m)]
            rows = [
                [str(i), grid.s[i], grid.h[i], *sol.U[i]]
                for i in range(grid.N)
            ]
            _write_csv(args.out, header, rows)
    return 0


def cmd_converge(args) -> int:
    problem, _, entry, label = _resolve(args)
    Ns = _parse(_list_of(int), args.grids, "--grids", args.grids, "N1,N2,...")
    if not Ns:
        raise ValidationError("--grids must list at least one N")
    M = args.substeps
    u_ref, ref_cost, ref_desc = _resolve_reference(args, entry, problem, max(Ns), M)

    def ref_at(t):
        return np.atleast_1d(np.asarray(u_ref(float(t)), dtype=float))

    rows = []
    traces = []
    for N in Ns:
        grid = uniform_grid(N, problem.a, problem.b)
        sol, cost, traj = _solve(problem, grid, M)[2:]  # the sweep holds the blocks: keep neither
        _, cost_averaged = _averaged(problem, u_ref, grid, M)
        ref_at_nodes = np.array([ref_at(grid.s[i]) for i in range(N)])
        max_node_err = float(np.max(np.linalg.norm(sol.U - ref_at_nodes, axis=1)))
        rows.append([N, grid.norm_delta, max_node_err, cost, cost - ref_cost, cost_averaged])
        traces.append((N, [[t, *sol.U[i], *ref_at(t)] for i in range(N) for t in traj.times[i]]))

    print(f"problem: {label}  reference: {ref_desc}  C(u*_ref)={ref_cost:.10g}  M={M}")
    print("N, norm_delta, max_node_err, cost_sampled, cost_gap, cost_averaged")
    for row in rows:
        print(f"{row[0]}, {row[1]:.6g}, {row[2]:.6e}, {row[3]:.10g}, {row[4]:.6e}, {row[5]:.10g}")

    if args.out:
        header = ["N", "norm_delta", "max_node_err", "cost_sampled", "cost_gap", "cost_averaged"]
        _write_csv(args.out, header, [[str(r[0]), *r[1:]] for r in rows])
        stem, ext = os.path.splitext(args.out)
        trace_header = ["t", *_labels("u_sampled", problem.m), *_labels("u_reference", problem.m)]
        for N, trace_rows in traces:
            _write_csv(f"{stem}_trace_N{N}{ext or '.csv'}", trace_header, trace_rows)
    return 0


def cmd_compare_averaged(args) -> int:
    problem, grid, entry, label = _resolve(args)
    M = args.substeps
    u_ref, ref_cost, ref_desc = _resolve_reference(args, entry, problem, grid.N, M)
    sol, cost = _solve(problem, grid, M)[2:4]
    u_h, cost_averaged = _averaged(problem, u_ref, grid, M)
    diffs = np.linalg.norm(sol.U - u_h.U, axis=1)

    print(f"problem: {label}  N={grid.N}  reference: {ref_desc}  M={M}")
    print(f"cost_sampled  = {cost:.10g}")
    print(f"cost_averaged = {cost_averaged:.10g}")
    print(f"max |U_averaged - U_optimal| = {float(np.max(diffs)):.6e}")

    if args.out:
        header = ["i", "s_i", *_labels("U_optimal", problem.m), *_labels("U_averaged", problem.m), "diff"]
        rows = [[str(i), grid.s[i], *sol.U[i], *u_h.U[i], diffs[i]] for i in range(grid.N)]
        _write_csv(args.out, header, rows)
    return 0


def cmd_oracle_check(args) -> int:
    problem, grid, _, label = _resolve(args)
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
        _write_json(args.out, {f.name: getattr(report, f.name) for f in fields(report)})

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


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built on the first call and shared by later ones."""
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
