"""Seeded op lists for the benchmark workloads.

An op is the argv of one `sampledlq` command-line call, without `--out`,
which the runner adds.  One pass over a workload runs its op list once.  The
same workload seed gives identical argv lists; another seed reorders the
solve ops, draws other `durations:` grids and moves the `--random seed:K`
range.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from sampledlq import registry

NS = (8, 16, 32, 64)
MS = (16, 32)
CONST_PROBLEMS = ("dontchev", "double-integrator")
TIMEVARYING_PROBLEM = "timevarying-demo"

# 7 cycles of the 16 (problem, N, M) cases and 13 cycles of the 8 (N, M)
# cases: at least 100 ops a pass, so that p90 has 10 samples beyond it.
CONST_CYCLES = 7
TIMEVARYING_CYCLES = 13

# Drawn durations are scaled copies of uniform(1, MAX_DURATION_RATIO) draws,
# so max h / min h < MAX_DURATION_RATIO on every grid.
MAX_DURATION_RATIO = 4.0

# oracle-random checks K = ORACLE_SEED_STRIDE * seed + j for j < ORACLE_OPS.
# The random problems differ in size (mN from 1 to 24), so a pass needs
# hundreds of them for its total time to vary little from seed to seed.
ORACLE_OPS = 600
ORACLE_SEED_STRIDE = 1000
ORACLE_M = 64

WORKLOADS = ("solve-const", "solve-timevarying", "oracle-random")


@dataclass(frozen=True)
class Op:
    kind: str    # "solve" or "oracle"
    argv: tuple  # sampledlq command line without --out


def _solve_argv(problem: str, grid: str, M: int) -> tuple:
    return ("solve", "--problem", problem, "--grid", grid, "--substeps", str(M), "--format", "json")


def draw_durations(rng: np.random.Generator, N: int, span: float) -> list:
    """N positive durations summing to span, with max/min < MAX_DURATION_RATIO."""
    d = rng.uniform(1.0, MAX_DURATION_RATIO, size=N)
    return (d / d.sum() * span).tolist()


def build_ops(workload: str, seed: int) -> list:
    """The op list of one pass over `workload`, generated from `seed` alone."""
    if seed < 0:
        raise ValueError(f"workload seed must be non-negative, got {seed}")
    rng = np.random.default_rng(seed)
    if workload == "solve-const":
        cases = [(p, N, M) for p in CONST_PROBLEMS for N in NS for M in MS]
        ops = []
        for _ in range(CONST_CYCLES):
            for k in rng.permutation(len(cases)):
                p, N, M = cases[k]
                ops.append(Op("solve", _solve_argv(p, f"uniform:{N}", M)))
        return ops
    if workload == "solve-timevarying":
        prob = registry.get_problem(TIMEVARYING_PROBLEM).problem
        cases = [(N, M) for N in NS for M in MS]
        ops = []
        for _ in range(TIMEVARYING_CYCLES):
            for k in rng.permutation(len(cases)):
                N, M = cases[k]
                h = draw_durations(rng, N, prob.b - prob.a)
                grid = "durations:" + ",".join(repr(x) for x in h)
                ops.append(Op("solve", _solve_argv(TIMEVARYING_PROBLEM, grid, M)))
        return ops
    if workload == "oracle-random":
        base = ORACLE_SEED_STRIDE * seed
        return [
            Op("oracle", ("oracle-check", "--random", f"seed:{base + j}", "--substeps", str(ORACLE_M)))
            for j in range(ORACLE_OPS)
        ]
    raise ValueError(f"unknown workload {workload!r}; expected one of {', '.join(WORKLOADS)}")
