"""Tests of the benchmark itself: op generation, output checks and the trace.

    python3 -m pytest perfbench/tests
"""

import json
import math
import statistics
from pathlib import Path
from time import perf_counter

import pytest

import hostspeed
import run
import workloads
from sampledlq.problem import grid_from_durations
from tracer import HOOKS, Tracer

SPEC = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())


def _durations(op):
    grid = op.argv[op.argv.index("--grid") + 1]
    return [float(v) for v in grid.removeprefix("durations:").split(",")]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_gives_identical_argv(workload):
    first = [op.argv for op in workloads.build_ops(workload, 7)]
    assert first == [op.argv for op in workloads.build_ops(workload, 7)]
    assert len(first) >= 100


def test_other_seed_changes_grids_and_random_range():
    grids = [[_durations(op) for op in workloads.build_ops("solve-timevarying", s)] for s in (0, 1)]
    assert all(a != b for a, b in zip(*grids))
    ks = [{op.argv[2] for op in workloads.build_ops("oracle-random", s)} for s in (0, 1)]
    assert not ks[0] & ks[1]


@pytest.mark.parametrize("seed", range(5))
def test_durations_sum_to_interval_within_ratio(seed):
    for op in workloads.build_ops("solve-timevarying", seed):
        h = _durations(op)
        assert abs(math.fsum(h) - 1.0) <= 1e-13
        assert max(h) / min(h) < workloads.MAX_DURATION_RATIO
        assert grid_from_durations(h, 0.0, 1.0).N == len(h)


def test_check_op_flags_bad_outputs(tmp_path):
    out = tmp_path / "out.json"
    good = {"U": [[1.0]], "predicted_cost": 2.0, "simulated_cost": 2.0}
    stdout = run.RESIDUAL_PREFIX + "1.0e-07\n"
    out.write_text(json.dumps(good))
    assert run.check_op("solve", 0, stdout, "", out).failure is None
    assert run.check_op("solve", 3, stdout, "error: diverged", out).failure.startswith("exit code 3")
    out.write_text(json.dumps({**good, "U": [[float("nan")]]}))
    assert run.check_op("solve", 0, stdout, "", out).failure == "non-finite U"
    out.write_text(json.dumps({**good, "simulated_cost": 2.0 + 1e-6}))
    assert "simulated cost" in run.check_op("solve", 0, stdout, "", out).failure
    report = {"U_sweep": [1.0], "U_qp": [1.0], "max_rel_diff": 2e-6}
    out.write_text(json.dumps(report))
    assert "max_rel_diff" in run.check_op("oracle", 0, "", "", out).failure


def test_failing_op_is_reported(tmp_path):
    cli, _, _ = run._load_library()
    op = workloads.Op("solve", ("solve", "--problem", "dontchev", "--grid", "uniform:0"))
    assert run.run_op(cli, op, tmp_path / "out.json").failure.startswith("exit code 2")


SMALL_OPS = [
    workloads.Op("solve", ("solve", "--problem", "dontchev", "--grid", "uniform:3",
                           "--substeps", "4", "--format", "json")),
    workloads.Op("solve", ("solve", "--problem", "timevarying-demo", "--grid", "durations:0.25,0.5,0.25",
                           "--substeps", "4", "--format", "json")),
    workloads.Op("oracle", ("oracle-check", "--random", "seed:5", "--substeps", "4")),
]


def _traced_pass(tmp_path, hooks=HOOKS):
    cli, _, _ = run._load_library()
    tracer = Tracer(hooks)
    mark = tracer.mark()
    tracer.install()
    try:
        p = run.run_pass(cli, SMALL_OPS, tmp_path / "out.json", tracer)
    finally:
        tracer.uninstall()
    assert all(r.failure is None for r in p.results)
    return tracer.layer_metrics(mark)


# per-layer counts that must repeat exactly from one traced run to the next
EXACT_COUNTS = (
    "problem.eval_calls",
    "problem.eval_points",
    "problem.eval_distinct_ratio",
    "transition.rk4_steps",
    "blocks.intervals",
    "simulate.rk4_steps",
    "simulate.batch_controls",
    "oracle.controls_per_unknown",
)


def test_traced_counts_repeat_exactly(tmp_path):
    first, second = _traced_pass(tmp_path), _traced_pass(tmp_path)
    for key in EXACT_COUNTS:
        assert first[key] == second[key] > 0, key
    assert first["transition.rk4_steps"] == 2 * 4 * (3 + 3 + 1)  # seed:5 has N = 1
    assert first["simulate.batch_controls"] == 1 + 2 * 3 + 3  # m N = 3 unknowns


def test_traced_run_reports_every_declared_layer_metric(tmp_path):
    reported = set(_traced_pass(tmp_path)) | {"trace.overhead_frac", "stationarity_residual_max", "oracle.max_rel_diff"}
    assert reported == {m["name"] for m in SPEC["per_layer"]}


def test_missing_hook_leaves_its_metrics_absent(tmp_path):
    hooks = tuple(
        (mod, attr + "_renamed", name, counts) if name == "transition.propagate" else (mod, attr, name, counts)
        for mod, attr, name, counts in HOOKS
    )
    metrics = _traced_pass(tmp_path, hooks)
    assert not any(k.startswith("transition.") for k in metrics)
    assert metrics["blocks.intervals"] > 0


def test_sampler_takes_kernel_time_out_of_an_interval():
    with hostspeed.Sampler() as sampler:
        start = perf_counter()
        while perf_counter() - start < 0.2:
            pass
        end = perf_counter()
    inside = sampler.inside(start, end)
    assert len(inside) >= 3
    mean = statistics.fmean(k for _, k in sampler.inside(start - hostspeed.PAD_S, end + hostspeed.PAD_S))
    work = end - start - sum(k for _, k in inside)
    assert sampler.scaled(start, end) == pytest.approx(work * hostspeed.REFERENCE_NOMINAL_S / mean)
