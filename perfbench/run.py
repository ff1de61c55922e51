"""Benchmark of the sampledlq command line on seeded workloads.

Run from the root of a checkout:

    python3 perfbench/run.py --workload solve-const --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 30 --trace 0

Each op is one in-process call of `sampledlq.cli.main(argv)`, with stdout
captured and `--out` in a temporary directory under `.perfbench_out/`.  Ops
run one at a time: a closed loop with one client.  Every op's output is
checked; a failing op is listed with its argv.

With `--trace 0` the run times whole passes over the workload's op list for
about `--seconds` seconds and reports the end-to-end metrics of
BENCHMARK.json.  Their times are scaled to a nominal host speed (see
hostspeed.py); the raw times are printed next to them.  With `--trace 1` it alternates untraced and traced passes
(see tracer.py) and reports the per-layer metrics.  The last line of stdout
is one JSON object with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import traceback
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"

# One BLAS thread: the matrices are at most 4 x 4, and one thread keeps runs
# on a shared machine comparable.  Set before numpy is first imported.
BLAS_THREADS = 1
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
if __name__ == "__main__":
    os.environ.update({var: str(BLAS_THREADS) for var in BLAS_VARS})

import hostspeed  # noqa: E402  (imports numpy)

SETUP_REPEATS = 7
WARMUP_OPS = 4
COST_REL_TOL = 1e-9     # |predicted - simulated| <= COST_REL_TOL * (1 + |simulated|)
ORACLE_REL_TOL = 1e-6   # the oracle-check disagreement limit of the command line
RESIDUAL_PREFIX = "max sampled-stationarity residual = "


@dataclass
class OpResult:
    seconds: float
    failure: str | None = None       # why the op failed its checks
    residual: float | None = None    # solve: max sampled-stationarity residual
    max_rel_diff: float | None = None  # oracle-check: sweep vs dense QP
    start: float = 0.0
    end: float = 0.0
    scaled: float = 0.0  # seconds without the kernel samples, scaled to the nominal host speed


@dataclass
class Pass:
    results: list
    sampler: hostspeed.Sampler
    layers: dict = field(default_factory=dict)  # per-layer metrics of a traced pass

    @property
    def wall(self) -> float:
        """Scaled wall time of the pass: its ops back to back, without the checks."""
        return sum(r.scaled for r in self.results)

    @property
    def raw_wall(self) -> float:
        return sum(r.seconds for r in self.results)


def _all_finite(x) -> bool:
    if isinstance(x, list):
        return all(_all_finite(v) for v in x)
    return isinstance(x, (int, float)) and math.isfinite(x)


def check_op(kind: str, rc, stdout: str, stderr: str, out_path: Path) -> OpResult:
    """Checks one finished op; `seconds` is filled in by the caller."""
    if rc != 0:
        return OpResult(0.0, f"exit code {rc}: {stderr.strip()[-300:]}")
    try:
        doc = json.loads(out_path.read_text())
        if kind == "solve":
            U = doc["U"]
            predicted, simulated = float(doc["predicted_cost"]), float(doc["simulated_cost"])
        else:
            U = [doc["U_sweep"], doc["U_qp"]]
            rel = float(doc["max_rel_diff"])
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return OpResult(0.0, f"unreadable --out file: {type(exc).__name__}: {exc}")
    if not _all_finite(U):
        return OpResult(0.0, "non-finite U")
    if kind == "oracle":
        if not rel <= ORACLE_REL_TOL:
            return OpResult(0.0, f"oracle max_rel_diff {rel!r} > {ORACLE_REL_TOL}")
        return OpResult(0.0, max_rel_diff=rel)
    gap = abs(predicted - simulated)
    if not gap <= COST_REL_TOL * (1.0 + abs(simulated)):
        return OpResult(0.0, f"|predicted - simulated cost| = {gap!r}")
    lines = [ln for ln in stdout.splitlines() if ln.startswith(RESIDUAL_PREFIX)]
    if len(lines) != 1:
        return OpResult(0.0, "no stationarity residual line in stdout")
    return OpResult(0.0, residual=float(lines[0][len(RESIDUAL_PREFIX):]))


def run_op(cli, op, out_path: Path, tracer=None) -> OpResult:
    """One in-process CLI call, timed, then checked outside the timed region."""
    argv = [*op.argv, "--out", str(out_path)]
    out_path.unlink(missing_ok=True)
    stdout, stderr = io.StringIO(), io.StringIO()
    crash = None
    root = tracer.begin_op(len(tracer.counts)) if tracer else None
    start = perf_counter()
    try:
        with redirect_stdout(stdout), redirect_stderr(stderr):
            rc = cli.main(argv)
    except SystemExit as exc:  # argparse rejected the argv
        rc = exc.code
    except Exception:  # a defect in the library: record it and keep going
        rc, crash = None, traceback.format_exc()
    end = perf_counter()
    if tracer:
        tracer.end_op(root)
    if crash is not None:
        result = OpResult(0.0, f"uncaught exception:\n{crash}")
    else:
        result = check_op(op.kind, rc, stdout.getvalue(), stderr.getvalue(), out_path)
    result.seconds, result.start, result.end = end - start, start, end
    return result


def run_pass(cli, ops, out_path: Path, tracer=None) -> Pass:
    """Runs every op once with the host-speed sampler on."""
    with hostspeed.Sampler() as sampler:
        results = [run_op(cli, op, out_path, tracer) for op in ops]
    for r in results:
        r.scaled = sampler.scaled(r.start, r.end)
    return Pass(results, sampler)


def measure_setup(workload: str, seed: int) -> tuple:
    """Medians over fresh interpreters of import sampledlq + build the op list: (scaled, raw) seconds."""
    scaled, raw = [], []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed)],
            capture_output=True, text=True, timeout=120, check=True,
        )
        s, r = (float(v) for v in proc.stdout.split()[-2:])
        scaled.append(s)
        raw.append(r)
    return statistics.median(scaled), statistics.median(raw)


def _median_layers(passes) -> dict:
    keys = set().union(*(p.layers for p in passes))
    return {k: statistics.median(p.layers[k] for p in passes if k in p.layers) for k in sorted(keys)}


def run_workload(lib, workload: str, seed: int, seconds: float, trace: bool) -> dict:
    cli, workloads, Tracer = lib
    ops = workloads.build_ops(workload, seed)
    setup_s, raw_setup_s = (None, None) if trace else measure_setup(workload, seed)
    tracer = Tracer() if trace else None
    passes = []
    OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as tmp:
        out_path = Path(tmp) / "out.json"
        warmup = [run_op(cli, op, out_path) for op in ops[:WARMUP_OPS]]
        start = perf_counter()
        while True:
            traced = trace and len(passes) % 2 == 1
            if traced:
                mark = tracer.mark()
                tracer.install()
                try:
                    p = run_pass(cli, ops, out_path, tracer)
                finally:
                    tracer.uninstall()
                p.layers = tracer.layer_metrics(mark, p.sampler)
            else:
                p = run_pass(cli, ops, out_path)
            passes.append(p)
            if len(passes) >= (2 if trace else 1) and perf_counter() - start + p.raw_wall > seconds:
                break

    indexed = list(enumerate(warmup)) + [(i, r) for p in passes for i, r in enumerate(p.results)]
    results = [r for _, r in indexed]
    failures = {}
    for i, r in indexed:
        if r.failure is not None:
            failures.setdefault(i, r.failure)
    failed = sum(r.failure is not None for r in results)
    residuals = [r.residual for r in results if r.residual is not None]
    rel_diffs = [r.max_rel_diff for r in results if r.max_rel_diff is not None]
    kernels = [k for p in passes for k in p.sampler.kernels]
    notes = [f"workload {workload}  seed {seed}  ops/pass {len(ops)}",
             "pass walls, scaled (raw) s: "
             + "  ".join(f"{p.wall:.3f} ({p.raw_wall:.3f}){' traced' if p.layers else ''}" for p in passes),
             f"reference kernel mean {statistics.fmean(kernels) * 1e3:.4f} ms over {len(kernels)} samples,"
             f" nominal {hostspeed.REFERENCE_NOMINAL_S * 1e3:.4f} ms"]
    for i, reason in sorted(failures.items()):
        notes.append(f"FAILED op {i}: {reason}\n    sampledlq {' '.join(ops[i].argv)}")

    if trace:
        traced, untraced = passes[1::2], passes[0::2]
        metrics = _median_layers(traced)
        metrics["trace.overhead_frac"] = (
            statistics.median(p.wall for p in traced) / statistics.median(p.wall for p in untraced) - 1.0
        )
        metrics["stationarity_residual_max"] = max(residuals, default=0.0)
        metrics["oracle.max_rel_diff"] = max(rel_diffs, default=0.0)
        if tracer.missing:
            notes.append(f"hooks not found, their metrics are absent: {', '.join(sorted(tracer.missing))}")
        spans_path = OUT_DIR / f"spans-{workload}-seed{seed}.json"
        tracer.write(spans_path)
        notes.append(f"spans written to {spans_path.relative_to(ROOT)}")
    else:
        latencies_ms = [1e3 * r.scaled for p in passes for r in p.results]
        raw_ms = [1e3 * r.seconds for p in passes for r in p.results]
        deciles = statistics.quantiles(latencies_ms, n=10)
        metrics = {
            "wall_s": statistics.median(p.wall for p in passes),
            "op_p50_ms": statistics.median(latencies_ms),
            "op_p90_ms": deciles[8],
            "setup_s": setup_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        notes.append(f"failed_frac {failed / len(results):.6g} ratio  ({failed} of {len(results)} ops)")
        if residuals:
            notes.append(f"stationarity_residual_max {max(residuals):.6g} 1")
        notes.append(f"latency samples {len(latencies_ms)} (p90 has {len(latencies_ms) // 10} beyond it)")
        notes.append(f"raw: wall {statistics.median(p.raw_wall for p in passes):.6g} s  op_p50"
                     f" {statistics.median(raw_ms):.6g} ms  op_p90 {statistics.quantiles(raw_ms, n=10)[8]:.6g} ms"
                     f"  setup {raw_setup_s:.6g} s")
    return {"correct": failed == 0, "attempted": len(results), "failed": failed, "metrics": metrics, "notes": notes}


def _environment() -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "blas_threads": BLAS_THREADS,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def _load_library():
    """Import sampledlq from this checkout's src/ and the benchmark's own modules."""
    sys.path.insert(0, str(SRC))
    import sampledlq.cli

    if not Path(sampledlq.cli.__file__).resolve().is_relative_to(SRC.resolve()):
        raise ImportError(f"sampledlq was imported from {sampledlq.cli.__file__}, not from {SRC}")
    import workloads
    from tracer import Tracer

    return sampledlq.cli, workloads, Tracer


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["solve-const", "solve-timevarying", "oracle-random", "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        lib = _load_library()
    except (OSError, ValueError, ImportError) as exc:
        print(f"error: cannot set up the benchmark: {exc}", file=sys.stderr)
        return 2
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}

    print("environment " + json.dumps(_environment()))
    names = lib[1].WORKLOADS if args.workload == "all" else (args.workload,)
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        res = run_workload(lib, name, args.seed, args.seconds, bool(args.trace))
        for note in res["notes"]:
            print(note)
        absent = [m for m in units if m not in res["metrics"]]
        if absent:
            print(f"absent metrics: {', '.join(absent)}")
        for metric, unit in units.items():
            if metric in res["metrics"]:
                value = res["metrics"][metric]
                label = " (computed)" if metric in lib[2].COMPUTED else ""
                print(f"  {metric:32s} {value:.6g} {unit}{label}")
                key = metric if len(names) == 1 else f"{name}.{metric}"
                summary["metrics"][key] = {"value": value, "unit": unit}
        summary["correct"] = summary["correct"] and res["correct"]
        summary["attempted"] += res["attempted"]
        summary["failed"] += res["failed"]
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
