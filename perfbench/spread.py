"""Run the benchmark over several seeds and report each metric's median and spread.

    python3 perfbench/spread.py --workloads solve-const oracle-random --seeds 0 1 2 3 4 --seconds 30

Runs `run.py` once per (workload, seed), one run at a time, and prints per
workload and end-to-end metric the median, the quartiles and the quartile
spread (q3 - q1) / median, next to the bound of BENCHMARK.json.  With
`--json PATH` the summary is also written to PATH.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--seeds", nargs="+", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--json", help="also write the summary to this file")
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    summary = {}
    for workload in args.workloads:
        runs = [run_once(workload, seed, args.seconds, 0) for seed in args.seeds]
        summary[workload] = {"seeds": args.seeds, "failed": sum(r["failed"] for r in runs),
                             "correct": all(r["correct"] for r in runs), "metrics": {}}
        print(f"{workload}: correct={summary[workload]['correct']} failed={summary[workload]['failed']}")
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in runs]
            q1, median, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / statistics.median(values)
            summary[workload]["metrics"][name] = {
                "median": statistics.median(values), "q1": q1, "q3": q3, "spread": spread, "values": values,
            }
            flag = "ok" if spread < bound / 3 else ("WITHIN BOUND" if spread <= bound else "OVER BOUND")
            print(f"  {name:14s} median {statistics.median(values):<12.6g} spread {spread:7.4f}"
                  f"  bound {bound}  {flag}")
    if args.json:
        Path(args.json).write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
