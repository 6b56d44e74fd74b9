#!/usr/bin/env python3
"""Run every workload several times and print each metric with its
unit, median, quartiles and sample count.

    python3 perfbench/report.py              # 3 seeds per workload
    python3 perfbench/report.py --runs 10

Each untraced run uses another seed (1, 2, ...) and gives one sample of
every end-to-end metric, plus failed_ratio, the failed share of the
instance runs it attempted. One traced run per workload gives the
per-layer metrics. Run lengths come from BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def bench_run(bench: dict, workload: str, seed: int, trace: int) -> dict:
    command = [*bench["command"], "--workload", workload, "--seed", str(seed),
               "--seconds", str(bench["run_seconds"]), "--trace", str(trace)]
    if command[0] == "python3":
        command[0] = sys.executable
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def row(name: str, unit: str, values: list[float]) -> str:
    q1, _, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                 else (values[0],) * 3)
    return (f"  {name:<48} {unit:<6} median {statistics.median(values):<12.6g} "
            f"q1 {q1:<12.6g} q3 {q3:<12.6g} n {len(values)}")


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=3, help="untraced runs per workload")
    args = parser.parse_args(argv)
    all_correct = True
    for workload in (w["name"] for w in bench["workloads"]):
        runs = [bench_run(bench, workload, seed, 0) for seed in range(1, args.runs + 1)]
        traced = bench_run(bench, workload, 1, 1)
        all_correct &= traced["correct"] and all(r["correct"] for r in runs)
        print(f"{workload}: {args.runs} untraced runs, correct "
              f"{[r['correct'] for r in runs]}; traced run correct {traced['correct']}")
        for metric in bench["end_to_end"]:
            name = metric["name"]
            print(row(name, metric["unit"], [r["metrics"][name]["value"] for r in runs]))
        print(row("failed_ratio", "ratio", [r["failed"] / r["attempted"] for r in runs]))
        for metric in bench["per_layer"]:
            name = metric["name"]
            print(row(name, metric["unit"], [traced["metrics"][name]["value"]]))
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
