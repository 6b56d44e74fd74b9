#!/usr/bin/env python3
"""Smoke check of the benchmark itself.

    python3 perfbench/selfcheck.py

Runs every workload on a few instances, one pass each, untraced and
traced, and checks that each run emits exactly the metrics
BENCHMARK.json names with their units, that no instance failed, and that
the run is correct, which includes the traced outputs hashing equal to
the untraced ones and every traced name being restored. The traced runs
are also held to predictions.json: a layer predicted to be exercised on
a workload shows calls there, and one predicted to be bypassed shows
none. Takes about half a minute.
"""

from __future__ import annotations

import json
import sys

import run

SMOKE_INSTANCES = {"probe-heavy": 2, "chain-up": 1, "verify-fuzz": 40}


def main() -> int:
    bench = json.loads((run.HERE.parent / "BENCHMARK.json").read_text())
    predictions = json.loads((run.HERE / "predictions.json").read_text())["predictions"]
    problems = []
    for workload, limit in SMOKE_INSTANCES.items():
        for trace, declared in ((False, bench["end_to_end"]), (True, bench["per_layer"])):
            result = run.run(workload, seed=0, seconds=0, trace=trace,
                             limit=limit, minimum=1)
            label = f"{workload} trace={int(trace)}"
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            want = {m["name"]: m["unit"] for m in declared}
            if got != want:
                problems.append(f"{label}: metrics differ from BENCHMARK.json: "
                                f"{sorted(set(got.items()) ^ set(want.items()))}")
            if result["failed"] or not result["correct"]:
                problems.append(f"{label}: {result['failed']} of "
                                f"{result['attempted']} failed, correct={result['correct']}")
            if not trace:
                continue
            values = {name: m["value"] for name, m in result["metrics"].items()}
            for prediction in predictions:
                calls = [values[m] for m in prediction["metrics"] if m.endswith(".calls")]
                if workload in prediction["on"] and not all(calls):
                    problems.append(f"{label}: {prediction['metrics']} predicted "
                                    f"exercised, calls {calls}")
                if workload in prediction["zero_on"] and any(calls):
                    problems.append(f"{label}: {prediction['metrics']} predicted "
                                    f"bypassed, calls {calls}")
    for problem in problems:
        print(f"SELFCHECK FAILED {problem}")
    print("selfcheck:", "FAILED" if problems else "ok")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
