#!/usr/bin/env python3
"""dqprep benchmark: the path a command-line user pays for,
``parse_dqdimacs`` -> ``run_pipeline`` -> ``emit_dqdimacs``, over a
seeded corpus of DQDIMACS texts.

    python3 perfbench/run.py --workload probe-heavy --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the package is imported from ``src/``.
A run sets up SETUP_REPEATS times (a fresh import of the package plus
generation of the corpus, in the order the seed gives) and reports the
median.
Then it processes the whole corpus in passes until ``--seconds`` are
used, with at least MIN_PASSES passes (MIN_PAIRS pairs when traced). A
corpus time is the sum over instances of each instance's median time
across passes, which keeps a burst of machine noise in one pass out of
the result. Times are scaled to the speed of a reference machine; see
``calibration_seconds``. Before them, an untimed pass under tracemalloc
over a few instances gives the memory the program allocates; it counts
against ``--seconds``.

With ``--trace 0`` the end-to-end metrics are reported. With
``--trace 1`` untraced and traced passes alternate; the traced ones give
the per-layer metrics (see tracing.py), the untraced ones the per-pass
figures from the PassReports the pipeline returns, and the difference
between the two is the tracing overhead.

Every output is checked: its verdict and the SHA-256 of its DQDIMACS
text against reference.json, which holds them for every corpus
instance as produced by the commit that introduced the benchmark; on
chain-up the output clauses against those the generator predicts; on
verify-fuzz every verdict against the oracle's independent
expansion+DPLL route (``solve_expansion``), outside the timed region. An
instance run fails on any mismatch or exception, VerificationError
included. The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import logging
import random
import statistics
import sys
import tracemalloc
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import corpus
import tracing

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
REFERENCE = HERE / "reference.json"

SETUP_REPEATS = 7
MIN_PASSES = 3   # untraced passes with --trace 0
MIN_PAIRS = 2    # untraced and traced pass pairs with --trace 1
PASS_NAMES = ("ur", "up", "upla", "vivify", "dqrat")
PASS_COUNTERS = ("clauses_removed", "clauses_shortened", "units_added",
                 "equivalences_added", "conflicts")


# On a shared machine the interpreter's speed swings by tens of percent
# from one second to the next, and a slow spell can last minutes: ten
# runs of one corpus took 5.8 to 10.3 s. Every timing is therefore
# scaled by the speed of a fixed pure-Python loop measured just before
# and just after it, to seconds at the speed of the machine the
# benchmark was defined on. The loop does what the program mostly does
# (build, sort and hash small tuples, look up dicts and sets), and runs
# with the garbage collector off so that the program's heap cannot slow
# it down. A calibration covers at most SCALE_WINDOW_S of work, so
# instances are kept short.
CALIBRATION_REF_S = 0.0011  # calibration_seconds() there, a 2-core x86-64 VM
SCALE_WINDOW_S = 0.25        # timed work between two calibrations
_rng = random.Random(0)
_CALIBRATION_CLAUSES = [tuple(_rng.sample(range(1, 400), 4)) for _ in range(600)]
del _rng


def calibration_seconds() -> float:
    """Median time of five runs of the calibration loop."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        times = []
        for _ in range(5):
            start = perf_counter()
            seen: set[tuple[int, ...]] = set()
            occurrences: dict[int, int] = {}
            for clause in _CALIBRATION_CLAUSES:
                canon = tuple(sorted(set(clause), key=lambda lit: (abs(lit), lit < 0)))
                if canon not in seen:
                    seen.add(canon)
                    for lit in canon:
                        occurrences[lit] = occurrences.get(lit, 0) + 1
            times.append(perf_counter() - start)
    finally:
        if enabled:
            gc.enable()
    return statistics.median(times)


def scaled(seconds: float, before: float, after: float) -> float:
    """Seconds at reference speed, given the calibration times around them."""
    return seconds * CALIBRATION_REF_S * 2 / (before + after)


class Unavailable(Exception):
    """The package cannot be imported from the checkout's src/."""


def import_package():
    """Import dqprep afresh from src/, dropping any copy already loaded."""
    for name in [n for n in sys.modules if n == "dqprep" or n.startswith("dqprep.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    try:
        package = importlib.import_module("dqprep")
    except ImportError as exc:
        raise Unavailable(f"cannot import dqprep from {SRC}: {exc}") from exc
    if Path(package.__file__).resolve().parent != SRC / "dqprep":
        raise Unavailable(f"dqprep was imported from {package.__file__}, not {SRC}")
    return package


def set_up(workload: corpus.Workload, seed: int, limit: int | None):
    before = calibration_seconds()
    start = perf_counter()
    package = import_package()
    instances = [corpus.instance(workload, index)
                 for index in corpus.order(workload, seed)[:limit]]
    took = perf_counter() - start
    return scaled(took, before, calibration_seconds()), package, instances


def pipeline_config(package, workload: corpus.Workload):
    if workload.passes is None:
        return package.PipelineConfig(verify=workload.verify)
    return package.PipelineConfig(passes=workload.passes, verify=workload.verify)


def clauses_of(text: str) -> list[list[int]]:
    """Clauses of emitted DQDIMACS (one clause per line after the prefix)."""
    return [[int(t) for t in line.split()[:-1]] for line in text.splitlines()
            if line and line[0] not in "pade"]


@dataclass
class Pass:
    """One pass over the corpus; lists are indexed by corpus position."""

    raw_seconds: list[float] = field(default_factory=list)
    seconds: list[float] = field(default_factory=list)  # scaled
    verdicts: list[str | None] = field(default_factory=list)
    hashes: list[str | None] = field(default_factory=list)
    outputs: list[str | None] = field(default_factory=list)
    reports: list[list] = field(default_factory=list)
    errors: dict[int, str] = field(default_factory=dict)


def corpus_pass(package, config, instances, keep=True) -> Pass:
    """Process the corpus once. Outputs and PassReports are kept only if
    `keep`, so that the passes a run repeats do not add to its peak
    memory."""
    done = Pass()
    before = calibration_seconds()
    window = 0.0  # raw seconds timed since `before` was measured
    for position, inst in enumerate(instances):
        start = perf_counter()
        try:
            parsed = package.parse_dqdimacs(inst.text)
            result, reports, verdict = package.run_pipeline(config, parsed.formula)
            output = package.emit_dqdimacs(result)
        except Exception as exc:  # a failing instance is counted, not fatal
            done.raw_seconds.append(perf_counter() - start)
            done.errors[position] = f"{type(exc).__name__}: {exc}"
            output, verdict, reports = None, None, []
        else:
            done.raw_seconds.append(perf_counter() - start)
        window += done.raw_seconds[-1]
        if window >= SCALE_WINDOW_S or position == len(instances) - 1:
            after = calibration_seconds()
            done.seconds.extend(scaled(raw, before, after)
                                for raw in done.raw_seconds[len(done.seconds):])
            before, window = after, 0.0
        done.verdicts.append(None if verdict is None else verdict.value)
        done.hashes.append(None if output is None
                           else hashlib.sha256(output.encode()).hexdigest())
        if keep:
            done.outputs.append(output)
            done.reports.append(reports)
    return done


def peak_allocation_mib(package, config, instances) -> float:
    """Largest peak of memory, in MiB, that processing one instance
    allocates on top of what was allocated before it, as tracemalloc
    counts it. The pass is untimed; an instance that raises is left out,
    since the timed passes count it as failed."""
    peaks = []
    tracemalloc.start()
    try:
        for inst in instances:
            gc.collect()
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            try:
                parsed = package.parse_dqdimacs(inst.text)
                result, _, _ = package.run_pipeline(config, parsed.formula)
                package.emit_dqdimacs(result)
            except Exception:
                continue
            peaks.append(tracemalloc.get_traced_memory()[1] - base)
    finally:
        tracemalloc.stop()
    return max(peaks, default=0) / 2**20


def repeat(seconds: float, minimum: int, unit):
    """Call unit(0), unit(1), ... at least `minimum` times, and again while
    another call as long as the last one still fits in `seconds`."""
    results = []
    start = perf_counter()
    while True:
        gc.collect()
        before = perf_counter()
        results.append(unit(len(results)))
        now = perf_counter()
        if len(results) >= minimum and (now - start) + (now - before) > seconds:
            return results


def corpus_seconds(passes: list[Pass], scale: bool = True) -> tuple[float, list[float]]:
    """Sum over instances of each instance's median time across passes,
    scaled to reference speed or not, and the medians themselves."""
    per_instance = [statistics.median(times) for times in
                    zip(*(p.seconds if scale else p.raw_seconds for p in passes))]
    return sum(per_instance), per_instance


def independent_failures(package, workload, instances, first: Pass) -> dict[int, str]:
    """Positions whose output fails a check independent of the pipeline:
    the clauses the generator predicts, or the verdict of the expansion
    solver (for an undecided output, that it keeps the input's verdict)."""
    failures = {}
    for position, inst in enumerate(instances):
        output, verdict = first.outputs[position], first.verdicts[position]
        if output is None:
            continue
        if inst.expected is not None:
            got = {frozenset(c) for c in clauses_of(output)}
            if verdict != "unknown" or got != inst.expected:
                failures[position] = "output clauses differ from the generator's"
        if workload.verify:
            before = package.solve_expansion(
                package.parse_dqdimacs(inst.text).formula).satisfiable
            if verdict == "unknown":
                after = package.solve_expansion(
                    package.parse_dqdimacs(output).formula).satisfiable
                ok = after == before
            else:
                ok = before == (verdict == "sat")
            if not ok:
                failures[position] = f"verdict {verdict} disagrees with solve_expansion"
    return failures


def count_failures(instances, reference, passes, independent) -> tuple[int, list[str]]:
    failed, messages = 0, []
    for number, done in enumerate(passes):
        for position, inst in enumerate(instances):
            ref_verdict, ref_hash = reference[inst.index][-2:]
            if position in done.errors:
                why = done.errors[position]
            elif (done.verdicts[position], done.hashes[position]) != (ref_verdict, ref_hash):
                why = (f"verdict {done.verdicts[position]} / output "
                       f"{done.hashes[position][:12]}, reference {ref_verdict} / "
                       f"{ref_hash[:12]}")
            elif position in independent:
                why = independent[position]
            else:
                continue
            failed += 1
            messages.append(f"pass {number} instance {inst.index}: {why}")
    return failed, messages


def quantile(values: list[float], q: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(passes, setup, peak_mib) -> dict[str, tuple[float, str]]:
    wall, per_instance = corpus_seconds(passes)
    outputs = [c for text in passes[0].outputs if text is not None
               for c in clauses_of(text)]
    return {
        "wall_s": (wall, "s"),
        "instance_ms.p50": (quantile(per_instance, 50) * 1000, "ms"),
        "instance_ms.p99": (quantile(per_instance, 99) * 1000, "ms"),
        "output_clauses": (len(outputs), "count"),
        "output_literals": (sum(map(len, outputs)), "count"),
        "peak_alloc_mib": (peak_mib, "MiB"),
        "setup_s": (statistics.median(setup), "s"),
    }


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def pass_figures(done: Pass, first_pass: str) -> dict[str, float]:
    figures = {"pipeline.rounds": 0}
    for name in PASS_NAMES:
        figures[f"pass.{name}.runs"] = 0
        figures[f"pass.{name}.s"] = 0.0
        for counter in PASS_COUNTERS:
            figures[f"pass.{name}.{counter}"] = 0
    for reports in done.reports:
        for report in reports:
            figures[f"pass.{report.name}.runs"] += 1
            figures[f"pass.{report.name}.s"] += report.wall_time
            for counter in PASS_COUNTERS:
                figures[f"pass.{report.name}.{counter}"] += getattr(report, counter)
            figures["pipeline.rounds"] += report.name == first_pass
    return figures


def layer_figures(calls, self_s, counts) -> dict[str, float]:
    figures = {}
    for name in dict.fromkeys(target[0] for target in tracing.TARGETS):
        figures[f"{name}.calls"] = calls[name]
        figures[f"{name}.self_s"] = self_s.get(name, 0.0)
    for name in ("formula.dqbf_init.clauses", "propagation.unit_propagate.steps",
                 "dqdimacs.parse.bytes", "dqdimacs.emit.bytes"):
        figures[name] = counts[name]
    figures["propagation.unit_propagate.conflict_ratio"] = _ratio(
        counts["propagation.unit_propagate.conflicts"], calls["propagation.unit_propagate"])
    figures["techniques.vivify_clause.hit_ratio"] = _ratio(
        counts["techniques.vivify_clause.hits"], calls["techniques.vivify_clause"])
    figures["techniques.dqrat_plus_check.accept_ratio"] = _ratio(
        counts["techniques.dqrat_plus_check.accepts"], calls["techniques.dqrat_plus_check"])
    skips = counts["oracle.raised.BudgetError"]
    figures["oracle.budget_skips"] = skips
    figures["oracle.checked_ratio"] = _ratio(calls["oracle"] - skips, calls["oracle"])
    figures["trace.spans"] = sum(calls.values())
    return figures


def unit_of(name: str) -> str:
    last = name.rsplit(".", 1)[-1]
    if last == "s" or last.endswith("_s"):
        return "s"
    if last.endswith("ratio"):
        return "ratio"
    return "bytes" if last == "bytes" else "count"


def per_layer(untraced, traced, summaries, first_pass) -> dict[str, tuple[float, str]]:
    rows = [pass_figures(done, first_pass) | layer_figures(*summary)
            for done, summary in zip(untraced, summaries)]
    metrics = {}
    for name in rows[0]:
        unit = unit_of(name)
        # counts repeat exactly, so a count is reported as one of the values read
        middle = statistics.median if unit in ("s", "ratio") else statistics.median_low
        metrics[name] = (middle([row[name] for row in rows]), unit)
    # unscaled, like the self times it accounts for
    overhead = corpus_seconds(traced, scale=False)[0] - corpus_seconds(untraced, scale=False)[0]
    metrics["trace.overhead_s"] = (overhead, "s")
    return metrics


def run(workload_name: str, seed: int, seconds: float, trace: bool,
        limit: int | None = None, minimum: int | None = None) -> dict:
    """One benchmark run; returns the result object. `limit` and
    `minimum` shrink it to a smoke test."""
    workload = corpus.WORKLOADS[workload_name]
    reference = json.loads(REFERENCE.read_text())[workload.name]["instances"]
    logger = logging.getLogger("dqprep")
    if not logger.handlers:
        # budget skips are logged as warnings; keep them off stderr
        logger.addHandler(logging.NullHandler())
    setup = []
    for _ in range(SETUP_REPEATS):
        took, package, instances = set_up(workload, seed, limit)
        setup.append(took)
    config = pipeline_config(package, workload)
    first_pass = config.passes[0]

    restored = True
    if trace:
        tracer = tracing.Tracer()

        def untraced_pass():
            return corpus_pass(package, config, instances)

        def traced_pass():
            with tracer.installed():
                return corpus_pass(package, config, instances, keep=False)

        order = []

        def pair(_):
            # alternate which of the two runs first, so that neither
            # always meets a warmer or a colder machine
            order.append(len(order) % 2)
            first = (traced_pass if order[-1] else untraced_pass)()
            gc.collect()
            second = (untraced_pass if order[-1] else traced_pass)()
            plain, traced = (second, first) if order[-1] else (first, second)
            return plain, traced, tracer.summary(), tracer.restored()

        pairs = repeat(seconds, minimum or MIN_PAIRS, pair)
        untraced = [p[0] for p in pairs]
        traced = [p[1] for p in pairs]
        restored = all(p[3] for p in pairs)
        metrics = per_layer(untraced, traced, [p[2] for p in pairs], first_pass)
    else:
        start = perf_counter()
        sample = sorted(instances, key=lambda inst: inst.index)[:workload.memory_sample]
        peak_mib = peak_allocation_mib(package, config, sample)
        untraced = repeat(seconds - (perf_counter() - start), minimum or MIN_PASSES,
                          lambda number: corpus_pass(package, config, instances,
                                                     keep=number == 0))
        traced = []
        metrics = end_to_end(untraced, setup, peak_mib)

    passes = untraced + traced
    independent = independent_failures(package, workload, instances, untraced[0])
    failed, messages = count_failures(instances, reference, passes, independent)
    for message in messages[:20]:
        print(f"FAILED {message}", file=sys.stderr)
    same_hashes = all(p.hashes == untraced[0].hashes for p in passes)
    n, k = len(instances), len(untraced)
    print(f"# {workload.name} seed {seed}: {n} instances, {k} untraced"
          f"{f' and {len(traced)} traced' if trace else ''} passes; "
          f"{failed} of {len(passes) * n} instance runs failed; "
          f"outputs {'identical' if same_hashes else 'DIFFERENT'} in every pass; "
          f"originals {'restored' if restored else 'NOT RESTORED'}")
    raw = corpus_seconds(untraced, scale=False)[0]
    print(f"# times in seconds at reference speed; unscaled corpus time {raw} s")
    if not trace:
        print(f"# instance_ms over {n} instances, each the median of {k} passes")
    for name, (value, unit) in metrics.items():
        print(f"# {name} {value} {unit}")
    return {
        "correct": failed == 0 and same_hashes and restored,
        "attempted": len(passes) * n,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(corpus.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except Unavailable as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
