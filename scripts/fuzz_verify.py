#!/usr/bin/env python3
"""Differential soundness experiment.

Runs the full pipeline over a stream of random formulas and checks
every verdict against the brute-force oracle: SAT/UNSAT verdicts must
match the oracle exactly, UNKNOWN outputs must be equi-satisfiable
with their inputs. Instances whose candidate space exceeds the oracle
budget are counted and skipped, never judged. Each formula first goes
through its DQDIMACS text, emitted and parsed back, which must give
the same formula; the pipeline runs on the parsed one. The same text
rendered irregularly (see `irregular`) must parse to the same formula
too.

Example:
    python3 scripts/fuzz_verify.py --count 2000 --seed 11
    python3 scripts/fuzz_verify.py --count 500 --passes ur,up,vivify
"""

import argparse
import sys
import time

from dqprep import (BudgetError, PipelineConfig, Verdict, emit_dqdimacs,
                    equisatisfiable, fuzz, parse_dqdimacs, run_pipeline,
                    solve_brute)
from dqprep.cli import add_fuzz_arguments, fuzz_bounds


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    add_fuzz_arguments(parser)
    return parser.parse_args(argv)


def irregular(text):
    """The emitted DQDIMACS `text` in a shape the parser must read line by
    line: a comment holding '_' and a non-ASCII digit after the header,
    CRLF line ends, the first clause split before its 0, and the clause
    after it on the line where the first one ends."""
    lines = text.splitlines()
    first = next((i for i, line in enumerate(lines) if line[0] not in "pade"),
                 len(lines))
    if first < len(lines):
        *literals, _ = lines[first].split()
        lines[first:first + 2] = [" ".join(literals),
                                  " ".join(["0", *lines[first + 1:first + 2]])]
    lines.insert(1, "c made_by fuzz_verify \u0663")
    return "\r\n".join(lines) + "\r\n"


def main(argv=None):
    args = parse_args(argv)
    config = PipelineConfig(passes=args.passes)
    counts = {Verdict.SAT: 0, Verdict.UNSAT: 0, Verdict.UNKNOWN: 0}
    skipped = 0
    mismatches = 0
    start = time.perf_counter()
    formulas = fuzz(args.seed, args.count, fuzz_bounds(args))
    for index, formula in enumerate(formulas):
        text = emit_dqdimacs(formula)
        parsed = [parse_dqdimacs(text), parse_dqdimacs(irregular(text))]
        if any(p.formula != formula or p.diagnostics for p in parsed):
            mismatches += 1
            print(f"instance {index}: DQDIMACS round trip changed the formula",
                  file=sys.stderr)
        formula = parsed[0].formula
        out, _, verdict = run_pipeline(config, formula)
        counts[verdict] += 1
        try:
            satisfiable = solve_brute(formula).satisfiable
            if verdict is Verdict.SAT and not satisfiable:
                raise AssertionError("SAT verdict on unsatisfiable input")
            if verdict is Verdict.UNSAT and satisfiable:
                raise AssertionError("UNSAT verdict on satisfiable input")
            if verdict is Verdict.UNKNOWN and not equisatisfiable(formula, out):
                raise AssertionError("UNKNOWN output not equi-satisfiable")
        except BudgetError:
            skipped += 1
        except AssertionError as exc:
            mismatches += 1
            print(f"instance {index}: {exc}", file=sys.stderr)
    elapsed = time.perf_counter() - start
    print(f"formulas={args.count} seed={args.seed} elapsed={elapsed:.2f}s")
    print(f"sat={counts[Verdict.SAT]} unsat={counts[Verdict.UNSAT]} "
          f"unknown={counts[Verdict.UNKNOWN]} skipped={skipped}")
    if mismatches:
        print(f"FAIL: {mismatches} oracle or round-trip mismatches",
              file=sys.stderr)
        return 1
    print("all round trips agree and all verdicts agree with the oracle")
    return 0


if __name__ == "__main__":
    sys.exit(main())
