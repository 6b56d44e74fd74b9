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

As many formulas again come from `unsat_by_dependency`, a family that
is unsatisfiable only because of a dependency set: random formulas are
almost never unsatisfiable when they reach `dqrat`, so only this family
shows an unsound clause deletion. It takes `--seed` and `--passes` but
not the bounds.

Example:
    python3 scripts/fuzz_verify.py --count 2000 --seed 11
    python3 scripts/fuzz_verify.py --count 500 --passes ur,up,vivify
"""

import argparse
import random
import sys
import time
from collections import Counter

from dqprep import (BudgetError, Dqbf, PipelineConfig, Prefix, Verdict,
                    emit_dqdimacs, equisatisfiable, fuzz, parse_dqdimacs,
                    run_pipeline, solve_brute)
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


def unsat_by_dependency(seed, count):
    """`count` formulas that are unsatisfiable because of a dependency
    set. A chain of Tseitin XOR gates combines 2 or 3 universals, each
    gate an existential that depends on the universals it combines, and
    the existential y equals the last gate or its negation: so y must
    vary with every universal, but deps(y) misses one. Up to 3 noise
    clauses of 1 to 3 random literals go in among the gate clauses."""
    rng = random.Random(seed)
    for _ in range(count):
        inputs = list(range(1, rng.randint(2, 3) + 1))
        rng.shuffle(inputs)
        existentials = {}
        clauses = []
        last = inputs[0]
        for index, universal in enumerate(inputs[1:], 2):
            gate = len(inputs) + len(existentials) + 1
            existentials[gate] = frozenset(inputs[:index])
            clauses += [(-gate, last, universal), (-gate, -last, -universal),
                        (gate, -last, universal), (gate, last, -universal)]
            last = gate
        y = last + 1
        existentials[y] = frozenset(inputs) - {rng.choice(inputs)}
        last *= rng.choice((1, -1))
        clauses += [(-y, last), (y, -last)]
        for _ in range(rng.randint(0, 3)):
            noise = [rng.randint(1, y) * rng.choice((1, -1))
                     for _ in range(rng.randint(1, 3))]
            clauses.insert(rng.randint(0, len(clauses)), noise)
        # Dqbf drops a tautological noise clause and merges repeats
        yield Dqbf(Prefix(frozenset(inputs), existentials), tuple(clauses))


def judge(config, formula, counts):
    """Run the pipeline on `formula` and count its verdict in `counts`:
    how the verdict contradicts the oracle, or None. A formula beyond
    the oracle budget is counted as skipped."""
    out, _, verdict = run_pipeline(config, formula)
    counts[verdict] += 1
    try:
        satisfiable = solve_brute(formula).satisfiable
    except BudgetError:
        counts["skipped"] += 1
        return None
    if verdict is Verdict.SAT and not satisfiable:
        return "SAT verdict on unsatisfiable input"
    if verdict is Verdict.UNSAT and satisfiable:
        return "UNSAT verdict on satisfiable input"
    if verdict is Verdict.UNKNOWN and not equisatisfiable(formula, out):
        return "UNKNOWN output not equi-satisfiable"
    return None


def summary(counts):
    return (f"sat={counts[Verdict.SAT]} unsat={counts[Verdict.UNSAT]} "
            f"unknown={counts[Verdict.UNKNOWN]} skipped={counts['skipped']}")


def main(argv=None):
    args = parse_args(argv)
    config = PipelineConfig(passes=args.passes)
    counts = Counter()
    family_counts = Counter()
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
        error = judge(config, parsed[0].formula, counts)
        if error:
            mismatches += 1
            print(f"instance {index}: {error}", file=sys.stderr)
    for index, formula in enumerate(unsat_by_dependency(args.seed, args.count)):
        error = judge(config, formula, family_counts)
        if error:
            mismatches += 1
            print(f"unsat-by-dependency instance {index}: {error}",
                  file=sys.stderr)
    elapsed = time.perf_counter() - start
    print(f"formulas={args.count} seed={args.seed} elapsed={elapsed:.2f}s")
    print(summary(counts))
    print(f"unsat-by-dependency: {summary(family_counts)}")
    if mismatches:
        print(f"FAIL: {mismatches} oracle or round-trip mismatches",
              file=sys.stderr)
        return 1
    print("all round trips agree and all verdicts agree with the oracle")
    return 0


if __name__ == "__main__":
    sys.exit(main())
