#!/usr/bin/env python3
"""Effect-size survey for the preprocessing passes.

Runs the pipeline over a fuzz corpus and aggregates, per pass: how
often it changed anything, what it removed, shortened, or added, and
how much wall time it took. Useful for judging whether a pass earns
its place in the default schedule on a given shape of formula.

Example:
    python3 scripts/pass_stats.py --count 2000
    python3 scripts/pass_stats.py --count 500 --max-clauses 20
"""

import argparse
import sys
from collections import Counter

from dqprep import PipelineConfig, Verdict, fuzz, run_pipeline
from dqprep.cli import add_fuzz_arguments, fuzz_bounds
from dqprep.reports import merge_reports


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    add_fuzz_arguments(parser)
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    config = PipelineConfig(passes=args.passes)
    verdicts = {Verdict.SAT: 0, Verdict.UNSAT: 0, Verdict.UNKNOWN: 0}
    reports = []
    for formula in fuzz(args.seed, args.count, fuzz_bounds(args)):
        _, formula_reports, verdict = run_pipeline(config, formula)
        verdicts[verdict] += 1
        reports.extend(formula_reports)
    totals = merge_reports(reports)
    applications = Counter(report.name for report in reports)
    effective = Counter(report.name for report in reports if report.changed)
    print(f"formulas={args.count} seed={args.seed} sat={verdicts[Verdict.SAT]} "
          f"unsat={verdicts[Verdict.UNSAT]} unknown={verdicts[Verdict.UNKNOWN]}")
    header = (f"{'pass':>8} {'runs':>7} {'hits':>7} {'removed':>8} "
              f"{'shorter':>8} {'units':>7} {'equivs':>7} {'confl':>6} {'secs':>8}")
    print(header)
    for name in config.passes:
        if name not in totals:
            continue
        total = totals[name]
        print(f"{name:>8} {applications[name]:>7} {effective[name]:>7} "
              f"{total.clauses_removed:>8} {total.clauses_shortened:>8} "
              f"{total.units_added:>7} {total.equivalences_added:>7} "
              f"{total.conflicts:>6} {total.wall_time:>8.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
