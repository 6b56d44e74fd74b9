"""The original round loop of `run_pipeline`, kept as a reference for the
differential tests of the settled-pass scheduler.

It repeats the whole schedule until one round changes nothing or the
round cap is hit, so its last round only confirms the fixpoint.
"""

from __future__ import annotations

import time

from dqprep import Dqbf, PassReport, PipelineConfig, Verdict
from dqprep.pipeline import _apply_pass, _verify_pass


def reference_run_pipeline(config: PipelineConfig, formula: Dqbf
                           ) -> tuple[Dqbf, list[PassReport], Verdict]:
    """Run the configured passes to a round fixpoint or a verdict."""
    current = formula
    reports: list[PassReport] = []
    for _ in range(config.max_rounds):
        changed = False
        for name in config.passes:
            before = current
            start = time.perf_counter()
            current, report, outcome = _apply_pass(name, current, config)
            report.wall_time = time.perf_counter() - start
            reports.append(report)
            if config.verify:
                _verify_pass(name, before, current, outcome, config)
            if () in current.matrix:
                return Dqbf(current.prefix, ((),)), reports, Verdict.UNSAT
            if not current.matrix:
                return current, reports, Verdict.SAT
            if current != before:
                changed = True
        if not changed:
            break
    return current, reports, Verdict.UNKNOWN
