"""Pass scheduling, oracle-backed verification, and a formula fuzzer.

The pipeline applies a configured sequence of passes round after round,
for at most `max_rounds` rounds. It keeps the set of passes proven to
return the current formula unchanged (see `_settled_after`), skips a
pass of that set when its turn comes, and stops as soon as every
scheduled pass is in it, which may be mid-round. The skipped
applications are exactly those that would return their input, so the
formulas the run goes through, its output and its verdict are those of
repeating the schedule until a whole round changes nothing. Deriving
the empty clause settles the formula as unsatisfiable (the output is
normalized to exactly one empty clause so it stays emittable); an empty
matrix settles it as satisfiable. In verify mode every pass application
that runs is cross-checked against the semantic oracle, with budget
overruns logged and skipped rather than silently ignored; its report
counts it as checked or skipped. A pass the scheduler skips has
nothing to check.
"""

from __future__ import annotations

import enum
import logging
import random
import time
from collections.abc import Iterator
from dataclasses import astuple, dataclass

from . import oracle
from .dqdimacs import emit_dqdimacs
from .errors import BudgetError, ContractViolation, VerificationError
from .formula import (TAUTOLOGY, Canonical, Dqbf, Prefix, literal_key,
                      normalize_clause)
from .propagation import PropagationOutcome, _reduce, unit_propagate
from .reports import PassReport
from .techniques import (DEFAULT_VIVIFY_BUDGET, _Kept, dqrat_eliminate_pass,
                         upla_pass, vivify_pass)

log = logging.getLogger(__name__)

PASS_NAMES = ("ur", "up", "upla", "vivify", "dqrat")


class Verdict(enum.Enum):
    SAT = "sat"
    UNSAT = "unsat"
    UNKNOWN = "unknown"


@dataclass(frozen=True)
class PipelineConfig:
    """Knobs for one pipeline run. `budget` is the oracle's exponent
    bound and only matters in verify mode."""

    passes: tuple[str, ...] = PASS_NAMES
    max_rounds: int = 10
    vivify_budget: int = DEFAULT_VIVIFY_BUDGET
    verify: bool = False
    budget: int = oracle.DEFAULT_BUDGET
    upla_existential_only: bool = False

    def __post_init__(self) -> None:
        object.__setattr__(self, "passes", tuple(self.passes))
        if not self.passes:
            raise ContractViolation("at least one pass is required")
        for name in self.passes:
            if name not in PASS_NAMES:
                raise ContractViolation(
                    f"unknown pass {name!r}; choose from {', '.join(PASS_NAMES)}")
        if self.max_rounds < 1:
            raise ContractViolation("max_rounds must be at least 1")
        if self.vivify_budget < 0 or self.budget < 0:
            raise ContractViolation("budgets must be non-negative")


def _run_ur(formula: Dqbf) -> tuple[Dqbf, PassReport, None]:
    # the matrix is canonical and over the prefix, so each clause is
    # reduced as it is, without `universal_reduce_clause`'s checks
    report = PassReport("ur")
    if () in formula.matrix:
        return formula, report, None
    existentials = formula.prefix.existentials
    reduced = [_reduce(clause, existentials) for clause in formula.matrix]
    report.clauses_shortened = sum(len(shorter) < len(clause) for shorter, clause
                                   in zip(reduced, formula.matrix))
    after = Dqbf(formula.prefix, Canonical(reduced))
    report.clauses_removed = len(formula.matrix) - len(after.matrix)
    report.conflicts = int(() in after.matrix)
    return after, report, None


def _run_up(formula: Dqbf) -> tuple[Dqbf, PassReport, PropagationOutcome | None]:
    report = PassReport("up")
    if () in formula.matrix:
        return formula, report, None
    outcome = unit_propagate(formula)
    if outcome.conflict:
        report.conflicts = 1
        return Dqbf(formula.prefix, Canonical(((),))), report, outcome
    after = outcome.result
    assert after is not None
    report.units_added = len(outcome.units)
    report.clauses_removed = len(formula.matrix) - len(after.matrix)
    # a clause lost falsified literals, or universals to reduction alone
    clauses = set(formula.matrix)
    report.clauses_shortened = sum(clause not in clauses for clause in after.matrix)
    return after, report, outcome


def _apply_pass(name: str, formula: Dqbf, config: PipelineConfig,
                kept: _Kept | None = None
                ) -> tuple[Dqbf, PassReport, PropagationOutcome | None]:
    # `kept` is the run's `dqrat` record, if it keeps one
    if name == "ur":
        return _run_ur(formula)
    if name == "up":
        return _run_up(formula)
    if name == "upla":
        return *upla_pass(formula, config.upla_existential_only), None
    if name == "vivify":
        return *vivify_pass(formula, config.vivify_budget), None
    if name == "dqrat":
        return *dqrat_eliminate_pass(formula, kept), None
    raise ContractViolation(f"unknown pass {name!r}")


def _fail_verification(name: str, before: Dqbf, after: Dqbf, detail: str) -> None:
    raise VerificationError(
        f"{name} pass failed verification: {detail}\n"
        f"--- before ---\n{emit_dqdimacs(before)}"
        f"--- after ---\n{emit_dqdimacs(after)}")


def _verify_pass(name: str, before: Dqbf, after: Dqbf,
                 outcome: PropagationOutcome | None,
                 config: PipelineConfig) -> bool:
    # whether the oracle checked the application; False if it was skipped
    # for budget. `ur`, `upla` and `vivify` preserve equivalence; `before`
    # must imply `up`'s derived units, if any, and `up` and `dqrat` preserve
    # satisfiability (after an `up` conflict, `after` is the empty clause
    # over `before`'s prefix). The units are checked first, so the oracle's
    # memo keeps `after`'s mask for the next pass. `equivalent` derives
    # that mask from `before`'s and the clauses the pass added when every
    # clause it removed contains one of `after`'s, as for `ur`, `upla`
    # and `vivify`; a dropped clause gets `after`'s mask computed in full.
    try:
        if name == "up" and outcome is not None and outcome.units:
            units = tuple((u,) for u in sorted(outcome.units, key=literal_key))
            if not oracle.implies(before, Dqbf(before.prefix, Canonical(units)),
                                  config.budget):
                _fail_verification(name, before, after,
                                   "derived units are not implied")
        if name in ("up", "dqrat"):
            if not oracle.equisatisfiable(before, after, config.budget):
                _fail_verification(name, before, after,
                                   "pass changed satisfiability")
        elif not oracle.equivalent(before, after, config.budget):
            _fail_verification(name, before, after,
                               "pass is not equivalence-preserving")
    except BudgetError as exc:
        log.warning("verification of %s pass skipped: %s", name, exc)
        return False
    return True


# Passes proven to return a formula unchanged, by the pass that made it
# (rules 2 and 3 of `_settled_after`).
_SETTLED_BY_CHANGE = {"ur": frozenset({"ur"}), "up": frozenset({"ur", "up"})}


def _settled_after(settled: frozenset[str], name: str, changed: bool
                   ) -> frozenset[str]:
    """The passes proven to return the current formula unchanged, after
    pass `name` has run on a formula for which `settled` was that set,
    and has changed it or not, without reaching a verdict.

    1. No change: `settled` plus `name`. A pass is a deterministic
       function of the formula and the configuration, so on the same
       formula it returns the same formula again.
    2. `ur` changed the formula: `{ur}`. Every clause of the result is
       reduced, and a reduced clause reduces to itself: reduction keeps
       every existential literal, hence the union of their dependency
       sets, and the universal literals in that union. The clauses are
       already distinct and in order, so `ur` returns an equal formula.
    3. `up` changed the formula without a conflict: `{ur, up}`. Every
       clause of the fixpoint formula of `ClauseStore.outcome` is
       `_reduce`d over the unassigned variables, whose dependency sets
       are unchanged, so `ur` keeps it as in rule 2. No clause of it
       reduces to one literal or none. Suppose one did. Propagation
       visited it when the last of its falsified literals was
       processed (or, if none was, at the start as a seed), and saw it
       as it ends: empty, which is a conflict, or a unit, which it
       queued and then processed, satisfying and dropping the clause.
       Either contradicts the clause being in a conflict-free result.
       So a store built from the result has no seed, propagation on it
       processes nothing, and `up` returns an equal formula.

    Any other change leaves no pass proven: `{}`.
    """
    if not changed:
        return settled | {name}
    return _SETTLED_BY_CHANGE.get(name, frozenset())


def run_pipeline(config: PipelineConfig, formula: Dqbf
                 ) -> tuple[Dqbf, list[PassReport], Verdict]:
    """Run the configured passes until each is settled or a verdict is
    reached, for at most `max_rounds` rounds; a settled pass is skipped
    and makes no report. A scheduled `dqrat` keeps a record across its
    applications, which only lets it skip clauses whose answer cannot
    have changed (see `dqrat_eliminate_pass`)."""
    scheduled = frozenset(config.passes)
    kept = _Kept() if "dqrat" in scheduled else None
    settled: frozenset[str] = frozenset()
    current = formula
    reports: list[PassReport] = []
    for _ in range(config.max_rounds):
        for name in config.passes:
            if name in settled:
                continue
            before = current
            start = time.perf_counter()
            current, report, outcome = _apply_pass(name, current, config, kept)
            report.wall_time = time.perf_counter() - start
            reports.append(report)
            if config.verify:
                checked = _verify_pass(name, before, current, outcome, config)
                report.verify_checked = int(checked)
                report.verify_skipped = int(not checked)
            if () in current.matrix:
                return Dqbf(current.prefix, Canonical(((),))), reports, Verdict.UNSAT
            if not current.matrix:
                return current, reports, Verdict.SAT
            if not report.changed:
                # an equal formula (rule 1 of `_settled_after`): going on
                # with the input itself drops the copy, and keeps the
                # output `dqrat` recorded the current formula
                current = before
            settled = _settled_after(settled, name, report.changed)
            if settled >= scheduled:
                return current, reports, Verdict.UNKNOWN
    return current, reports, Verdict.UNKNOWN


# -- random formulas for the property suites --------------------------------


@dataclass(frozen=True)
class FuzzBounds:
    """Shape limits for generated formulas. Tight enough that all but
    the rarest draws fit the default oracle budget; harnesses filter
    the few that do not."""

    max_universals: int = 3
    max_existentials: int = 3
    max_clauses: int = 8
    max_clause_width: int = 4

    def __post_init__(self) -> None:
        if min(astuple(self)) < 0 or self.max_clause_width < 1:
            raise ContractViolation("fuzz bounds must be non-negative, "
                                    "and max_clause_width at least 1")


def _random_formula(rng: random.Random, bounds: FuzzBounds) -> Dqbf:
    n_universal = rng.randint(0, bounds.max_universals)
    n_existential = rng.randint(0, bounds.max_existentials)
    universals = list(range(1, n_universal + 1))
    existentials = {}
    for i in range(n_existential):
        deps = frozenset(u for u in universals if rng.random() < 0.5)
        existentials[n_universal + 1 + i] = deps
    variables = universals + sorted(existentials)
    clauses = []
    if variables:
        for _ in range(rng.randint(0, bounds.max_clauses)):
            width = rng.randint(1, bounds.max_clause_width)
            lits = [rng.choice(variables) * rng.choice((1, -1))
                    for _ in range(width)]
            clause = normalize_clause(lits)
            if clause is not TAUTOLOGY:
                clauses.append(clause)
    prefix = Prefix(frozenset(universals), existentials)
    return Dqbf(prefix, tuple(clauses))


def fuzz(seed: int, count: int, bounds: FuzzBounds = FuzzBounds()) -> Iterator[Dqbf]:
    """Deterministic stream of `count` random formulas."""
    if count < 0:
        raise ContractViolation("the count of formulas must be non-negative")
    rng = random.Random(seed)
    return (_random_formula(rng, bounds) for _ in range(count))
