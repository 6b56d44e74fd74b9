"""Acceptance gate: worked examples plus bulk randomized soundness.

Each test checks one criterion end to end and reports a single
PASS/FAIL line through record_acceptance. Randomized criteria draw
from the package fuzzer with a per-criterion seed and skip the rare
instance whose candidate space exceeds the oracle budget; the skip
never hides a violation because skipped instances are simply not
counted toward the required totals.
"""

import random
import time

from conftest import in_oracle_budget, record_acceptance
from dqprep import (Dqbf, PipelineConfig, Prefix, TAUTOLOGY, abstract,
                    dqat_check, dqrat_eliminate_pass, dqrat_plus_check,
                    emit_dqdimacs, equisatisfiable, equivalent, fuzz, implies,
                    literal_key, normalize_clause, outer_resolvent,
                    parse_dqdimacs, run_pipeline, solve_brute, solve_expansion,
                    unit_propagate, universal_reduce, universal_reduce_clause,
                    upla_apply, upla_probe, vivify_clause, VivifyKind)

BUDGETED = 20


def in_budget(formula):
    return in_oracle_budget(formula, BUDGETED)


def test_01_conjunction_of_units():
    start = time.perf_counter()
    x, y = 1, 2
    prefix = Prefix(frozenset({x}), {y: frozenset()})
    first = Dqbf(prefix, ((x,), (y,)))
    second = Dqbf(prefix, ((x,), (y,), (-x,)))
    ok = not solve_brute(first).satisfiable
    ok &= not solve_brute(second).satisfiable
    first_abs = abstract(first, {x})
    second_abs = abstract(second, {x})
    res = solve_brute(first_abs)
    ok &= res.satisfiable
    ok &= res.witness.function_for(x).table == (True,)
    ok &= res.witness.function_for(y).table == (True,)
    ok &= not solve_brute(second_abs).satisfiable
    ok &= equivalent(first, second) is True
    ok &= equivalent(first_abs, second_abs) is False
    elapsed = time.perf_counter() - start
    record_acceptance(1, "abstraction-splits-equivalence", ok and elapsed < 1.0)


def test_02_dependent_copy_gadget():
    start = time.perf_counter()
    x, y = 1, 2
    prefix = Prefix(frozenset({x}), {y: frozenset({x})})
    psi = Dqbf(prefix, ((x, -y), (-x, y)))
    negated = Dqbf(prefix, psi.matrix + ((-y,),))
    ok = unit_propagate(negated).conflict is True
    ok &= dqat_check(psi, (y,)) is False
    res = solve_brute(psi)
    ok &= res.satisfiable
    ok &= res.witness.function_for(y).table == (False, True)
    ok &= not solve_brute(Dqbf(prefix, psi.matrix + ((y,),))).satisfiable
    elapsed = time.perf_counter() - start
    record_acceptance(2, "dependency-aware-unit-probe", ok and elapsed < 1.0)


def test_03_reduction_preserves_equivalence():
    start = time.perf_counter()
    checked = 0
    violations = 0
    for formula in fuzz(101, 600):
        if not in_budget(formula):
            continue
        checked += 1
        if not equivalent(formula, universal_reduce(formula)):
            violations += 1
    elapsed = time.perf_counter() - start
    ok = checked >= 500 and violations == 0 and elapsed < 60.0
    record_acceptance(3, "universal-reduction-equivalence", ok)


def test_04_propagation_soundness():
    start = time.perf_counter()
    checked = 0
    violations = 0
    for formula in fuzz(102, 600):
        if not in_budget(formula):
            continue
        checked += 1
        outcome = unit_propagate(formula)
        if outcome.conflict:
            if solve_brute(formula).satisfiable:
                violations += 1
        else:
            units = tuple((u,) for u in sorted(outcome.units, key=literal_key))
            grown = Dqbf(formula.prefix, formula.matrix + units)
            if not equivalent(formula, grown):
                violations += 1
    elapsed = time.perf_counter() - start
    ok = checked >= 500 and violations == 0 and elapsed < 120.0
    record_acceptance(4, "propagation-soundness", ok)


def test_05_accepted_clauses_are_implied():
    start = time.perf_counter()
    rng = random.Random(203)
    checked = 0
    accepted = 0
    violations = 0
    for formula in fuzz(103, 700):
        variables = sorted(formula.prefix.variables)
        if not variables or not in_budget(formula):
            continue
        width = rng.randint(1, min(3, len(variables)))
        chosen = rng.sample(variables, width)
        clause = normalize_clause(v * rng.choice((1, -1)) for v in chosen)
        checked += 1
        if not dqat_check(formula, clause):
            continue
        accepted += 1
        grown = Dqbf(formula.prefix, formula.matrix + (clause,))
        if not equivalent(formula, grown):
            violations += 1
    elapsed = time.perf_counter() - start
    ok = (checked >= 500 and accepted > 0 and violations == 0
          and elapsed < 120.0)
    record_acceptance(5, "clause-addition-equivalence", ok)


def test_06_vivification_equivalence():
    checked = 0
    rewritten_count = 0
    violations = 0
    for formula in fuzz(104, 600):
        if not in_budget(formula):
            continue
        checked += 1
        for clause in formula.matrix:
            result = vivify_clause(formula, clause)
            if result.kind is VivifyKind.UNCHANGED:
                continue
            rewritten_count += 1
            if not set(result.new_clause) < set(clause):
                violations += 1
                continue
            rewritten = Dqbf(formula.prefix,
                             tuple(result.new_clause if c == clause else c
                                   for c in formula.matrix))
            if not equivalent(formula, rewritten):
                violations += 1
    ok = checked >= 500 and rewritten_count > 0 and violations == 0
    record_acceptance(6, "vivification-equivalence", ok)


def test_07_lookahead_equivalence():
    checked = 0
    contradictions = 0
    violations = 0
    for formula in fuzz(105, 600):
        if not in_budget(formula):
            continue
        checked += 1
        for var in sorted(formula.prefix.variables):
            findings = upla_probe(formula, var)
            if findings.contradictory:
                contradictions += 1
                if solve_brute(formula).satisfiable:
                    violations += 1
                continue
            applied = upla_apply(formula, findings)
            if not equivalent(formula, applied):
                violations += 1
    ok = checked >= 500 and contradictions > 0 and violations == 0
    record_acceptance(7, "lookahead-equivalence", ok)


def _eliminate_with_witnesses(formula):
    """Replay of the elimination sweep that also returns, for every
    accepted pivot, the non-tautological outer resolvents together with
    the formula state they were accepted against."""
    prefix = formula.prefix
    depended = frozenset().union(*prefix.existentials.values()) \
        if prefix.existentials else frozenset()
    working = list(formula.matrix)
    obligations = []
    i = 0
    while i < len(working):
        clause = working[i]
        context = Dqbf(prefix, tuple(working[:i] + working[i + 1:]))
        snapshot = Dqbf(prefix, tuple(working))
        accepted = None
        deleted = False
        for lit in sorted(clause, key=literal_key):
            if (abs(lit) in prefix.existentials
                    and dqrat_plus_check(context, clause, lit)):
                accepted = lit
                deleted = True
                break
        if not deleted:
            for lit in sorted(clause, key=literal_key):
                if abs(lit) in prefix.existentials or abs(lit) not in depended:
                    continue
                if dqrat_plus_check(context, clause, lit):
                    accepted = lit
                    break
        if accepted is not None:
            for partner in context.matrix:
                if -accepted not in partner:
                    continue
                resolvent = outer_resolvent(prefix, clause, partner, accepted)
                if resolvent is not TAUTOLOGY:
                    obligations.append((snapshot, resolvent))
        if deleted:
            working.pop(i)
            continue
        if accepted is None:
            i += 1
            continue
        reduced = universal_reduce_clause(
            prefix, tuple(lit for lit in clause if lit != accepted))
        if reduced == ():
            working[i] = reduced
            break
        if reduced in working[:i] or reduced in working[i + 1:]:
            working.pop(i)
            continue
        working[i] = reduced
        i += 1
    return Dqbf(prefix, tuple(working)), obligations


def test_08_elimination_soundness():
    checked = 0
    resolvents = 0
    violations = 0
    for formula in fuzz(106, 600):
        if not in_budget(formula):
            continue
        checked += 1
        out, _ = dqrat_eliminate_pass(formula)
        if not equisatisfiable(formula, out):
            violations += 1
        replayed, obligations = _eliminate_with_witnesses(formula)
        if replayed != out:
            violations += 1
        for snapshot, resolvent in obligations:
            resolvents += 1
            entailed = Dqbf(formula.prefix, (resolvent,))
            if not implies(snapshot, entailed):
                violations += 1
    ok = checked >= 500 and resolvents > 0 and violations == 0
    record_acceptance(8, "elimination-equisatisfiability", ok)


def test_09_solver_agreement():
    checked = 0
    disagreements = 0
    for formula in fuzz(107, 1100):
        if not in_budget(formula):
            continue
        checked += 1
        if solve_brute(formula).satisfiable != solve_expansion(formula).satisfiable:
            disagreements += 1
    ok = checked >= 1000 and disagreements == 0
    record_acceptance(9, "oracle-agreement", ok)


def test_10_round_trip_and_determinism():
    checked = 0
    violations = 0
    for formula in fuzz(108, 1100):
        checked += 1
        parsed = parse_dqdimacs(emit_dqdimacs(formula))
        if parsed.formula != formula or parsed.diagnostics:
            violations += 1
    config = PipelineConfig()
    for formula in fuzz(109, 100):
        if run_pipeline(config, formula) != run_pipeline(config, formula):
            violations += 1
    ok = checked >= 1000 and violations == 0
    record_acceptance(10, "round-trip-determinism", ok)
