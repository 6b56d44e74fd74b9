"""Clause-level preprocessing built on reduction-aware propagation.

Three families of rewrites, all justified by probing. Vivification
shortens a clause when assuming the negation of a subset already
propagates to a conflict. Lookahead probes both polarities of a
variable and harvests forced literals, shared units, and variable
equivalences. Redundancy elimination deletes a clause, or drops a
universal literal from it, when every outer resolvent on a pivot
propagates to a conflict. Each probe abstracts away the universals the
tested literals may depend on; that abstraction is what keeps the
conclusions sound under a dependency prefix.

Each pass builds one ClauseStore from its input Dqbf, runs every probe
on it (push assumptions, propagate, undo), commits each rewrite to it in
place by replacing, deleting or appending a clause, and exports a Dqbf
at the end. The clause under examination is hidden for its probes
rather than copied out of the matrix. The public probes accept either a
Dqbf, which they wrap in a fresh store, or the store of a running pass.

All passes return the rewritten formula together with a PassReport and
leave a formula that already contains the empty clause untouched: a
refutation is final, rewriting past it only churns.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from .errors import CompatibilityError, ContractViolation, KernelUndefined
from .formula import (TAUTOLOGY, Canonical, Clause, Dqbf, Prefix, dep,
                      is_compatible, literal_key, normalize_clause)
from .propagation import ClauseStore, dqat_check, universal_reduce_clause
from .reports import PassReport

DEFAULT_VIVIFY_BUDGET = 10_000  # propagation steps per clause


class VivifyKind(enum.Enum):
    REPLACED = "replaced"
    STRENGTHENED = "strengthened"
    UNCHANGED = "unchanged"


@dataclass(frozen=True)
class VivifyResult:
    """Outcome of vivifying one clause.

    REPLACED: new_clause is a proper subset of the original.
    STRENGTHENED: new_clause is a tested subset plus one literal the
    probe propagated.  UNCHANGED: new_clause is None.
    """

    kind: VivifyKind
    new_clause: Clause | None = None


def _literal_order(store: ClauseStore, clause: Clause) -> list[int]:
    # most frequent literal first, ties by variable id
    occurrences = store.occurrences
    return sorted(clause, key=lambda lit: (-len(occurrences.get(lit, ())), abs(lit)))


def vivify_clause(formula: Dqbf | ClauseStore, clause: Clause,
                  budget: int = DEFAULT_VIVIFY_BUDGET) -> VivifyResult:
    """Try to shorten one clause of the formula.

    Subsets of the clause are grown literal by literal in a fixed order.
    For each proper subset, its literals are negated and added as unit
    clauses to the rest of the matrix, universals the subset may depend
    on are abstracted away, and the result is propagated. A conflict
    means the subset alone already carries the clause's content; a
    fixpoint whose units contain one of the remaining literals pins that
    literal down. The budget caps total propagation steps.
    """
    store = ClauseStore.of(formula)
    canon = normalize_clause(clause)
    cid = None if canon is TAUTOLOGY else store.find(canon)
    if cid is None:
        raise ContractViolation("clause to vivify must be in the matrix")
    if len(canon) < 2:
        return VivifyResult(VivifyKind.UNCHANGED)
    order = _literal_order(store, canon)
    steps_used = 0
    with store.hidden(cid):
        for size in range(len(canon)):
            if steps_used >= budget:
                return VivifyResult(VivifyKind.UNCHANGED)
            subset = order[:size]
            conflict, units = store.probe([-lit for lit in subset],
                                          dep(store.prefix, subset))
            steps_used += len(units)
            if conflict:
                result = normalize_clause(subset)
                assert result is not TAUTOLOGY
                return VivifyResult(VivifyKind.REPLACED, result)
            for lit in order[size:]:
                if lit in units:
                    result = normalize_clause(subset + [lit])
                    assert result is not TAUTOLOGY
                    return VivifyResult(VivifyKind.STRENGTHENED, result)
    return VivifyResult(VivifyKind.UNCHANGED)


def vivify_pass(formula: Dqbf,
                budget: int = DEFAULT_VIVIFY_BUDGET) -> tuple[Dqbf, PassReport]:
    """Vivify every clause once, committing each change before the next
    clause is examined."""
    report = PassReport("vivify")
    if () in formula.matrix:
        return formula, report
    store = ClauseStore(formula)
    for cid, clause in enumerate(store.clauses):
        result = vivify_clause(store, clause, budget)
        if result.kind is VivifyKind.UNCHANGED or result.new_clause == clause:
            continue
        new_clause = result.new_clause
        assert new_clause is not None
        if new_clause == ():
            store.replace(cid, new_clause)
            report.conflicts += 1
            break
        report.clauses_shortened += 1
        if store.find(new_clause) is not None:
            store.delete(cid)  # shortened into an existing clause
        else:
            store.replace(cid, new_clause)
    return store.formula(), report


@dataclass(frozen=True)
class UplaFindings:
    """What probing one variable in both polarities revealed.

    forced holds literals whose negation led to a conflict; both
    polarities forced signals unsatisfiability. common_units are
    propagated by both probes. equivalences pair the probed variable
    with a literal propagated positively on one side and negatively on
    the other.
    """

    forced: frozenset[int] = frozenset()
    common_units: frozenset[int] = frozenset()
    equivalences: frozenset[tuple[int, int]] = frozenset()

    @property
    def contradictory(self) -> bool:
        return any(-lit in self.forced for lit in self.forced)


def upla_probe(formula: Dqbf | ClauseStore, var: int) -> UplaFindings:
    """Propagate the formula under var and under its negation, with the
    universals var may depend on abstracted away, and compare notes."""
    if var not in formula.prefix:
        raise CompatibilityError(f"variable {var} is not in the prefix")
    store = ClauseStore.of(formula)
    scope = dep(store.prefix, var)
    positive_conflict, positive_units = store.probe((var,), scope)
    negative_conflict, negative_units = store.probe((-var,), scope)
    forced = set()
    if positive_conflict:
        forced.add(-var)
    if negative_conflict:
        forced.add(var)
    if forced:
        return UplaFindings(forced=frozenset(forced))
    positive = frozenset(positive_units)
    negative = frozenset(negative_units)
    equivalences = frozenset((var, lit) for lit in positive
                             if -lit in negative and abs(lit) != var)
    return UplaFindings(common_units=positive & negative,
                        equivalences=equivalences)


def upla_apply(formula: Dqbf, findings: UplaFindings) -> Dqbf:
    """Graft the findings of `upla_probe` on this formula onto it as
    clauses."""
    if findings.contradictory:
        return Dqbf(formula.prefix, ((),))
    return Dqbf(formula.prefix, Canonical(formula.matrix + _additions(findings)))


def _additions(findings: UplaFindings) -> tuple[Clause, ...]:
    # canonical clauses for the findings, in the order they are appended
    additions: list[Clause] = []
    for lit in sorted(findings.forced | findings.common_units, key=literal_key):
        additions.append((lit,))
    for var, lit in sorted(findings.equivalences):
        additions.append(normalize_clause((-var, lit)))
        additions.append(normalize_clause((var, -lit)))
    return tuple(additions)


def upla_pass(formula: Dqbf, existential_only: bool = False) -> tuple[Dqbf, PassReport]:
    """Probe every variable in ascending order, applying each probe's
    findings before the next probe runs."""
    report = PassReport("upla")
    if () in formula.matrix:
        return formula, report
    store = ClauseStore(formula)
    if existential_only:
        candidates = sorted(formula.prefix.existentials)
    else:
        candidates = sorted(formula.prefix.variables)
    for var in candidates:
        findings = upla_probe(store, var)
        if findings.contradictory:
            report.conflicts += 1
            return Dqbf(formula.prefix, ((),)), report
        for lit in findings.forced | findings.common_units:
            if store.find((lit,)) is None:
                report.units_added += 1
        for var_, lit in findings.equivalences:
            pair = (normalize_clause((-var_, lit)), normalize_clause((var_, -lit)))
            if any(store.find(clause) is None for clause in pair):
                report.equivalences_added += 1
        for clause in _additions(findings):
            store.append(clause)
    return store.formula(), report


@dataclass(frozen=True)
class OuterSets:
    """Variables that may soundly appear in a resolvent partner.

    For a universal variable: dependents are the existentials that
    depend on it, independents the ones that do not, kernel the
    universals every dependent shares, and outer the kernel plus the
    independents confined to it. For an existential variable only outer
    is populated: every variable whose dependency closure fits inside
    its own.
    """

    outer: frozenset[int]
    dependents: frozenset[int] | None = None
    independents: frozenset[int] | None = None
    kernel: frozenset[int] | None = None


def outer_variables(prefix: Prefix, var: int) -> OuterSets:
    if var not in prefix:
        raise CompatibilityError(f"variable {var} is not in the prefix")
    if var in prefix.existentials:
        target = prefix.existentials[var]
        outer = set(target)  # universals it depends on
        outer |= {y for y, d in prefix.existentials.items() if d <= target}
        return OuterSets(outer=frozenset(outer))
    dependents = frozenset(y for y, d in prefix.existentials.items() if var in d)
    if not dependents:
        raise KernelUndefined(f"no existential depends on universal {var}")
    independents = frozenset(y for y in prefix.existentials if y not in dependents)
    kernel = frozenset.intersection(*(prefix.existentials[y] for y in dependents))
    outer = set(kernel) | {y for y in independents if prefix.existentials[y] <= kernel}
    return OuterSets(outer=frozenset(outer), dependents=dependents,
                     independents=independents, kernel=kernel)


def outer_resolvent(prefix: Prefix, first: Clause, second: Clause,
                    pivot: int) -> Clause | object:
    """Resolve two clauses on a pivot, keeping only the partner's
    literals over the pivot's outer variables. An existential pivot
    stays in the result with its complement removed; a universal pivot
    is removed from the first clause but its complement survives. The
    result may be TAUTOLOGY."""
    c = normalize_clause(first)
    d = normalize_clause(second)
    if c is TAUTOLOGY or d is TAUTOLOGY:
        raise ContractViolation("cannot resolve a tautological clause")
    if pivot not in c or -pivot not in d:
        raise ContractViolation(
            "pivot must occur in the first clause and negated in the second")
    return _resolve(c, d, pivot, outer_variables(prefix, abs(pivot)).outer,
                    abs(pivot) in prefix.existentials)


def _resolve(canon: Clause, partner: Clause, pivot: int, outer: frozenset[int],
             existential: bool) -> Clause | object:
    # `outer_resolvent` of two canonical clauses, given the pivot's outer
    # set and whether the pivot is existential. The merged literals are
    # normalized once, which is what detects a tautological resolvent.
    outer_part = [lit for lit in partner if abs(lit) in outer]
    if existential:
        merged = list(canon) + [lit for lit in outer_part if lit != -pivot]
    else:
        merged = [lit for lit in canon if lit != pivot] + outer_part
    return normalize_clause(merged)


def dqrat_plus_check(formula: Dqbf | ClauseStore, clause: Clause, pivot: int) -> bool:
    """Is the clause redundant with respect to the formula on this pivot?

    Every clause of the matrix containing the negated pivot contributes
    an outer resolvent; tautological resolvents pass vacuously, every
    other resolvent must fail the addition test, that is, propagating
    its negation under abstraction must conflict. Raises KernelUndefined
    for a universal pivot no existential depends on.
    """
    canon = normalize_clause(clause)
    if canon is TAUTOLOGY:
        raise ContractViolation("clause under test must not be tautological")
    if pivot not in canon:
        raise ContractViolation("pivot must occur in the clause")
    if not is_compatible(formula.prefix, canon):
        raise CompatibilityError("clause uses variables outside the prefix")
    store = ClauseStore.of(formula)
    existential = abs(pivot) in store.prefix.existentials
    # computed at the first partner, so a pivot without partners passes
    # even where its outer set is undefined
    outer = None
    for cid in store.occurrences.get(-pivot, ()):
        partner = store.clauses[cid]
        if partner is None:
            continue
        if outer is None:
            outer = outer_variables(store.prefix, abs(pivot)).outer
        resolvent = _resolve(canon, partner, pivot, outer, existential)
        if resolvent is TAUTOLOGY:
            continue
        if not dqat_check(store, resolvent):
            return False
    return True


def dqrat_eliminate_pass(formula: Dqbf) -> tuple[Dqbf, PassReport]:
    """One elimination sweep over the matrix.

    Each clause is visited once against the rest of the current matrix.
    If some existential pivot certifies redundancy the clause is
    deleted; otherwise the first universal pivot that certifies lets its
    literal be dropped, after which the shortened clause is reduced
    again. Universal pivots nothing depends on are skipped. Changes
    commit immediately; a derived empty clause ends the sweep.
    """
    report = PassReport("dqrat")
    if () in formula.matrix:
        return formula, report
    prefix = formula.prefix
    depended = frozenset().union(*prefix.existentials.values()) \
        if prefix.existentials else frozenset()
    store = ClauseStore(formula)
    for cid, clause in enumerate(store.clauses):
        deleted = False
        dropped: int | None = None
        # each clause is checked against the rest; its literals are
        # already in canonical order, so pivots are tried in that order
        with store.hidden(cid):
            for lit in clause:
                if abs(lit) in prefix.existentials and dqrat_plus_check(store, clause, lit):
                    deleted = True
                    break
            if not deleted:
                for lit in clause:
                    if abs(lit) in prefix.existentials or abs(lit) not in depended:
                        continue
                    if dqrat_plus_check(store, clause, lit):
                        dropped = lit
                        break
        if deleted:
            store.delete(cid)
            report.clauses_removed += 1
            continue
        if dropped is None:
            continue
        reduced = universal_reduce_clause(
            prefix, tuple(lit for lit in clause if lit != dropped))
        report.clauses_shortened += 1
        if reduced == ():
            store.replace(cid, reduced)
            report.conflicts += 1
            break
        if store.find(reduced) is not None:
            store.delete(cid)  # merged into an existing clause
        else:
            store.replace(cid, reduced)
    return store.formula(), report
