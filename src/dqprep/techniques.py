"""Clause-level preprocessing built on reduction-aware propagation.

Three families of rewrites, all justified by probing. Vivification
shortens a clause when assuming the negation of a subset already
propagates to a conflict. Lookahead probes both polarities of a
variable and harvests forced literals, shared units, and variable
equivalences. Redundancy elimination deletes a clause, or drops a
universal literal from it, when every outer resolvent on a pivot
propagates to a conflict. Each probe hands the store only the literals
it assumes; the store abstracts away the universals they may depend
on, which is what keeps the conclusions sound under a dependency
prefix.

Each pass builds one ClauseStore from its input Dqbf, runs every probe
on it with the clause under examination hidden, commits each rewrite in
place (`ClauseStore.shorten`, `append`, `delete`) and exports a Dqbf at
the end. Vivification holds the negation of a growing subset of the
hidden clause as the store's base (`ClauseStore.based`) and grows it by
one literal per subset while the subset's dependency set stays the
same, so such a run of subsets shares one propagation (see
`vivify_clause`). Redundancy elimination also holds the negation of
the hidden clause as the store's base while it tries the existential
pivots: every outer resolvent on such a pivot extends that negation
under the same abstraction, so the negation is propagated once per
clause (see `dqrat_eliminate_pass`). Each such resolvent is answered from the
base's trail without being built: its partner is walked once, and
only the literals the trail leaves open are propagated (see
`dqrat_plus_check`). The public probes take a Dqbf, whose clause or
variable they check, or the store of a running pass, whose canonical
clauses they trust.

All passes return the rewritten formula together with a PassReport and
leave a formula that already contains the empty clause untouched: a
refutation is final, rewriting past it only churns.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from .errors import CompatibilityError, ContractViolation, KernelUndefined
from .formula import (TAUTOLOGY, Canonical, Clause, Dqbf, Prefix, literal_key,
                      normalize_clause)
from .propagation import (ClauseStore, _checked, _reduce, _store_and_clause,
                          dqat_check)
from .reports import PassReport

DEFAULT_VIVIFY_BUDGET = 10_000  # propagation steps per clause


class VivifyKind(enum.Enum):
    REPLACED = "replaced"
    STRENGTHENED = "strengthened"
    UNCHANGED = "unchanged"


@dataclass(frozen=True)
class VivifyResult:
    """Outcome of vivifying one clause.

    REPLACED: new_clause is a tested subset of the original.
    STRENGTHENED: new_clause is a tested subset plus one literal the
    probe propagated.  UNCHANGED: new_clause is None. Every new_clause
    is a proper subset of the original clause.
    """

    kind: VivifyKind
    new_clause: Clause | None = None


def _sorted(literals: list[int]) -> Clause:
    # literals of a canonical clause, back in canonical order
    return tuple(sorted(literals, key=abs))


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

    The negated subset is held as the store's base (`ClauseStore.based`)
    and grown by one negated literal per subset (`ClauseStore._grow`), so
    each maximal run of subsets with the same dependency set is one base,
    the first subset of the run propagated afresh and each later one
    draining only its new literal. The seeded empty subset is a base
    under the empty abstraction. A grown base answers every question a
    fresh probe of its subset answers (`_grow`, points 1 and 2): whether
    it conflicts, and without a conflict the trail's length, which the
    budget counts, and its set, which the strengthening reads. A
    conflict returns at once. A remaining literal true on the trail
    returns one subset earlier, so the negated literal grown next is
    never false on the base.
    """
    store, canon = _store_and_clause(formula, clause)
    cid = store.find(canon)
    if cid is None:
        raise ContractViolation("clause to vivify must be in the matrix")
    if len(canon) < 2:
        return VivifyResult(VivifyKind.UNCHANGED)
    # most frequent literal first, ties by variable id
    occurrences = store.occurrences
    order = sorted(canon, key=lambda lit: (-len(occurrences.get(lit, ())), abs(lit)))
    negated = tuple([-lit for lit in order])
    steps_used = 0
    with store.hidden(cid):
        # the empty subset probes the matrix alone, which propagates only
        # from seeds: without a visible one it processes nothing, and its
        # answer is (False, [])
        seeded = any(store.clauses[seed] is not None for seed in store.seeds)
        size = 0 if seeded else 1
        while steps_used < budget:
            # one base per run of subsets with the same abstraction
            with store.based(negated[:size]) as conflict:
                while conflict is not None:
                    if conflict:
                        return VivifyResult(VivifyKind.REPLACED, _sorted(order[:size]))
                    steps_used += len(store.trail)
                    if size + 1 == len(canon):
                        # the subset plus one literal would be the whole clause
                        return VivifyResult(VivifyKind.UNCHANGED)
                    true = store.true
                    for lit in order[size:]:
                        if lit in true:
                            return VivifyResult(VivifyKind.STRENGTHENED,
                                                _sorted(order[:size] + [lit]))
                    size += 1
                    if steps_used >= budget:
                        break
                    conflict = store._grow(negated[size - 1])
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
        new_clause = vivify_clause(store, clause, budget).new_clause
        if new_clause is None:
            continue
        store.shorten(cid, new_clause)
        if new_clause == ():
            report.conflicts += 1
            break
        report.clauses_shortened += 1
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
    if isinstance(formula, ClauseStore):
        store = formula
    elif var in formula.prefix:
        store = ClauseStore(formula)
    else:
        raise CompatibilityError(f"variable {var} is not in the prefix")
    positive_conflict, positive_units = store.probe((var,))
    negative_conflict, negative_units = store.probe((-var,))
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
        return Dqbf(formula.prefix, Canonical(((),)))
    units, pairs = _additions(findings)
    return Dqbf(formula.prefix, Canonical(formula.matrix + units + sum(pairs, ())))


def _additions(findings: UplaFindings) -> tuple[tuple[Clause, ...], tuple]:
    # canonical clauses for the findings, in the order they are appended:
    # the unit clauses, then the two binary clauses of each equivalence
    units = sorted(findings.forced | findings.common_units, key=literal_key)
    return (tuple((lit,) for lit in units),
            tuple((_sorted([-var, lit]), _sorted([var, -lit]))
                  for var, lit in sorted(findings.equivalences)))


def upla_pass(formula: Dqbf, existential_only: bool = False) -> tuple[Dqbf, PassReport]:
    """Probe every variable in ascending order, applying each probe's
    findings before the next probe runs."""
    report = PassReport("upla")
    if () in formula.matrix:
        return formula, report
    store = ClauseStore(formula)
    prefix = formula.prefix
    for var in sorted(prefix.existentials if existential_only else prefix.variables):
        findings = upla_probe(store, var)
        if findings.contradictory:
            report.conflicts += 1
            return Dqbf(formula.prefix, Canonical(((),))), report
        units, pairs = _additions(findings)
        for unit in units:
            report.units_added += store.append(unit)
        for pair in pairs:
            # a list, so that both clauses are appended
            report.equivalences_added += any([store.append(c) for c in pair])
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
    c = _checked(prefix, first)
    d = _checked(prefix, second)
    if pivot not in c or -pivot not in d:
        raise ContractViolation(
            "pivot must occur in the first clause and negated in the second")
    outer = outer_variables(prefix, abs(pivot)).outer
    if abs(pivot) in prefix.existentials:
        parts = c + tuple(lit for lit in d if abs(lit) in outer and lit != -pivot)
    else:
        parts = tuple(lit for lit in c if lit != pivot) + tuple(
            lit for lit in d if abs(lit) in outer)
    return normalize_clause(parts)


def _resolve(canon: Clause, partner: Clause, pivot: int,
             outer: frozenset[int]) -> Clause | object:
    # `outer_resolvent` of two canonical clauses on a universal pivot,
    # given its outer set. A literal in both parts is kept once, and
    # opposite literals make it a tautology.
    kept = set(canon)
    kept.discard(pivot)
    for lit in partner:
        if abs(lit) in outer:
            if -lit in kept:
                return TAUTOLOGY
            kept.add(lit)
    return tuple(sorted(kept, key=abs))


def dqrat_plus_check(formula: Dqbf | ClauseStore, clause: Clause, pivot: int) -> bool:
    """Is the clause redundant with respect to the formula on this pivot?

    Every clause of the matrix containing the negated pivot contributes
    an outer resolvent; tautological resolvents pass vacuously, every
    other resolvent must fail the addition test, that is, propagating
    its negation under abstraction must conflict. The answer is about
    the matrix as given, as `dqat_check`'s is: to delete the clause,
    probe without it (`ClauseStore.hidden`), since a present copy can
    make every resolvent conflict. Raises ContractViolation for a pivot
    not in the clause, and KernelUndefined for a universal pivot no
    existential depends on.

    A universal pivot's resolvents are built one partner at a time and
    each is handed to `dqat_check`. An existential pivot p of the clause
    C is answered from the trail T of the base -C (`ClauseStore.based`,
    held by `dqrat_eliminate_pass` or else by the store for the call),
    without building the resolvents (`ClauseStore._refutes_resolvents`):
    each partner D is walked once, and of its literals other than -p
    those over p's outer variables (the literals `outer_resolvent`
    keeps) are looked up on T. If one of them is true on T, D passes;
    otherwise the negations of those not false on T are handed to
    `ClauseStore._extends`, and D passes if they conflict. A partner
    that leaves none fails. For each partner the walk answers as a
    fresh probe of the resolvent's negation -R does, and both stop at
    the first partner that fails:

    1. -R extends the base -C under the same abstraction
       (`dqrat_eliminate_pass`, points 1 to 3), as `_extends` requires.
       A base that conflicts gives a refuting derivation from -C, hence
       from every -R (`_extends`, points 1 and 2), so the probe answers
       yes to every -R, as the walk does to every partner.
    2. Otherwise T is consistent and holds -C (`_extends`, point 1), so
       no literal of C is on T. R is C together with the kept literals
       K of D. A literal l of K with l on T is either in -C, so that -l
       is in C and R is a tautology, or outside it, so that -l is a
       literal of -R beyond the base whose complement is on T, which
       makes T with -l a refuting derivation from -R, so the probe
       answers yes. Either way D passes, whatever the rest of K holds.
    3. With no literal of K on T, R is no tautology, since -C lies on
       T. The literals of -R beyond the base that are not on T are the
       negations of the literals of K whose negation is not on T: those
       of C are left out either way, since their negations lie in -C.
       With none left, T meets the end conditions of `_extends`' point
       1 for -R, and the probe answers no; otherwise `_extends` drains
       them, in D's order, and answers as the probe does.
    """
    if isinstance(formula, ClauseStore):
        store, canon = formula, clause
    else:
        store, canon = ClauseStore(formula), _checked(formula.prefix, clause)
    if pivot not in canon:
        raise ContractViolation("pivot must occur in the clause")
    target = store.prefix.existentials.get(abs(pivot))
    if target is not None:
        return store._refutes_resolvents(canon, pivot, target)
    # the outer set is computed at the first partner, so a pivot without
    # partners passes even where the set is undefined
    outer = None
    for cid in store.occurrences.get(-pivot, ()):
        partner = store.clauses[cid]
        if partner is None:
            continue
        if outer is None:
            outer = outer_variables(store.prefix, abs(pivot)).outer
        resolvent = _resolve(canon, partner, pivot, outer)
        if resolvent is not TAUTOLOGY and not dqat_check(store, resolvent):
            return False
    return True


class _Kept:
    """What `dqrat_eliminate_pass` carries from one application to the
    next within a pipeline run: its last output, and one flag per clause
    of that output, set for a clause the sweep examined and kept whole.
    Private to the pipeline, which holds one per run."""

    __slots__ = ("formula", "flags")

    def __init__(self) -> None:
        self.formula: Dqbf | None = None
        self.flags = bytearray()


def dqrat_eliminate_pass(formula: Dqbf, kept: _Kept | None = None
                         ) -> tuple[Dqbf, PassReport]:
    """One elimination sweep over the matrix.

    Each clause is visited once against the rest of the current matrix.
    If some existential pivot certifies redundancy the clause is
    deleted; otherwise the first universal pivot that certifies lets its
    literal be dropped, after which the shortened clause is reduced
    again. Universal pivots nothing depends on are skipped. Changes
    commit immediately; a derived empty clause ends the sweep.

    The existential pivots of a clause C are tried with the negation of
    C held as the store's base (`ClauseStore.based`), so that -C is
    propagated once per clause, and `dqrat_plus_check` answers every
    resolvent among them by extending the base's trail
    (`ClauseStore._extends`). That needs each outer resolvent R on an
    existential pivot p to contain C and to satisfy dep(R) = dep(C):

    1. A partner literal over v is kept only if v is a universal in
       deps(p) or an existential with deps(v) <= deps(p), the outer
       variables `outer_variables` gives p, so every literal l kept has
       dep(l) <= deps(p).
    2. p is a literal of C, so deps(p) <= dep(C).
    3. R is C together with the partner's outer literals other than -p
       (`outer_resolvent`), hence contains C, and dep(R) is dep(C)
       together with sets inside deps(p), which is dep(C).

    So -R is -C plus literals whose dependencies lie inside dep(C), the
    case `_extends` answers from the base. A resolvent on a universal
    pivot lacks the pivot, so it is probed afresh, outside the base.

    With a record `kept` (the pipeline's, one per run), the sweep skips
    the clauses it flags. The flags are those of the record if `formula`
    equals the output recorded there, prefix and matrix, and all clear
    otherwise. A clause examined and kept whole is flagged; deleting a
    clause D clears the flag of every clause holding -l for some l in D
    (its partners on the pivot l); shortening a clause clears them all.
    The record then gets the output and the flags of its clauses. A
    skipped clause C would have been kept whole:

    4. C was examined against a matrix M0, with C hidden, and kept
       whole: each pivot had a partner whose outer resolvent R does
       not refute. Since then only deletions happened, none of them of
       a partner of C, as any other change clears the flag. So the
       current matrix M1 is a subset of M0 holding the same partners of
       C, and on an equal prefix R and dep(R) are the same.
    5. Propagating -R in M1 is a derivation in M0 (`ClauseStore.
       _extends`, point 1), so it does not conflict either, and
       `dqrat_plus_check`'s proof carries that to the walk on the base.
       A tautological resolvent depends on C and its partner alone, and
       the prefix fixes `depended` and every outer set.

    So skipping C gives the store, output and PassReport of examining
    it. Without a record every clause is examined.
    """
    report = PassReport("dqrat")
    if () in formula.matrix:
        return formula, report
    existentials = formula.prefix.existentials
    # the universals some existential depends on: the only universal pivots
    depended = frozenset().union(*existentials.values())
    store = ClauseStore(formula)
    occurrences = store.occurrences
    # a copy: a sweep cut short leaves the record as it was
    flags = bytearray(kept.flags if kept is not None and kept.formula == formula
                      else len(store.clauses))
    for cid, clause in enumerate(store.clauses):
        if flags[cid]:
            continue
        # each clause is checked against the rest; its literals are
        # already in canonical order, so pivots are tried in that order
        with store.hidden(cid):
            with store.based([-lit for lit in clause]):
                deleted = any(abs(lit) in existentials
                              and dqrat_plus_check(store, clause, lit)
                              for lit in clause)
            dropped = None if deleted else next(
                (lit for lit in clause if abs(lit) in depended
                 and dqrat_plus_check(store, clause, lit)), None)
        if deleted:
            for lit in clause:
                for partner in occurrences.get(-lit, ()):
                    flags[partner] = 0
            store.delete(cid)
            report.clauses_removed += 1
        elif dropped is not None:
            flags = bytearray(len(flags))
            # a canonical clause minus one literal is canonical
            reduced = _reduce(tuple(l for l in clause if l != dropped), existentials)
            report.clauses_shortened += 1
            store.shorten(cid, reduced)
            if reduced == ():
                report.conflicts += 1
                break
        else:
            flags[cid] = 1
    after = store.formula()
    if kept is not None:
        # the store holds no duplicates, so its live clauses are the
        # output's matrix in order, each with its flag
        kept.formula = after
        kept.flags = bytearray(flag for flag, clause in zip(flags, store.clauses)
                               if clause is not None)
    return after, report
