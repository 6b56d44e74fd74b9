"""Universal reduction, unit propagation, prefix abstraction, and the
propagation-based redundancy test for clauses.

Unit propagation here is stronger than its propositional counterpart:
whenever a clause is shortened, universal literals that no remaining
existential literal of the clause depends on are deleted as well. A
clause left with only such literals collapses to the empty clause, so a
universal unit clause is a conflict rather than an assignment.

Propagation runs on a ClauseStore: a mutable copy of a matrix with
occurrence lists and a trail of processed literals. A pass builds one
store and runs every probe on it. A propagation starts in one of two
places, and each abstracts every universal its assumptions may depend
on, so no caller chooses an abstraction: `ClauseStore.probe` propagates
the assumptions, reads the trail and takes it back, so a probe costs
what it propagates; `ClauseStore.based` propagates a base on entry and
keeps its trail for the block. `dqrat_plus_check` on an existential
pivot asks the private `ClauseStore._refutes_resolvents`, which holds
the clause's negation as the base unless the pass holds it, checks
each resolvent's literals against the base's trail, and hands those
it leaves open to the private `ClauseStore._extends`, which propagates
only what they add. `vivify_clause` holds the negation of a growing
subset of its clause as the base and grows it one literal at a time
through the private `ClauseStore._grow`, which drains only the new
literal while the abstraction stays the same and refuses a literal that
would widen it, so the subset is then held afresh. `probe` and
`based` compute the abstraction themselves, one lookup for a single
literal. The pass commits its rewrites to the store in place.

A clause handed to a public entry point is validated once, by
`_checked`. A probe handed a Dqbf checks its clause and builds a store;
a probe handed a ClauseStore takes its clause as canonical and over the
store's prefix, as `Canonical` does a matrix, and checks nothing.

`_unit` decides whether a visited clause is a unit or empty in one scan
without building the reduced clause; `_reduce` builds it only where it
is the result. A clause with three or more existential literals also
carries a count of those not yet falsified, and a visit that finds two
or more still left is settled by the count alone, without the scan;
`ClauseStore.visits` counts such visits too. `_reduce` returns the
input tuple itself when it drops no literal, so a clause already
reduced is not copied, and builds a union of dependency sets only for a
clause whose existential literals carry two distinct ones. Formulas
the store and the reductions hand back are marked `Canonical`, so
`Dqbf` does not normalize their clauses again.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import deque
from collections.abc import Container, Iterable, Iterator, Mapping
from contextlib import contextmanager
from dataclasses import dataclass
from operator import neg

from .errors import CompatibilityError, ContractViolation
from .formula import (TAUTOLOGY, Canonical, Clause, Dqbf, Prefix,
                      is_compatible, normalize_clause)

_NOTHING: frozenset[int] = frozenset()


@dataclass(frozen=True)
class PropagationOutcome:
    """Result of running unit propagation to its fixpoint.

    ``conflict`` is true when the empty clause was derived. Otherwise
    ``result`` holds the fixpoint formula, with every propagated
    existential removed from its prefix, and ``units`` the processed
    existential literals. ``steps`` counts processed units either way.
    """

    conflict: bool
    result: Dqbf | None = None
    units: frozenset[int] = frozenset()
    steps: int = 0


def _reduce(clause: Clause, existentials: Mapping[int, frozenset[int]]) -> Clause:
    # keep existential literals and universal literals some existential
    # literal of the clause depends on; drop the rest. One scan finds the
    # universal literals; a clause that loses none is returned itself.
    # `held` is the last dependency set seen: a literal with that same
    # object, common as a prefix shares equal sets, adds nothing, and the
    # union is built only once a second set is seen
    held: frozenset[int] | None = None
    support: set[int] | None = None
    universal: list[int] | None = None
    get = existentials.get
    for lit in clause:
        deps = get(abs(lit))
        if deps is None:
            if universal is None:
                universal = [lit]
            else:
                universal.append(lit)
        elif deps is not held and deps:
            if held is not None:
                if support is None:
                    support = set(held)
                support |= deps
            held = deps
    if universal is None:
        return clause
    if support is None:
        support = held or _NOTHING
    dropped = [lit for lit in universal if abs(lit) not in support]
    if not dropped:
        return clause
    return tuple([lit for lit in clause if lit not in dropped])


def _unit(clause: Clause, true: Container[int],
          existentials: Mapping[int, frozenset[int]],
          abstracted: frozenset[int]) -> int | None:
    # the reduced clause under the assignment `true`, decided in one scan
    # without building it: None if the clause is satisfied or keeps two
    # or more literals, 0 if it is empty, else its only literal. It keeps
    # the unassigned existential and abstracted literals (a universal
    # that is not abstracted is never assigned) and the universals they
    # depend on, so with one such literal e it is (e) unless a universal
    # of the clause that is not abstracted lies in deps(e).
    unit = 0
    for lit in clause:
        if lit in true:
            return None
        var = abs(lit)
        if (var in existentials or var in abstracted) and -lit not in true:
            if unit:
                return None
            unit = lit
    if unit:
        deps = existentials.get(abs(unit))
        if deps:
            for lit in clause:
                var = abs(lit)
                if var in deps and var not in abstracted:
                    return None
    return unit


def _checked(prefix: Prefix, clause: Iterable[int]) -> Clause:
    # the canonical form of a clause handed to a public entry point;
    # ContractViolation if tautological, CompatibilityError if over a
    # variable the prefix does not declare
    canon = normalize_clause(clause)
    if canon is TAUTOLOGY:
        raise ContractViolation("tautological clause")
    if not is_compatible(prefix, canon):
        raise CompatibilityError(f"clause {canon} uses variables outside the prefix")
    return canon


def universal_reduce_clause(prefix: Prefix, clause: Iterable[int]) -> Clause:
    """Delete every universal literal no existential literal of the clause
    may depend on. Preserves the set of Skolem functions."""
    return _reduce(_checked(prefix, clause), prefix.existentials)


def universal_reduce(formula: Dqbf) -> Dqbf:
    """Apply clause-wise universal reduction; the prefix is unchanged."""
    exist = formula.prefix.existentials
    return Dqbf(formula.prefix, Canonical(_reduce(c, exist) for c in formula.matrix))


class ClauseStore:
    """A mutable, occurrence-indexed matrix over a fixed prefix, on which
    probes propagate and passes rewrite in place.

    Clause ids follow insertion order and are never reused: deleting a
    clause leaves a hole, replacing one keeps its id, and appending one
    takes the next id. Walking the ids in order therefore lists the
    matrix the way the equivalent Dqbf would. `occurrences` maps each
    literal to the ids of the clauses containing it, in id order; it is
    also how `find` looks a clause up, which keeps the matrix free of
    duplicates without a second index. A clause can also be hidden for
    the duration of a block, which leaves it out of propagation and out
    of `find` without touching the occurrence lists.

    Propagation starts only in `probe` and `based` and records every
    processed literal on `trail`; `probe` and `outcome` take them back.
    `visits` counts the clauses propagation has examined over the
    store's lifetime, those settled by their counts without a scan
    included (see `_drain`). Inside `based`, the store holds a base
    (assumptions, propagated on entry, whose trail `_extends` extends
    and `_grow` grows) and must not be rewritten.
    """

    def __init__(self, formula: Dqbf) -> None:
        self.prefix = formula.prefix
        self.clauses: list[Clause | None] = []
        self.occurrences: dict[int, list[int]] = {}
        # ids of the clauses universal reduction leaves with at most one
        # literal: under any abstraction, no other clause can be a unit or
        # empty before propagation starts
        self.seeds: list[int] = []
        # per clause id, the number of existential literals, capped at
        # 255 and 0 below three; `live` is the same count less the
        # literals the running propagation has falsified (see `_drain`)
        self.width = bytearray()
        self.live = bytearray()
        self.trail: list[int] = []
        self.true: set[int] = set()
        self.visits = 0
        # inside `based`: the base as a set, what it may depend on, and
        # whether its propagation conflicted
        self._base: tuple[frozenset[int], frozenset[int], bool] | None = None
        for clause in formula.matrix:  # already free of duplicates
            self._add(clause)

    def formula(self) -> Dqbf:
        return Dqbf(self.prefix, Canonical(c for c in self.clauses if c is not None))

    def find(self, clause: Clause) -> int | None:
        """Id of the clause equal to a canonical clause, if present."""
        if not clause:
            return self.clauses.index(()) if () in self.clauses else None
        occurrences = self.occurrences
        rarest = min(clause, key=lambda lit: len(occurrences.get(lit, ())))
        return next((cid for cid in occurrences.get(rarest, ())
                     if self.clauses[cid] == clause), None)

    def append(self, clause: Clause) -> bool:
        """Add a canonical clause after all others unless it is present;
        returns whether it was added."""
        absent = self.find(clause) is None
        if absent:
            self._add(clause)
        return absent

    def _add(self, clause: Clause) -> None:
        cid = len(self.clauses)
        self.clauses.append(clause)
        occurrences = self.occurrences
        for lit in clause:
            ids = occurrences.get(lit)
            if ids is None:
                # sized exactly; most literals occur in few clauses, and
                # lists grown by append are over-allocated
                occurrences[lit] = [cid]
            else:
                ids.append(cid)
        self.width.append(0)
        self._classify(cid, clause)

    def delete(self, cid: int) -> None:
        clause = self.clauses[cid]
        self.clauses[cid] = None
        self.width[cid] = 0
        for lit in clause:
            self.occurrences[lit].remove(cid)

    def shorten(self, cid: int, clause: Clause) -> None:
        """Put a canonical proper subset of a clause in its place, which
        keeps its place in the matrix, or delete the clause if the subset
        is already present."""
        if self.find(clause) is not None:
            self.delete(cid)
            return
        old = self.clauses[cid]
        self.clauses[cid] = clause
        for lit in old:
            if lit not in clause:
                self.occurrences[lit].remove(cid)
        self._classify(cid, clause)

    def _classify(self, cid: int, clause: Clause) -> None:
        # set the width of a clause put in place, and list it among the
        # seeds if universal reduction leaves it at most one literal
        # (`_unit` under the empty assignment). Reduction keeps every
        # existential literal, so a clause with two is no seed. A plain
        # loop counts them: `sum` over a generator costs about three
        # times as much per clause.
        existentials = self.prefix.existentials
        n = 0
        for lit in clause:
            if abs(lit) in existentials:
                n += 1
        self.width[cid] = min(n, 255) if n > 2 else 0
        if n < 2 and _unit(clause, _NOTHING, existentials, _NOTHING) is not None:
            seeds = self.seeds
            at = bisect_left(seeds, cid)
            if at == len(seeds) or seeds[at] != cid:
                seeds.insert(at, cid)

    @contextmanager
    def hidden(self, cid: int) -> Iterator[Clause]:
        """Leave one clause out of propagation inside the block."""
        clause = self.clauses[cid]
        self.clauses[cid] = None
        try:
            yield clause
        finally:
            self.clauses[cid] = clause

    def _propagate(self, assumptions: tuple[int, ...],
                   abstracted: frozenset[int]) -> bool:
        """Run unit propagation with interleaved universal reduction from an
        empty trail, as if the assumptions were unit clauses appended to
        the matrix and every universal in `abstracted`, which `probe` and
        `based` set to dep(assumptions), were an existential with an empty
        dependency set. Returns whether a conflict was derived; the
        processed literals stay on the trail.

        Existential unit clauses of the matrix are queued in clause order,
        then the assumptions. Processing a literal puts it on the trail and
        visits, in clause order, the clauses containing its complement
        that no processed literal satisfies: each loses its falsified
        literals and is reduced again. An empty result is a conflict and a
        unit is queued; `_unit` decides which without building the
        reduced clause. A queued literal whose variable is already
        assigned is skipped. A universal assumption lies in its own
        dep, so it is abstracted and assigned like an existential.
        """
        existentials = self.prefix.existentials
        clauses, true = self.clauses, self.true
        self.live = self.width[:]
        queue: deque[int] = deque()
        for cid in self.seeds:
            clause = clauses[cid]
            if clause is None:
                continue
            self.visits += 1
            unit = _unit(clause, true, existentials, abstracted)
            if unit == 0:
                return True
            if unit is not None:
                queue.append(unit)
        queue.extend(assumptions)
        return self._drain(queue, frozenset(assumptions), abstracted)

    def _drain(self, queue: deque[int], assumed: frozenset[int],
               abstracted: frozenset[int]) -> bool:
        """The processing loop of `_propagate`: whether the queued
        literals and the units they imply reach a conflict, processed
        literals going on the trail; `assumed` holds the assumptions a
        processed literal may contradict.

        A visit that finds `live[cid]` at 3 or more, before taking one
        off for the literal just falsified, skips `_unit`, which would
        return None: the clause is satisfied or keeps two unassigned
        existential literals. `live` starts as `width` when the
        propagation starts, from an empty assignment, and loses one on
        each visit that falsifies an existential literal of a clause of
        width 3 or more, until it reaches 0. It is a lower bound on the
        clause's existential literals that are not false, because:

        1. Each variable is processed at most once per propagation (a
           queued literal whose variable is assigned is skipped), and a
           canonical clause holds it at most once, so each existential
           literal of the clause is taken off at most once.
        2. Abstracted universals are never counted: they are not in
           `width`, and a processed universal takes nothing off.
        3. The hidden status of a clause does not change during a
           propagation: a `hidden` block encloses a whole probe or base,
           or lies inside a base, where `_extends` pops what it processed
           before the block ends and `_grow` is not called. So every
           falsified existential literal of a visible clause was taken
           off, on the visit its processing made.

        The count is width 255 at most, so a longer clause is only
        undercounted. With two or more non-false existential literals,
        the clause holds a true literal, or `_unit` finds two open ones
        and returns None. The visit is counted in `visits` either way,
        and nothing is queued, so the trail is the one the scans give.
        `_extends` restores the base's `live` with its trail.
        """
        existentials = self.prefix.existentials
        clauses, occurrences = self.clauses, self.occurrences
        true, trail, live = self.true, self.trail, self.live
        while queue:
            lit = queue.popleft()
            if lit in true or -lit in true:
                continue
            true.add(lit)
            trail.append(lit)
            if -lit in assumed:
                return True  # lit falsifies an assumption
            counted = abs(lit) in existentials
            for cid in occurrences.get(-lit, ()):
                clause = clauses[cid]
                if clause is None:
                    continue
                self.visits += 1
                if counted:
                    left = live[cid]
                    if left:
                        live[cid] = left - 1
                        if left > 2:
                            continue
                unit = _unit(clause, true, existentials, abstracted)
                if unit == 0:
                    return True
                if unit is not None:
                    queue.append(unit)
        return False

    def _unheld(self) -> None:
        # probes that report a trail start from an empty one
        if self._base is not None:
            raise ContractViolation("a base is held; no probe may start")

    def _dep(self, assumptions: tuple[int, ...]) -> frozenset[int]:
        # dep(assumptions), as `formula.dep` gives it for literals over the
        # prefix: a universal depends on itself, an existential carries its
        # set. A single literal costs one lookup and an existential hands
        # back the prefix's own set; more are a plain union.
        get = self.prefix.existentials.get
        if len(assumptions) == 1:
            var = abs(assumptions[0])
            deps = get(var)
            return frozenset((var,)) if deps is None else deps
        out: set[int] = set()
        for lit in assumptions:
            var = abs(lit)
            deps = get(var)
            if deps is None:
                out.add(var)
            else:
                out |= deps
        return frozenset(out)

    def probe(self, assumptions: Iterable[int]) -> tuple[bool, list[int]]:
        """Propagate the assumptions with every universal they may depend
        on abstracted (see `_propagate`), then unassign every processed
        literal: whether the probe conflicted, and the literals it
        processed in order. Not allowed inside `based`."""
        self._unheld()
        assumptions = tuple(assumptions)
        try:
            return (self._propagate(assumptions, self._dep(assumptions)),
                    self.trail[:])
        finally:
            self.true.clear()
            self.trail.clear()

    def based(self, assumptions: Iterable[int]) -> _Based:
        """Hold the assumptions as a base inside the `with` block, which is
        given whether they conflict: they propagate on entry, as `probe`
        propagates them, and their trail stays on the store, which
        `_extends` extends and `_grow` grows. The trail is empty again
        when the block is left."""
        return _Based(self, tuple(assumptions))

    def _grow(self, literal: int) -> bool | None:
        """Make the held base B the base B + (literal,), as `based` would
        hold it, if the literal depends only on universals B may depend
        on: whether the grown base conflicts. Only the literal and what it
        implies are processed, and the trail and the counts of `_drain`
        are kept. Otherwise None, with the base, its trail and its counts
        as they were. B must not conflict, the literal must not be false
        on B's trail, and no clause may be hidden or shown inside the
        base before it is left (`_drain`, point 3).

        1. With dep(l) inside dep(B), dep(B + l) = dep(B), and draining
           l from B's trail answers as a fresh probe of B + l does
           (`_extends`, points 1 and 2, with E = (l,): where l is already
           true on the trail, nothing is processed and B + l has B's
           assignment). A conflict ends the probe of the caller, which
           reads no trail.
        2. Without a conflict, the trail's set T equals the set T' of a
           fresh probe's trail. Each trail is a derivation from B + l, and
           each assignment meets the end conditions of `_extends`' point 1
           for B + l, under which every derivation from B + l stays
           inside it; so T lies in T' and T' in T. A literal goes on a
           trail at most once, so
           the two trails are as long, and `live`, which a propagation
           lowers once per falsified existential literal of a visible
           clause, reads as the fresh probe leaves it. The grown trail
           is therefore a base's trail for B + l in every respect that
           `_extends`, `_grow` and the readers of `trail` and `true`
           use.
        """
        assumed, abstracted, conflict = self._base
        var = abs(literal)
        deps = self.prefix.existentials.get(var)
        if not (var in abstracted if deps is None else deps <= abstracted):
            return None
        assert not conflict and -literal not in self.true
        conflict = self._drain(deque((literal,)), frozenset((literal,)), abstracted)
        self._base = (assumed | {literal}, abstracted, conflict)
        return conflict

    def _extends(self, fresh: list[int]) -> bool:
        """Whether the held base B, extended by the literals E in `fresh`,
        propagates to a conflict, as a fresh `probe` of A = B + E does.
        Only E and what it implies are processed, and the trail and the
        counts of `_drain` are popped back to B's. B must not conflict,
        no literal of E may be assigned on B's trail, and E must depend
        only on universals B may depend on, so that dep(A) = dep(B):

        1. Whether propagation conflicts does not depend on the order in
           which it processes literals. Call a sequence of literals a
           derivation from A if each is in A or is the unit `_unit` finds
           in some clause under the literals before it; it is refuting if
           it holds a literal and its complement, or some clause is empty
           under it. Derivation is monotone in the assignment: only
           existential and abstracted literals are ever assigned, so under
           a consistent superset of the assignment a clause that was empty
           stays empty, and a clause that was the unit l is l again,
           satisfied by l, or empty once -l is assigned (whether a
           universal blocks l depends on the clause and deps(l) only).
           Propagation returns a conflict only where its trail, with at
           most one more literal of A, is a refuting derivation. Where it
           returns none, its assignment T is consistent and holds A (an
           assumption skipped because its complement was processed would
           have been a conflict then), and no clause is empty or the unit
           of an unassigned literal under T. A clause with no falsified
           literal and no true one reads under T as under the empty
           assignment, where only seeds are empty or units, and the seeds
           are visited first. A clause with a falsified literal was
           visited after the last of them was processed; a unit l found
           then was queued, and -l was never processed later, since that
           would falsify the clause again, so l is in T. By induction and
           monotonicity every derivation from A stays inside T, so none
           is refuting. A conflict is therefore a property of A and the
           abstraction, reached in any order.
        2. B's trail, which `based` propagated on entry, is a derivation
           from B, hence from A = B + E, and as B does not conflict, its
           assignment meets the end conditions of point 1 for B. Draining
           E from there continues that propagation, its counts included
           (`live` goes on from the base's, not from `width`), so it
           visits every clause a new literal falsifies; and a new literal
           whose complement is in B is never processed, since B is
           assigned. The run therefore ends in a refuting derivation from
           A or in the end conditions of point 1 for A, and answers as a
           fresh probe does.
        """
        true, trail, live = self.true, self.trail, self.live
        mark = len(trail)
        self.live = live[:]
        try:
            return self._drain(deque(fresh), frozenset(fresh), self._base[1])
        finally:
            true.difference_update(trail[mark:])
            del trail[mark:]
            self.live = live

    def _refutes_resolvents(self, clause: Clause, pivot: int,
                            target: frozenset[int]) -> bool:
        """`dqrat_plus_check` of the clause C on the existential pivot,
        whose dependency set is `target`, answered from the trail of the
        base -C without building the resolvents. Where no base is held,
        -C is held for the call; a held base other than exactly -C is a
        ContractViolation. Each partner, a visible clause with -pivot, is
        walked once: of its other literals, those over the pivot's outer
        variables (a universal in `target`, an existential whose set lies
        in it) are looked up on the trail. One that is true there settles
        the partner: the resolvent is a tautology, or its negation clashes
        with the trail. Otherwise the negations of those not false there
        go to `_extends`, and a partner that leaves none, or whose
        extension does not conflict, answers no. `dqrat_plus_check`'s
        docstring proves that each partner is answered as a fresh probe
        of the resolvent's negation is."""
        if self._base is None:
            with self.based([-lit for lit in clause]):
                return self._refutes_resolvents(clause, pivot, target)
        assumed, _, conflict = self._base
        if len(assumed) != len(clause) or not assumed.issuperset(map(neg, clause)):
            raise ContractViolation("the held base is not the clause's negation")
        if conflict:
            return True
        get = self.prefix.existentials.get
        clauses, true = self.clauses, self.true
        for cid in self.occurrences.get(-pivot, ()):
            partner = clauses[cid]
            if partner is None:
                continue
            fresh: list[int] = []
            for lit in partner:
                if lit == -pivot:
                    continue
                var = abs(lit)
                deps = get(var)
                if var in target if deps is None else deps <= target:
                    if lit in true:
                        break  # a tautology, or a clash with the base
                    if -lit not in true:
                        fresh.append(-lit)
            else:
                if not fresh or not self._extends(fresh):
                    return False
        return True

    def outcome(self) -> PropagationOutcome:
        """Probe the matrix alone and report the fixpoint formula:
        processed variables removed from the prefix and the unsatisfied
        clauses reduced. The trail is empty again afterwards. Not allowed
        inside `based`."""
        conflict, trail = self.probe(())
        if conflict:
            return PropagationOutcome(True, steps=len(trail))
        true = frozenset(trail)
        exist = self.prefix.existentials
        # a subset of a valid prefix, in its order
        prefix = Prefix._trusted(self.prefix.universals,
                                 {y: deps for y, deps in exist.items()
                                  if y not in true and -y not in true})
        # subsequences of canonical clauses over the unassigned variables;
        # a clause without a falsified literal is reduced as it is
        survivors = Canonical(
            _reduce(c if true.isdisjoint(map(neg, c))
                    else tuple([l for l in c if -l not in true]), exist)
            for c in self.clauses
            if c is not None and true.isdisjoint(c))
        return PropagationOutcome(False, Dqbf(prefix, survivors), true,
                                  len(trail))


class _Based:
    # the block `ClauseStore.based` returns; a class, since a generator's
    # block costs about a microsecond more, and `vivify_clause` enters
    # one per run of subsets with the same abstraction
    __slots__ = ("store", "assumptions")

    def __init__(self, store: ClauseStore, assumptions: tuple[int, ...]) -> None:
        self.store = store
        self.assumptions = assumptions

    def __enter__(self) -> bool:
        store, assumptions = self.store, self.assumptions
        store._unheld()
        abstracted = store._dep(assumptions)
        try:
            conflict = store._propagate(assumptions, abstracted)
        except BaseException:
            self.__exit__()
            raise
        store._base = (frozenset(assumptions), abstracted, conflict)
        return conflict

    def __exit__(self, *exc: object) -> None:
        store = self.store
        store._base = None
        store.true.clear()
        store.trail.clear()


def unit_propagate(formula: Dqbf) -> PropagationOutcome:
    """Run unit propagation with interleaved universal reduction until
    nothing changes (see `ClauseStore.probe`, one of the two places a
    propagation starts; the other, `ClauseStore.based`, propagates its
    base on entry).

    Satisfied clauses are removed, falsified literals deleted, the
    propagated variables leave the prefix, and every remaining clause is
    reduced. Deriving the empty clause is a conflict. Deterministic; the
    fixpoint is itself a fixpoint.
    """
    return ClauseStore(formula).outcome()


def abstract(formula: Dqbf, variables: Iterable[int]) -> Dqbf:
    """Turn the given universal variables into existentials with empty
    dependency sets.

    The chosen variables also disappear from every dependency set; the
    matrix is unchanged. Satisfiability transfers from the original to
    the abstraction, and equivalences proven on abstractions transfer
    back to the original prefix.
    """
    chosen = frozenset(int(v) for v in variables)
    stray = chosen - formula.prefix.universals
    if stray:
        raise ContractViolation(f"not universal variables: {sorted(stray)}")
    if not chosen:
        return formula
    existentials = {y: deps - chosen
                    for y, deps in formula.prefix.existentials.items()}
    for v in chosen:
        existentials[v] = frozenset()
    prefix = Prefix(formula.prefix.universals - chosen, existentials)
    return Dqbf(prefix, Canonical(formula.matrix))


def _store_and_clause(scope: Dqbf | ClauseStore,
                      clause: Iterable[int]) -> tuple[ClauseStore, Clause]:
    # a store is probed in place, its caller vouching for the clause; a
    # Dqbf gets a fresh store and the clause is checked
    if isinstance(scope, ClauseStore):
        return scope, tuple(clause)
    return ClauseStore(scope), _checked(scope.prefix, clause)


def dqat_check(formula: Dqbf | ClauseStore, clause: Iterable[int]) -> bool:
    """Redundancy test: does assuming the clause's negation propagate to a
    conflict once every variable the clause may depend on is abstracted?

    The negated clause is injected as unit assumptions, not registered in
    the matrix proper, and their propagation abstracts what they depend
    on. A positive answer means the clause can be added to the matrix
    without changing the set of Skolem functions. The answer is about the
    matrix as given: a present copy refutes its own negation, so to
    delete a clause, probe without it (`ClauseStore.hidden`). A
    ClauseStore is probed in place, and not inside `ClauseStore.based`,
    where `probe` raises ContractViolation.
    """
    store, canon = _store_and_clause(formula, clause)
    return store.probe([-lit for lit in canon])[0]
