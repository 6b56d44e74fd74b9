"""The clause store behind every propagation: differential tests against
the scan-based reference, the held base and the redundancy walk that
extends its trail, rewrites in place, output hashes of the default
schedule, and linear propagation on implication chains."""

import hashlib
import json
import random
from collections import Counter
from contextlib import nullcontext
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dqprep import (ContractViolation, Dqbf, FuzzBounds, KernelUndefined,
                    PipelineConfig, Prefix, TAUTOLOGY, dep, dqat_check,
                    dqrat_plus_check, emit_dqdimacs, fuzz, normalize_clause,
                    outer_resolvent, run_pipeline)
from dqprep import propagation
from dqprep.propagation import ClauseStore, abstract
from conftest import (WIDE, assert_based_checks_match, chain, counting_calls,
                      formulas, partners, settled_on_base, u_e)
from reference_propagation import scan_unit_propagate

GOLDEN = Path(__file__).with_name("golden_fuzz_0_500.json")
BOUNDS = (FuzzBounds(), FuzzBounds(max_universals=3, max_existentials=6,
                                   max_clauses=16, max_clause_width=3))


@st.composite
def fuzz_formulas(draw) -> Dqbf:
    seed = draw(st.integers(min_value=0, max_value=2 ** 32 - 1))
    return next(fuzz(seed, 1, draw(st.sampled_from(BOUNDS))))


@st.composite
def probes(draw, formula: Dqbf) -> tuple[list[int], frozenset[int]]:
    """Assumption literals over the formula's variables, and a set of
    universals to abstract."""
    variables = sorted(formula.prefix.variables)
    universals = sorted(formula.prefix.universals)
    assumptions = draw(st.lists(
        st.builds(lambda v, s: v * s, st.sampled_from(variables),
                  st.sampled_from((1, -1))), max_size=4)) if variables else []
    abstracted = draw(st.frozensets(st.sampled_from(universals))) \
        if universals else frozenset()
    return assumptions, abstracted


def with_units(formula: Dqbf, assumptions, abstracted) -> Dqbf:
    """The formula with the assumptions appended as unit clauses and the
    given universals abstracted."""
    units = tuple((lit,) for lit in assumptions)
    return abstract(Dqbf(formula.prefix, formula.matrix + units), abstracted)


def reference(formula: Dqbf, assumptions, abstracted):
    return scan_unit_propagate(with_units(formula, assumptions, abstracted))


def fields(outcome):
    return outcome.conflict, outcome.result, outcome.units, outcome.steps


def assert_probe_matches(probed, expected):
    # a probe's conflict answer and trail against a reference outcome
    conflict, trail = probed
    assert (conflict, len(trail)) == (expected.conflict, expected.steps)
    if not conflict:
        assert frozenset(trail) == expected.units


def assert_matches_scan_reference(formula: Dqbf, assumptions, abstracted):
    # the fixpoint of the formula with the assumptions as units under the
    # abstraction S, and the probe of the assumptions on the formula under
    # S, whose own abstraction adds what they depend on: S | dep(A)
    got = ClauseStore(with_units(formula, assumptions, abstracted)).outcome()
    assert fields(got) == fields(reference(formula, assumptions, abstracted))
    reach = abstracted | dep(formula.prefix, assumptions)
    assert_probe_matches(
        ClauseStore(abstract(formula, abstracted)).probe(assumptions),
        reference(formula, assumptions, reach))


@given(st.data())
@settings(max_examples=300)
def test_store_matches_scan_reference(data):
    formula = data.draw(fuzz_formulas())
    assumptions, abstracted = data.draw(probes(formula))
    assert_matches_scan_reference(formula, assumptions, abstracted)


def test_fuzz_stream_matches_scan_reference():
    # the order in which one literal's clauses are visited shows only in
    # the step count of a few conflicts, too rarely for a hundred draws
    rng = random.Random(0)
    for formula in fuzz(1, 4000, FuzzBounds(max_universals=2, max_existentials=8,
                                            max_clauses=24, max_clause_width=3)):
        variables = sorted(formula.prefix.variables)
        if not variables:
            continue
        assumptions = [rng.choice(variables) * rng.choice((1, -1))
                       for _ in range(rng.randint(0, 4))]
        abstracted = frozenset(u for u in formula.prefix.universals
                               if rng.random() < 0.5)
        assert_matches_scan_reference(formula, assumptions, abstracted)


def test_wide_clause_stream_matches_scan_reference():
    rng = random.Random(5)
    for formula in fuzz(7, 800, WIDE):
        variables = sorted(formula.prefix.variables)
        if not variables:
            continue
        assumptions = [rng.choice(variables) * rng.choice((1, -1))
                       for _ in range(rng.randint(0, 4))]
        abstracted = frozenset(u for u in formula.prefix.universals
                               if rng.random() < 0.5)
        assert_matches_scan_reference(formula, assumptions, abstracted)


def test_wide_clause_visit_skips_the_scan():
    # falsifying 3 leaves three existential literals of (1, 3, 4, 5, 6),
    # the universal 1 not counted: the count settles the visit without
    # `_unit`. Falsifying 3, 4 and 5 scans on the third visit only, which
    # finds the unit 6 (1 is not in deps(6)), and on the visit of the
    # binary (-6, 7).
    prefix = u_e({1}, {3: frozenset(), 4: frozenset(), 5: frozenset(),
                       6: frozenset(), 7: frozenset({1})})
    formula = Dqbf(prefix, ((1, 3, 4, 5, 6), (-6, 7)))
    for assumptions, trail, visits, scans in (
            ([-3], [-3], 1, 0),
            ([-3, -4, -5], [-3, -4, -5, 6, 7], 4, 2)):
        store, scan = ClauseStore(formula), ClauseStore(formula)
        scan.width[:] = bytes(len(scan.width))  # every visit scans
        with counting_calls(propagation._unit) as (calls, _):
            assert store.probe(assumptions) == (False, trail)
            assert len(calls) == scans
            assert scan.probe(assumptions) == (False, trail)
        assert store.visits == scan.visits == visits


def test_steps_follow_fifo_order():
    # processing 3 queues -1 (from (-1, -3)) before -2 (from (-2, -3)),
    # behind the assumption 4, which makes (2) a unit; -2 then conflicts
    # as the fourth step. Visiting the clauses of -3 in another order
    # would conflict one step earlier.
    prefix = Prefix(frozenset({1}), {2: frozenset({1}), 3: frozenset(),
                                     4: frozenset()})
    formula = Dqbf(prefix, ((-1, -3, 4), (-1, -3), (-2, -3), (2, -4), (3,)))
    conflict, trail = ClauseStore(abstract(formula, {1})).probe([3, 3, 4])
    expected = reference(formula, [3, 3, 4], frozenset({1}))
    assert expected.conflict and expected.steps == 4
    assert conflict and trail == [3, 4, -1, -2]


# universals 1 and 2; existentials 3 and 4 depend on 1, 5 and 6 on nothing
KERNEL_PREFIX = Prefix(frozenset({1, 2}), {3: frozenset({1}), 4: frozenset({1}),
                                           5: frozenset(), 6: frozenset()})


@pytest.mark.parametrize(
    "matrix, assumptions, abstracted, conflict, units, visits", [
        # `visits` counts the visits the comments describe; each
        # assumption, a unit clause of the matrix here, adds the visit
        # of its seed
        # -4 leaves 3 and the universal 1 in deps(3): not a unit
        (((1, 3, 4),), [-4], frozenset(), False, {-4}, 1),
        # 1 abstracted is a second open literal beside 3: still no unit
        (((1, 3, 4),), [-4], frozenset({1}), False, {-4}, 1),
        # -4 leaves only the abstracted 1, which becomes a unit
        (((1, 4),), [-4], frozenset({1}), False, {-4, 1}, 1),
        # 4 leaves only the universals 1 and 2: a conflict
        (((1, 2, -4),), [4], frozenset(), True, None, 1),
        # 5 leaves 3 and 4 open in both clauses; the second is satisfied
        # by 6, after the two open literals
        (((3, 4, -5), (3, 4, -5, 6)), [6, 5], frozenset(), False, {5, 6}, 2),
        # (1, 2) is a seed, empty unless 1 is abstracted; then it is (1),
        # which leaves (3) of (-1, 3): 1 is no longer in deps(3)
        (((1, 2), (-1, 3)), [], frozenset({1}), False, {1, 3}, 2),
    ])
def test_unit_decision_examples(matrix, assumptions, abstracted, conflict,
                                units, visits):
    formula = Dqbf(KERNEL_PREFIX, matrix)
    store = ClauseStore(with_units(formula, assumptions, abstracted))
    got = store.outcome()
    assert fields(got) == fields(reference(formula, assumptions, abstracted))
    assert got.conflict == conflict
    if not conflict:
        assert got.units == frozenset(units)
    assert store.visits == visits + len(assumptions)


@given(st.data())
@settings(max_examples=100)
def test_probe_undoes_its_trail(data):
    formula = data.draw(fuzz_formulas())
    # a probe abstracts what its assumptions depend on; the drawn
    # abstractions go unused
    assumptions, _ = data.draw(probes(formula))
    second, _ = data.draw(probes(formula))
    store = ClauseStore(formula)
    assert_probe_matches(store.probe(assumptions), reference(
        formula, assumptions, dep(formula.prefix, assumptions)))
    assert store.trail == [] and store.true == set()
    assert_probe_matches(store.probe(second), reference(
        formula, second, dep(formula.prefix, second)))
    again = store.outcome()
    assert fields(again) == fields(scan_unit_propagate(formula))


def test_outcome_leaves_the_store_as_it_found_it():
    # a probe after `outcome` answers as on a fresh store
    formula = Dqbf(u_e(set(), {1: frozenset(), 2: frozenset()}),
                   ((1,), (-1, 2)))
    store = ClauseStore(formula)
    store.outcome()
    assert store.trail == [] and store.true == set()
    assert store.probe([-2]) == ClauseStore(formula).probe([-2]) == (True, [1, -2])


@given(st.data())
@settings(max_examples=150)
def test_rewrites_in_place_match_a_rebuilt_store(data):
    formula = data.draw(fuzz_formulas())
    store = ClauseStore(formula)
    model = list(formula.matrix)  # the matrix the store should list
    variables = sorted(formula.prefix.variables)
    for _ in range(data.draw(st.integers(min_value=0, max_value=4))):
        live = [cid for cid, c in enumerate(store.clauses) if c is not None]
        action = data.draw(st.sampled_from(("delete", "replace", "append")))
        if action == "append" and variables:
            lits = data.draw(st.lists(st.builds(
                lambda v, s: v * s, st.sampled_from(variables),
                st.sampled_from((1, -1))), min_size=1, max_size=3))
            clause = normalize_clause(lits)
            if isinstance(clause, tuple):
                store.append(clause)
                if clause not in model:
                    model.append(clause)
        elif action in ("delete", "replace") and live:
            cid = data.draw(st.sampled_from(live))
            old = store.clauses[cid]
            keep = data.draw(st.lists(st.sampled_from(old), unique=True)) \
                if old else []
            shorter = normalize_clause(keep)
            if action == "delete" or store.find(shorter) not in (None, cid):
                store.delete(cid)
                model.remove(old)
            elif shorter != old:
                store.shorten(cid, shorter)
                model[model.index(old)] = shorter
    assert store.formula().matrix == tuple(model)
    for clause in model:
        assert store.clauses[store.find(clause)] == clause
    for lit, ids in store.occurrences.items():
        assert ids == [cid for cid, c in enumerate(store.clauses)
                       if c is not None and lit in c]
    rebuilt = ClauseStore(Dqbf(formula.prefix, tuple(model)))
    assumptions, _ = data.draw(probes(formula))
    assert store.probe(assumptions) == rebuilt.probe(assumptions)
    assert fields(store.outcome()) == fields(rebuilt.outcome())


@given(st.data())
@settings(max_examples=150)
def test_shorten_and_append_keep_the_matrix_duplicate_free(data):
    # the commit path of the passes: a shortened clause takes the place of
    # the original, or the original goes if the shorter one is present;
    # `append` reports whether it added its clause
    formula = data.draw(fuzz_formulas())
    store = ClauseStore(formula)
    model = list(formula.matrix)
    for cid, old in enumerate(formula.matrix):
        if not old or not data.draw(st.booleans()):
            continue
        shorter = normalize_clause(data.draw(st.lists(
            st.sampled_from(old), unique=True, max_size=len(old) - 1)))
        if data.draw(st.booleans()):
            assert store.append(shorter) is (shorter not in model)
            if shorter not in model:
                model.append(shorter)
        store.shorten(cid, shorter)
        if shorter in model:
            model.remove(old)
        else:
            model[model.index(old)] = shorter
    assert store.formula().matrix == tuple(model)
    for lit, ids in store.occurrences.items():
        assert ids == [cid for cid, c in enumerate(store.clauses)
                       if c is not None and lit in c]
    rebuilt = ClauseStore(Dqbf(formula.prefix, tuple(model)))
    assert ({store.clauses[cid] for cid in store.seeds} - {None}
            == {rebuilt.clauses[cid] for cid in rebuilt.seeds})


@given(st.data())
@settings(max_examples=100)
def test_hidden_clause_is_left_out(data):
    formula = data.draw(fuzz_formulas())
    if not formula.matrix:
        return
    cid = data.draw(st.integers(min_value=0, max_value=len(formula.matrix) - 1))
    assumptions, _ = data.draw(probes(formula))
    rest = Dqbf(formula.prefix, formula.matrix[:cid] + formula.matrix[cid + 1:])
    store = ClauseStore(formula)
    with store.hidden(cid) as clause:
        assert clause == formula.matrix[cid]
        assert store.find(clause) is None
        probed = store.probe(assumptions)
        got = store.outcome()
    assert_probe_matches(probed, reference(
        rest, assumptions, dep(formula.prefix, assumptions)))
    assert fields(got) == fields(scan_unit_propagate(rest))
    assert store.formula() == formula


def test_refutation_inside_a_base_matches_on_fuzz_stream():
    # every existential-pivot check inside the base of its clause's
    # negation, against the same check without a base and the reference;
    # each case of the walk is reached
    reached = Counter()
    for formula in fuzz(41, 600, FuzzBounds(3, 5, 12, 3)):
        assert_based_checks_match(formula, reached)
    assert set(reached) == {"conflicting base", "tautology", "clash",
                            "nothing new", "extension"}, reached


def test_refutation_inside_a_base_matches_on_wide_clause_stream():
    # clauses wide enough for the counts of `_drain` to settle visits
    # inside the base; each check runs after the one before it popped its
    # trail, so counts it failed to restore show in the next
    reached = Counter()
    for formula in fuzz(43, 1000, WIDE):
        assert_based_checks_match(formula, reached)
    assert set(reached) == {"conflicting base", "tautology", "clash",
                            "nothing new", "extension"}, reached


def test_walk_extends_from_the_counts_of_its_base():
    # with (1, 5) hidden, the base -1, -5 leaves three existential
    # literals of (1, 2, 3, 4); the resolvent (1, 2, 3, 5) on pivot 5
    # extends it by -2, -3, which must find the unit 4, and 4 conflicts.
    # Counts started from the clause's width would settle both visits
    # and miss it.
    formula = Dqbf(u_e((), {v: frozenset() for v in range(1, 7)}),
                   ((1, 5), (1, 2, 3, 4), (-4, 6), (-4, -6), (2, 3, -5)))
    store = ClauseStore(formula)
    with store.hidden(0) as clause:
        assert dqrat_plus_check(store, clause, 5)
        with store.based([-1, -5]):
            counts = store.live[:]
            assert counts[1] == 3
            assert dqrat_plus_check(store, clause, 5)
            assert store.live == counts and store.trail == [-1, -5]
    assert ClauseStore(Dqbf(formula.prefix, formula.matrix[1:])).probe(
        [-1, -2, -3, -5])[0]


def test_extension_on_the_base_trail_is_answered_without_draining(monkeypatch):
    # a partner settled on the base's trail, by a clash, a resolvent that
    # adds nothing to it, a tautology or a base that conflicts, is
    # answered without `_drain`: inside the base of each clause's
    # negation, the checks of its existential pivots drain once per
    # partner the trail leaves open, and no more
    drains = []
    drain = ClauseStore._drain

    def counting_drain(self, *args):
        drains.append(args)
        return drain(self, *args)

    monkeypatch.setattr(ClauseStore, "_drain", counting_drain)
    settled, answers = set(), set()
    for formula in fuzz(47, 300, FuzzBounds(3, 5, 12, 3)):
        prefix = formula.prefix
        store = ClauseStore(formula)
        for cid, clause in enumerate(formula.matrix):
            rest = Dqbf(prefix, formula.matrix[:cid] + formula.matrix[cid + 1:])
            with store.hidden(cid), store.based([-lit for lit in clause]):
                for pivot in clause:
                    if abs(pivot) not in prefix.existentials:
                        continue
                    # the partners the check walks, until one fails; the
                    # fresh probes of the reference drain too, so they
                    # run before the drains are counted
                    opened = 0
                    for partner in partners(store, pivot):
                        resolvent = outer_resolvent(prefix, clause, partner, pivot)
                        case = settled_on_base(store, clause, resolvent)
                        if case is None:
                            opened += 1
                            if not dqat_check(rest, resolvent):
                                break
                        else:
                            settled.add(case)
                            if case == "nothing new":
                                break
                    drained = len(drains)
                    answer = dqrat_plus_check(store, clause, pivot)
                    assert len(drains) - drained == opened
                    if not opened:
                        answers.add(answer)
    assert settled == {"clash", "nothing new", "tautology",
                       "conflicting base"}
    assert answers == {False, True}


def test_checks_under_a_base_they_cannot_use_are_refused():
    # `dqrat_plus_check` on an existential pivot under a base other than
    # the clause's negation, and `dqat_check` under any base, the one a
    # universal pivot's check makes included, raise ContractViolation
    # and leave the trail where it was
    formula = Dqbf(u_e({1, 2}, {3: frozenset({1}), 4: frozenset({2})}),
                   ((3, 4), (1, -3), (-1, 4), (-4, 3)))
    store = ClauseStore(formula)
    for base in ([-3, -4], [-3], [-3, -4, 1], [4, -3]):
        with store.based(base):
            trail = store.trail[:]
            checks = [lambda: dqat_check(store, (3, 4)),
                      lambda: dqrat_plus_check(store, (1, -3), 1)]
            if base != [-3, -4]:
                checks.append(lambda: dqrat_plus_check(store, (3, 4), 3))
            for check in checks:
                with pytest.raises(ContractViolation):
                    check()
                assert store.trail == trail and store.true == set(trail)
    assert store.trail == [] and dqat_check(store, (3, 4))


def recounted(store: ClauseStore) -> bytearray:
    # `width` as its definition gives it, from the clauses alone
    exist = store.prefix.existentials
    counts = [0 if c is None else sum(abs(l) in exist for l in c)
              for c in store.clauses]
    return bytearray(min(n, 255) if n > 2 else 0 for n in counts)


@given(st.data())
@settings(max_examples=150)
def test_width_follows_every_rewrite_and_probe(data):
    formula = next(fuzz(data.draw(st.integers(0, 2 ** 32 - 1)), 1, WIDE))
    variables = sorted(formula.prefix.variables)
    if not variables:
        return
    literal = st.builds(lambda v, s: v * s, st.sampled_from(variables),
                        st.sampled_from((1, -1)))
    store = ClauseStore(formula)
    for _ in range(data.draw(st.integers(1, 6))):
        present = [cid for cid, c in enumerate(store.clauses) if c is not None]
        action = data.draw(st.sampled_from(
            ("shorten", "append", "delete", "probe", "based")))
        if action == "append":
            clause = normalize_clause(data.draw(st.lists(literal, max_size=6)))
            if isinstance(clause, tuple):
                store.append(clause)
        elif action in ("shorten", "delete") and present:
            cid = data.draw(st.sampled_from(present))
            old = store.clauses[cid]
            if action == "delete" or not old:
                store.delete(cid)
            else:
                store.shorten(cid, normalize_clause(data.draw(st.lists(
                    st.sampled_from(old), unique=True, max_size=len(old) - 1))))
        elif action == "probe":
            store.probe(data.draw(st.lists(literal, max_size=4)))
        elif action == "based" and present:
            # the existential pivots of a clause, checked inside the base
            # of its negation, with the clause hidden or present
            cid = data.draw(st.sampled_from(present))
            clause = store.clauses[cid]
            fail = data.draw(st.booleans())
            try:
                with store.hidden(cid) if data.draw(st.booleans()) \
                        else nullcontext(), store.based([-l for l in clause]):
                    counts = store.live[:]
                    for pivot in clause:
                        if abs(pivot) in formula.prefix.existentials:
                            dqrat_plus_check(store, clause, pivot)
                            assert store.live == counts
                    if fail:
                        raise KeyError(cid)
            except KeyError:
                assert fail
            assert store.trail == [] and store.true == set()
        assert store.width == recounted(store)
    assert store.probe(()) == ClauseStore(store.formula()).probe(())


def test_base_is_taken_back_when_an_exception_leaves_the_block():
    # universal 2 has no dependent, so resolving on it has no kernel
    formula = Dqbf(u_e({1, 2}, {3: frozenset({1})}), ((2, 3), (-2, 3), (1, -3)))
    store = ClauseStore(formula)
    with pytest.raises(KernelUndefined):
        with store.hidden(0) as clause, store.based([-2, -3]):
            assert not dqrat_plus_check(store, clause, 3)
            assert store.trail == [-2, -3]
            with pytest.raises(ContractViolation):
                with store.based([-2]):
                    pass
            assert store.trail == [-2, -3]
            dqrat_plus_check(store, clause, 2)
    assert store.trail == [] and store.true == set()
    assert store.formula() == formula
    assert store.probe([-2, -3]) == ClauseStore(formula).probe([-2, -3])


@given(st.data())
@settings(max_examples=150)
def test_base_propagates_on_entry(data):
    # the base's trail is on the store before any check, as a fresh probe
    # leaves it; where the base is a clause's negation and conflicts,
    # every existential pivot of the clause is answered yes and the
    # trail stays where it is
    formula = data.draw(formulas(max_clauses=8))
    variables = sorted(formula.prefix.variables)
    if not variables:
        return
    literal = st.builds(lambda v, s: v * s, st.sampled_from(variables),
                        st.sampled_from((1, -1)))
    clause = normalize_clause(data.draw(st.lists(literal, max_size=3)))
    if clause is TAUTOLOGY:
        return
    base = [-lit for lit in clause]
    conflict, trail = ClauseStore(formula).probe(base)
    store = ClauseStore(formula)
    with store.based(base):
        assert store.trail == trail and store.true == set(trail)
        if conflict:
            for pivot in clause:
                if abs(pivot) in formula.prefix.existentials:
                    assert dqrat_plus_check(store, clause, pivot)
                    assert store.trail == trail


def test_conflicting_base_refutes_every_extension():
    # 1 implies both 2 and -2: the base [1], the negation of (-1), conflicts
    # as it is taken, and every partner of the pivot -1 passes, whether
    # its resolvent clashes with the trail, adds a literal or is taken
    # from the base's own literals
    formula = Dqbf(u_e((), {1: frozenset(), 2: frozenset(), 3: frozenset()}),
                   ((-1, 2), (-1, -2), (1, 2), (1, -2), (1, 3), (1,)))
    store = ClauseStore(formula)
    with store.based([1]):
        assert store.trail == [1, 2] == ClauseStore(formula).probe([1])[1]
        assert dqrat_plus_check(store, (-1,), -1)
        assert store.trail == [1, 2]


def test_default_schedule_outputs_match_golden_hashes():
    # SHA-256 of the emitted DQDIMACS of every output of fuzz(0, 500)
    # under the default schedule, as produced by the scan-based
    # propagation this store replaced
    expected = json.loads(GOLDEN.read_text())
    got = [hashlib.sha256(emit_dqdimacs(
               run_pipeline(PipelineConfig(), formula)[0]).encode()).hexdigest()
           for formula in fuzz(0, 500)]
    assert got == expected


def test_chain_propagation_visits_grow_linearly():
    ratios = []
    for links in (1000, 2000, 4000):
        formula = chain(links)
        store = ClauseStore(formula)
        outcome = store.outcome()
        assert not outcome.conflict and outcome.steps == links + 1
        assert outcome.result.matrix == ()
        literals = sum(len(c) for c in formula.matrix)
        ratios.append(store.visits / literals)
    assert max(ratios) <= 1
    assert ratios[-1] <= ratios[0] * 1.01
