"""Vivification, polarity lookahead, and redundancy elimination."""

from collections import Counter

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import (assert_based_checks_match, formulas, partners,
                      random_cnf, reference_dqrat_plus_check, settled_on_base,
                      u_e)
from dqprep import (CompatibilityError, ContractViolation, Dqbf, FuzzBounds,
                    KernelUndefined, TAUTOLOGY, VivifyKind, dep,
                    dqat_check, dqrat_eliminate_pass, dqrat_plus_check,
                    equisatisfiable, equivalent, fuzz, normalize_clause,
                    outer_resolvent,
                    outer_variables, solve_brute, upla_apply, upla_pass,
                    upla_probe, vivify_clause, vivify_pass)
from dqprep import techniques
from dqprep.propagation import ClauseStore
from dqprep.reports import PassReport
from dqprep.techniques import DEFAULT_VIVIFY_BUDGET, _Kept, _resolve


def flat(n):
    return u_e(set(), {v: frozenset() for v in range(1, n + 1)})


# -- vivification -----------------------------------------------------------


def test_vivify_strengthens_from_propagated_literal():
    f = Dqbf(flat(3), ((-1, 2), (-1, 2, 3)))
    r = vivify_clause(f, (-1, 2, 3))
    assert r.kind is VivifyKind.STRENGTHENED
    assert r.new_clause == (-1, 2)


def test_vivify_replaces_with_proper_subset():
    f = Dqbf(flat(3), ((-1, 2), (-1, -2), (-1, 3)))
    r = vivify_clause(f, (-1, 3))
    assert r.kind is VivifyKind.REPLACED
    assert r.new_clause == (-1,)


def test_vivify_probes_without_the_clause_itself():
    # with the clause left in, assuming not-1 would propagate 2 and
    # self-subsume; the probe must not use the clause under test
    f = Dqbf(flat(2), ((1, 2),))
    assert vivify_clause(f, (1, 2)).kind is VivifyKind.UNCHANGED


def test_vivify_does_not_strengthen_to_the_whole_clause():
    # assuming not-1 propagates 3 and then 2, the clause's last literal
    f = Dqbf(flat(3), ((1, 2), (1, 3), (-3, 2)))
    assert vivify_clause(f, (1, 2)).kind is VivifyKind.UNCHANGED


def test_vivify_short_clause_unchanged():
    f = Dqbf(flat(1), ((1,),))
    assert vivify_clause(f, (1,)).kind is VivifyKind.UNCHANGED


def test_vivify_zero_budget_unchanged():
    f = Dqbf(flat(3), ((-1, 2), (-1, -2), (-1, 3)))
    assert vivify_clause(f, (-1, 3), budget=0).kind is VivifyKind.UNCHANGED


def test_vivify_rejects_foreign_clause():
    f = Dqbf(flat(2), ((1, 2),))
    with pytest.raises(ContractViolation):
        vivify_clause(f, (1, -2))


def test_vivify_rejects_clause_over_undeclared_variable():
    f = Dqbf(flat(2), ((1, 2),))
    with pytest.raises(CompatibilityError):
        vivify_clause(f, (1, 7))


def test_vivify_pass_merges_into_existing_clause():
    f = Dqbf(flat(3), ((-1, 2), (-1, 2, 3)))
    out, report = vivify_pass(f)
    assert out.matrix == ((-1, 2),)
    assert report.clauses_shortened == 1
    assert report.clauses_removed == 0


def test_vivify_pass_keeps_refuted_formula():
    f = Dqbf(flat(2), ((), (1, 2)))
    out, report = vivify_pass(f)
    assert out == f and not report.changed


def test_vivify_pass_records_derived_conflict():
    f = Dqbf(flat(3), ((1,), (-1,), (2, 3)))
    out, report = vivify_pass(f)
    assert () in out.matrix
    assert report.conflicts == 1


@given(formulas())
@settings(max_examples=60)
def test_vivify_clause_preserves_equivalence(formula):
    for clause in formula.matrix:
        result = vivify_clause(formula, clause)
        if result.kind is VivifyKind.UNCHANGED:
            continue
        assert set(result.new_clause) < set(clause)
        rewritten = Dqbf(formula.prefix,
                         tuple(result.new_clause if c == clause else c
                               for c in formula.matrix))
        assert equivalent(formula, rewritten)


@given(formulas())
@settings(max_examples=60)
def test_vivify_pass_preserves_equivalence_and_size(formula):
    out, _ = vivify_pass(formula)
    assert equivalent(formula, out)
    assert (sum(len(c) for c in out.matrix)
            <= sum(len(c) for c in formula.matrix))


def probing_vivify_clause(store, clause, budget, probed=None):
    # `vivify_clause` on a store, probing every subset, the empty one too,
    # each noted in `probed` if given
    cid = store.find(clause)
    if len(clause) < 2:
        return None
    occurrences = store.occurrences
    order = sorted(clause, key=lambda lit: (-len(occurrences.get(lit, ())), abs(lit)))
    steps_used = 0
    with store.hidden(cid):
        for size in range(len(clause)):
            if steps_used >= budget:
                return None
            subset = order[:size]
            if probed is not None:
                probed.append(subset)
            conflict, units = store.probe([-lit for lit in subset])
            steps_used += len(units)
            if conflict:
                return tuple(sorted(subset, key=abs))
            if size + 1 == len(clause):
                return None
            for lit in order[size:]:
                if lit in units:
                    return tuple(sorted(subset + [lit], key=abs))
    return None


def probing_vivify_pass(formula, budget):
    # `vivify_pass` through `probing_vivify_clause`, clause by clause
    report = PassReport("vivify")
    if () in formula.matrix:
        return formula, report
    store = ClauseStore(formula)
    for cid, clause in enumerate(store.clauses):
        new_clause = probing_vivify_clause(store, clause, budget)
        if new_clause is None:
            continue
        store.shorten(cid, new_clause)
        if new_clause == ():
            report.conflicts += 1
            break
        report.clauses_shortened += 1
    return store.formula(), report


@given(formulas(), st.sampled_from([0, 1, 2, DEFAULT_VIVIFY_BUDGET]))
def test_vivify_pass_matches_probing_every_subset(formula, budget):
    assert vivify_pass(formula, budget) == probing_vivify_pass(formula, budget)


def test_vivify_pass_matches_probing_every_subset_on_fuzz_stream():
    changed = 0
    for formula in fuzz(37, 300, FuzzBounds(4, 6, 14, 4)):
        for budget in (0, 1, DEFAULT_VIVIFY_BUDGET):
            out = vivify_pass(formula, budget)
            assert out == probing_vivify_pass(formula, budget)
            changed += out[1].changed
    assert changed > 50


def test_vivify_probes_the_matrix_alone_only_with_a_visible_seed(monkeypatch):
    # the empty subset of a clause probes the matrix alone, which without
    # a visible seed propagates nothing; universal 1, existential 2 not
    # depending on it, so (1, 2) reduces to (2) and is a seed
    prefix = u_e({1}, {2: frozenset(), 3: frozenset(), 4: frozenset()})
    probed = []
    propagate = ClauseStore._propagate

    def noting_propagate(self, assumptions, abstracted):
        probed.append(assumptions)
        return propagate(self, assumptions, abstracted)

    monkeypatch.setattr(ClauseStore, "_propagate", noting_propagate)
    cases = (((2, 3), (-3, 4)), ((1, 2), (-2, 3, 4)), ((2,), (-2, 3, 4)))
    for matrix, alone in zip(cases, (False, True, True)):
        probed.clear()
        vivify_pass(Dqbf(prefix, matrix))
        assert probed and (() in probed) == alone
    # (1, 2) itself, hidden while it is vivified, probes no empty subset;
    # (-2, 3, 4) sees it
    probed.clear()
    assert vivify_clause(Dqbf(prefix, cases[1]), (1, 2)).kind is VivifyKind.UNCHANGED
    assert () not in probed
    probed.clear()
    vivify_clause(Dqbf(prefix, cases[1]), (-2, 3, 4))
    assert probed[0] == ()


def test_vivify_propagates_afresh_where_the_abstraction_grows():
    # universal 1; 2 and 3 depend on it, 4 on nothing. With (1, -2, 3)
    # hidden, (-1, -4) reduces to the seed (-4), so the empty subset
    # propagates -4, and (1, -2, 4) stays open. The subset (1) abstracts
    # 1, which leaves (-1, -4) open and -4 unassigned; (1, -2) then
    # propagates 4 and no conflict. Growing the empty subset's trail by -1
    # would keep -4, falsify (1, -2, 4) and shorten the clause to (1, -2).
    formula = Dqbf(u_e({1}, {2: frozenset({1}), 3: frozenset({1}), 4: frozenset()}),
                   ((1, -2, 3), (-1, -4), (1, -2, 4)))
    assert vivify_pass(formula) == (formula, PassReport("vivify"))


def test_vivify_pass_matches_probing_every_subset_under_every_budget():
    # formulas larger than `formulas` draws, where subsets run longer
    # and their abstractions grow more often
    for formula in random_cnf(4, 300):
        for budget in (0, 1, 2, 3, 5, DEFAULT_VIVIFY_BUDGET):
            assert vivify_pass(formula, budget) == probing_vivify_pass(formula, budget)


def test_vivify_propagates_once_per_abstraction(monkeypatch):
    # a clause's probed subsets, the empty one only with a visible seed,
    # propagate afresh once per distinct dependency set; each other subset
    # grows the trail of the one before. Probing every subset afresh
    # propagates once per subset.
    fresh = []
    propagate = ClauseStore._propagate

    def noting_propagate(self, assumptions, abstracted):
        fresh.append(assumptions)
        return propagate(self, assumptions, abstracted)

    monkeypatch.setattr(ClauseStore, "_propagate", noting_propagate)
    subsets = abstractions = 0
    for formula in random_cnf(9, 100):
        store = ClauseStore(formula)
        for cid, clause in enumerate(formula.matrix):
            with store.hidden(cid):
                seeded = any(store.clauses[s] is not None for s in store.seeds)
            for budget in (3, DEFAULT_VIVIFY_BUDGET):
                probed = []
                expected = probing_vivify_clause(store, clause, budget, probed)
                probed = [s for s in probed if s or seeded]
                fresh.clear()
                assert vivify_clause(store, clause, budget).new_clause == expected
                distinct = {dep(formula.prefix, [-lit for lit in s]) for s in probed}
                assert len(fresh) == len(distinct)
                subsets += len(probed)
                abstractions += len(distinct)
    # 6,586 subsets under 6,334 abstractions
    assert subsets - abstractions > 200


# -- polarity lookahead -----------------------------------------------------


def test_upla_one_sided_force():
    f = Dqbf(flat(1), ((1,),))
    findings = upla_probe(f, 1)
    assert findings.forced == frozenset({1})
    assert findings.common_units == frozenset()
    assert findings.equivalences == frozenset()


def test_upla_contradictory_force():
    f = Dqbf(flat(1), ((1,), (-1,)))
    findings = upla_probe(f, 1)
    assert findings.contradictory
    assert upla_apply(f, findings).matrix == ((),)


def test_upla_detects_equivalence():
    f = Dqbf(flat(2), ((-1, 2), (1, -2)))
    findings = upla_probe(f, 1)
    assert findings.forced == frozenset()
    assert findings.common_units == frozenset()
    assert findings.equivalences == frozenset({(1, 2)})
    # the clauses encoding the equivalence are already there
    assert upla_apply(f, findings) == f


def test_upla_pass_counts_new_equivalence_clauses():
    # 1 implies 3 implies 2 implies 1, probing finds the whole cycle
    f = Dqbf(flat(3), ((-1, 3), (-3, 2), (1, -2)))
    out, report = upla_pass(f)
    assert report.units_added == 0
    assert report.equivalences_added == 3
    assert (-1, 2) in out.matrix and (1, -3) in out.matrix


def test_upla_detects_common_unit():
    f = Dqbf(flat(2), ((-1, 2), (1, 2)))
    findings = upla_probe(f, 1)
    assert findings.common_units == frozenset({2})
    assert findings.equivalences == frozenset()


def test_upla_universal_common_unit_is_sound():
    # both probes of the existential propagate the universal literal;
    # the added unit clause collapses under reduction, and indeed the
    # formula was unsatisfiable to begin with
    f = Dqbf(u_e({1}, {2: frozenset({1})}), ((1, -2), (1, 2)))
    findings = upla_probe(f, 2)
    assert findings.common_units == frozenset({1})
    assert not solve_brute(f).satisfiable


def test_upla_rejects_unknown_variable():
    with pytest.raises(CompatibilityError):
        upla_probe(Dqbf(flat(1), ()), 9)


def test_upla_pass_applies_findings_in_order():
    f = Dqbf(flat(2), ((-1, 2), (1, 2)))
    out, report = upla_pass(f)
    assert out.matrix == ((-1, 2), (1, 2), (2,))
    assert report.units_added == 1
    assert report.equivalences_added == 0


def test_upla_pass_contradiction_refutes():
    f = Dqbf(flat(1), ((1,), (-1,)))
    out, report = upla_pass(f)
    assert out.matrix == ((),)
    assert report.conflicts == 1


def test_upla_pass_existential_only_skips_universals(monkeypatch):
    import dqprep.techniques as techniques
    probed = []
    original = techniques.upla_probe

    def recording(formula, var):
        probed.append(var)
        return original(formula, var)

    monkeypatch.setattr(techniques, "upla_probe", recording)
    f = Dqbf(u_e({1}, {2: frozenset({1})}), ((1, 2),))
    techniques.upla_pass(f, existential_only=True)
    assert probed == [2]
    probed.clear()
    techniques.upla_pass(f)
    assert probed == [1, 2]


@given(formulas())
@settings(max_examples=60)
def test_upla_pass_is_sound(formula):
    out, _ = upla_pass(formula)
    if out == formula:
        return
    if out.matrix == ((),):
        assert not solve_brute(formula).satisfiable
    else:
        assert equivalent(formula, out)


# -- outer variable sets ----------------------------------------------------


def test_outer_sets_for_existential():
    p = u_e({1, 2}, {3: frozenset({1}), 4: frozenset({1, 2})})
    sets = outer_variables(p, 3)
    assert sets.outer == frozenset({1, 3})
    assert sets.dependents is None
    assert sets.kernel is None


def test_outer_sets_for_universal():
    p = u_e({1, 2}, {3: frozenset({1}), 4: frozenset({1, 2})})
    sets = outer_variables(p, 2)
    assert sets.dependents == frozenset({4})
    assert sets.independents == frozenset({3})
    assert sets.kernel == frozenset({1, 2})
    assert sets.outer == frozenset({1, 2, 3})


def test_outer_sets_universal_without_dependents():
    p = u_e({1}, {2: frozenset()})
    with pytest.raises(KernelUndefined):
        outer_variables(p, 1)


def test_outer_sets_unknown_variable():
    with pytest.raises(CompatibilityError):
        outer_variables(flat(1), 5)


@given(formulas())
def test_outer_sets_invariants(formula):
    prefix = formula.prefix
    for var in sorted(prefix.existentials):
        sets = outer_variables(prefix, var)
        assert var in sets.outer
        assert prefix.existentials[var] <= sets.outer
    for var in sorted(prefix.universals):
        try:
            sets = outer_variables(prefix, var)
        except KernelUndefined:
            continue
        assert var in sets.kernel
        assert sets.kernel <= sets.outer
        assert not (sets.dependents & sets.outer)


# -- outer resolvents -------------------------------------------------------


def test_resolvent_existential_pivot_keeps_pivot():
    assert outer_resolvent(flat(3), (1, 2), (-1, 3), 1) == (1, 2, 3)


def test_resolvent_restricts_partner_to_outer_variables():
    p = u_e({1}, {2: frozenset(), 3: frozenset({1})})
    assert outer_resolvent(p, (2,), (1, -2, 3), 2) == (2,)


def test_resolvent_universal_pivot_keeps_complement():
    p = u_e({1}, {2: frozenset({1})})
    assert outer_resolvent(p, (1, 2), (-1, -2), 1) == (-1, 2)


def test_resolvent_can_be_tautology():
    assert outer_resolvent(flat(2), (1, 2), (-1, -2), 1) is TAUTOLOGY


def test_resolvent_rejects_bad_pivot():
    with pytest.raises(ContractViolation):
        outer_resolvent(flat(2), (1, 2), (-1,), 2)


def test_resolvent_rejects_tautological_input():
    with pytest.raises(ContractViolation):
        outer_resolvent(flat(2), (1, -1, 2), (-1,), 1)


def test_resolvent_rejects_clause_over_undeclared_variable():
    with pytest.raises(CompatibilityError):
        outer_resolvent(flat(2), (1, 7), (-1, 2), 1)
    with pytest.raises(CompatibilityError):
        outer_resolvent(flat(2), (1, 2), (-1, 7), 1)


@given(formulas())
def test_resolve_matches_outer_resolvent_on_canonical_clauses(formula):
    prefix = formula.prefix
    for first in formula.matrix:
        for pivot in first:
            if abs(pivot) in prefix.existentials:
                continue
            try:
                outer = outer_variables(prefix, abs(pivot)).outer
            except KernelUndefined:
                continue
            for second in formula.matrix:
                if -pivot in second:
                    assert (_resolve(first, second, pivot, outer)
                            == outer_resolvent(prefix, first, second, pivot))


_LITERALS = st.builds(lambda var, sign: var * sign, st.integers(1, 8),
                      st.sampled_from((1, -1)))


@given(st.data())
def test_resolve_merges_as_normalization_does(data):
    # the resolvent built as a set against normalizing the concatenated
    # parts, on canonical clauses and any outer set of a universal pivot
    canon = normalize_clause(data.draw(st.lists(_LITERALS, min_size=1, max_size=7)))
    assume(canon is not TAUTOLOGY)
    pivot = data.draw(st.sampled_from(canon))
    partner = normalize_clause(data.draw(st.lists(_LITERALS, max_size=7)) + [-pivot])
    assume(partner is not TAUTOLOGY)
    outer = data.draw(st.frozensets(st.integers(1, 8)))
    merged = ([lit for lit in canon if lit != pivot]
              + [lit for lit in partner if abs(lit) in outer])
    assert _resolve(canon, partner, pivot, outer) == normalize_clause(merged)


# -- redundancy elimination -------------------------------------------------


def test_dqrat_check_vacuous_without_partners():
    f = Dqbf(flat(1), ((1,),))
    assert dqrat_plus_check(f, (1,), 1)


def test_dqrat_check_rejects_needed_clause():
    # checked against the rest of the matrix, as the sweep does
    context = Dqbf(flat(2), ((-1, 2), (1, -2), (-1, -2)))
    assert not dqrat_plus_check(context, (1, 2), 1)
    assert not dqrat_plus_check(context, (1, 2), 2)


def test_probes_answer_about_the_matrix_as_given():
    # on H = (x), (-x) a present (x) refutes its own negation, so both
    # probes accept it, yet deleting it leaves a satisfiable formula;
    # probed without it, as the passes probe with it hidden, both reject
    unsat = Dqbf(flat(1), ((1,), (-1,)))
    assert dqrat_plus_check(unsat, (1,), 1) and dqat_check(unsat, (1,))
    rest = Dqbf(flat(1), ((-1,),))
    assert not solve_brute(unsat).satisfiable and solve_brute(rest).satisfiable
    assert not dqrat_plus_check(rest, (1,), 1) and not dqat_check(rest, (1,))


def test_dqrat_check_rejects_tautology_and_bad_pivot():
    f = Dqbf(flat(2), ())
    with pytest.raises(ContractViolation):
        dqrat_plus_check(f, (1, -1), 1)
    with pytest.raises(ContractViolation):
        dqrat_plus_check(f, (1,), 2)
    # a pivot outside the clause is refused on a store too, where the
    # walk over the partners of -1 would otherwise answer yes
    g = Dqbf(u_e({1}, {2: frozenset({1}), 3: frozenset({1})}),
             ((2, 3), (-1, 2), (1, -3)))
    for scope in (g, ClauseStore(g)):
        with pytest.raises(ContractViolation):
            dqrat_plus_check(scope, (2, 3), 1)


def dqrat_verdict(check, scope, clause, pivot):
    try:
        return check(scope, clause, pivot)
    except KernelUndefined:
        return KernelUndefined


def assert_dqrat_checks_match_reference(formula):
    # every clause against the rest, on one store, as the sweep checks
    # it; returns the verdicts seen
    store = ClauseStore(formula)
    seen = set()
    for cid, clause in enumerate(formula.matrix):
        rest = Dqbf(formula.prefix, formula.matrix[:cid] + formula.matrix[cid + 1:])
        with store.hidden(cid):
            for pivot in clause:
                verdict = dqrat_verdict(dqrat_plus_check, store, clause, pivot)
                assert verdict == dqrat_verdict(reference_dqrat_plus_check,
                                                rest, clause, pivot)
                seen.add(verdict)
    return seen


@given(formulas())
def test_dqrat_check_on_a_store_matches_reference(formula):
    assert_dqrat_checks_match_reference(formula)


def test_dqrat_check_matches_reference_on_fuzz_stream():
    seen = set()
    for formula in fuzz(17, 400, FuzzBounds(4, 6, 14, 4)):
        seen |= assert_dqrat_checks_match_reference(formula)
    assert seen == {True, False, KernelUndefined}


@given(formulas())
def test_dqrat_check_inside_a_base_matches_without_and_reference(formula):
    assert_based_checks_match(formula, Counter())


def test_dqrat_check_inside_a_base_matches_on_fuzz_stream():
    reached = Counter()
    for formula in fuzz(17, 400, FuzzBounds(4, 6, 14, 4)):
        assert_based_checks_match(formula, reached)
    assert set(reached) == {"conflicting base", "tautology", "clash",
                            "nothing new", "extension"}, reached


def assert_store_probes_match_dqbf(formula):
    # each probe on one store of the formula, which takes the clause as
    # canonical, against the same probe on the formula, which checks it;
    # returns the dqat verdicts and vivify kinds seen
    store = ClauseStore(formula)
    seen = set()
    for clause in formula.matrix:
        result = vivify_clause(store, clause)
        assert result == vivify_clause(formula, clause)
        seen.add(result.kind)
        for lit in clause:
            shorter = tuple(l for l in clause if l != lit)
            verdict = dqat_check(store, shorter)
            assert verdict == dqat_check(formula, shorter)
            seen.add(verdict)
    for var in sorted(formula.prefix.variables):
        assert upla_probe(store, var) == upla_probe(formula, var)
    assert store.formula() == formula and not store.trail
    return seen


@given(formulas())
def test_store_probes_match_dqbf_probes(formula):
    assert_store_probes_match_dqbf(formula)


def test_store_probes_match_dqbf_probes_on_fuzz_stream():
    seen = set()
    for formula in fuzz(23, 200, FuzzBounds(4, 6, 14, 4)):
        seen |= assert_store_probes_match_dqbf(formula)
    assert seen == {True, False, *VivifyKind}


def test_dqrat_pass_deletes_lone_supported_clause():
    f = Dqbf(u_e({1}, {2: frozenset({1})}), ((1, 2),))
    out, report = dqrat_eliminate_pass(f)
    assert out.matrix == ()
    assert report.clauses_removed == 1


def test_dqrat_pass_drops_universal_literal():
    f = Dqbf(u_e({1}, {2: frozenset({1})}), ((1, 2), (-2,)))
    out, report = dqrat_eliminate_pass(f)
    assert out.matrix == ((2,), (-2,))
    assert report.clauses_shortened == 1
    assert report.clauses_removed == 0


def test_dqrat_pass_removes_blocked_clauses():
    f = Dqbf(flat(2), ((1, 2), (-1, 2)))
    out, report = dqrat_eliminate_pass(f)
    assert out.matrix == ()
    assert report.clauses_removed == 2


def test_dqrat_pass_leaves_tight_formula_alone():
    f = Dqbf(flat(2), ((1, 2), (-1, 2), (1, -2), (-1, -2)))
    out, report = dqrat_eliminate_pass(f)
    assert out == f and not report.changed


def test_dqrat_pass_derives_conflict_from_universal_clause():
    f = Dqbf(u_e({1}, {2: frozenset({1})}), ((1,),))
    out, report = dqrat_eliminate_pass(f)
    assert out.matrix == ((),)
    assert report.conflicts == 1


def test_dqrat_pass_keeps_refuted_formula():
    f = Dqbf(flat(2), ((), (1, 2)))
    out, report = dqrat_eliminate_pass(f)
    assert out == f and not report.changed


# universal 1; existentials 3 to 6 depend on nothing, 7 on 1. Every
# clause has two or more existential literals whose complement occurs in
# at least two other clauses, and the resolvents on several of them are
# checked before a clause is kept or deleted.
PIVOTED = Dqbf(u_e({1}, {3: frozenset(), 4: frozenset(), 5: frozenset(),
                         6: frozenset(), 7: frozenset({1})}),
               ((3, 4), (3, 5), (4, 5), (-3, 6), (-3, -6, 7), (-4, 6),
                (-4, -6, -7), (-5, 6), (-5, 7, 1), (-1, -6, -7)))


def test_dqrat_pass_propagates_each_clause_once_for_its_existential_pivots(
        monkeypatch):
    # counted where the resolvents are checked; a pass that propagates
    # each resolvent of an existential pivot from an empty trail makes
    # one full propagation per resolvent. Inside the base, a resolvent on
    # an existential pivot is checked by extending the base's trail
    # (`ClauseStore._extends`) or settled without propagating; those on
    # a universal pivot go to `dqat_check`
    existentials = PIVOTED.prefix.existentials
    for clause in PIVOTED.matrix:
        assert sum(1 for lit in clause if abs(lit) in existentials
                   and sum(-lit in c for c in PIVOTED.matrix) >= 2) >= 2
    counts, examined, extensions = Counter(), set(), []
    propagate, extends, check, dqat = (
        ClauseStore._propagate, ClauseStore._extends,
        techniques.dqrat_plus_check, techniques.dqat_check)

    def counting_propagate(self, *args):
        counts["propagate"] += 1
        return propagate(self, *args)

    def noting_extends(self, fresh):
        refuted = extends(self, fresh)
        extensions.append(refuted)
        return refuted

    def noting_check(store, clause, pivot):
        mark = len(extensions)
        verdict = check(store, clause, pivot)
        if abs(pivot) not in existentials:
            return verdict
        examined.add(clause)
        # the partners in the order the check walks them, until one fails:
        # each settled on the base's trail, or by the next extension made
        made = iter(extensions[mark:])
        for partner in partners(store, pivot):
            resolvent = outer_resolvent(PIVOTED.prefix, clause, partner, pivot)
            case = settled_on_base(store, clause, resolvent)
            counts[case or "extension"] += 1
            if case == "nothing new" or case is None and not next(made):
                assert not verdict
                break
        else:
            assert verdict
        assert next(made, None) is None
        return verdict

    def counting_dqat(store, clause):
        counts["universal"] += 1
        return dqat(store, clause)

    monkeypatch.setattr(ClauseStore, "_propagate", counting_propagate)
    monkeypatch.setattr(ClauseStore, "_extends", noting_extends)
    monkeypatch.setattr(techniques, "dqrat_plus_check", noting_check)
    monkeypatch.setattr(techniques, "dqat_check", counting_dqat)
    out, report = dqrat_eliminate_pass(PIVOTED)
    assert report.clauses_removed == 2 and counts["universal"] == 2
    # the resolvents one propagation per resolvent would pay for, the
    # non-tautological ones: each checked by an extension, or settled on
    # the base's trail as a clash or a resolvent that adds nothing to it,
    # or by a base that conflicts
    assert counts["extension"] == len(extensions)
    assert (sum(counts[kind] for kind in
                ("extension", "conflicting base", "clash", "nothing new"))
            >= 2 * len(examined) == 20)
    assert counts["propagate"] <= len(examined) + counts["universal"]


def test_dqrat_pass_builds_no_outer_set_for_an_existential_pivot(monkeypatch):
    # every existential pivot of PIVOTED has partners; only the universal
    # pivot 1 may have its outer set built
    pivots = []

    def noting_outer(prefix, var):
        pivots.append(var)
        return outer_variables(prefix, var)

    monkeypatch.setattr(techniques, "outer_variables", noting_outer)
    dqrat_eliminate_pass(PIVOTED)
    assert pivots and set(pivots) == {1}


@pytest.mark.parametrize("seed, bounds", [
    (29, FuzzBounds(4, 6, 14, 4)), (31, FuzzBounds(2, 8, 20, 3))])
def test_dqrat_pass_answers_as_without_a_base(monkeypatch, seed, bounds):
    # with every check answered by the reference, each resolvent is built
    # and probed afresh over the rest of the matrix (the clause under
    # examination is hidden); the pass must rewrite the same clauses
    # either way
    sample = list(fuzz(seed, 300, bounds))
    with_base = [dqrat_eliminate_pass(f) for f in sample]
    monkeypatch.setattr(techniques, "dqrat_plus_check",
                        lambda store, clause, pivot: reference_dqrat_plus_check(
                            store.formula(), clause, pivot))
    without = [dqrat_eliminate_pass(f) for f in sample]
    assert with_base == without
    assert sum(report.changed for _, report in with_base) > 100


def test_a_sweep_after_deletions_examines_only_their_partners(monkeypatch):
    # with the record of a sweep that only deleted clauses, the next
    # sweep examines a clause again only if a partner of it (a clause
    # holding -l for some literal l of it) was deleted after it was
    # examined; a clause is examined if some pivot of it is checked
    examined = []
    check = techniques.dqrat_plus_check

    def noting_check(store, clause, pivot):
        examined.append(clause)
        return check(store, clause, pivot)

    monkeypatch.setattr(techniques, "dqrat_plus_check", noting_check)
    sweeps = spared = 0
    for formula in fuzz(29, 400, FuzzBounds(4, 6, 14, 4)):
        kept = _Kept()
        first, report = dqrat_eliminate_pass(formula, kept)
        if not report.clauses_removed or report.clauses_shortened:
            continue
        existentials = formula.prefix.existentials
        depended = frozenset().union(*existentials.values())
        pivoted = [clause for clause in first.matrix
                   if any(abs(lit) in existentials or abs(lit) in depended
                          for lit in clause)]
        order = {clause: at for at, clause in enumerate(formula.matrix)}
        deleted = [clause for clause in formula.matrix if clause not in first.matrix]
        expected = {clause for clause in pivoted
                    if any(order[gone] > order[clause]
                           and any(-lit in gone for lit in clause)
                           for gone in deleted)}
        del examined[:]
        second = dqrat_eliminate_pass(first, kept)
        if not second[1].changed:
            # a change would send its own partners back too
            assert set(examined) == expected
            sweeps += 1
            spared += len(expected) < len(pivoted)
        assert second == dqrat_eliminate_pass(first)
    assert sweeps >= 100 and spared >= 20


@given(formulas())
@settings(max_examples=60)
def test_dqrat_pass_preserves_satisfiability(formula):
    out, _ = dqrat_eliminate_pass(formula)
    assert equisatisfiable(formula, out)
    assert (sum(len(c) for c in out.matrix)
            <= sum(len(c) for c in formula.matrix))


@given(formulas())
@settings(max_examples=40)
def test_passes_are_deterministic(formula):
    assert vivify_pass(formula) == vivify_pass(formula)
    assert upla_pass(formula) == upla_pass(formula)
    assert dqrat_eliminate_pass(formula) == dqrat_eliminate_pass(formula)
