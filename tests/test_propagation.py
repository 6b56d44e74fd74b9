"""Universal reduction, unit propagation, abstraction, clause addition test."""

import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import clauses_over, formulas, prefixes, u_e
from dqprep import (CompatibilityError, ContractViolation, Dqbf, Prefix,
                    TAUTOLOGY, dqat_check, equivalent, literal_key,
                    solve_brute, unit_propagate, universal_reduce,
                    universal_reduce_clause)
from dqprep.propagation import _reduce, abstract
from reference_propagation import _reduce as plain_reduce


# -- universal reduction ----------------------------------------------------


def test_reduce_unsupported_universal_unit_to_empty():
    p = u_e({1}, {})
    assert universal_reduce_clause(p, (-1,)) == ()


def test_reduce_keeps_supported_universal():
    p = u_e({1}, {2: frozenset({1})})
    assert universal_reduce_clause(p, (1, -2)) == (1, -2)


def test_reduce_drops_independent_universal():
    p = u_e({1}, {2: frozenset()})
    assert universal_reduce_clause(p, (1, 2)) == (2,)


def test_reduce_keeps_what_any_of_several_sets_supports():
    # the sets of 4 and 7 are one object; each universal is supported by
    # one set only, seen first, last or between repeats of another
    p = u_e({1, 2, 3}, {4: frozenset({1}), 5: frozenset({2}),
                        6: frozenset({3}), 7: frozenset({1})})
    assert universal_reduce_clause(p, (1, 2, 3, 4, 5, 6)) == (1, 2, 3, 4, 5, 6)
    assert universal_reduce_clause(p, (-1, 2, -3, 4, 7)) == (-1, 4, 7)
    assert universal_reduce_clause(p, (-3, 4, 6, 7)) == (-3, 4, 6, 7)
    assert universal_reduce_clause(p, (2, 3, 4, 7)) == (4, 7)


def test_reduce_rejects_tautology():
    p = u_e({1}, {})
    with pytest.raises(ContractViolation):
        universal_reduce_clause(p, (1, -1))


def test_reduce_rejects_unknown_variable():
    with pytest.raises(CompatibilityError):
        universal_reduce_clause(u_e({1}, {}), (2,))


def test_reduce_formula():
    p = u_e({1}, {2: frozenset()})
    f = Dqbf(p, ((1, 2),))
    assert universal_reduce(f) == Dqbf(p, ((2,),))


def test_reduce_formula_unchanged_when_dependencies_full():
    p = u_e({1}, {2: frozenset({1})})
    f = Dqbf(p, ((1, 2), (-1, -2)))
    assert universal_reduce(f) == f


def test_reduce_formula_to_empty_clause():
    p = u_e({1}, {})
    assert universal_reduce(Dqbf(p, ((1,),))).matrix == ((),)


def test_reduce_merges_equal_results():
    p = u_e({1}, {2: frozenset()})
    f = Dqbf(p, ((1, 2), (2,)))
    assert universal_reduce(f).matrix == ((2,),)


@given(formulas())
def test_reduce_idempotent(formula):
    once = universal_reduce(formula)
    assert universal_reduce(once) == once


@given(formulas())
def test_reduce_preserves_skolem_functions(formula):
    assert equivalent(formula, universal_reduce(formula))


@given(formulas())
def test_reduce_never_grows(formula):
    before = sum(len(c) for c in formula.matrix)
    after = sum(len(c) for c in universal_reduce(formula).matrix)
    assert after <= before


@given(prefixes(max_universals=4, max_existentials=4), st.data())
def test_reduce_matches_its_plain_definition(prefix, data):
    # the early-exit kernel against the one-line definition, with a
    # random set of universals abstracted in the prefix; a clause that
    # loses nothing comes back as the same tuple
    assume(prefix.variables)
    clause = data.draw(clauses_over(sorted(prefix.variables), max_width=6))
    assume(clause is not TAUTOLOGY)
    abstracted = data.draw(st.frozensets(st.sampled_from(sorted(prefix.universals)))
                           if prefix.universals else st.just(frozenset()))
    existentials = abstract(Dqbf(prefix, ()), abstracted).prefix.existentials
    reduced = _reduce(clause, existentials)
    assert reduced == plain_reduce(clause, prefix.existentials, abstracted)
    assert (reduced is clause) == (len(reduced) == len(clause))


# -- unit propagation -------------------------------------------------------


def test_propagate_to_empty_matrix():
    p = u_e(set(), {1: frozenset(), 2: frozenset()})
    out = unit_propagate(Dqbf(p, ((1, -2), (-1, 2), (-2,))))
    assert not out.conflict
    assert out.units == frozenset({-2, -1})
    assert out.result.matrix == ()
    assert out.result.prefix.variables == frozenset()
    assert out.steps == 2


def test_propagate_reduction_conflict():
    # deleting the satisfied literal leaves a universal unit, which
    # reduction turns into the empty clause
    p = u_e({1}, {2: frozenset({1})})
    out = unit_propagate(Dqbf(p, ((1, -2), (-1, 2), (-2,))))
    assert out.conflict
    assert out.result is None


def test_propagate_initial_reduction_conflict():
    p = u_e({1}, {2: frozenset()})
    out = unit_propagate(Dqbf(p, ((1,), (2,), (-1,))))
    assert out.conflict


def test_propagate_complementary_units_conflict():
    p = u_e(set(), {1: frozenset()})
    assert unit_propagate(Dqbf(p, ((1,), (-1,)))).conflict


def test_propagate_no_units_is_identity():
    p = u_e(set(), {1: frozenset(), 2: frozenset()})
    f = Dqbf(p, ((1, 2), (-1, -2)))
    out = unit_propagate(f)
    assert not out.conflict and out.result == f and out.units == frozenset()


def test_propagate_seeds_units_created_by_initial_reduction():
    p = u_e({1}, {2: frozenset(), 3: frozenset({1})})
    f = Dqbf(p, ((1, 2), (-2, 3)))
    out = unit_propagate(f)
    assert not out.conflict
    assert out.units == frozenset({2, 3})
    assert out.result.matrix == ()


def test_propagate_removes_variables_from_prefix():
    p = u_e({1}, {2: frozenset({1}), 3: frozenset({1})})
    out = unit_propagate(Dqbf(p, ((2,), (1, 3))))
    assert not out.conflict
    assert out.units == frozenset({2})
    assert 2 not in out.result.prefix.variables
    assert out.result.matrix == ((1, 3),)


@given(formulas())
def test_propagate_fixpoint_is_idempotent(formula):
    out = unit_propagate(formula)
    if out.conflict:
        return
    again = unit_propagate(out.result)
    assert not again.conflict
    assert again.units == frozenset()
    assert again.result == out.result


@given(formulas())
def test_propagate_deterministic(formula):
    assert unit_propagate(formula) == unit_propagate(formula)


@given(formulas())
def test_propagate_units_are_sound(formula):
    out = unit_propagate(formula)
    if out.conflict:
        assert not solve_brute(formula).satisfiable
    else:
        units = tuple((u,) for u in sorted(out.units, key=literal_key))
        assert equivalent(formula, Dqbf(formula.prefix, formula.matrix + units))


def _randomized_verdict(formula, rng):
    """Order-agnostic reimplementation: propagate units in random order,
    reducing each touched clause, and report only the verdict."""
    deps = formula.prefix.existentials

    def reduce_clause(lits):
        support = set()
        for lit in lits:
            if abs(lit) in deps:
                support |= deps[abs(lit)]
        return frozenset(l for l in lits if abs(l) in deps or abs(l) in support)

    clauses = {reduce_clause(frozenset(c)) for c in formula.matrix}
    while True:
        if frozenset() in clauses:
            return "conflict"
        units = sorted(lit for c in clauses if len(c) == 1 for lit in c)
        if not units:
            return "fixpoint"
        lit = rng.choice(units)
        rebuilt = set()
        for clause in clauses:
            if lit in clause:
                continue
            if -lit in clause:
                clause = reduce_clause(clause - {-lit})
            rebuilt.add(clause)
        clauses = rebuilt


@given(formulas(), st.integers(min_value=0, max_value=2 ** 32 - 1))
def test_propagate_verdict_is_order_independent(formula, seed):
    expected = "conflict" if unit_propagate(formula).conflict else "fixpoint"
    assert _randomized_verdict(formula, random.Random(seed)) == expected


# -- abstraction ------------------------------------------------------------


def test_abstract_moves_universals():
    p = u_e({1}, {2: frozenset()})
    f = Dqbf(p, ((1,), (2,)))
    a = abstract(f, {1})
    assert a.prefix == u_e(set(), {1: frozenset(), 2: frozenset()})
    assert a.matrix == f.matrix
    assert solve_brute(a).satisfiable


def test_abstract_keeps_unsatisfiable_variant_unsatisfiable():
    p = u_e({1}, {2: frozenset()})
    a = abstract(Dqbf(p, ((1,), (2,), (-1,))), {1})
    assert not solve_brute(a).satisfiable


def test_abstract_strips_dependency_sets():
    p = u_e({1, 2}, {3: frozenset({1, 2})})
    a = abstract(Dqbf(p, ()), {1})
    assert a.prefix == Prefix(frozenset({2}),
                              {1: frozenset(), 3: frozenset({2})})


def test_abstract_empty_set_is_identity():
    p = u_e({1}, {2: frozenset({1})})
    f = Dqbf(p, ((1, -2),))
    assert abstract(f, frozenset()) == f


def test_abstract_rejects_non_universal():
    p = u_e({1}, {2: frozenset()})
    with pytest.raises(ContractViolation):
        abstract(Dqbf(p, ()), {2})


@given(formulas(), st.data())
def test_abstract_preserves_satisfiability_one_way(formula, data):
    universals = sorted(formula.prefix.universals)
    if not universals:
        chosen = frozenset()
    else:
        chosen = data.draw(st.frozensets(st.sampled_from(universals)))
    if solve_brute(formula).satisfiable:
        assert solve_brute(abstract(formula, chosen)).satisfiable


# -- clause addition test ---------------------------------------------------


def test_dqat_rejects_dependent_unit():
    p = u_e({1}, {2: frozenset({1})})
    psi = Dqbf(p, ((1, -2), (-1, 2)))
    assert not dqat_check(psi, (2,))


def test_dqat_accepts_propagation_failed_clause():
    p = u_e({1}, {2: frozenset({1})})
    psi = Dqbf(p, ((-1, 2),))
    assert dqat_check(psi, (-1, 2))


def test_dqat_empty_clause_on_satisfiable_formula():
    p = u_e(set(), {1: frozenset()})
    assert not dqat_check(Dqbf(p, ((1,),)), ())


def test_dqat_rejects_tautology():
    p = u_e(set(), {1: frozenset()})
    with pytest.raises(ContractViolation):
        dqat_check(Dqbf(p, ()), (1, -1))


def test_dqat_rejects_incompatible_clause():
    p = u_e(set(), {1: frozenset()})
    with pytest.raises(CompatibilityError):
        dqat_check(Dqbf(p, ()), (7,))


@given(formulas(), st.data())
@settings(max_examples=60)
def test_dqat_true_means_addable(formula, data):
    variables = sorted(formula.prefix.variables)
    if not variables:
        return
    lits = data.draw(st.lists(
        st.builds(lambda v, s: v * s, st.sampled_from(variables),
                  st.sampled_from((1, -1))),
        min_size=1, max_size=3, unique_by=abs))
    clause = tuple(sorted(lits, key=literal_key))
    if dqat_check(formula, clause):
        assert equivalent(formula, Dqbf(formula.prefix,
                                        formula.matrix + (clause,)))
