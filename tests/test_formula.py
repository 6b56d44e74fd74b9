"""Core model: clause normalization, prefixes, formulas, dependency sets."""

import copy
import pickle

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import formulas, prefixes
from dqprep import (TAUTOLOGY, CompatibilityError, ContractViolation, Dqbf,
                    NotInPrefixError, Prefix, abstract, dep, is_compatible,
                    literal_key, normalize_clause, prefix_remove)


def test_normalize_sorts_and_dedupes():
    assert normalize_clause([3, -1, 3, 2, -1]) == (-1, 2, 3)


def test_normalize_positive_before_negative_on_same_variable():
    # same variable cannot occur twice with one polarity after dedupe,
    # but ordering across variables puts the positive literal first
    assert normalize_clause([-2, 1]) == (1, -2)
    assert literal_key(1) < literal_key(-1) < literal_key(2)


def test_normalize_empty():
    assert normalize_clause([]) == ()


def test_normalize_tautology():
    assert normalize_clause([1, -1]) is TAUTOLOGY
    assert normalize_clause([2, 1, -2]) is TAUTOLOGY


def test_tautology_is_one_truthy_marker_named_tautology():
    # identity checks (`is TAUTOLOGY`) must survive copies and pickling
    assert copy.copy(TAUTOLOGY) is TAUTOLOGY
    assert copy.deepcopy(TAUTOLOGY) is TAUTOLOGY
    assert copy.deepcopy([(1, 2), TAUTOLOGY])[1] is TAUTOLOGY
    assert pickle.loads(pickle.dumps(TAUTOLOGY)) is TAUTOLOGY
    assert repr(TAUTOLOGY) == str(TAUTOLOGY) == "TAUTOLOGY"
    assert TAUTOLOGY


def test_normalize_rejects_zero():
    with pytest.raises(ContractViolation):
        normalize_clause([1, 0])


@given(formulas())
def test_normalize_idempotent(formula):
    for clause in formula.matrix:
        assert normalize_clause(clause) == clause


def test_prefix_validation():
    with pytest.raises(ContractViolation):
        Prefix(frozenset({1}), {1: frozenset()})  # both quantifiers
    with pytest.raises(ContractViolation):
        Prefix(frozenset({0}), {})  # ids are positive
    with pytest.raises(ContractViolation):
        Prefix(frozenset({1}), {2: frozenset({3})})  # dep on unknown universal
    with pytest.raises(ContractViolation):
        Prefix(frozenset(), {2: frozenset({2})})  # dep on an existential


def test_prefix_membership_and_variables():
    p = Prefix(frozenset({2}), {5: frozenset({2}), 3: frozenset()})
    assert 2 in p and 3 in p and 5 in p and 4 not in p
    assert p.variables == frozenset({2, 3, 5})
    assert list(p.existentials) == [3, 5]  # ascending iteration order


def test_equal_dependency_sets_are_one_object():
    # a prefix holds one set per distinct dependency set, however it was
    # built and whatever iterable each set was handed in as
    p = Prefix(frozenset({1, 2}), {3: [2, 1], 4: {1, 2}, 5: frozenset({1}),
                                   6: (1,), 7: ()})
    e = p.existentials
    assert e[3] == {1, 2} and e[3] is e[4]
    assert e[5] == {1} and e[5] is e[6] and e[5] is not e[3]
    removed = prefix_remove(p, 2).existentials
    assert all(removed[y] is removed[3] for y in (4, 5, 6))
    abstracted = abstract(Dqbf(p), {2}).prefix.existentials
    assert all(abstracted[y] is abstracted[3] for y in (4, 5, 6))
    assert abstracted[3] == {1} and abstracted[7] is abstracted[2] == set()


@pytest.mark.parametrize("build", [Prefix, Prefix._trusted])
def test_variables_are_built_on_first_use(build):
    # a new prefix stores its two fields and nothing else
    p = build(frozenset({2}), {3: frozenset(), 5: frozenset({2})})
    assert set(vars(p)) == {"universals", "existentials"}
    assert copy.copy(p).variables == frozenset({2, 3, 5})
    assert set(vars(p)) == {"universals", "existentials"}
    assert p.variables == frozenset({2, 3, 5})
    assert p.variables is p.variables
    # not a field: a prefix that has built them equals one that has not
    fresh = build(frozenset({2}), {3: frozenset(), 5: frozenset({2})})
    assert p == fresh and set(vars(fresh)) == {"universals", "existentials"}
    assert "variables" not in repr(p) and repr(p) == repr(fresh)
    for twin in (copy.copy(p), copy.deepcopy(p), pickle.loads(pickle.dumps(p))):
        assert twin == p and twin.variables == frozenset({2, 3, 5})


def test_dqbf_normalizes_matrix():
    p = Prefix(frozenset({1}), {2: frozenset({1})})
    f = Dqbf(p, ((2, 1, 2), (1, -1, 2), (1, 2)))
    # tautology dropped, duplicates merged keeping first occurrence
    assert f.matrix == ((1, 2),)


def test_dqbf_rejects_undeclared_variables():
    p = Prefix(frozenset({1}), {2: frozenset()})
    with pytest.raises(CompatibilityError):
        Dqbf(p, ((1, 3),))


def test_dqbf_variables():
    p = Prefix(frozenset({1}), {2: frozenset()})
    assert Dqbf(p, ()).variables == frozenset({1, 2})


def test_dep_universal_is_self():
    p = Prefix(frozenset({4}), {6: frozenset({4})})
    assert dep(p, 4) == frozenset({4})


def test_dep_existential_is_declared_set():
    p = Prefix(frozenset({1, 2}), {3: frozenset({1})})
    assert dep(p, 3) == frozenset({1})
    assert dep(p, -3) == frozenset({1})  # literals allowed


def test_dep_clause_is_union():
    p = Prefix(frozenset({1, 2}), {3: frozenset({1}), 4: frozenset({2})})
    assert dep(p, (3, -4)) == frozenset({1, 2})
    assert dep(p, ()) == frozenset()


def test_dep_unknown_variable():
    p = Prefix(frozenset({1}), {})
    with pytest.raises(CompatibilityError):
        dep(p, 9)


@given(formulas())
def test_dep_clause_equals_literal_union(formula):
    for clause in formula.matrix:
        union = frozenset().union(*(dep(formula, l) for l in clause)) \
            if clause else frozenset()
        assert dep(formula, clause) == union


@given(formulas(), st.data())
def test_dep_clause_is_the_union_of_its_literals_or_raises(formula, data):
    # a drawn clause may use variables 1..10, some of them outside the prefix
    prefix = formula.prefix
    clause = data.draw(st.lists(st.integers(1, 10).flatmap(
        lambda v: st.sampled_from((v, -v))), max_size=4))
    per_literal = []
    for lit in clause:
        var = abs(lit)
        if var in prefix.universals:
            per_literal.append(frozenset((var,)))
        elif var in prefix.existentials:
            per_literal.append(prefix.existentials[var])
        else:
            with pytest.raises(CompatibilityError):
                dep(prefix, clause)
            return
    assert dep(formula, clause) == frozenset().union(*per_literal)


def test_prefix_remove_existential():
    p = Prefix(frozenset({1}), {2: frozenset({1}), 3: frozenset()})
    q = prefix_remove(p, 2)
    assert q == Prefix(frozenset({1}), {3: frozenset()})


def test_prefix_remove_universal_strips_dependencies():
    p = Prefix(frozenset({1, 2}), {3: frozenset({1, 2})})
    q = prefix_remove(p, 1)
    assert q == Prefix(frozenset({2}), {3: frozenset({2})})


def test_prefix_remove_missing():
    with pytest.raises(NotInPrefixError):
        prefix_remove(Prefix(frozenset(), {}), 1)


def test_prefix_remove_of_an_undeclared_variable_is_a_compatibility_error():
    # one error for a variable the prefix does not declare, by either name
    assert NotInPrefixError is CompatibilityError
    with pytest.raises(CompatibilityError, match="variable 3 is not in the prefix"):
        prefix_remove(Prefix(frozenset({1}), {2: frozenset({1})}), 3)


@given(prefixes())
def test_prefix_remove_keeps_invariants(prefix):
    for var in sorted(prefix.variables):
        reduced = prefix_remove(prefix, var)
        assert var not in reduced.variables
        for deps in reduced.existentials.values():
            assert var not in deps
            assert deps <= reduced.universals


def test_is_compatible():
    p = Prefix(frozenset({1}), {2: frozenset()})
    assert is_compatible(p, (1, -2))
    assert not is_compatible(p, (3,))
    f = Dqbf(p, ())
    assert is_compatible(f, (-1,))
