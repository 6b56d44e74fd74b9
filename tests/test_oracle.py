"""Ground-truth oracle: Skolem tuples, both solvers, comparisons."""

import random
import sys
import threading
import time
from collections import Counter
from itertools import chain

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import formulas, in_oracle_budget, oracle_bits, u_e
from dqprep import (TAUTOLOGY, BudgetError, ContractViolation, Dqbf,
                    FuzzBounds, Prefix, SkolemFunction, SkolemTuple,
                    equisatisfiable, equivalent, evaluate, fuzz, implies,
                    is_skolem, normalize_clause, solve_brute, solve_expansion)
from dqprep import oracle
from dqprep.oracle import DEFAULT_BUDGET, assignment_rank
import reference_oracle
from reference_oracle import reference_satisfying_mask


# -- ranks, functions, tuples -----------------------------------------------


def test_rank_smallest_variable_is_low_bit():
    domain = (1, 2)
    assert assignment_rank({1: False, 2: False}, domain) == 0
    assert assignment_rank({1: True, 2: False}, domain) == 1
    assert assignment_rank({1: False, 2: True}, domain) == 2
    assert assignment_rank({1: True, 2: True}, domain) == 3


def test_rank_empty_domain():
    assert assignment_rank({5: True}, ()) == 0


def test_function_table_lookup():
    fn = SkolemFunction(3, (1, 2), (False, True, False, True))
    assert fn.value({1: True, 2: False})
    assert not fn.value({1: False, 2: True})


def test_function_rejects_short_table():
    with pytest.raises(ContractViolation):
        SkolemFunction(3, (1, 2), (True, False))


def test_function_rejects_unsorted_domain():
    with pytest.raises(ContractViolation):
        SkolemFunction(3, (2, 1), (True,) * 4)


def test_function_rejects_duplicate_domain():
    with pytest.raises(ContractViolation):
        SkolemFunction(3, (1, 1), (True,) * 4)


def test_tuple_sorts_and_rejects_duplicates():
    fa = SkolemFunction(2, (), (True,))
    fb = SkolemFunction(1, (), (False,))
    tup = SkolemTuple((fa, fb))
    assert [f.variable for f in tup.functions] == [1, 2]
    assert tup.function_for(2) is fa
    with pytest.raises(ContractViolation):
        SkolemTuple((fa, fa))
    with pytest.raises(ContractViolation):
        tup.function_for(9)


# -- evaluation and witness checking ----------------------------------------


def test_evaluate_matrix():
    assignment = {1: True, 2: False}
    assert evaluate(((1, 2), (-2,)), assignment)
    assert not evaluate(((2,),), assignment)
    assert evaluate((), assignment)
    assert not evaluate(((),), assignment)


def test_evaluate_requires_total_assignment():
    with pytest.raises(ContractViolation):
        evaluate(((3,),), {1: True})


def test_is_skolem_copy_function():
    # y tracks x, so y == x works and constant True does not
    psi = Dqbf(u_e({1}, {2: frozenset({1})}), ((1, -2), (-1, 2)))
    good = SkolemTuple((SkolemFunction(2, (1,), (False, True)),))
    bad = SkolemTuple((SkolemFunction(2, (1,), (True, True)),))
    assert is_skolem(psi, good)
    assert not is_skolem(psi, bad)


def test_is_skolem_rejects_wrong_coverage():
    psi = Dqbf(u_e(set(), {1: frozenset(), 2: frozenset()}), ())
    with pytest.raises(ContractViolation):
        is_skolem(psi, SkolemTuple((SkolemFunction(1, (), (True,)),)))


def test_is_skolem_rejects_wrong_domain():
    psi = Dqbf(u_e({1}, {2: frozenset({1})}), ())
    with pytest.raises(ContractViolation):
        is_skolem(psi, SkolemTuple((SkolemFunction(2, (), (True,)),)))


def test_is_skolem_keeps_to_the_universal_budget():
    def false_y(n):
        # y = False falsifies the first of the 2**n universal assignments
        y = n + 1
        return (Dqbf(u_e(range(1, y), {y: frozenset()}), ((y,),)),
                SkolemTuple((SkolemFunction(y, (), (False,)),)))

    assert not is_skolem(*false_y(DEFAULT_BUDGET))
    with pytest.raises(BudgetError):
        is_skolem(*false_y(DEFAULT_BUDGET + 1))


# -- brute-force solver -----------------------------------------------------


def test_brute_simple_sat():
    res = solve_brute(Dqbf(u_e(set(), {1: frozenset()}), ((1,),)))
    assert res.satisfiable
    assert res.witness.function_for(1).table == (True,)


def test_brute_simple_unsat():
    res = solve_brute(Dqbf(u_e(set(), {1: frozenset()}), ((1,), (-1,))))
    assert res.satisfiable is False and res.witness is None


def test_brute_universal_only_unsat():
    assert not solve_brute(Dqbf(u_e({1}, {}), ((1,),))).satisfiable


def test_brute_negation_witness():
    psi = Dqbf(u_e({1}, {2: frozenset({1})}), ((1, 2), (-1, -2)))
    res = solve_brute(psi)
    assert res.satisfiable
    assert res.witness.function_for(2).table == (True, False)


def test_brute_copy_witness_and_blocking():
    psi = Dqbf(u_e({1}, {2: frozenset({1})}), ((1, -2), (-1, 2)))
    res = solve_brute(psi)
    assert res.satisfiable
    assert res.witness.function_for(2).table == (False, True)
    blocked = Dqbf(psi.prefix, psi.matrix + ((2,),))
    assert not solve_brute(blocked).satisfiable


def test_brute_empty_matrix_all_false_witness():
    psi = Dqbf(u_e({1}, {2: frozenset({1})}), ())
    res = solve_brute(psi)
    assert res.witness.function_for(2).table == (False, False)


def test_brute_budget_table_bits():
    psi = Dqbf(u_e({1}, {2: frozenset({1})}), ())
    with pytest.raises(BudgetError):
        solve_brute(psi, limit=1)


def test_brute_budget_universal_count():
    with pytest.raises(BudgetError):
        solve_brute(Dqbf(u_e({1}, {}), ()), limit=0)


# -- comparisons ------------------------------------------------------------


def test_equivalent_needs_same_prefix():
    a = Dqbf(u_e(set(), {1: frozenset()}), ())
    b = Dqbf(u_e(set(), {2: frozenset()}), ())
    with pytest.raises(ContractViolation):
        equivalent(a, b)
    with pytest.raises(ContractViolation):
        implies(a, b)


def test_equivalent_modulo_subsumed_clause():
    p = u_e(set(), {1: frozenset(), 2: frozenset()})
    a = Dqbf(p, ((1,), (2,)))
    b = Dqbf(p, ((1,), (2,), (1, 2)))
    assert equivalent(a, b)
    assert not equivalent(a, Dqbf(p, ((1,),)))


def test_implies_direction():
    p = u_e(set(), {1: frozenset()})
    stronger = Dqbf(p, ((1,),))
    weaker = Dqbf(p, ())
    assert implies(stronger, weaker)
    assert not implies(weaker, stronger)


def test_equisatisfiable_across_prefixes():
    a = Dqbf(u_e(set(), {1: frozenset()}), ((1,),))
    b = Dqbf(u_e({1}, {2: frozenset({1})}), ((1, 2),))
    assert equisatisfiable(a, b)
    assert not equisatisfiable(a, Dqbf(a.prefix, ((1,), (-1,))))


# -- the mask kernel and its memo -------------------------------------------

# past the default FuzzBounds, up to the shape of the benchmark's
# verify-fuzz instances (4 universals, 6 existentials, 14 clauses)
LARGER = FuzzBounds(4, 6, 14, 4)


def _mask(formula):
    return oracle._satisfying_mask(formula, DEFAULT_BUDGET)[0]


@given(formulas(), st.booleans())
def test_mask_kernel_matches_reference(formula, add_empty_clause):
    if add_empty_clause:
        formula = Dqbf(formula.prefix, formula.matrix + ((),))
    assert _mask(formula) == reference_satisfying_mask(formula)


def _wide_formulas(seed, count):
    """Formulas with 6 to 8 universals (gappy, interleaved ids) and 2 to 4
    existentials depending on 0 to 2 of them: most universal assignments
    restrict a clause exactly as an earlier one did."""
    rng = random.Random(seed)
    for _ in range(count):
        ids = rng.sample(range(1, 30), 12)
        n_universal = rng.randint(6, 8)
        universals = ids[:n_universal]
        existentials = {
            var: frozenset(rng.sample(universals, rng.randint(0, 2)))
            for var in ids[n_universal:n_universal + rng.randint(2, 4)]}
        variables = universals + list(existentials)
        matrix = []
        for _ in range(rng.randint(0, 10)):
            clause = normalize_clause(
                rng.choice(variables) * rng.choice((1, -1))
                for _ in range(rng.randint(1, 4)))
            if clause is not TAUTOLOGY:
                matrix.append(clause)
        yield Dqbf(Prefix(frozenset(universals), existentials), tuple(matrix))


def test_mask_kernel_matches_reference_on_larger_formulas():
    seen = Counter()
    stream = chain(fuzz(11, 400, LARGER), _wide_formulas(11, 300))
    for index, formula in enumerate(stream):
        if not in_oracle_budget(formula):
            continue
        if index % 4 == 0:
            formula = Dqbf(formula.prefix, formula.matrix + ((),))
        assert _mask(formula) == reference_satisfying_mask(formula)
        universals = formula.prefix.universals
        mentioned = {abs(lit) for clause in formula.matrix for lit in clause}
        seen["formulas"] += 1
        seen["empty clause"] += () in formula.matrix
        seen["universal-only clause"] += any(
            clause and all(abs(lit) in universals for lit in clause)
            for clause in formula.matrix)
        seen["independent existential"] += any(
            not deps for deps in formula.prefix.existentials.values())
        # an existential the matrix reads whose table has rows for a
        # universal no clause mentions: its clauses repeat across that
        # universal's values
        seen["domain universal no clause mentions"] += any(
            var in mentioned and deps - mentioned
            for var, deps in formula.prefix.existentials.items())
        seen["unsatisfiable without an empty clause"] += (
            () not in formula.matrix and _mask(formula) == 0)
        seen["satisfiable"] += _mask(formula) != 0
    assert len(seen) == 7 and min(seen.values()) >= 10, seen


@pytest.fixture
def bit_mask_lookups(monkeypatch):
    """The (total_bits, position) pairs the kernel and the reference ask
    `_bit_mask` for, in order, one list each."""
    lookups = {"kernel": [], "reference": []}
    bit_mask = oracle._bit_mask

    def counting(into):
        def lookup(total_bits, position):
            into.append((total_bits, position))
            return bit_mask(total_bits, position)
        return lookup

    monkeypatch.setattr(oracle, "_bit_mask", counting(lookups["kernel"]))
    monkeypatch.setattr(reference_oracle, "_bit_mask",
                        counting(lookups["reference"]))
    return lookups


def _kernel_mask(formula):
    layout = oracle._layout(formula.prefix.universals,
                            formula.prefix.existentials.items())
    return oracle._mask_kernel(layout, formula.matrix)


def test_kernel_reads_each_mask_once_when_no_clause_mentions_a_universal(
        bit_mask_lookups):
    # 10 universals and six independent existentials, each occurring once:
    # every one of the 2**10 universal assignments restricts every clause
    # the same way, so the kernel applies each clause once, at 0
    psi = Dqbf(u_e(range(1, 11), {v: frozenset() for v in range(11, 17)}),
               ((11, -12), (13, 14, -15), (16,)))
    assert _kernel_mask(psi) == reference_satisfying_mask(psi) != 0
    assert Counter(bit_mask_lookups["kernel"]) == {
        (6, position): 1 for position in range(6)}


def test_kernel_walks_only_the_universals_some_clause_reads():
    # 20 universals that no clause reads, six independent existentials
    # and 12 clauses, satisfiable, so no early exit ends the walk: only
    # universal assignment 0 can apply a clause. The mask does not
    # depend on universals nothing reads, so the reference, which walks
    # all 2**20 assignments, is run on the same formula without them
    existentials = {v: frozenset() for v in range(21, 27)}
    matrix = tuple(normalize_clause(c) for c in (
        (21, 22), (-21, 23), (22, -24), (25, 26, -21), (-25, 24),
        (23, 24, 26), (-26, -22, 21), (21, -23, 25), (24, 25),
        (-24, 26, 22), (21, 26), (23, -25, -26)))
    psi = Dqbf(u_e(range(1, 21), existentials), matrix)
    start = time.perf_counter()
    mask, _ = oracle._satisfying_mask(psi, 20)
    assert time.perf_counter() - start < 0.1
    assert mask == reference_satisfying_mask(
        Dqbf(u_e((), existentials), matrix)) != 0


def test_kernel_asks_for_no_mask_the_reference_does_not(bit_mask_lookups):
    # the table-bit masks built and kept by _bit_mask bound peak memory
    kernel, reference = bit_mask_lookups["kernel"], bit_mask_lookups["reference"]
    checked = 0
    for formula in fuzz(11, 400, LARGER):
        if not in_oracle_budget(formula):
            continue
        kernel.clear()
        reference.clear()
        assert _kernel_mask(formula) == reference_satisfying_mask(formula)
        assert set(kernel) <= set(reference), formula
        checked += 1
    assert checked >= 300


def test_budget_is_checked_on_a_remembered_mask(kernel_calls):
    psi = Dqbf(u_e({1}, {2: frozenset({1})}), ((1, 2),))
    assert solve_brute(psi, 20).satisfiable
    with pytest.raises(BudgetError):
        solve_brute(psi, 1)
    assert len(kernel_calls) == 1


def test_nothing_is_remembered_over_budget(kernel_calls):
    psi = Dqbf(u_e({1}, {2: frozenset({1})}), ((1, 2),))
    with pytest.raises(BudgetError):
        solve_brute(psi, 1)
    assert not oracle._masks
    assert kernel_calls == []


def test_memo_tells_dependency_sets_apart(kernel_calls):
    # the copy gadget needs y to see x; with y independent it is false
    matrix = ((1, -2), (-1, 2))
    dependent = Dqbf(u_e({1}, {2: frozenset({1})}), matrix)
    independent = Dqbf(u_e({1}, {2: frozenset()}), matrix)
    assert solve_brute(dependent).satisfiable
    assert not solve_brute(independent).satisfiable
    assert solve_brute(dependent).satisfiable
    assert len(kernel_calls) == 2


def test_memo_keeps_the_two_most_recently_used_masks(kernel_calls):
    # `_verify_pass` checks `up`'s units before its output, so that the
    # output, used last, is the mask the next pass finds
    p = u_e({1}, {2: frozenset({1}), 3: frozenset()})
    a, b, c = (Dqbf(p, matrix) for matrix in (((1, 2),), ((-2, 3),), ((2, 3),)))
    _mask(a)
    _mask(b)
    _mask(a)  # a hit: a is now the more recent of the two
    assert kernel_calls == [a.matrix, b.matrix]
    _mask(c)  # evicts b, the least recently used
    _mask(a)
    assert kernel_calls == [a.matrix, b.matrix, c.matrix]
    assert _mask(b) == reference_satisfying_mask(b)
    assert kernel_calls == [a.matrix, b.matrix, c.matrix, b.matrix]
    assert len(oracle._masks) == 2


def test_equal_formulas_share_one_mask(kernel_calls):
    p = u_e({1}, {2: frozenset({1}), 3: frozenset()})
    first = Dqbf(p, tuple([(1, 2), (-2, 3)]))
    second = Dqbf(Prefix(frozenset({1}), {3: frozenset(), 2: frozenset({1})}),
                  tuple([(1, 2), (-2, 3)]))
    assert first == second and first is not second
    assert first.matrix is not second.matrix
    assert equivalent(first, second)
    assert len(kernel_calls) == 1


def _edited(formula, rng):
    """`formula` after one to four random edits: a clause shortened to a
    subset (possibly empty, possibly equal to another clause), a clause
    appended, a clause deleted, or a clause repeated."""
    variables = sorted(formula.prefix.variables)
    matrix = list(formula.matrix)
    for _ in range(rng.randint(1, 4)):
        edit = rng.choice(("shorten", "append", "delete", "repeat"))
        if edit == "append" and variables:
            clause = normalize_clause(
                rng.choice(variables) * rng.choice((1, -1))
                for _ in range(rng.randint(1, 3)))
            if clause is not TAUTOLOGY:
                matrix.insert(rng.randint(0, len(matrix)), clause)
        elif edit == "shorten" and matrix:
            index = rng.randrange(len(matrix))
            matrix[index] = tuple(
                lit for lit in matrix[index] if rng.random() < 0.6)
        elif edit == "delete" and matrix:
            del matrix[rng.randrange(len(matrix))]
        elif matrix:
            matrix.append(rng.choice(matrix))
    return Dqbf(formula.prefix, tuple(matrix))


@given(st.integers(min_value=0, max_value=2**32), st.randoms())
def test_derived_masks_match_the_reference(seed, rng):
    first = next(fuzz(seed, 1, LARGER))
    assume(in_oracle_budget(first))
    second = _edited(first, rng)
    oracle._masks.clear()
    assert equivalent(first, second) == (
        reference_satisfying_mask(first) == reference_satisfying_mask(second))
    # remembered by `equivalent`, derived from `first`'s mask if it could be
    assert _mask(second) == reference_satisfying_mask(second)


def test_each_route_to_a_mask_is_taken_on_edited_formulas(kernel_calls):
    rng = random.Random(3)
    seen = Counter()
    for first in fuzz(5, 2000, LARGER):
        if not in_oracle_budget(first):
            continue
        second = _edited(first, rng)
        oracle._masks.clear()
        kernel_calls.clear()
        same = equivalent(first, second)
        expected = reference_satisfying_mask(second)
        assert same == (reference_satisfying_mask(first) == expected)
        assert _mask(second) == expected
        later = kernel_calls[1:]
        if second.matrix == first.matrix:
            route = "same matrix"
        elif later == [second.matrix]:
            route = "computed in full"
        elif later:
            route = "derived from the added clauses"
        else:
            route = "derived with no kernel call"
        seen[route, same] += 1
    # a derived mask with no kernel call is that of `first`
    assert set(seen) == {("same matrix", True),
                         ("derived with no kernel call", True),
                         ("derived from the added clauses", True),
                         ("derived from the added clauses", False),
                         ("computed in full", True),
                         ("computed in full", False)}, seen
    assert min(seen.values()) >= 5, seen


def test_shortening_a_clause_runs_the_kernel_on_the_new_clause_only(
        kernel_calls):
    # universal reduction of (1 2), as `ur` does it: 2 does not see 1
    f = Dqbf(u_e({1}, {2: frozenset(), 3: frozenset({1})}),
             ((1, 2), (-2, 3), (-1, 3)))
    reduced = Dqbf(f.prefix, ((2,), (-2, 3), (-1, 3)))
    assert equivalent(f, reduced)
    assert kernel_calls == [f.matrix, [(2,)]]
    # the derived mask is remembered for the next check
    assert _mask(reduced) == reference_satisfying_mask(reduced) != 0
    assert kernel_calls == [f.matrix, [(2,)]]


def test_a_derived_mask_of_an_unsatisfiable_formula_needs_no_kernel_call(
        kernel_calls):
    f = Dqbf(u_e({1}, {2: frozenset(), 3: frozenset()}),
             ((1, 3), (2,), (-2,)))
    reduced = Dqbf(f.prefix, ((3,), (2,), (-2,)))
    assert equivalent(f, reduced)
    assert kernel_calls == [f.matrix]


def test_table_bit_masks_are_kept_for_the_last_formulas_only():
    # n = 10 ... 20 independent existentials and one clause over all of
    # them: candidate spaces of 2**10 ... 2**20 tuples, each kernel call
    # asking for every table bit of its width
    oracle._masks.clear()
    oracle._bit_mask.cache_clear()
    for n in range(10, 21):
        psi = Dqbf(u_e(set(), {v: frozenset() for v in range(1, n + 1)}),
                   (tuple(range(1, n + 1)),))
        assert solve_brute(psi).satisfiable
    info = oracle._bit_mask.cache_info()
    assert info.maxsize == oracle._MASK_MEMO_SIZE * DEFAULT_BUDGET
    assert info.currsize <= info.maxsize
    assert info.misses == sum(range(10, 21))
    # the masks of the widest formula, built last, are still kept;
    # bit T of the mask at position 3 is bit 3 of T, written high bit first
    assert oracle._bit_mask(20, 3) == int(("1" * 8 + "0" * 8) * (1 << 16), 2)
    assert oracle._bit_mask.cache_info().misses == info.misses


def test_memo_hands_each_thread_its_own_masks():
    # more threads than cores, switching often, each walking the same
    # formulas from another start: a mask handed to the wrong formula,
    # or a memo entry torn by a switch, gives a wrong mask
    cases = [f for f in fuzz(17, 120, LARGER) if in_oracle_budget(f)]
    expected = [reference_satisfying_mask(f) for f in cases]
    wrong = []

    def walk(start):
        for step in range(2 * len(cases)):
            index = (start + step // 2) % len(cases)
            if _mask(cases[index]) != expected[index]:
                wrong.append(index)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=walk, args=(k * 7,)) for k in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert wrong == []


# -- expansion solver -------------------------------------------------------


def test_expansion_agrees_on_worked_examples():
    copy = Dqbf(u_e({1}, {2: frozenset({1})}), ((1, -2), (-1, 2)))
    assert solve_expansion(copy).satisfiable
    blocked = Dqbf(copy.prefix, copy.matrix + ((2,),))
    assert not solve_expansion(blocked).satisfiable
    free = Dqbf(u_e({1}, {2: frozenset()}), ((1, 2), (-1, -2)))
    assert not solve_expansion(free).satisfiable


def test_expansion_budget_universal_count():
    with pytest.raises(BudgetError):
        solve_expansion(Dqbf(u_e({1}, {}), ()), limit=0)


def test_expansion_budget_matrix_blowup():
    p = u_e({1, 2}, {3: frozenset()})
    f = Dqbf(p, ((1, 3), (2, 3), (1, 2, 3)))
    with pytest.raises(BudgetError):
        solve_expansion(f, limit=3)


def test_expansion_search_depth_is_not_bounded_by_recursion():
    # within the budget (no universals), but every clause needs its own
    # decision: 1,500 nested branches, past the interpreter's recursion limit
    p = u_e(set(), {v: frozenset() for v in range(1, 3001)})
    f = Dqbf(p, tuple((2 * i - 1, 2 * i) for i in range(1, 1501)))
    assert solve_expansion(f).satisfiable
    blocked = Dqbf(p, f.matrix + ((-1,), (-2,)))
    assert not solve_expansion(blocked).satisfiable


# -- cross checks -----------------------------------------------------------


@given(formulas())
def test_solvers_agree(formula):
    assert (solve_brute(formula).satisfiable
            == solve_expansion(formula).satisfiable)


def test_solvers_agree_beyond_fuzz_bounds():
    verdicts = Counter()
    for formula in fuzz(13, 400, LARGER):
        if not in_oracle_budget(formula):
            continue
        brute = solve_brute(formula).satisfiable
        assert brute == solve_expansion(formula).satisfiable, formula
        verdicts[brute] += 1
    assert min(verdicts[True], verdicts[False]) >= 10, verdicts


@given(formulas())
def test_equivalent_and_implies_are_reflexive(formula):
    assert equivalent(formula, formula)
    assert implies(formula, formula)


@given(formulas())
def test_dropping_a_clause_weakens(formula):
    if not formula.matrix:
        return
    weaker = Dqbf(formula.prefix, formula.matrix[:-1])
    assert implies(formula, weaker)


@given(formulas())
def test_witness_satisfies_the_formula(formula):
    res = solve_brute(formula)
    if res.satisfiable:
        assert is_skolem(formula, res.witness)


def _tuple_at_index(prefix, index):
    functions = []
    offset = 0
    for var in sorted(prefix.existentials):
        domain = tuple(sorted(prefix.existentials[var]))
        width = 1 << len(domain)
        bits = (index >> offset) & ((1 << width) - 1)
        table = tuple(bool((bits >> row) & 1) for row in range(width))
        functions.append(SkolemFunction(var, domain, table))
        offset += width
    return SkolemTuple(tuple(functions))


@given(formulas())
@settings(max_examples=60)
def test_witness_is_canonically_first(formula):
    if oracle_bits(formula) > 8:
        return
    res = solve_brute(formula)
    first = None
    for index in range(1 << oracle_bits(formula)):
        candidate = _tuple_at_index(formula.prefix, index)
        if is_skolem(formula, candidate):
            first = candidate
            break
    if first is None:
        assert not res.satisfiable
    else:
        assert res.satisfiable and res.witness == first
