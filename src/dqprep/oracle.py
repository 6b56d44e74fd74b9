"""Ground-truth semantics for small DQBF instances.

Two independent decision procedures are provided so they can check each
other: `solve_brute` enumerates candidate Skolem function tuples, and
`solve_expansion` expands the universals away and runs a plain DPLL
propositional search. Equivalence and implication compare the full sets
of Skolem functions, not just verdicts.

Truth tables and assignments are ranked the same way throughout: order
the variables ascending and read an assignment as a binary number whose
least significant bit is the smallest variable. `solve_brute` enumerates
tuples by ascending rank, so the returned witness is canonically first.

Everything is exponential by design. Calls guard their cost with an
exponent budget and raise BudgetError instead of guessing, so callers
can skip oversized instances without ever misreporting a verdict.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

from .errors import BudgetError, ContractViolation
from .formula import Clause, Dqbf

Assignment = Mapping[int, bool]

DEFAULT_BUDGET = 20  # exponent: at most 2**20 candidate tuples


def assignment_rank(assignment: Assignment, domain: Sequence[int]) -> int:
    """Rank of an assignment restricted to `domain` (ascending order,
    smallest variable = least significant bit)."""
    rank = 0
    for position, var in enumerate(domain):
        if assignment[var]:
            rank |= 1 << position
    return rank


@dataclass(frozen=True)
class SkolemFunction:
    """A Boolean function for one existential, as an explicit truth table
    over its dependency domain."""

    variable: int
    domain: tuple[int, ...]
    table: tuple[bool, ...]

    def __post_init__(self) -> None:
        domain = tuple(int(v) for v in self.domain)
        if list(domain) != sorted(set(domain)):
            raise ContractViolation("domain must be strictly ascending")
        table = tuple(bool(b) for b in self.table)
        if len(table) != 1 << len(domain):
            raise ContractViolation(
                f"table for {len(domain)} inputs needs {1 << len(domain)} rows")
        object.__setattr__(self, "domain", domain)
        object.__setattr__(self, "table", table)

    def value(self, assignment: Assignment) -> bool:
        return self.table[assignment_rank(assignment, self.domain)]


@dataclass(frozen=True)
class SkolemTuple:
    """One Skolem function per existential variable."""

    functions: tuple[SkolemFunction, ...]

    def __post_init__(self) -> None:
        ordered = tuple(sorted(self.functions, key=lambda f: f.variable))
        if len({f.variable for f in ordered}) != len(ordered):
            raise ContractViolation("duplicate function for a variable")
        object.__setattr__(self, "functions", ordered)

    def function_for(self, var: int) -> SkolemFunction:
        for fn in self.functions:
            if fn.variable == var:
                return fn
        raise ContractViolation(f"no function for variable {var}")


@dataclass(frozen=True)
class SolveResult:
    satisfiable: bool
    witness: SkolemTuple | None = None


def evaluate(matrix: Iterable[Clause], assignment: Assignment) -> bool:
    """Evaluate a CNF matrix under a total assignment."""
    for clause in matrix:
        for lit in clause:
            if abs(lit) not in assignment:
                raise ContractViolation(f"assignment misses variable {abs(lit)}")
        if not any(assignment[abs(l)] == (l > 0) for l in clause):
            return False
    return True


def is_skolem(formula: Dqbf, candidate: SkolemTuple) -> bool:
    """Does the tuple make the matrix true under every universal
    assignment? Domains must match the declared dependency sets, and
    there are at most DEFAULT_BUDGET universals to enumerate."""
    existentials = formula.prefix.existentials
    functions = {f.variable: f for f in candidate.functions}
    if set(functions) != set(existentials):
        raise ContractViolation("tuple does not cover exactly the existentials")
    for var, fn in functions.items():
        if frozenset(fn.domain) != existentials[var]:
            raise ContractViolation(
                f"function domain for {var} differs from its dependency set")
    universals = sorted(formula.prefix.universals)
    if len(universals) > DEFAULT_BUDGET:
        raise BudgetError(f"{len(universals)} universals exceed the "
                          f"2**{DEFAULT_BUDGET} budget")
    for rank in range(1 << len(universals)):
        assignment: dict[int, bool] = {
            v: bool((rank >> i) & 1) for i, v in enumerate(universals)
        }
        for var, fn in functions.items():
            assignment[var] = fn.value(assignment)
        if not evaluate(formula.matrix, assignment):
            return False
    return True


# -- candidate-space bit masks ----------------------------------------------
#
# A candidate tuple is encoded as an integer: each existential owns a block
# of table bits (ascending variables, lower variables in lower-order bits).
# The set of satisfying tuples is then a single big integer whose bit T is
# set iff candidate T works, which makes set comparisons exact and cheap.
# It is built from one mask per table bit, kept in one bounded LRU.


class _Entry(NamedTuple):
    variable: int
    domain: tuple[int, ...]
    offset: int
    width: int
    domain_bits: tuple[int, ...]  # bit index of each domain variable


class _Layout(NamedTuple):
    universals: tuple[int, ...]
    uindex: Mapping[int, int]
    entries: tuple[_Entry, ...]
    total_bits: int


def _layout(universals: Iterable[int],
            dependencies: Iterable[tuple[int, frozenset[int]]]) -> _Layout:
    universals = tuple(sorted(universals))
    uindex = {v: i for i, v in enumerate(universals)}
    entries = []
    offset = 0
    for var, deps in sorted(dependencies):
        domain = tuple(sorted(deps))
        width = 1 << len(domain)
        entries.append(_Entry(var, domain, offset, width,
                              tuple(uindex[v] for v in domain)))
        offset += width
    return _Layout(universals, uindex, tuple(entries), offset)


# Consecutive formulas of a verified run mostly share their prefix, so
# the layout of the last one is kept.
_prefix_layout = lru_cache(maxsize=1)(_layout)


# A verified pass asks for the masks of its input and its output (`up`
# also for the formula of its derived units), and the next pass's input
# is this pass's output, so two recent formulas cover every repeat.
_MASK_MEMO_SIZE = 2


# The table-bit masks built last, as many as the two formulas seen last
# ask for at the default budget: at most 40 masks of 2**budget bits each
# (5 MiB at the default budget).
@lru_cache(maxsize=_MASK_MEMO_SIZE * DEFAULT_BUDGET)
def _bit_mask(total_bits: int, position: int) -> int:
    # mask over 2**total_bits candidate indices T selecting (T >> position) & 1
    nbits = 1 << total_bits
    block = 1 << position
    mask = ((1 << block) - 1) << block
    span = block * 2
    while span < nbits:
        mask |= mask << span
        span *= 2
    return mask


# The masks of the formulas used last, computed or derived, least recent
# first. The lock keeps the memo whole when threads share it.
_masks: OrderedDict[tuple, tuple[int, _Layout]] = OrderedDict()
_masks_lock = threading.Lock()


def _satisfying_mask(formula: Dqbf, limit: int,
                     implied: tuple[tuple[Clause, ...], int] | None = None
                     ) -> tuple[int, _Layout]:
    """The set of satisfying candidate tuples and the layout that numbers
    them. The budget is checked on every call; a formula's mask is only
    computed and remembered once the check passed. `implied` may give
    the matrix and mask of a formula over the same prefix to derive the
    mask from (see `_derived_mask`)."""
    prefix = formula.prefix
    dependencies = tuple(prefix.existentials.items())
    total_bits = sum(1 << len(deps) for _, deps in dependencies)
    if total_bits > limit:
        raise BudgetError(
            f"candidate space 2**{total_bits} exceeds 2**{limit}")
    if len(prefix.universals) > limit:
        raise BudgetError(
            f"{len(prefix.universals)} universals exceed the 2**{limit} budget")
    key = (prefix.universals, dependencies, formula.matrix)
    with _masks_lock:
        found = _masks.get(key)
        if found is not None:
            _masks.move_to_end(key)
            return found
    layout = _prefix_layout(prefix.universals, dependencies)
    mask = implied and _derived_mask(layout, *implied, formula.matrix)
    if mask is None:
        mask = _mask_kernel(layout, formula.matrix)
    with _masks_lock:
        _masks[key] = mask, layout
        _masks.move_to_end(key)
        if len(_masks) > _MASK_MEMO_SIZE:
            _masks.popitem(last=False)
    return mask, layout


def _derived_mask(layout: _Layout, first: tuple[Clause, ...], first_mask: int,
                  matrix: tuple[Clause, ...]) -> int | None:
    # The mask of `matrix` from the mask of `first`, over the same
    # prefix, if each clause `first` has and `matrix` lacks contains a
    # clause of `matrix`; None otherwise. Then `matrix` implies every
    # clause of `first`, so its Skolem tuples are those of `first` that
    # satisfy the clauses `matrix` adds: M(S) = M(F) & M(S - F). A
    # subset of a canonical clause begins with one of its literals, so
    # the clauses of `matrix` are looked up by their first (0 if empty).
    kept = set(matrix)
    by_first: dict[int, list[Clause]] = {}
    for clause in matrix:
        by_first.setdefault(clause[0] if clause else 0, []).append(clause)
    for clause in first:
        if clause in kept:
            continue
        literals = set(clause)
        if not any(literals.issuperset(subset)
                   for lit in (0, *clause) for subset in by_first.get(lit, ())):
            return None
    known = set(first)
    added = [clause for clause in matrix if clause not in known]
    if not (first_mask and added):
        return first_mask
    return first_mask & _mask_kernel(layout, added)


def _mask_kernel(layout: _Layout, matrix: Sequence[Clause]) -> int:
    # Each clause is split into its universal part, as two bit sets over
    # universal indices (`care`: the universals it mentions, `neg`: those
    # that occur negated), and its existential literals, each as its
    # entry's offset and domain bits and its polarity. A universal
    # assignment `urank` falsifies the universal part iff
    # urank & care == neg. The clause then keeps the tuples whose table
    # bit at the current row of some literal's entry is set, for a
    # positive literal, or clear, for a negative one.
    #
    # That restricted clause depends on urank only through the bits in
    # `relevant`: `care` plus the domain bits of the clause's entries.
    # So a clause is applied only at the representative of its class,
    # the urank with urank & care == neg that is 0 outside `relevant`
    # (urank & fixed == neg, `fixed` being every bit but those of
    # `relevant` outside `care`). Any other urank u that falsifies the
    # universal part has the representative u & relevant, which is at
    # most u, so it was visited first and ANDed the same restricted
    # clause; ANDing it again changes nothing. After each urank the mask
    # is thus the AND of the restricted clauses of every assignment up
    # to it, as if each clause were applied at every assignment, and it
    # reaches 0 no later. Every representative is 0 outside `read`, the
    # union of each clause's `relevant` and `care`, and any other urank
    # applies no clause, so only the subsets of `read` are walked, in
    # ascending order. Rows are computed only for the entries of the
    # clause being applied, so no table-bit mask is built (and kept by
    # _bit_mask) for a row nothing reads.
    total_bits = layout.total_bits
    full = (1 << (1 << total_bits)) - 1
    entry_for = {e.variable: e for e in layout.entries}
    uindex = layout.uindex
    split = []
    read = 0
    for clause in matrix:
        care = neg = relevant = 0
        literals: list[tuple[int, tuple[int, ...], bool]] = []
        for lit in clause:
            var = abs(lit)
            if var in uindex:
                care |= 1 << uindex[var]
                if lit < 0:
                    neg |= 1 << uindex[var]
            else:
                entry = entry_for[var]
                for bit in entry.domain_bits:
                    relevant |= 1 << bit
                literals.append((entry.offset, entry.domain_bits, lit > 0))
        read |= care | relevant
        split.append((~(relevant & ~care), neg, literals))
    mask = full
    urank = 0
    while True:
        for fixed, neg, literals in split:
            if urank & fixed != neg:
                continue  # satisfied, or not its class's representative
            acc = 0
            for offset, domain_bits, positive in literals:
                row = 0
                for j, bit in enumerate(domain_bits):
                    row |= ((urank >> bit) & 1) << j
                bit_mask = _bit_mask(total_bits, offset + row)
                acc |= bit_mask if positive else full ^ bit_mask
            mask &= acc
            if mask == 0:
                return 0
        urank = (urank - read) & read  # the next subset of `read`
        if urank == 0:
            return mask


def solve_brute(formula: Dqbf, limit: int = DEFAULT_BUDGET) -> SolveResult:
    """Decide satisfiability by enumerating Skolem tuples; returns the
    canonically first witness on success."""
    mask, layout = _satisfying_mask(formula, limit)
    if mask == 0:
        return SolveResult(False)
    index = (mask & -mask).bit_length() - 1
    functions = []
    for entry in layout.entries:
        bits = (index >> entry.offset) & ((1 << entry.width) - 1)
        table = tuple(bool((bits >> row) & 1) for row in range(entry.width))
        functions.append(SkolemFunction(entry.variable, entry.domain, table))
    return SolveResult(True, SkolemTuple(tuple(functions)))


def equivalent(first: Dqbf, second: Dqbf, limit: int = DEFAULT_BUDGET) -> bool:
    """Same prefix and identical sets of Skolem functions. Two formulas
    with no Skolem functions at all are equivalent."""
    if first.prefix != second.prefix:
        raise ContractViolation("equivalence needs identical prefixes")
    mask_a, _ = _satisfying_mask(first, limit)
    mask_b, _ = _satisfying_mask(second, limit, (first.matrix, mask_a))
    return mask_a == mask_b


def implies(first: Dqbf, second: Dqbf, limit: int = DEFAULT_BUDGET) -> bool:
    """Every Skolem function of `first` is one of `second` (same prefix)."""
    if first.prefix != second.prefix:
        raise ContractViolation("implication needs identical prefixes")
    mask_a, _ = _satisfying_mask(first, limit)
    mask_b, _ = _satisfying_mask(second, limit)
    return (mask_a | mask_b) == mask_b


def equisatisfiable(first: Dqbf, second: Dqbf, limit: int = DEFAULT_BUDGET) -> bool:
    """Solver verdicts agree (prefixes may differ)."""
    mask_a, _ = _satisfying_mask(first, limit)
    mask_b, _ = _satisfying_mask(second, limit)
    return (mask_a != 0) == (mask_b != 0)


# -- independent route: universal expansion plus propositional search -------


def solve_expansion(formula: Dqbf, limit: int = DEFAULT_BUDGET) -> SolveResult:
    """Decide satisfiability by instantiating every existential as one
    fresh propositional variable per assignment of its dependency set,
    expanding the matrix over all universal assignments, and running a
    DPLL search with unit propagation."""
    universals = sorted(formula.prefix.universals)
    n = len(universals)
    if n > limit or (1 << n) * max(1, len(formula.matrix)) > (1 << limit):
        raise BudgetError(f"expansion of 2**{n} assignments exceeds the budget")
    uindex = {v: i for i, v in enumerate(universals)}
    copies: dict[tuple[int, int], int] = {}
    counter = 0
    for var in sorted(formula.prefix.existentials):
        domain = sorted(formula.prefix.existentials[var])
        for row in range(1 << len(domain)):
            counter += 1
            copies[(var, row)] = counter
    domains = {var: sorted(deps) for var, deps in formula.prefix.existentials.items()}
    expanded: set[frozenset[int]] = set()
    for urank in range(1 << n):
        for clause in formula.matrix:
            lits = []
            satisfied = False
            for lit in clause:
                var = abs(lit)
                if var in uindex:
                    if bool((urank >> uindex[var]) & 1) == (lit > 0):
                        satisfied = True
                        break
                else:
                    row = 0
                    for j, v in enumerate(domains[var]):
                        row |= ((urank >> uindex[v]) & 1) << j
                    ground = copies[(var, row)]
                    lits.append(ground if lit > 0 else -ground)
            if satisfied:
                continue
            if not lits:
                return SolveResult(False)  # clause false under this assignment
            expanded.add(frozenset(lits))
    return SolveResult(_dpll(list(expanded)))


def _dpll(clauses: list[frozenset[int]]) -> bool:
    # depth-first search over an explicit stack, so the depth of the
    # search is not bounded by the interpreter's recursion limit. Each
    # entry is a clause list simplified by the decisions above it and the
    # decision to apply next; a branch's list is only built if the
    # branch is explored
    stack: list[tuple[list[frozenset[int]], int | None]] = [(clauses, None)]
    while stack:
        clauses, decision = stack.pop()
        if decision is not None:
            clauses = _assign(clauses, decision)
        while clauses and all(clauses):
            unit = next((next(iter(c)) for c in clauses if len(c) == 1), None)
            if unit is None:
                break
            clauses = _assign(clauses, unit)
        if not clauses:
            return True
        if not all(clauses):
            continue  # an empty clause: this branch is refuted
        branch = min((l for c in clauses for l in c), key=abs)
        stack.append((clauses, -branch))
        stack.append((clauses, branch))  # tried first
    return False


def _assign(clauses: list[frozenset[int]], lit: int) -> list[frozenset[int]]:
    # drop satisfied clauses and the falsified literal; untouched clauses
    # are shared with the parent list
    return [c - {-lit} if -lit in c else c for c in clauses if lit not in c]
