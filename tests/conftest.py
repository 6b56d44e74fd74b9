"""Shared strategies and helpers for the test suite.

The hypothesis strategies deliberately produce interleaved, gappy
variable ids so nothing in the package can get away with assuming the
universals come first or that ids are contiguous. Sizes are kept small
enough that every generated formula fits the oracle budget.
"""

from __future__ import annotations

import random
import sys
from collections import Counter
from collections.abc import Callable, Iterator
from contextlib import contextmanager

import hypothesis.strategies as st
import pytest

from dqprep import (Dqbf, FuzzBounds, Prefix, TAUTOLOGY, dqat_check,
                    dqrat_plus_check, normalize_clause, oracle, outer_resolvent)
from dqprep.formula import Canonical
from dqprep.propagation import ClauseStore

# clauses of up to six literals: many keep three or more existential
# literals through several falsifications, so the counts of `_drain`
# both settle visits and run down to scans
WIDE = FuzzBounds(max_universals=2, max_existentials=8, max_clauses=24,
                  max_clause_width=6)

ACCEPTANCE_LINES: list[str] = []


def record_acceptance(number: int, label: str, ok: bool) -> None:
    line = f"ACCEPTANCE {number:02d} {label}: {'PASS' if ok else 'FAIL'}"
    ACCEPTANCE_LINES.append(line)
    print(line)
    assert ok, line


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


@pytest.fixture
def kernel_calls(monkeypatch):
    """The clauses the oracle runs its mask kernel on from here on, one
    entry per call: a whole matrix, or the clauses a matrix adds to one
    whose mask it derives the new mask from. The memo starts empty."""
    calls = []
    kernel = oracle._mask_kernel

    def counting_kernel(layout, matrix):
        calls.append(matrix)
        return kernel(layout, matrix)

    monkeypatch.setattr(oracle, "_mask_kernel", counting_kernel)
    oracle._masks.clear()
    return calls


@contextmanager
def checking_canonical() -> Iterator[Counter]:
    """Inside the block, check every Dqbf built from a matrix marked
    `Canonical` against a fully validated construction from the same
    clauses: they must be equal, so every marked clause was already
    canonical, non-tautological and over the prefix. Its prefix, which
    may come from the trusted `Prefix._trusted`, must equal a validated
    `Prefix` of the same parts, with its existentials in the same order
    and of the same types. Yields how many such formulas each producer
    (the function calling `Dqbf`) built."""
    producers: Counter = Counter()
    init = Dqbf.__post_init__

    def checked_init(self: Dqbf) -> None:
        matrix = self.matrix
        init(self)
        if type(matrix) is Canonical:
            # frame 1 is the dataclass __init__, frame 2 its caller
            producer = sys._getframe(2).f_code.co_name
            producers[producer] += 1
            assert type(self.matrix) is tuple
            prefix = self.prefix
            validated = Prefix(prefix.universals, prefix.existentials)
            assert prefix == validated and prefix.variables == validated.variables
            assert list(prefix.existentials) == list(validated.existentials)
            assert type(prefix.universals) is frozenset
            assert all(type(var) is int and type(deps) is frozenset
                       for var, deps in prefix.existentials.items())
            assert self == Dqbf(self.prefix, tuple(matrix)), (
                f"{producer} marked a matrix canonical that is not: {matrix}")

    Dqbf.__post_init__ = checked_init
    try:
        yield producers
    finally:
        Dqbf.__post_init__ = init


@contextmanager
def counting_calls(function: Callable) -> Iterator[tuple[list, set[str]]]:
    """Inside the block, every dqprep module that binds the package
    function under its name binds a wrapper instead, which records the
    arguments of each call. Yields the recorded calls and the names of
    the modules whose binding was replaced."""
    name = function.__name__
    calls: list = []

    def counting(*args):
        calls.append(args)
        return function(*args)

    modules = {module_name: module
               for module_name, module in list(sys.modules.items())
               if module_name.split(".")[0] == "dqprep"
               and getattr(module, name, None) is function}
    for module in modules.values():
        setattr(module, name, counting)
    try:
        yield calls, set(modules)
    finally:
        for module in modules.values():
            setattr(module, name, function)


@pytest.fixture
def canonical_producers() -> Iterator[Counter]:
    """`checking_canonical` for the duration of a test."""
    with checking_canonical() as producers:
        yield producers


def chain(links: int) -> Dqbf:
    """x_0 and x_i -> x_(i+1) for every link, each link carrying a literal
    of universal 2, on which no existential depends; listed backwards so
    that every unit comes after the clauses it shortens."""
    first = 3
    prefix = Prefix(frozenset({1, 2}),
                    {first + i: frozenset({1}) for i in range(links + 1)})
    matrix = [(-(first + i), first + i + 1, 2) for i in reversed(range(links))]
    return Dqbf(prefix, tuple(matrix) + ((first,),))


def random_cnf(seed: int, count: int) -> Iterator[Dqbf]:
    """A seeded stream of random formulas larger than `fuzz` draws: 1 to
    6 universals, 3 to 14 existentials each depending on a random subset
    of them, and 10 to 60 clauses of 2 to 4 literals, a tautology drawn
    left out. `dqrat` runs on many of them more than once."""
    rng = random.Random(seed)
    for _ in range(count):
        universals = list(range(1, rng.randint(1, 6) + 1))
        existentials = {len(universals) + 1 + i:
                        frozenset(u for u in universals if rng.random() < 0.5)
                        for i in range(rng.randint(3, 14))}
        variables = universals + list(existentials)
        clauses = [normalize_clause(rng.choice(variables) * rng.choice((1, -1))
                                    for _ in range(rng.randint(2, 4)))
                   for _ in range(rng.randint(10, 60))]
        yield Dqbf(u_e(universals, existentials),
                   tuple(c for c in clauses if c is not TAUTOLOGY))


def u_e(universals, existentials) -> Prefix:
    """The prefix with these universals and existential dependency sets."""
    return Prefix(frozenset(universals), existentials)


def oracle_bits(formula: Dqbf) -> int:
    return sum(2 ** len(d) for d in formula.prefix.existentials.values())


def in_oracle_budget(formula: Dqbf, limit: int = 20) -> bool:
    return (oracle_bits(formula) <= limit
            and len(formula.prefix.universals) <= limit)


@st.composite
def prefixes(draw, max_universals: int = 2, max_existentials: int = 3) -> Prefix:
    ids = draw(st.lists(st.integers(min_value=1, max_value=9), unique=True,
                        min_size=0, max_size=max_universals + max_existentials))
    low = max(0, len(ids) - max_existentials)
    high = min(max_universals, len(ids))
    n_universal = draw(st.integers(min_value=low, max_value=high))
    universals = frozenset(ids[:n_universal])
    existentials = {}
    for var in ids[n_universal:]:
        if universals:
            deps = draw(st.frozensets(st.sampled_from(sorted(universals))))
        else:
            deps = frozenset()
        existentials[var] = deps
    return Prefix(universals, existentials)


@st.composite
def clauses_over(draw, variables: list[int], max_width: int = 4):
    width = draw(st.integers(min_value=1, max_value=max_width))
    lits = draw(st.lists(
        st.builds(lambda v, s: v * s, st.sampled_from(variables),
                  st.sampled_from((1, -1))),
        min_size=1, max_size=width))
    return normalize_clause(lits)


@st.composite
def formulas(draw, max_clauses: int = 6, max_width: int = 4) -> Dqbf:
    prefix = draw(prefixes())
    variables = sorted(prefix.variables)
    matrix = []
    if variables:
        for _ in range(draw(st.integers(min_value=0, max_value=max_clauses))):
            clause = draw(clauses_over(variables, max_width))
            if clause is not TAUTOLOGY:
                matrix.append(clause)
    return Dqbf(prefix, tuple(matrix))


def partners(store, pivot):
    # the visible clauses with -pivot, in id order
    return [store.clauses[cid] for cid in store.occurrences.get(-pivot, ())
            if store.clauses[cid] is not None]


def settled_on_base(store, clause, resolvent):
    # how `dqrat_plus_check` inside the base -clause settles the resolvent
    # on an existential pivot without propagating, or None where it
    # extends the base's trail by the resolvent's negation
    if resolvent is TAUTOLOGY:
        return "tautology"
    if store._base[2]:
        return "conflicting base"
    added = [lit for lit in resolvent if lit not in clause]
    if any(lit in store.true for lit in added):
        return "clash"
    if all(-lit in store.true for lit in added):
        return "nothing new"
    return None


def reference_dqrat_plus_check(formula, clause, pivot):
    # one public outer resolvent and one public addition test per partner
    for partner in formula.matrix:
        if -pivot not in partner:
            continue
        resolvent = outer_resolvent(formula.prefix, clause, partner, pivot)
        if resolvent is not TAUTOLOGY and not dqat_check(formula, resolvent):
            return False
    return True


def assert_based_checks_match(formula, reached):
    # for every clause and existential pivot: the check inside the base of
    # the clause's negation, after which the trail and the counts must be
    # back at the base's, the same check without a base, and the
    # reference on the rest of the matrix. `reached` counts the cases of
    # the resolvents the based check looks at, in its order, until one
    # fails
    store = ClauseStore(formula)
    prefix = formula.prefix
    for cid, clause in enumerate(formula.matrix):
        rest = Dqbf(prefix, formula.matrix[:cid] + formula.matrix[cid + 1:])
        pivots = [lit for lit in clause if abs(lit) in prefix.existentials]
        with store.hidden(cid):
            without = [dqrat_plus_check(store, clause, p) for p in pivots]
            assert store.trail == [] and store.true == set()
            with store.based([-lit for lit in clause]):
                trail, live = store.trail[:], store.live[:]
                based = []
                for pivot in pivots:
                    based.append(dqrat_plus_check(store, clause, pivot))
                    assert store.trail == trail and store.true == set(trail)
                    assert store.live == live
                for pivot in pivots:
                    for partner in partners(store, pivot):
                        resolvent = outer_resolvent(prefix, clause, partner, pivot)
                        case = settled_on_base(store, clause, resolvent)
                        reached[case or "extension"] += 1
                        if case == "nothing new" or case is None and not dqat_check(
                                rest, resolvent):
                            break
        assert based == without == [reference_dqrat_plus_check(rest, clause, p)
                                    for p in pivots]
