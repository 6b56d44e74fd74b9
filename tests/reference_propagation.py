"""The original full-matrix scan implementation of unit propagation,
kept as a reference for the differential tests of the clause store.

It rescans every clause for every processed unit, so it is quadratic on
implication chains; it is only run on small formulas.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Mapping

from dqprep import Clause, Dqbf, Prefix, PropagationOutcome


def _reduce(clause: Clause, existentials: Mapping[int, frozenset[int]],
            abstracted: frozenset[int] = frozenset()) -> Clause:
    # an abstracted universal is kept as an existential with no dependencies
    support: set[int] = set()
    for lit in clause:
        deps = existentials.get(abs(lit))
        if deps is not None:
            support.update(deps)
    return tuple(l for l in clause if abs(l) in existentials
                 or abs(l) in abstracted or abs(l) in support)


def scan_unit_propagate(formula: Dqbf) -> PropagationOutcome:
    """Unit propagation with interleaved universal reduction: all clauses
    are reduced up front, existential unit clauses are queued in matrix
    order, and each processed unit rescans the whole matrix."""
    existentials = dict(formula.prefix.existentials)
    clauses: list[Clause | None] = []
    queue: deque[int] = deque()
    for clause in formula.matrix:
        reduced = _reduce(clause, existentials)
        if not reduced:
            return PropagationOutcome(conflict=True)
        clauses.append(reduced)
        if len(reduced) == 1 and abs(reduced[0]) in existentials:
            queue.append(reduced[0])
    units: list[int] = []
    while queue:
        lit = queue.popleft()
        if abs(lit) not in existentials:
            continue  # already propagated through another clause
        del existentials[abs(lit)]
        units.append(lit)
        for index, clause in enumerate(clauses):
            if clause is None:
                continue
            if lit in clause:
                clauses[index] = None
            elif -lit in clause:
                shortened = tuple(l for l in clause if l != -lit)
                reduced = _reduce(shortened, existentials)
                if not reduced:
                    return PropagationOutcome(conflict=True, steps=len(units))
                clauses[index] = reduced
                if len(reduced) == 1 and abs(reduced[0]) in existentials:
                    queue.append(reduced[0])
    survivors = tuple(c for c in clauses if c is not None)
    result = Dqbf(Prefix(formula.prefix.universals, existentials), survivors)
    return PropagationOutcome(False, result, frozenset(units), len(units))
