"""Core data model for dependency quantified Boolean formulas (DQBF).

Variables are positive integers following DQDIMACS numbering. A literal
is a non-zero integer, negative for a negated variable. Clauses are
tuples sorted by variable, each at most once, so equality is
structural; a matrix is an ordered, duplicate-free tuple of clauses.

Clauses become canonical once, where they enter the program: in the
parser, and in `Dqbf(...)` for a matrix a caller hands in. There every
clause is normalized, tautologies are dropped, and a clause over an
undeclared variable is a CompatibilityError. Matrices the package
builds from clauses that are already canonical (pass results, the
propagation fixpoint, the parser's output) are marked `Canonical`:
every clause is a canonical, non-tautological clause over the prefix
it is paired with, so `Dqbf` only drops repeated clauses, keeping the
first occurrence, and skips the rest. Prefixes are likewise validated
where they enter, and `Prefix._trusted` builds the few the package
makes from parts it has already validated. Within a prefix, equal
dependency sets are one `frozenset` object, so a prefix holds one set
per distinct set however many existentials share it; its `variables`
are built on first use.

All values are immutable once constructed and safe to share between
threads; every operation returns a new value. Two threads that read a
prefix's `variables` first at once may both build it, to equal sets.
"""

from __future__ import annotations

import enum
from collections.abc import Iterable, Mapping
from dataclasses import dataclass, field

from .errors import CompatibilityError, ContractViolation

Literal = int
Clause = tuple[Literal, ...]


class _TautologyType(enum.Enum):
    """Marker for clauses containing a variable in both polarities."""

    TAUTOLOGY = "TAUTOLOGY"

    def __repr__(self) -> str:
        return self.value

    __str__ = __repr__


TAUTOLOGY = _TautologyType.TAUTOLOGY


def literal_key(literal: Literal) -> tuple[int, bool]:
    """Ascending variable, positive first: plain variable order on a
    canonical clause, which holds no variable twice."""
    return (abs(literal), literal < 0)


def normalize_clause(literals: Iterable[Literal]) -> Clause | _TautologyType:
    """Return the canonical form of a clause.

    Duplicate literals are dropped and the rest sorted by variable.
    Returns TAUTOLOGY when both polarities of a variable are present.
    Idempotent on already canonical clauses.
    """
    seen: set[int] = set()
    for lit in literals:
        lit = int(lit)
        if lit == 0:
            raise ContractViolation("0 is not a literal")
        if -lit in seen:
            return TAUTOLOGY
        seen.add(lit)
    return tuple(sorted(seen, key=abs))


class Canonical(tuple):
    """A matrix of canonical, non-tautological clauses whose variables all
    belong to the prefix of the Dqbf built from it; repeated clauses are
    allowed. Internal: the producer vouches for the contract, `Dqbf`
    does not check it."""

    __slots__ = ()


@dataclass(frozen=True)
class Prefix:
    """Quantifier prefix: universal variables plus a dependency map for
    the existential variables.

    Dependencies are explicit sets of universal variables, so the prefix
    carries no ordering. Universals and existentials must be disjoint.
    Construction converts and checks every part, and stores the
    existentials in ascending order. The parser and the propagation
    fixpoint, whose parts are already valid, build theirs through the
    private `_trusted`, which skips that work, as `Canonical` does for
    matrices. Construction makes equal dependency sets one object.
    """

    universals: frozenset[int] = frozenset()
    existentials: Mapping[int, frozenset[int]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        universals = frozenset(map(int, self.universals))
        raw = dict(self.existentials)
        shared: dict[frozenset[int], frozenset[int]] = {}
        existentials: dict[int, frozenset[int]] = {}
        for y in sorted(raw):
            deps = frozenset(map(int, raw[y]))
            existentials[int(y)] = shared.setdefault(deps, deps)
        for var in universals | existentials.keys():
            if var < 1:
                raise ContractViolation(f"variable ids must be positive: {var}")
        overlap = universals & existentials.keys()
        if overlap:
            raise ContractViolation(
                f"variables both universal and existential: {sorted(overlap)}")
        for var, deps in existentials.items():
            stray = deps - universals
            if stray:
                raise ContractViolation(
                    f"dependencies of {var} are not universal: {sorted(stray)}")
        object.__setattr__(self, "universals", universals)
        object.__setattr__(self, "existentials", existentials)

    @classmethod
    def _trusted(cls, universals: frozenset[int],
                 existentials: dict[int, frozenset[int]]) -> Prefix:
        """The prefix of parts the caller has already validated: positive
        ints, universals and existentials disjoint, every dependency set
        a frozenset of universals, and the existentials' keys ascending.
        Internal, like `Canonical`: nothing is checked or copied, so
        equal dependency sets are one object only if they are so in
        `existentials`."""
        prefix = object.__new__(cls)
        object.__setattr__(prefix, "universals", universals)
        object.__setattr__(prefix, "existentials", existentials)
        return prefix

    # the set `variables` builds on first use; not a field, so it takes
    # no part in `==` or `repr`. It is stored by `object.__setattr__`,
    # not through `__dict__` as `functools.cached_property` does, which
    # gives the instance a dict of its own and slows every other
    # attribute read of the prefix
    _variables = None

    @property
    def variables(self) -> frozenset[int]:
        """Every quantified variable, built on first use and kept."""
        if self._variables is None:
            object.__setattr__(self, "_variables",
                               self.universals.union(self.existentials))
        return self._variables

    def __contains__(self, var: int) -> bool:
        return var in self.universals or var in self.existentials


@dataclass(frozen=True)
class Dqbf:
    """A quantifier prefix together with a CNF matrix.

    The matrix keeps insertion order but never holds duplicate or
    tautological clauses; every clause variable must be quantified. A
    `Canonical` matrix is only freed of repeated clauses.
    """

    prefix: Prefix
    matrix: tuple[Clause, ...] = ()

    def __post_init__(self) -> None:
        if type(self.matrix) is Canonical:
            object.__setattr__(self, "matrix", tuple(dict.fromkeys(self.matrix)))
            return
        known = self.prefix.variables
        clauses: list[Clause] = []
        seen: set[Clause] = set()
        for raw in self.matrix:
            if raw is TAUTOLOGY:
                continue
            clause = normalize_clause(raw)
            if clause is TAUTOLOGY:
                continue
            stray = {abs(l) for l in clause} - known
            if stray:
                raise CompatibilityError(
                    f"clause {clause} uses undeclared variables: {sorted(stray)}")
            if clause not in seen:
                seen.add(clause)
                clauses.append(clause)
        object.__setattr__(self, "matrix", tuple(clauses))

    @property
    def variables(self) -> frozenset[int]:
        return self.prefix.variables


def dep(scope: Dqbf | Prefix, target: int | Iterable[int]) -> frozenset[int]:
    """Dependency set of a variable, a literal, or a clause.

    A universal variable depends on itself, an existential carries its
    declared set, a literal inherits from its variable, and a clause is
    the union over its literals.
    """
    prefix = scope.prefix if isinstance(scope, Dqbf) else scope
    universals, existentials = prefix.universals, prefix.existentials
    if isinstance(target, int):
        target = (target,)
    out: set[int] = set()
    for lit in target:
        var = abs(int(lit))
        if var in universals:
            out.add(var)
        elif var in existentials:
            out.update(existentials[var])
        else:
            raise CompatibilityError(f"variable {var} is not in the prefix")
    return frozenset(out)


def prefix_remove(prefix: Prefix, var: int) -> Prefix:
    """Remove a variable from the prefix.

    Removing a universal also deletes it from every dependency set;
    removing an existential drops its entry.
    """
    if var in prefix.universals:
        return Prefix(prefix.universals - {var},
                      {y: deps - {var} for y, deps in prefix.existentials.items()})
    if var in prefix.existentials:
        rest = {y: deps for y, deps in prefix.existentials.items() if y != var}
        return Prefix(prefix.universals, rest)
    raise CompatibilityError(f"variable {var} is not in the prefix")


def is_compatible(scope: Dqbf | Prefix, clause: Iterable[int]) -> bool:
    """True iff every variable of the clause occurs in the prefix."""
    known = (scope.prefix if isinstance(scope, Dqbf) else scope).variables
    return all(abs(int(l)) in known for l in clause)
