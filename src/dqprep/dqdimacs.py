"""Reader and writer for the DQDIMACS text format.

Accepted input, line by line:

  - ``c ...`` comment lines, anywhere (also before the header).
  - ``p cnf <max-var> <clause-count>`` header, required before any
    quantifier or clause line.
  - ``a v1 v2 ... 0`` declares universal variables.
  - ``e v1 v2 ... 0`` declares existentials depending on every universal
    declared so far.
  - ``d y u1 u2 ... 0`` declares one existential with an explicit
    dependency set; each dependency must already be universal.
  - Clause lines are 0-terminated literal lists; a clause may span lines
    and a line may hold several clauses.

Outside comments, a line holds only ASCII characters other than ``_``:
``int`` would otherwise read ``1_0`` as 10 and other scripts' digits as
decimal ones. Integers keep ``int``'s optional sign (``+3``, ``-0``).

Variables beyond the header bound are errors. Variables used in clauses
but never declared become existentials with empty dependency sets and
produce a warning diagnostic. Each clause is normalized as soon as its
``0`` is read: tautological clauses are dropped with a warning, and
duplicate literals and clauses are merged silently. A line
ends at LF, CRLF or CR, the newlines ``open()`` translates; other line
breaks such as form feed or U+2028 are ordinary characters. Output
always uses LF.

One loop reads the lines. Two line shapes make up almost all of a real
file, and each is taken whole at the top of the loop: before the first
clause, a ``d`` line whose variable is in range and not yet declared and
whose dependencies are all universal; after it, a line that holds
exactly one clause over declared, distinct variables. Both are read
only where the ``_``/ASCII rule holds. Any other line falls through,
with nothing of it committed, to the per-line code, so every result,
diagnostic and error is the one the per-line code alone would give.
The fast form is the only place a ``d`` line is declared: one that
passes every check never reaches the per-line code, which for a ``d``
line only finds the error.

Dependency sets are read and written once per distinct set. The parser
keeps, for one call, a memo from the text of a ``d`` line after its
variable to the set it read: the integers of each distinct text are
converted and checked once, and a later line with the same text costs a
dict lookup. Each integer is checked by looking it up in a map from
every universal to itself, which also puts the universal's own ``int``
in the set, so n distinct sets over k universals hold k ints, not one
per integer read. The memo holds only texts that passed, and the
universals only grow before the first clause, so a hit needs no new
check. Equal sets, from ``d`` lines, ``e`` lines or free variables, are
one ``frozenset`` object in the parsed prefix, so n ``d`` lines that
share one set of k universals keep one set, not n; the prefix's
``variables`` are built on first use, and `emit_dqdimacs` never builds
them. The emitter renders each distinct set once per call, in a memo
keyed by the set, so those n lines format k integers, not n·k.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, TextIO

from .errors import ParseError
from .formula import Canonical, Clause, Dqbf, Prefix, TAUTOLOGY, normalize_clause


@dataclass(frozen=True)
class ParseDiagnostic:
    """Non-fatal observation made while parsing (1-based line number)."""

    line: int
    message: str
    severity: str = "warning"


class ParseResult(NamedTuple):
    formula: Dqbf
    diagnostics: tuple[ParseDiagnostic, ...]


def parse_dqdimacs(source: str | TextIO) -> ParseResult:
    """Parse DQDIMACS text (or a readable stream) into a formula.

    Raises ParseError with a line number on malformed input; collects
    warnings in the returned diagnostics.
    """
    text = source if isinstance(source, str) else source.read()
    diagnostics: list[ParseDiagnostic] = []
    tautologies: list[ParseDiagnostic] = []
    header: tuple[int, int] | None = None
    header_line = 0
    # each universal mapped to itself: a dependency read from a `d` line
    # is replaced by that one int object, so n sets over k universals
    # keep k ints, not one per integer read
    universals: dict[int, int] = {}
    existentials: dict[int, frozenset[int]] = {}
    # one object per distinct dependency set, however many lines share it
    shared: dict[frozenset[int], frozenset[int]] = {}
    declared: frozenset[int] = frozenset()
    kept: list[Clause] = []
    found = 0
    pending: list[int] = []
    pending_line = 0
    first_use: dict[int, int] = {}
    # a fast form may read a line with int() only if it holds no '_' and
    # no non-ASCII character; tested once here, or per line if this fails
    clean = text.isascii() and "_" not in text
    # the dependency set of each `d` line text after its variable that
    # passed the checks: `universals` only grows before the first clause,
    # so a text that passed once passes again
    known: dict[str, frozenset[int]] = {}
    if "\r" in text:
        # lines end at LF, CRLF and CR only
        text = text.replace("\r\n", "\n").replace("\r", "\n")

    for lineno, raw in enumerate(text.split("\n"), 1):
        if (header is not None and not pending
                and (clean or raw.isascii() and "_" not in raw)):
            if found:
                # exactly one clause: its last token is the only zero,
                # and its variables are declared and distinct (0 is never
                # declared; a repeated literal or a tautology repeats one)
                tokens = raw.split()
                if tokens and tokens.pop() == "0":
                    try:
                        literals = list(map(int, tokens))
                    except ValueError:
                        literals = [0]  # falls through
                    variables = set(map(abs, literals))
                    if len(variables) == len(literals) and variables <= declared:
                        literals.sort(key=abs)
                        kept.append(tuple(literals))
                        found += 1
                        continue
            else:
                # a `d` line, the only place one is declared: a new
                # existential in range with universal dependencies
                parts = raw.split(None, 2)
                if len(parts) == 3 and parts[0] == "d":
                    rest = parts[2]
                    deps = known.get(rest)
                    try:
                        var = int(parts[1])
                        if deps is None:
                            tokens = rest.split()
                            if tokens.pop() == "0":
                                read = frozenset(map(universals.get, map(int, tokens)))
                                if None not in read:
                                    deps = known[rest] = shared.setdefault(read, read)
                    except ValueError:
                        var = 0  # falls through
                    if (deps is not None and 0 < var <= max_var
                            and var not in universals and var not in existentials):
                        existentials[var] = deps
                        continue
        line = raw.strip()
        if not line or line[0] == "c":
            continue
        if "_" in line or not line.isascii():
            raise ParseError("'_' and non-ASCII characters are allowed only "
                             "in comments", lineno)
        tokens = line.split()
        head = tokens[0]
        if head == "p":
            if header is not None:
                raise ParseError("duplicate 'p cnf' header", lineno)
            if universals or existentials or found or pending:
                raise ParseError("'p cnf' header must come first", lineno)
            if len(tokens) != 4 or tokens[1] != "cnf":
                raise ParseError(
                    "malformed header, expected 'p cnf <max-var> <clauses>'", lineno)
            try:
                max_var, clause_count = int(tokens[2]), int(tokens[3])
            except ValueError:
                raise ParseError("malformed header, counts must be integers", lineno)
            if max_var < 0 or clause_count < 0:
                raise ParseError("header counts must be non-negative", lineno)
            header = (max_var, clause_count)
            header_line = lineno
            continue
        if header is None:
            raise ParseError("missing 'p cnf' header", lineno)
        if head in ("a", "e", "d"):
            if found or pending:
                raise ParseError("quantifier line after the first clause", lineno)
            if len(tokens) < 2 or tokens[-1] != "0":
                raise ParseError(f"'{head}' line must end with 0", lineno)
            try:
                values = [int(t) for t in tokens[1:-1]]
            except ValueError:
                raise ParseError(f"bad token on '{head}' line", lineno)
            if any(v < 1 for v in values):
                raise ParseError("quantifier lines expect positive variables", lineno)
            for v in values:
                if v > max_var:
                    raise ParseError(f"variable {v} exceeds header bound", lineno)
            if head == "d":
                if not values:
                    raise ParseError("'d' line expects a variable", lineno)
                values, deps = values[:1], values[1:]
            # a redeclared variable is reported before a bad dependency;
            # the variables of an `e` line share one dependency set
            if head == "e":
                inherited = frozenset(universals)
                inherited = shared.setdefault(inherited, inherited)
            for var in values:
                if var in universals or var in existentials:
                    raise ParseError(f"variable {var} redeclared", lineno)
                if head == "a":
                    universals[var] = var
                elif head == "e":
                    existentials[var] = inherited
            if head == "d":
                for v in deps:
                    if v not in universals:
                        raise ParseError(
                            f"dependency on non-universal variable {v}", lineno)
                # a `d` line that passes every check is one the fast form
                # takes, so one of the checks above has raised
                raise AssertionError(f"line {lineno}: a valid 'd' line reached "
                                     "the per-line code")
            continue
        if not found and not pending:
            # the first clause line: the declarations are complete
            declared = frozenset(universals).union(existentials)
        for token in tokens:
            try:
                value = int(token)
            except ValueError:
                raise ParseError(f"bad token {token!r}", lineno)
            if value == 0:
                clause = normalize_clause(pending)
                if clause is TAUTOLOGY:
                    tautologies.append(ParseDiagnostic(
                        pending_line, "tautological clause dropped"))
                else:
                    kept.append(clause)
                found += 1
                pending = []
            else:
                var = abs(value)
                if var > max_var:
                    raise ParseError(f"variable {var} exceeds header bound", lineno)
                # declarations precede clauses, so an undeclared variable is free
                if var not in declared:
                    first_use.setdefault(var, lineno)
                if not pending:
                    pending_line = lineno
                pending.append(value)
    if header is None:
        raise ParseError("missing 'p cnf' header", 1)
    if pending:
        raise ParseError("unterminated clause at end of input", pending_line)

    free: frozenset[int] = frozenset()
    free = shared.setdefault(free, free)
    for var in sorted(first_use):
        existentials[var] = free
        diagnostics.append(ParseDiagnostic(
            first_use[var],
            f"free variable {var} treated as existential with no dependencies"))
    if found != header[1]:
        diagnostics.append(ParseDiagnostic(
            header_line, f"header declares {header[1]} clauses, found {found}"))
    diagnostics += tautologies
    # every clause is normalized and every variable declared by now, and
    # each part of the prefix was checked on the line that declared it
    prefix = Prefix._trusted(frozenset(universals),
                             {y: existentials[y] for y in sorted(existentials)})
    return ParseResult(Dqbf(prefix, Canonical(kept)), tuple(diagnostics))


def emit_dqdimacs(formula: Dqbf) -> str:
    """Serialize a formula deterministically.

    One ``a`` line with the universals ascending (omitted when there are
    none), one ``d`` line per existential ascending, then the clauses in
    matrix order. Parsing the output reproduces the formula exactly.
    """
    prefix = formula.prefix
    # a prefix stores its existentials ascending: the last is the largest,
    # and the `d` lines follow that order
    max_var = max(max(prefix.universals, default=0),
                  next(reversed(prefix.existentials), 0))
    lines = [f"p cnf {max_var} {len(formula.matrix)}"]
    if prefix.universals:
        lines.append("a " + " ".join(str(v) for v in sorted(prefix.universals)) + " 0")
    # each distinct dependency set is rendered once. Integers are written
    # with `str(v)` in a comprehension, not `map(str, ...)`: CPython 3.11
    # specializes that call, and on long lines it is about 20 % faster
    rendered: dict[frozenset[int], str] = {}
    for var, deps in prefix.existentials.items():
        text = rendered.get(deps)
        if text is None:
            text = rendered[deps] = " ".join(str(v) for v in sorted(deps))
        lines.append(f"d {var} {text} 0" if text else f"d {var} 0")
    for clause in formula.matrix:
        lines.append(" ".join([str(l) for l in clause]) + " 0" if clause else "0")
    lines.append("")  # the last newline, without a copy of the text
    return "\n".join(lines)
