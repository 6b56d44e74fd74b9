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

Two tight loops take the runs of lines that make up almost all of a
real file. Before the first clause, one takes each ``d`` line whose
variable is in range and not yet declared and whose dependencies are
all universal. After the first clause, the other takes each line that
holds exactly one clause: its last token is ``0``, no other token is
zero, and its variables are declared and distinct (no duplicate
literal, no tautology). Either loop reads only text that passes the
``_``/ASCII rule, and stops at the first line it cannot take with
nothing of that line committed. The per-line code then handles that
line, and the loops start again on the next one, so every result,
diagnostic and error is the one the per-line code alone would give.
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
    universals: dict[int, None] = {}
    existentials: dict[int, frozenset[int]] = {}
    declared: frozenset[int] = frozenset()
    kept: list[Clause] = []
    found = 0
    pending: list[int] = []
    pending_line = 0
    first_use: dict[int, int] = {}
    # a fast loop may read a line with int() only if it holds no '_' and
    # no non-ASCII character; tested once here, or per line if this fails
    clean = text.isascii() and "_" not in text

    # lines end at LF, CRLF and CR only
    lines = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    index, end = 0, len(lines)
    while index < end:
        if header is not None and not pending:
            if found:
                start = index
                index = _take_clauses(lines, index, clean, declared, kept)
                found += index - start
            else:
                index = _take_d_lines(lines, index, clean, header[0],
                                      universals, existentials)
            if index == end:
                break
        # the line no fast loop takes
        raw = lines[index]
        index += 1
        lineno = index
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
        max_var = header[0]
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
            # a redeclared variable is reported before a bad dependency
            for var in values:
                if var in universals or var in existentials:
                    raise ParseError(f"variable {var} redeclared", lineno)
                if head == "a":
                    universals[var] = None
                elif head == "e":
                    existentials[var] = frozenset(universals)
            if head == "d":
                for v in deps:
                    if v not in universals:
                        raise ParseError(
                            f"dependency on non-universal variable {v}", lineno)
                existentials[values[0]] = frozenset(deps)
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
                if var not in existentials and var not in universals:
                    first_use.setdefault(var, lineno)
                if not pending:
                    pending_line = lineno
                pending.append(value)
    del lines
    if header is None:
        raise ParseError("missing 'p cnf' header", 1)
    if pending:
        raise ParseError("unterminated clause at end of input", pending_line)

    for var in sorted(first_use):
        existentials[var] = frozenset()
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


def _take_clauses(lines: list[str], index: int, clean: bool,
                  declared: frozenset[int], kept: list[Clause]) -> int:
    """Append the clause of each line from `index` on that holds exactly
    one clause: it ends in the token ``0``, has no other zero and no
    variable twice, and uses only declared variables. Return the index
    of the first line that is not such a line; nothing of it is taken."""
    for index in range(index, len(lines)):
        raw = lines[index]
        tokens = raw.split()
        if (not tokens or tokens.pop() != "0"
                or not (clean or raw.isascii() and "_" not in raw)):
            return index
        try:
            literals = list(map(int, tokens))
        except ValueError:
            return index
        variables = set(map(abs, literals))
        # 0 is never declared; a repeated literal or a tautology repeats
        # a variable
        if len(variables) != len(literals) or not variables <= declared:
            return index
        literals.sort(key=abs)
        kept.append(tuple(literals))
    return len(lines)


def _take_d_lines(lines: list[str], index: int, clean: bool, max_var: int,
                  universals: dict[int, None],
                  existentials: dict[int, frozenset[int]]) -> int:
    """Declare the existential of each line from `index` on that is a
    ``d`` line ending in the token ``0`` whose variable is in range and
    not yet declared and whose dependencies are all universal. Return
    the index of the first line that is not such a line; nothing of it
    is taken."""
    universal = frozenset(universals)
    for index in range(index, len(lines)):
        raw = lines[index]
        tokens = raw.split()
        if (len(tokens) < 3 or tokens[0] != "d" or tokens.pop() != "0"
                or not (clean or raw.isascii() and "_" not in raw)):
            return index
        try:
            var = int(tokens[1])
            deps = frozenset(map(int, tokens[2:]))
        except ValueError:
            return index
        if (not 0 < var <= max_var or var in universal
                or var in existentials or not deps <= universal):
            return index
        existentials[var] = deps
    return len(lines)


def emit_dqdimacs(formula: Dqbf) -> str:
    """Serialize a formula deterministically.

    One ``a`` line with the universals ascending (omitted when there are
    none), one ``d`` line per existential ascending, then the clauses in
    matrix order. Parsing the output reproduces the formula exactly.
    """
    prefix = formula.prefix
    max_var = max(prefix.variables, default=0)
    lines = [f"p cnf {max_var} {len(formula.matrix)}"]
    if prefix.universals:
        lines.append("a " + " ".join(str(v) for v in sorted(prefix.universals)) + " 0")
    for var in sorted(prefix.existentials):
        deps = " ".join(str(v) for v in sorted(prefix.existentials[var]))
        lines.append(f"d {var} {deps} 0" if deps else f"d {var} 0")
    for clause in formula.matrix:
        lines.append(" ".join([*(str(l) for l in clause), "0"]))
    return "\n".join(lines) + "\n"
