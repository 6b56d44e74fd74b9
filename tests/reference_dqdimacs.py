"""The original two-loop DQDIMACS parser, kept as a reference for the
differential tests of `dqprep.dqdimacs.parse_dqdimacs`.

It buffers every clause as a (line, literals) pair and normalizes them in
a second loop, and it keeps the declared variables and the universals'
order in sets and lists beside the prefix it builds.
"""

from __future__ import annotations

from typing import TextIO

from dqprep.dqdimacs import ParseDiagnostic, ParseResult
from dqprep.errors import ParseError
from dqprep.formula import Canonical, Dqbf, Prefix, TAUTOLOGY, normalize_clause


def reference_parse_dqdimacs(source: str | TextIO) -> ParseResult:
    """Parse DQDIMACS text (or a readable stream) into a formula.

    Raises ParseError with a line number on malformed input; collects
    warnings in the returned diagnostics.
    """
    text = source if isinstance(source, str) else source.read()
    diagnostics: list[ParseDiagnostic] = []
    header: tuple[int, int] | None = None
    header_line = 0
    universal_order: list[int] = []
    universals: set[int] = set()
    existentials: dict[int, frozenset[int]] = {}
    declared: set[int] = set()
    clauses: list[tuple[int, list[int]]] = []
    pending: list[int] = []
    pending_line: int | None = None
    saw_clause_token = False
    first_use: dict[int, int] = {}

    # lines end at LF, CRLF and CR only; the list of them is not bound to
    # a name, so it is freed when the loop ends
    for lineno, raw in enumerate(
            text.replace("\r\n", "\n").replace("\r", "\n").split("\n"), start=1):
        line = raw.strip()
        if not line or line[0] == "c":
            continue
        if "_" in line or not line.isascii():
            raise ParseError("'_' and non-ASCII characters are allowed only "
                             "in comments", lineno)
        head = line.split(None, 1)[0]
        if head == "p":
            if header is not None:
                raise ParseError("duplicate 'p cnf' header", lineno)
            if declared or saw_clause_token:
                raise ParseError("'p cnf' header must come first", lineno)
            parts = line.split()
            if len(parts) != 4 or parts[1] != "cnf":
                raise ParseError(
                    "malformed header, expected 'p cnf <max-var> <clauses>'", lineno)
            try:
                max_var, clause_count = int(parts[2]), int(parts[3])
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
            if saw_clause_token:
                raise ParseError("quantifier line after the first clause", lineno)
            tokens = line.split()[1:]
            if not tokens or tokens[-1] != "0":
                raise ParseError(f"'{head}' line must end with 0", lineno)
            try:
                values = [int(t) for t in tokens[:-1]]
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
                var, deps = values[0], values[1:]
                if var in declared:
                    raise ParseError(f"variable {var} redeclared", lineno)
                for v in deps:
                    if v not in universals:
                        raise ParseError(
                            f"dependency on non-universal variable {v}", lineno)
                declared.add(var)
                existentials[var] = frozenset(deps)
            else:
                for var in values:
                    if var in declared:
                        raise ParseError(f"variable {var} redeclared", lineno)
                    declared.add(var)
                    if head == "a":
                        universals.add(var)
                        universal_order.append(var)
                    else:
                        existentials[var] = frozenset(universal_order)
            continue
        for token in line.split():
            try:
                value = int(token)
            except ValueError:
                raise ParseError(f"bad token {token!r}", lineno)
            saw_clause_token = True
            if value == 0:
                clauses.append(
                    (pending_line if pending_line is not None else lineno, pending))
                pending = []
                pending_line = None
            else:
                if abs(value) > max_var:
                    raise ParseError(
                        f"variable {abs(value)} exceeds header bound", lineno)
                first_use.setdefault(abs(value), lineno)
                if pending_line is None:
                    pending_line = lineno
                pending.append(value)
    if header is None:
        raise ParseError("missing 'p cnf' header", 1)
    if pending:
        raise ParseError("unterminated clause at end of input", pending_line)

    for var in sorted(first_use):
        if var not in declared:
            declared.add(var)
            existentials[var] = frozenset()
            diagnostics.append(ParseDiagnostic(
                first_use[var],
                f"free variable {var} treated as existential with no dependencies"))

    if len(clauses) != header[1]:
        diagnostics.append(ParseDiagnostic(
            header_line,
            f"header declares {header[1]} clauses, found {len(clauses)}"))

    kept = []
    for line, lits in clauses:
        clause = normalize_clause(lits)
        if clause is TAUTOLOGY:
            diagnostics.append(ParseDiagnostic(line, "tautological clause dropped"))
            continue
        kept.append(clause)
    # every clause is normalized and every variable declared by now
    formula = Dqbf(Prefix(frozenset(universals), existentials), Canonical(kept))
    return ParseResult(formula, tuple(diagnostics))
