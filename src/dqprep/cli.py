"""Command-line front end.

Reads DQDIMACS from a file or standard input, runs the preprocessing
pipeline, and writes the preprocessed formula back out as DQDIMACS.
An unsatisfiable result is emitted as a single empty clause so the
output stays parseable. Statistics go to standard error as key=value
lines, or to a JSON file with --stats-json.

Exit codes: 0 preprocessed without a verdict, 10 satisfiable,
20 unsatisfiable, 1 usage, input or output error, 2 verification
failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from collections.abc import Callable, Sequence
from dataclasses import fields

from . import oracle
from .dqdimacs import emit_dqdimacs, parse_dqdimacs
from .errors import ContractViolation, ParseError, VerificationError
from .pipeline import (PASS_NAMES, FuzzBounds, PipelineConfig, Verdict, fuzz,
                       run_pipeline)
from .reports import PassReport, merge_reports
from .techniques import DEFAULT_VIVIFY_BUDGET

EXIT_UNKNOWN = 0
EXIT_SAT = 10
EXIT_UNSAT = 20
EXIT_USAGE = 1
EXIT_VERIFICATION = 2

# version of the --stats-json payload's keys, documented in the README;
# raised when a key is renamed, removed or changes meaning
STATS_SCHEMA = 2

_VERDICT_CODES = {
    Verdict.UNKNOWN: EXIT_UNKNOWN,
    Verdict.SAT: EXIT_SAT,
    Verdict.UNSAT: EXIT_UNSAT,
}


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with code 2 on bad flags; we reserve 2 for
    # verification failures, so route usage problems through exit 1
    def error(self, message: str) -> None:  # type: ignore[override]
        raise _UsageError(message)


def _pass_list(text: str) -> tuple[str, ...]:
    return tuple(p.strip() for p in text.split(",") if p.strip())


def _checked(check: Callable[[int], object]) -> Callable[[str], int]:
    # an argparse type for an int that `check` accepts: the
    # ContractViolation it raises on a value becomes a usage error
    def integer(text: str) -> int:
        try:
            check(int(text))
        except ContractViolation as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
        return int(text)
    return integer


def add_fuzz_arguments(
        parser: argparse.ArgumentParser, count: str = "--count",
        count_default: int | None = 1000,
        count_help: str = "number of random formulas (default %(default)s)",
        bounds: bool = True) -> None:
    """Declare the arguments of a run over `fuzz` formulas: their number
    (under the flag `count`), `--seed`, `--passes` (parsed into a tuple
    of names, all of them by default) and, if `bounds`, one flag per
    `FuzzBounds` field with its default; `fuzz_bounds` reads those. A
    negative count or a value `FuzzBounds` rejects is a usage error."""
    parser.add_argument(count, type=_checked(lambda n: fuzz(0, n)),
                        default=count_default, metavar="N", help=count_help)
    parser.add_argument("--seed", type=int, default=0, metavar="N",
                        help="random seed of the formulas (default 0)")
    parser.add_argument("--passes", type=_pass_list, default=",".join(PASS_NAMES),
                        metavar="CSV",
                        help="comma-separated pass list out of "
                             f"{{{','.join(PASS_NAMES)}}} (default: all)")
    if bounds:
        for limit in fields(FuzzBounds):
            bound = _checked(lambda n, name=limit.name: FuzzBounds(**{name: n}))
            parser.add_argument("--" + limit.name.replace("_", "-"), type=bound,
                                default=limit.default, metavar="N",
                                help=f"default {limit.default}")


def fuzz_bounds(args: argparse.Namespace) -> FuzzBounds:
    """The FuzzBounds declared by `add_fuzz_arguments`."""
    return FuzzBounds(*(getattr(args, limit.name) for limit in fields(FuzzBounds)))


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="dqprep",
        description="Preprocess a DQBF in DQDIMACS form with reduction-aware "
                    "unit propagation, vivification, lookahead probing, and "
                    "redundancy elimination.")
    parser.add_argument("input", nargs="?",
                        help="input file; '-' or no argument reads standard input")
    add_fuzz_arguments(parser, "--fuzz", None,
                       "skip input; run the pipeline on N random formulas",
                       bounds=False)
    parser.add_argument("--max-rounds", type=int, default=PipelineConfig.max_rounds,
                        metavar="N",
                        help="run the pass list for at most N rounds (default "
                             "%(default)s); a pass proven to change nothing is "
                             "skipped, which leaves this cap unchanged")
    parser.add_argument("--vivify-budget", type=int, default=DEFAULT_VIVIFY_BUDGET,
                        metavar="N",
                        help="propagation steps granted per vivified clause "
                             "(default %(default)s)")
    parser.add_argument("--verify", action="store_true",
                        help="cross-check every pass against the semantic oracle")
    parser.add_argument("--out", metavar="PATH",
                        help="write the preprocessed formula here instead of stdout")
    parser.add_argument("--stats-json", metavar="PATH",
                        help="write statistics as JSON to PATH instead of stderr")
    parser.add_argument("--oracle-budget", type=int, default=oracle.DEFAULT_BUDGET,
                        metavar="N",
                        help="oracle work cap as an exponent (default %(default)s)")
    parser.add_argument("--upla-existential-only", action="store_true",
                        help="restrict lookahead probing to existential variables")
    return parser


def _write(path: str | None, text: str) -> bool:
    """Write the text to a file, or to standard output if `path` is None;
    on failure say why and return False."""
    try:
        if path is None:
            # line by line: one large write that a closed pipe cuts short
            # can return without an error, the write after it cannot
            sys.stdout.writelines(text.splitlines(keepends=True))
            sys.stdout.flush()
        else:
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(text)
    except OSError as exc:
        name = "<stdout>" if path is None else path
        print(f"dqprep: cannot write {name}: {exc.strerror}", file=sys.stderr)
        if path is None and sys.stdout is sys.__stdout__:
            # the unwritten rest would fail again when the interpreter
            # flushes stdout at exit; it goes to the null device instead
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
        return False
    return True


def _emit_stats(stats: dict[str, object], reports: list[PassReport],
                path: str | None) -> bool:
    if path is not None:
        payload = {"schema": STATS_SCHEMA, **stats,
                   "passes": [r.as_dict() for r in reports]}
        return _write(path, json.dumps(payload, indent=2) + "\n")
    lines = list(stats.items())
    for name, merged in merge_reports(reports).items():
        lines += [(f"{name}.{key}", value)
                  for key, value in merged.as_dict().items() if key != "name"]
    for key, value in lines:
        if key.endswith("wall_time"):
            value = f"{value:.6f}"
        print(f"{key}={value}", file=sys.stderr)
    return True


def _run_fuzz(args: argparse.Namespace, config: PipelineConfig) -> int:
    counts = {Verdict.SAT: 0, Verdict.UNSAT: 0, Verdict.UNKNOWN: 0}
    reports: list[PassReport] = []
    for formula in fuzz(args.seed, args.fuzz, FuzzBounds()):
        _, formula_reports, verdict = run_pipeline(config, formula)
        counts[verdict] += 1
        reports.extend(formula_reports)
    stats: dict[str, object] = {
        "formulas": args.fuzz,
        "seed": args.seed,
        "sat": counts[Verdict.SAT],
        "unsat": counts[Verdict.UNSAT],
        "unknown": counts[Verdict.UNKNOWN],
    }
    return EXIT_UNKNOWN if _emit_stats(stats, reports, args.stats_json) else EXIT_USAGE


def _run_file(args: argparse.Namespace, config: PipelineConfig) -> int:
    if args.input in (None, "-"):
        # decoded as an input file is, whatever the locale; a text
        # stream standing in for stdin has no byte buffer
        buffer = getattr(sys.stdin, "buffer", None)
        text = (sys.stdin.read() if buffer is None
                else buffer.read().decode("utf-8", errors="surrogateescape"))
        source_name = "<stdin>"
    else:
        try:
            with open(args.input, "r", encoding="utf-8",
                      errors="surrogateescape") as handle:
                text = handle.read()
        except OSError as exc:
            print(f"dqprep: cannot read {args.input}: {exc.strerror}",
                  file=sys.stderr)
            return EXIT_USAGE
        source_name = args.input
    try:
        parsed = parse_dqdimacs(text)
    except ParseError as exc:
        print(f"dqprep: {source_name}: {exc}", file=sys.stderr)
        return EXIT_USAGE
    for diagnostic in parsed.diagnostics:
        print(f"dqprep: {source_name}: line {diagnostic.line}: "
              f"{diagnostic.severity}: {diagnostic.message}", file=sys.stderr)
    result, reports, verdict = run_pipeline(config, parsed.formula)
    output = emit_dqdimacs(result)
    if not _write(args.out, output):
        return EXIT_USAGE
    stats: dict[str, object] = {
        "verdict": verdict.value,
        "input_clauses": len(parsed.formula.matrix),
        "output_clauses": len(result.matrix),
        "wall_time": sum(r.wall_time for r in reports),
    }
    if not _emit_stats(stats, reports, args.stats_json):
        return EXIT_USAGE
    return _VERDICT_CODES[verdict]


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.fuzz is not None and args.input is not None:
            parser.error("--fuzz and an input path are mutually exclusive")
        if args.fuzz is not None and args.out is not None:
            parser.error("--fuzz writes no formula, so --out has nothing to write")
        config = PipelineConfig(
            passes=args.passes,
            max_rounds=args.max_rounds,
            vivify_budget=args.vivify_budget,
            verify=args.verify,
            budget=args.oracle_budget,
            upla_existential_only=args.upla_existential_only)
    except (_UsageError, ContractViolation) as exc:
        print(f"dqprep: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        if args.fuzz is not None:
            return _run_fuzz(args, config)
        return _run_file(args, config)
    except VerificationError as exc:
        # raised before either mode writes its output or its stats
        print(f"dqprep: {exc}", file=sys.stderr)
        return EXIT_VERIFICATION


def console_main() -> None:
    sys.exit(main())
