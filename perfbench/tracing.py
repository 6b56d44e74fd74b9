"""Spans around the public functions of each dqprep layer, recorded from
outside the package.

Installing the tracer rebinds every wrapped function in each dqprep
module that holds a reference to it, since ``techniques`` and
``pipeline`` import their own copies, and swaps the ``__post_init__`` of
``Dqbf`` and ``Prefix`` on the classes. Each call becomes a span carrying
its parent span. Spans stay in memory until ``summary`` folds them into
per-name calls, self time (span minus the spans directly inside it) and
counters.
"""

from __future__ import annotations

import functools
import sys
from collections import Counter, defaultdict
from collections.abc import Callable, Iterator
from contextlib import contextmanager
from time import perf_counter
from types import ModuleType

Hook = Callable[[Counter, tuple, object], None]


def _dqbf_clauses(counts: Counter, args: tuple, result: object) -> None:
    # the matrix is normalized in place, so count what the call started from
    counts["formula.dqbf_init.clauses"] += len(args[0].matrix)


def _propagation(counts: Counter, args: tuple, result: object) -> None:
    counts["propagation.unit_propagate.steps"] += result.steps
    counts["propagation.unit_propagate.conflicts"] += result.conflict


def _vivified(counts: Counter, args: tuple, result: object) -> None:
    counts["techniques.vivify_clause.hits"] += result.kind.value != "unchanged"


def _accepted(counts: Counter, args: tuple, result: object) -> None:
    counts["techniques.dqrat_plus_check.accepts"] += bool(result)


def _parsed_bytes(counts: Counter, args: tuple, result: object) -> None:
    source = args[0]
    if isinstance(source, str):
        counts["dqdimacs.parse.bytes"] += len(source.encode())


def _emitted_bytes(counts: Counter, args: tuple, result: object) -> None:
    counts["dqdimacs.emit.bytes"] += len(result.encode())


# (span name, module, attribute, hook run before the call, hook run after)
TARGETS: tuple[tuple[str, str, str, Hook | None, Hook | None], ...] = (
    ("formula.dqbf_init", "formula", "Dqbf.__post_init__", _dqbf_clauses, None),
    ("formula.prefix_init", "formula", "Prefix.__post_init__", None, None),
    ("formula.is_compatible", "formula", "is_compatible", None, None),
    ("dqdimacs.parse", "dqdimacs", "parse_dqdimacs", _parsed_bytes, None),
    ("dqdimacs.emit", "dqdimacs", "emit_dqdimacs", None, _emitted_bytes),
    ("propagation.universal_reduce_clause", "propagation",
     "universal_reduce_clause", None, None),
    ("propagation.universal_reduce", "propagation", "universal_reduce", None, None),
    ("propagation.unit_propagate", "propagation", "unit_propagate", None, _propagation),
    ("propagation.abstract", "propagation", "abstract", None, None),
    ("propagation.dqat_check", "propagation", "dqat_check", None, None),
    ("techniques.upla_pass", "techniques", "upla_pass", None, None),
    ("techniques.upla_probe", "techniques", "upla_probe", None, None),
    ("techniques.vivify_pass", "techniques", "vivify_pass", None, None),
    ("techniques.vivify_clause", "techniques", "vivify_clause", None, _vivified),
    ("techniques.dqrat_eliminate_pass", "techniques", "dqrat_eliminate_pass",
     None, None),
    ("techniques.dqrat_plus_check", "techniques", "dqrat_plus_check", None, _accepted),
    ("pipeline.run", "pipeline", "run_pipeline", None, None),
    ("oracle", "oracle", "solve_brute", None, None),
    ("oracle", "oracle", "equivalent", None, None),
    ("oracle", "oracle", "implies", None, None),
    ("oracle", "oracle", "equisatisfiable", None, None),
)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple[str, int, float, float] | None] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        # (holder, attribute, original) of every rebinding made
        self.bindings: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn: Callable, before: Hook | None,
              after: Hook | None) -> Callable:
        spans, stack, counts = self.spans, self._stack, self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            if before is not None:
                before(counts, args, None)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                counts[f"{name}.raised.{type(exc).__name__}"] += 1
                raise
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (name, parent, start, end)
            if after is not None:
                after(counts, args, result)
            return result

        return traced

    @contextmanager
    def installed(self) -> Iterator[None]:
        """Rebind every target for the duration of the block."""
        modules = [m for n, m in sorted(sys.modules.items())
                   if (n == "dqprep" or n.startswith("dqprep."))
                   and isinstance(m, ModuleType)]
        self.bindings = []
        try:
            for name, module, attribute, before, after in TARGETS:
                owner: object = sys.modules[f"dqprep.{module}"]
                if "." in attribute:
                    cls, attribute = attribute.split(".")
                    owner = getattr(owner, cls)
                    holders = [owner]
                else:
                    holders = modules
                original = getattr(owner, attribute)
                wrapper = self._wrap(name, original, before, after)
                for holder in holders:
                    for key, value in list(vars(holder).items()):
                        if value is original:
                            self.bindings.append((holder, key, original))
                            setattr(holder, key, wrapper)
            yield
        finally:
            for holder, key, original in reversed(self.bindings):
                setattr(holder, key, original)

    def restored(self) -> bool:
        """Is every rebound name back to its original object?"""
        return all(getattr(holder, key) is original
                   for holder, key, original in self.bindings)

    def summary(self) -> tuple[Counter, dict[str, float], Counter]:
        """Calls and self seconds per span name, and the counters, for
        the spans recorded so far; then forget them."""
        spans = self.spans
        child = [0.0] * len(spans)
        for span in spans:
            name, parent, start, end = span
            if parent >= 0:
                child[parent] += end - start
        calls: Counter = Counter()
        self_s: dict[str, float] = defaultdict(float)
        for index, (name, _, start, end) in enumerate(spans):
            calls[name] += 1
            self_s[name] += end - start - child[index]
        counts = Counter(self.counts)
        spans.clear()
        self.counts.clear()
        return calls, dict(self_s), counts
