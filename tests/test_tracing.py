"""The names the benchmark takes from dqprep still exist there.

`perfbench/tracing.py` rebinds functions by module and attribute name,
and `perfbench/run.py` keeps its own copies of the pass names and the
PassReport counters, so renaming or deleting one breaks only traced
benchmark runs. This imports both modules as they are, without changing
them, and checks that every traced target resolves, that installing the
tracer leaves every binding restored, and that the runner's pass names
and counters match dqprep (its counters are the PassReport fields that
count as a change) and the per-layer metrics of BENCHMARK.json.
"""

import importlib
import json
from dataclasses import fields
from pathlib import Path

import dqprep
from dqprep.reports import PassReport

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"


def _perfbench(monkeypatch, module):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return importlib.import_module(module)


def test_every_traced_name_resolves(monkeypatch):
    tracing = _perfbench(monkeypatch, "tracing")
    for name, module, attribute, _, _ in tracing.TARGETS:
        owner = importlib.import_module(f"dqprep.{module}")
        for part in attribute.split("."):
            assert hasattr(owner, part), f"{name}: dqprep.{module}.{attribute}"
            owner = getattr(owner, part)
        assert callable(owner), name


def test_installed_tracer_rebinds_and_restores_every_target(monkeypatch):
    tracing = _perfbench(monkeypatch, "tracing")
    tracer = tracing.Tracer()
    with tracer.installed():
        rebound = {original for _, _, original in tracer.bindings}
        assert len(rebound) == len(tracing.TARGETS)
        dqprep.parse_dqdimacs("p cnf 1 1\n1 0\n")
    assert tracer.restored()
    calls, _, counts = tracer.summary()
    assert calls["dqdimacs.parse"] == 1
    assert counts["dqdimacs.parse.bytes"] == len("p cnf 1 1\n1 0\n")


def test_runner_pass_names_and_counters_match_dqprep(monkeypatch):
    run = _perfbench(monkeypatch, "run")
    assert run.PASS_NAMES == dqprep.PASS_NAMES
    # the counters of a change: the fields that make a report `changed`
    # (not the wall time, nor the verify counts, which are no change)
    assert run.PASS_COUNTERS == tuple(
        f.name for f in fields(PassReport)
        if f.name != "name" and PassReport("x", **{f.name: 1}).changed)
    per_layer = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    declared = {m["name"] for m in per_layer if m["name"].startswith("pass.")}
    assert declared == {f"pass.{name}.{figure}"
                        for name in dqprep.PASS_NAMES
                        for figure in ("runs", "s", *run.PASS_COUNTERS)}
