"""The names the benchmark's tracer wraps still exist in dqprep.

`perfbench/tracing.py` rebinds functions by module and attribute name,
so renaming or deleting one breaks only traced benchmark runs. This
imports the tracer as it is, without changing it, and checks that every
target resolves and that installing the tracer leaves every binding
restored.
"""

import importlib
from pathlib import Path

import dqprep

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _tracing(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return importlib.import_module("tracing")


def test_every_traced_name_resolves(monkeypatch):
    tracing = _tracing(monkeypatch)
    for name, module, attribute, _, _ in tracing.TARGETS:
        owner = importlib.import_module(f"dqprep.{module}")
        for part in attribute.split("."):
            assert hasattr(owner, part), f"{name}: dqprep.{module}.{attribute}"
            owner = getattr(owner, part)
        assert callable(owner), name


def test_installed_tracer_rebinds_and_restores_every_target(monkeypatch):
    tracing = _tracing(monkeypatch)
    tracer = tracing.Tracer()
    with tracer.installed():
        rebound = {original for _, _, original in tracer.bindings}
        assert len(rebound) == len(tracing.TARGETS)
        dqprep.parse_dqdimacs("p cnf 1 1\n1 0\n")
    assert tracer.restored()
    calls, _, counts = tracer.summary()
    assert calls["dqdimacs.parse"] == 1
    assert counts["dqdimacs.parse.bytes"] == len("p cnf 1 1\n1 0\n")
