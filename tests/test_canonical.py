"""Clauses become canonical once, where they enter the program. Matrices
the package builds itself are marked `Canonical` and only deduplicated
by `Dqbf`; these tests check every such matrix against a fully
validated construction, that a pipeline run builds every `Dqbf`
without normalizing a clause (`ur` still normalizes each clause inside
`universal_reduce_clause`), and that a store's probes check no clause
against the prefix."""

import sys
from collections import Counter

import pytest
from hypothesis import given

from conftest import chain, checking_canonical, formulas
from dqprep import (CompatibilityError, Dqbf, FuzzBounds, PipelineConfig,
                    Prefix, Verdict, dqrat_eliminate_pass, emit_dqdimacs, fuzz,
                    parse_dqdimacs, run_pipeline, universal_reduce, upla_apply,
                    upla_pass, upla_probe, vivify_pass)
from dqprep import formula as formula_module
from dqprep.formula import Canonical


def test_canonical_matrix_is_only_deduplicated():
    prefix = Prefix(frozenset({1}), {2: frozenset({1}), 3: frozenset()})
    f = Dqbf(prefix, Canonical(((1, 2), (-3,), (1, 2), (2, 3), (-3,))))
    assert f.matrix == ((1, 2), (-3,), (2, 3))
    assert type(f.matrix) is tuple
    assert f == Dqbf(prefix, ((2, 1), (-3,), (2, 3)))


def test_default_schedule_hands_over_canonical_matrices(canonical_producers):
    for formula in fuzz(0, 500):
        run_pipeline(PipelineConfig(), formula)
    assert {"_run_ur", "outcome", "formula"} <= set(canonical_producers)


def test_verify_mode_hands_over_canonical_matrices(canonical_producers):
    config = PipelineConfig(verify=True)
    for formula in fuzz(3, 150, FuzzBounds(4, 6, 14, 4)):
        run_pipeline(config, formula)
    assert {"_run_ur", "outcome", "formula",
            "_verify_pass"} <= set(canonical_producers)


def test_chain_under_ur_up_hands_over_canonical_matrices(canonical_producers):
    _, _, verdict = run_pipeline(PipelineConfig(passes=("ur", "up")), chain(400))
    assert verdict is Verdict.SAT
    assert set(canonical_producers) == {"_run_ur", "outcome"}


@given(formulas())
def test_public_producers_hand_over_canonical_matrices(formula):
    applied = 0
    with checking_canonical() as producers:
        parse_dqdimacs(emit_dqdimacs(formula))
        universal_reduce(formula)
        for var in sorted(formula.prefix.variables):
            findings = upla_probe(formula, var)
            upla_apply(formula, findings)
            applied += not findings.contradictory
    assert producers == Counter(parse_dqdimacs=1, universal_reduce=1,
                                upla_apply=applied)


def test_checker_rejects_a_matrix_that_is_not_canonical():
    prefix = Prefix(frozenset({1}), {2: frozenset({1})})
    for matrix in (((2, 1),), ((1, 1, 2),), ((1, -1),)):
        with checking_canonical(), pytest.raises(AssertionError):
            Dqbf(prefix, Canonical(matrix))
    with checking_canonical(), pytest.raises(CompatibilityError):
        Dqbf(prefix, Canonical(((1, 3),)))


def test_pipeline_normalizes_no_clause_of_a_parsed_formula(monkeypatch):
    # counted where Dqbf construction looks it up; a pipeline that hands
    # its canonical clauses over unmarked normalizes each of them again
    formula = parse_dqdimacs(emit_dqdimacs(chain(400))).formula
    calls = []
    normalize = formula_module.normalize_clause

    def counting_normalize(literals):
        calls.append(literals)
        return normalize(literals)

    monkeypatch.setattr(formula_module, "normalize_clause", counting_normalize)
    _, reports, verdict = run_pipeline(PipelineConfig(passes=("ur", "up")), formula)
    assert verdict is Verdict.SAT and [r.name for r in reports] == ["ur", "up"]
    assert calls == []


def test_store_probes_check_no_clause_against_the_prefix(monkeypatch):
    # counted wherever the package binds the name; a pass whose probes
    # check their store's canonical clauses again calls it per probe
    calls = []
    is_compatible = formula_module.is_compatible

    def counting_is_compatible(scope, clause):
        calls.append(clause)
        return is_compatible(scope, clause)

    patched = set()
    for name, module in list(sys.modules.items()):
        if (name.split(".")[0] == "dqprep"
                and getattr(module, "is_compatible", None) is is_compatible):
            monkeypatch.setattr(module, "is_compatible", counting_is_compatible)
            patched.add(name)
    assert {"dqprep.formula", "dqprep.propagation"} <= patched
    changed = 0
    for formula in fuzz(5, 200, FuzzBounds(4, 6, 14, 4)):
        for run_pass in (vivify_pass, upla_pass, dqrat_eliminate_pass):
            changed += run_pass(formula)[1].changed
    assert changed and calls == []
