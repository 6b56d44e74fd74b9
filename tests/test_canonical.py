"""Clauses become canonical once, where they enter the program. Matrices
the package builds itself are marked `Canonical` and only deduplicated
by `Dqbf`; these tests check every such matrix against a fully
validated construction, that a pipeline run normalizes no clause once
its input is built (`ur` reduces each canonical clause as it is, and
resolvents and the UNSAT normal form are built canonical), and that a
store's probes check no clause against the prefix."""

from collections import Counter

import pytest
from hypothesis import given

from conftest import chain, checking_canonical, counting_calls, formulas
from dqprep import (CompatibilityError, ContractViolation, Dqbf, FuzzBounds,
                    PipelineConfig, Prefix, Verdict, dqrat_eliminate_pass,
                    emit_dqdimacs, fuzz, is_compatible, normalize_clause,
                    parse_dqdimacs, run_pipeline, universal_reduce,
                    upla_apply, upla_pass, upla_probe, vivify_pass)
from dqprep.formula import Canonical
from dqprep.propagation import abstract

_BOUNDS = FuzzBounds(4, 6, 14, 4)


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
    for formula in fuzz(3, 150, _BOUNDS):
        run_pipeline(config, formula)
    assert {"_run_ur", "outcome", "formula",
            "_verify_pass"} <= set(canonical_producers)


def test_chain_under_ur_up_hands_over_canonical_matrices(canonical_producers):
    _, _, verdict = run_pipeline(PipelineConfig(passes=("ur", "up")), chain(400))
    assert verdict is Verdict.SAT
    assert set(canonical_producers) == {"_run_ur", "outcome"}


@given(formulas())
def test_public_producers_hand_over_canonical_matrices(formula):
    # a contradictory finding makes the UNSAT normal form, also marked
    with checking_canonical() as producers:
        parse_dqdimacs(emit_dqdimacs(formula))
        universal_reduce(formula)
        abstract(formula, formula.prefix.universals)
        for var in sorted(formula.prefix.variables):
            upla_apply(formula, upla_probe(formula, var))
    # abstracting no universal hands the formula back as it is
    assert producers == Counter(parse_dqdimacs=1, universal_reduce=1,
                                abstract=int(bool(formula.prefix.universals)),
                                upla_apply=len(formula.prefix.variables))


def test_checker_rejects_a_matrix_that_is_not_canonical():
    prefix = Prefix(frozenset({1}), {2: frozenset({1})})
    for matrix in (((2, 1),), ((1, 1, 2),), ((1, -1),)):
        with checking_canonical(), pytest.raises(AssertionError):
            Dqbf(prefix, Canonical(matrix))
    with checking_canonical(), pytest.raises(CompatibilityError):
        Dqbf(prefix, Canonical(((1, 3),)))


def test_checker_rejects_a_trusted_prefix_that_is_not_valid():
    matrix = Canonical(((1, 2),))
    for universals, existentials in (
            (frozenset({1}), {3: frozenset(), 2: frozenset({1})}),   # order
            (frozenset({1}), {2: {1}}),                               # a set
            (frozenset({1}), {2: frozenset({1, 4})}),                 # stray
            ({1}, {2: frozenset({1})})):                              # a set
        prefix = Prefix._trusted(universals, existentials)
        with (checking_canonical(),
              pytest.raises((AssertionError, ContractViolation))):
            Dqbf(prefix, matrix)
    with checking_canonical():
        Dqbf(Prefix._trusted(frozenset({1}), {2: frozenset({1})}), matrix)


def test_pipeline_normalizes_no_clause_of_a_parsed_formula():
    # a pipeline that hands its canonical clauses over unmarked, or
    # checks them again, normalizes each of them again
    formula = parse_dqdimacs(emit_dqdimacs(chain(400))).formula
    with counting_calls(normalize_clause) as (calls, _):
        _, reports, verdict = run_pipeline(PipelineConfig(passes=("ur", "up")),
                                           formula)
    assert verdict is Verdict.SAT and [r.name for r in reports] == ["ur", "up"]
    assert calls == []


@pytest.mark.parametrize("runs", [
    pytest.param(lambda: [(PipelineConfig(), f) for f in fuzz(3, 300, _BOUNDS)],
                 id="default-schedule"),
    pytest.param(lambda: [(PipelineConfig(verify=True), f)
                          for f in fuzz(3, 300, _BOUNDS)], id="verify"),
    pytest.param(lambda: [(PipelineConfig(passes=("ur", "up")), chain(400))],
                 id="chain-ur-up"),
])
def test_pipeline_runs_normalize_no_clause(runs):
    # counted through every module's binding, once the inputs are built:
    # `ur`, resolvents and the UNSAT normal form reuse canonical clauses
    runs = runs()
    with counting_calls(normalize_clause) as (calls, modules):
        for config, formula in runs:
            run_pipeline(config, formula)
    assert {"dqprep.dqdimacs", "dqprep.formula", "dqprep.pipeline",
            "dqprep.propagation"} <= modules
    assert calls == []


def test_store_probes_check_no_clause_against_the_prefix():
    # a pass whose probes check their store's canonical clauses again
    # calls it per probe
    changed = 0
    with counting_calls(is_compatible) as (calls, modules):
        for formula in fuzz(5, 200, _BOUNDS):
            for run_pass in (vivify_pass, upla_pass, dqrat_eliminate_pass):
                changed += run_pass(formula)[1].changed
    assert {"dqprep.formula", "dqprep.propagation"} <= modules
    assert changed and calls == []
