"""Pass scheduling, verification hooks, and the formula fuzzer."""

import logging

import pytest
from hypothesis import given, settings

from conftest import formulas, in_oracle_budget, u_e
from dqprep import (ContractViolation, Dqbf, FuzzBounds, PASS_NAMES,
                    PipelineConfig, Verdict, VerificationError,
                    equisatisfiable, equivalent, fuzz, run_pipeline,
                    solve_brute, universal_reduce_clause)
from dqprep.pipeline import _apply_pass, _run_ur
from dqprep.propagation import PropagationOutcome
from dqprep.reports import PassReport, merge_reports


# -- configuration ----------------------------------------------------------


def test_config_defaults_are_valid():
    config = PipelineConfig()
    assert config.passes == PASS_NAMES
    assert config.max_rounds == 10


def test_config_coerces_pass_list():
    assert PipelineConfig(passes=["up", "ur"]).passes == ("up", "ur")


@pytest.mark.parametrize("kwargs", [
    {"passes": ()},
    {"passes": ("up", "nosuch")},
    {"max_rounds": 0},
    {"vivify_budget": -1},
    {"budget": -1},
])
def test_config_rejects_bad_values(kwargs):
    with pytest.raises(ContractViolation):
        PipelineConfig(**kwargs)


# -- verdicts on small formulas ---------------------------------------------


def test_propagation_conflict_yields_unsat():
    f = Dqbf(u_e({1}, {2: frozenset({1})}), ((1, -2), (-1, 2), (-2,)))
    out, reports, verdict = run_pipeline(PipelineConfig(passes=("up",)), f)
    assert verdict is Verdict.UNSAT
    assert out.matrix == ((),)
    assert reports[-1].conflicts == 1


def test_reduction_conflict_yields_unsat():
    f = Dqbf(u_e({1}, {}), ((1,),))
    out, _, verdict = run_pipeline(PipelineConfig(passes=("ur",)), f)
    assert verdict is Verdict.UNSAT
    assert out.matrix == ((),)


def test_emptied_matrix_yields_sat():
    f = Dqbf(u_e(set(), {1: frozenset()}), ((1,),))
    out, _, verdict = run_pipeline(PipelineConfig(passes=("up",)), f)
    assert verdict is Verdict.SAT
    assert out.matrix == ()


def test_blocked_pair_is_opaque_without_elimination():
    f = Dqbf(u_e({1}, {2: frozenset({1})}), ((1, -2), (-1, 2)))
    config = PipelineConfig(passes=("ur", "up", "upla", "vivify"))
    out, _, verdict = run_pipeline(config, f)
    assert verdict is Verdict.UNKNOWN
    assert out == f


def test_elimination_settles_blocked_pair():
    f = Dqbf(u_e({1}, {2: frozenset({1})}), ((1, -2), (-1, 2)))
    out, _, verdict = run_pipeline(PipelineConfig(), f)
    assert verdict is Verdict.SAT
    assert out.matrix == ()
    assert solve_brute(f).satisfiable


def test_unknown_output_is_a_fixpoint():
    f = Dqbf(u_e({1}, {2: frozenset({1})}), ((1, -2), (-1, 2)))
    config = PipelineConfig(passes=("ur", "up", "upla", "vivify"))
    out, _, _ = run_pipeline(config, f)
    again, _, verdict = run_pipeline(config, out)
    assert again == out and verdict is Verdict.UNKNOWN


def test_pipeline_deterministic():
    f = Dqbf(u_e({1, 2}, {3: frozenset({1}), 4: frozenset({2})}),
             ((1, 3), (-1, 4), (2, -3, -4)))
    assert run_pipeline(PipelineConfig(), f) == run_pipeline(PipelineConfig(), f)


# -- verification -----------------------------------------------------------


def test_verification_catches_a_broken_pass(monkeypatch):
    import dqprep.pipeline as pipeline

    def clause_eater(formula, budget):
        return Dqbf(formula.prefix, ()), PassReport("vivify")

    monkeypatch.setattr(pipeline, "vivify_pass", clause_eater)
    f = Dqbf(u_e(set(), {1: frozenset()}), ((1,),))
    config = PipelineConfig(passes=("vivify",), verify=True)
    with pytest.raises(VerificationError) as info:
        run_pipeline(config, f)
    assert "--- before ---" in str(info.value)


def test_verification_catches_a_broken_pass_on_a_remembered_mask(
        monkeypatch, kernel_calls):
    # `ur` leaves the copy gadget unchanged, so its check leaves the
    # formula's mask in the oracle's memo; the broken pass's check must
    # still catch the dropped clause with `before`'s mask taken from there
    import dqprep.pipeline as pipeline

    def last_clause_eater(formula, budget):
        return Dqbf(formula.prefix, formula.matrix[:-1]), PassReport("vivify")

    monkeypatch.setattr(pipeline, "vivify_pass", last_clause_eater)
    f = Dqbf(u_e({1}, {2: frozenset({1})}), ((1, -2), (-1, 2)))
    config = PipelineConfig(passes=("ur", "vivify"), verify=True)
    with pytest.raises(VerificationError) as info:
        run_pipeline(config, f)
    assert "vivify pass failed verification" in str(info.value)
    assert kernel_calls == [f.matrix, f.matrix[:-1]]


def test_ur_check_runs_the_kernel_on_the_reduced_clause_only(kernel_calls):
    # the output's mask is the input's, restricted by the clause `ur` made
    f = Dqbf(u_e({1}, {2: frozenset(), 3: frozenset({1})}),
             ((1, 2), (-2, 3), (-1, 3)))
    config = PipelineConfig(passes=("ur",), verify=True)
    after, _, _ = run_pipeline(config, f)
    assert after.matrix == ((2,), (-2, 3), (-1, 3))
    assert kernel_calls == [f.matrix, [(2,)]]


def test_up_unit_check_computes_the_mask_of_the_units_alone(kernel_calls):
    # before must imply the derived units: the masks are of before, of
    # the units alone, and of the fixpoint, not of before with the units
    f = Dqbf(u_e(set(), {1: frozenset(), 2: frozenset()}), ((1,), (-1, 2)))
    _, _, verdict = run_pipeline(PipelineConfig(passes=("up",), verify=True), f)
    assert verdict is Verdict.SAT
    assert kernel_calls == [f.matrix, ((1,), (2,)), ()]


@pytest.mark.parametrize("name", PASS_NAMES)
def test_passes_leave_a_refuted_formula_untouched(name):
    # `ur` would shorten (1 2), and `up` would count the empty clause it
    # read as a conflict of its own
    refuted = Dqbf(u_e({1}, {2: frozenset()}), ((), (1, 2)))
    after, report, _ = _apply_pass(name, refuted, PipelineConfig())
    assert after == refuted
    assert report == PassReport(name)


# x1 or x2 over two independent existentials
SATISFIABLE = Dqbf(u_e(set(), {1: frozenset(), 2: frozenset()}), ((1, 2),))


@pytest.mark.parametrize("bound, broken, formula, name", [
    # a conflict on a satisfiable formula
    ("unit_propagate", lambda f: PropagationOutcome(True), SATISFIABLE, "up"),
    # x1 = true is one way to satisfy (1 2), not the only one; the
    # reported fixpoint is satisfiable, so only the unit check can fail
    ("unit_propagate", lambda f: PropagationOutcome(
        False, Dqbf(u_e(set(), {2: frozenset()}), ()), frozenset({1}), 1),
     SATISFIABLE, "up"),
    # no unit, so the unit check passes; the fixpoint is unsatisfiable
    ("unit_propagate", lambda f: PropagationOutcome(
        False, Dqbf(f.prefix, ((1,), (-1,)))), SATISFIABLE, "up"),
    # every clause of an unsatisfiable formula eliminated
    ("dqrat_eliminate_pass",
     lambda f, kept=None: (Dqbf(f.prefix, ()), PassReport("dqrat")),
     Dqbf(SATISFIABLE.prefix, ((1,), (-1,))), "dqrat"),
], ids=["up-conflict", "up-unit", "up-result", "dqrat"])
def test_verification_catches_a_broken_satisfiability_check(
        monkeypatch, bound, broken, formula, name):
    import dqprep.pipeline as pipeline

    monkeypatch.setattr(pipeline, bound, broken)
    with pytest.raises(VerificationError) as info:
        run_pipeline(PipelineConfig(passes=(name,), verify=True), formula)
    assert str(info.value).startswith(f"{name} pass failed verification")


def test_verification_skips_over_budget_instances(caplog):
    deps = frozenset(range(1, 6))
    f = Dqbf(u_e(deps, {6: deps}), ((1, 6),))
    config = PipelineConfig(passes=("ur",), verify=True)
    with caplog.at_level(logging.WARNING, logger="dqprep.pipeline"):
        out, reports, verdict = run_pipeline(config, f)
    assert verdict is Verdict.UNKNOWN and out == f
    assert "skipped" in caplog.text
    assert [(r.verify_checked, r.verify_skipped) for r in reports] == [(0, 1)]


def test_verify_counts_leave_reports_and_schedule_alone():
    # verify mode counts each application as checked or skipped; the
    # counts are not changes, so the run is the one without verify
    config = PipelineConfig(budget=6)
    checked = skipped = 0
    for formula in fuzz(9, 120, FuzzBounds(4, 4, 10, 3)):
        plain = run_pipeline(config, formula)
        verified = run_pipeline(PipelineConfig(verify=True, budget=6), formula)
        assert verified == plain
        assert [r.changed for r in verified[1]] == [r.changed for r in plain[1]]
        for report in verified[1]:
            assert report.verify_checked + report.verify_skipped == 1
            checked += report.verify_checked
            skipped += report.verify_skipped
        assert all(r.verify_checked == r.verify_skipped == 0 for r in plain[1])
    assert checked and skipped


@given(formulas())
@settings(max_examples=25, deadline=None)
def test_verified_run_is_quiet(formula):
    config = PipelineConfig(verify=True)
    run_pipeline(config, formula)  # must not raise


# -- soundness over random formulas -----------------------------------------


@given(formulas())
@settings(max_examples=60, deadline=None)
def test_verdicts_match_the_oracle(formula):
    out, reports, verdict = run_pipeline(PipelineConfig(), formula)
    satisfiable = solve_brute(formula).satisfiable
    if verdict is Verdict.SAT:
        assert satisfiable
    elif verdict is Verdict.UNSAT:
        assert not satisfiable
    else:
        assert equisatisfiable(formula, out)
    for report in reports:
        assert report.name in PASS_NAMES
        assert min(report.clauses_removed, report.clauses_shortened,
                   report.units_added, report.equivalences_added,
                   report.conflicts) >= 0
        assert report.wall_time >= 0.0
    assert len(reports) <= PipelineConfig().max_rounds * len(PASS_NAMES)


@given(formulas())
@settings(max_examples=60, deadline=None)
def test_without_elimination_output_is_equivalent(formula):
    config = PipelineConfig(passes=("ur", "up", "upla", "vivify"))
    out, _, _ = run_pipeline(config, formula)
    if out.prefix == formula.prefix:
        assert equivalent(formula, out)
    else:
        assert equisatisfiable(formula, out)  # propagation shrank the prefix


def test_ur_pass_matches_public_reduction_per_clause():
    # `_run_ur` reduces the canonical clauses without checking them; the
    # public function checks each one and must give the same formula
    totals = [0, 0, 0]
    for formula in fuzz(0, 500):
        after, report, _ = _run_ur(formula)
        reduced = [universal_reduce_clause(formula.prefix, clause)
                   for clause in formula.matrix]
        expected = Dqbf(formula.prefix, tuple(reduced))
        counts = (sum(len(r) < len(c) for r, c in zip(reduced, formula.matrix)),
                  len(formula.matrix) - len(expected.matrix),
                  int(() in expected.matrix and () not in formula.matrix))
        assert after == expected
        assert (report.clauses_shortened, report.clauses_removed,
                report.conflicts) == counts
        totals = [t + n for t, n in zip(totals, counts)]
    assert all(totals)


# -- fuzzer -----------------------------------------------------------------


def test_fuzz_is_deterministic():
    assert list(fuzz(3, 20)) == list(fuzz(3, 20))
    assert list(fuzz(3, 20)) != list(fuzz(4, 20))


def test_fuzz_respects_count():
    assert len(list(fuzz(1, 7))) == 7
    assert list(fuzz(1, 0)) == []


def test_fuzz_rejects_a_negative_count():
    with pytest.raises(ContractViolation, match="non-negative"):
        fuzz(1, -3)


@pytest.mark.parametrize("field, least", [
    ("max_universals", 0), ("max_existentials", 0), ("max_clauses", 0),
    ("max_clause_width", 1)])
def test_fuzz_bounds_reject_a_limit_below_its_least_value(field, least):
    with pytest.raises(ContractViolation, match="non-negative"):
        FuzzBounds(**{field: least - 1})
    assert len(list(fuzz(1, 5, FuzzBounds(**{field: least})))) == 5


def test_fuzz_respects_bounds():
    bounds = FuzzBounds(max_universals=0, max_existentials=2,
                        max_clauses=3, max_clause_width=2)
    for formula in fuzz(11, 50, bounds):
        assert not formula.prefix.universals
        assert len(formula.prefix.existentials) <= 2
        assert len(formula.matrix) <= 3
        assert all(len(c) <= 2 for c in formula.matrix)


def test_fuzz_default_bounds_mostly_fit_the_oracle():
    sample = list(fuzz(0, 300))
    assert sum(in_oracle_budget(f) for f in sample) >= 295


def test_merge_reports_sums_each_pass_in_order_of_first_appearance():
    reports = [PassReport("up", units_added=2, wall_time=0.5),
               PassReport("ur", clauses_shortened=1, conflicts=1),
               PassReport("up", clauses_removed=3, units_added=1, wall_time=0.25)]
    totals = merge_reports(reports)
    assert list(totals) == ["up", "ur"]
    assert totals["up"].as_dict() == {
        "name": "up", "clauses_removed": 3, "clauses_shortened": 0,
        "units_added": 3, "equivalences_added": 0, "conflicts": 0,
        "wall_time": 0.75, "verify_checked": 0, "verify_skipped": 0}
    assert totals["ur"] == PassReport("ur", clauses_shortened=1, conflicts=1)
    assert reports[0].units_added == 2  # the inputs are left alone
