"""The settled-pass scheduler of `run_pipeline`: it runs the same formulas
to the same outputs and verdicts as the plain round loop kept in
`reference_pipeline`, and only leaves out applications that return their
input; each rule that settles a pass after a change holds on its own;
the flags `dqrat` carries across a run change none of its answers; and
a run that stops before the round cap stops at a fixpoint."""

from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import chain, formulas, random_cnf
from dqprep import (Dqbf, FuzzBounds, PASS_NAMES, PipelineConfig, Prefix,
                    Verdict, emit_dqdimacs, fuzz, parse_dqdimacs, run_pipeline)
from dqprep import pipeline, techniques
from dqprep.pipeline import _apply_pass
from dqprep.reports import PassReport, merge_reports
from reference_pipeline import reference_run_pipeline

LARGER = FuzzBounds(4, 6, 14, 4)
SCHEDULES = (PASS_NAMES, ("ur", "up"), ("dqrat", "vivify", "up"),
             ("ur", "up", "vivify"), ("ur", "up", "upla", "vivify"),
             ("up", "ur", "upla"))


def assert_same_run(config: PipelineConfig, formula: Dqbf) -> None:
    """The scheduler's run equals the plain loop's: the same output and
    verdict, the same counter sums per pass, and its reports are the
    plain loop's in order with only unchanged ones left out."""
    out, reports, verdict = run_pipeline(config, formula)
    plain_out, plain_reports, plain_verdict = reference_run_pipeline(config, formula)
    assert (out, verdict) == (plain_out, plain_verdict)
    totals, plain_totals = merge_reports(reports), merge_reports(plain_reports)
    for name in config.passes:
        nothing = PassReport(name)
        assert totals.get(name, nothing) == plain_totals.get(name, nothing)
    rest = iter(plain_reports)
    excess = []
    for report in reports:
        for plain in rest:
            if plain == report:
                break
            excess.append(plain)
        else:
            pytest.fail(f"{report} is not among the plain loop's reports")
    excess.extend(rest)
    assert not any(report.changed for report in excess)


@given(formulas(), st.sampled_from(SCHEDULES), st.booleans())
@settings(max_examples=200, deadline=None)
def test_scheduler_matches_the_plain_loop(formula, passes, verify):
    assert_same_run(PipelineConfig(passes=passes, verify=verify), formula)


@pytest.mark.parametrize("passes,verify", list(product(SCHEDULES, (False, True))))
def test_scheduler_matches_the_plain_loop_on_fuzz_streams(passes, verify):
    config = PipelineConfig(passes=passes, verify=verify)
    for formula in fuzz(13, 60 if verify else 1000, LARGER):
        assert_same_run(config, formula)


def test_scheduler_matches_the_plain_loop_with_existential_only_lookahead():
    # a case of the verify-mode streams above; a third parameter there
    # would rename each of their cases
    config = PipelineConfig(verify=True, upla_existential_only=True)
    for formula in fuzz(3, 400, LARGER):
        assert_same_run(config, formula)


@pytest.mark.parametrize("max_rounds", [1, 2])
def test_scheduler_keeps_the_round_cap(max_rounds):
    for formula in fuzz(29, 150, LARGER):
        assert_same_run(PipelineConfig(max_rounds=max_rounds), formula)


def test_a_change_by_vivify_unsettles_up():
    # `up` finds nothing until `vivify` has shortened (-1, 2) and (-1, 3)
    # into units, two rounds later
    prefix = Prefix(frozenset(), {1: frozenset(), 2: frozenset(), 3: frozenset()})
    formula = Dqbf(prefix, ((-1, 2), (2, -3), (-1, 3), (1, 2, -3), (-2, -3)))
    config = PipelineConfig(passes=("ur", "up", "vivify"))
    assert_same_run(config, formula)
    _, reports, _ = run_pipeline(config, formula)
    changed = [r.name for r in reports if r.changed]
    assert changed == ["vivify", "vivify", "up"]


def test_an_unseeded_chain_takes_two_pass_applications():
    # `ur` strips universal 2 from every link and `up` finds no unit;
    # after that both are settled, so no round runs to confirm it
    seeded = chain(400)
    unseeded = Dqbf(seeded.prefix, seeded.matrix[:-1])
    formula = parse_dqdimacs(emit_dqdimacs(unseeded)).formula
    out, reports, verdict = run_pipeline(PipelineConfig(passes=("ur", "up")), formula)
    assert verdict is Verdict.UNKNOWN and len(out.matrix) == 400
    assert [r.name for r in reports] == ["ur", "up"]


@pytest.mark.parametrize("name", PASS_NAMES)
def test_a_report_says_changed_exactly_when_the_formula_changed(name):
    # `up` also shortens clauses by reduction alone, without a unit
    config = PipelineConfig()
    for formula in (*fuzz(0, 1500), *fuzz(5, 1500, LARGER)):
        after, report, _ = _apply_pass(name, formula, config)
        assert report.changed == (after != formula)


# -- the rules that settle a pass after a change -----------------------------


def fuzz_formulas():
    return st.builds(lambda seed: next(fuzz(seed, 1, LARGER)),
                     st.integers(min_value=0, max_value=2 ** 32 - 1))


def some_formula():
    return st.one_of(formulas(), fuzz_formulas())


def is_noop(name: str, formula: Dqbf) -> bool:
    return _apply_pass(name, formula, PipelineConfig())[0] == formula


@given(some_formula())
@settings(max_examples=300, deadline=None)
def test_ur_is_a_noop_on_its_own_result(formula):
    reduced, _, _ = _apply_pass("ur", formula, PipelineConfig())
    assert is_noop("ur", reduced)


def propagated(formula: Dqbf) -> Dqbf | None:
    """The result of `up`, or None on a conflict."""
    result, _, outcome = _apply_pass("up", formula, PipelineConfig())
    return None if outcome.conflict else result


@given(some_formula())
@settings(max_examples=300, deadline=None)
def test_ur_is_a_noop_on_the_result_of_up(formula):
    result = propagated(formula)
    if result is not None:
        assert is_noop("ur", result)


@given(some_formula())
@settings(max_examples=300, deadline=None)
def test_up_is_a_noop_on_its_own_result(formula):
    result = propagated(formula)
    if result is not None:
        assert is_noop("up", result)


# -- the flags dqrat carries from one application to the next ---------------


# After `vivify` shortens three clauses, `dqrat` deletes three and
# shortens one, and the next round's other passes return their input.
# The shortening makes one more clause redundant, which the second
# sweep deletes only if the shortening cleared the flags of the clauses
# the first sweep kept.
SHORTENED_THEN_DELETED = """\
p cnf 9 26
a 1 0
d 2 1 0
d 3 1 0
d 4 0
d 5 1 0
d 6 1 0
d 7 1 0
d 8 0
d 9 0
1 2 -6 -7 0
-3 -4 -5 6 0
1 7 -8 -9 0
4 -5 -7 -9 0
-5 -6 7 -9 0
3 5 -6 -7 0
2 3 4 -7 0
-2 -3 4 9 0
1 -3 -5 7 0
4 6 8 -9 0
-1 3 4 7 0
5 -7 -8 -9 0
-3 -5 7 -9 0
3 6 7 -8 0
1 2 -5 8 0
2 5 7 8 0
-2 3 -4 5 0
-1 2 4 -9 0
-1 -6 7 -8 0
-3 -4 -6 -8 0
-4 -5 7 -9 0
-2 3 -5 8 0
1 -5 -6 9 0
-1 -3 4 8 0
-2 3 4 9 0
2 3 4 6 0
"""


def test_an_unchanged_formula_is_handed_on_itself():
    # each pass returns an equal copy of (1 2), (-1 -2); the run goes on
    # with its input, so no copy outlives the pass that made it
    prefix = Prefix(frozenset(), {1: frozenset(), 2: frozenset()})
    formula = Dqbf(prefix, ((1, 2), (-1, -2)))
    passes = ("ur", "up", "vivify")
    out, reports, verdict = run_pipeline(PipelineConfig(passes=passes), formula)
    assert out is formula and verdict is Verdict.UNKNOWN
    assert [r.name for r in reports] == list(passes)
    assert not any(r.changed for r in reports)


def test_a_shortening_sends_every_clause_back_to_dqrat():
    formula = parse_dqdimacs(SHORTENED_THEN_DELETED).formula
    assert_same_run(PipelineConfig(), formula)
    out, reports, verdict = run_pipeline(PipelineConfig(), formula)
    sweeps = [(r.clauses_removed, r.clauses_shortened)
              for r in reports if r.name == "dqrat"]
    assert sweeps == [(3, 1), (1, 0), (0, 0)]
    assert verdict is Verdict.UNKNOWN and len(out.matrix) == 20


def test_carried_flags_skip_clauses_and_change_no_run(monkeypatch):
    # each `dqrat` application of a run sweeps once without the run's
    # record and once with it: both must give the same formula and
    # report, and the record must spare some checks over the stream
    checks = [0]
    check, sweep = techniques.dqrat_plus_check, pipeline.dqrat_eliminate_pass
    spared = [0]

    def counting_check(*args):
        checks[0] += 1
        return check(*args)

    def both_sweeps(formula, kept=None):
        start = checks[0]
        plain = sweep(formula)
        plain_checks = checks[0] - start
        start = checks[0]
        carried = sweep(formula, kept)
        assert carried == plain
        spared[0] += plain_checks - (checks[0] - start)
        return carried

    monkeypatch.setattr(techniques, "dqrat_plus_check", counting_check)
    monkeypatch.setattr(pipeline, "dqrat_eliminate_pass", both_sweeps)
    for formula in random_cnf(4, 600):
        assert_same_run(PipelineConfig(), formula)
    assert spared[0] > 0


# -- a run that stops before the round cap stops at a fixpoint ---------------


@given(some_formula(), st.sampled_from((PASS_NAMES, ("ur", "up", "upla", "vivify"))))
@settings(max_examples=200, deadline=None)
def test_output_is_a_fixpoint_of_every_scheduled_pass(formula, passes):
    config = PipelineConfig(passes=passes, max_rounds=50)
    out, reports, verdict = run_pipeline(config, formula)
    # every round the run starts applies a pass, so fewer reports than
    # rounds means the run stopped before the cap
    if verdict is not Verdict.UNKNOWN or len(reports) >= config.max_rounds:
        return
    for name in passes:
        assert _apply_pass(name, out, config)[0] == out, name
    again, _, verdict = run_pipeline(config, out)
    assert again == out and verdict is Verdict.UNKNOWN
