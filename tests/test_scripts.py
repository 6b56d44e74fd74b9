"""Smoke runs of the experiment scripts: the differential fuzz check of
every verdict against the oracle, and the per-pass effect survey."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from dqprep import (PASS_NAMES, PipelineConfig, Verdict, run_pipeline,
                    solve_brute, solve_expansion, techniques)

ROOT = Path(__file__).resolve().parents[1]


def run_script(name, *args):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run([sys.executable, str(ROOT / "scripts" / name), *args],
                          capture_output=True, text=True, env=env, timeout=120)


def test_fuzz_verify_agrees_with_the_oracle():
    run = run_script("fuzz_verify.py", "--count", "300", "--seed", "5",
                     "--max-universals", "4", "--max-existentials", "6",
                     "--max-clauses", "14")
    assert run.returncode == 0, run.stderr
    assert "all verdicts agree with the oracle" in run.stdout


def test_fuzz_verify_agrees_with_the_oracle_on_wide_clauses():
    # clauses of up to six literals: wide enough that propagation settles
    # visits by its counts of non-false existential literals
    run = run_script("fuzz_verify.py", "--count", "300", "--seed", "7",
                     "--max-clause-width", "6", "--max-existentials", "6")
    assert run.returncode == 0, run.stderr
    assert "all verdicts agree with the oracle" in run.stdout


def test_fuzz_verify_reports_the_unsat_by_dependency_family():
    run = run_script("fuzz_verify.py", "--count", "200", "--seed", "3")
    assert run.returncode == 0, run.stderr
    family = [line for line in run.stdout.splitlines()
              if line.startswith("unsat-by-dependency: ")]
    assert len(family) == 1
    assert re.fullmatch(r"unsat-by-dependency: sat=0 unsat=\d+ unknown=\d+ "
                        r"skipped=0", family[0])


def test_unsat_by_dependency_formulas_are_unsatisfiable_and_reach_dqrat(
        monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "scripts"))
    from fuzz_verify import unsat_by_dependency
    four = PipelineConfig(passes=("ur", "up", "upla", "vivify"))
    undecided = 0
    for formula in unsat_by_dependency(0, 300):
        assert 2 <= len(formula.prefix.universals) <= 3
        assert not solve_brute(formula).satisfiable
        assert not solve_expansion(formula).satisfiable
        undecided += run_pipeline(four, formula)[2] is Verdict.UNKNOWN
    # left to `dqrat` while unsatisfiable, which no random stream gives
    assert undecided >= 15


def test_fuzz_verify_catches_a_dqrat_that_never_rejects(monkeypatch, capsys):
    # every clause with an existential pivot is deleted as redundant;
    # the random formulas do not show it, the unsatisfiable family does
    monkeypatch.syspath_prepend(str(ROOT / "scripts"))
    import fuzz_verify
    monkeypatch.setattr(techniques, "dqrat_plus_check", lambda *args: True)
    assert fuzz_verify.main(["--count", "300", "--seed", "11"]) == 1
    errors = capsys.readouterr().err.splitlines()
    assert errors[-1].startswith("FAIL: ")
    assert len(errors) > 10
    assert all(line.startswith("unsat-by-dependency instance ")
               for line in errors[:-1])


def test_pass_stats_reports_every_pass():
    run = run_script("pass_stats.py", "--count", "100")
    assert run.returncode == 0, run.stderr
    rows = {line.split()[0] for line in run.stdout.splitlines()[2:]}
    assert rows == set(PASS_NAMES)


def test_pass_stats_table():
    run = run_script("pass_stats.py", "--count", "100")
    assert run.returncode == 0, run.stderr
    lines = run.stdout.splitlines()
    assert lines[:2] == [
        "formulas=100 seed=0 sat=40 unsat=60 unknown=0",
        "    pass    runs    hits  removed  shorter   units  equivs  confl     secs",
    ]
    # every column but the seconds, which vary from run to run
    assert [line.rsplit(None, 1)[0] for line in lines[2:]] == [
        "      ur     100      57       37      114       0       0     49",
        "      up      32      24       25        1      17       0     11",
        "    upla      10       0        0        0       0       0      0",
        "  vivify      10       1        0        1       0       0      0",
        "   dqrat      10      10       13        0       0       0      0",
    ]
    assert all(re.fullmatch(r"\d+\.\d{3}", line.split()[-1]) for line in lines[2:])


@pytest.mark.parametrize("script", ["fuzz_verify.py", "pass_stats.py"])
@pytest.mark.parametrize("flag, value, message", [
    ("--count", "-3", "non-negative"),
    ("--max-clauses", "-1", "non-negative"),
    ("--max-clause-width", "0", "max_clause_width at least 1")])
def test_bad_fuzz_arguments_are_usage_errors(script, flag, value, message):
    run = run_script(script, flag, value)
    assert run.returncode == 2
    assert f"error: argument {flag}: " in run.stderr
    assert message in run.stderr
    assert "Traceback" not in run.stderr
    assert run.stdout == ""


def test_fuzz_verify_counts_a_round_trip_mismatch(monkeypatch, capsys):
    # a parser that adds the empty clause to every text changes every
    # formula on its way through DQDIMACS
    monkeypatch.syspath_prepend(str(ROOT / "scripts"))
    import fuzz_verify
    parse = fuzz_verify.parse_dqdimacs
    monkeypatch.setattr(fuzz_verify, "parse_dqdimacs",
                        lambda text: parse(text + "0\n"))
    assert fuzz_verify.main(["--count", "5", "--seed", "1"]) == 1
    err = capsys.readouterr().err
    assert err.count("DQDIMACS round trip changed the formula") == 5
    assert "FAIL: 5 oracle or round-trip mismatches" in err


def test_fuzz_verify_counts_a_mismatch_of_the_irregular_rendering(monkeypatch,
                                                                  capsys):
    # a parser that adds the empty clause to CRLF text changes only the
    # irregular rendering of each formula, which is counted once
    monkeypatch.syspath_prepend(str(ROOT / "scripts"))
    import fuzz_verify
    parse = fuzz_verify.parse_dqdimacs
    monkeypatch.setattr(fuzz_verify, "parse_dqdimacs",
                        lambda text: parse(text + "0\n" if "\r\n" in text else text))
    assert fuzz_verify.main(["--count", "5", "--seed", "1"]) == 1
    err = capsys.readouterr().err
    assert err.count("DQDIMACS round trip changed the formula") == 5
    assert "FAIL: 5 oracle or round-trip mismatches" in err
