"""End-to-end checks of the dqprep command line."""

import errno
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from dqprep import Dqbf, VerificationError, parse_dqdimacs
from dqprep.cli import main

SAT_TEXT = "p cnf 1 1\ne 1 0\n1 0\n"
UNSAT_TEXT = "p cnf 2 3\na 1 0\nd 2 1 0\n1 -2 0\n-1 2 0\n-2 0\n"
BLOCKED_TEXT = "p cnf 2 2\na 1 0\nd 2 1 0\n1 -2 0\n-1 2 0\n"


def write(tmp_path, text, name="input.dqdimacs"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def test_sat_exit_code_and_output(tmp_path, capsys):
    code = main([write(tmp_path, SAT_TEXT)])
    out, err = capsys.readouterr()
    assert code == 10
    assert parse_dqdimacs(out).formula.matrix == ()
    assert "verdict=sat" in err


def test_unsat_emits_single_empty_clause(tmp_path, capsys):
    code = main([write(tmp_path, UNSAT_TEXT)])
    out, err = capsys.readouterr()
    assert code == 20
    assert parse_dqdimacs(out).formula.matrix == ((),)
    assert "verdict=unsat" in err
    assert "up.conflicts=1" in err


def test_unknown_round_trips_the_formula(tmp_path, capsys):
    code = main(["--passes", "ur,up,upla,vivify", write(tmp_path, BLOCKED_TEXT)])
    out, _ = capsys.readouterr()
    assert code == 0
    assert parse_dqdimacs(out).formula == parse_dqdimacs(BLOCKED_TEXT).formula


def test_reads_stdin_by_default(monkeypatch, capsys):
    monkeypatch.setattr(sys, "stdin", io.StringIO(SAT_TEXT))
    assert main([]) == 10
    capsys.readouterr()
    monkeypatch.setattr(sys, "stdin", io.StringIO(SAT_TEXT))
    assert main(["-"]) == 10


def test_missing_file(tmp_path, capsys):
    code = main([str(tmp_path / "absent.dqdimacs")])
    assert code == 1
    assert "cannot read" in capsys.readouterr().err


def test_parse_error(tmp_path, capsys):
    code = main([write(tmp_path, "garbage\n")])
    assert code == 1
    assert "dqprep:" in capsys.readouterr().err


@pytest.mark.parametrize("io_encoding", [
    pytest.param({}, id="inherited"),
    pytest.param({"PYTHONIOENCODING": "utf-8:strict"}, id="strict"),
])
def test_undecodable_bytes_are_a_parse_error_from_file_and_stdin(tmp_path,
                                                                  io_encoding):
    # byte 0xff on line 2 is not UTF-8; a file and stdin must both give
    # the line-numbered parse error, never a traceback, also where the
    # locale would decode stdin strictly
    path = tmp_path / "bad.dqdimacs"
    path.write_bytes(b"p cnf 1 1\ne 1 \xff 0\n1 0\n")
    env = dict(os.environ, **io_encoding,
               PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    command = [sys.executable, "-c",
               "from dqprep.cli import console_main; console_main()"]
    from_file = subprocess.run(command + [str(path)], capture_output=True,
                               text=True, env=env, timeout=60)
    from_stdin = subprocess.run(command, input=path.read_bytes(),
                                capture_output=True, env=env, timeout=60)
    assert from_file.returncode == from_stdin.returncode == 1
    assert "Traceback" not in from_file.stderr
    assert f"dqprep: {path}: line 2: " in from_file.stderr
    assert (from_file.stderr.replace(str(path), "<stdin>")
            == from_stdin.stderr.decode())


def test_unknown_pass_name(tmp_path, capsys):
    code = main(["--passes", "up,bogus", write(tmp_path, SAT_TEXT)])
    assert code == 1
    assert "unknown pass" in capsys.readouterr().err


def test_fuzz_conflicts_with_input_path(tmp_path, capsys):
    code = main(["--fuzz", "3", write(tmp_path, SAT_TEXT)])
    assert code == 1
    assert "mutually exclusive" in capsys.readouterr().err


def test_fuzz_rejects_out(tmp_path, capsys):
    out = tmp_path / "out.dqdimacs"
    code = main(["--fuzz", "3", "--out", str(out)])
    assert code == 1
    assert "--out has nothing to write" in capsys.readouterr().err
    assert not out.exists()


def test_fuzz_rejects_negative_count(capsys):
    assert main(["--fuzz", "-1"]) == 1
    assert "non-negative" in capsys.readouterr().err


def test_fuzz_run_reports_verdict_counts(capsys):
    assert main(["--fuzz", "100", "--seed", "7"]) == 0
    err = capsys.readouterr().err
    assert "formulas=100" in err
    assert "sat=45" in err
    assert "unsat=55" in err
    assert "unknown=0" in err


def test_per_pass_stats_on_stderr(capsys):
    # one block per pass, in order of first run, summed over all runs
    assert main(["--fuzz", "60", "--seed", "2", "--passes", "up,ur,upla"]) == 0
    lines = capsys.readouterr().err.splitlines()
    assert lines[:5] == ["formulas=60", "seed=2", "sat=20", "unsat=34", "unknown=6"]
    keys = ("clauses_removed", "clauses_shortened", "units_added",
            "equivalences_added", "conflicts")
    counters = {"up": (22, 3, 12, 0, 34), "ur": (0, 0, 0, 0, 0),
                "upla": (0, 0, 4, 0, 0)}
    expected = []
    for name, values in counters.items():
        expected += [f"{name}.{key}={value}" for key, value in zip(keys, values)]
        expected.append(rf"{name}\.wall_time=\d+\.\d{{6}}")
        # no oracle runs without --verify
        expected += [f"{name}.verify_checked=0", f"{name}.verify_skipped=0"]
    assert len(lines) == 5 + len(expected)
    for line, want in zip(lines[5:], expected):
        assert re.fullmatch(want, line) if "wall_time" in want else line == want, line


def test_fuzz_run_with_verification(capsys):
    assert main(["--fuzz", "25", "--seed", "3", "--verify"]) == 0
    stats = dict(line.split("=") for line in capsys.readouterr().err.splitlines())
    # every pass application that ran was checked: these formulas all
    # fit the default oracle budget
    for name in ("ur", "up", "upla", "vivify", "dqrat"):
        assert int(stats[f"{name}.verify_checked"]) > 0
        assert stats[f"{name}.verify_skipped"] == "0"


def test_verification_skipped_for_budget_is_counted(tmp_path, capsys):
    # one existential over five universals: 2**5 table bits, over a
    # budget of 4, so the oracle skips every check
    text = "p cnf 6 1\na 1 2 3 4 5 0\ne 6 0\n1 6 0\n"
    target = tmp_path / "stats.json"
    code = main(["--verify", "--oracle-budget", "4", "--passes", "ur",
                 "--stats-json", str(target), write(tmp_path, text)])
    assert code == 0
    payload = json.loads(target.read_text())
    assert [(p["name"], p["verify_checked"], p["verify_skipped"])
            for p in payload["passes"]] == [("ur", 0, 1)]


def test_verification_failure_exit_code(tmp_path, monkeypatch, capsys):
    import dqprep.cli as cli

    def broken(config, formula):
        raise VerificationError("dummy failure")

    monkeypatch.setattr(cli, "run_pipeline", broken)
    code = main([write(tmp_path, SAT_TEXT)])
    assert code == 2
    assert "dummy failure" in capsys.readouterr().err


def test_fuzz_verification_failure_writes_no_stats(tmp_path, monkeypatch,
                                                   capsys):
    import dqprep.pipeline as pipeline
    from dqprep.reports import PassReport

    def clause_eater(formula, budget):
        return Dqbf(formula.prefix, ()), PassReport("vivify")

    monkeypatch.setattr(pipeline, "vivify_pass", clause_eater)
    target = tmp_path / "stats.json"
    for stats in ([], ["--stats-json", str(target)]):
        code = main(["--fuzz", "20", "--passes", "vivify", "--verify", *stats])
        err = capsys.readouterr().err
        assert code == 2
        assert "vivify pass failed verification" in err
        assert not any(line.startswith("formulas=") for line in err.splitlines())
    assert not target.exists()


def test_out_file_keeps_stdout_clean(tmp_path, capsys):
    target = tmp_path / "result.dqdimacs"
    code = main(["--out", str(target), write(tmp_path, UNSAT_TEXT)])
    out, _ = capsys.readouterr()
    assert code == 20
    assert out == ""
    assert parse_dqdimacs(target.read_text()).formula.matrix == ((),)


def test_stats_json(tmp_path, capsys):
    target = tmp_path / "stats.json"
    code = main(["--stats-json", str(target), write(tmp_path, UNSAT_TEXT)])
    _, err = capsys.readouterr()
    assert code == 20
    payload = json.loads(target.read_text())
    assert list(payload) == ["schema", "verdict", "input_clauses",
                             "output_clauses", "wall_time", "passes"]
    assert payload["schema"] == 2
    assert payload["verdict"] == "unsat"
    assert payload["input_clauses"] == 3
    assert payload["output_clauses"] == 1
    assert type(payload["wall_time"]) is float
    assert isinstance(payload["passes"], list) and payload["passes"]
    assert list(payload["passes"][0]) == [
        "name", "clauses_removed", "clauses_shortened", "units_added",
        "equivalences_added", "conflicts", "wall_time", "verify_checked",
        "verify_skipped"]
    assert all(type(p["wall_time"]) is float for p in payload["passes"])
    assert payload["wall_time"] == pytest.approx(
        sum(p["wall_time"] for p in payload["passes"]))
    assert "verdict=" not in err


def test_file_run_stats_on_stderr(tmp_path, capsys):
    # the wall times on stderr keep six decimals, the top-level one too
    assert main([write(tmp_path, UNSAT_TEXT)]) == 20
    lines = capsys.readouterr().err.splitlines()
    assert lines[:3] == ["verdict=unsat", "input_clauses=3", "output_clauses=1"]
    assert re.fullmatch(r"wall_time=\d+\.\d{6}", lines[3])
    assert all(re.fullmatch(r"\w+\.wall_time=\d+\.\d{6}", line)
               for line in lines[4:] if "wall_time" in line)


def test_stats_json_for_fuzz(tmp_path):
    target = tmp_path / "stats.json"
    assert main(["--fuzz", "10", "--stats-json", str(target)]) == 0
    payload = json.loads(target.read_text())
    assert list(payload) == ["schema", "formulas", "seed", "sat", "unsat",
                             "unknown", "passes"]
    assert payload["schema"] == 2
    assert payload["formulas"] == 10
    assert payload["sat"] + payload["unsat"] + payload["unknown"] == 10


def test_out_path_that_cannot_be_written(tmp_path, capsys):
    code = main(["--out", str(tmp_path), write(tmp_path, UNSAT_TEXT)])
    out, err = capsys.readouterr()
    assert code == 1
    assert out == ""
    assert err.startswith(f"dqprep: cannot write {tmp_path}: ")
    assert "Traceback" not in err


@pytest.mark.parametrize("fuzz", [[], ["--fuzz", "3"]])
def test_stats_json_path_that_cannot_be_written(tmp_path, capsys, fuzz):
    target = tmp_path / "missing" / "x.json"
    source = [] if fuzz else [write(tmp_path, UNSAT_TEXT)]
    code = main([*fuzz, "--stats-json", str(target), *source])
    err = capsys.readouterr().err
    assert code == 1
    assert f"dqprep: cannot write {target}: No such file or directory" in err
    assert not target.parent.exists()


class FullStdout(io.StringIO):
    def write(self, text):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))


def test_stdout_that_cannot_be_written(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(sys, "stdout", FullStdout())
    code = main([write(tmp_path, UNSAT_TEXT)])
    err = capsys.readouterr().err
    assert code == 1
    # no stats follow the message
    assert err == "dqprep: cannot write <stdout>: No space left on device\n"


def test_stdout_pipe_closed_by_its_reader(tmp_path):
    # an output of about 470 KiB, far more than a pipe buffer holds
    lines = ["p cnf 40001 1", "a 1 0", *(f"d {v} 1 0" for v in range(2, 40002)),
             "1 2 0"]
    path = write(tmp_path, "\n".join(lines) + "\n")
    env = dict(os.environ,
               PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    # leaving the block closes both pipes and reaps the child, also when
    # an assertion inside it fails
    with subprocess.Popen([sys.executable, "-m", "dqprep", "--passes", "ur", path],
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          env=env) as run:
        assert len(run.stdout.read(10)) == 10
        run.stdout.close()
        err = run.stderr.read().decode()
        assert run.wait(timeout=60) == 1
    assert err == "dqprep: cannot write <stdout>: Broken pipe\n"


def test_diagnostics_are_forwarded(tmp_path, capsys):
    # variable 2 is used but never quantified
    text = "p cnf 2 1\ne 1 0\n1 2 0\n"
    code = main([write(tmp_path, text)])
    err = capsys.readouterr().err
    assert code in (0, 10, 20)
    assert "warning" in err and "free" in err


def test_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as info:
        main(["--help"])
    assert info.value.code == 0
    assert "dqprep" in capsys.readouterr().out


def test_console_entry_point(tmp_path, monkeypatch):
    from dqprep.cli import console_main
    monkeypatch.setattr(sys, "argv", ["dqprep", write(tmp_path, SAT_TEXT)])
    with pytest.raises(SystemExit) as info:
        console_main()
    assert info.value.code == 10


def test_module_entry_point_from_a_checkout(tmp_path):
    # `python3 -m dqprep` runs the command line without an installed script
    from dqprep import PipelineConfig, emit_dqdimacs, run_pipeline
    env = dict(os.environ,
               PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    run = subprocess.run([sys.executable, "-m", "dqprep",
                          write(tmp_path, SAT_TEXT)],
                         capture_output=True, text=True, env=env, timeout=60)
    assert run.returncode == 10
    expected, _, _ = run_pipeline(PipelineConfig(),
                                  parse_dqdimacs(SAT_TEXT).formula)
    assert run.stdout == emit_dqdimacs(expected)
    assert "verdict=sat" in run.stderr


def test_cli_agrees_with_library(tmp_path, capsys):
    from dqprep import PipelineConfig, run_pipeline
    parsed = parse_dqdimacs(BLOCKED_TEXT)
    expected, _, _ = run_pipeline(PipelineConfig(), parsed.formula)
    code = main([write(tmp_path, BLOCKED_TEXT)])
    out, _ = capsys.readouterr()
    assert code == 10
    assert parse_dqdimacs(out).formula == expected
