"""Smoke runs of the experiment scripts: the differential fuzz check of
every verdict against the oracle, and the per-pass effect survey."""

import os
import subprocess
import sys
from pathlib import Path

from dqprep import PASS_NAMES

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


def test_pass_stats_reports_every_pass():
    run = run_script("pass_stats.py", "--count", "100")
    assert run.returncode == 0, run.stderr
    rows = {line.split()[0] for line in run.stdout.splitlines()[2:]}
    assert rows == set(PASS_NAMES)
