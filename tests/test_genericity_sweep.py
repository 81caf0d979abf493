import subprocess
import sys
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "genericity_sweep.py"


def test_small_sweep_passes():
    done = subprocess.run(
        [sys.executable, str(SCRIPT), "--structures", "3", "--realizations", "2"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert "rank/linking agreement: 16/16 subsets (100.0000%)" in lines
    assert "index agreement: 14/14 pairs (100.0000%)" in lines
    assert lines[-1] == "verdict: PASS"


@pytest.mark.parametrize(
    "option, value",
    [
        ("--structures", "0"),
        ("--realizations", "0"),
        ("--freqs", "0"),
        ("--tol", "1.5"),
        ("--max-states", "1"),
        ("--seed", "-1"),
    ],
)
def test_bad_option_is_a_usage_error(option, value):
    done = subprocess.run(
        [sys.executable, str(SCRIPT), "--structures", "1", "--realizations", "1", option, value],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 2
    assert f"argument {option}: " in done.stderr
    assert "Traceback" not in done.stderr
    assert "verdict" not in done.stdout


@pytest.mark.parametrize(
    "option, value, wanted",
    [
        ("--structures", "x", "must be a positive integer"),
        ("--realizations", "1.5", "must be a positive integer"),
        ("--freqs", "", "must be a positive integer"),
        ("--seed", "seven", "must be a non-negative integer"),
        ("--tol", "abc", "must lie in (0, 1)"),
    ],
)
def test_non_numeric_option_names_the_option(option, value, wanted):
    done = subprocess.run(
        [sys.executable, str(SCRIPT), "--structures", "1", "--realizations", "1", option, value],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 2
    assert f"argument {option}: {wanted}, got {value}" in done.stderr
    # The message says what the option wants, not which converter refused it.
    assert "_" not in done.stderr.split(f"argument {option}: ")[1]
    assert "Traceback" not in done.stderr
