import subprocess
import sys
from pathlib import Path

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
