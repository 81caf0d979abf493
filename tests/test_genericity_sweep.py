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
    assert "verdict: PASS" in done.stdout
