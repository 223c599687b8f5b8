"""Smoke test of the experiment scripts: each runs at a small size, exits
cleanly and prints its header line."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

# script -> (small-size arguments, leading words of the first output line)
SCRIPT_RUNS = {
    "shrink_threshold.py": (["--half-width", "15", "--count", "201",
                             "--time", "0.5", "--dt", "0.01", "--rounds", "1"],
                            "coupling 0: sigma"),
    "superposition_sweep.py": (["--count", "121", "--separations", "2", "6"],
                               "separation sum residual"),
    "dt_convergence.py": (["--count", "41", "--levels", "2", "--time", "0.1"],
                          "dt gauss ratio continuity ratio norm drift"),
}


@pytest.mark.parametrize("name", sorted(p.name for p in (ROOT / "scripts").glob("*.py")))
def test_script_runs_and_prints_header(name):
    args, header = SCRIPT_RUNS[name]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / name), *args],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    words = header.split()
    assert proc.stdout.splitlines()[0].split()[:len(words)] == words
