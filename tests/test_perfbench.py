"""The benchmark's own self-test, run as the benchmark runs it.

A protocol change that breaks the benchmark's checks (one encode per
message, per-kind byte tallies that add up to the fit's counters) fails
here, not only when the benchmark is run.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_perfbench_selftest_passes():
    proc = subprocess.run([sys.executable, "perfbench/selftest.py"], cwd=ROOT,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
