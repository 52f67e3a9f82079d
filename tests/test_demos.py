"""Demo scripts run as a reader would run them, from the repository root."""

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_standard_errors_demo_runs():
    env = dict(os.environ, PYTHONPATH="src")
    proc = subprocess.run([sys.executable, "demos/03_standard_errors.py"],
                          cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert re.search(r"^sketch sizing: m=\d+, replicates=\d+$", proc.stdout,
                     re.MULTILINE), proc.stdout
