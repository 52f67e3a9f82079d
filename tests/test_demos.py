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


def test_cli_pipeline_demo_runs(tmp_path):
    # a `vfem` on PATH that runs this checkout, as an installed script would
    shim = tmp_path / "bin" / "vfem"
    shim.parent.mkdir()
    shim.write_text(f'#!/bin/sh\nexec "{sys.executable}" -m vfem "$@"\n')
    shim.chmod(0o755)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"),
               PATH=f"{shim.parent}{os.pathsep}{os.environ.get('PATH', '')}")
    proc = subprocess.run(["sh", "demos/05_cli_pipeline.sh"], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    for step in ("generate", "montecarlo"):
        assert f"== {step} ==" in proc.stdout, proc.stdout
    assert "report written to infer.json" in proc.stdout, proc.stdout
