"""Demo scripts and the README's library example, run as a reader would run
them from the repository root, and the package's public names."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import vfem

ROOT = Path(__file__).resolve().parent.parent


# a line each demo prints, matched from its start
DEMO_LINES = {
    "01_centralized_em": (r"^conditional covariance shrinks the marginal one: "
                          r"trace \d+\.\d+ vs \d+\.\d+$"),
    "02_federated_fit": r"^socket equals in-process exactly: True$",
    "03_standard_errors": r"^sketch sizing: m=\d+, replicates=\d+$",
    "04_baselines_and_montecarlo": r"^  complete-case fit refused: \d+ fully observed rows",
}


@pytest.mark.parametrize("demo", sorted(DEMO_LINES))
def test_python_demo_runs(demo):
    env = dict(os.environ, PYTHONPATH="src")
    proc = subprocess.run([sys.executable, f"demos/{demo}.py"],
                          cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert re.search(DEMO_LINES[demo], proc.stdout, re.MULTILINE), proc.stdout


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
    # the transports write the same trace, byte for byte
    assert "socket trace identical" in proc.stdout, proc.stdout
    # the tight refit `vfem infer` suggests converges and is accepted
    assert "tight refit inferred" in proc.stdout, proc.stdout
    # options from a config file reach the report
    assert "config file applied: full scope, exact statistics" in proc.stdout, \
        proc.stdout
    # a usage error exits 3, not argparse's 2
    assert "usage error exit status: 3" in proc.stdout, proc.stdout


def test_readme_quick_start_runs():
    readme = (ROOT / "README.md").read_text()
    section = readme.split("## Library quick start", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    env = dict(os.environ, PYTHONPATH="src")
    proc = subprocess.run([sys.executable, "-c", block], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.startswith("True "), proc.stdout


def test_every_public_name_resolves():
    assert len(set(vfem.__all__)) == len(vfem.__all__)
    missing = [name for name in vfem.__all__ if not hasattr(vfem, name)]
    assert not missing, missing
