"""The benchmark's own self-test, run as the benchmark runs it.

A protocol change that breaks the benchmark's checks (one encode per
message, per-kind byte tallies that add up to the fit's counters) fails
here, not only when the benchmark is run.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_perfbench_selftest_passes():
    proc = subprocess.run([sys.executable, "perfbench/selftest.py"], cwd=ROOT,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_traced_benchmark_run_is_correct():
    # a traced run tallies bytes per message kind from a fixed list of kinds
    # and checks that they add up to the fit's wire bytes
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                           "heavy-inproc", "--seed", "1", "--seconds", "0.1",
                           "--trace", "1"], cwd=ROOT, capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0


def test_traced_socket_run_is_correct():
    # on the threaded path too, every message is encoded once and the
    # per-kind tallies add up to the fit's wire bytes
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                           "pair-socket", "--seed", "1", "--seconds", "0.1",
                           "--trace", "1"], cwd=ROOT, capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0


def test_traced_inference_run_is_correct():
    # the per-layer view of the Wald tables: sketching, the information
    # matrix and the rate matrix each take time on a traced run
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                           "default-infer", "--seed", "1", "--seconds", "0.1",
                           "--trace", "1"], cwd=ROOT, capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0
    metrics = result["metrics"]
    for name in ("inference.sketch_s", "inference.information_s",
                 "inference.jacobian_s"):
        assert metrics[name]["value"] > 0, name


def test_default_infer_benchmark_run_is_correct():
    # the workload behind the Wald-table timing: its checks include the
    # centralized replay, the fixed point and the OLS bracket on both tables
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                           "default-infer", "--seed", "1", "--seconds", "0.1",
                           "--trace", "0"], cwd=ROOT, capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0


def test_pair_socket_benchmark_run_is_correct():
    # the socket workload: two clients over sockets, run to convergence
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                           "pair-socket", "--seed", "1", "--seconds", "0.1",
                           "--trace", "0"], cwd=ROOT, capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0
