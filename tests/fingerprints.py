"""Fit fingerprints: the exact outcome of a fixed set of fits, kept in
`fingerprints.json` and recomputed by `test_fingerprints.py`.

A fingerprint holds a fit's iterations, stop reason, step halvings and byte
counters; its loss trace, step trace and theta as exact floats
(`float.hex`); and the SHA-256 of its message trace file (None for the
oracle, which sends no messages). The fits are the benchmark's three
workload configurations at seeds 1-3 on both transports and on the oracle,
the 20-instance battery of acceptance criterion 02 on both transports, and
the two restore instances (one recovers by halving its step, one diverges)
on both transports.

Regenerate the file only when a change is meant to alter these numbers:

    PYTHONPATH=src python tests/fingerprints.py
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import platform
import tempfile
from pathlib import Path

import numpy as np

from vfem import BlockLayout, FitConfig, GenConfig, fit, generate, smes_like_config

PATH = Path(__file__).with_name("fingerprints.json")

# the benchmark's workloads (perfbench/run.py): data and fit configuration
_WORKLOADS = {
    "heavy": (lambda seed: smes_like_config(n=3000, seed=seed), {"max_iters": 10}),
    "pair": (lambda seed: GenConfig(n=3000, layout=BlockLayout((3, 3)),
                                    rho=0.3, seed=seed), {}),
    "default": (lambda seed: GenConfig(n=3000, layout=BlockLayout((2, 2, 2)),
                                       rho=0.3, seed=seed), {}),
}
_MODES = {"inproc": {"engine": "federated", "transport": "inproc"},
          "socket": {"engine": "federated", "transport": "socket"},
          "oracle": {"engine": "oracle"}}
_RESTORES = {"recovers": {"learning_rate": 5.0, "divergence_patience": 5},
             "diverges": {"learning_rate": 1000.0, "divergence_patience": 3}}


@functools.lru_cache(maxsize=None)
def _battery():
    from test_acceptance import random_battery
    return random_battery(np.random.default_rng(777), 20)


@functools.lru_cache(maxsize=1)
def dataset(instance: str):
    """The dataset an instance name stands for; the last one is kept, so
    cases that share an instance should run one after another."""
    kind, _, arg = instance.partition(":")
    if kind in _WORKLOADS:
        return generate(_WORKLOADS[kind][0](int(arg)))[0]
    if kind == "battery":
        n, dims, rho, seed = _battery()[int(arg)]
        gen = GenConfig(n=n, layout=BlockLayout(dims), rho=rho, seed=seed,
                        min_complete=2)
    else:   # the restore instance
        gen = GenConfig(n=200, layout=BlockLayout((2, 2)), rho=0.3, seed=14)
    return generate(gen)[0]


def cases() -> list[tuple[str, str, dict]]:
    """(case name, instance name, FitConfig fields), in run order."""
    out = []
    for kind, (_gen, fields) in _WORKLOADS.items():
        for seed in (1, 2, 3):
            for mode, engine in _MODES.items():
                out.append((f"{kind}-s{seed}-{mode}", f"{kind}:{seed}",
                            {**fields, **engine}))
    for i in range(20):
        for transport in ("inproc", "socket"):
            out.append((f"battery{i:02d}-{transport}", f"battery:{i}",
                        {"engine": "federated", "transport": transport,
                         "max_iters": 4, "tol": 1e-300}))
    for name, fields in _RESTORES.items():
        for transport in ("inproc", "socket"):
            out.append((f"restore-{name}-{transport}", "restore",
                        {**fields, "engine": "federated", "transport": transport,
                         "max_iters": 1500, "tol": 1e-9}))
    return out


def _hex(values) -> list:
    return [float(v).hex() for v in np.ravel(values)]


def fingerprint(instance: str, fields: dict) -> dict:
    """Fit the instance under the configuration and fingerprint the result."""
    with tempfile.TemporaryDirectory() as tmp:
        trace = os.path.join(tmp, "trace.jsonl")
        res = fit(dataset(instance), FitConfig(trace_path=trace, **fields))
        digest = None
        if os.path.exists(trace):
            digest = hashlib.sha256(Path(trace).read_bytes()).hexdigest()
    theta = res.theta
    return {
        "iterations": res.iterations, "reason": res.reason,
        "halvings": res.eta_halvings, "comm": res.comm,
        "loss_trace": _hex(res.loss_trace), "step_trace": _hex(res.beta_step_trace),
        "theta": {"beta": _hex(theta.beta),
                  "mu": [_hex(m) for m in theta.mu],
                  "sigma_blocks": [_hex(s) for s in theta.sigma_blocks],
                  "sigma2": float(theta.sigma2).hex()},
        "trace_sha256": digest,
    }


def current_platform() -> dict:
    """What the fits' last bits depend on: Python, numpy and its BLAS, and
    the CPU, whose SIMD extensions and core count pick BLAS kernels and the
    split of a product across threads."""
    try:
        config = np.show_config(mode="dicts")
        blas = config["Build Dependencies"]["blas"]
        blas, simd = f"{blas['name']} {blas['version']}", config["SIMD Extensions"]["found"]
    except (TypeError, KeyError):   # numpy < 1.25 prints its configuration only
        blas, simd = None, None
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": blas, "simd": simd, "cpus": os.cpu_count()}


def main() -> None:
    fits = {name: fingerprint(instance, fields)
            for name, instance, fields in cases()}
    lines = [f"  {json.dumps(name)}: {json.dumps(fp, sort_keys=True)}"
             for name, fp in fits.items()]
    with open(PATH, "w") as fh:
        # one fit per line, so a diff of the file names the fits it moved
        fh.write(f'{{"platform": {json.dumps(current_platform())},\n'
                 ' "fits": {\n' + ",\n".join(lines) + "\n}}\n")
    print(f"wrote {len(fits)} fingerprints to {PATH}")


if __name__ == "__main__":
    main()
