"""The vfem benchmark: wall time and wire bytes to a fit, and time to a Wald
table, through the library path that `vfem fit` / `vfem infer` take.

    python3 perfbench/run.py --workload heavy-inproc --seed 1 --seconds 30 --trace 0

Each run generates its dataset from the seed, writes it as CSV under
`perfbench/_out/`, then repeats whole rounds of read_dataset -> fit
(-> run_inference in both scopes) for the given number of seconds and
reports medians over the rounds. The outputs are checked apart from the
federated path (see checks.py). With `--trace 1` untraced rounds alternate
with rounds that record spans around every layer (see tracing.py), and the
per-layer metrics are reported instead of the end-to-end ones. The last
line of standard output is one JSON object with the result.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Callable

# one BLAS thread, so runs measure the program rather than the scheduler
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / "perfbench" / "_out"
READS_PER_ROUND = 10     # back-to-back read_dataset calls per round, for setup_s


def _import_vfem():
    """Import vfem from this checkout's src/, never from anywhere else."""
    src = ROOT / "src"
    if not (src / "vfem" / "__init__.py").is_file():
        raise SystemExit(f"error: no vfem sources at {src / 'vfem'}")
    sys.path.insert(0, str(src))
    import vfem
    if Path(vfem.__file__).resolve().parent != (src / "vfem").resolve():
        raise SystemExit(f"error: imported vfem from {vfem.__file__}")
    return vfem


vfem = _import_vfem()
from vfem import (BlockLayout, FitConfig, GenConfig, InferenceConfig,  # noqa: E402
                  dataio, generate, observed_loglik, run_inference,
                  smes_like_config)
from vfem.errors import VfemError  # noqa: E402

import checks  # noqa: E402
from tracing import Tracer, count_within  # noqa: E402


@dataclass(frozen=True)
class Workload:
    gen: Callable[[int], GenConfig]
    fit: FitConfig
    reason: str          # expected stop reason
    infer: bool          # run_inference in both scopes after the fit
    oracle: bool         # check beta against the oracle fixed point


WORKLOADS = {
    # K=5 heavy-missingness preset (~21 patterns); in-process transport under
    # a fixed iteration budget, so encoding and validation dominate
    "heavy-inproc": Workload(
        gen=lambda seed: smes_like_config(n=3000, seed=seed),
        fit=FitConfig(engine="federated", transport="inproc", max_iters=10),
        reason="max_iters", infer=False, oracle=False),
    # two clients over loopback sockets, to convergence: messages are
    # decoded and validated again after crossing a real connection
    "pair-socket": Workload(
        gen=lambda seed: GenConfig(n=3000, layout=BlockLayout((3, 3)),
                                   rho=0.3, seed=seed),
        fit=FitConfig(engine="federated", transport="socket"),
        reason="loss", infer=False, oracle=True),
    # the default instance, to convergence, then both Wald tables
    "default-infer": Workload(
        gen=lambda seed: GenConfig(n=3000, layout=BlockLayout((2, 2, 2)),
                                   rho=0.3, seed=seed),
        fit=FitConfig(engine="federated", transport="inproc"),
        reason="loss", infer=True, oracle=True),
}

END_TO_END_UNITS = {
    "setup_s": "s", "fit_s": "s", "result_s": "s", "wire_bytes": "bytes",
    "final_nll": "nats/sample", "peak_rss_mb": "MiB",
}


@dataclass
class Round:
    read_s: float        # mean seconds per read_dataset call
    fit_s: float
    result_s: float
    data: object
    result: object
    reports: list
    layers: dict | None = None   # per-layer metrics, on traced rounds


def one_round(w: Workload, data_dir: str) -> Round:
    """Load the dataset READS_PER_ROUND times back to back, then fit (and
    infer) on the last load; result_s runs from the start of that load."""
    start = perf_counter()
    for _ in range(READS_PER_ROUND):
        t0 = perf_counter()
        data, manifest = dataio.read_dataset(data_dir)
    t1 = perf_counter()
    result = vfem.fit(data, w.fit)
    t2 = perf_counter()
    reports = []
    if w.infer:
        names = [nm for k in data.layout.clients()
                 for nm in manifest["columns"][str(k)]]
        for scope in ("beta", "full"):
            reports.append(run_inference(
                result.theta, data, InferenceConfig(scope=scope, beta_names=names)))
    t3 = perf_counter()
    return Round((t1 - start) / READS_PER_ROUND, t2 - t1, t3 - t0, data, result, reports)


def run_rounds(seconds: float, do_round, min_rounds: int = 1):
    """Whole rounds for about `seconds`: after `min_rounds`, another round
    starts only if one as long as the last would end in time. `do_round(i)`
    runs round i. Returns (rounds, attempted, failed)."""
    rounds, attempted, failed = [], 0, 0
    deadline = perf_counter() + seconds
    last = 0.0
    while attempted < min_rounds or perf_counter() + last <= deadline:
        t0 = perf_counter()
        try:
            rounds.append(do_round(attempted))
        except VfemError as err:
            failed += 1
            print(f"round {attempted + 1} failed: {err!r}", file=sys.stderr)
        attempted += 1
        last = perf_counter() - t0
    return rounds, attempted, failed


def check_outputs(w: Workload, rounds: list, truth) -> list[str]:
    first = rounds[0].result
    fails = []
    for rnd in rounds[1:]:
        res = rnd.result
        if (res.iterations != first.iterations or res.comm != first.comm
                or res.theta.beta.tobytes() != first.theta.beta.tobytes()):
            fails.append("determinism: rounds of one run disagree")
            break
    data = rounds[0].data
    fails += checks.stop(first, w.reason)
    fails += checks.replay(data, w.fit, first)
    if w.oracle:
        fails += checks.oracle_agreement(first.theta.beta,
                                         checks.oracle_fixed_point(data))
    if w.infer:
        bracket = checks.se_bracket(data, truth)
        for report in rounds[0].reports:
            fails += checks.wald_table(report, bracket, truth.params.beta,
                                       f"wald[{report.scope}]")
    return fails


def median(values) -> float:
    return float(statistics.median(values))


def layer_row(tracer: Tracer, mark, rnd: Round) -> dict:
    row = tracer.layer_metrics(mark)
    row["dataio.rows"] = row["dataio.read_calls"] * rnd.data.n
    row["engine.iterations"] = rnd.result.iterations
    row["transport.messages"] = rnd.result.comm["messages"]
    row["inference.sketch_draws"] = sum(
        r.sketch_replicates * r.sketch_dim * r.n for r in rnd.reports)
    row["inference.jacobian_maps"] = count_within(
        tracer.spans[mark[0]:], "inference.jacobian", "centralized.m_step")
    return row


def end_to_end(rounds: list, peak_rss_mb: float) -> dict:
    res, data = rounds[0].result, rounds[0].data
    values = {
        "setup_s": median(r.read_s for r in rounds),
        "fit_s": median(r.fit_s for r in rounds),
        "result_s": median(r.result_s for r in rounds),
        "wire_bytes": res.comm["bytes_total"],
        "final_nll": -observed_loglik(res.theta, data) / data.n,
        "peak_rss_mb": peak_rss_mb,
    }
    return {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}


def traced_round(w: Workload, data_dir: str, tracer: Tracer) -> Round:
    """One round with every layer traced; its per-layer metrics in `layers`."""
    mark = tracer.mark()
    tracer.install()
    try:
        rnd = one_round(w, data_dir)
    finally:
        tracer.uninstall()
    rnd.layers = layer_row(tracer, mark, rnd)
    return rnd


def layer_metrics(rounds: list) -> dict:
    """Per-layer medians over the traced rounds, and the tracing overhead
    against the untraced rounds that alternate with them."""
    plain = [r for r in rounds if r.layers is None]
    traced = [r for r in rounds if r.layers is not None]
    metrics = {k: {"value": median(r.layers[k] for r in traced), "unit": _layer_unit(k)}
               for k in traced[0].layers}
    untraced_fit = median(r.fit_s for r in plain)
    traced_fit = median(r.fit_s for r in traced)
    metrics["trace.fit_s_untraced"] = {"value": untraced_fit, "unit": "s"}
    metrics["trace.fit_s_traced"] = {"value": traced_fit, "unit": "s"}
    metrics["trace.overhead"] = {"value": traced_fit / untraced_fit, "unit": "ratio"}
    return metrics


def measure(w: Workload, name: str, seed: int, seconds: float, trace: bool):
    """One run; returns (metrics, attempted, failed, check failures)."""
    gen = w.gen(seed)
    data, truth = generate(gen)
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    data_dir = tempfile.mkdtemp(prefix=f"data-{name}-", dir=OUT_DIR)
    try:
        dataio.write_dataset(data_dir, data, truth=truth, gen=gen)
        dataio.read_dataset(data_dir)   # untimed: lazy imports and file cache
        if not trace:
            rounds, attempted, failed = run_rounds(
                seconds, lambda i: one_round(w, data_dir))
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            if not rounds:
                return {}, attempted, failed, ["no round completed"]
            fails = check_outputs(w, rounds, truth)
            return end_to_end(rounds, peak_rss_mb), attempted, failed, fails

        # untraced and traced rounds alternate, so both see the same host
        tracer = Tracer()
        rounds, attempted, failed = run_rounds(
            seconds, lambda i: traced_round(w, data_dir, tracer) if i % 2
            else one_round(w, data_dir), min_rounds=2)
        tracer.write(str(OUT_DIR / f"spans-{name}-seed{seed}.jsonl"))
        if failed:
            return {}, attempted, failed, [f"{failed} round(s) failed"]
        fails = check_outputs(w, rounds, truth)
        for rnd in (r for r in rounds if r.layers is not None):
            per_kind = {k: v for k, v in rnd.layers.items()
                        if k.startswith("transport.bytes.")}
            fails += checks.byte_total(per_kind, rnd.result.comm["bytes_total"])
        return layer_metrics(rounds), attempted, failed, fails
    finally:
        shutil.rmtree(data_dir, ignore_errors=True)


def _layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.startswith("transport.bytes"):
        return "bytes"
    return "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    metrics, attempted, failed, fails = measure(
        WORKLOADS[args.workload], args.workload, args.seed, args.seconds,
        bool(args.trace))
    correct = not fails and bool(metrics)
    for line in fails:
        print(f"CHECK FAILED: {line}")
    for key, m in metrics.items():
        print(f"{args.workload:>14}  {key:<42} {m['value']:>16.6f} {m['unit']}")
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    line = json.dumps(result)
    (OUT_DIR / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
     ).write_text(line + "\n")
    print(line)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
