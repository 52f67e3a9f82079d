"""Self-test of the benchmark: every check must pass on honest outputs and
reject a deliberately wrong one, and the span arithmetic must give the
self times of a hand-built span tree.

    python3 perfbench/selftest.py

Exits 0 when all cases hold, 1 otherwise. Takes a few seconds.
"""

from __future__ import annotations

import dataclasses
import sys

from run import vfem  # this checkout's src/, one BLAS thread

from vfem import (BlockLayout, FitConfig, GenConfig, InferenceConfig, fit,
                  generate, run_inference)

import checks
from tracing import Span, Tracer, count_within, layer_totals, self_times

failures: list[str] = []


def expect(cond: bool, what: str) -> None:
    print(f"{'ok  ' if cond else 'FAIL'} {what}")
    if not cond:
        failures.append(what)


def test_checks() -> None:
    data, truth = generate(GenConfig(n=1500, layout=BlockLayout((2, 2, 2)),
                                     rho=0.3, seed=5))
    cfg = FitConfig(engine="federated", transport="inproc")
    res = fit(data, cfg)
    report = run_inference(res.theta, data, InferenceConfig(scope="beta"))
    bracket = checks.se_bracket(data, truth)
    beta_oracle = checks.oracle_fixed_point(data)
    beta_star = truth.params.beta

    expect(checks.stop(res, "loss") == [], "stop: honest fit passes")
    expect(checks.replay(data, cfg, res) == [], "replay: honest fit passes")
    expect(checks.oracle_agreement(res.theta.beta, beta_oracle) == [],
           "oracle: honest fit passes")
    expect(checks.wald_table(report, bracket, beta_star, "wald") == [],
           "wald: honest table passes")

    bumped = res.theta.beta.copy()
    bumped[0] += 1e-6
    wrong_fit = dataclasses.replace(res, theta=res.theta.replace(beta=bumped))
    expect(checks.replay(data, cfg, wrong_fit) != [],
           "replay: rejects beta perturbed by 1e-6")
    expect(checks.oracle_agreement(bumped, beta_oracle) != [],
           "oracle: rejects beta perturbed by 1e-6")
    wrong_loss = res.loss_trace.copy()
    wrong_loss[-1] += 1e-8
    expect(checks.replay(data, cfg, dataclasses.replace(res, loss_trace=wrong_loss)) != [],
           "replay: rejects a loss trace off by 1e-8")
    expect(checks.stop(res, "max_iters") != [], "stop: rejects a wrong reason")
    expect(checks.stop(dataclasses.replace(res, eta_halvings=1), "loss") != [],
           "stop: rejects a step-size halving")

    lower, upper = bracket
    for j, (what, se_j) in enumerate([("above", upper[0] * 1.001),
                                      ("below", lower[1] * 0.999)]):
        se = report.std_errors.copy()
        se[j] = se_j
        wrong = dataclasses.replace(report, std_errors=se)
        expect(checks.wald_table(wrong, bracket, beta_star, "wald") != [],
               f"wald: rejects a standard error pushed {what} the bracket")
    far = report.estimates.copy()
    far[2] = beta_star[2] + 6.0 * report.std_errors[2]
    expect(checks.wald_table(dataclasses.replace(report, estimates=far),
                             bracket, beta_star, "wald") != [],
           "wald: rejects an estimate 6 SE from the truth")
    for rho in (0.0, 1.0):
        wrong = dataclasses.replace(report, gamma_spectral_radius=rho)
        expect(checks.wald_table(wrong, bracket, beta_star, "wald") != [],
               f"wald: rejects spectral radius {rho}")

    per_kind = {"a": 10, "b": 32}
    expect(checks.byte_total(per_kind, 42) == [], "bytes: exact total passes")
    expect(checks.byte_total(per_kind, 43) != [], "bytes: rejects a total off by one")


def test_span_arithmetic() -> None:
    # thread 1: root [0,10] > a [1,4], b [5,9] > c [6,7]; thread 2: d [2,8]
    spans = [Span(3, "c", 6.0, 7.0, 2, 1), Span(1, "a", 1.0, 4.0, 0, 1),
             Span(2, "b", 5.0, 9.0, 0, 1), Span(0, "root", 0.0, 10.0, None, 1),
             Span(4, "d", 2.0, 8.0, None, 2), Span(5, "a", 2.5, 3.0, 4, 2)]
    own = self_times(spans)
    expect(own == {0: 3.0, 1: 3.0, 2: 3.0, 3: 1.0, 4: 5.5, 5: 0.5},
           f"spans: self times of a hand-built tree ({own})")
    totals = layer_totals(spans)
    expect(totals["seconds"]["a"] == 3.5 and totals["calls"]["a"] == 2,
           "spans: per-name self time and call count")
    expect(count_within(spans, "root", "a") == 1 and count_within(spans, "b", "c") == 1,
           "spans: counting spans under an ancestor")


def test_tracer_bytes() -> None:
    """On both transports the encode tallies add up to the fit's counters,
    and uninstalling restores every patched name."""
    originals = (vfem.transport.encode, vfem.inference.estep,
                 vfem.transport.SocketTransport.__dict__["send_to_client"])
    data, _ = generate(GenConfig(n=300, layout=BlockLayout((2, 3)), rho=0.4, seed=2))
    for transport in ("inproc", "socket"):
        tracer = Tracer()
        mark = tracer.mark()
        tracer.install()
        try:
            res = fit(data, FitConfig(engine="federated", transport=transport,
                                      max_iters=3))
        finally:
            tracer.uninstall()
        row = tracer.layer_metrics(mark)
        per_kind = {k: v for k, v in row.items() if k.startswith("transport.bytes.")}
        expect(checks.byte_total(per_kind, res.comm["bytes_total"]) == [],
               f"trace[{transport}]: per-kind bytes add up to the fit's total")
        expect(row["messages.encode_calls"] == res.comm["messages"],
               f"trace[{transport}]: one encode per message")
    expect((vfem.transport.encode, vfem.inference.estep,
            vfem.transport.SocketTransport.__dict__["send_to_client"]) == originals,
           "trace: uninstall restores the original functions")


def main() -> int:
    test_span_arithmetic()
    test_checks()
    test_tracer_bytes()
    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
