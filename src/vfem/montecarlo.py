"""Replicated synthetic experiments: bias/SD/RMSE, Wald-interval coverage,
and held-out prediction error per method."""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional, Sequence

import numpy as np

from .baselines import BaselineKind, ols, run_baseline
from .datagen import GenConfig, generate
from .engine import FitConfig, fit, predict
from .errors import VfemError
from .inference import InferenceConfig, run_inference

METHODS = ("vfem", "single", "cc", "impute", "ols")
_Z95 = 1.959963984540054


class HarnessFailure(VfemError):
    """Too many replicates failed for the summary to be trustworthy."""


@dataclass
class MonteCarloSpec:
    reps: int
    gen: GenConfig
    methods: Sequence[str] = ("vfem", "cc", "impute")
    fit: FitConfig = field(default_factory=lambda: FitConfig(engine="oracle"))
    inference: Optional[InferenceConfig] = None
    test_fraction: float = 0.5
    seed: int = 0
    max_failure_rate: float = 0.2

    def __post_init__(self):
        if self.reps < 1:
            raise VfemError("need at least one replicate")
        for m in self.methods:
            if m not in METHODS:
                raise VfemError(f"unknown method {m!r}")


@dataclass
class MethodSummary:
    method: str
    reps_ok: int
    bias: np.ndarray
    sd: np.ndarray
    rmse: np.ndarray
    coverage: Optional[np.ndarray]
    mean_mse: Optional[float]
    errors: list[str] = field(default_factory=list)

    def row(self) -> dict:
        return {
            "method": self.method,
            "reps_ok": self.reps_ok,
            "mean_abs_bias": float(np.nanmean(np.abs(self.bias))),
            "mean_sd": float(np.nanmean(self.sd)),
            "mean_rmse": float(np.nanmean(self.rmse)),
            "coverage": (None if self.coverage is None
                         else float(np.nanmean(self.coverage))),
            "prediction_mse": self.mean_mse,
            "failures": len(self.errors),
        }


@dataclass
class MonteCarloSummary:
    spec_reps: int
    methods: dict[str, MethodSummary]

    def table_rows(self) -> list[dict]:
        return [self.methods[m].row() for m in self.methods]

    def to_csv_text(self) -> str:
        cols = ["method", "reps_ok", "mean_abs_bias", "mean_sd", "mean_rmse",
                "coverage", "prediction_mse", "failures"]
        lines = [",".join(cols)]
        for row in self.table_rows():
            lines.append(",".join("" if row[c] is None else repr(row[c])
                                  if isinstance(row[c], float) else str(row[c])
                                  for c in cols))
        return "\n".join(lines) + "\n"

    def to_pretty_text(self) -> str:
        rows = self.table_rows()
        head = (f"{'method':<8} {'reps':>5} {'|bias|':>10} {'sd':>10} "
                f"{'rmse':>10} {'coverage':>9} {'pred mse':>10} {'fail':>5}")
        out = [head, "-" * len(head)]
        for r in rows:
            cov = "--" if r["coverage"] is None else f"{r['coverage']:.3f}"
            mse = "--" if r["prediction_mse"] is None else f"{r['prediction_mse']:.4f}"
            out.append(f"{r['method']:<8} {r['reps_ok']:>5} "
                       f"{r['mean_abs_bias']:>10.5f} {r['mean_sd']:>10.5f} "
                       f"{r['mean_rmse']:>10.5f} {cov:>9} {mse:>10} "
                       f"{r['failures']:>5}")
        return "\n".join(out) + "\n"


def _split_train_test(data, rng: np.random.Generator, fraction: float):
    complete = data.mask.complete_rows()
    n_test = int(round(fraction * complete.size))
    chosen = rng.permutation(complete.size)[:n_test]
    test_rows = np.sort(complete[chosen])
    train_rows = np.setdiff1d(np.arange(data.n), test_rows)
    return data.subset(train_rows), data.subset(test_rows)


def _run_method(method: str, train, test, spec: MonteCarloSpec):
    """Returns (beta_hat, se_or_None, mse_or_None); NaN outside support."""
    if method == "vfem":
        res = fit(train, spec.fit)
        se = None
        if spec.inference is not None:
            report = run_inference(res.theta, train, spec.inference)
            se = report.std_errors
        mse = predict(res.theta, test).mse if test.n else None
        return res.theta.beta, se, mse
    if method == "ols":
        x = train.full_design()
        f = ols(x, train.y)
        x_test = test.full_design() if test.n else None
        mse = (float(np.mean((test.y - x_test @ f.beta) ** 2))
               if x_test is not None else None)
        return f.beta, f.std_errors, mse
    kind = {"single": BaselineKind.SINGLE, "cc": BaselineKind.COMPLETE_CASE,
            "impute": BaselineKind.MEAN_IMPUTE}[method]
    res = run_baseline(kind, train, test=test if test.n else None)
    return res.beta, res.std_errors, res.mse


def monte_carlo(spec: MonteCarloSpec) -> MonteCarloSummary:
    """Run `spec.reps` independent replications and aggregate per method."""
    root = np.random.SeedSequence(spec.seed)
    p = spec.gen.layout.total_dim
    beta_star = spec.gen.beta_star()

    estimates = {m: [] for m in spec.methods}
    covered = {m: [] for m in spec.methods}
    mses = {m: [] for m in spec.methods}
    errors = {m: [] for m in spec.methods}

    for rep, child in enumerate(root.spawn(spec.reps)):
        rep_seed = int(child.generate_state(1)[0] % (2 ** 31))
        gen_cfg = replace(spec.gen, seed=rep_seed)
        data, _ = generate(gen_cfg)
        split_rng = np.random.default_rng(child.spawn(1)[0])
        train, test = _split_train_test(data, split_rng, spec.test_fraction)
        for method in spec.methods:
            try:
                beta_hat, se, mse = _run_method(method, train, test, spec)
            except VfemError as err:
                errors[method].append(f"rep {rep}: {err}")
                continue
            estimates[method].append(beta_hat)
            if se is not None:
                lo = beta_hat - _Z95 * se
                hi = beta_hat + _Z95 * se
                covered[method].append((lo <= beta_star) & (beta_star <= hi))
            if mse is not None:
                mses[method].append(mse)

    summaries = {}
    for method in spec.methods:
        n_fail = len(errors[method])
        if n_fail > spec.max_failure_rate * spec.reps:
            raise HarnessFailure(
                f"method {method!r} failed {n_fail}/{spec.reps} replicates; "
                f"first: {errors[method][0]}")
        est = np.asarray(estimates[method], dtype=float)
        if est.size == 0:
            est = np.full((0, p), np.nan)
        bias = np.nanmean(est, axis=0) - beta_star if est.shape[0] else np.full(p, np.nan)
        sd = np.nanstd(est, axis=0) if est.shape[0] else np.full(p, np.nan)
        rmse = (np.sqrt(np.nanmean((est - beta_star) ** 2, axis=0))
                if est.shape[0] else np.full(p, np.nan))
        cov = (np.nanmean(np.asarray(covered[method], dtype=float), axis=0)
               if covered[method] else None)
        mean_mse = float(np.mean(mses[method])) if mses[method] else None
        summaries[method] = MethodSummary(
            method=method, reps_ok=est.shape[0], bias=bias, sd=sd, rmse=rmse,
            coverage=cov, mean_mse=mean_mse, errors=errors[method])
    return MonteCarloSummary(spec_reps=spec.reps, methods=summaries)
