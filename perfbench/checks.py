"""Correctness checks of a workload's outputs, computed apart from the
federated path: a centralized replay of the iterations, agreement with the
oracle engine, stop reasons, and for the Wald tables classical numpy OLS
standard errors that must bracket them. Each check returns a list of
failure messages, empty when the check passes."""

from __future__ import annotations

import numpy as np

from vfem import (
    FitConfig,
    closed_form_m_step,
    estep,
    fit,
    initialize,
    observed_loss,
    plug_in_learning_rate,
    q_gradient_beta,
)

REPLAY_TOL = 1e-10     # the lossless contract: federated == centralized
ORACLE_TOL = 1e-7      # distance of the fitted beta to the oracle fixed point
MAX_ABS_Z = 5.0        # |beta_hat - beta_star| / SE


def _gap(a, b) -> float:
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return float(np.max(np.abs(a - b)) / max(1.0, float(np.max(np.abs(b)))))


def replay(data, cfg: FitConfig, result) -> list[str]:
    """Replay the fit with the centralized kernels: the same iterations of
    beta += eta sigma2 grad, with mu, Sigma and sigma2 in closed form."""
    theta = initialize(data, cfg)
    eta = plug_in_learning_rate(theta)
    fails = []
    if result.eta != eta:
        fails.append(f"replay: step size {result.eta!r} != plug-in {eta!r}")
    losses = []
    for _ in range(result.iterations):
        cache = estep(theta, data)
        losses.append(observed_loss(cache.e, cache.v4))
        grad = q_gradient_beta(theta, data, cache)
        central = closed_form_m_step(theta, data, cache)
        theta = central.replace(beta=theta.beta + eta * theta.sigma2 * grad)
    gaps = {
        "loss_trace": _gap(result.loss_trace, losses),
        "beta": _gap(result.theta.beta, theta.beta),
        "sigma2": _gap(result.theta.sigma2, theta.sigma2),
        "mu": max(_gap(a, b) for a, b in zip(result.theta.mu, theta.mu)),
        "sigma_blocks": max(_gap(a, b) for a, b in
                            zip(result.theta.sigma_blocks, theta.sigma_blocks)),
    }
    fails += [f"replay: {what} differs by {gap:.3e} (> {REPLAY_TOL:g})"
              for what, gap in gaps.items() if not gap <= REPLAY_TOL]
    return fails


def stop(result, reason: str) -> list[str]:
    fails = []
    if result.reason != reason:
        fails.append(f"stop: reason {result.reason!r}, expected {reason!r}")
    if result.eta_halvings != 0:
        fails.append(f"stop: {result.eta_halvings} step-size halvings")
    return fails


def oracle_fixed_point(data):
    """The oracle engine's beta, iterated well past the federated tolerance."""
    res = fit(data, FitConfig(engine="oracle", tol=1e-13, max_iters=5000))
    return res.theta.beta


def oracle_agreement(beta, beta_oracle) -> list[str]:
    gap = float(np.max(np.abs(np.asarray(beta) - beta_oracle)))
    if not gap <= ORACLE_TOL:
        return [f"oracle: beta differs from the oracle fixed point by "
                f"{gap:.3e} (> {ORACLE_TOL:g})"]
    return []


def ols_std_errors(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Classical OLS standard errors, sqrt(s^2 diag((X'X)^-1))."""
    n, p = x.shape
    xtx_inv = np.linalg.inv(x.T @ x)
    resid = y - x @ (xtx_inv @ (x.T @ y))
    s2 = float(resid @ resid) / (n - p)
    return np.sqrt(s2 * np.diag(xtx_inv))


def se_bracket(data, truth) -> tuple[np.ndarray, np.ndarray]:
    """(lower, upper): OLS standard errors on the latent full design, which
    no estimator from the masked data can beat, and on the complete rows,
    which ignore every partly observed sample."""
    x_full = np.concatenate(truth.latent_blocks, axis=1)
    rows = data.mask.complete_rows()
    lower = ols_std_errors(x_full, data.y)
    upper = ols_std_errors(x_full[rows], data.y[rows])
    return lower, upper


def wald_table(report, bracket, beta_star, label: str) -> list[str]:
    lower, upper = bracket
    se = np.asarray(report.std_errors)
    fails = []
    inside = (lower < se) & (se < upper)
    for j in np.flatnonzero(~inside):
        fails.append(f"{label}: SE[{report.names[j]}] = {se[j]:.6g} outside "
                     f"the OLS bracket ({lower[j]:.6g}, {upper[j]:.6g})")
    z = np.abs(np.asarray(report.estimates) - beta_star) / se
    if not np.all(z < MAX_ABS_Z):
        fails.append(f"{label}: |beta_hat - beta_star| / SE reaches "
                     f"{float(np.max(z)):.2f} (>= {MAX_ABS_Z})")
    rho = report.gamma_spectral_radius
    if not 0.0 < rho < 1.0:
        fails.append(f"{label}: rate-matrix spectral radius {rho!r} outside (0, 1)")
    return fails


def byte_total(per_kind: dict, wire_bytes: int) -> list[str]:
    total = sum(per_kind.values())
    if total != wire_bytes:
        return [f"bytes: per-kind tallies sum to {total}, "
                f"the fit counted {wire_bytes}"]
    return []
