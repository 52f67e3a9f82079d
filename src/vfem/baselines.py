"""Reference estimators for comparison: server-only least squares,
complete-case least squares, and mean imputation."""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Optional

import numpy as np

from .data import VerticalDataset
from .errors import InsufficientCompleteCases


class BaselineKind(Enum):
    SINGLE = "single"
    COMPLETE_CASE = "cc"
    MEAN_IMPUTE = "impute"


@dataclass(frozen=True)
class OlsFit:
    beta: np.ndarray
    std_errors: np.ndarray
    sigma2_mle: float
    r2: float
    adj_r2: float
    n_used: int


def ols(x: np.ndarray, y: np.ndarray) -> OlsFit:
    """Plain least squares with classical (unbiased-variance) standard errors."""
    n, p = x.shape
    gram = x.T @ x
    beta = np.linalg.solve(gram, x.T @ y)
    resid = y - x @ beta
    rss = float(resid @ resid)
    dof = max(n - p, 1)
    sigma2_unbiased = rss / dof
    cov = sigma2_unbiased * np.linalg.inv(gram)
    tss = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 - rss / tss if tss > 0 else 0.0
    adj = 1.0 - (1.0 - r2) * (n - 1) / max(n - p - 1, 1)
    return OlsFit(beta=beta, std_errors=np.sqrt(np.diag(cov)),
                  sigma2_mle=rss / n, r2=r2, adj_r2=adj, n_used=n)


@dataclass(frozen=True)
class BaselineResult:
    kind: BaselineKind
    beta: np.ndarray            # length p; NaN outside the method's support
    std_errors: np.ndarray      # aligned with beta; NaN outside support
    support: np.ndarray         # bool, which coefficients the method estimates
    r2: float
    adj_r2: float
    n_used: int
    mse: Optional[float]


def run_baseline(kind: BaselineKind, data: VerticalDataset,
                 test: Optional[VerticalDataset] = None) -> BaselineResult:
    """Fit one baseline on `data`; report held-out MSE when `test` is given."""
    layout, mask = data.layout, data.mask
    p = layout.total_dim
    y = data.y

    if kind is BaselineKind.SINGLE:
        p1 = layout.dim(1)
        view = data.view(1)
        if view.rows.size < p1 + 2:
            raise InsufficientCompleteCases(
                f"server client has {view.rows.size} observed rows; need {p1 + 2}")
        fit_ols = ols(view.x_obs, y[view.rows])
        beta = np.full(p, np.nan)
        se = np.full(p, np.nan)
        support = np.zeros(p, dtype=bool)
        beta[:p1] = fit_ols.beta
        se[:p1] = fit_ols.std_errors
        support[:p1] = True
    elif kind is BaselineKind.COMPLETE_CASE:
        rows = mask.complete_rows()
        if rows.size < p + 2:
            raise InsufficientCompleteCases(
                f"{rows.size} fully observed rows; need at least {p + 2}")
        x_cc = np.concatenate([data.view(k).x_on(rows) for k in layout.clients()],
                              axis=1)
        fit_ols = ols(x_cc, y[rows])
        beta, se = fit_ols.beta, fit_ols.std_errors
        support = np.ones(p, dtype=bool)
    elif kind is BaselineKind.MEAN_IMPUTE:
        filled = []
        for k in layout.clients():
            view = data.view(k)
            block = np.tile(view.x_obs.mean(axis=0), (data.n, 1))
            block[view.rows] = view.x_obs
            filled.append(block)
        x_imp = np.concatenate(filled, axis=1)
        fit_ols = ols(x_imp, y)
        beta, se = fit_ols.beta, fit_ols.std_errors
        support = np.ones(p, dtype=bool)
    else:
        raise ValueError(f"unknown baseline {kind}")

    mse = None
    if test is not None:
        x_test = test.full_design()
        used = np.where(support, beta, 0.0)
        resid = test.y - x_test @ used
        mse = float(np.mean(resid ** 2))
    return BaselineResult(kind=kind, beta=beta, std_errors=se, support=support,
                          r2=fit_ols.r2, adj_r2=fit_ols.adj_r2,
                          n_used=fit_ols.n_used, mse=mse)
