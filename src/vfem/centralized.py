"""Centralized (single-machine) kernels: the E-step, the expected
complete-data objective, its coefficient gradient, and the closed-form
maximization step.

These per-sample kernels are the lossless reference the federated rounds,
the oracle engine and the inference statistics are checked against. The
E-step works per missingness pattern (there are at most 2^K of them): every
row of a pattern shares its denominator d_g, its coupling vector Sigma beta
and its conditional covariance, so `estep` computes those once per
`PatternGroup`.

`em_map`, which the oracle engine iterates and inference differentiates,
runs on per-pattern sums instead: `pattern_moments` sums the data in
O(n p^2) once, and `pattern_gram` is the E-step on them, O(G (p+2)^3) for G
patterns; its Gram also feeds the inference statistics.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import (BlockLayout, ModelParameters, VerticalDataset, repair_psd,
                   repaired_block)
from .errors import DegenerateVariance, SingularCovariance, SingularSystem

_D_FLOOR = 1e-12
_COND_LIMIT = 1e14


@dataclass(frozen=True)
class PatternGroup:
    """All samples sharing one missing-client set."""

    missing: tuple[int, ...]
    rows: np.ndarray
    cols: np.ndarray          # stacked columns of the missing blocks
    u: np.ndarray             # (q,) coupling vector Sigma beta over missing blocks
    d: float                  # marginal response variance for this pattern
    v4: float                 # beta' Sigma_cond beta at the E-step coefficients

    @property
    def count(self) -> int:
        return self.rows.shape[0]


@dataclass(frozen=True)
class EStepCache:
    """Everything the maximization needs, computed at one parameter point."""

    theta: ModelParameters
    x_tilde: np.ndarray       # (n, p) pseudo-complete design
    r: np.ndarray             # (n,) y minus mean-imputed fit
    e: np.ndarray             # (n,) y minus pseudo-complete fit
    v4: np.ndarray            # (n,) conditional-covariance quadratic forms
    corrections: np.ndarray   # (p, p) summed embedded conditional covariances
    patterns: tuple[PatternGroup, ...]

    def alpha(self, group: PatternGroup) -> np.ndarray:
        """Conditional covariance times the E-step coefficients, one pattern."""
        return group.u * (self.theta.sigma2 / group.d)


def estep(theta: ModelParameters, data: VerticalDataset) -> EStepCache:
    """Impute every missing block by its conditional mean; accumulate the
    conditional-covariance corrections used by the maximization step."""
    layout, mask = data.layout, data.mask
    n, p = data.n, layout.total_dim
    beta, sigma2 = theta.beta, theta.sigma2
    y = data.y

    u_blocks = [theta.sigma_blocks[k - 1] @ theta.beta_block(layout, k)
                for k in layout.clients()]
    v1 = np.array([float(theta.beta_block(layout, k) @ u_blocks[k - 1])
                   for k in layout.clients()])

    # mean-imputed fit per client, never touching masked entries
    fit_bar = np.zeros(n)
    x_tilde = np.empty((n, p))
    for k in layout.clients():
        view = data.view(k)
        cols = layout.block_slice(k)
        bk = theta.beta_block(layout, k)
        base = float(theta.mu[k - 1] @ bk)
        contrib = np.full(n, base)
        obs = mask.observed_rows(k)
        contrib[obs] = view.x[obs] @ bk
        fit_bar += contrib
        x_tilde[obs, cols] = view.x[obs]

    d = sigma2 + mask.indicators @ v1
    if d.size and d.min() <= _D_FLOOR:
        raise DegenerateVariance(f"conditional denominator {d.min():.3e} <= {_D_FLOOR}")
    r = y - fit_bar

    corrections = np.zeros((p, p))
    v4 = np.zeros(n)
    groups = []
    for missing, rows in mask.patterns():
        if not missing:
            groups.append(PatternGroup((), rows, np.empty(0, dtype=int),
                                       np.zeros(0), float(sigma2), 0.0))
            continue
        cols = layout.stack_columns(missing)
        u = np.concatenate([u_blocks[k - 1] for k in missing])
        d_g = float(sigma2 + sum(v1[k - 1] for k in missing))
        scale = r[rows] / d_g
        for k in missing:
            ksl = layout.block_slice(k)
            x_tilde[rows, ksl] = theta.mu[k - 1] + np.outer(scale, u_blocks[k - 1])
        # embedded conditional covariance, identical for every row of the pattern
        cond = -np.outer(u, u) / d_g
        off = 0
        for k in missing:
            m = layout.dim(k)
            cond[off:off + m, off:off + m] += theta.sigma_blocks[k - 1]
            off += m
        corrections[np.ix_(cols, cols)] += rows.size * cond
        quad = float(d_g - sigma2)            # beta' Sigma_mis beta
        v4_g = quad - quad * quad / d_g       # subtract rank-one part
        v4[rows] = v4_g
        groups.append(PatternGroup(tuple(missing), rows, cols, u, d_g, v4_g))

    e = y - x_tilde @ beta
    return EStepCache(theta, x_tilde, r, e, v4, corrections, tuple(groups))


def q_value(theta: ModelParameters, theta_t: ModelParameters,
            data: VerticalDataset) -> float:
    """Expected complete-data objective at `theta`, imputations at `theta_t`.

    Additive constants are dropped; the data-dependent terms are averaged
    over samples while the log-determinant terms appear once.
    """
    cache = estep(theta_t, data)
    n = data.n
    layout = data.layout
    beta, sigma2 = theta.beta, theta.sigma2

    logdets = 0.0
    for s in theta.sigma_blocks:
        sign, logdet = np.linalg.slogdet(s)
        if sign <= 0 or not np.isfinite(logdet):
            raise SingularCovariance("covariance block has no valid log-determinant")
        logdets += logdet

    resid = data.y - cache.x_tilde @ beta
    penalty = float(beta @ cache.corrections @ beta)
    value = -0.5 * np.log(sigma2) - 0.5 * logdets
    value -= (float(resid @ resid) + penalty) / (2.0 * n * sigma2)

    for k in layout.clients():
        centered = cache.x_tilde[:, layout.block_slice(k)] - theta.mu[k - 1]
        sol = np.linalg.solve(theta.sigma_blocks[k - 1], centered.T)
        value -= float(np.sum(centered.T * sol)) / (2.0 * n)

    # trace of Sigma_k^{-1} times each pattern's conditional diagonal block
    for g in cache.patterns:
        if not g.missing:
            continue
        off = 0
        for k in g.missing:
            m = layout.dim(k)
            u_k = g.u[off:off + m]
            off += m
            cond_blk = theta_t.sigma_blocks[k - 1] - np.outer(u_k, u_k) / g.d
            tr = float(np.trace(np.linalg.solve(theta.sigma_blocks[k - 1], cond_blk)))
            value -= g.count * tr / (2.0 * n)
    return float(value)


def q_gradient_beta(theta_t: ModelParameters, data: VerticalDataset,
                    cache: EStepCache | None = None) -> np.ndarray:
    """Exact coefficient gradient of the expected complete-data objective,
    evaluated at the expansion point itself:

        g = (X~' e - corrections @ beta) / (n sigma2).

    Matches central finite differences of `q_value`; the per-sample form is
    the average of e_i x~_i minus the embedded conditional-covariance terms,
    all divided by sigma2.
    """
    if cache is None:
        cache = estep(theta_t, data)
    n = data.n
    raw = cache.x_tilde.T @ cache.e - cache.corrections @ theta_t.beta
    return raw / (n * theta_t.sigma2)


def solve_normal_equations(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve a x = b, retrying once with a trace-scaled ridge when
    ill-conditioned; give up past condition number 1e14."""
    cond = np.linalg.cond(a)
    if np.isfinite(cond) and cond <= _COND_LIMIT:
        return np.linalg.solve(a, b)
    lam = 1e-8 * np.trace(a) / a.shape[0]
    ridged = a + lam * np.eye(a.shape[0])
    cond = np.linalg.cond(ridged)
    if not np.isfinite(cond) or cond > _COND_LIMIT:
        raise SingularSystem(f"normal equations condition number {cond:.3e}")
    return np.linalg.solve(ridged, b)


def _solve_about_means(scatter: np.ndarray, mean: np.ndarray, cross: np.ndarray,
                       y_mean: float, n: int) -> np.ndarray:
    """Solve the normal equations (scatter + n m m') beta = cross + n y_mean m
    written about the column means m: `scatter` is the centred Gram plus the
    corrections and `cross` the centred X'y. Large means would make the
    uncentred matrix ill-conditioned; the centred one is solved instead, and
    Sherman-Morrison adds the rank-one mean term back."""
    cond = np.linalg.cond(scatter)
    if not np.isfinite(cond) or cond > _COND_LIMIT:
        # a constant covariate centres to a zero column, while the
        # uncentred system may still be regular
        return solve_normal_equations(scatter + n * np.outer(mean, mean),
                                      cross + (n * y_mean) * mean)
    beta_c, w = np.linalg.solve(scatter, np.column_stack([cross, mean])).T
    return beta_c + w * (n * (y_mean - mean @ beta_c) / (1.0 + n * (mean @ w)))


def closed_form_m_step(theta_t: ModelParameters, data: VerticalDataset,
                       cache: EStepCache | None = None) -> ModelParameters:
    """One full maximization step in closed form.

    Coefficients solve the corrected normal equations, written about the
    column means so that large covariate means do not cancel; client means are
    pseudo-complete column means; client covariances add the per-pattern
    conditional blocks; the noise variance averages squared residuals plus
    the conditional quadratic forms. All right-hand sides use the
    iteration-t parameters (Jacobi-style updates).
    """
    if cache is None:
        cache = estep(theta_t, data)
    layout, n = data.layout, data.n

    x_mean, y_mean = cache.x_tilde.mean(axis=0), float(data.y.mean())
    centered = cache.x_tilde - x_mean
    beta_new = _solve_about_means(centered.T @ centered + cache.corrections, x_mean,
                                  centered.T @ (data.y - y_mean), y_mean, n)

    mu_new, sig_new = [], []
    for k in layout.clients():
        block = cache.x_tilde[:, layout.block_slice(k)]
        mu_new.append(block.mean(axis=0))
        centered = block - theta_t.mu[k - 1]
        scatter = centered.T @ centered
        for g in cache.patterns:
            if k in g.missing:
                off = sum(layout.dim(j) for j in g.missing if j < k)
                u_k = g.u[off:off + layout.dim(k)]
                scatter += g.count * (theta_t.sigma_blocks[k - 1]
                                      - np.outer(u_k, u_k) / g.d)
        sig_new.append(repair_psd(scatter / n))

    sigma2_new = float(np.mean(cache.e ** 2 + cache.v4))
    return ModelParameters(beta=beta_new, mu=tuple(mu_new),
                           sigma_blocks=tuple(sig_new), sigma2=sigma2_new)


def observed_loss(residuals: np.ndarray, corrections: np.ndarray) -> float:
    """Convergence-monitoring loss: mean of e_i^2 plus the per-sample
    conditional quadratic forms (zero on fully observed samples)."""
    e = np.asarray(residuals, dtype=float)
    v4 = np.asarray(corrections, dtype=float)
    if e.shape != v4.shape:
        raise ValueError("residuals and corrections must align")
    return float(np.mean(e ** 2 + v4))


@dataclass(frozen=True)
class PatternMoments:
    """Per-pattern sufficient statistics of the data for the EM map.

    Row i of pattern g is summarized by z_i = [x_obs - c (0 on missing
    columns), y - c_y, 1], where c holds the observed column means and c_y
    the mean of y; `scatter[g]` is Z_g'Z_g, (p+2) x (p+2). Centering keeps
    covariates with large means from cancelling in the products.
    """

    layout: BlockLayout
    missing: tuple[tuple[int, ...], ...]   # missing clients, canonical order
    counts: np.ndarray          # (G,) rows per pattern
    missing_blocks: np.ndarray  # (G, K) 1.0 where the client is missing
    missing_cols: np.ndarray    # (G, p) 1.0 on the missing clients' columns
    center: np.ndarray          # (p,) observed column means c
    center_y: float             # mean of y
    scatter: np.ndarray         # (G, p+2, p+2) Z_g'Z_g

    @property
    def n(self) -> int:
        return int(self.counts.sum())


def centred_rows(data: VerticalDataset) -> tuple[np.ndarray, np.ndarray, float]:
    """The (n, p+2) rows z_i = [x_obs - c (0 on missing columns), y - c_y, 1]
    with the observed column means c and the mean c_y of y; returns z, c
    and c_y."""
    layout, mask = data.layout, data.mask
    n, p = data.n, layout.total_dim
    z = np.zeros((n, p + 2))
    center = np.zeros(p)
    for k in layout.clients():
        obs = mask.observed_rows(k)
        cols = layout.block_slice(k)
        if obs.size:
            x_obs = data.view(k).x[obs]
            center[cols] = x_obs.mean(axis=0)
            z[obs, cols] = x_obs - center[cols]
    center_y = float(data.y.mean())
    z[:, p] = data.y - center_y
    z[:, p + 1] = 1.0
    return z, center, center_y


def pattern_moments(data: VerticalDataset) -> PatternMoments:
    """Group the rows by missingness pattern and sum their centred moments,
    O(n p^2) once; every `em_map` on the result is then O(G (p+2)^3)."""
    layout = data.layout
    z, center, center_y = centred_rows(data)
    groups = data.mask.patterns()
    missing = tuple(tuple(m) for m, _ in groups)
    blocks = np.zeros((len(groups), layout.num_clients))
    for g, m in enumerate(missing):
        blocks[g, [k - 1 for k in m]] = 1.0
    owner = np.repeat(np.arange(layout.num_clients), layout.client_dims)
    scatter = np.stack([z[rows].T @ z[rows] for _, rows in groups])
    return PatternMoments(
        layout=layout, missing=missing,
        counts=np.array([rows.size for _, rows in groups], dtype=float),
        missing_blocks=blocks, missing_cols=blocks[:, owner],
        center=center, center_y=center_y, scatter=scatter)


@dataclass(frozen=True)
class PatternGram:
    """The E-step's sums at one parameter point, from `pattern_gram`."""

    maps: np.ndarray          # (G, p+3, p+2) W_g: z -> [x~ - mu, y - c_y, e, 1]
    sums: np.ndarray          # (p+3, p+3) sum_g W_g S_g W_g', S_g = Z_g'Z_g
    corrections: np.ndarray   # (p, p) summed embedded conditional covariances
    v4_sum: float             # summed conditional quadratic forms

    @property
    def resid_sumsq(self) -> float:
        return float(self.sums[-2, -2])     # e'e


def pattern_gram(theta: ModelParameters, moments: PatternMoments) -> PatternGram:
    """The E-step at `theta` on per-pattern moments: O(G (p+2)^3).

    On a row of pattern g, x~ = A_g z with A_g affine in theta: observed
    columns are z plus their centre; a missing column is mu + u r / d_g with
    u = Sigma beta and r = a_g'z the mean-imputed residual. Every sum the
    maximization needs is a block of sum_g W_g S_g W_g' for the stacked
    W_g = [A_g - mu; y - c_y; e; 1].
    """
    layout = moments.layout
    p = layout.total_dim
    beta, sigma2 = theta.beta, theta.sigma2
    cols, blocks = moments.missing_cols, moments.missing_blocks

    mu = np.concatenate(theta.mu)
    u = np.concatenate([theta.sigma_blocks[k - 1] @ theta.beta_block(layout, k)
                        for k in layout.clients()])
    v1 = np.array([float(theta.beta_block(layout, k) @ u[layout.block_slice(k)])
                   for k in layout.clients()])
    d = sigma2 + blocks @ v1
    if d.min() <= _D_FLOOR:
        raise DegenerateVariance(f"conditional denominator {d.min():.3e} <= {_D_FLOOR}")

    # r = a_g'z: y minus the observed fit minus mu'beta on the missing blocks
    observed = 1.0 - cols
    a = np.zeros((cols.shape[0], p + 2))
    a[:, :p] = -observed * beta
    a[:, p] = 1.0
    a[:, p + 1] = moments.center_y - (observed * moments.center + cols * mu) @ beta

    # x~ - mu = A_g z; the last column of A_g carries the constants
    amat = observed[:, :, None] * np.eye(p, p + 2)
    amat += (cols * u / d[:, None])[:, :, None] * a[:, None, :]
    amat[:, :, p + 1] += observed * (moments.center - mu)
    ones = np.zeros(p + 2)
    ones[p + 1] = 1.0
    y_row = np.zeros(p + 2)                    # y - c_y
    y_row[p] = 1.0
    e_row = y_row + (moments.center_y - float(beta @ mu)) * ones - beta @ amat
    w = np.concatenate([amat, np.broadcast_to(y_row, (len(d), 1, p + 2)),
                        e_row[:, None, :],
                        np.broadcast_to(ones, (len(d), 1, p + 2))], axis=1)
    sums = (w @ moments.scatter @ w.transpose(0, 2, 1)).sum(axis=0)

    # summed embedded conditional covariances: blockdiag(Sigma) on each
    # pattern's missing blocks minus its rank-one coupling u u' / d_g
    bdiag = np.zeros((p, p))
    for k in layout.clients():
        sl = layout.block_slice(k)
        bdiag[sl, sl] = theta.sigma_blocks[k - 1]
    corrections = (bdiag * ((cols.T * moments.counts) @ cols)
                   - np.outer(u, u) * ((cols.T * (moments.counts / d)) @ cols))
    quad = d - sigma2
    v4_sum = float(moments.counts @ (quad - quad * quad / d))
    return PatternGram(w, sums, corrections, v4_sum)


def em_map(theta: ModelParameters, moments: PatternMoments) -> ModelParameters:
    """One application of the EM fixed-point map, the same update as
    `closed_form_m_step` but from the blocks of `pattern_gram`.

    Every parameter moves; a caller that pins the nuisance parameters (the
    beta scope of `inference.ThetaVectorizer`) reads the coefficients only.
    """
    layout = moments.layout
    p, n = layout.total_dim, moments.n
    gram = pattern_gram(theta, moments)
    sums, corrections = gram.sums, gram.corrections
    scatter = sums[:p, :p]                     # sum of (x~ - mu)(x~ - mu)'
    c_sum, y_sum = sums[:p, p + 2], sums[p, p + 2]   # sums of x~ - mu, y - c_y
    x_mean = np.concatenate(theta.mu) + c_sum / n

    # recentred from mu to the column means of x~ and y
    beta_new = _solve_about_means(
        scatter - np.outer(c_sum, c_sum) / n + corrections, x_mean,
        sums[:p, p] - c_sum * (y_sum / n), moments.center_y + y_sum / n, n)
    mu_new, sig_new = [], []
    for k in layout.clients():
        sl = layout.block_slice(k)
        mu_new.append(x_mean[sl])
        sig_new.append(repaired_block((scatter[sl, sl] + corrections[sl, sl]) / n))
    sigma2_new = (gram.resid_sumsq + gram.v4_sum) / n
    return ModelParameters._from_checked_blocks(
        beta=beta_new, mu=tuple(mu_new), sigma_blocks=tuple(sig_new),
        sigma2=sigma2_new)


def observed_loglik(theta: ModelParameters, data: VerticalDataset) -> float:
    """Exact observed-data log-likelihood.

    Because blocks are independent across clients, (x_obs, y) is jointly
    Gaussian with y | x_obs ~ N(x_obs' beta_obs + mu_mis' beta_mis, d); the
    marginal integrates out the missing blocks in closed form.
    """
    layout, mask = data.layout, data.mask
    total = 0.0
    log2pi = np.log(2.0 * np.pi)
    for missing, rows in mask.patterns():
        observed = sorted(set(layout.clients()) - set(missing))
        d_g = theta.sigma2 + sum(
            float(theta.beta_block(layout, k)
                  @ theta.sigma_blocks[k - 1] @ theta.beta_block(layout, k))
            for k in missing)
        mean_y = sum(float(theta.mu[k - 1] @ theta.beta_block(layout, k))
                     for k in missing) * np.ones(rows.size)
        for k in observed:
            x_k = data.view(k).x[rows]
            mean_y += x_k @ theta.beta_block(layout, k)
            centered = x_k - theta.mu[k - 1]
            sign, logdet = np.linalg.slogdet(theta.sigma_blocks[k - 1])
            if sign <= 0:
                raise SingularCovariance("covariance block has no valid log-determinant")
            sol = np.linalg.solve(theta.sigma_blocks[k - 1], centered.T)
            quad = np.sum(centered.T * sol, axis=0)
            total += float(np.sum(-0.5 * (layout.dim(k) * log2pi + logdet + quad)))
        resid_y = data.y[rows] - mean_y
        total += float(np.sum(-0.5 * (log2pi + np.log(d_g) + resid_y ** 2 / d_g)))
    return total
