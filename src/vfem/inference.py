"""Standard errors for the converged fit.

Pipeline: build the per-pattern moments once (O(n p^2)) and, at the
estimate, the E-step's pattern Gram (`centralized.pattern_gram`), which
holds the Gram of the rows [X~ - 1 mu', e, 1 per client]; read the
cross-product statistics off that Gram exactly, or estimate them by averaged
CountSketches of those rows, built pattern by pattern from the Gram's affine
maps (clients only ever ship m x (p_k + 1) projections, each O(n p_k), so L
replicates cost O(L n p)); assemble the conditional expectation of the
complete-data information matrix from them; estimate the EM map's rate
matrix by forward differences (d + 1 maps on the same moments, O(G (p+2)^3)
each for G missingness patterns); and combine them into

    V = I_oc^{-1} (I - Gamma)^{-1},

whose beta block yields Wald standard errors, z scores, and p-values.

I_oc is stored per sample (the full-data information divided by n), so the
standard error of a coefficient is sqrt(V_jj / n). Two sketching choices are
exposed: clients and the server may share one sketch per replicate (derived
from a broadcast seed; cross-client blocks and the residual product are then
unbiased) or draw private ones (cross-client blocks and the residual product
shrink toward zero), and within-client blocks may be computed exactly instead
of sketched ("hybrid", the default) since they never leave their owner.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field, fields
from typing import Optional

import numpy as np

from .centralized import (PatternGram, PatternMoments, centred_rows, em_map,
                          pattern_gram, pattern_moments)
from .centralized import estep  # noqa: F401  perfbench/tracing.py wraps this name
from .data import BlockLayout, ModelParameters, VerticalDataset, repair_psd
from .errors import ConfigError, NotAFixedPoint, SingularSystem

_EIG_FLOOR = 1e-10
# default replicate sizing of SketchConfig.resolve
_SKETCH_DELTA = 100.0
_LM_CAP = 4096
# forward-difference step of the rate matrix, relative to 1 + |theta_i|
_FD_STEP = 1e-4
# largest move of the EM map at a point accepted as its fixed point
_FIXED_POINT_TOL = 1e-6


# -- parameter vectorization -------------------------------------------------

class ThetaVectorizer:
    """Flatten parameters to a d-vector and back.

    In 'beta' scope the coordinates are the coefficients alone, and
    `from_vector` pins every other parameter at its template's value. In
    'full' scope they add the means, each covariance block's lower triangle
    vech(Sigma_k) (one coordinate per distinct entry; perturbing an
    off-diagonal coordinate moves the two mirrored entries together, since
    duplicate coordinates would make the rate-matrix system singular) and
    the noise variance. `duplication[k]` is the duplication matrix D_k with
    vec(Sigma_k) = D_k vech(Sigma_k).
    """

    def __init__(self, layout: BlockLayout, scope: str = "full",
                 beta_names: Optional[list[str]] = None):
        if scope not in ("beta", "full"):
            raise ConfigError("scope must be 'beta' or 'full'")
        self.layout = layout
        self.scope = scope
        p = layout.total_dim
        if beta_names is None:
            beta_names = [f"x{k}_{j + 1}" for k in layout.clients()
                          for j in range(layout.dim(k))]
        if len(beta_names) != p:
            raise ConfigError("need one name per coefficient")
        self.beta_names = list(beta_names)
        self.beta_slice = slice(0, p)
        if scope == "full":
            self.mu_slices, self.vech_slices = {}, {}
            self._tril, self.duplication = {}, {}
            off = p
            for k in layout.clients():
                pk = layout.dim(k)
                self.mu_slices[k] = slice(off, off + pk)
                off += pk
            for k in layout.clients():
                pk = layout.dim(k)
                rows, cols = np.tril_indices(pk)
                coord = np.arange(rows.size)
                dup = np.zeros((pk * pk, rows.size))
                dup[rows * pk + cols, coord] = dup[cols * pk + rows, coord] = 1.0
                self._tril[k], self.duplication[k] = (rows, cols), dup
                self.vech_slices[k] = slice(off, off + rows.size)
                off += rows.size
            self.sigma2_index = off
            self.dim = off + 1
        else:
            self.dim = p

    def to_vector(self, theta: ModelParameters) -> np.ndarray:
        if self.scope == "beta":
            return theta.beta.copy()
        parts = [theta.beta] + [theta.mu[k - 1] for k in self.layout.clients()]
        for k in self.layout.clients():
            rows, cols = self._tril[k]
            parts.append(theta.sigma_blocks[k - 1][rows, cols])
        parts.append(np.array([theta.sigma2]))
        return np.concatenate(parts)

    def from_vector(self, vec: np.ndarray,
                    template: ModelParameters) -> ModelParameters:
        vec = np.asarray(vec, dtype=float)
        if self.scope == "beta":
            return template.replace(beta=vec)
        clients = self.layout.clients()
        return ModelParameters(
            beta=vec[self.beta_slice],
            mu=tuple(vec[self.mu_slices[k]] for k in clients),
            sigma_blocks=tuple(
                (self.duplication[k] @ vec[self.vech_slices[k]]).reshape(
                    self.layout.dim(k), self.layout.dim(k))
                for k in clients),
            sigma2=float(vec[self.sigma2_index]))


# -- sketched statistics -----------------------------------------------------

@dataclass
class SketchConfig:
    """Sketch sizing and mode.

    `m` defaults to K * ceil(log n). The replicate count targets
    L*m >= 8 K^2 n log(n) / 100, capped at 4096 for desk scale.
    """

    m: Optional[int] = None
    replicates: Optional[int] = None
    seed: int = 0
    shared: bool = True              # one sketch per replicate via seed broadcast
    exact_within_block: bool = True  # hybrid: local products computed exactly

    def __post_init__(self):
        for name in ("m", "replicates"):
            value = getattr(self, name)
            # a bool is an int to Python, but no count
            if value is not None and (
                    isinstance(value, bool)
                    or not isinstance(value, numbers.Integral) or value < 1):
                raise ConfigError(f"{name} must be an integer of at least 1, "
                                  f"got {value!r}")

    def resolve(self, n: int, num_clients: int) -> tuple[int, int]:
        m = self.m if self.m is not None else num_clients * math.ceil(math.log(n))
        m = max(1, int(m))
        if self.replicates is not None:
            return m, int(self.replicates)
        target = 8.0 * num_clients ** 2 * n * math.log(n) / _SKETCH_DELTA
        lm = min(target, float(_LM_CAP))
        return m, max(1, math.ceil(lm / m))


@dataclass
class SketchedStatistics:
    """Cross-product summaries of the pseudo-complete design.

    xx ~ X~'X~, centered_xx ~ Xc'Xc with Xc = X~ - 1 mu', xe ~ X~'e,
    xsum ~ X~'1, centered_xsum ~ Xc'1: all blocks of the Gram of the rows
    [Xc, e, 1 per client], lifted by the means for the uncentred ones.
    """

    xx: np.ndarray
    centered_xx: np.ndarray
    xe: np.ndarray
    xsum: np.ndarray
    centered_xsum: np.ndarray
    sketch_dim: int = 0              # no sketch dimension or replicates: exact
    replicates: int = 0
    shared: bool = True
    exact_within_block: bool = True


def _gram_statistics(gram: np.ndarray, mu_blocks: list[np.ndarray],
                     **meta) -> SketchedStatistics:
    """All five statistics from the Gram of the rows [X~ - 1 mu', e, 1 per
    client]. The centred products are its blocks; the uncentred ones lift
    each centred row j by mu_j times its client's ones row, which adds the
    mean terms back instead of cancelling them."""
    mu = np.concatenate(mu_blocks)
    p = mu.size
    cols = np.arange(p)
    ones = p + 1 + np.repeat(np.arange(len(mu_blocks)),
                             [mu_k.size for mu_k in mu_blocks])
    lift = np.eye(gram.shape[0])
    lift[cols, ones] = mu
    full = lift @ gram @ lift.T
    full = 0.5 * (full + full.T)
    return SketchedStatistics(
        xx=full[:p, :p], centered_xx=gram[:p, :p], xe=full[:p, p],
        xsum=full[cols, ones], centered_xsum=gram[cols, ones], **meta)


def _exact_gram(gram: PatternGram, mu_blocks: list[np.ndarray]) -> np.ndarray:
    """The Gram of the rows [X~ - 1 mu', e, 1 per client], read off the
    pattern Gram (rows [X~ - 1 mu', y - c_y, e, 1], symmetric to rounding)."""
    p = gram.sums.shape[0] - 3
    idx = np.r_[np.arange(p), p + 1, np.full(len(mu_blocks), p + 2)]
    exact = gram.sums[np.ix_(idx, idx)]
    return 0.5 * (exact + exact.T)


def exact_statistics(gram: PatternGram,
                     mu_blocks: list[np.ndarray]) -> SketchedStatistics:
    """The statistics from the unsketched Gram (S = I; oracle path)."""
    return _gram_statistics(_exact_gram(gram, mu_blocks), mu_blocks)


def _count_sketch(seed: np.random.SeedSequence, n: int, m: int):
    """Draw one CountSketch S (m x n): sample i goes to bucket h(i) with sign
    s(i). Returns (h, s)."""
    rng = np.random.default_rng(seed)
    h = rng.integers(m, size=n)
    s = rng.integers(2, size=n) * 2.0 - 1.0
    return h, s


def sketch_statistics(gram: PatternGram, mu_blocks: list[np.ndarray],
                      data: VerticalDataset,
                      cfg: SketchConfig) -> SketchedStatistics:
    """Replicate-averaged CountSketches of the design cross-products.

    Per replicate each client projects its rows of the Gram (X_k - 1 mu_k'
    and its ones row) with a CountSketch S (E[S'S] = I) and ships the
    m x (p_k + 1) projection; the server projects e. A projection is a
    signed bucket sum, O(n p_k), so the statistics cost O(L n p) with no
    (m, n) matrix, and the average Gram of the projections estimates the
    Gram of the rows, each built as W_g z_i from its pattern's map. In
    shared mode all clients and the server derive the same S from the
    broadcast seed: cross-client blocks and the residual product
    (S X~)'(S e) are unbiased. In private mode each client draws its own S
    and the server sketches e with an independent one, so cross-client
    blocks and xe shrink toward zero, their expectation under independent
    sketches. Hybrid mode takes each client's own diagonal block (its
    covariates and ones row) exactly from the pattern Gram.
    """
    layout, n = data.layout, data.n
    K, p = layout.num_clients, layout.total_dim
    m, L = cfg.resolve(n, K)
    z = centred_rows(data)[0]
    rows = np.empty((p + 1, n))         # [X~ - 1 mu', e]; ones rows implicit
    data_rows = np.r_[np.arange(p), p + 1]
    for w, (_, members) in zip(gram.maps, data.mask.patterns()):
        rows[:, members] = w[data_rows] @ z[members].T
    # the sketch of each row: its client's, and the server's (K) for e
    owner = np.concatenate([np.repeat(np.arange(K), layout.client_dims),
                            [K], np.arange(K)])
    sketch_of = np.zeros_like(owner) if cfg.shared else owner
    ones_sketches = set(sketch_of[p + 1:].tolist())
    sketched = np.zeros((owner.size, owner.size))
    for child in np.random.SeedSequence(cfg.seed).spawn(L):
        draws = [child] if cfg.shared else child.spawn(K + 1)
        h, s = zip(*(_count_sketch(sub, n, m) for sub in draws))
        # a ones row projects to its sketch's signed bucket counts, so the
        # K identical ones rows of shared mode are one projection
        ones = {g: np.bincount(h[g], weights=s[g], minlength=m)
                for g in ones_sketches}
        proj = np.stack([np.bincount(h[g], weights=s[g] * row, minlength=m)
                         for g, row in zip(sketch_of[:p + 1], rows)]
                        + [ones[g] for g in sketch_of[p + 1:]])
        sketched += proj @ proj.T
    sketched /= L
    if cfg.exact_within_block:
        exact = _exact_gram(gram, mu_blocks)
        for k in range(K):
            own = np.ix_(owner == k, owner == k)
            sketched[own] = exact[own]
    return _gram_statistics(sketched, mu_blocks, sketch_dim=m, replicates=L,
                            shared=cfg.shared,
                            exact_within_block=cfg.exact_within_block)


# -- information matrix ------------------------------------------------------

def assemble_information(stats: SketchedStatistics, theta: ModelParameters,
                         corrections: np.ndarray, resid_sumsq: float, n: int,
                         vectorizer: ThetaVectorizer) -> tuple[np.ndarray, bool]:
    """Per-sample information matrix at `theta` from summary statistics.

    The coefficient block is (X~'X~ + C) / (n sigma2), C the summed embedded
    conditional covariances. In 'full' scope the other blocks follow from
    differentiating the expected complete-data objective twice. For client
    k, with A = Sigma_k^{-1}, S = Xc_k'Xc_k + C_kk (centred at mu_k),
    B = A S A, t the centred column sum and D_k the vectorizer's duplication
    matrix, they are in closed form:

        mu-mu     A
        mu-vech   (v' kron A) D_k,                     v = A t / n
        vech-vech D_k' (A kron B / n - A kron A / 2) D_k

    (validated against finite differences in the test suite). Indefinite
    results from sketch noise are clamped, with the repair flagged.
    """
    layout = vectorizer.layout
    beta, sigma2 = theta.beta, theta.sigma2
    c_mat = corrections
    d, p = vectorizer.dim, layout.total_dim
    bsl = vectorizer.beta_slice
    info = np.zeros((d, d))
    info[bsl, bsl] = (stats.xx + c_mat) / (n * sigma2)
    if d > p:
        s2 = vectorizer.sigma2_index
        cross = (stats.xe - c_mat @ beta) / (n * sigma2 ** 2)
        info[bsl, s2] = cross
        info[s2, bsl] = cross
        expected_rss = resid_sumsq + float(beta @ c_mat @ beta)
        info[s2, s2] = -0.5 / sigma2 ** 2 + expected_rss / (n * sigma2 ** 3)
        for k in layout.clients():
            sl = layout.block_slice(k)
            musl, vsl = vectorizer.mu_slices[k], vectorizer.vech_slices[k]
            dup = vectorizer.duplication[k]
            a = np.linalg.inv(theta.sigma_blocks[k - 1])
            b = a @ (stats.centered_xx[sl, sl] + c_mat[sl, sl]) @ a
            v = a @ stats.centered_xsum[sl] / n
            info[musl, musl] = a
            info[musl, vsl] = np.kron(v, a) @ dup
            info[vsl, musl] = info[musl, vsl].T
            info[vsl, vsl] = dup.T @ (np.kron(a, b) / n - 0.5 * np.kron(a, a)) @ dup
    info = 0.5 * (info + info.T)

    vals, vecs = np.linalg.eigh(info)
    repaired = bool(vals.min() < _EIG_FLOOR)
    if repaired:
        vals = np.maximum(vals, _EIG_FLOOR)
        info = (vecs * vals) @ vecs.T
    return info, repaired


# -- EM-map rate matrix ------------------------------------------------------

def sem_jacobian(theta_hat: ModelParameters, moments: PatternMoments,
                 vectorizer: ThetaVectorizer) -> np.ndarray:
    """Forward-difference Jacobian of the EM map at its fixed point.

    Entry (i, j) is (F_j(theta + h_i e_i) - F_j(theta)) / h_i with the
    per-coordinate step h_i = 1e-4 (1 + |theta_i|). A point the map moves
    by more than 1e-6 is not a fixed point and raises. The map is
    `em_map(theta, moments)` on the data's per-pattern moments, built once
    by the caller, read in the vectorizer's coordinates: in 'beta' scope the
    perturbed point pins the nuisance parameters at their estimates and
    only the mapped coefficients are kept. Each of the d + 1 maps costs
    O(G (p+2)^3) for G patterns.
    """
    v0 = vectorizer.to_vector(theta_hat)
    f0 = vectorizer.to_vector(em_map(theta_hat, moments))
    drift = np.abs(f0 - v0).max()
    if drift > _FIXED_POINT_TOL:
        raise NotAFixedPoint(
            f"EM map moves the point by {drift:.3e} (> {_FIXED_POINT_TOL:g}); "
            f"tighten the fit tolerance before requesting standard errors")

    d = vectorizer.dim
    gamma = np.zeros((d, d))
    for i in range(d):
        h_i = _FD_STEP * (1.0 + abs(float(v0[i])))
        pert = v0.copy()
        pert[i] += h_i
        theta_i = vectorizer.from_vector(pert, theta_hat)
        f_i = vectorizer.to_vector(em_map(theta_i, moments))
        gamma[i, :] = (f_i - f0) / h_i
    return gamma


# -- covariance and report ---------------------------------------------------

@dataclass
class InferenceReport:
    names: list[str]
    estimates: np.ndarray
    std_errors: np.ndarray
    z_scores: np.ndarray
    p_values: np.ndarray
    significant: np.ndarray          # bool, 5% two-sided
    cov_beta: np.ndarray             # asymptotic covariance of sqrt(n) beta_hat
    n: int
    gamma_spectral_radius: float
    ioc_repaired: bool
    v_repaired: bool
    scope: str
    stats_mode: str
    sketch_dim: int = 0
    sketch_replicates: int = 0
    sketch_shared: bool = True
    sketch_exact_within: bool = True

    def rows(self) -> list[tuple]:
        return [(nm, float(b), float(se), float(z), float(p), "*" if s else "")
                for nm, b, se, z, p, s in zip(
                    self.names, self.estimates, self.std_errors,
                    self.z_scores, self.p_values, self.significant)]

    def to_csv_text(self) -> str:
        lines = ["name,estimate,std_error,z,p_value,significant"]
        for nm, b, se, z, p, star in self.rows():
            lines.append(f"{nm},{b!r},{se!r},{z!r},{p!r},{star}")
        return "\n".join(lines) + "\n"

    def to_pretty_text(self) -> str:
        width = max(len(nm) for nm in self.names)
        head = (f"{'coefficient':<{width}}  {'estimate':>12}  {'std.err':>12}  "
                f"{'z':>9}  {'p':>10}")
        out = [head, "-" * len(head)]
        for nm, b, se, z, p, star in self.rows():
            out.append(f"{nm:<{width}}  {b:>12.6f}  {se:>12.6f}  "
                       f"{z:>9.3f}  {p:>10.3e} {star}")
        out.append("-" * len(head))
        out.append(f"rate-matrix spectral radius: {self.gamma_spectral_radius:.6f}")
        out.append(f"information repaired: {self.ioc_repaired}; "
                   f"covariance repaired: {self.v_repaired}")
        return "\n".join(out) + "\n"

    def to_json_dict(self) -> dict:
        out = {f.name: getattr(self, f.name) for f in fields(self)}
        return {k: v.tolist() if isinstance(v, np.ndarray) else v
                for k, v in out.items()}

    @classmethod
    def from_json_dict(cls, obj: dict) -> "InferenceReport":
        kw = {f.name: obj[f.name] for f in fields(cls)}
        for name in ("estimates", "std_errors", "z_scores", "p_values", "cov_beta"):
            kw[name] = np.asarray(kw[name], dtype=float)
        kw["significant"] = np.asarray(kw["significant"], dtype=bool)
        return cls(**kw)


def two_sided_p(z: np.ndarray) -> np.ndarray:
    """Two-sided normal p-values, 2 (1 - Phi(|z|)) = erfc(|z| / sqrt 2)."""
    return np.array([math.erfc(abs(v) / math.sqrt(2.0)) for v in z])


def asymptotic_covariance(info: np.ndarray, gamma: np.ndarray,
                          theta: ModelParameters, n: int,
                          vectorizer: ThetaVectorizer,
                          stats: SketchedStatistics,
                          ioc_repaired: bool = False) -> InferenceReport:
    """V = info^{-1} (I - Gamma)^{-1}; Wald table for the coefficients."""
    d = info.shape[0]
    eigvals = np.linalg.eigvals(gamma)
    rho = float(np.abs(eigvals).max())
    system = (np.eye(d) - gamma) @ info
    cond = np.linalg.cond(system)
    if not np.isfinite(cond) or cond > 1e14:
        raise SingularSystem(
            f"(I - Gamma) info has condition number {cond:.3e}; "
            f"rate-matrix spectral radius {rho:.4f}")
    v = np.linalg.inv(system)

    bsl = vectorizer.beta_slice
    v_beta = v[bsl, bsl]
    v_beta = 0.5 * (v_beta + v_beta.T)
    vals = np.linalg.eigvalsh(v_beta)
    floor = max(_EIG_FLOOR * max(1.0, float(np.abs(vals).max())), 1e-300)
    v_repaired = bool(vals.min() < 0.0)
    if v_repaired:
        v_beta = repair_psd(v_beta, floor=floor)

    se = np.sqrt(np.diag(v_beta) / n)
    if not np.all(np.isfinite(se)) or np.any(se <= 0):
        raise SingularSystem("covariance produced non-positive standard errors")
    est = theta.beta
    z = est / se
    p_vals = two_sided_p(z)
    return InferenceReport(
        names=vectorizer.beta_names, estimates=est.copy(), std_errors=se,
        z_scores=z, p_values=p_vals, significant=p_vals < 0.05,
        cov_beta=v_beta, n=n, gamma_spectral_radius=rho,
        ioc_repaired=ioc_repaired, v_repaired=v_repaired,
        scope=vectorizer.scope,
        stats_mode="sketch" if stats.replicates else "exact",
        sketch_dim=stats.sketch_dim, sketch_replicates=stats.replicates,
        sketch_shared=stats.shared, sketch_exact_within=stats.exact_within_block)


@dataclass
class InferenceConfig:
    scope: str = "beta"              # 'beta': beta alone, the rest pinned
    stats_mode: str = "sketch"       # 'sketch' or 'exact'
    sketch: SketchConfig = field(default_factory=SketchConfig)
    beta_names: Optional[list[str]] = None

    def __post_init__(self):
        if self.scope not in ("beta", "full"):
            raise ConfigError("scope must be 'beta' or 'full'")
        if self.stats_mode not in ("sketch", "exact"):
            raise ConfigError("stats_mode must be 'sketch' or 'exact'")


def run_inference(theta: ModelParameters, data: VerticalDataset,
                  cfg: Optional[InferenceConfig] = None) -> InferenceReport:
    """Full pipeline from a converged parameter estimate to a Wald table."""
    cfg = cfg or InferenceConfig()
    vec = ThetaVectorizer(data.layout, scope=cfg.scope, beta_names=cfg.beta_names)
    moments = pattern_moments(data)
    gram = pattern_gram(theta, moments)
    if cfg.stats_mode == "exact":
        stats = exact_statistics(gram, theta.mu)
    else:
        stats = sketch_statistics(gram, theta.mu, data, cfg.sketch)
    info, repaired = assemble_information(stats, theta, gram.corrections,
                                          gram.resid_sumsq, data.n, vec)
    gamma = sem_jacobian(theta, moments, vec)
    return asymptotic_covariance(info, gamma, theta, data.n, vec, stats,
                                 ioc_repaired=repaired)
