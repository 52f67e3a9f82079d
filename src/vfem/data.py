"""Domain types: column layout, block-missing masks, client views, parameters.

Clients are indexed 1..K throughout the public API; the first client holds
the response vector and doubles as the coordinator. A sample is either fully
observed or fully missing within a client's column block, and masked entries
are stored as NaN so that any accidental read poisons the result.

The kernels index samples per client (`MissingMask.observed_rows`,
`missing_rows`) and per missingness pattern (`MissingMask.patterns()`, the
rows grouped by the set of clients they miss), never one sample at a time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import DegenerateVariance


@dataclass(frozen=True)
class BlockLayout:
    """Column partition of the p covariates across K clients."""

    client_dims: tuple[int, ...]

    def __post_init__(self):
        dims = tuple(int(d) for d in self.client_dims)
        if len(dims) < 1:
            raise ValueError("need at least one client")
        if any(d < 1 for d in dims):
            raise ValueError("every client must hold at least one column")
        object.__setattr__(self, "client_dims", dims)

    @property
    def num_clients(self) -> int:
        return len(self.client_dims)

    @property
    def total_dim(self) -> int:
        return sum(self.client_dims)

    @property
    def server_client(self) -> int:
        # the response lives with the first client
        return 1

    @property
    def offsets(self) -> tuple[int, ...]:
        out, acc = [], 0
        for d in self.client_dims:
            out.append(acc)
            acc += d
        return tuple(out)

    def dim(self, k: int) -> int:
        return self.client_dims[k - 1]

    def block_slice(self, k: int) -> slice:
        off = self.offsets[k - 1]
        return slice(off, off + self.client_dims[k - 1])

    def block_columns(self, k: int) -> np.ndarray:
        s = self.block_slice(k)
        return np.arange(s.start, s.stop)

    def clients(self) -> range:
        return range(1, self.num_clients + 1)

    def stack_columns(self, client_ids: Sequence[int]) -> np.ndarray:
        """Column indices of the given clients' blocks, in client order."""
        if len(client_ids) == 0:
            return np.empty(0, dtype=int)
        return np.concatenate([self.block_columns(k) for k in client_ids])


class MissingMask:
    """Per-sample, per-client block-missingness indicators (True = missing)."""

    def __init__(self, indicators: np.ndarray):
        m = np.asarray(indicators, dtype=bool)
        if m.ndim != 2:
            raise ValueError("mask must be (n, K)")
        m = m.copy()
        m.setflags(write=False)
        self.indicators = m
        self._patterns: Optional[tuple] = None

    @property
    def n(self) -> int:
        return self.indicators.shape[0]

    @property
    def num_clients(self) -> int:
        return self.indicators.shape[1]

    def missing_rows(self, k: int) -> np.ndarray:
        return np.flatnonzero(self.indicators[:, k - 1])

    def observed_rows(self, k: int) -> np.ndarray:
        return np.flatnonzero(~self.indicators[:, k - 1])

    def complete_rows(self) -> np.ndarray:
        return np.flatnonzero(~self.indicators.any(axis=1))

    def rate(self, k: int) -> float:
        return float(self.indicators[:, k - 1].mean())

    def patterns(self) -> list[tuple[tuple[int, ...], np.ndarray]]:
        """Group samples by their missing-client set.

        Returns (missing_ids, rows) pairs in a canonical (sorted) order; the
        empty pattern (fully observed rows) is included when present. The
        indicators are read-only, so the grouping is computed once per mask
        and its row arrays are read-only too.
        """
        if self._patterns is None:
            weights = 1 << np.arange(self.num_clients)
            codes = self.indicators @ weights
            out = []
            for code in np.unique(codes):
                rows = np.flatnonzero(codes == code)
                rows.setflags(write=False)
                key = tuple(int(k) + 1 for k in np.flatnonzero(self.indicators[rows[0]]))
                out.append((key, rows))
            out.sort(key=lambda kr: kr[0])
            self._patterns = tuple(out)
        return list(self._patterns)


@dataclass(frozen=True)
class ClientView:
    """One client's slice of the data.

    `x` is (n, p_k) with NaN on masked rows; the first client additionally
    holds the fully observed response.
    """

    client_index: int
    x: np.ndarray
    observed: np.ndarray  # bool (n,)
    y: Optional[np.ndarray] = None

    def __post_init__(self):
        x = np.array(self.x, dtype=float)
        obs = np.asarray(self.observed, dtype=bool)
        if x.ndim != 2 or obs.shape != (x.shape[0],):
            raise ValueError("x must be (n, p_k) and observed (n,)")
        x[~obs] = np.nan  # sentinel-poison masked blocks
        if not np.all(np.isfinite(x[obs])):
            raise ValueError("observed rows must be finite")
        x.setflags(write=False)
        object.__setattr__(self, "x", x)
        obs = obs.copy()
        obs.setflags(write=False)
        object.__setattr__(self, "observed", obs)
        if self.y is not None:
            y = np.array(self.y, dtype=float)
            if y.shape != (x.shape[0],) or not np.all(np.isfinite(y)):
                raise ValueError("response must be finite with one entry per sample")
            y.setflags(write=False)
            object.__setattr__(self, "y", y)

    @property
    def n(self) -> int:
        return self.x.shape[0]

    @property
    def dim(self) -> int:
        return self.x.shape[1]


@dataclass(frozen=True)
class VerticalDataset:
    """Vertically partitioned dataset: aligned samples, disjoint columns."""

    layout: BlockLayout
    mask: MissingMask
    clients: tuple[ClientView, ...]

    def __post_init__(self):
        if len(self.clients) != self.layout.num_clients:
            raise ValueError("one view per client required")
        n = self.clients[0].n
        for k, view in zip(self.layout.clients(), self.clients):
            if view.client_index != k:
                raise ValueError("client views out of order")
            if view.n != n:
                raise ValueError("clients must hold the same samples")
            if view.dim != self.layout.dim(k):
                raise ValueError(f"client {k} dimension mismatch")
            if not np.array_equal(~view.observed, self.mask.indicators[:, k - 1]):
                raise ValueError(f"client {k} observed rows disagree with mask")
        if self.clients[0].y is None:
            raise ValueError("first client must hold the response")

    @property
    def n(self) -> int:
        return self.clients[0].n

    @property
    def y(self) -> np.ndarray:
        return self.clients[0].y

    def view(self, k: int) -> ClientView:
        return self.clients[k - 1]

    def full_design(self) -> np.ndarray:
        """Pooled (n, p) design; only defined when nothing is missing."""
        if self.mask.indicators.any():
            raise ValueError("full design undefined under missingness")
        return np.concatenate([v.x for v in self.clients], axis=1)

    def subset(self, rows: np.ndarray) -> "VerticalDataset":
        rows = np.asarray(rows)
        mask = MissingMask(self.mask.indicators[rows])
        views = tuple(
            ClientView(
                client_index=v.client_index,
                x=np.nan_to_num(v.x[rows], nan=0.0),
                observed=v.observed[rows],
                y=None if v.y is None else v.y[rows],
            )
            for v in self.clients
        )
        return VerticalDataset(self.layout, mask, views)


def make_dataset(layout: BlockLayout, x_blocks: Sequence[np.ndarray],
                 y: np.ndarray, mask_indicators: np.ndarray) -> VerticalDataset:
    """Assemble a dataset from per-client blocks, a response, and a mask."""
    mask = MissingMask(mask_indicators)
    views = []
    for k in layout.clients():
        obs = ~mask.indicators[:, k - 1]
        block = np.array(x_blocks[k - 1], dtype=float)
        if block.shape[0] != mask.n:
            raise ValueError(f"client {k} block has {block.shape[0]} rows, "
                             f"expected {mask.n}")
        block[~obs] = 0.0  # value irrelevant; ClientView re-poisons with NaN
        views.append(ClientView(
            client_index=k, x=block, observed=obs,
            y=np.asarray(y, dtype=float) if k == 1 else None,
        ))
    return VerticalDataset(layout, mask, tuple(views))


_SYM_TOL = 1e-12
_EIG_TOL = -1e-10


def _repair_psd(mat: np.ndarray, floor: float) -> tuple[np.ndarray, bool]:
    """`repair_psd(mat, floor)`, and whether that is `mat`'s symmetric part
    as it was: exactly symmetric, with every eigenvalue at least `floor`."""
    sym = 0.5 * (mat + mat.T)
    vals, vecs = np.linalg.eigh(sym)
    if vals.min() >= floor:
        return sym, True
    vals = np.maximum(vals, floor)
    return (vecs * vals) @ vecs.T, False


def repair_psd(mat: np.ndarray, floor: float = 1e-10) -> np.ndarray:
    """Symmetrize and clamp eigenvalues below `floor` up to `floor`."""
    return _repair_psd(mat, floor)[0]


def _read_only(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


def _checked_block(s) -> np.ndarray:
    """A covariance block as `ModelParameters` stores it: a read-only
    symmetric copy, with eigenvalues down to -1e-10 clamped to 0."""
    s = np.array(s, dtype=float)
    if s.ndim != 2 or s.shape[0] != s.shape[1]:
        raise ValueError("covariance blocks must be square")
    asym = np.abs(s - s.T).max() if s.size else 0.0
    if asym > _SYM_TOL * max(1.0, np.abs(s).max()):
        raise ValueError(f"covariance block not symmetric (dev {asym:.2e})")
    s = 0.5 * (s + s.T)
    vals = np.linalg.eigvalsh(s)
    if s.size and vals.min() < _EIG_TOL:
        raise ValueError(f"covariance block indefinite (min eig {vals.min():.2e})")
    if s.size and vals.min() < 0.0:
        s = repair_psd(s, floor=0.0)
    return _read_only(s)


def repaired_block(mat: np.ndarray) -> np.ndarray:
    """`repair_psd(mat)` as `ModelParameters` stores it. A block the repair
    left as it was is exactly symmetric with no eigenvalue below the floor,
    so it skips the second eigenvalue check; one it clamped is checked."""
    out, kept = _repair_psd(mat, 1e-10)
    return _read_only(out) if kept else _checked_block(out)


@dataclass(frozen=True)
class ModelParameters:
    """Full parameter collection: coefficients, client means/covariances, noise."""

    beta: np.ndarray
    mu: tuple[np.ndarray, ...]
    sigma_blocks: tuple[np.ndarray, ...]
    sigma2: float

    def __post_init__(self):
        self._store(check_blocks=True)

    def _store(self, check_blocks: bool) -> None:
        """Freeze copies of beta and mu, check sigma2 and, if asked, put
        the covariance blocks in `_checked_block`'s form."""
        object.__setattr__(self, "beta", _read_only(np.array(self.beta, dtype=float)))
        object.__setattr__(self, "mu", tuple(_read_only(np.array(m, dtype=float))
                                             for m in self.mu))
        object.__setattr__(self, "sigma_blocks", tuple(
            _checked_block(s) if check_blocks else s for s in self.sigma_blocks))
        if not np.isfinite(self.sigma2) or self.sigma2 <= 0.0:
            raise DegenerateVariance(f"noise variance must be positive, got {self.sigma2}")
        object.__setattr__(self, "sigma2", float(self.sigma2))

    @classmethod
    def _from_checked_blocks(cls, beta, mu, sigma_blocks, sigma2) -> "ModelParameters":
        """Parameters whose covariance blocks are already stored ones (from
        another `ModelParameters` or `repaired_block`); their check is not
        run again."""
        theta = object.__new__(cls)
        for name, value in (("beta", beta), ("mu", mu),
                            ("sigma_blocks", sigma_blocks), ("sigma2", sigma2)):
            object.__setattr__(theta, name, value)
        theta._store(check_blocks=False)
        return theta

    @property
    def num_clients(self) -> int:
        return len(self.mu)

    @property
    def total_dim(self) -> int:
        return self.beta.shape[0]

    def beta_block(self, layout: BlockLayout, k: int) -> np.ndarray:
        return self.beta[layout.block_slice(k)]

    def replace(self, **kwargs) -> "ModelParameters":
        data = {
            "beta": self.beta, "mu": self.mu,
            "sigma_blocks": self.sigma_blocks, "sigma2": self.sigma2,
        }
        data.update(kwargs)
        if "sigma_blocks" in kwargs:
            return ModelParameters(**data)
        return ModelParameters._from_checked_blocks(**data)
