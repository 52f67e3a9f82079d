"""Round-based client/server state machines for the federated fit.

One iteration is one statistics round trip per client. Each client uploads
its fit on the rows it observes, the scalar mu_k' beta_k that stands in for
that fit on the rows it misses, and the quadratic form
v1_k = beta_k' Sigma_k beta_k. The server forms the residuals r and one
denominator d_g = sigma2 + sum of v1 over the clients missing in pattern g.
The covariance is block-diagonal across clients, so everything after that
is a closed form in what each party already holds: on a row of pattern g
the pseudo-complete residual is e = sigma2 r / d_g (e = r on complete rows),
a missing client's imputed block is mu_k + a Sigma_k beta_k with
a = r / d_g, and the variance correction is sigma2 (d_g - sigma2) / d_g. A
client's coefficient step and its mean and covariance updates read its
observed rows' fixed centre and scatter, one product X_obs' e_obs and two
sums over its missing rows, of a and of a^2 - 1 / d_g. So the server sends
each client its own record: (sigma2, d), r on the rows that client observes
and those two sums, which the server takes over the rows it misses. No
client receives a per-sample value on a row it does not hold, and a client
update costs O(m_k p_k + p_k^2) per iteration. The server owns the
response, the noise variance and the loss.

All updates within an iteration use the iteration-start snapshot. The loss
depends only on r, d and sigma2, so the server judges an iteration before
it broadcasts, and its verdict rides on the broadcast; each client's reply
is its local fit for the next iteration, with the norm of the step it just
took. One iteration is thus one record down and one up per client, and a
client opens the fit unasked with its first local fit. Every fit's final
broadcast is marked `last`: a client answers it with its step alone and
takes no record after that. Client 1 hosts the coordinator, so its records
are handed over in process and only the other clients' cross the
transport; the agents and the coordinator do not tell the two apart. The
coordinator never stores covariate-dimensional raw data, only the
enumerated statistics; Sigma_k beta_k never leaves its client.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

import numpy as np

from .centralized import _D_FLOOR
from .data import BlockLayout, ClientView, MissingMask, repair_psd
from .errors import DegenerateVariance, ProtocolDesync
from .messages import (
    ESTEP_BROADCAST,
    ESTEP_LOCAL_FIT,
    SERVER_ID,
    VARSTEP_SCALAR,
    Message,
)


class _Snapshot(NamedTuple):
    beta: np.ndarray
    mu: np.ndarray
    sigma: np.ndarray


class ClientMoments(NamedTuple):
    """What one client update formed, for inspection: the column sum of its
    pseudo-complete block, that block's scatter about the iteration-start
    mean plus the summed conditional covariances (before the PSD repair),
    and the two sums over its missing rows it was sent."""
    colsum: np.ndarray
    scatter: np.ndarray
    sum_a: float
    sum_q: float


def _row_patterns(n: int, missing: tuple) -> np.ndarray:
    """Per sample, 1 + the index of its pattern among
    `MissingMask.missing_patterns()`, or 0 on a complete row."""
    out = np.zeros(n, dtype=np.intp)
    for g, (_key, rows) in enumerate(missing):
        out[rows] = g + 1
    return out


def _m_step_residuals(r: np.ndarray, sigma2: float, d: np.ndarray,
                      row_patterns: np.ndarray) -> np.ndarray:
    """y minus the pseudo-complete fit: sigma2 r / d_g on rows of pattern g,
    r itself on complete rows."""
    return r * np.concatenate(([1.0], sigma2 / d))[row_patterns]


class ClientAgent:
    """Holds one client's covariate block and its local parameter estimates."""

    def __init__(self, view: ClientView, layout: BlockLayout, mask: MissingMask,
                 eta: float):
        self.k = view.client_index
        self.n = view.n
        self.eta = float(eta)
        self.dim = view.dim

        self.obs_rows = mask.observed_rows(self.k)
        self.mis_rows = mask.missing_rows(self.k)
        self._x_obs = view.x[self.obs_rows]
        self._center = self._x_obs.sum(axis=0) / max(self.obs_rows.size, 1)
        centered = self._x_obs - self._center
        self._obs_scatter = centered.T @ centered

        missing = mask.missing_patterns()
        row_patterns = _row_patterns(self.n, missing)
        self._obs_patterns = row_patterns[self.obs_rows]
        self._mis_patterns = row_patterns[self.mis_rows] - 1

        self.beta: np.ndarray | None = None
        self.mu: np.ndarray | None = None
        self.sigma: np.ndarray | None = None

        # (sigma2, d, u) of the last E-step; before one, alpha reads 0
        self._last = (1.0, np.ones(len(missing)), np.zeros(self.dim))
        self.last_moments: Optional[ClientMoments] = None
        self._pre_update: Optional[_Snapshot] = None
        self._best: Optional[_Snapshot] = None

        self._t = 0
        self.done = False   # whether the fit has ended for this client

    def load_params(self, beta_k: np.ndarray, mu_k: np.ndarray,
                    sigma_k: np.ndarray) -> None:
        self.beta = np.array(beta_k, dtype=float)
        self.mu = np.array(mu_k, dtype=float)
        self.sigma = np.array(sigma_k, dtype=float)

    @property
    def last_alpha(self) -> np.ndarray:
        """The last E-step's u sigma2 / d_g on each missing row, for inspection."""
        sigma2, d, u = self._last
        return np.outer(sigma2 / d[self._mis_patterns], u)

    # -- message handling ---------------------------------------------------

    def open(self) -> Message:
        """This client's first record, sent unasked: its local fit at t = 0."""
        return self._local_fit()

    def handle_message(self, msg: Message) -> Message:
        """This client's one reply to a broadcast."""
        if (self.done or msg.kind != ESTEP_BROADCAST or msg.t != self._t
                or msg.to != self.k):
            raise ProtocolDesync(
                f"client {self.k} (t={self._t}, done={self.done}) expected "
                f"{ESTEP_BROADCAST!r}, "
                f"got kind={msg.kind!r} t={msg.t} to={msg.to}")
        return self._on_estep_broadcast(msg)

    def _local_fit(self, step: Optional[float] = None) -> Message:
        """The fit this client's parameters give at iteration `_t`; after the
        first iteration it carries the norm of the step that led there."""
        self._u = self.sigma @ self.beta
        pay = {"fit": self._x_obs @ self.beta,
               "mean": float(self.mu @ self.beta),
               "quad": float(self.beta @ self._u)}
        if step is not None:
            pay["step"] = step
        return Message(self._t, self.k, ESTEP_LOCAL_FIT, pay)

    def _on_estep_broadcast(self, msg: Message) -> Message:
        pay = msg.payload
        sigma2 = float(pay["sigma2"])
        d = np.asarray(pay["denom"], dtype=float)
        r_obs = np.asarray(pay["resid"], dtype=float)
        sum_a, sum_q = float(pay["sum_a"]), float(pay["sum_q"])
        beta_old, mu_old, sigma_old, u = self.beta, self.mu, self.sigma, self._u
        self._pre_update = _Snapshot(beta_old.copy(), mu_old.copy(), sigma_old.copy())
        if pay["best"]:
            self._best = self._pre_update
        self._last = (sigma2, d, u)

        # on a missing row x~ = mu + a u and e = sigma2 a, with a = r / d_g;
        # those rows enter only through sum a and sum (a^2 - 1 / d_g)
        e_obs = _m_step_residuals(r_obs, sigma2, d, self._obs_patterns)
        grad = (self._x_obs.T @ e_obs + sigma2 * (mu_old * sum_a + u * sum_q)) / self.n
        self.last_gradient = grad

        self.beta = beta_old + self.eta * grad
        step = float(np.linalg.norm(self.beta - beta_old))

        m_obs, m_mis = self.obs_rows.size, self.mis_rows.size
        delta = mu_old - self._center
        scatter = (self._obs_scatter + m_obs * np.outer(delta, delta)
                   + sum_q * np.outer(u, u) + m_mis * sigma_old)
        colsum = m_obs * self._center + m_mis * mu_old + u * sum_a
        self.mu = colsum / self.n
        self.sigma = repair_psd(scatter / self.n)
        self.last_moments = ClientMoments(colsum, scatter, sum_a, sum_q)

        if pay["restore"]:
            # the best iterate comes back, and the step halves
            snap = self._best or self._pre_update
            self.beta, self.mu, self.sigma = (a.copy() for a in snap)
            self.eta *= 0.5
        self._t += 1
        if pay["last"]:
            self.done = True
            return Message(self._t, self.k, VARSTEP_SCALAR, {"value": step})
        return self._local_fit(step)


class ServerCoordinator:
    """Owns the response vector, the noise variance, and round aggregation."""

    def __init__(self, y: np.ndarray, layout: BlockLayout, mask: MissingMask,
                 sigma2: float, transport):
        self.y = np.asarray(y, dtype=float)
        self.layout = layout
        self.sigma2 = float(sigma2)
        self.transport = transport
        self.t = 0

        self.n = self.y.shape[0]
        self._has_complete = mask.complete_rows().size > 0
        missing = mask.missing_patterns()
        self._keys = [key for key, _rows in missing]
        self._counts = np.array([rows.size for _key, rows in missing], dtype=float)
        self._row_patterns = _row_patterns(self.n, missing)
        self._rows = {k: (mask.observed_rows(k), mask.missing_rows(k))
                      for k in layout.clients()}
        self._mis_patterns = {k: self._row_patterns[missing] - 1
                              for k, (_observed, missing) in self._rows.items()}
        self.last_residuals: np.ndarray | None = None
        self._sigma2_pre: float = self.sigma2
        self.best_sigma2: float = self.sigma2
        self._fits: list[dict] = []   # the clients' local fits for iteration t

    def _send(self, k: int, kind: str, payload: dict) -> None:
        self.transport.send_to_client(
            k, Message(self.t, SERVER_ID, kind, payload, to=k))

    def _recv(self, k: int, kind: str) -> Message:
        msg = self.transport.recv_from_client(k)
        if msg.kind != kind or msg.t != self.t:
            raise ProtocolDesync(
                f"server expected {kind!r} t={self.t} from client {k}, "
                f"got {msg.kind!r} t={msg.t}")
        return msg

    def _collect_fits(self) -> None:
        self._fits = [self._recv(k, ESTEP_LOCAL_FIT).payload
                      for k in self.layout.clients()]

    def evaluate(self) -> float:
        """The loss at iteration t's start, from the clients' local fits: on
        the first iteration the records they opened the fit with, on later
        ones the replies to the last broadcast."""
        if self.t == 0:
            self._collect_fits()
        K = self.layout.num_clients
        sigma2 = self.sigma2

        # local fits and quadratic forms give the residuals and one
        # denominator per pattern
        fit_bar = np.zeros(self.n)
        v1 = np.zeros(K)
        for k, pay in zip(self.layout.clients(), self._fits):
            observed, missing = self._rows[k]
            fit_bar[observed] += np.asarray(pay["fit"], dtype=float)
            fit_bar[missing] += float(pay["mean"])
            v1[k - 1] = float(pay["quad"])
        d = np.array([sigma2 + sum(v1[k - 1] for k in key) for key in self._keys])
        lowest = d.min(initial=sigma2 if self._has_complete else np.inf)
        if lowest <= _D_FLOOR:
            raise DegenerateVariance(f"conditional denominator {lowest:.3e}")
        r = self.y - fit_bar

        # new noise variance and loss, from the same closed forms
        e = _m_step_residuals(r, sigma2, d, self._row_patterns)
        quad = d - sigma2
        self._r, self._d = r, d
        self.last_residuals = e
        self._sigma2_pre = sigma2
        loss = (float(e @ e) + float(self._counts @ (quad - quad * quad / d))) / self.n
        self.sigma2 = loss
        return loss

    def advance(self, best: bool = False, restore: bool = False,
                last: bool = False) -> list[float]:
        """Send each client (sigma2, d), r on its observed rows, its two sums
        over the rows it misses and the verdict on iteration t, then collect
        one reply per client: its local fit for t + 1, or on the `last`
        iteration its step alone. Returns the clients' step norms."""
        r, d, sigma2 = self._r, self._d, self._sigma2_pre
        verdict = {"best": bool(best), "restore": bool(restore), "last": bool(last)}
        for k in self.layout.clients():
            observed, missing = self._rows[k]
            d_mis = d[self._mis_patterns[k]]
            a = r[missing] / d_mis
            self._send(k, ESTEP_BROADCAST,
                       {"sigma2": sigma2, "denom": d, "resid": r[observed],
                        "sum_a": float(a.sum()),
                        "sum_q": float(a @ a - (1.0 / d_mis).sum()), **verdict})
        if best:
            self.best_sigma2 = sigma2
        if restore:
            self.sigma2 = self.best_sigma2
        # a reply to the broadcast of iteration t is stamped t + 1
        self.t += 1
        if last:
            return [float(self._recv(k, VARSTEP_SCALAR).payload["value"])
                    for k in self.layout.clients()]
        self._collect_fits()
        return [float(pay["step"]) for pay in self._fits]

    def run_iteration(self) -> float:
        """One iteration with no verdict, for driving the protocol directly:
        `evaluate`, then `advance`. Returns the loss."""
        loss = self.evaluate()
        self.advance()
        return loss
