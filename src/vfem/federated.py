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

All updates within an iteration use the iteration-start snapshot. The
server's verdict on an iteration rides on the `control` record that opens
the next one, or on `converged`. The coordinator never stores
covariate-dimensional raw data, only the enumerated statistics;
Sigma_k beta_k never leaves its client.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

import numpy as np

from .data import BlockLayout, ClientView, MissingMask, repair_psd
from .errors import DegenerateVariance, ProtocolDesync
from .messages import (
    CONTROL,
    CONTROL_EVENTS,
    ESTEP_BROADCAST,
    ESTEP_LOCAL_FIT,
    SERVER_ID,
    VARSTEP_SCALAR,
    Message,
)

_D_FLOOR = 1e-12


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


def _row_patterns(n: int, nonempty: list) -> np.ndarray:
    """Per sample, 1 + the index of its pattern among the non-empty
    (key, rows) patterns, or 0 on a complete row."""
    out = np.zeros(n, dtype=np.intp)
    for g, (_key, rows) in enumerate(nonempty):
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

        nonempty = [(key, rows) for key, rows in mask.patterns() if key]
        row_patterns = _row_patterns(self.n, nonempty)
        self._obs_patterns = row_patterns[self.obs_rows]
        self._mis_patterns = row_patterns[self.mis_rows] - 1

        self.beta: np.ndarray | None = None
        self.mu: np.ndarray | None = None
        self.sigma: np.ndarray | None = None

        # (sigma2, d, u) of the last E-step; before one, alpha reads 0
        self._last = (1.0, np.ones(len(nonempty)), np.zeros(self.dim))
        self.last_moments: Optional[ClientMoments] = None
        self._pre_update: Optional[_Snapshot] = None
        self._best: Optional[_Snapshot] = None

        self._t = 0
        self._phase = "round_begin"

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

    def _check(self, msg: Message, kind: str, phase: str) -> None:
        if (self._phase != phase or msg.kind != kind or msg.t != self._t
                or msg.to != self.k):
            raise ProtocolDesync(
                f"client {self.k} expected {phase!r} at t={self._t}, "
                f"got kind={msg.kind!r} t={msg.t} to={msg.to}")

    def handle_message(self, msg: Message) -> list[Message]:
        if msg.kind == CONTROL:
            event = msg.payload.get("event")
            if event not in CONTROL_EVENTS:
                raise ProtocolDesync(f"client {self.k}: unknown control event {event!r}")
            self._check(msg, CONTROL, "round_begin")
            self._apply_verdict(msg.payload)
            if event == "converged":
                self._phase = "done"
                return []
            return self._begin_round()
        if msg.kind == ESTEP_BROADCAST:
            self._check(msg, ESTEP_BROADCAST, "estep_broadcast")
            return self._on_estep_broadcast(msg)
        raise ProtocolDesync(f"client {self.k}: unexpected kind {msg.kind!r}")

    def _apply_verdict(self, pay: dict) -> None:
        """The server's verdict on the last iteration: its start is the best
        iterate so far, or the best iterate comes back with half the step."""
        if pay.get("best"):
            self._best = self._pre_update
        if pay.get("restore"):
            snap = self._best or self._pre_update
            if snap is None:
                raise ProtocolDesync(f"client {self.k}: restore before any update")
            self.beta, self.mu, self.sigma = (a.copy() for a in snap)
            self.eta *= 0.5

    def _begin_round(self) -> list[Message]:
        self._u = self.sigma @ self.beta
        self._phase = "estep_broadcast"
        return [Message(self._t, self.k, ESTEP_LOCAL_FIT,
                        {"fit": self._x_obs @ self.beta,
                         "mean": float(self.mu @ self.beta),
                         "quad": float(self.beta @ self._u)})]

    def _on_estep_broadcast(self, msg: Message) -> list[Message]:
        pay = msg.payload
        sigma2 = float(pay["sigma2"])
        d = np.asarray(pay["denom"], dtype=float)
        r_obs = np.asarray(pay["resid"], dtype=float)
        sum_a, sum_q = float(pay["sum_a"]), float(pay["sum_q"])
        beta_old, mu_old, sigma_old, u = self.beta, self.mu, self.sigma, self._u
        self._pre_update = _Snapshot(beta_old.copy(), mu_old.copy(), sigma_old.copy())
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

        # the reply also tells the server the update is done; the verdict on
        # this iteration comes with the record that opens the next one
        reply = Message(self._t, self.k, VARSTEP_SCALAR, {"value": step})
        self._t += 1
        self._phase = "round_begin"
        return [reply]


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
        nonempty = [(key, rows) for key, rows in mask.patterns() if key]
        self._keys = [key for key, _rows in nonempty]
        self._counts = np.array([rows.size for _key, rows in nonempty], dtype=float)
        self._row_patterns = _row_patterns(self.n, nonempty)
        self._rows = {k: (mask.observed_rows(k), mask.missing_rows(k))
                      for k in layout.clients()}
        self._mis_patterns = {k: self._row_patterns[missing] - 1
                              for k, (_observed, missing) in self._rows.items()}
        self.last_residuals: np.ndarray | None = None
        self.last_beta_steps: list[float] = []
        self._sigma2_pre: float = self.sigma2
        self.best_sigma2: float = self.sigma2
        self._verdict = {"best": False, "restore": False}

    def _send(self, k: int, kind: str, payload: dict) -> None:
        self.transport.send_to_client(
            k, Message(self.t, SERVER_ID, kind, payload, to=k))

    def _bcast(self, kind: str, payload: dict) -> None:
        for k in self.layout.clients():
            self._send(k, kind, dict(payload))

    def _recv(self, k: int, kind: str) -> Message:
        msg = self.transport.recv_from_client(k)
        if msg.kind != kind or msg.t != self.t:
            raise ProtocolDesync(
                f"server expected {kind!r} t={self.t} from client {k}, "
                f"got {msg.kind!r} t={msg.t}")
        return msg

    def run_iteration(self) -> float:
        """Drive one full iteration; returns the new loss value."""
        K = self.layout.num_clients
        sigma2 = self.sigma2
        self._bcast(CONTROL, {"event": "round_begin", **self._verdict})

        # local fits and quadratic forms up; (sigma2, d), r on the client's
        # observed rows and its two sums over the rows it misses down
        fit_bar = np.zeros(self.n)
        v1 = np.zeros(K)
        for k in self.layout.clients():
            pay = self._recv(k, ESTEP_LOCAL_FIT).payload
            observed, missing = self._rows[k]
            fit_bar[observed] += np.asarray(pay["fit"], dtype=float)
            fit_bar[missing] += float(pay["mean"])
            v1[k - 1] = float(pay["quad"])
        d = np.array([sigma2 + sum(v1[k - 1] for k in key) for key in self._keys])
        lowest = d.min(initial=sigma2 if self._has_complete else np.inf)
        if lowest <= _D_FLOOR:
            raise DegenerateVariance(f"conditional denominator {lowest:.3e}")
        r = self.y - fit_bar
        for k in self.layout.clients():
            observed, missing = self._rows[k]
            d_mis = d[self._mis_patterns[k]]
            a = r[missing] / d_mis
            self._send(k, ESTEP_BROADCAST,
                       {"sigma2": sigma2, "denom": d, "resid": r[observed],
                        "sum_a": float(a.sum()),
                        "sum_q": float(a @ a - (1.0 / d_mis).sum())})

        # every client replies once its update is done
        self.last_beta_steps = [
            float(self._recv(k, VARSTEP_SCALAR).payload["value"])
            for k in self.layout.clients()]

        # new noise variance and loss, from the same closed forms
        e = _m_step_residuals(r, sigma2, d, self._row_patterns)
        quad = d - sigma2
        self.last_residuals = e
        self._sigma2_pre = sigma2
        loss = (float(e @ e) + float(self._counts @ (quad - quad * quad / d))) / self.n
        self.sigma2 = loss
        return loss

    def end_iteration(self, best: bool = False, restore: bool = False) -> None:
        """Apply the verdict on this iteration to the noise variance now; the
        clients get it on the record that opens the next round, or on
        `converged`."""
        if best:
            self.best_sigma2 = self._sigma2_pre
        if restore:
            self.sigma2 = self.best_sigma2
        self._verdict = {"best": bool(best), "restore": bool(restore)}
        self.t += 1

    def announce_convergence(self) -> None:
        self._bcast(CONTROL, {"event": "converged", **self._verdict})
