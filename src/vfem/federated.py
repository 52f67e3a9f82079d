"""Round-based client/server state machines for the federated fit.

One iteration runs four logical rounds, mirroring the summary-statistic
exchange: an imputation round (per-client fits and quadratic forms up,
denominators and raw-fit residuals down), a residual round (pseudo-complete
fits up, residuals down), a coupling round (coupling vectors up, coupling
slices down, partial projections up, aggregated projections down), and a
variance round (scalars up). Denominators, coupling slices, projections and
variance scalars are constant within a missingness pattern and travel once
per pattern; fits and residuals travel once per sample. Clients update their
coefficient block with a first-order step and their distributional
parameters in closed form; the server owns the response, the noise
variance, and the loss.

All updates within an iteration use the iteration-start snapshot. The
coordinator never stores covariate-dimensional raw data, only the enumerated
statistics; clients never see anything beyond the broadcast scalars.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .data import BlockLayout, ClientView, MissingMask, repair_psd
from .errors import DegenerateVariance, ProtocolDesync
from .messages import (
    CONTROL,
    ESTEP_BROADCAST,
    ESTEP_LOCAL_FIT,
    ESTEP_QUAD_FORM,
    MSTEP_AGGREGATED_PROJECTION,
    MSTEP_COUPLING_VEC,
    MSTEP_LOCAL_FIT,
    MSTEP_PARTIAL_PROJECTION,
    MSTEP_RESIDUAL_COUPLING,
    ROUND_CONTROL,
    ROUND_ESTEP,
    ROUND_MSTEP,
    ROUND_VARSTEP,
    SERVER_ID,
    VARSTEP_SCALAR,
    Message,
)

_D_FLOOR = 1e-12


@dataclass
class _Snapshot:
    beta: np.ndarray
    mu: np.ndarray
    sigma: np.ndarray


class _Pattern(NamedTuple):
    """One missingness pattern a client is missing on (public metadata)."""

    key: tuple[int, ...]     # sorted missing-client ids
    index: int               # position among the mask's non-empty patterns
    rows: np.ndarray         # the pattern's samples
    where: np.ndarray        # their positions within the client's missing rows
    offset: int              # where the client's block sits in the stacked u


class ClientAgent:
    """Holds one client's covariate block and its local parameter estimates."""

    def __init__(self, view: ClientView, layout: BlockLayout, mask: MissingMask,
                 eta: float):
        self.k = view.client_index
        self.layout = layout
        self.n = view.n
        self.eta = float(eta)
        self.dim = view.dim

        self.obs_rows = mask.observed_rows(self.k)
        self.mis_rows = mask.missing_rows(self.k)
        self._x_obs = view.x[self.obs_rows]

        nonempty = [(key, rows) for key, rows in mask.patterns() if key]
        self._patterns = [
            _Pattern(key, g, rows, np.searchsorted(self.mis_rows, rows),
                     sum(layout.dim(j) for j in key if j < self.k))
            for g, (key, rows) in enumerate(nonempty) if self.k in key]
        self._keys = [p.key for p in self._patterns]

        self.beta: np.ndarray | None = None
        self.mu: np.ndarray | None = None
        self.sigma: np.ndarray | None = None
        self.x_tilde = np.zeros((self.n, self.dim))
        self.x_tilde[self.obs_rows] = self._x_obs

        self._u = np.zeros(self.dim)
        self._d: np.ndarray | None = None    # per non-empty pattern
        self._e: np.ndarray | None = None
        self.last_alpha = np.zeros((0, self.dim))
        self.last_gradient = np.zeros(self.dim)
        self.last_beta_step = 0.0
        self._pre_update: Optional[_Snapshot] = None
        self._best: Optional[_Snapshot] = None

        self._t = 0
        self._phase = "round_begin"

    def load_params(self, beta_k: np.ndarray, mu_k: np.ndarray,
                    sigma_k: np.ndarray) -> None:
        self.beta = np.array(beta_k, dtype=float)
        self.mu = np.array(mu_k, dtype=float)
        self.sigma = np.array(sigma_k, dtype=float)

    # -- message handling ---------------------------------------------------

    def _check(self, msg: Message, kind: str, phase: str) -> None:
        if self._phase != phase or msg.kind != kind or msg.t != self._t:
            raise ProtocolDesync(
                f"client {self.k} expected {phase!r} at t={self._t}, "
                f"got kind={msg.kind!r} t={msg.t}")

    def handle_message(self, msg: Message) -> list[Message]:
        if msg.kind == CONTROL:
            event = msg.payload.get("event")
            if event == "round_begin":
                self._check(msg, CONTROL, "round_begin")
                return self._begin_round()
            if event == "round_end":
                self._check(msg, CONTROL, "round_end")
                return self._end_round(msg)
            if event == "converged":
                self._phase = "done"
                return []
            raise ProtocolDesync(f"client {self.k}: unknown control event {event!r}")
        if msg.kind == ESTEP_BROADCAST:
            self._check(msg, ESTEP_BROADCAST, "estep_broadcast")
            return self._on_estep_broadcast(msg)
        if msg.kind == MSTEP_RESIDUAL_COUPLING:
            self._check(msg, MSTEP_RESIDUAL_COUPLING, "residual_coupling")
            return self._on_residual_coupling(msg)
        if msg.kind == MSTEP_AGGREGATED_PROJECTION:
            self._check(msg, MSTEP_AGGREGATED_PROJECTION, "aggregated_projection")
            return self._on_aggregated_projection(msg)
        raise ProtocolDesync(f"client {self.k}: unexpected kind {msg.kind!r}")

    def _begin_round(self) -> list[Message]:
        self._u = self.sigma @ self.beta
        v1 = float(self.beta @ self._u)
        fit_bar = np.full(self.n, float(self.mu @ self.beta))
        fit_bar[self.obs_rows] = self._x_obs @ self.beta
        self._phase = "estep_broadcast"
        return [
            Message(self._t, ROUND_ESTEP, self.k, ESTEP_LOCAL_FIT,
                    {"fit": fit_bar}),
            Message(self._t, ROUND_ESTEP, self.k, ESTEP_QUAD_FORM,
                    {"value": v1}),
        ]

    def _check_keys(self, msg: Message) -> None:
        if [tuple(key) for key in msg.payload["patterns"]] != self._keys:
            raise ProtocolDesync(f"client {self.k} received {msg.kind!r} for "
                                 f"other patterns")

    def _on_estep_broadcast(self, msg: Message) -> list[Message]:
        self._d = np.asarray(msg.payload["denom"], dtype=float)
        resid = np.asarray(msg.payload["resid"], dtype=float)
        for p in self._patterns:
            scale = resid[p.rows] / self._d[p.index]
            self.x_tilde[p.rows] = self.mu + np.outer(scale, self._u)
        fit = self.x_tilde @ self.beta
        self._phase = "residual_coupling"
        return [
            Message(self._t, ROUND_MSTEP, self.k, MSTEP_LOCAL_FIT, {"fit": fit}),
            Message(self._t, ROUND_MSTEP, self.k, MSTEP_COUPLING_VEC,
                    {"vec": self._u}),
        ]

    def _on_residual_coupling(self, msg: Message) -> list[Message]:
        if int(msg.payload["client"]) != self.k:
            raise ProtocolDesync(f"client {self.k} received a slice for another client")
        self._check_keys(msg)
        self._e = np.asarray(msg.payload["resid"], dtype=float)
        w_vecs = [np.asarray(block, dtype=float) @ self.beta / self._d[p.index]
                  for p, block in zip(self._patterns, msg.payload["slices"])]
        self._phase = "aggregated_projection"
        return [Message(self._t, ROUND_MSTEP, self.k, MSTEP_PARTIAL_PROJECTION,
                        {"patterns": self._keys, "vecs": w_vecs})]

    def _on_aggregated_projection(self, msg: Message) -> list[Message]:
        vecs = msg.payload["vecs"]
        alpha = np.zeros((self.mis_rows.size, self.dim))
        v5 = np.zeros(len(self._patterns))   # alpha_g . beta, one per pattern
        for j, p in enumerate(self._patterns):
            s_g = np.asarray(vecs[p.index], dtype=float)
            row = self._u - s_g[p.offset:p.offset + self.dim]
            alpha[p.where] = row
            v5[j] = row @ self.beta
        self.last_alpha = alpha

        grad = (self.x_tilde.T @ self._e - alpha.sum(axis=0)) / self.n
        self.last_gradient = grad

        beta_old, mu_old, sigma_old = self.beta, self.mu, self.sigma
        self._pre_update = _Snapshot(beta_old.copy(), mu_old.copy(), sigma_old.copy())

        self.beta = beta_old + self.eta * grad
        self.last_beta_step = float(np.linalg.norm(self.beta - beta_old))

        mu_new = self.x_tilde.mean(axis=0)
        centered = self.x_tilde - mu_old
        scatter = centered.T @ centered
        for p in self._patterns:
            d_g = self._d[p.index]
            scatter += p.rows.size * (sigma_old - np.outer(self._u, self._u) / d_g)
        self.mu = mu_new
        self.sigma = repair_psd(scatter / self.n)

        self._phase = "round_end"
        return [Message(self._t, ROUND_VARSTEP, self.k, VARSTEP_SCALAR,
                        {"patterns": self._keys, "vals": v5})]

    def _end_round(self, msg: Message) -> list[Message]:
        pay = msg.payload
        if pay.get("eta_scale") is not None:
            self.eta *= float(pay["eta_scale"])
        if pay.get("best"):
            self._best = self._pre_update
        if pay.get("restore"):
            snap = self._best or self._pre_update
            if snap is not None:
                self.beta = snap.beta.copy()
                self.mu = snap.mu.copy()
                self.sigma = snap.sigma.copy()
        self._t += 1
        self._phase = "round_begin"
        return []


class ServerCoordinator:
    """Owns the response vector, the noise variance, and round aggregation."""

    def __init__(self, y: np.ndarray, layout: BlockLayout, mask: MissingMask,
                 sigma2: float, transport):
        self.y = np.asarray(y, dtype=float)
        self.layout = layout
        self.mask = mask
        self.sigma2 = float(sigma2)
        self.transport = transport
        self.t = 0

        self.n = self.y.shape[0]
        self._has_complete = mask.complete_rows().size > 0
        self._patterns = [(key, rows) for key, rows in mask.patterns() if key]
        self._keys = [key for key, _rows in self._patterns]
        # indices into self._patterns of the patterns each client is missing on
        self._patterns_of = {k: [g for g, key in enumerate(self._keys) if k in key]
                             for k in layout.clients()}
        self.last_residuals: np.ndarray | None = None
        self.last_v4: np.ndarray | None = None
        self._sigma2_pre: float = self.sigma2
        self.best_sigma2: float = self.sigma2

    def _bcast(self, kind: str, round_name: str, payload: dict) -> None:
        for k in self.layout.clients():
            self.transport.send_to_client(
                k, Message(self.t, round_name, SERVER_ID, kind, dict(payload)))

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
        self._bcast(CONTROL, ROUND_CONTROL, {"event": "round_begin"})

        # imputation round: local fits + quadratic forms up, (d, r) down
        fit_bar = np.zeros(self.n)
        v1 = np.zeros(K)
        for k in self.layout.clients():
            fit_bar += np.asarray(self._recv(k, ESTEP_LOCAL_FIT).payload["fit"],
                                  dtype=float)
            v1[k - 1] = float(self._recv(k, ESTEP_QUAD_FORM).payload["value"])
        d = np.array([self.sigma2 + sum(v1[k - 1] for k in key) for key in self._keys])
        lowest = d.min(initial=self.sigma2 if self._has_complete else np.inf)
        if lowest <= _D_FLOOR:
            raise DegenerateVariance(f"conditional denominator {lowest:.3e}")
        r = self.y - fit_bar
        self._bcast(ESTEP_BROADCAST, ROUND_ESTEP, {"denom": d, "resid": r})

        # residual round: pseudo-complete fits + coupling vectors up
        fit = np.zeros(self.n)
        u_blocks: dict[int, np.ndarray] = {}
        for k in self.layout.clients():
            fit += np.asarray(self._recv(k, MSTEP_LOCAL_FIT).payload["fit"],
                              dtype=float)
            u_blocks[k] = np.asarray(
                self._recv(k, MSTEP_COUPLING_VEC).payload["vec"], dtype=float)
        e = self.y - fit

        # coupling round: per pattern, each missing client's column slice of
        # outer(U, U) down, partial projections up, their sums back down
        slices: dict[int, list[np.ndarray]] = {k: [] for k in self.layout.clients()}
        for key in self._keys:
            u_stack = np.concatenate([u_blocks[k] for k in key])
            v_mat = np.outer(u_stack, u_stack)
            off = 0
            for k in key:
                width = self.layout.dim(k)
                slices[k].append(v_mat[:, off:off + width])
                off += width
        for k in self.layout.clients():
            payload = {"client": k, "resid": e,
                       "patterns": [self._keys[g] for g in self._patterns_of[k]],
                       "slices": slices[k]}
            self.transport.send_to_client(
                k, Message(self.t, ROUND_MSTEP, SERVER_ID,
                           MSTEP_RESIDUAL_COUPLING, payload))

        s_pat = [np.zeros(sum(self.layout.dim(k) for k in key)) for key in self._keys]
        for k in self.layout.clients():
            vecs = self._recv(k, MSTEP_PARTIAL_PROJECTION).payload["vecs"]
            for g, w in zip(self._patterns_of[k], vecs):
                s_pat[g] += np.asarray(w, dtype=float)
        self._bcast(MSTEP_AGGREGATED_PROJECTION, ROUND_MSTEP,
                    {"patterns": self._keys, "vecs": s_pat})

        # variance round: per-pattern scalars up, scattered to the pattern's
        # rows; new noise variance and loss
        v4 = np.zeros(self.n)
        for k in self.layout.clients():
            vals = self._recv(k, VARSTEP_SCALAR).payload["vals"]
            for g, val in zip(self._patterns_of[k], vals):
                v4[self._patterns[g][1]] += float(val)
        self.last_residuals = e
        self.last_v4 = v4
        self._sigma2_pre = self.sigma2
        loss = float(np.mean(e ** 2 + v4))
        self.sigma2 = loss
        return loss

    def end_iteration(self, best: bool = False, restore: bool = False,
                      eta_scale: float | None = None) -> None:
        if best:
            self.best_sigma2 = self._sigma2_pre
        if restore:
            self.sigma2 = self.best_sigma2
        payload: dict = {"event": "round_end", "loss": self.sigma2,
                         "best": bool(best), "restore": bool(restore)}
        if eta_scale is not None:
            payload["eta_scale"] = float(eta_scale)
        self._bcast(CONTROL, ROUND_CONTROL, payload)
        self.t += 1

    def announce_convergence(self) -> None:
        self._bcast(CONTROL, ROUND_CONTROL, {"event": "converged"})
