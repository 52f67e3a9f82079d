"""Fit orchestration: initialization, one iteration loop for both engines,
convergence handling, and prediction.

Each engine evaluates the same EM fixed-point map. The federated engine runs
one protocol round trip per iteration with a first-order coefficient step;
the oracle engine iterates `em_map` on per-pattern moments built once per
fit, so an iteration costs O(G (p+2)^3) whatever n is. The loop in `fit`
owns everything else, once for both: the loss and step traces, the
tolerance stop, the divergence guard and the result. Both engines monitor
the same loss (mean squared residual plus the conditional-covariance
corrections) and stop when successive losses differ by less than the
tolerance.

An iteration is two engine calls. `evaluate` returns the loss at the
iteration's start, which is all the loop needs to judge it: whether that
start is the best iterate so far, whether to restore the best iterate with
half the step, and whether the fit stops. `advance` then takes the step
under that verdict, told whether it is the last, and returns the norm of
the coefficient step for the step trace. Every stop is decided before the
iteration's step, so the federated engine sends the verdict with its
broadcast, and a fit always ends on a broadcast marked `last`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Union

import numpy as np

from .centralized import em_map, pattern_moments
from .data import BlockLayout, ModelParameters, VerticalDataset, repair_psd
from .errors import (
    ConfigError,
    DegenerateVariance,
    InsufficientCompleteCases,
    InsufficientData,
)
from .federated import ClientAgent, ServerCoordinator
from .messages import WireSchema
from .transport import InProcessTransport, SocketTransport

ENGINES = ("federated", "oracle")
TRANSPORTS = ("inproc", "socket")
INIT_STRATEGIES = ("zeros", "cc-ols")
# step halvings the divergence guard allows before a fit ends as "diverged"
_MAX_HALVINGS = 8


@dataclass
class FitConfig:
    max_iters: int = 2000
    tol: float = 1e-8
    learning_rate: Optional[float] = None   # None = plug-in spectral step
    init: Union[str, np.ndarray] = "zeros"
    engine: str = "federated"
    transport: str = "inproc"
    trace_path: Optional[str] = None
    divergence_patience: int = 10

    def __post_init__(self):
        if self.max_iters < 1:
            raise ConfigError("max_iters must be at least 1")
        if not (self.tol > 0):
            raise ConfigError("tolerance must be positive")
        if self.learning_rate is not None and not (self.learning_rate > 0):
            raise ConfigError("learning rate must be positive")
        if self.divergence_patience < 1:
            raise ConfigError("divergence_patience must be at least 1")
        if self.engine not in ENGINES:
            raise ConfigError(f"engine must be one of {ENGINES}")
        if self.transport not in TRANSPORTS:
            raise ConfigError(f"transport must be one of {TRANSPORTS}")
        if isinstance(self.init, str) and self.init not in INIT_STRATEGIES:
            raise ConfigError(f"init must be an array or one of {INIT_STRATEGIES}")


@dataclass
class FitResult:
    """Outcome of `fit`. `eta` is the starting step of the federated engine
    (None for the oracle); after `eta_halvings` = h halvings by the
    divergence guard, the clients step with `eta / 2**h`."""

    theta: ModelParameters
    loss_trace: np.ndarray
    iterations: int
    converged: bool
    reason: str
    beta_step_trace: np.ndarray
    eta: Optional[float]
    eta_halvings: int
    engine: str
    transport: Optional[str] = None
    comm: Optional[dict] = None

    def to_json_dict(self) -> dict:
        return {
            "engine": self.engine,
            "transport": self.transport,
            "converged": self.converged,
            "reason": self.reason,
            "iterations": self.iterations,
            "eta": self.eta,
            "eta_halvings": self.eta_halvings,
            "loss_trace": [float(v) for v in self.loss_trace],
            "beta_step_trace": [float(v) for v in self.beta_step_trace],
            "comm": self.comm,
            "theta": {
                "beta": self.theta.beta.tolist(),
                "mu": [m.tolist() for m in self.theta.mu],
                "sigma_blocks": [s.tolist() for s in self.theta.sigma_blocks],
                "sigma2": self.theta.sigma2,
            },
        }

    @classmethod
    def from_json_dict(cls, obj: dict) -> "FitResult":
        th = obj["theta"]
        theta = ModelParameters(
            beta=np.asarray(th["beta"], dtype=float),
            mu=tuple(np.asarray(m, dtype=float) for m in th["mu"]),
            sigma_blocks=tuple(np.asarray(s, dtype=float) for s in th["sigma_blocks"]),
            sigma2=float(th["sigma2"]),
        )
        return cls(
            theta=theta,
            loss_trace=np.asarray(obj["loss_trace"], dtype=float),
            iterations=int(obj["iterations"]),
            converged=bool(obj["converged"]),
            reason=str(obj["reason"]),
            beta_step_trace=np.asarray(obj["beta_step_trace"], dtype=float),
            eta=None if obj["eta"] is None else float(obj["eta"]),
            eta_halvings=int(obj["eta_halvings"]),
            engine=str(obj["engine"]),
            transport=obj.get("transport"),
            comm=obj.get("comm"),
        )


@dataclass(frozen=True)
class IterationSnapshot:
    """Per-iteration internals exposed for lockstep verification. Only the
    federated engine fills `moments`, `e`, `alpha` and `grad`; the oracle
    leaves them None. No party forms a client's pseudo-complete block on
    the rows it misses, so the snapshot holds each client's own moments of
    that block, not the block."""

    t: int
    theta: ModelParameters           # iteration-start parameters
    sigma2_new: float                # the iteration's loss
    moments: Optional[dict] = None   # client -> its `ClientMoments`
    e: Optional[np.ndarray] = None
    alpha: Optional[dict] = None     # client -> (rows, (len(rows), p_k) array)
    grad: Optional[np.ndarray] = None    # exact objective gradient, length p


def initialize(data: VerticalDataset, cfg: FitConfig) -> ModelParameters:
    """Starting parameters: response variance, observed-row client moments
    (divisor m_k), and the configured coefficient start."""
    layout, mask = data.layout, data.mask
    if data.n < 2:
        raise InsufficientData("need at least two samples")

    mu0, sig0 = [], []
    for k in layout.clients():
        rows = mask.observed_rows(k)
        if rows.size < 2:
            raise InsufficientData(
                f"client {k} has {rows.size} observed rows; need at least 2")
        x_obs = data.view(k).x[rows]
        mu_k = x_obs.mean(axis=0)
        centered = x_obs - mu_k
        sig_k = centered.T @ centered / rows.size
        mu0.append(mu_k)
        sig0.append(repair_psd(sig_k))

    y = data.y
    sigma2_0 = float(np.mean((y - y.mean()) ** 2))
    if sigma2_0 <= 0.0:
        raise DegenerateVariance("response has zero variance")

    if isinstance(cfg.init, np.ndarray) or isinstance(cfg.init, (list, tuple)):
        beta0 = np.asarray(cfg.init, dtype=float)
        if beta0.shape != (layout.total_dim,):
            raise ConfigError("initial coefficients have the wrong length")
    elif cfg.init == "zeros":
        beta0 = np.zeros(layout.total_dim)
    else:  # complete-case least squares
        rows = mask.complete_rows()
        p = layout.total_dim
        if rows.size < p + 2:
            raise InsufficientCompleteCases(
                f"{rows.size} complete rows; need at least {p + 2}")
        x_cc = np.concatenate([data.view(k).x[rows] for k in layout.clients()],
                              axis=1)
        beta0, *_ = np.linalg.lstsq(x_cc, y[rows], rcond=None)

    return ModelParameters(beta=beta0, mu=tuple(mu0),
                           sigma_blocks=tuple(sig0), sigma2=sigma2_0)


def plug_in_learning_rate(theta0: ModelParameters) -> float:
    """2 / (largest + smallest eigenvalue) of the block-diagonal covariance."""
    eigs = np.concatenate([np.linalg.eigvalsh(s) for s in theta0.sigma_blocks])
    return float(2.0 / (eigs.max() + eigs.min()))


class _OracleEngine:
    """The closed-form EM map, `em_map` on the data's per-pattern moments;
    the per-sample `estep` and `closed_form_m_step` stay as its reference.
    It has no step size to halve."""

    eta = None

    def __init__(self, data: VerticalDataset, theta0: ModelParameters):
        self._moments = pattern_moments(data)
        self.theta = self._best = theta0

    def evaluate(self, t: int) -> float:
        """The loss at the iteration-start parameters: the noise variance the
        map returns."""
        self._next = em_map(self.theta, self._moments)
        return self._next.sigma2

    def advance(self, t: int, best: bool, restore: bool, last: bool,
                inspect: Optional[Callable]) -> float:
        """Take the EM step under the verdict; returns the norm of its
        coefficient step."""
        theta_new = self._next
        if inspect is not None:
            inspect(IterationSnapshot(t=t, theta=self.theta,
                                      sigma2_new=theta_new.sigma2))
        step = float(np.linalg.norm(theta_new.beta - self.theta.beta))
        if best:
            self._best = self.theta
        self.theta = self._best if restore else theta_new
        return step

    def finish(self) -> tuple[ModelParameters, Optional[dict]]:
        return self.theta, None

    def close(self) -> None:
        pass


def _collect_theta(agents: dict, coord: ServerCoordinator,
                   layout: BlockLayout) -> ModelParameters:
    beta = np.concatenate([agents[k].beta for k in layout.clients()])
    mu = tuple(agents[k].mu.copy() for k in layout.clients())
    sig = tuple(agents[k].sigma.copy() for k in layout.clients())
    return ModelParameters(beta=beta, mu=mu, sigma_blocks=sig,
                           sigma2=coord.sigma2)


def _federated_snapshot(t: int, agents: dict, coord: ServerCoordinator,
                        layout: BlockLayout, loss: float) -> IterationSnapshot:
    beta_pre = np.concatenate([agents[k]._pre_update.beta for k in layout.clients()])
    mu_pre = tuple(agents[k]._pre_update.mu.copy() for k in layout.clients())
    sig_pre = tuple(agents[k]._pre_update.sigma.copy() for k in layout.clients())
    theta_pre = ModelParameters(beta=beta_pre, mu=mu_pre, sigma_blocks=sig_pre,
                                sigma2=coord._sigma2_pre)
    moments = {k: agents[k].last_moments for k in layout.clients()}
    alpha = {k: (agents[k].mis_rows.copy(), agents[k].last_alpha.copy())
             for k in layout.clients()}
    grad_printed = np.concatenate([agents[k].last_gradient for k in layout.clients()])
    return IterationSnapshot(t=t, theta=theta_pre, moments=moments,
                             e=coord.last_residuals.copy(), alpha=alpha,
                             grad=grad_printed / coord._sigma2_pre,
                             sigma2_new=loss)


class _FederatedEngine:
    """The client agents, their transport and the coordinator; one round trip
    per iteration with a first-order coefficient step of size `eta`."""

    def __init__(self, data: VerticalDataset, cfg: FitConfig,
                 theta0: ModelParameters):
        layout, mask = data.layout, data.mask
        self.layout = layout
        self.eta = (cfg.learning_rate if cfg.learning_rate is not None
                    else plug_in_learning_rate(theta0))
        self.agents = {}
        for k in layout.clients():
            agent = ClientAgent(data.view(k), layout, mask, self.eta)
            agent.load_params(theta0.beta_block(layout, k), theta0.mu[k - 1],
                              theta0.sigma_blocks[k - 1])
            self.agents[k] = agent
        schema = WireSchema(layout, mask)
        transport_cls = {"inproc": InProcessTransport,
                         "socket": SocketTransport}[cfg.transport]
        self.transport = transport_cls(self.agents, schema,
                                       trace_path=cfg.trace_path)
        self.coord = ServerCoordinator(data.y, layout, mask, theta0.sigma2,
                                       self.transport)

    def evaluate(self, t: int) -> float:
        self._loss = self.coord.evaluate()
        return self._loss

    def advance(self, t: int, best: bool, restore: bool, last: bool,
                inspect: Optional[Callable]) -> float:
        # the verdict goes down with the broadcast; each client's step norm
        # comes back with its reply
        steps = self.coord.advance(best=best, restore=restore, last=last)
        if inspect is not None:
            inspect(_federated_snapshot(t, self.agents, self.coord, self.layout,
                                        self._loss))
        return math.sqrt(sum(step ** 2 for step in steps))

    def finish(self) -> tuple[ModelParameters, Optional[dict]]:
        # socket clients update in their own threads; closing the transport
        # joins them before theta is read
        self.transport.close()
        theta = _collect_theta(self.agents, self.coord, self.layout)
        return theta, self.transport.counters.snapshot()

    def close(self) -> None:
        self.transport.close()


def fit(data: VerticalDataset, cfg: FitConfig,
        inspect: Optional[Callable] = None) -> FitResult:
    """Run the configured engine to convergence and package the result.

    A non-finite loss, or `cfg.divergence_patience` rises in a row, restores
    the best iterate and halves the step, at most `_MAX_HALVINGS` times; an
    engine without a step size (the oracle) stops there with "diverged".
    """
    theta0 = initialize(data, cfg)
    engine = (_OracleEngine(data, theta0) if cfg.engine == "oracle"
              else _FederatedEngine(data, cfg, theta0))

    losses: list[float] = []
    steps: list[float] = []
    prev: Optional[float] = None
    best_loss = math.inf
    streak, halvings = 0, 0
    converged, reason = False, "max_iters"

    try:
        for t in range(cfg.max_iters):
            loss = engine.evaluate(t)
            losses.append(loss)

            finite = math.isfinite(loss)
            is_best = finite and loss < best_loss
            if is_best:
                best_loss = loss
            restore = not finite
            if finite:
                streak = streak + 1 if (prev is not None and loss > prev) else 0
                restore = streak >= cfg.divergence_patience

            stop = False
            if restore:
                # every restore halves the step, even a diverged fit's last one
                if engine.eta is not None and halvings < _MAX_HALVINGS:
                    halvings += 1
                    streak = 0
                else:
                    reason, stop = "diverged", True
            elif prev is not None and abs(loss - prev) < cfg.tol:
                converged, reason, stop = True, "loss", True

            last = stop or t == cfg.max_iters - 1
            step = engine.advance(t, is_best, restore, last, inspect)
            steps.append(step)
            prev = None if restore else loss
            if stop:
                break
        theta, comm = engine.finish()
    finally:
        engine.close()

    return FitResult(theta=theta, loss_trace=np.asarray(losses),
                     iterations=len(losses), converged=converged, reason=reason,
                     beta_step_trace=np.asarray(steps), eta=engine.eta,
                     eta_halvings=halvings, engine=cfg.engine,
                     transport=cfg.transport if cfg.engine == "federated" else None,
                     comm=comm)


@dataclass(frozen=True)
class PredictionResult:
    y_hat: np.ndarray
    mse: Optional[float]


def predict(theta: ModelParameters, data: VerticalDataset) -> PredictionResult:
    """Predict responses, filling missing blocks with their marginal means.

    Without the response there is no shrinkage information, and blocks are
    independent across clients, so the conditional mean of a missing block
    given the observed ones reduces to the client mean.
    """
    layout, mask = data.layout, data.mask
    y_hat = np.zeros(data.n)
    for k in layout.clients():
        bk = theta.beta_block(layout, k)
        contrib = np.full(data.n, float(theta.mu[k - 1] @ bk))
        rows = mask.observed_rows(k)
        contrib[rows] = data.view(k).x[rows] @ bk
        y_hat += contrib
    mse = None
    if data.clients[0].y is not None:
        mse = float(np.mean((data.y - y_hat) ** 2))
    return PredictionResult(y_hat=y_hat, mse=mse)
