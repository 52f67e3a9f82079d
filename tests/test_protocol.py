import socket
import threading
import time
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import OpeningAgent, make_instance, moments_gap, rel_err

from vfem import (
    BlockLayout,
    FitConfig,
    MissingMask,
    ModelParameters,
    fit,
    generate,
    initialize,
    make_dataset,
    q_gradient_beta,
    smes_like_config,
)
from vfem.centralized import closed_form_m_step, estep, observed_loss
from vfem.data import repair_psd
from vfem.errors import ProtocolDesync, SchemaViolation
from vfem.federated import ClientAgent, ServerCoordinator
from vfem.messages import (
    ESTEP_BROADCAST,
    ESTEP_LOCAL_FIT,
    MESSAGE_KINDS,
    SERVER_ID,
    VARSTEP_SCALAR,
    Message,
    WireSchema,
    decode,
    encode,
)
from vfem import transport as transport_module
from vfem.transport import InProcessTransport, SocketTransport


def build_agents(data, theta, eta=0.5):
    """One `ClientAgent` per client, holding its part of `theta`."""
    layout = data.layout
    agents = {}
    for k in layout.clients():
        agent = ClientAgent(data.view(k), layout, data.mask, eta)
        agent.load_params(theta.beta_block(layout, k), theta.mu[k - 1],
                          theta.sigma_blocks[k - 1])
        agents[k] = agent
    return agents


def build_protocol(data, theta, eta=0.5, transport_cls=InProcessTransport,
                   **transport_kwargs):
    layout, mask = data.layout, data.mask
    agents = build_agents(data, theta, eta)
    schema = WireSchema(layout, mask)
    transport = transport_cls(agents, schema, **transport_kwargs)
    coord = ServerCoordinator(data.y, layout, mask, theta.sigma2, transport)
    return agents, coord, transport


def per_sample_client_update(view, mask, eta, beta, mu, sigma, sigma2, d, r):
    """One client update as first written: the full (n, p_k) pseudo-complete
    block and its alpha rows, built by a loop over the patterns the client
    misses. Returns the new (beta, mu, sigma), the gradient, and the column
    sum and (unrepaired) scatter of the block."""
    k, n = view.client_index, view.n
    obs, mis = mask.observed_rows(k), mask.missing_rows(k)
    nonempty = [(key, rows) for key, rows in mask.patterns() if key]
    row_patterns = np.zeros(n, dtype=np.intp)
    for g, (_key, rows) in enumerate(nonempty):
        row_patterns[rows] = g + 1
    u = sigma @ beta
    x_tilde = np.zeros((n, view.dim))
    x_tilde[obs] = view.x[obs]
    alpha = np.zeros((mis.size, view.dim))
    for g, (key, rows) in enumerate(nonempty):
        if k in key:
            x_tilde[rows] = mu + np.outer(r[rows] / d[g], u)
            alpha[np.searchsorted(mis, rows)] = u * (sigma2 / d[g])
    e = r * np.concatenate(([1.0], sigma2 / d))[row_patterns]
    grad = (x_tilde.T @ e - alpha.sum(axis=0)) / n
    centered = x_tilde - mu
    scatter = centered.T @ centered
    for g, (key, rows) in enumerate(nonempty):
        if k in key:
            scatter += rows.size * (sigma - np.outer(u, u) / d[g])
    return (beta + eta * grad, x_tilde.mean(axis=0), repair_psd(scatter / n), grad,
            x_tilde.sum(axis=0), scatter)


def broadcast_to(k, mask, sigma2, d, r, t=0):
    """The server's record to client k from the full residual vector, its
    two sums taken pattern by pattern over the rows the client misses, with
    a verdict that neither marks, restores nor stops."""
    sum_a = sum_q = 0.0
    for g, (key, rows) in enumerate((key, rows) for key, rows in mask.patterns()
                                    if key):
        if k in key:
            a = r[rows] / d[g]
            sum_a += float(a.sum())
            sum_q += float(a @ a) - rows.size / d[g]
    return Message(t, SERVER_ID, ESTEP_BROADCAST,
                   {"sigma2": sigma2, "denom": d, "resid": r[mask.observed_rows(k)],
                    "sum_a": sum_a, "sum_q": sum_q, "best": False,
                    "restore": False, "last": False}, to=k)


def shifted(data, truth, shift):
    """Every covariate moved by `shift`, the response by shift * sum(beta)."""
    blocks = [np.nan_to_num(data.view(k).x) + shift for k in data.layout.clients()]
    y = data.y + shift * truth.params.beta.sum()
    return make_dataset(data.layout, blocks, y, data.mask.indicators)


def kernel_instances():
    """Criterion 02's battery, the heavy preset, a client that misses no
    rows, and rows that every client misses."""
    from test_acceptance import random_battery
    for n, dims, rho, seed in random_battery(np.random.default_rng(777), 20):
        yield make_instance(n, dims, rho, seed=seed, min_complete=2)
    yield generate(smes_like_config(n=1000, seed=3))
    data, truth = make_instance(150, (2, 3, 2), 0.3, seed=61)
    blocks = [np.nan_to_num(v.x) for v in data.clients]
    ind = data.mask.indicators.copy()
    ind[:, 1] = False
    yield make_dataset(data.layout, blocks, data.y, ind), truth
    ind = data.mask.indicators.copy()
    ind[:12] = True
    yield make_dataset(data.layout, blocks, data.y, ind), truth


class TestClientKernel:
    @pytest.mark.parametrize("shift", [0.0, 1e3])
    def test_update_matches_per_sample_reference(self, shift):
        eta = 0.3
        count = 0
        for data, truth in kernel_instances():
            data = shifted(data, truth, shift)
            layout, mask = data.layout, data.mask
            theta = initialize(data, FitConfig())
            for _ in range(2):
                theta = closed_form_m_step(theta, data)
            cache = estep(theta, data)
            d = np.array([g.d for g in cache.patterns if g.missing])
            for k in layout.clients():
                beta, mu, sigma = (theta.beta_block(layout, k), theta.mu[k - 1],
                                   theta.sigma_blocks[k - 1])
                agent = ClientAgent(data.view(k), layout, mask, eta)
                agent.load_params(beta, mu, sigma)
                agent.open()
                agent.handle_message(broadcast_to(k, mask, theta.sigma2, d, cache.r))
                ref = per_sample_client_update(data.view(k), mask, eta, beta, mu,
                                               sigma, theta.sigma2, d, cache.r)
                moments = agent.last_moments
                got = (agent.beta, agent.mu, agent.sigma, agent.last_gradient,
                       moments.colsum, moments.scatter)
                names = ("beta", "mu", "sigma", "grad", "colsum", "scatter")
                for name, a, b in zip(names, got, ref):
                    assert rel_err(a, b) <= 1e-12, (layout, k, name, rel_err(a, b))
                count += 1
        assert count > 60


class TestRounds:
    def test_complete_client_keeps_raw_block(self, small_instance):
        data, _ = small_instance
        # rebuild with client 3 fully observed
        ind = data.mask.indicators.copy()
        ind[:, 2] = False
        blocks = [np.nan_to_num(v.x, nan=0.0) for v in data.clients]
        data2 = make_dataset(data.layout, blocks, data.y, ind)
        theta = initialize(data2, FitConfig())
        agents, coord, transport = build_protocol(data2, theta)
        coord.run_iteration()
        # its moments are those of the raw block, and nothing is imputed
        x = data2.view(3).x
        centered = x - theta.mu[2]
        moments = agents[3].last_moments
        assert rel_err(moments.colsum, x.sum(axis=0)) < 1e-14
        assert rel_err(moments.scatter, centered.T @ centered) < 1e-14
        assert (moments.sum_a, moments.sum_q) == (0.0, 0.0)
        assert agents[3].last_alpha.shape == (0, data2.layout.dim(3))

    def test_scalar_imputation_through_the_wire(self):
        # one client, one column; missing row with y=2 under unit parameters
        layout = BlockLayout((1,))
        mask = np.array([[True], [False], [False]])
        x = np.array([[0.0], [1.0], [-1.0]])
        y = np.array([2.0, 1.0, -1.0])
        data = make_dataset(layout, [x], y, mask)
        theta = ModelParameters(beta=np.array([1.0]), mu=(np.array([0.0]),),
                                sigma_blocks=(np.array([[1.0]]),), sigma2=1.0)
        agents, coord, transport = build_protocol(data, theta, eta=0.0)
        coord.run_iteration()
        # a = r / d = 2 / 2 on the missing row, so x~ = mu + a u = 1 there,
        # and the observed rows sum to 0
        moments = agents[1].last_moments
        assert moments.sum_a == pytest.approx(1.0, abs=1e-15)
        assert moments.sum_q == pytest.approx(1.0 - 0.5, abs=1e-15)
        assert moments.colsum[0] == pytest.approx(1.0, abs=1e-15)
        # conditional covariance times beta for the same sample:
        # alpha = u sigma2 / d = 1 * 1 / 2
        assert agents[1].last_alpha[0, 0] == pytest.approx(0.5, abs=1e-15)

    def test_zero_coefficients_impute_client_means(self, small_instance):
        data, _ = small_instance
        theta = initialize(data, FitConfig())  # zeros start
        agents, coord, transport = build_protocol(data, theta, eta=0.0)
        coord.run_iteration()
        for k in data.layout.clients():
            # each missing row is imputed by the client mean
            rows = data.mask.observed_rows(k)
            m_mis = data.n - rows.size
            expected = data.view(k).x[rows].sum(axis=0) + m_mis * theta.mu[k - 1]
            assert np.allclose(agents[k].last_moments.colsum, expected)
            assert np.allclose(agents[k].last_alpha, 0.0)
        # residuals with zero coefficients are the responses themselves
        assert np.allclose(coord.last_residuals, data.y)

    def test_residual_orthogonality_at_least_squares(self):
        data, _ = make_instance(80, (2, 2), 0.0, seed=9)
        x = data.full_design()
        beta_ls = np.linalg.solve(x.T @ x, x.T @ data.y)
        theta = initialize(data, FitConfig()).replace(beta=beta_ls)
        agents, coord, transport = build_protocol(data, theta, eta=0.0)
        coord.run_iteration()
        # the clients' gradient X~'e / n vanishes there
        grad = np.concatenate([agents[k].last_gradient
                               for k in data.layout.clients()])
        assert np.abs(grad).max() < 1e-8 / data.n

    def test_noise_variance_stays_positive_across_iterations(self):
        data, _ = make_instance(120, (2, 2), 0.4, seed=31)
        res = fit(data, FitConfig(engine="federated", max_iters=100, tol=1e-300))
        # an exact floating-point fixed point may stop the loop early
        assert res.iterations == 100 or res.loss_trace[-1] == res.loss_trace[-2]
        assert np.all(res.loss_trace > 0)


# a fit that stops for each reason: (dataset, FitConfig fields)
STOP_INSTANCES = {
    "loss": lambda: (make_instance(70, (2, 2), 0.3, seed=23)[0], {}),
    "max_iters": lambda: (make_instance(60, (2, 3, 2), 0.3, seed=41)[0],
                          {"max_iters": 3, "tol": 1e-300}),
    "diverged": lambda: (make_instance(200, (2, 2), 0.3, seed=14)[0],
                         {"learning_rate": 1000.0, "divergence_patience": 3,
                          "max_iters": 1500, "tol": 1e-9}),
}


def trace_kinds(path):
    """Message kind -> the number of trace records of that kind."""
    return dict(Counter(decode(line).kind
                        for line in path.read_text().splitlines(keepends=True)))


def replay_with_guard(data, cfg, caches=None):
    """The fit replayed with the centralized kernels and the divergence guard
    of `engine.fit`: the best iterate is the lowest-loss iteration start, and
    a non-finite loss or `divergence_patience` rises in a row restore it and
    halve the step, at most 8 times. Returns the loss trace, the final
    parameters, the number of halvings and the stop reason; each
    iteration's E-step is appended to `caches` if one is given."""
    theta = initialize(data, cfg)
    eta = cfg.learning_rate
    best, best_loss = theta, np.inf
    losses, prev, streak, halvings = [], None, 0, 0
    for _ in range(cfg.max_iters):
        cache = estep(theta, data)
        if caches is not None:
            caches.append(cache)
        loss = observed_loss(cache.e, cache.v4)
        losses.append(loss)
        grad = q_gradient_beta(theta, data, cache)
        start, theta = theta, closed_form_m_step(theta, data, cache).replace(
            beta=theta.beta + eta * theta.sigma2 * grad)
        if loss < best_loss:
            best, best_loss = start, loss
        streak = streak + 1 if prev is not None and loss > prev else 0
        if not np.isfinite(loss) or streak >= cfg.divergence_patience:
            theta = best
            if halvings == 8:
                return losses, theta, halvings, "diverged"
            eta, halvings, streak, prev = eta / 2, halvings + 1, 0, None
        elif prev is not None and abs(loss - prev) < cfg.tol:
            return losses, theta, halvings, "loss"
        else:
            prev = loss
    return losses, theta, halvings, "max_iters"


class TestLockstep:
    @pytest.mark.parametrize("transport", ["inproc", "socket"])
    def test_every_iteration_matches_centralized_kernels(self, transport):
        data, _ = make_instance(90, (2, 3, 2), (0.3, 0.4, 0.2), seed=17)
        snaps = []
        cfg = FitConfig(engine="federated", transport=transport, max_iters=5,
                        tol=1e-300)
        fit(data, cfg, inspect=snaps.append)
        assert len(snaps) == 5
        for snap in snaps:
            cache = estep(snap.theta, data)
            assert moments_gap(snap.moments, cache, data.layout) < 1e-10
            assert rel_err(snap.e, cache.e) < 1e-10
            assert rel_err(snap.grad, q_gradient_beta(snap.theta, data, cache)) < 1e-10
            assert abs(snap.sigma2_new - observed_loss(cache.e, cache.v4)) \
                < 1e-10 * cache.theta.sigma2
            for k in data.layout.clients():
                rows, arr = snap.alpha[k]
                ref = np.zeros_like(arr)
                for g in cache.patterns:
                    if k in g.missing:
                        off = sum(data.layout.dim(j) for j in g.missing if j < k)
                        ref[np.searchsorted(rows, g.rows)] = \
                            cache.alpha(g)[off:off + data.layout.dim(k)]
                assert rel_err(arr, ref, floor=1e-12) < 1e-10

    @pytest.mark.parametrize("transport", ["inproc", "socket"])
    @pytest.mark.parametrize("rate, patience, reason, halvings",
                             [(5.0, 5, "loss", 2), (1000.0, 3, "diverged", 8)],
                             ids=["recovers", "diverges"])
    def test_restores_match_centralized_replay(self, transport, rate, patience,
                                               reason, halvings):
        data, _ = make_instance(200, (2, 2), 0.3, seed=14)
        cfg = FitConfig(engine="federated", transport=transport,
                        learning_rate=rate, divergence_patience=patience,
                        max_iters=1500, tol=1e-9)
        snaps, caches = [], []
        res = fit(data, cfg, inspect=snaps.append)
        losses, theta, ref_halvings, ref_reason = replay_with_guard(data, cfg, caches)
        assert (res.reason, res.eta_halvings) == (reason, halvings)
        assert res.eta == cfg.learning_rate    # the starting step, not eta / 2**h
        assert (ref_reason, ref_halvings) == (reason, halvings)
        assert res.iterations == len(losses) == len(snaps) == len(caches)
        assert rel_err(res.loss_trace, losses) < 1e-10
        # what every client formed, through each restore, matches the replay
        for snap, cache in zip(snaps, caches):
            assert moments_gap(snap.moments, cache, data.layout) < 1e-10
        assert rel_err(res.theta.beta, theta.beta) < 1e-10
        for k in data.layout.clients():
            assert rel_err(res.theta.mu[k - 1], theta.mu[k - 1]) < 1e-10
            assert rel_err(res.theta.sigma_blocks[k - 1],
                           theta.sigma_blocks[k - 1]) < 1e-10
        assert abs(res.theta.sigma2 - theta.sigma2) < 1e-10 * theta.sigma2

    def test_oracle_iterations_match_per_sample_kernels(self):
        # the oracle iterates em_map on per-pattern moments; every iteration
        # must still be the per-sample E-step and closed-form maximization
        from test_acceptance import random_battery
        instances = [make_instance(n, dims, rho, seed=seed, min_complete=2)
                     for n, dims, rho, seed
                     in random_battery(np.random.default_rng(777), 4)]
        instances.append(generate(smes_like_config(n=300, seed=3)))
        for data, _ in instances:
            snaps = []
            res = fit(data, FitConfig(engine="oracle", max_iters=6, tol=1e-300),
                      inspect=snaps.append)
            assert res.reason == "max_iters" and len(snaps) == 6
            nexts = [s.theta for s in snaps[1:]] + [res.theta]
            for snap, nxt in zip(snaps, nexts):
                cache = estep(snap.theta, data)
                loss = observed_loss(cache.e, cache.v4)
                assert abs(snap.sigma2_new - loss) <= 1e-12 * loss
                central = closed_form_m_step(snap.theta, data, cache)
                assert rel_err(nxt.beta, central.beta) < 1e-10
                for k in data.layout.clients():
                    assert rel_err(nxt.mu[k - 1], central.mu[k - 1]) < 1e-10
                    assert rel_err(nxt.sigma_blocks[k - 1],
                                   central.sigma_blocks[k - 1]) < 1e-10
                assert abs(nxt.sigma2 - central.sigma2) < 1e-10 * central.sigma2


class TestTransports:
    def test_socket_and_inproc_agree_exactly(self):
        data, _ = make_instance(70, (2, 2), 0.3, seed=23)
        res_a = fit(data, FitConfig(engine="federated", transport="inproc",
                                    max_iters=8, tol=1e-300))
        res_b = fit(data, FitConfig(engine="federated", transport="socket",
                                    max_iters=8, tol=1e-300))
        assert np.array_equal(res_a.theta.beta, res_b.theta.beta)
        assert np.array_equal(res_a.loss_trace, res_b.loss_trace)
        assert res_a.comm["bytes_total"] == res_b.comm["bytes_total"]
        assert res_a.comm["messages"] == res_b.comm["messages"]

    def test_socket_and_inproc_agree_on_a_diverged_fit(self, monkeypatch):
        # the fit ends with a restore on the last broadcast, which a socket
        # client applies in its own thread; slowing that thread shows
        # whether theta is read only after the clients are done
        data, _ = make_instance(200, (2, 2), 0.3, seed=14)
        cfg = dict(engine="federated", learning_rate=1000.0,
                   divergence_patience=3, max_iters=1500, tol=1e-9)
        res_a = fit(data, FitConfig(transport="inproc", **cfg))
        assert res_a.reason == "diverged" and res_a.eta_halvings == 8

        on_broadcast = ClientAgent._on_estep_broadcast

        def slow_on_broadcast(agent, msg):
            if msg.payload["restore"]:
                time.sleep(0.2)
            return on_broadcast(agent, msg)

        monkeypatch.setattr(ClientAgent, "_on_estep_broadcast", slow_on_broadcast)
        res_b = fit(data, FitConfig(transport="socket", **cfg))
        assert res_b.reason == "diverged"
        assert np.array_equal(res_a.loss_trace, res_b.loss_trace)
        assert np.array_equal(res_a.theta.beta, res_b.theta.beta)
        for a, b in zip(res_a.theta.mu + res_a.theta.sigma_blocks,
                        res_b.theta.mu + res_b.theta.sigma_blocks):
            assert np.array_equal(a, b)
        assert res_a.theta.sigma2 == res_b.theta.sigma2

    @settings(max_examples=12, deadline=None)
    @given(blocks=st.integers(1, 4).flatmap(lambda K: st.lists(
               st.tuples(st.integers(1, 3), st.sampled_from([0.0, 0.3, 0.9])),
               min_size=K, max_size=K)),
           n=st.integers(60, 120), max_iters=st.integers(1, 6),
           seed=st.integers(0, 2 ** 16))
    def test_transports_agree_on_any_layout(self, blocks, n, max_iters, seed):
        # K = 1..4 clients of 1..3 columns, each missing none, some or most
        # of its rows: both transports fit bit for bit alike, and each sends
        # one opening per remote client and two records per remote client
        # and iteration, whatever the stop
        dims, rates = zip(*blocks)
        data, _ = make_instance(n, dims, rates, seed=seed)
        res = {transport: fit(data, FitConfig(engine="federated", max_iters=max_iters,
                                              transport=transport))
               for transport in ("inproc", "socket")}
        a, b = res["inproc"], res["socket"]
        assert np.array_equal(a.loss_trace, b.loss_trace)
        assert np.array_equal(a.beta_step_trace, b.beta_step_trace)
        for x, y in zip((a.theta.beta, *a.theta.mu, *a.theta.sigma_blocks),
                        (b.theta.beta, *b.theta.mu, *b.theta.sigma_blocks)):
            assert np.array_equal(x, y)
        assert repr(a.theta.sigma2) == repr(b.theta.sigma2)
        assert (a.reason, a.iterations, a.eta_halvings) \
            == (b.reason, b.iterations, b.eta_halvings)
        assert a.comm == b.comm
        R = len(dims) - 1
        assert a.comm["messages"] == 2 * R * a.iterations + R

    def test_socket_connections_disable_nagle(self, monkeypatch):
        # every record is a whole message its peer waits for; Nagle's
        # algorithm could only hold its last segment back. Clients 2 and 3
        # connect; client 1 is the coordinator's own party and does not
        clients = []
        connect = socket.create_connection

        def capture(*args, **kwargs):
            sock = connect(*args, **kwargs)
            clients.append(sock)
            return sock

        monkeypatch.setattr(transport_module.socket, "create_connection", capture)
        data, _ = make_instance(40, (2, 2, 2), 0.3, seed=5)
        theta = initialize(data, FitConfig())
        _agents, _coord, transport = build_protocol(
            data, theta, transport_cls=SocketTransport)
        try:
            conns = list(transport._conns.values())
            assert len(conns) == len(clients) == 2
            for sock in conns + clients:
                assert sock.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY)
        finally:
            transport.close()

    @pytest.mark.parametrize("stop", ["loss", "max_iters", "diverged"])
    def test_socket_client_threads_end_with_the_fit(self, monkeypatch, stop):
        # every fit ends on a `last` broadcast: a client told `last` returns
        # once it has replied, before the transport closes. One still blocked
        # in a read after close() would hold it for the join timeout
        opened, alive, close_s = [], [], []
        init, close = SocketTransport.__init__, SocketTransport.close

        def record_init(transport, *args, **kwargs):
            opened.append(transport)
            init(transport, *args, **kwargs)

        def timed_close(transport):
            for th in transport._threads:
                th.join(timeout=2.0)
            alive.extend(th for th in transport._threads if th.is_alive())
            started = time.perf_counter()
            close(transport)
            close_s.append(time.perf_counter() - started)
            alive.extend(th for th in transport._threads if th.is_alive())

        monkeypatch.setattr(SocketTransport, "__init__", record_init)
        monkeypatch.setattr(SocketTransport, "close", timed_close)
        data, cfg = STOP_INSTANCES[stop]()
        res = fit(data, FitConfig(engine="federated", transport="socket", **cfg))
        assert res.reason == stop
        assert len(opened) == 1
        assert len(opened[0]._threads) == data.layout.num_clients - 1
        assert not alive
        assert close_s and max(close_s) < 1.0

    def test_socket_fit_starts_one_thread_per_remote_client(self, monkeypatch):
        started = []

        class RecordingThread(threading.Thread):
            def start(self):
                started.append(self)
                super().start()

        monkeypatch.setattr(transport_module.threading, "Thread", RecordingThread)
        data, _ = make_instance(60, (2, 3, 2), 0.3, seed=41)
        res = fit(data, FitConfig(engine="federated", transport="socket",
                                  max_iters=3, tol=1e-300))
        assert res.iterations == 3
        assert len(started) == data.layout.num_clients - 1
        assert not any(th.is_alive() for th in started)

    @pytest.mark.parametrize("transport", ["inproc", "socket"])
    def test_no_record_of_the_server_client_crosses(self, tmp_path, transport):
        # client 1 hosts the coordinator: its records are handed over in
        # process, so no traced record names it, as sender or recipient
        data, _ = make_instance(60, (2, 3, 2), 0.3, seed=41)
        server = data.layout.server_client
        path = tmp_path / "trace.log"
        res = fit(data, FitConfig(engine="federated", transport=transport,
                                  max_iters=3, tol=1e-300, trace_path=str(path)))
        records = [decode(line)
                   for line in path.read_text().splitlines(keepends=True)]
        assert len(records) == res.comm["messages"] > 0
        assert not any(server in (msg.sender, msg.to) for msg in records)
        assert {msg.to for msg in records} == {SERVER_ID, 2, 3}

    @pytest.mark.parametrize("transport", ["inproc", "socket"])
    def test_one_client_fit_crosses_nothing(self, monkeypatch, tmp_path,
                                            transport):
        # with one client every record is the coordinator's own: nothing
        # is sent, counted or traced, and no socket is opened
        def no_listener(*args, **kwargs):
            raise AssertionError("a one-client fit opened a listener")

        monkeypatch.setattr(transport_module.socket, "create_server", no_listener)
        data, _ = make_instance(200, (3,), 0.3, seed=12)
        path = tmp_path / "trace.log"
        res = fit(data, FitConfig(engine="federated", transport=transport,
                                  max_iters=6000, tol=1e-12, trace_path=str(path)))
        assert res.reason == "loss"
        assert res.comm["messages"] == 0 and res.comm["bytes_total"] == 0
        assert res.comm["bytes_by_kind"] == {}
        assert path.read_bytes() == b""
        oracle = fit(data, FitConfig(engine="oracle", tol=1e-12))
        assert np.linalg.norm(res.theta.beta - oracle.theta.beta) < 1e-4

    def test_trace_files_byte_identical_across_runs(self, tmp_path):
        data, _ = make_instance(40, (2, 2), 0.3, seed=29)
        paths = []
        for run in range(2):
            path = tmp_path / f"trace_{run}.log"
            fit(data, FitConfig(engine="federated", max_iters=4, tol=1e-300,
                                trace_path=str(path)))
            paths.append(path)
        assert paths[0].read_bytes() == paths[1].read_bytes()
        assert paths[0].stat().st_size > 0

    def test_trace_contains_only_enumerated_kinds(self, tmp_path):
        data, _ = make_instance(40, (2, 2), 0.3, seed=29)
        path = tmp_path / "trace.log"
        fit(data, FitConfig(engine="federated", max_iters=3, tol=1e-300,
                            trace_path=str(path)))
        lines = path.read_text().splitlines()
        assert lines
        schema = WireSchema(data.layout, data.mask)
        for line in lines:
            msg = decode(line + "\n")
            assert msg.kind in MESSAGE_KINDS
            schema.validate(msg)

    def test_pattern_constant_statistics_travel_once_per_pattern(self):
        # heavy preset: 20 missingness patterns over 5 clients; only fits
        # and residuals may grow with the sample count
        n = 600
        data, _ = generate(smes_like_config(n=n, seed=3))
        assert len(data.mask.patterns()) == 20
        res = fit(data, FitConfig(engine="federated", max_iters=4, tol=1e-300))
        assert res.iterations == 4
        assert res.comm["bytes_total"] / (n * res.iterations) <= 1024

    def test_one_round_trip_per_iteration(self):
        # per remote client: the local fit it opens with; per iteration the
        # broadcast and the reply, which is the next local fit or, on the
        # last iteration, the step alone. Client 1's records stay in the
        # coordinator's process and are not counted
        data, _ = generate(smes_like_config(n=600, seed=3))
        R = data.layout.num_clients - 1
        res = fit(data, FitConfig(engine="federated", max_iters=4, tol=1e-300))
        assert res.iterations == 4
        assert res.comm["messages"] == 2 * R * res.iterations + R

    @pytest.mark.parametrize("transport", ["inproc", "socket"])
    @pytest.mark.parametrize("stop", ["loss", "max_iters", "diverged"])
    def test_message_flow_of_a_fit(self, tmp_path, transport, stop):
        # one opening local fit per remote client, then per iteration one
        # broadcast and one reply; the server tells the clients the last
        # iteration, so the fit ends on their step replies and needs no
        # record of its own
        data, cfg = STOP_INSTANCES[stop]()
        path = tmp_path / "trace.log"
        res = fit(data, FitConfig(engine="federated", transport=transport,
                                  trace_path=str(path), **cfg))
        assert res.reason == stop
        R, T = data.layout.num_clients - 1, res.iterations
        kinds = trace_kinds(path)
        assert kinds == {ESTEP_LOCAL_FIT: R * T, ESTEP_BROADCAST: R * T,
                         VARSTEP_SCALAR: R}
        assert res.comm["messages"] == 2 * R * T + R
        tail = [decode(line) for line in path.read_text().splitlines()[-R:]]
        assert all(msg.kind == VARSTEP_SCALAR and msg.t == T
                   and msg.to == SERVER_ID for msg in tail)
        assert sorted(msg.sender for msg in tail) == list(data.layout.clients())[1:]

    @pytest.mark.parametrize("transport", ["inproc", "socket"])
    def test_fit_once_stopped_on_a_frozen_step_converges(self, transport):
        # its coefficient step falls below 1e-10, with the loss quiet to 1e-8
        # relative, two iterations before the loss tolerance fires: the fit
        # runs on to that tolerance and converges
        data, _ = make_instance(400, (2, 1, 3), 0.3, seed=5)
        res = fit(data, FitConfig(engine="federated", transport=transport,
                                  tol=1e-10))
        assert res.reason == "loss" and res.converged
        assert res.iterations == 61
        R, T = data.layout.num_clients - 1, res.iterations
        assert res.comm["messages"] == 2 * R * T + R

    @pytest.mark.parametrize("transport", ["inproc", "socket"])
    def test_bytes_by_kind_add_up_to_the_trace(self, tmp_path, transport):
        data, _ = make_instance(60, (2, 3, 2), 0.3, seed=41)
        path = tmp_path / "trace.log"
        res = fit(data, FitConfig(engine="federated", transport=transport,
                                  max_iters=3, tol=1e-300, trace_path=str(path)))
        from_trace: dict = {}
        for line in path.read_text().splitlines(keepends=True):
            msg = decode(line)
            nbytes = len(encode(msg).encode("utf-8"))
            assert nbytes == len(line.encode("utf-8"))
            per_kind = from_trace.setdefault(msg.kind, {"to_clients": 0,
                                                        "from_clients": 0})
            per_kind["to_clients" if msg.sender == SERVER_ID
                     else "from_clients"] += nbytes
        by_kind = res.comm["bytes_by_kind"]
        assert by_kind == from_trace
        assert set(by_kind) == MESSAGE_KINDS
        assert sum(v["to_clients"] for v in by_kind.values()) \
            == res.comm["bytes_to_clients"]
        assert sum(v["from_clients"] for v in by_kind.values()) \
            == res.comm["bytes_from_clients"]
        assert sum(sum(v.values()) for v in by_kind.values()) \
            == res.comm["bytes_total"]

    def test_byte_accounting_scales_with_samples(self):
        sizes = (100, 200, 400)
        per_iter = []
        for n in sizes:
            data, _ = make_instance(n, (2, 2), 0.3, seed=50)
            res = fit(data, FitConfig(engine="federated", max_iters=2,
                                      tol=1e-300))
            per_iter.append(res.comm["bytes_total"] / res.iterations)
        growth = np.diff(per_iter) / np.diff(sizes)
        # linear growth: per-sample byte cost roughly constant
        assert growth.min() > 0
        assert growth.max() / growth.min() < 1.25


class TestHandshake:
    @pytest.mark.parametrize("hello", [b"abc\n", b"", b"2", b"+2\n", b"\xff\n",
                                       b"0\n", b"4\n", b"3\n", b"1\n"],
                             ids=["not-integer", "empty", "unterminated",
                                  "signed", "not-utf8", "below-range",
                                  "above-range", "duplicate", "server-client"])
    def test_bad_hello_is_a_protocol_error(self, hello):
        # client 2 announces itself wrongly; client 3 says "3" as it should,
        # and client 1, the coordinator's own party, never connects
        opened = []

        class BadHelloTransport(SocketTransport):
            def _client_loop(self, k, agent, host, port):
                opened.append(self)
                if k != 2:
                    return super()._client_loop(k, agent, host, port)
                with socket.create_connection((host, port)) as sock, \
                        sock.makefile("rb") as reader:
                    sock.sendall(hello)
                    sock.shutdown(socket.SHUT_WR)
                    reader.read()  # until the server hangs up

        schema = WireSchema(BlockLayout((1, 1, 1)), MissingMask(np.zeros((3, 3))))
        with pytest.raises(ProtocolDesync):
            BadHelloTransport({k: OpeningAgent(k, 3) for k in (1, 2, 3)}, schema)
        transport = opened[0]
        assert transport._listener.fileno() == -1
        # each client blocks reading until the server closes its connection,
        # and closing the transport has joined every client thread
        assert not any(th.is_alive() for th in transport._threads)

    def test_silent_connection_ends_the_handshake(self, monkeypatch):
        # client 2 connects and never says hello; the hello read must give up
        monkeypatch.setattr(transport_module, "_HELLO_TIMEOUT", 0.2,
                            raising=False)
        opened, outcome = [], []

        class SilentTransport(SocketTransport):
            def _client_loop(self, k, agent, host, port):
                opened.append(self)
                if k != 2:
                    return super()._client_loop(k, agent, host, port)
                with socket.create_connection((host, port)) as sock, \
                        sock.makefile("rb") as reader:
                    reader.read()  # until the server hangs up

        schema = WireSchema(BlockLayout((1, 1, 1)), MissingMask(np.zeros((3, 3))))

        def run():
            try:
                SilentTransport({k: OpeningAgent(k, 3) for k in (1, 2, 3)}, schema)
            except BaseException as err:
                outcome.append(err)

        runner = threading.Thread(target=run, daemon=True)
        runner.start()
        runner.join(timeout=10.0)
        assert not runner.is_alive(), "server still waiting for a hello"
        assert len(outcome) == 1 and isinstance(outcome[0], ProtocolDesync)
        transport = opened[0]
        assert transport._listener.fileno() == -1
        assert not any(th.is_alive() for th in transport._threads)

    def test_client_that_cannot_connect_ends_the_fit(self, monkeypatch):
        # the failure lands in a client thread while the server waits to
        # accept; it must surface as a protocol error, not a hang
        def refuse(*args, **kwargs):
            raise ConnectionRefusedError("refused")

        monkeypatch.setattr(transport_module.socket, "create_connection", refuse)
        data, _ = make_instance(40, (2, 2), 0.3, seed=5)
        outcome = []

        def run():
            try:
                fit(data, FitConfig(engine="federated", transport="socket"))
            except BaseException as err:
                outcome.append(err)

        runner = threading.Thread(target=run, daemon=True)
        runner.start()
        runner.join(timeout=10.0)
        assert not runner.is_alive(), "fit still waiting for the clients"
        assert len(outcome) == 1 and isinstance(outcome[0], ProtocolDesync)
        assert isinstance(outcome[0].__cause__, ConnectionRefusedError)


class TestDesync:
    def test_dropped_broadcast_detected(self):
        data, _ = make_instance(40, (2, 2), 0.3, seed=5)
        theta = initialize(data, FitConfig())
        agents, coord, transport = build_protocol(data, theta)
        send = transport.send_to_client

        def drop_broadcast_to_client_2(k, msg):
            if not (msg.kind == ESTEP_BROADCAST and k == 2):
                send(k, msg)

        transport.send_to_client = drop_broadcast_to_client_2
        coord.evaluate()
        with pytest.raises(ProtocolDesync):
            coord.advance()

    def test_client_rejects_a_record_for_another_client(self):
        data, _ = make_instance(40, (2, 2), 0.3, seed=5)
        theta = initialize(data, FitConfig())
        agents, coord, transport = build_protocol(data, theta)
        d = np.ones(len(data.mask.missing_patterns()))
        with pytest.raises(ProtocolDesync):
            agents[1].handle_message(broadcast_to(2, data.mask, 1.0, d, data.y))

    def test_crashing_socket_client_releases_the_others(self):
        data, _ = make_instance(40, (2, 2, 2), 0.3, seed=5)
        theta = initialize(data, FitConfig())
        agents, coord, transport = build_protocol(
            data, theta, transport_cls=SocketTransport)

        def crash(msg):
            raise RuntimeError("client 2 crashed")

        agents[2]._on_estep_broadcast = crash
        try:
            coord.evaluate()
            with pytest.raises(ProtocolDesync):
                coord.advance()
        finally:
            transport.close()
        # clients 1 and 3 were waiting on their connections; closing the
        # transport must end their threads, not leave them to the join timeout
        assert not any(th.is_alive() for th in transport._threads)

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    @pytest.mark.parametrize("transport_cls", [InProcessTransport, SocketTransport])
    @pytest.mark.parametrize("client", [1, 2])
    def test_non_finite_local_fit_is_a_schema_violation(self, tmp_path,
                                                        transport_cls, client):
        # client 1's records are never encoded, but still validated: its
        # non-finite opening fails as a remote client's does. The transport
        # takes the openings of client 1 and of in-process clients when it
        # is built, before it opens its trace file; a socket client fails
        # in its own thread, which the server reports as a desync when it
        # collects the openings
        data, _ = make_instance(40, (2, 2), 0.3, seed=5)
        theta = initialize(data, FitConfig())
        agents = build_agents(data, theta)
        agents[client].beta[:] = np.inf
        schema = WireSchema(data.layout, data.mask)
        path = tmp_path / "trace.log"
        if transport_cls is InProcessTransport or client == 1:
            with pytest.raises(SchemaViolation):
                transport_cls(agents, schema, trace_path=str(path))
            assert not path.exists()
            return
        transport = transport_cls(agents, schema, trace_path=str(path))
        coord = ServerCoordinator(data.y, data.layout, data.mask, theta.sigma2,
                                  transport)
        try:
            with pytest.raises(ProtocolDesync) as info:
                coord.evaluate()
        finally:
            transport.close()
        assert isinstance(info.value.__cause__, SchemaViolation)

    @pytest.mark.parametrize("transport_cls", [InProcessTransport, SocketTransport])
    def test_finished_client_accepts_nothing_more(self, transport_cls):
        # after its reply to the `last` broadcast a client takes no record:
        # its agent refuses one, and a socket client has hung up
        data, _ = make_instance(40, (2, 2, 2), 0.3, seed=5)
        theta = initialize(data, FitConfig())
        agents, coord, transport = build_protocol(data, theta,
                                                  transport_cls=transport_cls)
        d = np.ones(len(data.mask.missing_patterns()))
        try:
            coord.evaluate()
            coord.advance(last=True)
            for th in getattr(transport, "_threads", ()):
                th.join(timeout=2.0)
                assert not th.is_alive()
            for k in data.layout.clients():
                msg = broadcast_to(k, data.mask, 1.0, d, data.y, t=coord.t)
                assert agents[k].done
                with pytest.raises(ProtocolDesync):
                    agents[k].handle_message(msg)
                with pytest.raises(ProtocolDesync):
                    transport.send_to_client(k, msg)
                    transport.recv_from_client(k)
        finally:
            transport.close()

    @pytest.mark.parametrize("transport_cls", [InProcessTransport, SocketTransport])
    def test_forged_control_record_is_a_schema_violation(self, transport_cls):
        # `control` is no kind of the wire: the server cannot send one
        data, _ = make_instance(40, (2, 2), 0.3, seed=5)
        theta = initialize(data, FitConfig())
        agents, coord, transport = build_protocol(data, theta,
                                                  transport_cls=transport_cls)
        try:
            for k in data.layout.clients():
                for event in ("round_begin", "converged"):
                    with pytest.raises(SchemaViolation):
                        transport.send_to_client(
                            k, Message(0, SERVER_ID, "control", {"event": event}, to=k))
            assert transport.counters.messages == 0
        finally:
            transport.close()

    def test_forged_control_record_from_a_socket_client_rejected(self):
        # a record of a kind the wire does not have is rejected when the
        # server reads it; `encode` cannot write one, so it is forged here
        line = '{"t":0,"from":2,"to":0,"kind":"control","payload":{"event":"round_begin"}}\n'

        class ForgingTransport(SocketTransport):
            def _client_loop(self, k, agent, host, port):
                with socket.create_connection((host, port)) as sock, \
                        sock.makefile("rb") as reader:
                    sock.sendall(f"{k}\n{line}".encode())
                    reader.read()  # until the server hangs up

        data, _ = make_instance(40, (2, 2), 0.3, seed=5)
        theta = initialize(data, FitConfig())
        agents, coord, transport = build_protocol(data, theta,
                                                  transport_cls=ForgingTransport)
        try:
            with pytest.raises(SchemaViolation):
                transport.recv_from_client(2)
        finally:
            transport.close()
        assert not any(th.is_alive() for th in transport._threads)

    def test_hung_socket_client_ends_the_fit(self, monkeypatch):
        # client 2 stops answering at t = 3: the server gives up on it after
        # _REPLY_TIMEOUT seconds instead of waiting for its reply
        monkeypatch.setattr(transport_module, "_REPLY_TIMEOUT", 0.3)
        on_broadcast = ClientAgent._on_estep_broadcast
        hung, closed = [], []

        def hang_at_3(agent, msg):
            if agent.k == 2 and msg.t == 3:
                hung.append(time.perf_counter())
                time.sleep(2.0)
            return on_broadcast(agent, msg)

        close = SocketTransport.close

        def record_close(transport):
            closed.append(time.perf_counter())
            close(transport)

        monkeypatch.setattr(ClientAgent, "_on_estep_broadcast", hang_at_3)
        monkeypatch.setattr(SocketTransport, "close", record_close)
        data, _ = make_instance(60, (2, 3, 2), 0.3, seed=41)
        with pytest.raises(ProtocolDesync, match="client 2 sent no record") as info:
            fit(data, FitConfig(engine="federated", transport="socket",
                                max_iters=10, tol=1e-300))
        assert isinstance(info.value.__cause__, TimeoutError)
        # the fit failed while client 2 still hung
        assert len(hung) == 1 and closed[0] - hung[0] < 1.8

    def test_close_waits_once_for_all_hung_clients(self, monkeypatch):
        # clients 2..4 hang in their first update: the server gives up on
        # client 2 after _REPLY_TIMEOUT, and close() then waits _JOIN_TIMEOUT
        # in all, not once per hung thread (3 x 0.2 s)
        monkeypatch.setattr(transport_module, "_REPLY_TIMEOUT", 0.3)
        monkeypatch.setattr(transport_module, "_JOIN_TIMEOUT", 0.2)
        on_broadcast = ClientAgent._on_estep_broadcast
        opened, close_s = [], []
        init, close = SocketTransport.__init__, SocketTransport.close

        def hang(agent, msg):
            if agent.k != 1:
                time.sleep(1.5)
            return on_broadcast(agent, msg)

        def record_init(transport, *args, **kwargs):
            opened.append(transport)
            init(transport, *args, **kwargs)

        def timed_close(transport):
            started = time.perf_counter()
            close(transport)
            close_s.append(time.perf_counter() - started)

        monkeypatch.setattr(ClientAgent, "_on_estep_broadcast", hang)
        monkeypatch.setattr(SocketTransport, "__init__", record_init)
        monkeypatch.setattr(SocketTransport, "close", timed_close)
        data, _ = make_instance(60, (2, 2, 2, 2), 0.3, seed=41)
        try:
            with pytest.raises(ProtocolDesync, match="client 2 sent no record"):
                fit(data, FitConfig(engine="federated", transport="socket",
                                    max_iters=10, tol=1e-300))
            assert len(opened) == 1 and len(opened[0]._threads) == 3
            assert close_s and close_s[0] < 0.4
        finally:
            # the hung clients wake, find their connections closed and end
            for th in opened[0]._threads if opened else ():
                th.join(timeout=10.0)

    def test_stale_iteration_detected(self):
        data, _ = make_instance(40, (2, 2), 0.3, seed=5)
        theta = initialize(data, FitConfig())
        agents, coord, transport = build_protocol(data, theta)
        coord.evaluate()
        coord.advance()
        coord.evaluate()
        coord.t = 0  # rewind the server clock: clients expect t=1
        with pytest.raises(ProtocolDesync):
            coord.advance()


class TestCoordinatorState:
    def test_server_holds_no_covariate_vectors(self, small_instance):
        data, _ = small_instance
        theta = initialize(data, FitConfig())
        agents, coord, transport = build_protocol(data, theta)
        coord.run_iteration()
        p_dims = {data.layout.dim(k) for k in data.layout.clients()}
        for name, value in vars(coord).items():
            if isinstance(value, np.ndarray) and value.ndim == 2:
                # no (n, p_k)-shaped buffers on the coordinator
                assert not (value.shape[0] == data.n and value.shape[1] in p_dims), name
