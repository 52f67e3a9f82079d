import dataclasses

import numpy as np
import pytest

from conftest import make_instance, rel_err

from vfem import (
    BlockLayout,
    FitConfig,
    FitResult,
    GenConfig,
    fit,
    generate,
    initialize,
    make_dataset,
    plug_in_learning_rate,
    predict,
)
import vfem.engine as engine_module
from vfem.errors import (
    ConfigError,
    DegenerateVariance,
    InsufficientCompleteCases,
    InsufficientData,
)


class TestFitConfig:
    def test_validation(self):
        with pytest.raises(ConfigError):
            FitConfig(max_iters=0)
        with pytest.raises(ConfigError):
            FitConfig(tol=0.0)
        with pytest.raises(ConfigError):
            FitConfig(learning_rate=-1.0)
        with pytest.raises(ConfigError):
            FitConfig(engine="mystery")
        with pytest.raises(ConfigError):
            FitConfig(init="warm")
        for patience in (0, -1):
            with pytest.raises(ConfigError):
                FitConfig(divergence_patience=patience)


class TestInitialize:
    def test_fully_observed_moments(self):
        data, truth = make_instance(200, (2, 2), 0.0, seed=1)
        theta0 = initialize(data, FitConfig())
        for k in data.layout.clients():
            x = data.view(k).x
            assert np.allclose(theta0.mu[k - 1], x.mean(axis=0))
            centered = x - x.mean(axis=0)
            assert np.allclose(theta0.sigma_blocks[k - 1],
                               centered.T @ centered / data.n)
        assert theta0.sigma2 == pytest.approx(np.mean((data.y - data.y.mean()) ** 2))
        assert np.all(theta0.beta == 0.0)

    def test_observed_row_divisor_is_count(self):
        data, _ = make_instance(300, (2, 2), 0.5, seed=2)
        theta0 = initialize(data, FitConfig())
        rows = data.mask.observed_rows(1)
        x = data.view(1).x[rows]
        centered = x - x.mean(axis=0)
        assert np.allclose(theta0.sigma_blocks[0],
                           centered.T @ centered / rows.size)

    def test_constant_response_rejected(self):
        layout = BlockLayout((1,))
        data = make_dataset(layout, [np.arange(5.0).reshape(5, 1)],
                            np.ones(5), np.zeros((5, 1), dtype=bool))
        with pytest.raises(DegenerateVariance):
            initialize(data, FitConfig())

    def test_too_few_observed_rows_rejected(self):
        layout = BlockLayout((1, 1))
        mask = np.zeros((5, 2), dtype=bool)
        mask[1:, 1] = True  # client 2 observes a single row
        data = make_dataset(layout, [np.random.default_rng(0).normal(size=(5, 1)),
                                     np.ones((5, 1))],
                            np.arange(5.0), mask)
        with pytest.raises(InsufficientData):
            initialize(data, FitConfig())

    def test_complete_case_start_needs_complete_rows(self):
        data, _ = make_instance(40, (2, 2, 2), 0.7, seed=3)
        if data.mask.complete_rows().size >= 8:
            pytest.skip("mask draw left enough complete rows")
        with pytest.raises(InsufficientCompleteCases):
            initialize(data, FitConfig(init="cc-ols"))

    def test_masking_rate_bookkeeping(self):
        data, truth = make_instance(20000, (2, 2), (0.3, 0.6), seed=42)
        assert data.mask.rate(1) == pytest.approx(0.3, abs=0.02)
        assert data.mask.rate(2) == pytest.approx(0.6, abs=0.02)


class TestFit:
    def test_oracle_reaches_least_squares_in_one_step(self):
        data, _ = make_instance(150, (2, 2), 0.0, seed=4)
        x = data.full_design()
        beta_ls = np.linalg.solve(x.T @ x, x.T @ data.y)
        res = fit(data, FitConfig(engine="oracle", max_iters=3, tol=1e-300))
        # the first maximization already lands on the solution
        assert rel_err(res.theta.beta, beta_ls) < 1e-10

    def test_federated_converges_to_least_squares(self):
        data, _ = make_instance(150, (2, 2), 0.0, seed=4)
        x = data.full_design()
        beta_ls = np.linalg.solve(x.T @ x, x.T @ data.y)
        res = fit(data, FitConfig(engine="federated", max_iters=2000, tol=1e-13))
        assert np.linalg.norm(res.theta.beta - beta_ls) < 1e-6

    def test_engines_share_stationary_point_with_missingness(self):
        battery = [
            (500, (4, 3, 3), 0.3, 7),
            (300, (2, 2), (0.2, 0.45), 8),
            (250, (1, 3, 2), 0.4, 9),
            (400, (2, 2, 2, 2), 0.25, 10),
        ]
        for n, dims, rho, seed in battery:
            gen = GenConfig(n=n, layout=BlockLayout(dims), rho=rho, seed=seed)
            data, truth = generate(gen)
            r_fed = fit(data, FitConfig(engine="federated", max_iters=6000,
                                        tol=1e-12))
            r_orc = fit(data, FitConfig(engine="oracle", tol=1e-12))
            assert np.linalg.norm(r_fed.theta.beta - r_orc.theta.beta) < 1e-4

    def test_loss_trace_matches_iterations_and_convergence_flag(self):
        data, _ = make_instance(100, (2, 2), 0.3, seed=8)
        res = fit(data, FitConfig(engine="oracle", tol=1e-9))
        assert res.loss_trace.shape == (res.iterations,)
        assert res.converged
        assert abs(res.loss_trace[-1] - res.loss_trace[-2]) < 1e-9

    def test_robust_to_initialization(self):
        data, _ = make_instance(400, (2, 2, 2), 0.45, seed=9)
        res_zero = fit(data, FitConfig(engine="oracle", tol=1e-12, init="zeros"))
        res_cc = fit(data, FitConfig(engine="oracle", tol=1e-12, init="cc-ols"))
        assert np.linalg.norm(res_zero.theta.beta - res_cc.theta.beta) < 1e-4

    def test_user_supplied_start(self):
        data, truth = make_instance(100, (2, 2), 0.2, seed=10)
        res = fit(data, FitConfig(engine="oracle", tol=1e-10,
                                  init=truth.params.beta))
        assert res.converged

    def test_plug_in_rate_uses_covariance_spectrum(self):
        data, _ = make_instance(500, (2, 2), 0.0, seed=11)
        theta0 = initialize(data, FitConfig())
        eta = plug_in_learning_rate(theta0)
        eigs = np.concatenate([np.linalg.eigvalsh(s)
                               for s in theta0.sigma_blocks])
        assert eta == pytest.approx(2.0 / (eigs.max() + eigs.min()))

    def test_result_round_trips_through_json(self):
        data, _ = make_instance(80, (2, 2), 0.3, seed=12)
        res = fit(data, FitConfig(engine="federated", max_iters=5, tol=1e-300))
        back = FitResult.from_json_dict(res.to_json_dict())
        assert np.array_equal(back.theta.beta, res.theta.beta)
        assert np.array_equal(back.loss_trace, res.loss_trace)
        assert back.comm == res.comm
        assert back.converged == res.converged


class TestPredict:
    def test_fully_observed_row_is_linear_fit(self):
        data, truth = make_instance(50, (2, 2), 0.0, seed=13)
        pred = predict(truth.params, data)
        x = data.full_design()
        assert np.allclose(pred.y_hat, x @ truth.params.beta)
        assert pred.mse is not None

    def test_fully_missing_row_uses_marginal_means(self):
        layout = BlockLayout((2,))
        mask = np.array([[True], [False]])
        x = np.array([[0.0, 0.0], [1.0, 2.0]])
        data = make_dataset(layout, [x], np.array([0.5, 1.0]), mask)
        theta_mu = np.array([3.0, -1.0])
        beta = np.array([2.0, 1.0])
        from vfem import ModelParameters
        theta = ModelParameters(beta=beta, mu=(theta_mu,),
                                sigma_blocks=(np.eye(2),), sigma2=1.0)
        pred = predict(theta, data)
        assert pred.y_hat[0] == pytest.approx(theta_mu @ beta)
        assert pred.y_hat[1] == pytest.approx(np.array([1.0, 2.0]) @ beta)


class TestDivergenceGuard:
    def test_oversized_step_recovers_via_halving(self):
        data, _ = make_instance(200, (2, 2), 0.3, seed=14)
        res = fit(data, FitConfig(engine="federated", max_iters=1500, tol=1e-9,
                                  learning_rate=5.0, divergence_patience=5))
        assert res.eta_halvings >= 1
        assert np.isfinite(res.loss_trace[res.loss_trace > 0][-1])
        assert res.converged

    def test_rising_oracle_loss_restores_the_best_iterate(self, monkeypatch):
        # the oracle has no step to halve: a loss that keeps rising ends the
        # fit at its best iterate instead of running out the budget
        real = engine_module.em_map

        def inflated(theta, moments):
            new = real(theta, moments)
            return dataclasses.replace(new, sigma2=10.0 * new.sigma2)

        monkeypatch.setattr(engine_module, "em_map", inflated)
        data, _ = make_instance(200, (2, 2), 0.3, seed=14)
        cfg = FitConfig(engine="oracle", init="cc-ols", max_iters=200)
        snaps = []
        res = fit(data, cfg, inspect=snaps.append)
        assert res.reason == "diverged" and not res.converged
        assert res.iterations <= cfg.divergence_patience + 1
        assert np.all(np.diff(res.loss_trace) > 0)
        best = snaps[int(np.argmin(res.loss_trace))].theta
        assert np.array_equal(res.theta.beta, best.beta)
        assert res.theta.sigma2 == best.sigma2
        for got, want in zip(res.theta.mu + res.theta.sigma_blocks,
                             best.mu + best.sigma_blocks):
            assert np.array_equal(got, want)
