from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import fd_beta_gradient, full_block, make_instance, rel_err

from vfem import (
    BlockLayout,
    FitConfig,
    ModelParameters,
    ThetaVectorizer,
    closed_form_m_step,
    em_map,
    initialize,
    observed_loglik,
    observed_loss,
    pattern_moments,
    q_gradient_beta,
    q_value,
    smes_like_config,
)
from vfem import generate, make_dataset
from vfem.baselines import ols
from vfem.centralized import estep
from vfem.errors import DegenerateVariance, SingularCovariance


def scalar_theta(beta=1.0, mu=0.0, var=1.0, sigma2=1.0):
    return ModelParameters(beta=np.array([beta]), mu=(np.array([mu]),),
                           sigma_blocks=(np.array([[var]]),), sigma2=sigma2)


def dataset_of_rows(layout, rows):
    """A dataset from (y, {client: block or None}) rows; None marks a
    missing block."""
    n = len(rows)
    blocks = [np.zeros((n, layout.dim(k))) for k in layout.clients()]
    mask = np.zeros((n, layout.num_clients), dtype=bool)
    for i, (_y, cells) in enumerate(rows):
        for k in layout.clients():
            if cells.get(k) is None:
                mask[i, k - 1] = True
            else:
                blocks[k - 1][i] = cells[k]
    return make_dataset(layout, blocks, np.array([y for y, _ in rows]), mask)


def conditional_block(cache, group):
    """The conditional covariance of one pattern's missing blocks, as estep
    accumulated it into the corrections; the datasets below have a single
    non-empty pattern, so nothing else adds to those entries."""
    return cache.corrections[np.ix_(group.cols, group.cols)] / group.count


def missing_group(cache):
    (group,) = [g for g in cache.patterns if g.missing]
    return group


class TestConditionalMoments:
    """Hand-computed conditional moments, read from the pattern-level
    E-step: a row's conditional mean is its row of x_tilde, and its
    pattern's conditional covariance is that pattern's corrections block."""

    def test_fully_observed_sample_has_empty_moments(self):
        theta = scalar_theta()
        data = dataset_of_rows(BlockLayout((1,)), [(1.0, {1: [0.3]}), (2.0, {1: None})])
        cache = estep(theta, data)
        (complete,) = [g for g in cache.patterns if not g.missing]
        assert complete.rows.tolist() == [0]
        assert complete.cols.shape == (0,) and complete.v4 == 0.0
        assert cache.x_tilde[0, 0] == 0.3
        assert cache.v4[0] == 0.0
        assert cache.e[0] == pytest.approx(1.0 - 0.3, abs=1e-15)

    def test_zero_coefficients_leave_marginals(self):
        # with beta zero on the missing block, y carries no information
        layout = BlockLayout((2, 2))
        theta = ModelParameters(beta=np.array([0.5, -0.5, 0.0, 0.0]),
                                mu=(np.zeros(2), np.array([1.0, 2.0])),
                                sigma_blocks=(np.eye(2), np.diag([2.0, 3.0])),
                                sigma2=1.0)
        data = dataset_of_rows(layout, [(5.0, {1: [1.0, 1.0], 2: None}),
                                        (0.0, {1: [0.0, 1.0], 2: [1.0, 1.0]})])
        cache = estep(theta, data)
        assert np.allclose(cache.x_tilde[0, 2:], [1.0, 2.0])
        assert np.allclose(conditional_block(cache, missing_group(cache)),
                           np.diag([2.0, 3.0]))

    def test_scalar_all_missing_case(self):
        # mu=0, var=1, beta=1, sigma2=1, y=2: mean 1.0, conditional var 0.5
        data = dataset_of_rows(BlockLayout((1,)), [(2.0, {1: None}), (1.0, {1: [1.0]})])
        cache = estep(scalar_theta(), data)
        group = missing_group(cache)
        assert cache.x_tilde[0, 0] == pytest.approx(1.0, abs=1e-15)
        assert conditional_block(cache, group)[0, 0] == pytest.approx(0.5, abs=1e-15)
        assert cache.alpha(group)[0] == pytest.approx(0.5, abs=1e-15)

    def test_nothing_observed_at_marginal_mean_response(self):
        # y at its marginal mean: the shrinkage term vanishes, mean = mu
        layout = BlockLayout((1, 2))
        theta = ModelParameters(beta=np.array([1.0, 2.0, -1.0]),
                                mu=(np.array([0.5]), np.array([1.0, -1.0])),
                                sigma_blocks=(np.eye(1), np.eye(2)),
                                sigma2=0.7)
        mu_y = 0.5 * 1.0 + (1.0 * 2.0 + -1.0 * -1.0)
        data = dataset_of_rows(layout, [(mu_y, {1: None, 2: None})])
        cache = estep(theta, data)
        assert np.allclose(cache.x_tilde[0], [0.5, 1.0, -1.0], atol=1e-14)

    def test_degenerate_denominator_raises(self):
        data = dataset_of_rows(BlockLayout((1,)), [(0.0, {1: None}), (1.0, {1: [1.0]})])
        with pytest.raises(DegenerateVariance):
            estep(scalar_theta(beta=0.0, sigma2=1e-14), data)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10 ** 6))
    def test_conditional_covariance_dominated_by_marginal(self, seed):
        # marginal minus conditional covariance is PSD (rank-one subtraction)
        rng = np.random.default_rng(seed)
        dims = tuple(rng.integers(1, 3, size=rng.integers(1, 4)))
        layout = BlockLayout(dims)
        p = layout.total_dim
        a_blocks = []
        for d in dims:
            a = rng.standard_normal((d, d))
            a_blocks.append(a @ a.T + 0.5 * np.eye(d))
        theta = ModelParameters(beta=rng.standard_normal(p),
                                mu=tuple(rng.standard_normal(d) for d in dims),
                                sigma_blocks=tuple(a_blocks),
                                sigma2=float(rng.uniform(0.1, 2.0)))
        missing = [k for k in layout.clients() if rng.random() < 0.6]
        if not missing:
            missing = [int(rng.integers(1, len(dims) + 1))]
        rows = [(float(rng.standard_normal()),
                 {k: None if k in missing else rng.standard_normal(layout.dim(k))
                  for k in layout.clients()})
                for _ in range(int(rng.integers(1, 4)))]
        cache = estep(theta, dataset_of_rows(layout, rows))
        group = missing_group(cache)
        marginal = np.zeros((group.cols.size, group.cols.size))
        off = 0
        for k in group.missing:
            m = layout.dim(k)
            marginal[off:off + m, off:off + m] = theta.sigma_blocks[k - 1]
            off += m
        gap = marginal - conditional_block(cache, group)
        assert np.linalg.eigvalsh(gap).min() >= -1e-10


class TestQFunction:
    def test_no_missing_matches_complete_loglik_up_to_constants(self):
        data, truth = make_instance(80, (2, 2), 0.0, seed=3)
        theta = truth.params
        x = data.full_design()
        n, p = x.shape
        resid = data.y - x @ theta.beta
        ll = -0.5 * n * np.log(2 * np.pi * theta.sigma2) \
            - 0.5 * np.sum(resid ** 2) / theta.sigma2
        for k in data.layout.clients():
            blk = x[:, data.layout.block_slice(k)] - theta.mu[k - 1]
            sig = theta.sigma_blocks[k - 1]
            sign, logdet = np.linalg.slogdet(sig)
            sol = np.linalg.solve(sig, blk.T)
            ll += -0.5 * n * (data.layout.dim(k) * np.log(2 * np.pi) + logdet) \
                - 0.5 * np.sum(blk.T * sol)
        offset = 0.5 * np.log(2 * np.pi) * (1 + p)  # constants dropped
        assert q_value(theta, theta, data) == pytest.approx(ll / n + offset,
                                                            abs=1e-9)

    def test_m_step_does_not_decrease_q(self, small_instance):
        data, truth = small_instance
        theta_t = initialize(data, FitConfig())
        new = closed_form_m_step(theta_t, data)
        assert q_value(new, theta_t, data) >= q_value(theta_t, theta_t, data) - 1e-12

    def test_gradient_matches_finite_differences(self):
        data, truth = make_instance(50, (2, 2, 2), 0.3, seed=21)
        theta_t = initialize(data, FitConfig()).replace(
            beta=np.linspace(-1.0, 1.0, 6))
        g = q_gradient_beta(theta_t, data)
        fd = fd_beta_gradient(theta_t, data)
        assert rel_err(g, fd) < 1e-6

    def test_singular_covariance_rejected(self, small_instance):
        data, _ = small_instance
        theta_t = initialize(data, FitConfig())
        bad = theta_t.replace(sigma_blocks=(
            np.zeros((2, 2)),) + theta_t.sigma_blocks[1:])
        with pytest.raises(SingularCovariance):
            q_value(bad, theta_t, data)


class TestGradient:
    def test_zero_at_least_squares_solution(self):
        data, truth = make_instance(100, (2, 3), 0.0, seed=5)
        x = data.full_design()
        beta_ls = np.linalg.solve(x.T @ x, x.T @ data.y)
        theta = initialize(data, FitConfig()).replace(beta=beta_ls)
        assert np.abs(q_gradient_beta(theta, data)).max() < 1e-10

    def test_no_missing_reduces_to_residual_projection(self):
        # with unit noise variance: g = X'(y - X beta) / n
        data, _ = make_instance(70, (2, 2), 0.0, seed=6)
        x = data.full_design()
        beta = np.array([0.3, -0.2, 0.5, 0.1])
        theta = initialize(data, FitConfig()).replace(beta=beta, sigma2=1.0)
        expected = x.T @ (data.y - x @ beta) / data.n
        assert rel_err(q_gradient_beta(theta, data), expected) < 1e-12

    def test_matches_finite_differences_random_instance(self):
        data, _ = make_instance(50, (2, 2, 2), 0.3, seed=33)
        theta_t = initialize(data, FitConfig()).replace(
            beta=np.array([0.7, -0.4, 0.1, 0.9, -0.8, 0.2]))
        assert rel_err(q_gradient_beta(theta_t, data),
                       fd_beta_gradient(theta_t, data)) < 1e-6


def exact_normal_solution(x, corrections, y):
    """beta solving (x'x + corrections) beta = x'y, with x, y and the
    corrections read as exact binary fractions and solved without rounding."""
    scale = 2 ** 1100   # times any finite float64: an integer
    cols = [[int(Fraction(float(v)) * scale) for v in col] for col in x.T]
    y_int = [int(Fraction(float(v)) * scale) for v in y]
    p = len(cols)
    a = [[Fraction(sum(map(int.__mul__, cols[i], cols[j])), scale * scale)
          + Fraction(float(corrections[i, j])) for j in range(p)] for i in range(p)]
    b = [Fraction(sum(map(int.__mul__, cols[i], y_int)), scale * scale)
         for i in range(p)]
    for j in range(p):                   # Gaussian elimination, exact
        for i in range(j + 1, p):
            f = a[i][j] / a[j][j]
            a[i] = [a_ic - f * a_jc for a_ic, a_jc in zip(a[i], a[j])]
            b[i] -= f * b[j]
    beta = [Fraction(0)] * p
    for j in reversed(range(p)):
        beta[j] = (b[j] - sum(a[j][c] * beta[c] for c in range(j + 1, p))) / a[j][j]
    return np.array([float(v) for v in beta])


class TestMStep:
    def test_no_missing_fixed_point_reproduces_least_squares(self):
        data, _ = make_instance(90, (2, 2), 0.0, seed=8)
        x = data.full_design()
        f = ols(x, data.y)
        theta_t = initialize(data, FitConfig()).replace(beta=f.beta)
        new = closed_form_m_step(theta_t, data)
        assert rel_err(new.beta, f.beta) < 1e-10
        assert new.sigma2 == pytest.approx(f.sigma2_mle, rel=1e-10)

    def test_sigma2_update_uses_iteration_start_coefficients(self):
        data, _ = make_instance(90, (2, 2), 0.0, seed=8)
        x = data.full_design()
        beta_t = np.array([0.1, 0.2, -0.3, 0.4])
        theta_t = initialize(data, FitConfig()).replace(beta=beta_t)
        new = closed_form_m_step(theta_t, data)
        assert new.sigma2 == pytest.approx(
            float(np.mean((data.y - x @ beta_t) ** 2)), rel=1e-12)

    def test_update_zeroes_gradient_in_beta(self):
        for seed in range(4):
            data, _ = make_instance(60, (2, 1, 2), 0.35, seed=40 + seed)
            theta_t = initialize(data, FitConfig())
            cache = estep(theta_t, data)
            new = closed_form_m_step(theta_t, data, cache)
            raw = cache.x_tilde.T @ (data.y - cache.x_tilde @ new.beta) \
                - cache.corrections @ new.beta
            assert np.abs(raw / (data.n * theta_t.sigma2)).max() < 1e-8

    def test_oracle_and_first_order_share_stationary_points(self):
        from vfem import fit
        data, _ = make_instance(500, (4, 3, 3), 0.3, seed=77)
        r1 = fit(data, FitConfig(engine="oracle", tol=1e-12))
        r2 = fit(data, FitConfig(engine="federated", tol=1e-12, max_iters=4000))
        assert np.linalg.norm(r1.theta.beta - r2.theta.beta) < 1e-4

    def test_large_covariate_means_keep_beta_to_rounding(self):
        # every covariate shifted by +1e6 and y consistently: the uncentred
        # normal equations have condition number ~6e12, enough to cost an
        # uncentred float64 solve ~5e-4 of beta, and a longdouble one ~1e-6.
        # The reference solves the same system in exact rational arithmetic.
        data, truth = make_instance(2000, (2, 2, 2), 0.3, seed=5)
        shift = 1e6
        blocks = [full_block(data.view(k)) + shift for k in data.layout.clients()]
        y = data.y + shift * truth.params.beta.sum()
        data = make_dataset(data.layout, blocks, y, data.mask.indicators)
        theta = truth.params.replace(mu=tuple(m + shift for m in truth.params.mu))
        cache = estep(theta, data)
        gram = cache.x_tilde.T @ cache.x_tilde + cache.corrections
        assert np.linalg.cond(gram) > 1e12
        exact = exact_normal_solution(cache.x_tilde, cache.corrections, data.y)
        assert rel_err(closed_form_m_step(theta, data, cache).beta, exact) <= 1e-10
        assert rel_err(em_map(theta, pattern_moments(data)).beta, exact) <= 1e-10

    def test_constant_covariate_column_solves_exactly(self):
        # an intercept-like column centres to zero; beta still solves the
        # uncentred system to rounding, with no ridge
        data, _ = make_instance(500, (2, 2), (0.0, 0.3), seed=3)
        blocks = [full_block(v) for v in data.clients]
        blocks[0][:, 0] = 1.0
        data = make_dataset(data.layout, blocks, data.y + 2.0, data.mask.indicators)
        theta = moved_theta(data)
        cache = estep(theta, data)
        exact = exact_normal_solution(cache.x_tilde, cache.corrections, data.y)
        assert rel_err(closed_form_m_step(theta, data, cache).beta, exact) <= 1e-10
        assert rel_err(em_map(theta, pattern_moments(data)).beta, exact) <= 1e-10


class TestObservedLoss:
    def test_zero_when_exact_fit_no_missing(self):
        assert observed_loss(np.zeros(5), np.zeros(5)) == 0.0

    def test_simple_arithmetic(self):
        assert observed_loss(np.array([1.0, 1.0]), np.zeros(2)) == 1.0

    def test_equals_noise_variance_update(self, small_instance):
        data, _ = small_instance
        theta_t = initialize(data, FitConfig())
        cache = estep(theta_t, data)
        new = closed_form_m_step(theta_t, data, cache)
        assert observed_loss(cache.e, cache.v4) == pytest.approx(new.sigma2,
                                                                 rel=1e-12)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            observed_loss(np.zeros(3), np.zeros(4))


class TestObservedLoglik:
    def test_em_iterations_never_decrease_it(self):
        data, _ = make_instance(120, (2, 2, 2), 0.4, seed=13)
        theta = initialize(data, FitConfig())
        values = []
        for _ in range(15):
            values.append(observed_loglik(theta, data))
            theta = closed_form_m_step(theta, data)
        diffs = np.diff(values)
        assert np.all(diffs >= -1e-9)


def map_gaps(data, theta, nuisance_free):
    """Relative gaps, per parameter group, between `em_map` on the pattern
    moments and the per-sample closed-form step; with `nuisance_free` both
    are read in the beta-scope coordinates, which pin the rest at theta."""
    new = em_map(theta, pattern_moments(data))
    ref = closed_form_m_step(theta, data)
    if nuisance_free:
        vec = ThetaVectorizer(data.layout, scope="beta")
        new = vec.from_vector(vec.to_vector(new), theta)
        ref = vec.from_vector(vec.to_vector(ref), theta)
    return {
        "beta": rel_err(new.beta, ref.beta),
        "mu": max(rel_err(a, b) for a, b in zip(new.mu, ref.mu)),
        "sigma_blocks": max(rel_err(a, b) for a, b in
                            zip(new.sigma_blocks, ref.sigma_blocks)),
        "sigma2": rel_err(new.sigma2, ref.sigma2),
    }


def moved_theta(data, steps=2):
    """A generic parameter point: a few closed-form steps from the start."""
    theta = initialize(data, FitConfig())
    for _ in range(steps):
        theta = closed_form_m_step(theta, data)
    return theta


class TestEmMapFromPatternMoments:
    @pytest.mark.parametrize("nuisance_free", [False, True])
    def test_matches_per_sample_step_on_random_battery(self, nuisance_free):
        from test_acceptance import random_battery
        for n, dims, rho, seed in random_battery(np.random.default_rng(777), 20):
            data, _ = make_instance(n, dims, rho, seed=seed, min_complete=2)
            gaps = map_gaps(data, moved_theta(data), nuisance_free)
            assert max(gaps.values()) <= 1e-12, (dims, seed, gaps)

    @pytest.mark.parametrize("nuisance_free", [False, True])
    def test_matches_per_sample_step_on_heavy_preset(self, nuisance_free):
        data, _ = generate(smes_like_config(n=1000, seed=3))
        assert len(data.mask.patterns()) > 10
        gaps = map_gaps(data, moved_theta(data), nuisance_free)
        assert max(gaps.values()) <= 1e-12, gaps

    @pytest.mark.parametrize("nuisance_free", [False, True])
    def test_matches_per_sample_step_without_missingness(self, nuisance_free):
        data, _ = make_instance(500, (2, 3), 0.0, seed=4)
        assert len(pattern_moments(data).missing) == 1
        gaps = map_gaps(data, moved_theta(data), nuisance_free)
        assert max(gaps.values()) <= 1e-12, gaps

    @pytest.mark.parametrize("nuisance_free", [False, True])
    def test_large_covariate_means_do_not_cancel(self, nuisance_free):
        # every covariate shifted by +1e6: the centred moments keep the
        # means, covariances and noise variance to 1e-9. Here beta is checked
        # by its residual in the uncentred per-sample equations (condition
        # number ~6e12); TestMStep checks it against an exact solve.
        data, truth = make_instance(2000, (2, 2, 2), 0.3, seed=5)
        shift = 1e6
        blocks = [full_block(data.view(k)) + shift for k in data.layout.clients()]
        data = make_dataset(data.layout, blocks, data.y, data.mask.indicators)
        theta = truth.params.replace(mu=tuple(m + shift for m in truth.params.mu))
        gaps = map_gaps(data, theta, nuisance_free)
        assert max(gaps["mu"], gaps["sigma_blocks"], gaps["sigma2"]) <= 1e-9, gaps

        cache = estep(theta, data)
        gram = cache.x_tilde.T @ cache.x_tilde + cache.corrections
        beta = em_map(theta, pattern_moments(data)).beta
        residual = gram @ beta - cache.x_tilde.T @ data.y
        backward = np.linalg.norm(residual) / (np.linalg.norm(gram) * np.linalg.norm(beta))
        assert backward <= 1e-12

    def test_degenerate_denominator_raises_on_both_paths(self, small_instance):
        data, _ = small_instance
        theta = initialize(data, FitConfig()).replace(
            beta=np.zeros(data.layout.total_dim), sigma2=1e-13)
        with pytest.raises(DegenerateVariance):
            closed_form_m_step(theta, data)
        with pytest.raises(DegenerateVariance):
            em_map(theta, pattern_moments(data))
