import numpy as np
import pytest

from conftest import make_instance, rel_err

from vfem import (
    BlockLayout,
    FitConfig,
    InferenceConfig,
    InferenceReport,
    ModelParameters,
    SketchConfig,
    ThetaVectorizer,
    assemble_information,
    asymptotic_covariance,
    closed_form_m_step,
    exact_statistics,
    fit,
    generate,
    make_dataset,
    pattern_gram,
    pattern_moments,
    q_value,
    run_inference,
    sem_jacobian,
    sketch_statistics,
    smes_like_config,
)
from vfem import centralized, inference
from vfem.centralized import centred_rows, estep
from vfem.errors import NotAFixedPoint
from vfem.inference import two_sided_p


def tight_fit(data):
    return fit(data, FitConfig(engine="oracle", max_iters=50000, tol=1e-13))


def gram_at(theta, data):
    """The E-step's pattern Gram at `theta`."""
    return pattern_gram(theta, pattern_moments(data))


def stats_inputs(theta, data):
    """The per-sample reference: `estep`'s pseudo-complete blocks."""
    layout = data.layout
    cache = estep(theta, data)
    blocks = [cache.x_tilde[:, layout.block_slice(k)] for k in layout.clients()]
    mus = [theta.mu[k - 1] for k in layout.clients()]
    return cache, blocks, mus


def gram_rows(pseudo_blocks, residuals, mu_blocks):
    """The rows [X~ - 1 mu', e, 1 per client] as a (p + 1 + K, n) array."""
    return np.vstack([(blk - mu_k).T for blk, mu_k in zip(pseudo_blocks, mu_blocks)]
                     + [residuals, np.ones((len(pseudo_blocks), len(residuals)))])


def estep_rows(theta, data):
    """`gram_rows` of the per-sample E-step at `theta`."""
    cache, blocks, mus = stats_inputs(theta, data)
    return gram_rows(blocks, cache.e, mus)


def pattern_rows(gram, data):
    """The same rows as `sketch_statistics` builds them, W_g z_i on the rows
    of each pattern g."""
    p, K = data.layout.total_dim, data.layout.num_clients
    z = centred_rows(data)[0]
    rows = np.ones((p + 1 + K, data.n))
    for w, (_, members) in zip(gram.maps, data.mask.patterns()):
        rows[:p + 1, members] = w[np.r_[np.arange(p), p + 1]] @ z[members].T
    return rows


STAT_FIELDS = ("xx", "centered_xx", "xe", "xsum", "centered_xsum")


class TestVectorizer:
    def test_round_trip_full_scope(self):
        data, truth = make_instance(50, (2, 3), 0.2, seed=1)
        vec = ThetaVectorizer(data.layout, scope="full")
        v = vec.to_vector(truth.params)
        assert v.shape == (vec.dim,)
        back = vec.from_vector(v, truth.params)
        assert np.array_equal(back.beta, truth.params.beta)
        for a, b in zip(back.sigma_blocks, truth.params.sigma_blocks):
            assert np.array_equal(a, b)
        assert back.sigma2 == truth.params.sigma2

    def test_off_diagonal_coordinate_moves_both_entries(self):
        data, truth = make_instance(50, (2,), 0.0, seed=2)
        vec = ThetaVectorizer(data.layout, scope="full")
        v = vec.to_vector(truth.params)
        j = vec.vech_slices[1].start + 1  # the (2,1) lower-triangle coordinate
        v2 = v.copy()
        v2[j] += 0.01
        back = vec.from_vector(v2, truth.params)
        sig = back.sigma_blocks[0]
        assert sig[1, 0] == pytest.approx(truth.params.sigma_blocks[0][1, 0] + 0.01)
        assert sig[0, 1] == sig[1, 0]

    def test_beta_scope_pins_the_nuisance(self):
        data, truth = make_instance(200, (2, 3), 0.3, seed=3)
        theta = truth.params
        moved = closed_form_m_step(theta, data)
        vec = ThetaVectorizer(data.layout, scope="beta")
        back = vec.from_vector(vec.to_vector(moved), theta)
        assert np.array_equal(back.beta, moved.beta)
        for k in data.layout.clients():
            assert np.array_equal(back.mu[k - 1], theta.mu[k - 1])
            assert np.array_equal(back.sigma_blocks[k - 1], theta.sigma_blocks[k - 1])
        assert back.sigma2 == theta.sigma2


class TestSketches:
    def test_zero_design_gives_zero_statistics(self):
        layout = BlockLayout((2, 2))
        missing = np.zeros((30, 2), dtype=bool)
        missing[::3, 1] = True
        data = make_dataset(layout, [np.zeros((30, 2))] * 2, np.zeros(30), missing)
        theta = ModelParameters(beta=np.ones(4), mu=(np.zeros(2), np.zeros(2)),
                                sigma_blocks=(np.eye(2), np.eye(2)), sigma2=1.0)
        st = sketch_statistics(gram_at(theta, data), theta.mu, data,
                               SketchConfig(m=4, replicates=3, seed=0,
                                            exact_within_block=False))
        assert np.all(st.xx == 0) and np.all(st.xe == 0)
        assert np.all(st.centered_xx == 0)

    def test_replicate_average_consistency(self):
        # p=4, n=200: with m=32 and many replicates the estimate is close
        data, _ = make_instance(200, (2, 2), 0.3, seed=12)
        res = tight_fit(data)
        gram, mus = gram_at(res.theta, data), res.theta.mu
        exact = exact_statistics(gram, mus)
        st = sketch_statistics(gram, mus, data,
                               SketchConfig(m=32, replicates=2000, seed=5,
                                            exact_within_block=False))
        err = np.linalg.norm(st.xx - exact.xx, 2) / np.linalg.norm(exact.xx, 2)
        assert err < 0.05
        # X'1 is estimated by (S X)'(S 1), which is unbiased like X'X
        assert rel_err(st.xsum, exact.xsum) < 0.2

    def test_quadrupling_work_shrinks_squared_error_about_fourfold(self):
        data, _ = make_instance(200, (2, 2), 0.3, seed=12)
        res = tight_fit(data)
        gram, mus = gram_at(res.theta, data), res.theta.mu
        exact = exact_statistics(gram, mus)

        def med_sq_err(m, L, reps=50):
            errs = []
            for r in range(reps):
                st = sketch_statistics(
                    gram, mus, data,
                    SketchConfig(m=m, replicates=L, seed=1000 + r,
                                 exact_within_block=False))
                errs.append(np.linalg.norm(st.xx - exact.xx, "fro") ** 2
                            / np.linalg.norm(exact.xx, "fro") ** 2)
            return float(np.median(errs))

        factor = med_sq_err(8, 4) / med_sq_err(8, 16)
        assert 2.5 <= factor <= 6.0

    def test_private_sketches_bias_cross_blocks_toward_zero(self):
        data, _ = make_instance(200, (2, 2), 0.3, seed=12)
        res = tight_fit(data)
        gram, mus = gram_at(res.theta, data), res.theta.mu
        exact = exact_statistics(gram, mus)
        cross = exact.xx[0:2, 2:4]
        st_ind = sketch_statistics(gram, mus, data,
                                   SketchConfig(m=16, replicates=400, seed=3,
                                                shared=False,
                                                exact_within_block=False))
        st_sh = sketch_statistics(gram, mus, data,
                                  SketchConfig(m=16, replicates=400, seed=3,
                                               shared=True,
                                               exact_within_block=False))
        err_ind = np.linalg.norm(st_ind.xx[0:2, 2:4] - cross) / np.linalg.norm(cross)
        err_sh = np.linalg.norm(st_sh.xx[0:2, 2:4] - cross) / np.linalg.norm(cross)
        assert err_ind > 0.5          # estimate collapsed toward zero
        assert err_sh < 0.35
        assert np.linalg.norm(st_ind.xx[0:2, 2:4]) < 0.5 * np.linalg.norm(cross)

    def test_shared_sketch_residual_product_is_unbiased(self):
        # the server sketches e with the broadcast sketch the clients use
        data, _ = make_instance(200, (2, 2), 0.3, seed=12)
        res = tight_fit(data)
        gram, mus = gram_at(res.theta, data), res.theta.mu
        exact = exact_statistics(gram, mus)
        st = sketch_statistics(gram, mus, data,
                               SketchConfig(m=32, replicates=2000, seed=5,
                                            exact_within_block=False))
        assert rel_err(st.xe, exact.xe) < 0.1

    def test_private_sketch_residual_product_shrinks(self):
        # an independent server sketch of e makes xe an estimate of zero
        data, _ = make_instance(200, (2, 2), 0.3, seed=12)
        res = tight_fit(data)
        gram, mus = gram_at(res.theta, data), res.theta.mu
        exact = exact_statistics(gram, mus)
        st = sketch_statistics(gram, mus, data,
                               SketchConfig(m=16, replicates=400, seed=3,
                                            shared=False,
                                            exact_within_block=False))
        assert np.linalg.norm(st.xe) < 0.5 * np.linalg.norm(exact.xe)

    def test_hybrid_mode_pins_within_client_blocks(self):
        data, _ = make_instance(150, (2, 2), 0.3, seed=13)
        res = tight_fit(data)
        gram, mus = gram_at(res.theta, data), res.theta.mu
        exact = exact_statistics(gram, mus)
        st = sketch_statistics(gram, mus, data,
                               SketchConfig(m=4, replicates=2, seed=9,
                                            exact_within_block=True))
        for sl in (slice(0, 2), slice(2, 4)):
            assert np.allclose(st.xx[sl, sl], exact.xx[sl, sl])
            assert np.allclose(st.centered_xx[sl, sl], exact.centered_xx[sl, sl])
            assert np.allclose(st.xsum[sl], exact.xsum[sl])
            assert np.allclose(st.centered_xsum[sl], exact.centered_xsum[sl],
                               atol=1e-10 * np.linalg.norm(exact.xsum))
        assert not np.allclose(st.xx[0:2, 2:4], exact.xx[0:2, 2:4])

    def test_default_sizing_follows_sample_count(self):
        cfg = SketchConfig()
        m, L = cfg.resolve(800, 3)
        assert m == 3 * 7  # K * ceil(log n)
        assert L >= 1 and m * L <= inference._LM_CAP + m


def five_accumulator_sketch_statistics(pseudo_blocks, residuals, mu_blocks,
                                       layout, cfg):
    """The sketched statistics accumulated field by field: per replicate the
    uncentred projections S X_k, the projected ones vectors S 1 and the
    centred projections S X_k - (S 1) mu_k', with the exact within-client
    fields written over the averages in hybrid mode."""
    n = pseudo_blocks[0].shape[0]
    K, p = layout.num_clients, layout.total_dim
    m, L = cfg.resolve(n, K)
    mu = np.concatenate(mu_blocks)
    owner = np.repeat(np.arange(K), layout.client_dims)

    def draw(seed):
        rng = np.random.default_rng(seed)
        h = rng.integers(m, size=n)
        s = rng.integers(2, size=n) * 2.0 - 1.0
        return h, s, np.bincount(h, weights=s, minlength=m)

    def project(sketch, block):
        h, s, _ = sketch
        return np.stack([np.bincount(h, weights=s * col, minlength=m)
                         for col in block.T], axis=1)

    xx, cxx = np.zeros((p, p)), np.zeros((p, p))
    xe, xsum, cxsum = np.zeros(p), np.zeros(p), np.zeros(p)
    for child in np.random.SeedSequence(cfg.seed).spawn(L):
        if cfg.shared:
            sketches = [draw(child)] * (K + 1)
        else:
            sketches = [draw(sub) for sub in child.spawn(K + 1)]
        sa = np.concatenate([project(sk, blk)
                             for sk, blk in zip(sketches, pseudo_blocks)], axis=1)
        s1 = np.stack([ones for _, _, ones in sketches[:K]], axis=1)[:, owner]
        sb = sa - s1 * mu
        xx += sa.T @ sa
        cxx += sb.T @ sb
        xe += sa.T @ project(sketches[K], residuals[:, None])[:, 0]
        xsum += (sa * s1).sum(axis=0)
        cxsum += (sb * s1).sum(axis=0)
    xx, cxx = 0.5 * (xx + xx.T) / L, 0.5 * (cxx + cxx.T) / L
    xe, xsum, cxsum = xe / L, xsum / L, cxsum / L
    if cfg.exact_within_block:
        for k in layout.clients():
            sl = layout.block_slice(k)
            blk = pseudo_blocks[k - 1]
            centered = blk - mu_blocks[k - 1]
            xx[sl, sl], cxx[sl, sl] = blk.T @ blk, centered.T @ centered
            xsum[sl], cxsum[sl] = blk.sum(axis=0), centered.sum(axis=0)
    return dict(xx=xx, centered_xx=cxx, xe=xe, xsum=xsum, centered_xsum=cxsum)


def per_row_sketch_statistics(rows, exact, mu_blocks, layout, cfg):
    """`sketch_statistics` of the given rows [X~ - 1 mu', e, 1 per client]
    with one projection per row, so K projections of the ones row in shared
    mode; hybrid mode takes the within-client blocks from `exact`."""
    n, K = rows.shape[1], layout.num_clients
    m, L = cfg.resolve(n, K)
    owner = np.concatenate([np.repeat(np.arange(K), layout.client_dims),
                            [K], np.arange(K)])
    sketch_of = np.zeros_like(owner) if cfg.shared else owner
    gram = np.zeros((owner.size, owner.size))
    for child in np.random.SeedSequence(cfg.seed).spawn(L):
        draws = [child] if cfg.shared else child.spawn(K + 1)
        h, s = zip(*(inference._count_sketch(sub, n, m) for sub in draws))
        proj = np.stack([np.bincount(h[g], weights=s[g] * row, minlength=m)
                         for g, row in zip(sketch_of, rows)])
        gram += proj @ proj.T
    gram /= L
    if cfg.exact_within_block:
        for k in range(K):
            own = np.flatnonzero(owner == k)
            gram[np.ix_(own, own)] = exact[np.ix_(own, own)]
    return inference._gram_statistics(gram, list(mu_blocks), sketch_dim=m,
                                      replicates=L, shared=cfg.shared,
                                      exact_within_block=cfg.exact_within_block)


class TestOneGram:
    """Every statistic is a block of one Gram matrix; sketching it must give
    the same numbers as accumulating each statistic on its own."""

    @pytest.fixture(scope="class")
    def instances(self):
        from test_acceptance import random_battery
        out = [make_instance(n, dims, rho, seed=seed, min_complete=2)[0]
               for n, dims, rho, seed
               in random_battery(np.random.default_rng(777), 5)]
        out.append(generate(smes_like_config(n=600, seed=3))[0])
        return [(data, fit(data, FitConfig(engine="oracle")).theta) for data in out]

    @pytest.mark.parametrize("shared", [True, False])
    @pytest.mark.parametrize("hybrid", [True, False])
    def test_matches_five_accumulators(self, instances, shared, hybrid):
        for data, theta in instances:
            cfg = SketchConfig(m=6, replicates=9, seed=21, shared=shared,
                               exact_within_block=hybrid)
            st = sketch_statistics(gram_at(theta, data), theta.mu, data, cfg)
            cache, blocks, mus = stats_inputs(theta, data)
            ref = five_accumulator_sketch_statistics(blocks, cache.e, mus,
                                                     data.layout, cfg)
            for name in ("xx", "centered_xx", "xe"):
                assert rel_err(getattr(st, name), ref[name]) < 1e-12
            scale = np.linalg.norm(ref["xsum"])
            for name in ("xsum", "centered_xsum"):
                assert np.linalg.norm(getattr(st, name) - ref[name]) < 1e-12 * scale

    @pytest.mark.parametrize("shared", [True, False])
    @pytest.mark.parametrize("hybrid", [True, False])
    def test_ones_rows_projected_once_change_nothing(self, instances, shared,
                                                     hybrid):
        # projecting every row of the Gram on its own, each client's ones
        # row included, gives the same statistics bit for bit
        for data, theta in instances:
            cfg = SketchConfig(m=6, replicates=9, seed=21, shared=shared,
                               exact_within_block=hybrid)
            gram = gram_at(theta, data)
            st = sketch_statistics(gram, theta.mu, data, cfg)
            ref = per_row_sketch_statistics(
                pattern_rows(gram, data), inference._exact_gram(gram, theta.mu),
                theta.mu, data.layout, cfg)
            for name in STAT_FIELDS:
                assert np.array_equal(getattr(st, name), getattr(ref, name)), name

    def test_exact_statistics_keep_large_means(self, instances):
        # covariates and their means shifted by 1e3 (y by 1e3 sum(beta), so
        # that the residuals keep their scale); the statistics read off the
        # pattern Gram against the products of the rows it sums
        for data, theta in instances:
            layout, p = data.layout, data.layout.total_dim
            data = make_dataset(
                layout, [np.nan_to_num(data.view(k).x) + 1e3 for k in layout.clients()],
                data.y + 1e3 * theta.beta.sum(), data.mask.indicators)
            theta = theta.replace(mu=tuple(mu + 1e3 for mu in theta.mu))
            gram = gram_at(theta, data)
            st = exact_statistics(gram, theta.mu)
            rows = pattern_rows(gram, data)
            xc, e = rows[:p].T, rows[p]
            x = xc + np.concatenate(theta.mu)
            assert rel_err(st.xx, x.T @ x) < 1e-12
            assert rel_err(st.centered_xx, xc.T @ xc) < 1e-12
            assert rel_err(st.xe, x.T @ e) < 1e-12
            scale = np.linalg.norm(x.sum(axis=0))
            assert np.linalg.norm(st.xsum - x.sum(axis=0)) < 1e-12 * scale
            assert np.linalg.norm(st.centered_xsum - xc.sum(axis=0)) < 1e-12 * scale


def estep_inference(theta, data, cfg):
    """`run_inference` with the statistics, the corrections and e'e taken
    from the per-sample E-step's rows (same sketch draws)."""
    vec = ThetaVectorizer(data.layout, scope=cfg.scope)
    cache, blocks, mus = stats_inputs(theta, data)
    rows = gram_rows(blocks, cache.e, mus)
    exact = rows @ rows.T
    if cfg.stats_mode == "exact":
        stats = inference._gram_statistics(exact, list(theta.mu))
    else:
        stats = per_row_sketch_statistics(rows, exact, theta.mu, data.layout,
                                          cfg.sketch)
    info, repaired = assemble_information(stats, theta, cache.corrections,
                                          float(cache.e @ cache.e), data.n, vec)
    gamma = sem_jacobian(theta, pattern_moments(data), vec)
    return asymptotic_covariance(info, gamma, theta, data.n, vec, stats,
                                 ioc_repaired=repaired)


class TestPerSampleReference:
    """Statistics and Wald tables read off the pattern Gram against the ones
    built from the per-sample E-step's rows."""

    @pytest.fixture(scope="class")
    def instances(self):
        # default, pair, and the heavy preset, which has no complete rows
        out = [make_instance(3000, (2, 2, 2), 0.3, seed=1)[0],
               make_instance(3000, (3, 3), 0.3, seed=1)[0],
               generate(smes_like_config(n=3000, seed=1))[0]]
        assert out[2].mask.complete_rows().size == 0
        return [(data, fit(data, FitConfig(engine="oracle", max_iters=200)).theta)
                for data in out]

    @pytest.fixture(scope="class")
    def fixed_points(self):
        out = [make_instance(3000, (2, 2, 2), 0.3, seed=1)[0],
               make_instance(3000, (3, 3), 0.3, seed=1)[0]]
        return [(data, tight_fit(data).theta) for data in out]

    @pytest.mark.parametrize("shared", [True, False])
    @pytest.mark.parametrize("hybrid", [True, False])
    def test_statistics_match_estep_rows(self, instances, shared, hybrid):
        cfg = SketchConfig(m=6, replicates=9, seed=21, shared=shared,
                           exact_within_block=hybrid)
        for data, theta in instances:
            gram = gram_at(theta, data)
            rows = estep_rows(theta, data)
            exact = rows @ rows.T
            pairs = [(exact_statistics(gram, theta.mu),
                      inference._gram_statistics(exact, list(theta.mu))),
                     (sketch_statistics(gram, theta.mu, data, cfg),
                      per_row_sketch_statistics(rows, exact, theta.mu,
                                                data.layout, cfg))]
            for st, ref in pairs:
                bound = 1e-13 * np.abs(ref.xx).max()
                for name in STAT_FIELDS:
                    gap = np.abs(getattr(st, name) - getattr(ref, name)).max()
                    assert gap <= bound, name

    @pytest.mark.parametrize("scope", ["beta", "full"])
    @pytest.mark.parametrize("mode", ["exact", "sketch"])
    def test_wald_table_matches_estep_pipeline(self, fixed_points, scope, mode):
        cfg = InferenceConfig(scope=scope, stats_mode=mode)
        for data, theta in fixed_points:
            report = run_inference(theta, data, cfg)
            ref = estep_inference(theta, data, cfg)
            assert np.abs(report.std_errors / ref.std_errors - 1.0).max() <= 1e-14

    def test_run_inference_runs_no_per_sample_estep(self, fixed_points,
                                                    monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("per-sample E-step called")

        built = []

        def counted(data):
            built.append(data)
            return pattern_moments(data)

        monkeypatch.setattr(centralized, "estep", refuse)
        monkeypatch.setattr(inference, "estep", refuse)
        monkeypatch.setattr(inference, "pattern_moments", counted)
        data, theta = fixed_points[0]
        for mode in ("exact", "sketch"):
            for scope in ("beta", "full"):
                built.clear()
                report = run_inference(theta, data, InferenceConfig(
                    scope=scope, stats_mode=mode))
                assert np.all(report.std_errors > 0)
                assert len(built) == 1


def loop_information(stats, theta, corrections, resid_sumsq, n, vectorizer):
    """Full-scope information by one symmetric basis matrix E_ab per
    lower-triangle coordinate and one trace per pair of coordinates."""
    layout = vectorizer.layout
    beta, sigma2 = theta.beta, theta.sigma2
    d, p = vectorizer.dim, layout.total_dim
    info = np.zeros((d, d))
    info[:p, :p] = (stats.xx + corrections) / (n * sigma2)
    s2 = vectorizer.sigma2_index
    info[:p, s2] = info[s2, :p] = (stats.xe - corrections @ beta) / (n * sigma2 ** 2)
    expected_rss = resid_sumsq + float(beta @ corrections @ beta)
    info[s2, s2] = -0.5 / sigma2 ** 2 + expected_rss / (n * sigma2 ** 3)
    for k in layout.clients():
        pk = layout.dim(k)
        sig_inv = np.linalg.inv(theta.sigma_blocks[k - 1])
        musl, vsl = vectorizer.mu_slices[k], vectorizer.vech_slices[k]
        info[musl, musl] = sig_inv
        sl = layout.block_slice(k)
        t_k = stats.centered_xsum[sl]
        w = sig_inv @ (stats.centered_xx[sl, sl] + corrections[sl, sl])
        projected = []
        for a, b in zip(*np.tril_indices(pk)):
            basis = np.zeros((pk, pk))
            basis[a, b] = basis[b, a] = 1.0
            projected.append(sig_inv @ basis)
        for j1, p_ab in enumerate(projected):
            col = vsl.start + j1
            info[musl, col] = info[col, musl] = (p_ab @ sig_inv @ t_k) / n
            for j2, p_cd in enumerate(projected):
                info[col, vsl.start + j2] = (
                    -0.5 * np.trace(p_cd @ p_ab)
                    + 0.5 * (np.trace(p_cd @ p_ab @ w)
                             + np.trace(p_ab @ p_cd @ w)) / n)
    return 0.5 * (info + info.T)


class TestInformationMatrix:
    @pytest.fixture(scope="class")
    def instances(self):
        from test_acceptance import random_battery
        out = [make_instance(n, dims, rho, seed=seed, min_complete=2)[0]
               for n, dims, rho, seed
               in random_battery(np.random.default_rng(777), 5)]
        out.append(generate(smes_like_config(n=1000, seed=3))[0])
        out.append(make_instance(500, (1, 3, 4), 0.3, seed=21,
                                 sigma=("equicorrelated", 0.5))[0])
        return [(data, fit(data, FitConfig(engine="oracle", max_iters=300)).theta)
                for data in out]

    def test_closed_form_blocks_match_the_coordinate_loop(self, instances):
        for data, theta in instances:
            gram = gram_at(theta, data)
            stats = exact_statistics(gram, theta.mu)
            args = (stats, theta, gram.corrections, gram.resid_sumsq, data.n)
            full = ThetaVectorizer(data.layout, scope="full")
            info, repaired = assemble_information(*args, full)
            assert not repaired
            assert rel_err(info, loop_information(*args, full)) < 1e-12
            beta_info, beta_repaired = assemble_information(
                *args, ThetaVectorizer(data.layout, scope="beta"))
            assert not beta_repaired
            p = data.layout.total_dim
            assert np.array_equal(beta_info, info[:p, :p])

    def test_full_blocks_match_finite_differences(self):
        data, _ = make_instance(120, (2, 2), (0.3, 0.2), seed=9,
                                sigma=("equicorrelated", 0.4))
        res = tight_fit(data)
        theta = res.theta
        vec = ThetaVectorizer(data.layout, scope="full")
        gram = gram_at(theta, data)
        info, repaired = assemble_information(
            exact_statistics(gram, theta.mu), theta, gram.corrections,
            gram.resid_sumsq, data.n, vec)
        v0 = vec.to_vector(theta)
        h = 1e-4
        d = vec.dim

        def q_of(v):
            return q_value(vec.from_vector(v, theta), theta, data)

        hess = np.zeros((d, d))
        for i in range(d):
            for j in range(i, d):
                hi = h * (1 + abs(v0[i]))
                hj = h * (1 + abs(v0[j]))
                vpp = v0.copy(); vpp[i] += hi; vpp[j] += hj
                vpm = v0.copy(); vpm[i] += hi; vpm[j] -= hj
                vmp = v0.copy(); vmp[i] -= hi; vmp[j] += hj
                vmm = v0.copy(); vmm[i] -= hi; vmm[j] -= hj
                hess[i, j] = hess[j, i] = \
                    (q_of(vpp) - q_of(vpm) - q_of(vmp) + q_of(vmm)) / (4 * hi * hj)
        fd_info = -hess
        assert np.abs(info - fd_info).max() / np.abs(fd_info).max() < 1e-4
        assert not repaired

    def test_no_missing_beta_block_is_classical(self):
        data, _ = make_instance(100, (2, 2), 0.0, seed=10)
        res = tight_fit(data)
        vec = ThetaVectorizer(data.layout, scope="beta")
        gram = gram_at(res.theta, data)
        info, _ = assemble_information(exact_statistics(gram, res.theta.mu),
                                       res.theta, gram.corrections,
                                       gram.resid_sumsq, data.n, vec)
        x = data.full_design()
        assert np.allclose(info, x.T @ x / (data.n * res.theta.sigma2))


class TestRateMatrix:
    def test_vanishes_without_missingness(self):
        data, _ = make_instance(120, (2, 2), 0.0, seed=11)
        res = tight_fit(data)
        vec = ThetaVectorizer(data.layout, scope="beta")
        gamma = sem_jacobian(res.theta, pattern_moments(data), vec)
        assert np.linalg.norm(gamma, 2) < 1e-4

    def test_requires_a_fixed_point(self):
        data, _ = make_instance(120, (2, 2), 0.3, seed=11)
        theta = tight_fit(data).theta.replace(beta=np.ones(4))
        vec = ThetaVectorizer(data.layout, scope="beta")
        with pytest.raises(NotAFixedPoint):
            sem_jacobian(theta, pattern_moments(data), vec)

    def test_diagonal_grows_with_missing_rate(self):
        layout_dims = (2, 2, 2)
        means = []
        for rho2 in (0.1, 0.5, 0.9):
            data, _ = make_instance(1500, layout_dims, (0.0, rho2, 0.0), seed=77)
            res = tight_fit(data)
            vec = ThetaVectorizer(data.layout, scope="beta")
            gamma = sem_jacobian(res.theta, pattern_moments(data), vec)
            means.append(np.diag(gamma)[2:4].mean())
            assert np.abs(np.linalg.eigvals(gamma)).max() < 1.0
        assert means[0] < means[1] < means[2]


def per_sample_jacobian(theta_hat, data, vectorizer, base_step=1e-4,
                        fixed_point_tol=1e-6):
    """The rate matrix by the same forward differences, with every map a
    per-sample E-step and closed-form M-step."""

    def em_step(theta):
        return vectorizer.to_vector(closed_form_m_step(theta, data))

    v0 = vectorizer.to_vector(theta_hat)
    f0 = em_step(theta_hat)
    assert np.abs(f0 - v0).max() <= fixed_point_tol
    gamma = np.zeros((vectorizer.dim, vectorizer.dim))
    for i in range(vectorizer.dim):
        h_i = base_step * (1.0 + abs(float(v0[i])))
        pert = v0.copy()
        pert[i] += h_i
        gamma[i, :] = (em_step(vectorizer.from_vector(pert, theta_hat)) - f0) / h_i
    return gamma


class TestRateMatrixFromPatternMoments:
    @pytest.fixture(scope="class")
    def default_fit(self):
        data, _ = make_instance(3000, (2, 2, 2), 0.3, seed=1)
        return data, tight_fit(data).theta

    @pytest.mark.parametrize("scope", ["beta", "full"])
    def test_matches_per_sample_jacobian(self, default_fit, scope):
        data, theta = default_fit
        vec = ThetaVectorizer(data.layout, scope=scope)
        gamma = sem_jacobian(theta, pattern_moments(data), vec)
        assert np.abs(gamma - per_sample_jacobian(theta, data, vec)).max() <= 1e-8

    @pytest.mark.parametrize("scope", ["beta", "full"])
    def test_wald_table_matches_per_sample_jacobian(self, default_fit, scope,
                                                    monkeypatch):
        data, theta = default_fit
        cfg = InferenceConfig(scope=scope)
        report = run_inference(theta, data, cfg)
        monkeypatch.setattr(inference, "sem_jacobian", lambda theta_hat, moments, vec:
                            per_sample_jacobian(theta_hat, data, vec))
        ref = run_inference(theta, data, cfg)
        assert np.abs(report.std_errors / ref.std_errors - 1.0).max() <= 1e-8


class TestCovariance:
    def test_zero_rate_matrix_returns_plain_inverse(self):
        data, _ = make_instance(150, (2, 2), 0.0, seed=14)
        res = tight_fit(data)
        vec = ThetaVectorizer(data.layout, scope="beta")
        gram = gram_at(res.theta, data)
        stats = exact_statistics(gram, res.theta.mu)
        info, _ = assemble_information(stats, res.theta, gram.corrections,
                                       gram.resid_sumsq, data.n, vec)
        report = asymptotic_covariance(info, np.zeros_like(info), res.theta,
                                       data.n, vec, stats)
        assert report.stats_mode == "exact" and report.sketch_replicates == 0
        assert np.allclose(report.cov_beta, np.linalg.inv(info), rtol=1e-10)

    def test_no_missing_standard_errors_match_least_squares(self):
        data, _ = make_instance(150, (2, 2), 0.0, seed=14)
        res = tight_fit(data)
        report = run_inference(res.theta, data,
                               InferenceConfig(scope="beta", stats_mode="exact"))
        x = data.full_design()
        sigma2 = float(np.mean((data.y - x @ res.theta.beta) ** 2))
        se = np.sqrt(np.diag(sigma2 * np.linalg.inv(x.T @ x)))
        assert rel_err(report.std_errors, se) < 1e-6
        assert report.gamma_spectral_radius < 1e-6

    def test_significance_stars_follow_z(self):
        data, _ = make_instance(300, (2, 2), 0.2, seed=15)
        res = tight_fit(data)
        report = run_inference(res.theta, data,
                               InferenceConfig(scope="beta", stats_mode="exact"))
        assert np.array_equal(report.significant, np.abs(report.z_scores) > 1.959964)

    def test_p_values_follow_the_normal_tail(self):
        assert two_sided_p(np.array([0.0]))[0] == 1.0
        assert abs(two_sided_p(np.array([1.959963984540054]))[0] - 0.05) <= 1e-15
        spstats = pytest.importorskip("scipy.stats")
        z = np.linspace(-30.0, 30.0, 6001)
        ref = 2.0 * spstats.norm.sf(np.abs(z))
        assert np.all(np.abs(two_sided_p(z) - ref) <= 1e-12 * ref)

    def test_report_round_trips(self):
        data, _ = make_instance(100, (2, 2), 0.2, seed=16)
        res = tight_fit(data)
        report = run_inference(res.theta, data,
                               InferenceConfig(scope="beta", stats_mode="exact"))
        back = InferenceReport.from_json_dict(report.to_json_dict())
        assert back.names == report.names
        assert np.array_equal(back.std_errors, report.std_errors)
        assert np.array_equal(back.cov_beta, report.cov_beta)
        csv_text = report.to_csv_text()
        assert csv_text.count("\n") == len(report.names) + 1

    def test_full_scope_pipeline_runs(self):
        data, _ = make_instance(250, (2, 2), 0.3, seed=18)
        res = tight_fit(data)
        report = run_inference(res.theta, data,
                               InferenceConfig(scope="full", stats_mode="exact"))
        assert np.all(np.isfinite(report.std_errors))
        assert np.all(report.std_errors > 0)
        assert report.gamma_spectral_radius < 1.0

    def test_sketch_seed_stability(self):
        # standard errors vary little across sketch seeds at the default sizing
        data, _ = make_instance(400, (2, 2, 2), 0.3, seed=19)
        res = tight_fit(data)
        ses = []
        for seed in range(20):
            rep = run_inference(res.theta, data, InferenceConfig(
                scope="beta", stats_mode="sketch",
                sketch=SketchConfig(seed=seed)))
            ses.append(rep.std_errors)
        ses = np.asarray(ses)
        cv = ses.std(axis=0) / ses.mean(axis=0)
        assert cv.max() < 0.10
