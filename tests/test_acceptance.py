"""End-to-end acceptance checks.

One test per criterion; each prints a single `ACCEPTANCE <n> PASS` line with
its headline numbers (visible with `pytest -s` or in the `-rA` summary).
Stated runtime budgets are asserted alongside the numerical tolerances.
"""

import time

import numpy as np
import pytest

from conftest import fd_beta_gradient, make_instance, moments_gap, rel_err

from vfem import (
    BaselineKind,
    BlockLayout,
    FitConfig,
    GenConfig,
    InferenceConfig,
    MonteCarloSpec,
    SketchConfig,
    ThetaVectorizer,
    closed_form_m_step,
    exact_statistics,
    fit,
    generate,
    initialize,
    monte_carlo,
    pattern_gram,
    pattern_moments,
    q_gradient_beta,
    run_baseline,
    run_inference,
    sem_jacobian,
    sketch_statistics,
    smes_like_config,
)
from vfem.baselines import ols
from vfem.centralized import estep, observed_loss
from vfem.cli import main as cli_main
from vfem.errors import InsufficientCompleteCases, SchemaViolation
from vfem.messages import (
    ESTEP_LOCAL_FIT,
    MESSAGE_KINDS,
    Message,
    WireSchema,
    decode,
)


def report(num, text):
    print(f"\nACCEPTANCE {num} PASS: {text}")


def random_battery(rng, count, n_max=500, p_max=12, k_max=5, rho_max=0.5):
    out = []
    for _ in range(count):
        k = int(rng.integers(2, k_max + 1))
        dims = tuple(int(d) for d in rng.integers(1, 4, size=k))
        while sum(dims) > p_max:
            dims = dims[:-1]
        n = int(rng.integers(60, n_max + 1))
        rho = tuple(float(r) for r in rng.uniform(0.05, rho_max, size=len(dims)))
        out.append((n, dims, rho, int(rng.integers(0, 10 ** 6))))
    return out


def test_criterion_01_least_squares_reduction():
    started = time.perf_counter()
    data, _ = make_instance(1000, (3, 3, 2, 2), 0.0, seed=101)
    x = data.full_design()
    f = ols(x, data.y)
    se_mle = np.sqrt(np.diag(f.sigma2_mle * np.linalg.inv(x.T @ x)))

    worst_beta, worst_se = 0.0, 0.0
    for engine in ("oracle", "federated"):
        res = fit(data, FitConfig(engine=engine, tol=1e-13, max_iters=3000))
        worst_beta = max(worst_beta,
                         float(np.linalg.norm(res.theta.beta - f.beta)))
        rep = run_inference(res.theta, data,
                            InferenceConfig(scope="beta", stats_mode="exact"))
        worst_se = max(worst_se,
                       float(np.abs(rep.std_errors / se_mle - 1.0).max()))
    elapsed = time.perf_counter() - started
    assert worst_beta < 1e-6
    assert worst_se < 1e-6
    assert elapsed < 5.0
    report(1, f"both engines at the least-squares solution "
              f"(beta gap {worst_beta:.2e}, SE gap {worst_se:.2e}, {elapsed:.1f}s)")


def test_criterion_02_lossless_federation():
    started = time.perf_counter()
    rng = np.random.default_rng(777)
    battery = random_battery(rng, 20)
    worst = 0.0
    for case_idx, (n, dims, rho, seed) in enumerate(battery):
        data, _ = make_instance(n, dims, rho, seed=seed, min_complete=2)
        layout = data.layout
        for transport in ("inproc", "socket"):
            snaps = []
            res = fit(data, FitConfig(engine="federated", transport=transport,
                                      max_iters=4, tol=1e-300),
                      inspect=snaps.append)
            for step, snap in enumerate(snaps):
                cache = estep(snap.theta, data)
                # no party forms x~ on a client's missing rows: each client's
                # moments of its block, and the two sums it was sent
                worst = max(worst, moments_gap(snap.moments, cache, layout))
                worst = max(worst, rel_err(snap.e, cache.e))
                worst = max(worst, rel_err(
                    snap.grad, q_gradient_beta(snap.theta, data, cache)))
                worst = max(worst, abs(snap.sigma2_new
                                       - observed_loss(cache.e, cache.v4))
                            / cache.theta.sigma2)
                for k in layout.clients():
                    rows, arr = snap.alpha[k]
                    ref = np.zeros_like(arr)
                    for g in cache.patterns:
                        if k in g.missing:
                            off = sum(layout.dim(j) for j in g.missing if j < k)
                            ref[np.searchsorted(rows, g.rows)] = \
                                cache.alpha(g)[off:off + layout.dim(k)]
                    if arr.size:
                        worst = max(worst, rel_err(arr, ref, floor=1e-12))
                # the parameter updates themselves: the next snapshot (or the
                # final result) must equal the centrally computed update
                central = closed_form_m_step(snap.theta, data, cache)
                nxt = snaps[step + 1].theta if step + 1 < len(snaps) else res.theta
                expected_beta = snap.theta.beta + res.eta * (
                    snap.theta.sigma2 * np.asarray(snap.grad))
                worst = max(worst, rel_err(nxt.beta, expected_beta))
                for k in layout.clients():
                    worst = max(worst, rel_err(nxt.mu[k - 1],
                                               central.mu[k - 1]))
                    worst = max(worst, rel_err(nxt.sigma_blocks[k - 1],
                                               central.sigma_blocks[k - 1]))
                worst = max(worst, abs(nxt.sigma2 - central.sigma2)
                            / central.sigma2)
    elapsed = time.perf_counter() - started
    assert worst < 1e-10
    assert elapsed < 60.0
    report(2, f"20 instances x 2 transports lockstep with centralized kernels "
              f"(worst rel err {worst:.2e}, {elapsed:.1f}s)")


def test_criterion_03_gradient_matches_finite_differences():
    rng = np.random.default_rng(333)
    worst = 0.0
    for n, dims, rho, seed in random_battery(rng, 10, n_max=200, p_max=8):
        data, _ = make_instance(n, dims, rho, seed=seed)
        theta = initialize(data, FitConfig()).replace(
            beta=rng.uniform(-1, 1, size=sum(dims)))
        worst = max(worst, rel_err(q_gradient_beta(theta, data),
                                   fd_beta_gradient(theta, data)))
    assert worst < 1e-6
    report(3, f"gradient vs central differences on 10 instances "
              f"(worst rel err {worst:.2e})")


def test_criterion_04_m_step_zeroes_the_gradient():
    rng = np.random.default_rng(444)
    worst = 0.0
    for n, dims, rho, seed in random_battery(rng, 10, n_max=300, p_max=10):
        data, _ = make_instance(n, dims, rho, seed=seed)
        theta = initialize(data, FitConfig()).replace(
            beta=rng.uniform(-1, 1, size=sum(dims)))
        cache = estep(theta, data)
        new = closed_form_m_step(theta, data, cache)
        raw = cache.x_tilde.T @ (data.y - cache.x_tilde @ new.beta) \
            - cache.corrections @ new.beta
        worst = max(worst, float(np.abs(raw / (data.n * theta.sigma2)).max()))
    assert worst < 1e-8
    report(4, f"closed-form update zeroes the gradient on 10 instances "
              f"(worst |g|_inf {worst:.2e})")


def test_criterion_05_convergence_geometry():
    started = time.perf_counter()
    layout_dims = (3, 3, 2)
    beta_star = 3.0 * np.array([1, -1, 1, -1, 1, -1, 1, -1.0])

    cvs, lens = [], []
    for seed in range(10):
        data, truth = make_instance(2000, layout_dims, 0.3, seed=100 + seed,
                                    beta=beta_star)
        errs = []
        fit(data, FitConfig(engine="federated", max_iters=120, tol=1e-12,
                            learning_rate=0.3),
            inspect=lambda s: errs.append(
                np.linalg.norm(s.theta.beta - truth.params.beta)))
        errs = np.asarray(errs)
        floor = errs[-1]
        ratios = errs[1:] / errs[:-1]
        keep = (np.arange(len(ratios)) >= 2) & (errs[:-1] > 10 * floor)
        phase = ratios[keep]
        assert phase.size >= 3
        assert np.all(phase < 1.0)
        # the trace flattens at the floor afterwards
        assert errs[-1] < 0.25 and errs[-1] > 1e-3
        cvs.append(float(phase.std() / phase.mean()))
        lens.append(phase.size)
    assert max(cvs) < 0.3

    def mean_floor(n, reps=100):
        vals = []
        for r in range(reps):
            data, truth = make_instance(n, layout_dims, 0.3, seed=5000 + r)
            res = fit(data, FitConfig(engine="oracle", tol=1e-10))
            vals.append(np.linalg.norm(res.theta.beta - truth.params.beta))
        return float(np.mean(vals))

    ratio = mean_floor(2000) / mean_floor(4000)
    assert np.sqrt(2.0) * 0.8 <= ratio <= np.sqrt(2.0) * 1.2
    elapsed = time.perf_counter() - started
    assert elapsed < 180.0
    report(5, f"linear contraction (max CV {max(cvs):.3f} over >= {min(lens)} "
              f"ratios) and floor ratio {ratio:.3f} ~ sqrt(2) ({elapsed:.0f}s)")


def test_criterion_06_wald_interval_coverage():
    started = time.perf_counter()
    gen = GenConfig(n=800, layout=BlockLayout((2, 2, 2)), rho=0.3, seed=0)
    spec = MonteCarloSpec(
        reps=200, gen=gen, methods=("vfem",),
        fit=FitConfig(engine="oracle", tol=1e-10),
        inference=InferenceConfig(scope="beta", stats_mode="sketch"),
        test_fraction=0.0,
        seed=20240501)
    summary = monte_carlo(spec)
    coverage = float(np.mean(summary.methods["vfem"].coverage))
    elapsed = time.perf_counter() - started
    assert summary.methods["vfem"].reps_ok == 200
    assert 0.90 <= coverage <= 0.98
    assert elapsed < 600.0
    report(6, f"95% Wald coverage {coverage:.3f} over 200 replicates "
              f"({elapsed:.0f}s)")


def test_criterion_07_sketch_error_scaling():
    started = time.perf_counter()
    data, _ = make_instance(200, (2, 2), 0.3, seed=12)
    res = fit(data, FitConfig(engine="oracle", tol=1e-12))
    gram, mus = pattern_gram(res.theta, pattern_moments(data)), res.theta.mu
    exact = exact_statistics(gram, mus)

    def median_rel_sq_err(m, L, shared, reps=50):
        errs = []
        for r in range(reps):
            st = sketch_statistics(gram, mus, data,
                                   SketchConfig(m=m, replicates=L,
                                                seed=1000 + r, shared=shared,
                                                exact_within_block=False))
            errs.append(np.linalg.norm(st.xx - exact.xx, "fro") ** 2
                        / np.linalg.norm(exact.xx, "fro") ** 2)
        return float(np.median(errs))

    base = median_rel_sq_err(8, 4, shared=True)
    quad = median_rel_sq_err(8, 16, shared=True)
    factor = base / quad
    assert 2.5 <= factor <= 6.0

    # the paper-literal private-sketch variant: cross-client blocks collapse
    cross = exact.xx[0:2, 2:4]
    st_ind = sketch_statistics(gram, mus, data,
                               SketchConfig(m=16, replicates=400, seed=3,
                                            shared=False,
                                            exact_within_block=False))
    bias_err = np.linalg.norm(st_ind.xx[0:2, 2:4] - cross) / np.linalg.norm(cross)
    shrunk = np.linalg.norm(st_ind.xx[0:2, 2:4]) / np.linalg.norm(cross)
    assert bias_err > 0.5 and shrunk < 0.5
    elapsed = time.perf_counter() - started
    assert elapsed < 120.0
    report(7, f"quadrupling sketch work cut median squared error by {factor:.2f}x; "
              f"private sketches shrink cross blocks to {shrunk:.2f} of truth "
              f"({elapsed:.0f}s)")


def test_criterion_08_rate_matrix_sanity():
    # no missingness: the EM map is one-shot and the rate matrix vanishes
    data0, _ = make_instance(150, (2, 2, 2), 0.0, seed=55)
    res0 = fit(data0, FitConfig(engine="oracle", tol=1e-13))
    vec0 = ThetaVectorizer(data0.layout, scope="beta")
    gamma0 = sem_jacobian(res0.theta, pattern_moments(data0), vec0)
    assert np.linalg.norm(gamma0, 2) < 1e-4

    radii, diag_means = [], []
    for rho2 in (0.1, 0.5, 0.9):
        data, _ = make_instance(1500, (2, 2, 2), (0.0, rho2, 0.0), seed=77)
        res = fit(data, FitConfig(engine="oracle", max_iters=50000, tol=1e-13))
        vec = ThetaVectorizer(data.layout, scope="beta")
        gamma = sem_jacobian(res.theta, pattern_moments(data), vec)
        radii.append(float(np.abs(np.linalg.eigvals(gamma)).max()))
        diag_means.append(float(np.diag(gamma)[2:4].mean()))
    for n, dims, rho, seed in random_battery(np.random.default_rng(88), 4,
                                             n_max=400, p_max=8, rho_max=0.4):
        data, _ = make_instance(n, dims, rho, seed=seed)
        res = fit(data, FitConfig(engine="oracle", max_iters=50000, tol=1e-13))
        vec = ThetaVectorizer(data.layout, scope="beta")
        gamma = sem_jacobian(res.theta, pattern_moments(data), vec)
        radii.append(float(np.abs(np.linalg.eigvals(gamma)).max()))
    assert all(r < 1.0 for r in radii)
    assert diag_means[0] < diag_means[1] < diag_means[2]
    report(8, f"rate matrix: zero without missingness, spectral radius "
              f"max {max(radii):.3f} < 1, diagonal rises with the missing rate "
              f"{[round(d, 3) for d in diag_means]}")


def test_criterion_09_baseline_ordering_and_starvation():
    gen = GenConfig(
        n=800, layout=BlockLayout((2, 2, 2)), rho=0.3, seed=0,
        mu=[np.array([1.0, -0.5]), np.array([0.8, 1.2]), np.array([-1.0, 0.6])],
        sigma=("equicorrelated", 0.5))
    spec = MonteCarloSpec(reps=50, gen=gen, methods=("vfem", "cc", "impute"),
                          fit=FitConfig(engine="oracle", tol=1e-10), seed=9)
    summary = monte_carlo(spec)
    mse = {m: summary.methods[m].mean_mse for m in ("vfem", "cc", "impute")}
    assert mse["vfem"] < mse["impute"]
    assert mse["vfem"] < mse["cc"]

    cfg = smes_like_config(n=100_000, seed=1)
    data, _ = generate(cfg)
    complete = data.mask.complete_rows().size
    assert complete < 200
    with pytest.raises(InsufficientCompleteCases):
        run_baseline(BaselineKind.COMPLETE_CASE, data)
    report(9, f"held-out MSE vfem {mse['vfem']:.4f} < impute {mse['impute']:.4f} "
              f"and < cc {mse['cc']:.4f}; preset leaves {complete} complete rows "
              f"of 100000 and the complete-case path starves")


def test_criterion_10_privacy_schema_audit(tmp_path):
    data, _ = make_instance(60, (2, 2, 2), 0.3, seed=66)
    trace_path = tmp_path / "trace.log"
    res = fit(data, FitConfig(engine="federated", tol=1e-9, max_iters=200,
                              trace_path=str(trace_path)))
    assert res.converged
    schema = WireSchema(data.layout, data.mask)
    lines = trace_path.read_text().splitlines()
    assert lines
    kinds = set()
    for line in lines:
        msg = decode(line + "\n")
        assert msg.kind in MESSAGE_KINDS
        schema.validate(msg)
        kinds.add(msg.kind)
    assert kinds == MESSAGE_KINDS  # every kind of the vocabulary exercised

    # a raw covariate block cannot be serialized through the transport
    raw = data.view(1).x_obs
    with pytest.raises(SchemaViolation):
        schema.validate(Message(0, 1, ESTEP_LOCAL_FIT,
                                {"fit": raw}))
    with pytest.raises(SchemaViolation):
        schema.validate(Message(0, 1, "raw_upload", {"x": raw}))
    report(10, f"{len(lines)} traced records all in the closed vocabulary; "
               f"raw-block serialization rejected at validation")


def test_criterion_11_determinism(tmp_path):
    results = {}
    for run in ("a", "b"):
        base = tmp_path / run
        base.mkdir()
        data_dir = base / "data"
        assert cli_main(["generate", "--n", "250", "--clients", "2,2",
                         "--rho", "0.3", "--seed", "5",
                         "--out", str(data_dir)]) == 0
        fit_path = base / "fit.json"
        trace_path = base / "trace.log"
        assert cli_main(["fit", "--data", str(data_dir), "--engine", "federated",
                         "--tol", "1e-10", "--trace", str(trace_path),
                         "--out", str(fit_path)]) == 0
        infer_path = base / "infer.json"
        assert cli_main(["infer", "--data", str(data_dir), "--fit",
                         str(fit_path), "--out", str(infer_path),
                         "--stats", "sketch", "--seed", "3"]) == 0
        results[run] = {
            "clients": [(data_dir / f"client_{k}.csv").read_bytes()
                        for k in (1, 2)],
            "manifest": (data_dir / "layout.json").read_bytes(),
            "trace": trace_path.read_bytes(),
            "fit": fit_path.read_bytes(),
            "infer": infer_path.read_bytes(),
        }
    for key in results["a"]:
        assert results["a"][key] == results["b"][key], key
    report(11, "datasets, message traces, and reports byte-identical "
               "across repeated seeded runs")
