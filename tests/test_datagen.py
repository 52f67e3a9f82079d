import numpy as np
import pytest

from vfem import BlockLayout, GenConfig, generate, smes_like_config
from vfem.datagen import SMES_LIKE_DIMS, SMES_LIKE_RATES
from vfem.errors import ConfigError, MaskRetryExhausted


def test_same_seed_bit_identical():
    gen = GenConfig(n=500, layout=BlockLayout((2, 3)), rho=0.4, seed=123)
    d1, t1 = generate(gen)
    d2, t2 = generate(gen)
    assert np.array_equal(d1.y, d2.y)
    assert np.array_equal(d1.mask.indicators, d2.mask.indicators)
    for k in d1.layout.clients():
        assert np.array_equal(d1.view(k).rows, d2.view(k).rows)
        assert np.array_equal(d1.view(k).x_obs, d2.view(k).x_obs)
    assert np.array_equal(t1.latent_blocks[0], t2.latent_blocks[0])


def test_different_seed_differs():
    gen1 = GenConfig(n=100, layout=BlockLayout((2,)), rho=0.0, seed=1)
    gen2 = GenConfig(n=100, layout=BlockLayout((2,)), rho=0.0, seed=2)
    assert not np.array_equal(generate(gen1)[0].y, generate(gen2)[0].y)


def test_response_follows_linear_model():
    gen = GenConfig(n=2000, layout=BlockLayout((2, 2)), rho=0.0, seed=5,
                    sigma2=0.25)
    data, truth = generate(gen)
    x = data.full_design()
    resid = data.y - x @ truth.params.beta
    assert np.mean(resid ** 2) == pytest.approx(0.25, rel=0.1)


def test_empirical_rates_match_targets():
    gen = GenConfig(n=100_000, layout=BlockLayout((1, 1, 1)),
                    rho=(0.2, 0.5, 0.8), seed=1)
    data, truth = generate(gen)
    for k, target in zip(data.layout.clients(), (0.2, 0.5, 0.8)):
        assert abs(data.mask.rate(k) - target) < 0.01


def test_mcar_mask_independent_of_response():
    gen = GenConfig(n=100_000, layout=BlockLayout((2, 2)), rho=0.4, seed=3,
                    mechanism="mcar")
    data, _ = generate(gen)
    corr = np.corrcoef(data.mask.indicators[:, 0].astype(float), data.y)[0, 1]
    assert abs(corr) < 0.01


def test_mar_mask_tracks_response():
    gen = GenConfig(n=100_000, layout=BlockLayout((2, 2)), rho=0.4, seed=3,
                    mechanism="mar-y")
    data, _ = generate(gen)
    corr = np.corrcoef(data.mask.indicators[:, 0].astype(float), data.y)[0, 1]
    assert abs(corr) > 0.1
    assert abs(data.mask.rate(1) - 0.4) < 0.01  # calibrated marginal rate


def test_mask_retry_guard():
    gen = GenConfig(n=3, layout=BlockLayout((1,)), rho=0.95, seed=0,
                    min_complete=3, max_retries=5)
    with pytest.raises(MaskRetryExhausted):
        generate(gen)


def test_equicorrelated_blocks():
    gen = GenConfig(n=200_000, layout=BlockLayout((3,)), rho=0.0, seed=9,
                    sigma=("equicorrelated", 0.6))
    data, truth = generate(gen)
    emp = np.corrcoef(data.view(1).x_obs.T)
    assert emp[0, 1] == pytest.approx(0.6, abs=0.02)


def test_validation_errors():
    with pytest.raises(ConfigError):
        GenConfig(n=0, layout=BlockLayout((1,)))
    with pytest.raises(ConfigError):
        GenConfig(n=10, layout=BlockLayout((1,)), rho=1.0)
    with pytest.raises(ConfigError):
        GenConfig(n=10, layout=BlockLayout((1,)), mechanism="mnar")
    with pytest.raises(ConfigError):
        GenConfig(n=10, layout=BlockLayout((1, 1)), rho=(0.1, 0.2, 0.3))


def test_smes_like_preset_shape_and_rates():
    cfg = smes_like_config(n=5000, seed=2)
    assert cfg.layout.client_dims == SMES_LIKE_DIMS
    assert cfg.rates() == SMES_LIKE_RATES
    data, truth = generate(cfg)
    for k, target in zip(cfg.layout.clients(), SMES_LIKE_RATES):
        assert abs(data.mask.rate(k) - target) < 0.03


def test_mar_bias_smoke_stays_moderate():
    # response-dependent masking is a stressor, not the modeled mechanism;
    # the estimator's bias should stay within a small multiple of the
    # completely-at-random bias (soft threshold, recorded magnitudes)
    from vfem import FitConfig, fit

    def mean_abs_bias(mechanism):
        biases = []
        for r in range(12):
            gen = GenConfig(n=1000, layout=BlockLayout((2, 2, 2)), rho=0.3,
                            seed=800 + r, mechanism=mechanism)
            data, truth = generate(gen)
            res = fit(data, FitConfig(engine="oracle", tol=1e-10))
            biases.append(res.theta.beta - truth.params.beta)
        return float(np.abs(np.mean(biases, axis=0)).mean())

    b_mcar = mean_abs_bias("mcar")
    b_mar = mean_abs_bias("mar-y")
    ratio = b_mar / max(b_mcar, 1e-12)
    print(f"\nbias mcar={b_mcar:.5f} mar-y={b_mar:.5f} ratio={ratio:.2f}")
    if ratio >= 3.0:
        import warnings
        warnings.warn(f"response-dependent masking bias ratio {ratio:.2f} >= 3")
    assert ratio < 10.0
