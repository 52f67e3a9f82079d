import numpy as np
import pytest

from conftest import full_block, make_instance, rel_err

from vfem import BaselineKind, run_baseline
from vfem.baselines import ols
from vfem.errors import InsufficientCompleteCases


def test_all_baselines_coincide_without_missingness():
    data, _ = make_instance(120, (2, 2), 0.0, seed=1)
    x = data.full_design()
    pooled = ols(x, data.y)
    cc = run_baseline(BaselineKind.COMPLETE_CASE, data)
    imp = run_baseline(BaselineKind.MEAN_IMPUTE, data)
    single = run_baseline(BaselineKind.SINGLE, data)
    assert rel_err(cc.beta, pooled.beta) < 1e-8
    assert rel_err(imp.beta, pooled.beta) < 1e-8
    # the server-only fit coincides on its own block against its own design
    assert rel_err(single.beta[:2],
                   ols(full_block(data.view(1)), data.y).beta) < 1e-8
    assert np.isnan(single.beta[2:]).all()


def test_complete_case_uses_exactly_the_complete_rows():
    data, _ = make_instance(300, (2, 2), 0.35, seed=2)
    rows = data.mask.complete_rows()
    res = run_baseline(BaselineKind.COMPLETE_CASE, data)
    assert res.n_used == rows.size
    x_cc = np.concatenate([full_block(data.view(k))[rows] for k in data.layout.clients()],
                          axis=1)
    assert rel_err(res.beta, ols(x_cc, data.y[rows]).beta) < 1e-12


def test_complete_case_starvation_raises():
    data, _ = make_instance(200, (2, 2, 2), 0.75, seed=3)
    if data.mask.complete_rows().size >= 8:
        pytest.skip("mask draw left enough complete rows")
    with pytest.raises(InsufficientCompleteCases):
        run_baseline(BaselineKind.COMPLETE_CASE, data)


def test_single_requires_server_rows():
    data, _ = make_instance(30, (8, 2), (0.9, 0.0), seed=4)
    if data.mask.observed_rows(1).size >= 10:
        pytest.skip("mask draw left enough server rows")
    with pytest.raises(InsufficientCompleteCases):
        run_baseline(BaselineKind.SINGLE, data)


def test_mean_impute_fills_with_observed_column_means():
    data, _ = make_instance(150, (2, 2), (0.0, 0.4), seed=5)
    res = run_baseline(BaselineKind.MEAN_IMPUTE, data)
    obs = data.mask.observed_rows(2)
    block = full_block(data.view(2))
    means = block[obs].mean(axis=0)
    filled = np.tile(means, (data.n, 1))
    filled[obs] = block[obs]
    x_imp = np.concatenate([full_block(data.view(1)), filled], axis=1)
    assert rel_err(res.beta, ols(x_imp, data.y).beta) < 1e-12
    assert res.n_used == data.n


def test_adjusted_r2_uses_method_support_size():
    data, _ = make_instance(100, (3, 2), 0.0, seed=6)
    single = run_baseline(BaselineKind.SINGLE, data)
    f1 = ols(full_block(data.view(1)), data.y)
    n = data.n
    expected = 1.0 - (1.0 - f1.r2) * (n - 1) / (n - 3 - 1)
    assert single.adj_r2 == pytest.approx(expected)


def test_heldout_mse_reported():
    data, _ = make_instance(400, (2, 2), 0.3, seed=7)
    complete = data.mask.complete_rows()
    test = data.subset(complete[:50])
    train = data.subset(np.setdiff1d(np.arange(data.n), complete[:50]))
    res = run_baseline(BaselineKind.MEAN_IMPUTE, train, test=test)
    assert res.mse is not None and np.isfinite(res.mse)
