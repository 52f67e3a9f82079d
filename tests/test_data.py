import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vfem import (BlockLayout, ClientView, FitConfig, GenConfig, MissingMask,
                  ModelParameters, generate, initialize, make_dataset)
from vfem.centralized import em_map, pattern_moments
from vfem.data import repair_psd, repaired_block
from vfem.errors import DegenerateVariance


def test_layout_offsets_and_slices():
    layout = BlockLayout((2, 3, 1))
    assert layout.total_dim == 6
    assert layout.offsets == (0, 2, 5)
    assert layout.block_slice(2) == slice(2, 5)
    assert list(layout.block_columns(3)) == [5]
    assert layout.server_client == 1
    assert list(layout.stack_columns((1, 3))) == [0, 1, 5]


def test_layout_rejects_bad_dims():
    with pytest.raises(ValueError):
        BlockLayout((0, 2))
    with pytest.raises(ValueError):
        BlockLayout(())


def test_mask_sets_partition_clients():
    m = MissingMask(np.array([[0, 1, 0], [1, 1, 0], [0, 0, 0]], dtype=bool))
    assert [(key, rows.tolist()) for key, rows in m.patterns()] == [
        ((), [2]), ((1, 2), [1]), ((2,), [0])]
    assert m.missing_rows(2).tolist() == [0, 1]
    assert m.observed_rows(2).tolist() == [2]
    assert m.complete_rows().tolist() == [2]


def test_mask_patterns_cover_all_rows():
    rng = np.random.default_rng(0)
    m = MissingMask(rng.random((40, 3)) < 0.4)
    rows = np.concatenate([r for _, r in m.patterns()])
    assert sorted(rows.tolist()) == list(range(40))


def test_mask_patterns_are_computed_once_and_read_only():
    rng = np.random.default_rng(1)
    m = MissingMask(rng.random((50, 4)) < 0.4)
    first, second = m.patterns(), m.patterns()
    assert [key for key, _ in first] == [key for key, _ in second]
    for (_, a), (_, b) in zip(first, second):
        assert a is b
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a[0] = 0
    first.clear()   # the caller's list is its own
    assert len(m.patterns()) == len(second)


def test_client_view_poisons_masked_rows():
    x = np.arange(8.0).reshape(4, 2)
    view = ClientView(client_index=1, x=x, observed=np.array([1, 0, 1, 0], bool),
                      y=np.zeros(4))
    assert np.isnan(view.x[1]).all() and np.isnan(view.x[3]).all()
    assert np.array_equal(view.x[0], [0.0, 1.0])
    with pytest.raises(ValueError):
        view.x[0, 0] = 99.0  # immutable


def test_dataset_requires_aligned_samples():
    layout = BlockLayout((1, 1))
    mask = np.zeros((3, 2), dtype=bool)
    with pytest.raises(ValueError):
        make_dataset(layout, [np.zeros((3, 1)), np.zeros((4, 1))],
                     np.zeros(3), mask)


def test_parameters_validate_covariances():
    ok = ModelParameters(beta=np.zeros(2), mu=(np.zeros(2),),
                         sigma_blocks=(np.eye(2),), sigma2=1.0)
    assert ok.sigma2 == 1.0
    with pytest.raises(ValueError):
        ModelParameters(beta=np.zeros(2), mu=(np.zeros(2),),
                        sigma_blocks=(np.array([[1.0, 0.5], [0.1, 1.0]]),),
                        sigma2=1.0)
    with pytest.raises(ValueError):
        ModelParameters(beta=np.zeros(2), mu=(np.zeros(2),),
                        sigma_blocks=(np.array([[1.0, 0.0], [0.0, -1.0]]),),
                        sigma2=1.0)
    with pytest.raises(DegenerateVariance):
        ModelParameters(beta=np.zeros(2), mu=(np.zeros(2),),
                        sigma_blocks=(np.eye(2),), sigma2=0.0)


def test_repaired_and_kept_blocks_are_not_checked_twice(monkeypatch):
    # em_map's blocks come out of repair_psd, and replace() keeps checked
    # blocks: neither runs eigvalsh again, and the full check would change
    # no bit of them
    data, _ = generate(GenConfig(n=200, layout=BlockLayout((2, 3)), rho=0.3,
                                 seed=4))
    theta, moments = initialize(data, FitConfig()), pattern_moments(data)
    calls = []
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh",
                        lambda a: calls.append(a) or eigvalsh(a))
    mapped = em_map(theta, moments)
    moved = mapped.replace(beta=mapped.beta + 1.0)
    assert calls == []
    monkeypatch.undo()
    for got in (mapped, moved):
        full = ModelParameters(got.beta, got.mu, got.sigma_blocks, got.sigma2)
        for kept, checked in zip(got.sigma_blocks, full.sigma_blocks):
            assert kept.tobytes() == checked.tobytes()
            assert not kept.flags.writeable
    # a block the repair clamps is checked as before
    indefinite = np.array([[1.0, 2.0], [2.0, 1.0]])
    clamped = ModelParameters(np.zeros(2), (np.zeros(2),),
                              (repair_psd(indefinite),), 1.0).sigma_blocks[0]
    assert repaired_block(indefinite).tobytes() == clamped.tobytes()


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2 ** 31 - 1), st.integers(1, 3), st.integers(1, 3))
def test_mask_block_level_only(seed, k_dims, n_clients):
    # any boolean matrix is a valid block mask; per client the observed and
    # missing rows partition the samples, and a row's pattern key lists
    # exactly the clients it misses
    rng = np.random.default_rng(seed)
    m = MissingMask(rng.random((10, n_clients)) < 0.5)
    for k in range(1, n_clients + 1):
        obs, mis = set(m.observed_rows(k)), set(m.missing_rows(k))
        assert obs | mis == set(range(10))
        assert not obs & mis
    for key, rows in m.patterns():
        for i in rows:
            assert key == tuple(k for k in range(1, n_clients + 1)
                                if m.indicators[i, k - 1])
