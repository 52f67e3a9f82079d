import numpy as np
import pytest

from vfem import BlockLayout, GenConfig, generate
from vfem.dataio import read_dataset, read_truth, write_dataset
from vfem.errors import ConfigError


def test_dataset_round_trip(tmp_path):
    gen = GenConfig(n=80, layout=BlockLayout((2, 3)), rho=(0.3, 0.5), seed=6)
    data, truth = generate(gen)
    write_dataset(str(tmp_path), data, truth=truth, gen=gen)
    back, manifest = read_dataset(str(tmp_path))
    assert manifest["block_dims"] == [2, 3]
    assert manifest["missing_rates_config"] == [0.3, 0.5]
    assert np.array_equal(back.mask.indicators, data.mask.indicators)
    assert np.array_equal(back.y, data.y)
    for k in data.layout.clients():
        assert np.array_equal(back.view(k).rows, data.view(k).rows)
        assert np.array_equal(back.view(k).x_obs, data.view(k).x_obs)
    t = read_truth(str(tmp_path))
    assert np.array_equal(t.beta, truth.params.beta)


def test_rewrite_is_byte_identical(tmp_path):
    gen = GenConfig(n=50, layout=BlockLayout((2, 2)), rho=0.2, seed=9)
    data, truth = generate(gen)
    d1, d2 = tmp_path / "a", tmp_path / "b"
    write_dataset(str(d1), data, truth=truth, gen=gen)
    write_dataset(str(d2), data, truth=truth, gen=gen)
    for name in ("layout.json", "client_1.csv", "client_2.csv", "truth.json"):
        assert (d1 / name).read_bytes() == (d2 / name).read_bytes()


def test_partial_blanks_rejected(tmp_path):
    gen = GenConfig(n=10, layout=BlockLayout((2,)), rho=0.3, seed=1)
    data, _ = generate(gen)
    write_dataset(str(tmp_path), data)
    path = tmp_path / "client_1.csv"
    lines = path.read_text().splitlines()
    for i, line in enumerate(lines[1:], 1):
        y, a, b = line.split(",")
        if a != "":
            lines[i] = f"{y},{a},"
            break
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ConfigError):
        read_dataset(str(tmp_path))


def test_missing_manifest_rejected(tmp_path):
    with pytest.raises(ConfigError):
        read_dataset(str(tmp_path))


def _write(tmp_path, dims=(2, 2)):
    gen = GenConfig(n=20, layout=BlockLayout(dims), rho=0.3, seed=3)
    data, _ = generate(gen)
    write_dataset(str(tmp_path), data)
    return data


def _replace_observed_row(path, make_line):
    """Rewrite the first data row whose last cell is filled; returns its
    0-based row index."""
    lines = path.read_text().splitlines()
    for i, line in enumerate(lines[1:], 1):
        cells = line.split(",")
        if cells[-1] != "":
            lines[i] = make_line(cells)
            path.write_text("\n".join(lines) + "\n")
            return i - 1
    raise AssertionError("no observed row")


def test_short_row_rejected(tmp_path):
    # a lone value used to be broadcast over the whole block: "a" read as [a, a]
    _write(tmp_path)
    row = _replace_observed_row(tmp_path / "client_2.csv", lambda c: c[0])
    with pytest.raises(ConfigError, match=rf"client_2.csv row {row}: expected 2 cells"):
        read_dataset(str(tmp_path))


def test_long_row_rejected(tmp_path):
    _write(tmp_path)
    row = _replace_observed_row(tmp_path / "client_2.csv",
                                lambda c: ",".join(c + ["1.5"]))
    with pytest.raises(ConfigError, match=rf"client_2.csv row {row}: expected 2 cells"):
        read_dataset(str(tmp_path))


def test_non_numeric_cell_rejected(tmp_path):
    _write(tmp_path)
    row = _replace_observed_row(tmp_path / "client_2.csv",
                                lambda c: ",".join(c[:-1] + ["abc"]))
    with pytest.raises(ConfigError, match=rf"client_2.csv row {row}: .*not a number"):
        read_dataset(str(tmp_path))


def test_blank_response_rejected(tmp_path):
    _write(tmp_path)
    row = _replace_observed_row(tmp_path / "client_1.csv",
                                lambda c: ",".join([""] + c[1:]))
    with pytest.raises(ConfigError, match=rf"client_1.csv row {row}: blank response"):
        read_dataset(str(tmp_path))


def test_non_finite_cell_rejected(tmp_path):
    _write(tmp_path)
    row = _replace_observed_row(tmp_path / "client_2.csv",
                                lambda c: ",".join(c[:-1] + ["inf"]))
    with pytest.raises(ConfigError, match=rf"client_2.csv row {row}: value is not finite"):
        read_dataset(str(tmp_path))
