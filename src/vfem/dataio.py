"""Dataset files: one CSV per client plus a plain-text manifest.

`client_<k>.csv` holds that client's columns (the response column `y` lives
in the first client's file); a masked block leaves the whole row blank in
that file. `layout.json` records n, client count, block dimensions, the
server client, and column names. `truth.json` (optional) stores generating
parameters for synthetic data.
"""

from __future__ import annotations

import csv
import json
import os
from typing import Optional

import numpy as np

from .data import BlockLayout, ModelParameters, VerticalDataset, make_dataset
from .datagen import GenConfig, GroundTruth
from .errors import ConfigError

MANIFEST_NAME = "layout.json"
TRUTH_NAME = "truth.json"


def default_column_names(layout: BlockLayout) -> dict[int, list[str]]:
    return {k: [f"x{k}_{j + 1}" for j in range(layout.dim(k))]
            for k in layout.clients()}


def _fmt(x: float) -> str:
    return repr(float(x))


def write_dataset(out_dir: str, data: VerticalDataset,
                  truth: Optional[GroundTruth] = None,
                  gen: Optional[GenConfig] = None,
                  column_names: Optional[dict[int, list[str]]] = None) -> None:
    os.makedirs(out_dir, exist_ok=True)
    layout = data.layout
    names = column_names or default_column_names(layout)

    manifest = {
        "n": data.n,
        "num_clients": layout.num_clients,
        "block_dims": list(layout.client_dims),
        "server_client": layout.server_client,
        "response": "y",
        "columns": {str(k): names[k] for k in layout.clients()},
        "missing_rates_empirical": [data.mask.rate(k) for k in layout.clients()],
    }
    if gen is not None:
        manifest["missing_rates_config"] = list(gen.rates())
        manifest["mechanism"] = gen.mechanism
        manifest["seed"] = gen.seed
    with open(os.path.join(out_dir, MANIFEST_NAME), "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")

    for k in layout.clients():
        view = data.view(k)
        missing = data.mask.indicators[:, k - 1]
        observed = iter(view.x_obs)
        path = os.path.join(out_dir, f"client_{k}.csv")
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            header = (["y"] if k == 1 else []) + names[k]
            writer.writerow(header)
            for i in range(data.n):
                row = [_fmt(view.y[i])] if k == 1 else []
                row += ([""] * view.dim if missing[i]
                        else [_fmt(v) for v in next(observed)])
                writer.writerow(row)

    if truth is not None:
        payload = {
            **truth.params.to_json_dict(),
            "mechanism": truth.mechanism,
            "seed": truth.seed,
            "empirical_rates": list(truth.empirical_rates),
        }
        with open(os.path.join(out_dir, TRUTH_NAME), "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")


def read_truth(data_dir: str) -> ModelParameters:
    with open(os.path.join(data_dir, TRUTH_NAME)) as fh:
        return ModelParameters.from_json_dict(json.load(fh))


def read_dataset(data_dir: str) -> tuple[VerticalDataset, dict]:
    manifest_path = os.path.join(data_dir, MANIFEST_NAME)
    if not os.path.exists(manifest_path):
        raise ConfigError(f"no manifest at {manifest_path}")
    with open(manifest_path) as fh:
        manifest = json.load(fh)
    try:
        layout = BlockLayout(tuple(manifest["block_dims"]))
        n = int(manifest["n"])
        columns = {k: manifest["columns"][str(k)] for k in layout.clients()}
    except KeyError as err:
        raise ConfigError(f"{manifest_path}: missing key {err}") from None
    except TypeError as err:
        raise ConfigError(f"{manifest_path}: malformed manifest: {err}") from None

    blocks, y, mask = [], None, np.zeros((n, layout.num_clients), dtype=bool)
    for k in layout.clients():
        path = os.path.join(data_dir, f"client_{k}.csv")
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader)
            expected = (["y"] if k == 1 else []) + columns[k]
            if header != expected:
                raise ConfigError(f"{path}: unexpected header {header}")
            rows = list(reader)
        if len(rows) != n:
            raise ConfigError(f"{path}: expected {n} rows, found {len(rows)}")
        block = np.zeros((n, layout.dim(k)))
        observed = np.zeros(n, dtype=bool)
        y_col = np.zeros(n) if k == 1 else None
        width = len(expected)
        for i, row in enumerate(rows):
            if len(row) != width:
                raise ConfigError(
                    f"{path} row {i}: expected {width} cells, found {len(row)}")
            vals = row[1:] if k == 1 else row
            try:
                if k == 1:
                    y_col[i] = float(row[0])
                if not any(vals):           # every cell blank: block missing
                    continue
                if not all(vals):
                    raise ConfigError(
                        f"{path} row {i}: partial blanks violate block-missingness")
                block[i] = [float(v) for v in vals]
            except ValueError:
                if k == 1 and row[0] == "":
                    raise ConfigError(f"{path} row {i}: blank response") from None
                raise ConfigError(
                    f"{path} row {i}: a cell of {row} is not a number") from None
            observed[i] = True
        bad = ~np.isfinite(block).all(axis=1)
        if y_col is not None:
            bad |= ~np.isfinite(y_col)
        if bad.any():
            raise ConfigError(f"{path} row {int(np.argmax(bad))}: value is not finite")
        mask[:, k - 1] = ~observed
        blocks.append(block)
        if k == 1:
            y = y_col
    return make_dataset(layout, blocks, y, mask), manifest


def write_json(path: str, obj: dict) -> None:
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def read_json(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)
