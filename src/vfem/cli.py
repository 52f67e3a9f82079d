"""Command-line front end.

Subcommands: generate, fit, infer, montecarlo. Options can come from a
plain-text key=value config file (--config) with command-line flags taking
precedence. Exit codes: 0 success/converged, 2 fit did not converge,
3 validation or usage error, 4 protocol error.
"""

from __future__ import annotations

import argparse
import sys
import time

from . import __version__
from .data import BlockLayout
from .datagen import GenConfig, SMES_LIKE_DIMS, SMES_LIKE_RATES, generate
from .dataio import read_dataset, read_json, write_dataset, write_json
from .engine import FitConfig, FitResult, fit
from .errors import ConfigError, NotAFixedPoint, ProtocolDesync, VfemError
from .inference import InferenceConfig, SketchConfig, run_inference
from .montecarlo import MonteCarloSpec, monte_carlo

EXIT_OK = 0
EXIT_NOT_CONVERGED = 2
EXIT_VALIDATION = 3
EXIT_PROTOCOL = 4


def load_config_file(path: str) -> dict:
    """Minimal key = value parser: strings, numbers, booleans, and
    comma-separated lists. Lines starting with '#' or '[' are skipped."""
    out: dict = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.strip()
            if not line or line.startswith("#") or line.startswith("["):
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected key = value")
            key, _, value = line.partition("=")
            out[key.strip().replace("-", "_")] = _parse_value(value.strip())
    return out


def _parse_value(text: str):
    if text.startswith("[") and text.endswith("]"):
        inner = text[1:-1].strip()
        return [_parse_value(v.strip()) for v in inner.split(",")] if inner else []
    if text.startswith('"') and text.endswith('"'):
        return text[1:-1]
    low = text.lower()
    if low in ("true", "false"):
        return low == "true"
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        return text


def _merge_config(args: argparse.Namespace, keys: list[str]) -> dict:
    """File values first, explicit command-line flags override."""
    merged = {}
    if getattr(args, "config", None):
        merged.update(load_config_file(args.config))
    for key in keys:
        val = getattr(args, key, None)
        if val is not None:
            merged[key] = val
    return merged


def _config_bool(cfg_vals: dict, key: str, default: bool) -> bool:
    """A switch from the config file: only true or false, never coerced."""
    val = cfg_vals.get(key, default)
    if not isinstance(val, bool):
        raise ConfigError(f"{key} must be true or false, got {val!r}")
    return val


def _parse_rates(text):
    if isinstance(text, (int, float)):
        return float(text)
    vals = ([float(v) for v in text] if isinstance(text, list)
            else [float(v) for v in str(text).split(",")])
    return vals[0] if len(vals) == 1 else vals


def _parse_dims(text) -> tuple[int, ...]:
    if isinstance(text, list):
        return tuple(int(v) for v in text)
    return tuple(int(v) for v in str(text).split(","))


def cmd_generate(args) -> int:
    cfg_vals = _merge_config(args, ["n", "clients", "rho", "mechanism",
                                    "sigma2", "seed", "preset"])
    if cfg_vals.get("preset") == "smes-like":
        dims, rho = SMES_LIKE_DIMS, list(SMES_LIKE_RATES)
    elif cfg_vals.get("preset") not in (None, ""):
        raise ConfigError(f"unknown preset {cfg_vals['preset']!r}")
    else:
        if "clients" not in cfg_vals:
            raise ConfigError("need --clients (comma-separated block sizes) or --preset")
        dims = _parse_dims(cfg_vals["clients"])
        rho = _parse_rates(cfg_vals.get("rho", 0.0))
    gen = GenConfig(
        n=int(cfg_vals.get("n", 1000)),
        layout=BlockLayout(dims),
        rho=rho,
        mechanism=str(cfg_vals.get("mechanism", "mcar")),
        sigma2=float(cfg_vals.get("sigma2", 1.0)),
        seed=int(cfg_vals.get("seed", 0)),
    )
    data, truth = generate(gen)
    write_dataset(args.out, data, truth=truth, gen=gen)
    print(f"wrote {data.n} samples across {gen.layout.num_clients} clients to {args.out}")
    for k in gen.layout.clients():
        print(f"  client {k}: dim {gen.layout.dim(k)}, "
              f"missing rate {data.mask.rate(k):.4f}")
    return EXIT_OK


def _fit_config_from(cfg_vals: dict) -> FitConfig:
    kwargs = {}
    for key in ("max_iters", "tol", "learning_rate", "engine", "transport",
                "trace_path", "init"):
        if key in cfg_vals and cfg_vals[key] is not None:
            kwargs[key] = cfg_vals[key]
    return FitConfig(**kwargs)


def cmd_fit(args) -> int:
    cfg_vals = _merge_config(args, ["engine", "transport", "max_iters", "tol",
                                    "learning_rate", "init"])
    if args.trace:
        cfg_vals["trace_path"] = args.trace
    cfg = _fit_config_from(cfg_vals)
    data, manifest = read_dataset(args.data)
    started = time.perf_counter()
    result = fit(data, cfg)
    elapsed = time.perf_counter() - started
    out = {
        "fit": result.to_json_dict(),
        "columns": manifest["columns"],
    }
    write_json(args.out, out)
    print(f"engine={result.engine} converged={result.converged} "
          f"({result.reason}) iterations={result.iterations} "
          f"loss={float(result.loss_trace[-1])!r} ({elapsed:.2f}s)")
    if result.comm:
        print(f"messages={result.comm['messages']} bytes={result.comm['bytes_total']}")
    print(f"report written to {args.out}")
    return EXIT_OK if result.converged else EXIT_NOT_CONVERGED


def cmd_infer(args) -> int:
    cfg_vals = _merge_config(args, ["scope", "stats", "m", "replicates",
                                    "seed", "shared", "exact_within"])
    fit_obj = read_json(args.fit)
    try:
        result = FitResult.from_json_dict(fit_obj["fit"])
    except KeyError as err:
        raise ConfigError(f"{args.fit}: missing key {err}") from None
    except TypeError as err:
        raise ConfigError(f"{args.fit}: malformed fit report: {err}") from None
    data, manifest = read_dataset(args.data)
    names = [nm for k in data.layout.clients()
             for nm in manifest["columns"][str(k)]]
    sketch = SketchConfig(
        m=cfg_vals.get("m"),
        replicates=cfg_vals.get("replicates"),
        seed=int(cfg_vals.get("seed", 0)),
        shared=_config_bool(cfg_vals, "shared", True),
        exact_within_block=_config_bool(cfg_vals, "exact_within", True),
    )
    inf_cfg = InferenceConfig(
        scope=str(cfg_vals.get("scope", "beta")),
        stats_mode=str(cfg_vals.get("stats", "sketch")),
        sketch=sketch,
        beta_names=names,
    )
    try:
        report = run_inference(result.theta, data, inf_cfg)
    except NotAFixedPoint as err:
        print(f"error: {err}", file=sys.stderr)
        print("hint: refit with a tighter tolerance (e.g. --tol 1e-12)",
              file=sys.stderr)
        return EXIT_VALIDATION
    write_json(args.out, report.to_json_dict())
    csv_path = args.out.rsplit(".", 1)[0] + ".csv"
    with open(csv_path, "w") as fh:
        fh.write(report.to_csv_text())
    print(report.to_pretty_text())
    print(f"report written to {args.out} and {csv_path}")
    return EXIT_OK


def cmd_montecarlo(args) -> int:
    cfg_vals = _merge_config(args, ["reps", "n", "clients", "rho", "mechanism",
                                    "sigma2", "seed", "methods", "engine",
                                    "transport", "with_inference"])
    dims = _parse_dims(cfg_vals.get("clients", "2,2,2"))
    gen = GenConfig(
        n=int(cfg_vals.get("n", 500)),
        layout=BlockLayout(dims),
        rho=_parse_rates(cfg_vals.get("rho", 0.3)),
        mechanism=str(cfg_vals.get("mechanism", "mcar")),
        sigma2=float(cfg_vals.get("sigma2", 1.0)),
        seed=0,
    )
    methods = cfg_vals.get("methods", "vfem,cc,impute")
    if isinstance(methods, str):
        methods = [m.strip() for m in methods.split(",")]
    spec = MonteCarloSpec(
        reps=int(cfg_vals.get("reps", 20)),
        gen=gen,
        methods=tuple(methods),
        fit=FitConfig(engine=str(cfg_vals.get("engine", "oracle")),
                      transport=str(cfg_vals.get("transport", "inproc")),
                      tol=1e-10),
        inference=(InferenceConfig() if _config_bool(cfg_vals, "with_inference", False)
                   else None),
        seed=int(cfg_vals.get("seed", 0)),
    )
    summary = monte_carlo(spec)
    print(summary.to_pretty_text())
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(summary.to_csv_text())
        print(f"table written to {args.out}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vfem",
        description="Vertical federated EM for linear regression with "
                    "block-missing covariates")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="write a synthetic dataset to disk")
    g.add_argument("--config")
    g.add_argument("--n", type=int)
    g.add_argument("--clients", help="comma-separated block sizes, e.g. 2,3,2")
    g.add_argument("--rho", help="missing rate(s), scalar or comma-separated")
    g.add_argument("--mechanism", choices=["mcar", "mar-y"])
    g.add_argument("--sigma2", type=float)
    g.add_argument("--preset", choices=["smes-like"])
    g.add_argument("--seed", type=int)
    g.add_argument("--out", required=True)
    g.set_defaults(func=cmd_generate)

    f = sub.add_parser("fit", help="fit a dataset directory")
    f.add_argument("--config")
    f.add_argument("--data", required=True)
    f.add_argument("--out", required=True, help="path of the JSON fit report")
    f.add_argument("--engine", choices=["federated", "oracle"])
    f.add_argument("--transport", choices=["inproc", "socket"])
    f.add_argument("--max-iters", dest="max_iters", type=int)
    f.add_argument("--tol", type=float)
    f.add_argument("--learning-rate", dest="learning_rate", type=float)
    f.add_argument("--init", choices=["zeros", "cc-ols"])
    f.add_argument("--trace", help="append every protocol message to this file")
    f.set_defaults(func=cmd_fit)

    i = sub.add_parser("infer", help="standard errors from a converged fit")
    i.add_argument("--config")
    i.add_argument("--data", required=True)
    i.add_argument("--fit", required=True, help="JSON report from `vfem fit`")
    i.add_argument("--out", required=True)
    i.add_argument("--scope", choices=["beta", "full"])
    i.add_argument("--stats", choices=["sketch", "exact"])
    i.add_argument("--m", type=int, help="sketch dimension")
    i.add_argument("--replicates", type=int)
    i.add_argument("--seed", type=int)
    i.set_defaults(func=cmd_infer)

    m = sub.add_parser("montecarlo", help="replicated synthetic comparison")
    m.add_argument("--config")
    m.add_argument("--reps", type=int)
    m.add_argument("--n", type=int)
    m.add_argument("--clients")
    m.add_argument("--rho")
    m.add_argument("--mechanism", choices=["mcar", "mar-y"])
    m.add_argument("--sigma2", type=float)
    m.add_argument("--methods", help="comma-separated: vfem,single,cc,impute,ols")
    m.add_argument("--engine", choices=["federated", "oracle"])
    m.add_argument("--transport", choices=["inproc", "socket"])
    m.add_argument("--with-inference", dest="with_inference", action="store_true",
                   default=None)
    m.add_argument("--seed", type=int)
    m.add_argument("--out")
    m.set_defaults(func=cmd_montecarlo)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ProtocolDesync as err:
        print(f"protocol error: {err}", file=sys.stderr)
        return EXIT_PROTOCOL
    except (ConfigError, VfemError, OSError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
