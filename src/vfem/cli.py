"""Command-line front end.

Subcommands: generate, fit, infer, montecarlo, each declaring its options
once, with their types, choices and defaults. A --config file's
`key = value` lines are read as the flags `--key value`, ahead of the
command line's own, which win. Exit codes: 0 success/converged, 2 fit did
not converge, 3 validation or usage error, 4 protocol error.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
import time

from . import __version__
from .data import BlockLayout
from .datagen import GenConfig, SMES_LIKE_DIMS, SMES_LIKE_RATES, generate
from .dataio import read_dataset, read_json, write_dataset, write_json
from .engine import ENGINES, TRANSPORTS, FitConfig, FitResult, fit
from .errors import ConfigError, NotAFixedPoint, ProtocolDesync, VfemError
from .inference import InferenceConfig, SketchConfig, run_inference
from .montecarlo import MonteCarloSpec, monte_carlo

EXIT_OK = 0
EXIT_NOT_CONVERGED = 2
EXIT_VALIDATION = 3
EXIT_PROTOCOL = 4


class _Parser(argparse.ArgumentParser):
    """Matches flags by their full names only, and raises a usage error as
    `ConfigError` (exit 3): argparse's own exit 2 is a fit that did not
    converge."""

    def __init__(self, **kwargs):
        super().__init__(allow_abbrev=False, **kwargs)

    def error(self, message):
        raise ConfigError(message)


def config_args(path: str) -> list[str]:
    """The flags a config file stands for: `key = value` becomes
    `--key value`. Lines starting with '#' or '[' are skipped."""
    tokens: list[str] = []
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.strip()
            if not line or line.startswith(("#", "[")):
                continue
            key, eq, value = (part.strip() for part in line.partition("="))
            if not (key and eq):
                raise ConfigError(f"{path}:{lineno}: expected key = value")
            tokens += ["--" + key.replace("_", "-"), value]
    return tokens


def _items(text: str) -> list[str]:
    """`a,b` or `[a, b]`."""
    text = text.strip()
    if text.startswith("[") and text.endswith("]"):
        text = text[1:-1]
    return [item.strip() for item in text.split(",")]


def _dims(text: str) -> tuple[int, ...]:
    return tuple(int(v) for v in _items(text))


def _rates(text: str):
    vals = [float(v) for v in _items(text)]
    return vals[0] if len(vals) == 1 else vals


def _switch(text: str) -> bool:
    if text.lower() not in ("true", "false"):
        raise argparse.ArgumentTypeError(f"must be true or false, got {text!r}")
    return text.lower() == "true"


def cmd_generate(args) -> int:
    if args.preset == "smes-like":
        dims, rho = SMES_LIKE_DIMS, list(SMES_LIKE_RATES)
    elif args.clients is None:
        raise ConfigError("need --clients (comma-separated block sizes) or --preset")
    else:
        dims, rho = args.clients, args.rho
    gen = GenConfig(n=args.n, layout=BlockLayout(dims), rho=rho,
                    mechanism=args.mechanism, sigma2=args.sigma2, seed=args.seed)
    data, truth = generate(gen)
    write_dataset(args.out, data, truth=truth, gen=gen)
    print(f"wrote {data.n} samples across {gen.layout.num_clients} clients to {args.out}")
    for k in gen.layout.clients():
        print(f"  client {k}: dim {gen.layout.dim(k)}, "
              f"missing rate {data.mask.rate(k):.4f}")
    return EXIT_OK


def cmd_fit(args) -> int:
    # only the options given reach FitConfig, which holds their defaults
    cfg = FitConfig(**{f.name: getattr(args, f.name)
                       for f in dataclasses.fields(FitConfig)
                       if getattr(args, f.name, None) is not None})
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
    sketch = SketchConfig(m=args.m, replicates=args.replicates, seed=args.seed,
                          shared=args.shared,
                          exact_within_block=args.exact_within)
    inf_cfg = InferenceConfig(scope=args.scope, stats_mode=args.stats,
                              sketch=sketch, beta_names=names)
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
    gen = GenConfig(n=args.n, layout=BlockLayout(args.clients), rho=args.rho,
                    mechanism=args.mechanism, sigma2=args.sigma2, seed=0)
    spec = MonteCarloSpec(
        reps=args.reps,
        gen=gen,
        methods=tuple(args.methods),
        fit=FitConfig(engine=args.engine, transport=args.transport, tol=1e-10),
        inference=InferenceConfig() if args.with_inference else None,
        seed=args.seed,
    )
    summary = monte_carlo(spec)
    print(summary.to_pretty_text())
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(summary.to_csv_text())
        print(f"table written to {args.out}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="vfem",
        description="Vertical federated EM for linear regression with "
                    "block-missing covariates")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="write a synthetic dataset to disk")
    g.add_argument("--config")
    g.add_argument("--n", type=int, default=1000)
    g.add_argument("--clients", type=_dims,
                   help="comma-separated block sizes, e.g. 2,3,2")
    g.add_argument("--rho", type=_rates, default=0.0,
                   help="missing rate(s), scalar or comma-separated")
    g.add_argument("--mechanism", choices=["mcar", "mar-y"], default="mcar")
    g.add_argument("--sigma2", type=float, default=1.0)
    g.add_argument("--preset", choices=["smes-like"])
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--out", required=True)
    g.set_defaults(func=cmd_generate)

    f = sub.add_parser("fit", help="fit a dataset directory")
    f.add_argument("--config")
    f.add_argument("--data", required=True)
    f.add_argument("--out", required=True, help="path of the JSON fit report")
    f.add_argument("--engine", choices=ENGINES)
    f.add_argument("--transport", choices=TRANSPORTS)
    f.add_argument("--max-iters", type=int)
    f.add_argument("--tol", type=float)
    f.add_argument("--learning-rate", type=float)
    f.add_argument("--trace", dest="trace_path",
                   help="append every protocol message to this file")
    f.set_defaults(func=cmd_fit)

    i = sub.add_parser("infer", help="standard errors from a converged fit")
    i.add_argument("--config")
    i.add_argument("--data", required=True)
    i.add_argument("--fit", required=True, help="JSON report from `vfem fit`")
    i.add_argument("--out", required=True)
    i.add_argument("--scope", choices=["beta", "full"], default="beta")
    i.add_argument("--stats", choices=["sketch", "exact"], default="sketch")
    i.add_argument("--m", type=int, help="sketch dimension")
    i.add_argument("--replicates", type=int)
    i.add_argument("--seed", type=int, default=0)
    i.add_argument("--shared", type=_switch, default=True,
                   help="one sketch seed shared by all clients")
    i.add_argument("--exact-within", type=_switch, default=True,
                   help="exact products within each client's block")
    i.set_defaults(func=cmd_infer)

    m = sub.add_parser("montecarlo", help="replicated synthetic comparison")
    m.add_argument("--config")
    m.add_argument("--reps", type=int, default=20)
    m.add_argument("--n", type=int, default=500)
    m.add_argument("--clients", type=_dims, default=(2, 2, 2))
    m.add_argument("--rho", type=_rates, default=0.3)
    m.add_argument("--mechanism", choices=["mcar", "mar-y"], default="mcar")
    m.add_argument("--sigma2", type=float, default=1.0)
    m.add_argument("--methods", type=_items, default=["vfem", "cc", "impute"],
                   help="comma-separated: vfem,single,cc,impute,ols")
    m.add_argument("--engine", choices=ENGINES, default="oracle")
    m.add_argument("--transport", choices=TRANSPORTS, default="inproc")
    m.add_argument("--with-inference", type=_switch, nargs="?", const=True,
                   default=False)
    m.add_argument("--seed", type=int, default=0)
    m.add_argument("--out")
    m.set_defaults(func=cmd_montecarlo)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = parser.parse_args(argv)
        if args.config:
            # the file's flags go first, so the command line's own win
            at = argv.index(args.command) + 1
            tokens = config_args(args.config)
            try:
                args = parser.parse_args([*argv[:at], *tokens, *argv[at:]])
            except ConfigError as err:
                raise ConfigError(f"{args.config}: {err}") from None
        return args.func(args)
    except ProtocolDesync as err:
        print(f"protocol error: {err}", file=sys.stderr)
        return EXIT_PROTOCOL
    except (ConfigError, VfemError, OSError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
