"""Command-line front end.

Verbs: generate, ingest, build, query, rho, entropy, bench.  Exit codes:
0 success, 1 usage or validation error, 2 bound-check failure, 3 I/O
error.  All randomness is seeded, so repeated invocations with the same
flags print the same numbers (wall-clock columns excepted).
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys

from . import bench as bench_mod
from .core import INT_MODE, MODES
from .data import SYNTHETIC_KINDS, DatasetSpec, generate, read_sosd, rescale_unit, write_sosd
from .errors import (
    CountMismatch,
    EspcError,
    InvalidIndexFile,
    TruncatedFile,
)
from .index import (
    POLICY_KINDS,
    SizingPolicy,
    build_espc,
    choose_k,
    evaluate_rank,
    load_index,
    predict,
    save_index,
)
from .search import binary_search_rank
from .stats import (
    HISTOGRAM,
    KERNEL,
    estimate_rho,
    log_error_entropy_bound,
    partition_probabilities,
    renyi_entropy_2,
)

class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad flags; this project reserves 2 for check
    # failures, so parse problems surface as exit 1 instead.
    def error(self, message):
        raise _UsageError(message)


def main(argv=None):
    sys.exit(dispatch(sys.argv[1:] if argv is None else argv))


def dispatch(argv) -> int:
    """Parse argv, run one verb, and return the process exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if getattr(args, "func", None) is None:
            parser.print_usage(sys.stderr)
            return 1
        return args.func(args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        parser.print_usage(sys.stderr)
        return 1
    except (TruncatedFile, CountMismatch, InvalidIndexFile, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except EspcError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


@functools.cache  # parsing leaves the parser as it was; the verbs look up globals when run
def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="espc", description=__doc__)
    sub = parser.add_subparsers(dest="verb", parser_class=_Parser)

    p = sub.add_parser("generate", help="write a synthetic dataset to a key file")
    p.add_argument("--kind", choices=SYNTHETIC_KINDS, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--mu", type=float, default=None)
    p.add_argument("--sigma", type=float, default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("ingest", help="validate a key file, optionally rescale to [0, 1]")
    p.add_argument("--in", dest="src", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--mode", choices=MODES, default=INT_MODE)
    p.add_argument("--rescale", action="store_true")
    p.set_defaults(func=_cmd_ingest)

    p = sub.add_parser("build", help="build an index over a key file")
    p.add_argument("--data", required=True)
    p.add_argument("--mode", choices=MODES, default=INT_MODE)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--policy", choices=POLICY_KINDS, default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_build)

    p = sub.add_parser("query", help="exact rank of one value via a stored index")
    p.add_argument("--index", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--mode", choices=MODES, default=INT_MODE)
    p.add_argument("--q", required=True)
    p.set_defaults(func=_cmd_query)

    p = sub.add_parser("rho", help="estimate the squared L2 norm of the key density")
    p.add_argument("--data", required=True)
    p.add_argument("--mode", choices=MODES, default=INT_MODE)
    p.add_argument("--method", choices=(HISTOGRAM, KERNEL), default=HISTOGRAM)
    p.add_argument("--bandwidth", type=float, default=None)
    p.set_defaults(func=_cmd_rho)

    p = sub.add_parser("entropy", help="order-2 entropy of the cell occupancy profile")
    p.add_argument("--data", required=True)
    p.add_argument("--mode", choices=MODES, default=INT_MODE)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--a", type=float, default=None)
    p.add_argument("--b", type=float, default=None)
    p.add_argument("--bits", action="store_true", help="report in bits instead of nats")
    p.set_defaults(func=_cmd_entropy)

    p = sub.add_parser("bench", help="error-vs-K experiment, CSV output")
    p.add_argument("--config", default=None, help="JSON file with BenchConfig keys")
    p.add_argument("--kind", choices=SYNTHETIC_KINDS, default=None)
    p.add_argument("--data", default=None, help="key file instead of a synthetic kind")
    p.add_argument("--mode", choices=MODES, default=INT_MODE)
    p.add_argument("--n", type=int, default=1_000_000, help="synthetic draw count")
    p.add_argument("--n-sub", type=int, default=None)
    p.add_argument("--k-grid", type=_int_tuple, help="comma-separated interval counts")
    p.add_argument("--queries", type=int, default=None)
    p.add_argument("--query-kind", choices=SYNTHETIC_KINDS, default=None)
    p.add_argument("--rho-method", choices=(HISTOGRAM, KERNEL), default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--no-rescale", dest="rescale", action="store_false", default=None)
    p.add_argument("--paper-scale", action="store_true")
    p.add_argument("--check", action="store_true", help="exit 2 if any bound is violated")
    p.add_argument("--out", dest="output", default=None, help="CSV path")
    p.set_defaults(func=_cmd_bench)

    return parser


def _parse_query_value(text: str, mode: str):
    try:
        return int(text) if mode == INT_MODE else float(text)
    except ValueError as exc:
        raise _UsageError(f"--q {text!r} is not a valid {mode} value") from exc


def _cmd_generate(args) -> int:
    params = {}
    if args.mu is not None:
        params["mu"] = args.mu
    if args.sigma is not None:
        params["sigma"] = args.sigma
    spec = DatasetSpec(kind=args.kind, n=args.n, params=params, seed=args.seed)
    keys = generate(spec)
    write_sosd(args.out, keys)
    print(f"wrote={args.out} n={keys.n} mode={keys.mode}")
    return 0


def _cmd_ingest(args) -> int:
    keys = read_sosd(args.src, mode=args.mode)
    if args.rescale:
        keys = rescale_unit(keys)
    write_sosd(args.out, keys)
    print(f"wrote={args.out} n={keys.n} mode={keys.mode} x_min={keys.x_min} x_max={keys.x_max}")
    return 0


def _cmd_build(args) -> int:
    if (args.k is None) == (args.policy is None):
        raise _UsageError("pass exactly one of --k or --policy")
    keys = read_sosd(args.data, mode=args.mode)
    k = args.k if args.k is not None else choose_k(SizingPolicy(kind=args.policy), keys.n)
    idx = build_espc(keys, k)
    save_index(idx, args.out)
    shift = "none" if idx.shift is None else repr(idx.shift)
    print(f"wrote={args.out} k={idx.K} space_bytes={bench_mod.measure_space(idx)} shift={shift}")
    return 0


def _cmd_query(args) -> int:
    keys = read_sosd(args.data, mode=args.mode)
    idx = load_index(args.index)
    q = _parse_query_value(args.q, args.mode)
    out = evaluate_rank(idx, keys, q)
    err = abs(out.rank - predict(idx, q))
    baseline = binary_search_rank(keys, q)
    print(
        f"rank={out.rank} error={err} comparisons={out.comparisons} "
        f"binary_comparisons={baseline.comparisons}"
    )
    return 0


def _cmd_rho(args) -> int:
    keys = read_sosd(args.data, mode=args.mode)
    est = estimate_rho(keys, method=args.method, bandwidth=args.bandwidth)
    line = f"rho={est.value:.6g} method={est.method}"
    if 0.0 <= float(keys.keys[0]) and float(keys.keys[-1]) <= 1.0 and est.value > 0:
        # On unit-span data -ln(rho) doubles as the order-2 differential entropy.
        line += f" h2_hat={-math.log(est.value):.6g}"
    print(line)
    return 0


def _cmd_entropy(args) -> int:
    keys = read_sosd(args.data, mode=args.mode)
    a = args.a if args.a is not None else float(keys.keys[0])
    b = args.b if args.b is not None else float(keys.keys[-1])
    profile = partition_probabilities(keys, a, b, args.k)
    base = 2 if args.bits else None
    h2 = renyi_entropy_2(profile, base=base)
    bound = log_error_entropy_bound(keys.n, profile, base=base)
    unit = "bits" if args.bits else "nats"
    print(f"h2={h2:.6g} log_error_bound={bound:.6g} unit={unit} k={args.k}")
    return 0


def _cmd_bench(args) -> int:
    cfg = _bench_config(args)
    records = bench_mod.run_error_experiment(cfg)
    for rec in records:
        print(
            f"dataset={rec.dataset} k={rec.k} mean_error={rec.mean_error:.4f} "
            f"bound={rec.bound:.4f} mean_comparisons={rec.mean_comparisons:.3f} "
            f"space_bytes={rec.space_bytes}"
        )
    if cfg.output:
        print(f"wrote={cfg.output}")
    if args.check:
        bad = bench_mod.bound_violations(records)
        if bad:
            for rec in bad:
                print(
                    f"bound violated: dataset={rec.dataset} k={rec.k} "
                    f"mean_error={rec.mean_error:.4f} > bound={rec.bound:.4f}",
                    file=sys.stderr,
                )
            return 2
    return 0


def _bench_config(args) -> bench_mod.BenchConfig:
    # Precedence: built-in defaults < JSON config < explicit flags.
    merged = _read_config(args.config) if args.config else {}
    merged["dataset"] = _dataset_from(args, merged.get("dataset"))
    if args.query_kind is not None:
        merged["query_dist"] = DatasetSpec(kind=args.query_kind)
    flags = {key: getattr(args, key, None) for key in _CONFIG_FIELDS}
    merged.update({key: val for key, val in flags.items() if val is not None})
    cfg = bench_mod.BenchConfig(**merged)
    return cfg.paper_scale() if args.paper_scale else cfg


def _read_config(path) -> dict:
    """BenchConfig keywords from a JSON object; null and {} count as absent."""
    with open(path) as fh:
        try:
            raw = json.load(fh)
            if not isinstance(raw, dict):
                raise ValueError("expected a JSON object")
            return {
                key: convert(raw[key])
                for key, convert in _CONFIG_FIELDS.items()
                if raw.get(key) not in (None, {})
            }
        except (TypeError, ValueError, argparse.ArgumentTypeError) as exc:
            raise _UsageError(f"--config {path}: {exc}") from exc


def _int_tuple(value) -> tuple[int, ...]:
    """Interval counts from "10,100" (the --k-grid flag) or a JSON list of integers."""
    try:
        if isinstance(value, str):
            return tuple(int(k) for k in value.split(","))
        return tuple(_json_value(k) for k in value)
    except (TypeError, ValueError) as exc:
        raise argparse.ArgumentTypeError(f"k_grid {value!r} is not a list of integers") from exc


def _dataset_from(args, config_dataset) -> DatasetSpec:
    if args.data is not None:
        return DatasetSpec(kind="file", params={"path": args.data, "mode": args.mode})
    if args.kind is not None:
        return DatasetSpec(kind=args.kind, n=args.n, seed=args.seed or 0)
    if config_dataset:
        return config_dataset
    raise _UsageError("bench needs --kind, --data, or a config with a dataset entry")


def _spec_from_dict(entry) -> DatasetSpec:
    if not isinstance(entry, dict) or not isinstance(entry.get("params", {}), dict):
        raise ValueError(f"dataset entry {entry!r} is not a JSON object with object params")
    return DatasetSpec(
        kind=entry.get("kind", "uniform"),
        n=_json_value(entry.get("n", 1_000_000)),
        params=entry.get("params", {}),
        seed=_json_value(entry.get("seed", 0)),
    )


def _json_value(value, kind=int):
    """``value`` if its type is ``kind``: as for the flags, a fraction, a string or a
    boolean is no integer, and a number is no string."""
    if type(value) is not kind:  # bool subclasses int
        raise ValueError(f"{value!r} is not a JSON {kind.__name__}")
    return value


# How each config entry becomes a BenchConfig value; other entries are ignored.  The bench
# flags that override an entry carry its name (dataset and query_dist have their own).
_CONFIG_FIELDS = {
    "dataset": _spec_from_dict, "n_sub": _json_value, "k_grid": _int_tuple, "queries": _json_value,
    "query_dist": _spec_from_dict, "rho_method": functools.partial(_json_value, kind=str),
    "seed": _json_value, "rescale": functools.partial(_json_value, kind=bool),
    "output": functools.partial(_json_value, kind=str),
}


if __name__ == "__main__":
    main()
