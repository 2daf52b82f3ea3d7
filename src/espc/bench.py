"""Experiment harness: measured error vs. theoretical bound across K.

For each interval count in a grid, the harness builds the index, replays a
seeded query workload, and records the measured mean prediction error next
to the closed-form bound computed from the estimated density norm, along
with comparison-count statistics, exact space usage, and wall-clock
timings.  Everything except the wall-clock fields is deterministic for a
given config.
"""

from __future__ import annotations

import csv
import math
import os
import time
from dataclasses import dataclass, fields, replace
from functools import partial

import numpy as np

from .core import FLOAT_MODE, KeyArray, _instance, _integer, exact_ranks, validate_key_array
from .data import DatasetSpec, FILE, generate, rescale_unit, subsample
from .errors import InvalidK, InvalidParams
from .index import HEADER_BYTES, SLOT_BYTES, EspcIndex, evaluate_rank_many, predict_many
from .index import _build, _choose_shift
from .stats import HISTOGRAM, KERNEL, error_bound_query_dist, error_bound_rho, estimate_rho

DEFAULT_K_GRID = (100, 1_000, 10_000, 100_000)
PAPER_K_GRID = (1_000, 5_000, 10_000, 50_000, 100_000, 200_000)
# Queries per batched lookup call: bounds the engine's temporaries at paper scale.
QUERY_BLOCK = 1 << 16


@dataclass(frozen=True)
class BenchConfig:
    """One experiment: dataset, K grid, query workload, estimator settings.

    Defaults are desk scale (runs in minutes); ``paper_scale()`` swaps in
    the full-size subsample, query count, and K grid.  When
    ``query_dist`` is set the workload is drawn from that distribution
    instead of from the keys, and the bound uses both density norms.
    A ``k_grid`` that is not a tuple or list, or an entry that is not an integer >= 1,
    raises InvalidK, and any other integer out of its range, a grid that is empty or
    not ascending, a field of another type than its annotation, or a ``rho_method``
    other than histogram or kernel, InvalidParams.
    """

    dataset: DatasetSpec
    n_sub: int = 1_000_000
    k_grid: tuple[int, ...] = DEFAULT_K_GRID
    queries: int = 100_000
    query_dist: DatasetSpec | None = None
    rho_method: str = HISTOGRAM
    seed: int = 0
    rescale: bool = True
    output: str | os.PathLike | None = None

    def __post_init__(self):
        _instance(self.dataset, (DatasetSpec,), "dataset")
        _instance(self.query_dist, (None, DatasetSpec), "query_dist")
        if _instance(self.rho_method, (str,), "rho_method") not in (HISTOGRAM, KERNEL):
            raise InvalidParams(f"rho_method must be {HISTOGRAM!r} or {KERNEL!r}, "
                                f"got {self.rho_method!r}")
        _instance(self.rescale, (bool,), "rescale")
        _instance(self.output, (None, str, os.PathLike), "output")
        _integer(self.n_sub, 0, math.inf, InvalidParams, "n_sub")
        if not isinstance(self.k_grid, (tuple, list)):
            raise InvalidK(f"k_grid must be a tuple of integers, got {self.k_grid!r}")
        grid = [_integer(k, 1, math.inf, InvalidK, "k_grid entry") for k in self.k_grid]
        if not grid or grid != sorted(grid):
            raise InvalidParams(f"k_grid must be non-empty and ascending, got {self.k_grid!r}")
        least = 1 if self.query_dist is None else 4  # rho_queries is fitted to the queries
        _integer(self.queries, least, math.inf, InvalidParams, "queries")
        _integer(self.seed, 0, math.inf, InvalidParams, "seed")

    def paper_scale(self) -> "BenchConfig":
        """Full-scale variant: n=1e7 subsample, Q=3e7, the six-point K grid."""
        return replace(self, n_sub=10_000_000, queries=30_000_000, k_grid=PAPER_K_GRID)


@dataclass(frozen=True)
class BenchRecord:
    """One measured row of the error-vs-K experiment."""

    dataset: str
    n: int
    k: int
    mean_error: float
    bound: float
    mean_comparisons: float
    p50_comparisons: float
    p99_comparisons: float
    space_bytes: int
    build_ms: float
    query_ns: float
    rho: float
    seed: int


CSV_COLUMNS = tuple(f.name for f in fields(BenchRecord))


def measure_space(idx: EspcIndex) -> int:
    """Exact serialized size in bytes: 45-byte header plus 4 bytes per slot."""
    return HEADER_BYTES + SLOT_BYTES * idx.K


def prepare_keys(cfg: BenchConfig) -> KeyArray:
    """Load the config's dataset, subsample to n_sub, optionally rescale."""
    keys = generate(cfg.dataset)
    if 0 < cfg.n_sub < keys.n:
        keys = subsample(keys, cfg.n_sub, seed=cfg.seed)
    if cfg.rescale:
        keys = rescale_unit(keys)
    return keys


def draw_queries(cfg: BenchConfig, keys: KeyArray) -> np.ndarray:
    """Seeded query workload: with-replacement draws from the keys, or
    fresh draws from the query distribution when one is configured."""
    if cfg.query_dist is None:
        rng = np.random.default_rng(cfg.seed + 1)
        return keys.keys[rng.integers(0, keys.n, size=cfg.queries)]
    qspec = replace(cfg.query_dist, n=cfg.queries, seed=cfg.seed + 2)
    return generate(qspec).keys


def measure_errors(idx: EspcIndex, queries: np.ndarray, ranks: np.ndarray) -> float:
    """Mean absolute prediction error of the index, given the queries' exact ranks.

    Predicts in blocks of :data:`QUERY_BLOCK`: the errors are the one query-sized temporary.
    """
    errors = np.empty(len(queries))
    for lo in range(0, len(queries), QUERY_BLOCK):
        block = slice(lo, lo + QUERY_BLOCK)
        errors[block] = np.abs(ranks[block] - predict_many(idx, queries[block]))
    return float(np.mean(errors))


def measure_comparisons(
    idx: EspcIndex, keys: KeyArray, queries: np.ndarray, ranks: np.ndarray
) -> tuple[np.ndarray, float]:
    """Comparison count per query plus wall time per lookup in ns.

    Looks the queries up in blocks of :data:`QUERY_BLOCK` with
    :func:`espc.index.evaluate_rank_many` and cross-checks each corrected
    rank against the exact ``ranks``.
    """
    counts = np.empty(len(queries), dtype=np.int64)
    start = time.perf_counter()
    for lo in range(0, len(queries), QUERY_BLOCK):
        block = slice(lo, lo + QUERY_BLOCK)
        found, counts[block] = evaluate_rank_many(idx, keys, queries[block])
        wrong = np.flatnonzero(found != ranks[block])
        if wrong.size:
            q = queries[lo + wrong[0]]
            raise AssertionError(f"lookup disagreed with the exact rank at q={q!r}")
    elapsed = time.perf_counter() - start
    return counts, elapsed * 1e9 / len(queries)


def run_error_experiment(cfg: BenchConfig) -> list[BenchRecord]:
    """Run the full grid for one config and return one record per K.

    The bound column is the closed-form expected-error bound evaluated
    with the estimated density norm(s); ``--check`` style gating compares
    it against the measured mean error via :func:`bound_violations`.  Each
    index is the one :func:`espc.index.build_espc` builds, with the scale of
    its cells chosen once for the keys rather than once per K.
    """
    keys = prepare_keys(cfg)
    queries = draw_queries(cfg, keys)
    ranks = exact_ranks(keys, queries)
    lo, hi = float(keys.keys[0]), float(keys.keys[-1])
    shift = _choose_shift(keys.keys, lo, hi)
    rho = estimate_rho(keys, method=cfg.rho_method).value
    bound = partial(error_bound_rho, rho=rho)
    if cfg.query_dist is not None:
        sample = validate_key_array(queries, FLOAT_MODE)
        rho_q = estimate_rho(sample, method=cfg.rho_method).value
        lo, hi = min(lo, float(sample.keys[0])), max(hi, float(sample.keys[-1]))
        bound = partial(error_bound_query_dist, rho_keys=rho, rho_queries=rho_q)

    label = _dataset_label(cfg.dataset)
    records = []
    for k in cfg.k_grid:
        t0 = time.perf_counter()
        idx = _build(keys, k, shift)
        build_ms = (time.perf_counter() - t0) * 1e3
        mean_error = measure_errors(idx, queries, ranks)
        counts, query_ns = measure_comparisons(idx, keys, queries, ranks)
        records.append(
            BenchRecord(
                dataset=label,
                n=keys.n,
                k=k,
                mean_error=mean_error,
                bound=bound(keys.n, k, lo, hi),
                mean_comparisons=float(np.mean(counts)),
                p50_comparisons=float(np.percentile(counts, 50)),
                p99_comparisons=float(np.percentile(counts, 99)),
                space_bytes=measure_space(idx),
                build_ms=build_ms,
                query_ns=query_ns,
                rho=rho,
                seed=cfg.seed,
            )
        )
    if cfg.output:
        emit_csv(records, cfg.output)
    return records


def bound_violations(records) -> list[BenchRecord]:
    """Records whose measured mean error exceeds the theoretical bound."""
    return [r for r in records if r.mean_error > r.bound]


def emit_csv(records, path) -> None:
    """Write records as CSV: header row, stable column order, '.' decimals."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_COLUMNS)
        for rec in records:
            writer.writerow([getattr(rec, col) for col in CSV_COLUMNS])


def _dataset_label(spec: DatasetSpec) -> str:
    if spec.kind == FILE:
        return str(spec.params.get("path", FILE))
    return spec.kind
