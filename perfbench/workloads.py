"""Workload definitions and the set-up that every run times as ``setup_s``.

The key set of each workload is fixed: it is drawn by the benchmark's own
generator from ``DATA_SEED``, so a change to ``espc.data`` cannot change what
is measured, and a heavy-tailed draw's extreme values do not move the
figures from seed to seed (on lognormal keys the mean error of one index
varies by 0.9x its median across key seeds).  The run's ``--seed`` draws
the lookup queries, the spot sample, the rho estimator's draws and the
``espc bench`` sampling seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from espc import bench, core, data, index, stats

DATA_SEED = 0
POOL = 65_536  # lookup queries drawn per run; timed lookups cycle over them
RHO_DRAWS = 100_000


@dataclass(frozen=True)
class Workload:
    name: str
    dist: str  # "uniform", "lognormal" or "beta22"
    file_keys: int  # keys written to the key file
    n: int  # keys indexed; fewer than file_keys means a subsample
    policy: str | None  # sizing policy for K, or None for K = k_grid[-1]
    k_grid: tuple[int, ...] | None  # grid for ``espc bench``; None means (K,)
    queries: str  # "keys" (drawn from the keys) or "uniform" (on [0, 1])
    # --queries for ``espc bench``: small enough that a run holds tens of
    # calls, whose median the benchmark reports.
    bench_queries: int
    shares: dict  # phase name -> share of --seconds

    @property
    def k(self) -> int:
        """Interval count of the flat and two-layer indexes."""
        if self.policy:
            return index.choose_k(index.SizingPolicy(self.policy), self.n)
        return self.k_grid[-1]

    @property
    def grid(self) -> tuple[int, ...]:
        return self.k_grid or (self.k,)

    @property
    def n_sub(self) -> int:
        """``espc bench --n-sub``: 0 keeps the whole file."""
        return self.n if self.n < self.file_keys else 0


_LOOKUP_SHARES = {
    "lookup": 0.15, "hier": 0.1, "reference": 0.1, "predict_many": 0.05, "build": 0.2, "bench": 0.33,
    "setup": 0.07,
}
_BENCH_SHARES = {
    "lookup": 0.07, "hier": 0.06, "reference": 0.07, "predict_many": 0.04, "build": 0.09, "bench": 0.6,
    "setup": 0.07,
}

WORKLOADS = {
    w.name: w
    for w in (
        Workload("uniform-linear", "uniform", 10**6, 10**6, index.LINEAR, None,
                 "keys", 10_000, _LOOKUP_SHARES),
        Workload("lognormal-sublinear", "lognormal", 10**6, 10**6, index.SUBLINEAR, None,
                 "keys", 10_000, _LOOKUP_SHARES),
        Workload("beta-bench-file", "beta22", 2 * 10**6, 10**6, None,
                 (10**2, 10**3, 10**4, 10**5, 10**6), "uniform", 4_000, _BENCH_SHARES),
    )
}


def draw_keys(w: Workload) -> np.ndarray:
    rng = np.random.default_rng(DATA_SEED)
    if w.dist == "uniform":
        return rng.random(w.file_keys)
    if w.dist == "lognormal":
        return rng.lognormal(0.0, 2.0, w.file_keys)
    return rng.beta(2.0, 2.0, w.file_keys)


@dataclass
class Setup:
    keys: core.KeyArray  # rescaled keys the indexes are built over
    idx: index.EspcIndex
    hier: index.HierIndex
    rho: stats.RhoEstimate
    profile: stats.PartitionProfile
    pool: np.ndarray  # lookup queries
    expected: np.ndarray  # np.searchsorted ranks of the pool
    key_path: Path  # the raw key file ``espc bench`` reads
    indexed_path: Path  # ``keys`` as a key file, the data the index answers for
    index_path: Path

    def fingerprint(self) -> tuple:
        """Exact values that must repeat bit for bit across set-ups."""
        return (
            self.rho.value,
            self.profile.collision_probability,
            self.idx.r.tobytes(),
            self.hier.boundaries.keys.tobytes(),
            self.pool.tobytes(),
        )


def set_up(w: Workload, seed: int, workdir: Path) -> Setup:
    """Everything before the first timed call: key file, keys, indexes, queries."""
    key_path = workdir / "keys.sosd"
    indexed_path = workdir / "indexed.sosd"
    index_path = workdir / "index.espc"
    data.write_sosd(key_path, core.validate_key_array(draw_keys(w), core.FLOAT_MODE))
    read = data.read_sosd(key_path, core.FLOAT_MODE)
    if w.n < read.n:
        picks = np.random.default_rng(DATA_SEED + 1).choice(read.n, w.n, replace=False)
        read = core.validate_key_array(read.keys[np.sort(picks)], core.FLOAT_MODE)
    keys = data.rescale_unit(read)
    idx = index.build_espc(keys, w.k)
    hier = index.build_equal_probability(keys, w.k, w.k)
    data.write_sosd(indexed_path, keys)
    index.save_index(idx, index_path)
    rho = stats.estimate_rho(keys, RHO_DRAWS, seed=seed)
    profile = stats.partition_probabilities(keys, 0.0, 1.0, w.k)
    rng = np.random.default_rng(seed)
    if w.queries == "keys":
        pool = keys.keys[rng.integers(0, keys.n, POOL)]
    else:
        pool = rng.random(POOL)
    expected = np.searchsorted(keys.keys, pool, side="right")
    return Setup(keys, idx, hier, rho, profile, pool, expected,
                 key_path, indexed_path, index_path)


def bench_argv(w: Workload, s: Setup, seed: int, csv_path: Path) -> list[str]:
    """``espc bench --check`` over the workload's key file."""
    argv = [
        "bench", "--data", str(s.key_path), "--mode", core.FLOAT_MODE,
        "--n-sub", str(w.n_sub),
        "--k-grid", ",".join(str(k) for k in w.grid),
        "--queries", str(w.bench_queries), "--seed", str(seed),
        "--check", "--out", str(csv_path),
    ]
    if w.queries == "uniform":
        argv += ["--query-kind", "uniform"]
    return argv


def bench_config(w: Workload, s: Setup, seed: int):
    """The BenchConfig that :func:`bench_argv` makes ``espc bench`` run."""
    return bench.BenchConfig(
        dataset=data.DatasetSpec(
            "file", params={"path": str(s.key_path), "mode": core.FLOAT_MODE}
        ),
        n_sub=w.n_sub,
        k_grid=w.grid,
        queries=w.bench_queries,
        query_dist=data.DatasetSpec("uniform") if w.queries == "uniform" else None,
        seed=seed,
    )


def spot_queries(s: Setup, seed: int) -> list[float]:
    """Edge values, between-key values and pool values for the oracle check."""
    rng = np.random.default_rng(seed + 1)
    keys = s.keys.keys
    between = [(keys[i] + keys[i + 1]) / 2.0 for i in rng.integers(0, len(keys) - 1, 12)]
    edges = [keys[0], keys[-1], math.nextafter(keys[-1], 0.0), -0.25, 1.25]
    pooled = s.pool[rng.integers(0, len(s.pool), 12)]
    return [float(q) for q in (*edges, *between, *rng.random(12), *pooled)]
