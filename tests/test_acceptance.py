"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  The heavyweight experiment data (million-key grids) is shared
through module-scoped fixtures, so the whole suite stays inside the stated
runtime budgets.
"""

import math
import os
import time
from pathlib import Path

import numpy as np
import pytest

from espc.bench import (
    BenchConfig,
    bound_violations,
    measure_comparisons,
    measure_errors,
    measure_space,
    prepare_keys,
    run_error_experiment,
)
from espc.core import FLOAT_MODE, INT_MODE, exact_ranks, rank_bruteforce, validate_key_array
from espc.data import DatasetSpec, generate, rescale_unit, read_sosd, subsample
from espc.index import (
    HEADER_BYTES,
    SLOT_BYTES,
    assign_intervals,
    build_equal_probability,
    build_espc,
    deserialize_index,
    evaluate_rank,
    evaluate_rank_hier,
    predict_many,
    serialize_index,
)
from espc.search import binary_search_rank, exponential_search
from espc.stats import (
    HISTOGRAM,
    KERNEL,
    PartitionProfile,
    estimate_rho,
    log_error_entropy_bound,
    partition_probabilities,
    renyi_entropy_2,
)

GRID = (100, 1_000, 10_000, 100_000)
N_FULL = 1_000_000
QUERIES = 100_000


def _report(num, desc, ok, detail=""):
    print(f"\ncriterion {num:>2}: {desc}: {'PASS' if ok else 'FAIL'} {detail}")
    return ok


@pytest.fixture(scope="module")
def grid_runs():
    """Criterion-3 experiment: three datasets, the full K grid, shared data."""
    t0 = time.perf_counter()
    runs = {}
    for kind, seed in (("uniform", 101), ("beta22", 102), ("normal", 103)):
        cfg = BenchConfig(
            dataset=DatasetSpec(kind, n=N_FULL, seed=seed),
            n_sub=N_FULL,
            k_grid=GRID,
            queries=QUERIES,
            seed=seed,
        )
        keys = prepare_keys(cfg)
        records = run_error_experiment(cfg)
        runs[kind] = (records, keys)
    return runs, time.perf_counter() - t0


@pytest.fixture(scope="module")
def size_sweep():
    """Criterion-5/6 data: mean comparisons across n for both sizing rules."""
    t0 = time.perf_counter()
    sizes = (10_000, 100_000, 1_000_000)
    by_linear = {}
    by_sublinear = {}
    for n in sizes:
        keys = rescale_unit(generate(DatasetSpec("uniform", n=n, seed=200 + len(str(n)))))
        rng = np.random.default_rng(7)
        queries = keys.keys[rng.integers(0, n, QUERIES)]
        ranks = exact_ranks(keys, queries)
        counts, _ = measure_comparisons(build_espc(keys, n), keys, queries, ranks)
        by_linear[n] = float(np.mean(counts))
        k = math.ceil(n / math.log2(n))
        counts, _ = measure_comparisons(build_espc(keys, k), keys, queries, ranks)
        by_sublinear[n] = float(np.mean(counts))
    return by_linear, by_sublinear, time.perf_counter() - t0


def _boundary_queries(idx, mode):
    """Every interval boundary, nudged one ulp (or one integer) each way."""
    if idx.delta == 0.0:
        ts = np.array([idx.x_first])
    else:
        ts = idx.x_first + idx.delta * np.arange(idx.K + 1, dtype=np.float64)
    if mode == FLOAT_MODE:
        return np.concatenate(
            [ts, np.nextafter(ts, np.inf), np.nextafter(ts, -np.inf)]
        ).tolist()
    ints = np.floor(ts).astype(np.int64)
    probes = np.concatenate([ints - 1, ints, ints + 1])
    return np.maximum(probes, 0).astype(np.uint64).tolist()


def test_criterion_1_exactness_against_oracle():
    rng = np.random.default_rng(301)
    t0 = time.perf_counter()
    trials = 1_000
    dup_trials = 0
    total_queries = 0
    for trial in range(trials):
        mode = INT_MODE if trial % 2 == 0 else FLOAT_MODE
        force_dup = rng.random() < 0.35
        big_k = rng.random() < 0.05
        n = int(rng.integers(1, 257)) if big_k else int(rng.integers(1, 2049))
        if mode == INT_MODE:
            pool = max(2, n // 4) if force_dup else 10**9
            A = validate_key_array(rng.integers(0, pool, n), INT_MODE)
            randoms = rng.integers(0, int(A.x_max) + 2, 64).astype(np.uint64).tolist()
        else:
            vals = rng.random(n)
            if force_dup:
                vals = np.round(vals, 2)
            A = validate_key_array(vals, FLOAT_MODE)
            randoms = (rng.random(64) * 1.2 - 0.1).tolist()
        dup_trials += force_dup

        k = int(rng.integers(max(1, n // 2), 2 * n + 1)) if big_k else int(rng.integers(1, 25))
        idx = build_espc(A, k)
        hier = build_equal_probability(A, int(rng.integers(1, n + 1)), int(rng.integers(1, 17)))

        queries = list(A.keys[rng.integers(0, n, 8)].tolist())
        queries += _boundary_queries(idx, mode)
        queries += randoms
        while len(queries) < 100:
            queries.append(queries[int(rng.integers(0, len(queries)))])

        for q in queries:
            expected = rank_bruteforce(A, q)
            assert evaluate_rank(idx, A, q).rank == expected
            assert evaluate_rank_hier(hier, A, q).rank == expected
            assert binary_search_rank(A, q).rank == expected
            start = int(rng.integers(0, n + 1))
            assert exponential_search(A, start, q).rank == expected
        total_queries += len(queries)
    elapsed = time.perf_counter() - t0
    ok = dup_trials >= 0.2 * trials and total_queries >= 100 * trials and elapsed < 60.0
    assert _report(
        1,
        "all four lookup paths equal the linear-scan oracle",
        ok,
        f"({trials} arrays, {total_queries} queries, dup arrays {dup_trials}, {elapsed:.1f}s)",
    )


def test_criterion_2_interval_error_bound_small_scale():
    rng = np.random.default_rng(302)
    grid = np.arange(-1.0, 16.26, 0.25)
    cases = 0
    violations = 0
    while cases < 100_000:
        n = int(rng.integers(1, 13))
        A = validate_key_array(rng.integers(0, 16, n).astype(np.float64), FLOAT_MODE)
        brute = (A.keys[None, :] <= grid[:, None]).sum(axis=1)
        for k in range(1, n + 1):
            cases += 1
            idx = build_espc(A, k)
            errors = np.abs(brute - predict_many(idx, grid))
            inside = (grid >= idx.x_first) & (grid <= idx.x_last)
            if idx.delta == 0.0:
                counts = np.array([A.n])
                cells = np.ones(int(inside.sum()), dtype=np.int64)
            else:
                assigned = assign_intervals(A.keys, idx.x_first, idx.delta, idx.K)
                counts = np.bincount(assigned, minlength=idx.K + 1)[1:]
                cells = assign_intervals(grid[inside], idx.x_first, idx.delta, idx.K)
            violations += int(np.sum(errors[inside] > counts[cells - 1] / 2.0))
            violations += int(np.sum(errors[~inside] != 0.0))
    ok = violations == 0
    assert _report(
        2,
        "prediction error <= half the interval occupancy, exhaustive small scale",
        ok,
        f"({cases} (array, K) cases, {violations} violations)",
    )


def test_criterion_3_error_bound_end_to_end(grid_runs):
    runs, elapsed = grid_runs
    bad = []
    for kind, (records, _) in runs.items():
        bad += [(kind, r.k) for r in bound_violations(records)]
    ok = not bad and elapsed < 300.0
    assert _report(
        3,
        "measured mean error below (3/2) rho n/K on all three datasets",
        ok,
        f"(grid {GRID}, violations {bad}, {elapsed:.1f}s)",
    )


def test_criterion_4_inverse_k_slope(grid_runs):
    runs, _ = grid_runs
    records, _ = runs["uniform"]
    ks = np.array([r.k for r in records], dtype=np.float64)
    errs = np.array([r.mean_error for r in records])
    slope = float(np.polyfit(np.log(ks), np.log(errs), 1)[0])
    ok = -1.15 <= slope <= -0.85
    assert _report(4, "log mean-error vs log K slope in [-1.15, -0.85]", ok, f"(slope {slope:.3f})")


def test_criterion_5_constant_cost_with_linear_space(size_sweep):
    by_linear, _, elapsed = size_sweep
    ratio = max(by_linear.values()) / min(by_linear.values())
    ok = ratio <= 1.5 and elapsed < 180.0
    assert _report(
        5,
        "K=n keeps mean comparisons flat across n",
        ok,
        f"(means {[f'{v:.2f}' for v in by_linear.values()]}, max/min {ratio:.3f}, {elapsed:.1f}s)",
    )


def test_criterion_6_loglog_cost_with_sublinear_space(size_sweep):
    _, by_sublinear, _ = size_sweep
    xs = np.array([math.log2(math.log2(n)) for n in by_sublinear])
    ys = np.array(list(by_sublinear.values()))
    c2, c1 = np.polyfit(xs, ys, 1)
    ok = c2 <= 2.0
    assert _report(
        6,
        "K=n/log2(n) comparisons fit c1 + c2*log2(log2 n) with c2 <= 2",
        ok,
        f"(c1 {c1:.2f}, c2 {c2:.2f})",
    )


def test_criterion_7_rho_estimator_accuracy():
    uniform = generate(DatasetSpec("uniform", n=N_FULL, seed=401))
    rho_u = estimate_rho(uniform).value
    beta = generate(DatasetSpec("beta22", n=N_FULL, seed=402))
    rho_b = estimate_rho(beta).value
    truncated = rescale_unit(generate(DatasetSpec("normal", n=N_FULL, seed=403)))
    rho_t = estimate_rho(truncated).value
    ok = abs(rho_u - 1.0) <= 0.05 and abs(rho_b - 1.2) <= 0.06 and rho_t > 0
    assert _report(
        7,
        "rho estimates match analytic values",
        ok,
        f"(uniform {rho_u:.3f} vs 1.00, beta22 {rho_b:.3f} vs 1.20, truncated normal {rho_t:.2f})",
    )


REFERENCE_RHO = {"usparse": 1.20, "normal": 3.89, "amzn": 1.72, "osm": 32.57}


def test_criterion_7b_rho_on_benchmark_files_if_present():
    data_dir = os.environ.get("SOSD_DATA_DIR")
    if not data_dir or not Path(data_dir).is_dir():
        pytest.skip("SOSD_DATA_DIR not set; benchmark-file check skipped")
    found = {}
    for path in Path(data_dir).iterdir():
        for name in REFERENCE_RHO:
            if name in path.name:
                found[name] = path
    if not found:
        pytest.skip(f"no benchmark files under {data_dir}")
    results = {}
    for name, path in sorted(found.items()):
        keys = read_sosd(path, INT_MODE)
        if keys.n > 10_000_000:
            keys = subsample(keys, 10_000_000, seed=5)
        keys = rescale_unit(keys)
        method = KERNEL if name == "osm" else HISTOGRAM
        results[name] = estimate_rho(keys, method=method).value
    bad = {
        name: value
        for name, value in results.items()
        if abs(value - REFERENCE_RHO[name]) > 0.2 * REFERENCE_RHO[name]
    }
    assert _report(7, "rho on benchmark files within 20% of reference", not bad, f"({results})")


def test_criterion_8_entropy_properties(grid_runs):
    rng = np.random.default_rng(404)
    exact_ok = True
    for k in (2, 4, 16, 1000):
        uniform = PartitionProfile(p=np.full(k, 1.0 / k))
        if abs(renyi_entropy_2(uniform) - math.log(k)) > 1e-12:
            exact_ok = False
    dominated_ok = True
    for _ in range(1_000):
        k = int(rng.integers(2, 64))
        p = rng.random(k)
        p /= p.sum()
        prof = PartitionProfile(p=p)
        if renyi_entropy_2(prof) > math.log(k) + 1e-12:
            dominated_ok = False

    runs, _ = grid_runs
    chain_ok = True
    worst = math.inf
    for kind, (records, keys) in runs.items():
        for rec in records:
            profile = partition_probabilities(keys, 0.0, 1.0, rec.k)
            slack = log_error_entropy_bound(keys.n, profile) - math.log(rec.mean_error)
            worst = min(worst, slack)
            if slack < 0:
                chain_ok = False
    ok = exact_ok and dominated_ok and chain_ok
    assert _report(
        8,
        "entropy identities and log-error bound hold",
        ok,
        f"(uniform exact {exact_ok}, dominated {dominated_ok}, min log-slack {worst:.3f})",
    )


def test_criterion_9_space_linear_and_serialization(grid_runs):
    runs, _ = grid_runs
    affine_ok = all(
        rec.space_bytes == HEADER_BYTES + SLOT_BYTES * rec.k
        for records, _ in runs.values()
        for rec in records
    )
    _, keys = runs["uniform"]
    roundtrip_ok = True
    for k in GRID:
        idx = build_espc(keys, k)
        blob = serialize_index(idx)
        if serialize_index(deserialize_index(blob)) != blob:
            roundtrip_ok = False
        if len(blob) != measure_space(idx):
            roundtrip_ok = False
    ok = affine_ok and roundtrip_ok
    assert _report(
        9,
        "space exactly affine in K; serialization round-trips bit-exactly",
        ok,
        f"(slot {SLOT_BYTES} B, header {HEADER_BYTES} B)",
    )


def test_criterion_10_query_distribution_bound():
    cfg = BenchConfig(
        dataset=DatasetSpec("uniform", n=N_FULL, seed=405),
        n_sub=N_FULL,
        k_grid=GRID,
        queries=QUERIES,
        query_dist=DatasetSpec("beta22"),
        seed=405,
    )
    records = run_error_experiment(cfg)
    bad = [(r.k, r.mean_error, r.bound) for r in bound_violations(records)]
    ok = not bad
    ratios = [f"{r.mean_error / r.bound:.3f}" for r in records]
    assert _report(
        10,
        "uniform keys with beta-distributed queries stay below the joint bound",
        ok,
        f"(error/bound ratios {ratios})",
    )


def test_criterion_11_two_layer_matches_flat_at_equal_space():
    results = {}
    ok = True
    k_flat, k_buckets, k_top = 1_000, 800, 200
    assert abs((k_buckets + k_top) - k_flat) <= 0.05 * k_flat
    for kind, seed in (("uniform", 406), ("beta22", 407)):
        keys = rescale_unit(generate(DatasetSpec(kind, n=200_000, seed=seed)))
        rng = np.random.default_rng(seed)
        queries = keys.keys[rng.integers(0, keys.n, 20_000)]
        ranks = exact_ranks(keys, queries)
        flat = build_espc(keys, k_flat)
        flat_err = measure_errors(flat, queries, ranks)
        hier = build_equal_probability(keys, k_buckets, k_top)
        buckets = np.searchsorted(hier.boundaries.keys, queries, side="right")
        estimates = (buckets - 0.5) * keys.n / hier.K
        hier_err = float(np.mean(np.abs(ranks - estimates)))
        results[kind] = hier_err / flat_err
        if hier_err > 1.5 * flat_err:
            ok = False
    detail = ", ".join(f"{k} ratio {v:.3f}" for k, v in results.items())
    assert _report(11, "two-layer error within 1.5x of flat at matched slots", ok, f"({detail})")
