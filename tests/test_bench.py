"""Experiment harness: records, bounds, space accounting, CSV output."""

import csv
import tracemalloc

import numpy as np
import pytest

from espc import bench as bench_mod
from espc.bench import (
    CSV_COLUMNS,
    BenchConfig,
    BenchRecord,
    bound_violations,
    draw_queries,
    emit_csv,
    measure_comparisons,
    measure_errors,
    measure_space,
    prepare_keys,
    run_error_experiment,
)
from espc.core import INT_MODE, rank_bruteforce, validate_key_array
from espc.data import DatasetSpec, generate, write_sosd
from espc.errors import InvalidParams
from espc.index import build_espc, predict_many
from espc.stats import HISTOGRAM, KERNEL


def _small_cfg(**overrides):
    base = dict(
        dataset=DatasetSpec("uniform", n=100_000, seed=11),
        n_sub=100_000,
        k_grid=(100, 1_000),
        queries=5_000,
        seed=11,
    )
    base.update(overrides)
    return BenchConfig(**base)


class TestMeasureSpace:
    def test_documented_sizes(self):
        keys = generate(DatasetSpec("uniform", n=2_000, seed=1))
        assert measure_space(build_espc(keys, 1_000)) == 4_045
        assert measure_space(build_espc(keys, 1)) == 45 + 4

    def test_linear_in_k(self):
        keys = generate(DatasetSpec("uniform", n=2_000, seed=1))
        s1 = measure_space(build_espc(keys, 500))
        s2 = measure_space(build_espc(keys, 1_000))
        assert s2 - 45 == 2 * (s1 - 45)


class TestRunErrorExperiment:
    def test_records_shape_and_monotone_error(self):
        records = run_error_experiment(_small_cfg())
        assert len(records) == 2
        assert all(isinstance(r, BenchRecord) for r in records)
        assert records[0].k == 100 and records[1].k == 1_000
        assert records[0].mean_error > records[1].mean_error
        assert all(r.mean_error >= 0 for r in records)

    def test_bounds_hold_on_synthetics(self):
        for kind in ("uniform", "beta22"):
            records = run_error_experiment(_small_cfg(dataset=DatasetSpec(kind, n=100_000, seed=12)))
            assert bound_violations(records) == []

    def test_k_equal_n_error_below_rho_level(self):
        cfg = _small_cfg(k_grid=(100_000,))
        (rec,) = run_error_experiment(cfg)
        assert rec.mean_error <= 1.5 * rec.rho

    def test_all_low_queries_have_zero_error(self):
        keys = generate(DatasetSpec("uniform", n=10_000, seed=13))
        idx = build_espc(keys, 64)
        low = np.full(100, keys.x_min - 1.0)
        assert measure_errors(idx, low, np.zeros(100, dtype=np.int64)) == 0.0

    def test_space_exactly_affine_across_grid(self):
        records = run_error_experiment(_small_cfg(k_grid=(100, 200, 400)))
        for rec in records:
            assert rec.space_bytes == 45 + 4 * rec.k

    def test_deterministic_apart_from_clocks(self):
        a = run_error_experiment(_small_cfg())
        b = run_error_experiment(_small_cfg())
        for ra, rb in zip(a, b):
            assert ra.mean_error == rb.mean_error
            assert ra.mean_comparisons == rb.mean_comparisons
            assert ra.bound == rb.bound

    def test_rho_and_bound_do_not_depend_on_the_seed(self):
        # All keys kept and queries drawn from them: the seed moves only the queries.
        runs = [run_error_experiment(_small_cfg(n_sub=0, queries=2_000, seed=s)) for s in (3, 4)]
        for ra, rb in zip(*runs):
            assert (ra.rho, ra.bound) == (rb.rho, rb.bound)
        assert [r.mean_error for r in runs[0]] != [r.mean_error for r in runs[1]]

    def test_query_distribution_changes_workload(self):
        cfg = _small_cfg(query_dist=DatasetSpec("beta22"))
        records = run_error_experiment(cfg)
        assert bound_violations(records) == []

    @pytest.mark.parametrize("method", [HISTOGRAM, KERNEL])
    def test_query_distribution_needs_four_queries_for_rho(self, method):
        with pytest.raises(InvalidParams):
            _small_cfg(query_dist=DatasetSpec("beta22"), queries=3, rho_method=method)
        _small_cfg(query_dist=DatasetSpec("beta22"), queries=4, rho_method=method)

    def test_float_queries_on_uint64_keys_match_oracle(self, tmp_path):
        path = tmp_path / "dense.sosd"
        write_sosd(path, validate_key_array(2**60 + np.arange(2_000, dtype=np.uint64), INT_MODE))
        cfg = _small_cfg(
            dataset=DatasetSpec("file", params={"path": str(path), "mode": INT_MODE}),
            n_sub=0,
            k_grid=(10, 100),
            queries=300,
            query_dist=DatasetSpec("normal", params={"mu": 2**60 + 1e3, "sigma": 300.0}),
            rescale=False,
        )
        keys = prepare_keys(cfg)
        queries = draw_queries(cfg, keys)
        ranks = np.array([rank_bruteforce(keys, q) for q in queries])
        for rec in run_error_experiment(cfg):
            predictions = predict_many(build_espc(keys, rec.k), queries)
            assert rec.mean_error == float(np.mean(np.abs(ranks - predictions)))

    def test_scale_is_chosen_once_and_rows_match_build_espc(self, monkeypatch):
        choices = []
        choose = bench_mod._choose_shift

        def counted(*args):
            choices.append(choose(*args))
            return choices[-1]

        monkeypatch.setattr(bench_mod, "_choose_shift", counted)
        cfg = _small_cfg(dataset=DatasetSpec("lognormal", n=20_000, seed=3), n_sub=0,
                         k_grid=(10, 1_000, 20_000), queries=2_000)
        records = run_error_experiment(cfg)
        assert len(choices) == 1 and choices[0] is not None  # one log scale for the grid
        keys = prepare_keys(cfg)
        queries = draw_queries(cfg, keys)
        ranks = np.searchsorted(keys.keys, queries, side="right")
        for rec in records:
            idx = build_espc(keys, rec.k)
            assert idx.shift == choices[0]
            assert rec.space_bytes == measure_space(idx)
            assert rec.mean_error == measure_errors(idx, queries, ranks)
            counts, _ = measure_comparisons(idx, keys, queries, ranks)
            assert rec.mean_comparisons == float(np.mean(counts))

    def test_rejects_bad_config(self):
        with pytest.raises(InvalidParams):
            _small_cfg(k_grid=())
        with pytest.raises(InvalidParams):
            _small_cfg(k_grid=(1_000, 100))
        with pytest.raises(InvalidParams):
            _small_cfg(queries=0)
        with pytest.raises(InvalidParams):
            _small_cfg(seed=-1)
        with pytest.raises(InvalidParams, match="n_sub"):
            _small_cfg(n_sub=-1)
        assert _small_cfg(n_sub=0).n_sub == 0  # 0 keeps every key

    def test_wrong_rank_fails_the_cross_check(self):
        keys = validate_key_array(np.arange(10.0))
        queries = np.array([2.0, 5.5])
        ranks = np.array([3, 6])
        counts, _ = measure_comparisons(build_espc(keys, 3), keys, queries, ranks)
        assert counts.shape == (2,)
        with pytest.raises(AssertionError, match="5.5"):
            measure_comparisons(build_espc(keys, 3), keys, queries, np.array([3, 7]))

    def test_measure_errors_peak_below_twice_the_queries(self):
        keys = validate_key_array(np.linspace(0.0, 1.0, 1_000))
        idx = build_espc(keys, 100)
        queries = np.random.default_rng(12).random(1_000_000)
        ranks = np.searchsorted(keys.keys, queries, side="right")
        want = float(np.mean(np.abs(ranks - predict_many(idx, queries))))
        tracemalloc.start()
        try:
            got = measure_errors(idx, queries, ranks)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert got == want  # bit-identical to one unblocked pass
        assert peak < 2 * queries.nbytes

    def test_paper_scale_swaps_grid(self):
        cfg = _small_cfg().paper_scale()
        assert cfg.n_sub == 10_000_000
        assert cfg.queries == 30_000_000
        assert cfg.k_grid[0] == 1_000 and cfg.k_grid[-1] == 200_000


class TestCsv:
    def test_header_only_when_empty(self, tmp_path):
        path = tmp_path / "out.csv"
        emit_csv([], path)
        lines = path.read_text().splitlines()
        assert lines == [",".join(CSV_COLUMNS)]

    def test_round_trip_numeric_fields(self, tmp_path):
        records = run_error_experiment(_small_cfg())
        path = tmp_path / "out.csv"
        emit_csv(records, path)
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == len(records)
        for row, rec in zip(rows, records):
            assert int(row["k"]) == rec.k
            assert float(row["mean_error"]) == rec.mean_error
            assert float(row["bound"]) == rec.bound
            assert int(row["space_bytes"]) == rec.space_bytes

    def test_line_count(self, tmp_path):
        records = run_error_experiment(_small_cfg())
        path = tmp_path / "out.csv"
        emit_csv(records, path)
        assert len(path.read_text().splitlines()) == 3

    def test_config_output_path_writes(self, tmp_path):
        path = tmp_path / "auto.csv"
        run_error_experiment(_small_cfg(output=str(path)))
        assert path.exists()
