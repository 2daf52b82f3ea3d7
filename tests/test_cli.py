"""Command-line behaviour: verbs, exit codes, reproducibility."""

import csv
import json
import math
import os
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from espc.bench import BenchConfig, run_error_experiment
from espc.cli import dispatch
from espc.core import FLOAT_MODE, INT_MODE, KeyArray, rank_bruteforce, validate_key_array
from espc.data import DatasetSpec, read_sosd, write_sosd
from espc.index import HEADER_BYTES, MAX_KEYS, SLOT_BYTES


@pytest.fixture
def int_file(tmp_path):
    path = tmp_path / "keys.sosd"
    write_sosd(path, validate_key_array([2, 3, 5, 7, 11, 13, 17, 19], INT_MODE))
    return str(path)


def _run(capsys, argv):
    code = dispatch(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


class TestGenerateBuildQuery:
    def test_pipeline_matches_oracle(self, tmp_path, capsys, int_file):
        idx_path = str(tmp_path / "keys.espc")
        code, out, _ = _run(capsys, ["build", "--data", int_file, "--k", "4", "--out", idx_path])
        assert code == 0
        assert "space_bytes=61" in out  # 45 + 4*4

        keys = read_sosd(int_file, INT_MODE)
        for q in (1, 2, 10, 19, 42):
            code, out, _ = _run(
                capsys,
                ["query", "--index", idx_path, "--data", int_file, "--q", str(q)],
            )
            assert code == 0
            assert f"rank={rank_bruteforce(keys, q)}" in out

    def test_generate_then_reload(self, tmp_path, capsys):
        out_path = str(tmp_path / "u.sosd")
        code, out, _ = _run(
            capsys,
            ["generate", "--kind", "uniform", "--n", "500", "--seed", "3", "--out", out_path],
        )
        assert code == 0
        keys = read_sosd(out_path, FLOAT_MODE)
        assert keys.n == 500
        assert 0.0 <= keys.x_min and keys.x_max <= 1.0

    def test_build_policy_flag(self, tmp_path, capsys, int_file):
        idx_path = str(tmp_path / "keys.espc")
        code, out, _ = _run(
            capsys, ["build", "--data", int_file, "--policy", "linear", "--out", idx_path]
        )
        assert code == 0
        assert "k=8" in out

    def test_invalid_k_exits_one(self, tmp_path, capsys, int_file):
        code, _, err = _run(
            capsys,
            ["build", "--data", int_file, "--k", "0", "--out", str(tmp_path / "x.espc")],
        )
        assert code == 1
        assert "error" in err.lower()

    @pytest.mark.parametrize(
        "kind, flag, value",
        [("normal", "--sigma", "nan"), ("normal", "--sigma", "inf"), ("lognormal", "--sigma", "0"),
         ("normal", "--mu", "nan"), ("lognormal", "--mu", "-inf")],
    )
    def test_bad_distribution_param_exits_one(self, tmp_path, capsys, kind, flag, value):
        out_path = tmp_path / "g.sosd"
        argv = ["generate", "--kind", kind, "--n", "10", f"{flag}={value}", "--out", str(out_path)]
        code, out, err = _run(capsys, argv)
        assert (code, out) == (1, "")
        assert err.startswith(f"error: {flag[2:]} must be")
        assert not out_path.exists()

    @pytest.mark.parametrize(
        "kind, flags", [("lognormal", ["--mu", "1000"]), ("normal", ["--sigma", "1e308"])]
    )
    def test_overflowing_draws_exit_one(self, tmp_path, capsys, kind, flags):
        out_path = tmp_path / "g.sosd"
        argv = ["generate", "--kind", kind, "--n", "1000", *flags, "--out", str(out_path)]
        code, out, err = _run(capsys, argv)
        assert (code, out) == (1, "")
        assert err.startswith(f"error: {kind} draws with mu=") and "overflow float64" in err
        assert "sigma=" in err and not out_path.exists()

    def test_build_reports_the_shift(self, tmp_path, capsys, int_file):
        idx_path = str(tmp_path / "keys.espc")
        code, out, _ = _run(capsys, ["build", "--data", int_file, "--k", "4", "--out", idx_path])
        assert code == 0 and out.rstrip().endswith(" shift=none")
        heavy = tmp_path / "heavy.sosd"
        keys = validate_key_array(np.random.default_rng(5).lognormal(0.0, 2.0, 20_000), FLOAT_MODE)
        write_sosd(heavy, keys)
        argv = ["build", "--data", str(heavy), "--mode", FLOAT_MODE, "--policy", "sublinear",
                "--out", idx_path]
        code, out, _ = _run(capsys, argv)
        shift = float(out.rsplit(" shift=", 1)[1])
        assert code == 0 and shift < keys.x_min
        assert Path(idx_path).read_bytes()[:5] == b"ESPC3"
        for q in (keys.keys[0], keys.keys[777], keys.keys[-1] / 2, 1e9):
            argv = ["query", "--index", idx_path, "--data", str(heavy), "--mode", FLOAT_MODE,
                    "--q", repr(float(q))]
            code, out, _ = _run(capsys, argv)
            assert code == 0 and out.startswith(f"rank={rank_bruteforce(keys, float(q))} ")

    def test_too_many_keys_exits_one(self, tmp_path, capsys, monkeypatch):
        from espc import cli as cli_mod

        huge = KeyArray(keys=np.broadcast_to(0.5, MAX_KEYS + 1), mode=FLOAT_MODE)  # no allocation
        monkeypatch.setattr(cli_mod, "read_sosd", lambda path, mode: huge)
        code, _, err = _run(
            capsys, ["build", "--data", "keys.sosd", "--k", "2", "--out", str(tmp_path / "x.espc")]
        )
        assert code == 1
        assert err.startswith("error:")

    def test_k_and_policy_conflict(self, tmp_path, capsys, int_file):
        code, _, _ = _run(
            capsys,
            ["build", "--data", int_file, "--k", "2", "--policy", "linear",
             "--out", str(tmp_path / "x.espc")],
        )
        assert code == 1


class TestIngest:
    def test_rescale(self, tmp_path, capsys, int_file):
        out_path = str(tmp_path / "unit.sosd")
        code, out, _ = _run(
            capsys, ["ingest", "--in", int_file, "--out", out_path, "--rescale"]
        )
        assert code == 0
        keys = read_sosd(out_path, FLOAT_MODE)
        assert keys.x_min == 0.0 and keys.x_max == 1.0

    def test_missing_file_exits_three(self, tmp_path, capsys):
        code, _, err = _run(
            capsys, ["ingest", "--in", str(tmp_path / "nope.sosd"), "--out", str(tmp_path / "o")]
        )
        assert code == 3
        assert "error" in err.lower()


class TestRhoAndEntropy:
    def test_rho_on_uniform(self, tmp_path, capsys):
        data = str(tmp_path / "u.sosd")
        _run(capsys, ["generate", "--kind", "uniform", "--n", "200000", "--seed", "5",
                      "--out", data])
        code, out, _ = _run(
            capsys,
            ["rho", "--data", data, "--mode", "float64"],
        )
        assert code == 0
        value = float(out.split("rho=")[1].split()[0])
        assert abs(value - 1.0) <= 0.05
        assert "h2_hat=" in out  # unit span, so the entropy alias prints

    def test_rho_reproducible(self, tmp_path, capsys):
        data = str(tmp_path / "u.sosd")
        _run(capsys, ["generate", "--kind", "beta22", "--n", "50000", "--seed", "6",
                      "--out", data])
        argv = ["rho", "--data", data, "--mode", "float64"]
        _, first, _ = _run(capsys, argv)
        _, second, _ = _run(capsys, argv)
        assert first == second

    def test_entropy(self, tmp_path, capsys):
        data = str(tmp_path / "u.sosd")
        _run(capsys, ["generate", "--kind", "uniform", "--n", "10000", "--seed", "7",
                      "--out", data])
        code, out, _ = _run(
            capsys,
            ["entropy", "--data", data, "--mode", "float64", "--k", "16",
             "--a", "0", "--b", "1"],
        )
        assert code == 0
        h2 = float(out.split("h2=")[1].split()[0])
        assert 2.5 <= h2 <= 2.78  # close to ln(16) for near-uniform cells

    def test_entropy_in_bits(self, tmp_path, capsys):
        data = str(tmp_path / "u.sosd")
        _run(capsys, ["generate", "--kind", "beta22", "--n", "10000", "--seed", "7",
                      "--out", data])
        argv = ["entropy", "--data", data, "--mode", "float64", "--k", "16"]
        lines = [_run(capsys, argv + flag)[1].split() for flag in ([], ["--bits"])]
        (nats, nats_bound, nats_unit, _), (bits, bits_bound, bits_unit, _) = (
            [field.split("=")[1] for field in line] for line in lines)
        assert (nats_unit, bits_unit) == ("nats", "bits")
        assert float(bits) == pytest.approx(float(nats) / math.log(2), rel=1e-5)
        assert float(bits_bound) == pytest.approx(float(nats_bound) / math.log(2), rel=1e-5)


class TestBench:
    def test_flags_run_and_write_csv(self, tmp_path, capsys):
        csv_path = str(tmp_path / "r.csv")
        code, out, _ = _run(
            capsys,
            ["bench", "--kind", "uniform", "--n", "50000", "--n-sub", "50000",
             "--k-grid", "64,512", "--queries", "2000", "--seed", "4", "--check",
             "--out", csv_path],
        )
        assert code == 0
        assert "mean_error=" in out
        assert len(open(csv_path).read().splitlines()) == 3

    def test_query_kind_draws_the_queries_from_that_distribution(self, tmp_path, capsys):
        argv = ["bench", "--kind", "beta22", "--n", "20000", "--k-grid", "16,128",
                "--queries", "2000", "--seed", "4", "--check"]
        rows = []
        for flag in ([], ["--query-kind", "uniform"]):
            csv_path = tmp_path / f"r{len(rows)}.csv"
            assert _run(capsys, [*argv, *flag, "--out", str(csv_path)])[0] == 0
            with open(csv_path, newline="") as fh:
                rows.append([[row[c] for c in ("k", "mean_error", "bound", "mean_comparisons")]
                             for row in csv.DictReader(fh)])
        cfg = BenchConfig(dataset=DatasetSpec("beta22", n=20000, seed=4), k_grid=(16, 128),
                          queries=2000, seed=4, query_dist=DatasetSpec("uniform"))
        expect = [[str(getattr(rec, c)) for c in ("k", "mean_error", "bound", "mean_comparisons")]
                  for rec in run_error_experiment(cfg)]
        assert rows[1] == expect and rows[0] != expect

    def test_file_subsample_repeats(self, tmp_path, capsys):
        data = tmp_path / "keys.sosd"
        write_sosd(data, validate_key_array(np.random.default_rng(3).beta(2, 2, 20000)))
        rows = []
        for run in range(2):
            csv_path = tmp_path / f"r{run}.csv"
            code, _, _ = _run(
                capsys,
                ["bench", "--data", str(data), "--mode", FLOAT_MODE, "--n-sub", "5000",
                 "--k-grid", "16,128", "--queries", "2000", "--seed", "4", "--check",
                 "--out", str(csv_path)],
            )
            assert code == 0
            with open(csv_path, newline="") as fh:
                rows.append([{c: v for c, v in row.items() if c not in ("build_ms", "query_ns")}
                             for row in csv.DictReader(fh)])
        assert rows[0] == rows[1] and len(rows[0]) == 2
        assert all(row["n"] == "5000" for row in rows[0])

    def test_negative_n_sub_exits_one(self, tmp_path, capsys):
        data, csv_path = tmp_path / "keys.sosd", tmp_path / "r.csv"
        write_sosd(data, validate_key_array(np.linspace(0.0, 1.0, 1000)))
        code, out, err = _run(
            capsys,
            ["bench", "--data", str(data), "--mode", FLOAT_MODE, "--n-sub", "-5",
             "--k-grid", "16", "--queries", "100", "--out", str(csv_path)],
        )
        assert (code, out) == (1, "")
        assert err.startswith("error: n_sub must be an integer in [0, inf]")
        assert not csv_path.exists()

    def test_config_file_with_flag_override(self, tmp_path, capsys):
        cfg = {
            "dataset": {"kind": "beta22", "n": 40000, "seed": 9},
            "n_sub": 40000,
            "k_grid": [32, 256],
            "queries": 5000,
            "rho_draws": 5000,
            "seed": 9,
        }
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        code, out, _ = _run(
            capsys, ["bench", "--config", str(cfg_path), "--queries", "1000", "--check"]
        )
        assert code == 0
        assert "dataset=beta22" in out

    def test_usage_error_without_dataset(self, capsys):
        code, _, err = _run(capsys, ["bench"])
        assert code == 1
        assert err

    @pytest.mark.parametrize("field", ["output", "rho_method"])
    def test_config_refuses_a_number_for_a_string(self, tmp_path, capsys, monkeypatch, field):
        monkeypatch.chdir(tmp_path)  # where an output named "5" would land
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"dataset": {"kind": "uniform", "n": 1000},
                                        "k_grid": [10], "queries": 10, field: 5}))
        code, out, err = _run(capsys, ["bench", "--config", str(cfg_path)])
        assert (code, out) == (1, "")
        assert err.startswith(f"error: --config {cfg_path}: 5 is not a JSON str")
        assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]

    def test_check_failure_exits_two(self, capsys, monkeypatch):
        from espc.bench import BenchRecord
        from espc import cli as cli_mod

        def fake_run(cfg):
            return [
                BenchRecord(
                    dataset="uniform", n=10, k=2, mean_error=9.0, bound=1.0,
                    mean_comparisons=3.0, p50_comparisons=3.0, p99_comparisons=4.0,
                    space_bytes=61, build_ms=0.1, query_ns=100.0, rho=1.0, seed=0,
                )
            ]

        monkeypatch.setattr(cli_mod.bench_mod, "run_error_experiment", fake_run)
        code, _, err = _run(
            capsys, ["bench", "--kind", "uniform", "--n", "1000", "--check"]
        )
        assert code == 2
        assert "bound violated" in err


class TestUsage:
    def test_no_verb(self, capsys):
        code, _, _ = _run(capsys, [])
        assert code == 1

    def test_unknown_flag(self, capsys):
        code, _, err = _run(capsys, ["rho", "--frobnicate"])
        assert code == 1
        assert "usage" in err.lower()

    def test_bad_query_value(self, tmp_path, capsys, int_file):
        idx_path = str(tmp_path / "keys.espc")
        _run(capsys, ["build", "--data", int_file, "--k", "2", "--out", idx_path])
        code, _, _ = _run(
            capsys, ["query", "--index", idx_path, "--data", int_file, "--q", "banana"]
        )
        assert code == 1

    def test_nan_query_exits_one_without_traceback(self, tmp_path, capsys):
        data, idx_path = str(tmp_path / "keys.sosd"), str(tmp_path / "keys.espc")
        write_sosd(data, validate_key_array([0.5, 1.5, 2.5], FLOAT_MODE))
        float_args = ["--data", data, "--mode", "float64"]
        assert dispatch(["build", *float_args, "--k", "2", "--out", idx_path]) == 0
        code, _, err = _run(capsys, ["query", "--index", idx_path, *float_args, "--q", "nan"])
        assert code == 1
        assert err.startswith("error:")

    def test_integer_query_past_float64_answers_without_traceback(self, tmp_path, capsys,
                                                                  int_file):
        # float() of such a query overflows; it lies past every key, or before them all.
        idx_path = str(tmp_path / "keys.espc")
        assert _run(capsys, ["build", "--data", int_file, "--k", "2", "--out", idx_path])[0] == 0
        for q, rank in ((10**400, 8), (-(10**400), 0)):
            code, out, err = _run(capsys, ["query", "--index", idx_path, "--data", int_file,
                                           "--q", str(q)])
            assert (code, err) == (0, "")
            assert out.startswith(f"rank={rank} error=0.0 ")

    def test_usage_error_then_valid_command(self, capsys, int_file):
        # One parser serves the whole process: an error leaves it as a fresh one is.
        from espc import cli as cli_mod

        bad = ["entropy", "--data", int_file, "--k", "two"]
        good = ["entropy", "--data", int_file, "--k", "2"]
        together = [_run(capsys, bad), _run(capsys, good)]
        cli_mod._build_parser.cache_clear()
        good_alone = _run(capsys, good)
        cli_mod._build_parser.cache_clear()
        bad_alone = _run(capsys, bad)
        assert together == [bad_alone, good_alone]
        code, out, err = bad_alone
        assert (code, out) == (1, "") and err.startswith("error:") and "usage:" in err
        code, out, err = good_alone
        assert (code, err) == (0, "") and out.startswith("h2=")

    def test_corrupt_index_exits_three(self, tmp_path, capsys, int_file):
        idx_path = tmp_path / "keys.espc"
        assert dispatch(["build", "--data", int_file, "--k", "2", "--out", str(idx_path)]) == 0
        blob = bytearray(idx_path.read_bytes())
        blob[HEADER_BYTES : HEADER_BYTES + SLOT_BYTES] = struct.pack("<I", 10**9)
        idx_path.write_bytes(bytes(blob))
        code, _, err = _run(
            capsys, ["query", "--index", str(idx_path), "--data", int_file, "--q", "5"]
        )
        assert code == 3
        assert err.startswith("error:")


    @pytest.mark.parametrize("x_first, x_last", [(1.0, 0.0), (1.0, 1.0), (-1e308, 1e308),
                                                  (0.0, 5e-324)],
                             ids=["reversed", "one_point", "overflow", "underflow"])
    def test_index_whose_header_no_index_holds_exits_three(self, tmp_path, capsys, int_file,
                                                           x_first, x_last):
        # Two cells holding one key each, with the length the header's range derives.
        header = struct.pack("<QQddd", 2, 2, x_first, x_last, (x_last - x_first) / 2)
        idx_path = tmp_path / "keys.espc"
        idx_path.write_bytes(b"ESPC2" + header + struct.pack("<2I", 1, 3))
        code, out, err = _run(
            capsys, ["query", "--index", str(idx_path), "--data", int_file, "--q", "5"]
        )
        assert (code, out) == (3, "")
        assert err.startswith("error:") and "interval length" in err and "Traceback" not in err


def _bad_config(text):
    def argv(tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(text)
        return ["bench", "--config", str(path)], str(path)

    return argv


def _text_k_grid_flag(tmp_path):
    argv = ["bench", "--kind", "uniform", "--n", "1000", "--k-grid", "10,abc", "--queries", "10"]
    return argv, "--k-grid"


def _truncated_gz(tmp_path):
    path = tmp_path / "keys.sosd.gz"
    write_sosd(path, validate_key_array(list(range(1_000)), INT_MODE))
    blob = path.read_bytes()
    path.write_bytes(blob[: len(blob) // 2])
    return ["build", "--data", str(path), "--k", "4", "--out", str(tmp_path / "x.espc")], str(path)


def _text_sigma(tmp_path):
    argv, _ = _bad_config(
        json.dumps({"dataset": {"kind": "normal", "n": 1000, "params": {"sigma": "x"}}})
    )(tmp_path)
    return argv, "sigma"


def _unread_generate_param(tmp_path):
    argv = ["generate", "--kind", "uniform", "--n", "10", "--mu", "1", "--out", str(tmp_path / "g")]
    return argv, "'mu'"


def _negative_seed(verb):
    def argv(tmp_path):
        tail = {
            "bench": ["--kind", "uniform", "--n", "1000", "--k-grid", "10", "--queries", "10"],
            "generate": ["--kind", "uniform", "--n", "10", "--out", str(tmp_path / "g.sosd")],
        }[verb]
        return [verb, *tail, "--seed", "-1"], "seed"

    return argv


def _bad_k(verb, k, keys=tuple(range(10)), mode=INT_MODE):
    # 10^15 slots cannot be allocated anywhere; never use a K that might be.
    def argv(tmp_path):
        path = tmp_path / "keys.sosd"
        write_sosd(path, validate_key_array(list(keys), mode))
        tail = {"build": ["--out", str(tmp_path / "x.espc")], "entropy": ["--mode", mode]}[verb]
        return [verb, "--data", str(path), "--k", k, *tail], k

    return argv


def _generate_huge_n(tmp_path):
    # 10^15 draws cannot be allocated anywhere; never use a count that might be.
    argv = ["generate", "--kind", "uniform", "--n", str(10**15), "--out", str(tmp_path / "g.sosd")]
    return argv, str(10**15)


def _rho_on(keys, culprit, *flags):
    def argv(tmp_path):
        path = tmp_path / "keys.sosd"
        write_sosd(path, validate_key_array(list(keys), FLOAT_MODE))
        return ["rho", "--data", str(path), "--mode", "float64", *flags], culprit

    return argv


_UNIFORM = {"kind": "uniform", "n": 1_000}


@pytest.mark.parametrize(
    "make_argv",
    [
        _text_k_grid_flag,
        _bad_config("{not json"),
        _bad_config('["list"]'),
        _bad_config(json.dumps({"dataset": {"kind": "uniform", "n": "x"}})),
        _bad_config(json.dumps({"dataset": _UNIFORM, "k_grid": "abc", "queries": 10})),
        _bad_config(json.dumps({"dataset": _UNIFORM, "n_sub": "x", "queries": 10})),
        _bad_config(json.dumps({"dataset": _UNIFORM, "k_grid": [10.7, 100], "queries": 10})),
        _bad_config(json.dumps({"dataset": _UNIFORM, "queries": 50.9})),
        _bad_config(json.dumps({"dataset": {"kind": "uniform", "n": 1000.5}, "queries": 10})),
        _bad_config(json.dumps({"dataset": _UNIFORM, "n_sub": 2.5, "queries": 10})),
        _bad_config(json.dumps({"dataset": _UNIFORM, "seed": True, "queries": 10})),
        _bad_config(json.dumps({"dataset": _UNIFORM, "rescale": "false", "queries": 10})),
        _bad_config(json.dumps({"dataset": ["uniform"], "queries": 10})),
        _bad_config(json.dumps({"dataset": {"kind": "normal", "params": [1.0]}, "queries": 10})),
        _bad_config(json.dumps({"dataset": {"kind": "normal", "params": {"mean": 1.0}}})),
        _unread_generate_param,
        _truncated_gz,
        _negative_seed("bench"),
        _negative_seed("generate"),
        _text_sigma,
        _bad_k("build", str(10**15)),
        _bad_k("entropy", str(10**15)),
        _bad_k("entropy", str(2**63)),
        _bad_k("entropy", "3", keys=(0.0, 5e-324), mode=FLOAT_MODE),
        _generate_huge_n,
        _rho_on([0.0, 1e-10, 2e-10, 3e-10, 4e-10, 1e10], "bin width"),
        _rho_on([0.0, 1e-300, 2e-300, 3e-300, 4e-300, 1e10], "bin width"),
        _rho_on([1.0] * 4, "bandwidth", "--method", "kernel", "--bandwidth", "1e-300"),
        _rho_on([1.0, 1.25, 1.5, 2.0], "bandwidth", "--method", "kernel", "--bandwidth", "1e-300"),
        _rho_on(range(10), "bandwidth", "--bandwidth", "0.1"),
    ],
    ids=["k_grid_flag", "not_json", "not_object", "text_n", "text_k_grid", "text_n_sub",
         "fraction_k_grid", "fraction_queries", "fraction_n", "fraction_n_sub", "bool_seed",
         "text_rescale", "dataset_not_object", "params_not_object", "unknown_param_config",
         "unknown_param_generate",
         "truncated_gz", "negative_seed_bench", "negative_seed_generate",
         "text_sigma", "huge_k", "entropy_huge_k", "entropy_k_2_63", "entropy_k_underflow",
         "generate_huge_n", "rho_bins_past_int64", "rho_infinite_bins",
         "kernel_range_unsplittable", "kernel_offsets_overflow", "histogram_bandwidth"],
)
def test_bad_input_exits_with_error_line(tmp_path, capsys, make_argv):
    argv, culprit = make_argv(tmp_path)
    code, _, err = _run(capsys, argv)
    assert code in (1, 3)
    assert err.startswith("error:")
    assert culprit in err.splitlines()[0]


def test_python_m_espc_runs_the_cli():
    paths = [str(Path(__file__).resolve().parents[1] / "src"), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}
    done = subprocess.run([sys.executable, "-m", "espc", "--help"], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("usage: espc")
