"""Command-line behaviour: verbs, exit codes, reproducibility."""

import json
import os
import struct
import subprocess
import sys
from pathlib import Path

import pytest

from espc.cli import dispatch
from espc.core import FLOAT_MODE, INT_MODE, rank_bruteforce, validate_key_array
from espc.data import read_sosd, write_sosd
from espc.index import HEADER_BYTES, SLOT_BYTES


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
        assert "space_bytes=77" in out  # 45 + 8*4

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
            ["rho", "--data", data, "--mode", "float64", "--draws", "20000", "--seed", "1"],
        )
        assert code == 0
        value = float(out.split("rho=")[1].split()[0])
        assert abs(value - 1.0) <= 0.05
        assert "h2_hat=" in out  # unit span, so the entropy alias prints

    def test_rho_reproducible(self, tmp_path, capsys):
        data = str(tmp_path / "u.sosd")
        _run(capsys, ["generate", "--kind", "beta22", "--n", "50000", "--seed", "6",
                      "--out", data])
        argv = ["rho", "--data", data, "--mode", "float64", "--draws", "5000", "--seed", "2"]
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


class TestBench:
    def test_flags_run_and_write_csv(self, tmp_path, capsys):
        csv_path = str(tmp_path / "r.csv")
        code, out, _ = _run(
            capsys,
            ["bench", "--kind", "uniform", "--n", "50000", "--n-sub", "50000",
             "--k-grid", "64,512", "--queries", "2000", "--rho-draws", "5000",
             "--seed", "4", "--check", "--out", csv_path],
        )
        assert code == 0
        assert "mean_error=" in out
        assert len(open(csv_path).read().splitlines()) == 3

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

    def test_corrupt_index_exits_three(self, tmp_path, capsys, int_file):
        idx_path = tmp_path / "keys.espc"
        assert dispatch(["build", "--data", int_file, "--k", "2", "--out", str(idx_path)]) == 0
        blob = bytearray(idx_path.read_bytes())
        blob[HEADER_BYTES : HEADER_BYTES + SLOT_BYTES] = struct.pack("<d", 1e9)
        idx_path.write_bytes(bytes(blob))
        code, _, err = _run(
            capsys, ["query", "--index", str(idx_path), "--data", int_file, "--q", "5"]
        )
        assert code == 3
        assert err.startswith("error:")


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


def _negative_seed(verb):
    def argv(tmp_path):
        path = tmp_path / "keys.sosd"
        write_sosd(path, validate_key_array(list(range(100)), FLOAT_MODE))
        tail = {
            "bench": ["--kind", "uniform", "--n", "1000", "--k-grid", "10", "--queries", "10"],
            "generate": ["--kind", "uniform", "--n", "10", "--out", str(tmp_path / "g.sosd")],
            "rho": ["--data", str(path), "--mode", "float64"],
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


def _huge_draws(verb):
    # 10^15 draws cannot be allocated anywhere; never use a count that might be.
    def argv(tmp_path):
        path = tmp_path / "keys.sosd"
        write_sosd(path, validate_key_array(list(range(10)), FLOAT_MODE))
        tail = {
            "generate": ["generate", "--kind", "uniform", "--n", str(10**15),
                         "--out", str(tmp_path / "g.sosd")],
            "rho": ["rho", "--data", str(path), "--mode", "float64", "--draws", str(10**15)],
        }[verb]
        return tail, str(10**15)

    return argv


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
        _truncated_gz,
        _negative_seed("bench"),
        _negative_seed("generate"),
        _negative_seed("rho"),
        _text_sigma,
        _bad_k("build", str(10**15)),
        _bad_k("entropy", str(10**15)),
        _bad_k("entropy", str(2**63)),
        _bad_k("entropy", "3", keys=(0.0, 5e-324), mode=FLOAT_MODE),
        _huge_draws("generate"),
        _huge_draws("rho"),
        _rho_on([0.0, 1e-10, 2e-10, 3e-10, 4e-10, 1e10], "bin width"),
        _rho_on([0.0, 1e-300, 2e-300, 3e-300, 4e-300, 1e10], "bin width"),
        _rho_on([1.0] * 4, "bandwidth", "--method", "kernel", "--bandwidth", "1e-300"),
        _rho_on([1.0, 1.25, 1.5, 2.0], "bandwidth", "--method", "kernel", "--bandwidth", "1e-300"),
        _rho_on(range(10), "bandwidth", "--bandwidth", "0.1"),
    ],
    ids=["k_grid_flag", "not_json", "not_object", "text_n", "text_k_grid", "text_n_sub",
         "truncated_gz", "negative_seed_bench", "negative_seed_generate", "negative_seed_rho",
         "text_sigma", "huge_k", "entropy_huge_k", "entropy_k_2_63", "entropy_k_underflow",
         "generate_huge_n", "rho_huge_draws", "rho_bins_past_int64", "rho_infinite_bins",
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
