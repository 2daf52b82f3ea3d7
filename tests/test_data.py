"""Generators, key-file round-trips, rescaling, subsampling."""

import gzip
import struct
import tracemalloc

import numpy as np
import pytest

from espc.core import FLOAT_MODE, INT_MODE, KeyArray, validate_key_array
from espc.data import (
    DatasetSpec,
    generate,
    read_sosd,
    rescale_unit,
    subsample,
    write_sosd,
)
from espc.errors import (
    CountMismatch,
    DegenerateRange,
    InvalidM,
    InvalidParams,
    NonFiniteKey,
    TruncatedFile,
    UnsortedFileWarning,
)


class TestGenerate:
    def test_uniform_contract(self):
        keys = generate(DatasetSpec("uniform", n=5, seed=7))
        assert keys.n == 5
        assert keys.mode == FLOAT_MODE
        assert 0.0 <= keys.x_min and keys.x_max <= 1.0
        assert np.all(np.diff(keys.keys) >= 0)

    def test_deterministic(self):
        spec = DatasetSpec("beta22", n=1000, seed=123)
        np.testing.assert_array_equal(generate(spec).keys, generate(spec).keys)

    def test_different_seeds_differ(self):
        a = generate(DatasetSpec("uniform", n=100, seed=1))
        b = generate(DatasetSpec("uniform", n=100, seed=2))
        assert not np.array_equal(a.keys, b.keys)

    def test_normal_moments(self):
        keys = generate(DatasetSpec("normal", n=1_000_000, params={"mu": 0.5, "sigma": 0.1}, seed=8))
        assert np.mean(keys.keys) == pytest.approx(0.5, abs=1e-3)
        assert np.std(keys.keys) == pytest.approx(0.1, abs=1e-3)

    def test_lognormal_positive(self):
        keys = generate(DatasetSpec("lognormal", n=1000, seed=9))
        assert keys.x_min > 0

    def test_bad_specs(self):
        with pytest.raises(InvalidParams):
            generate(DatasetSpec("uniform", n=0))
        with pytest.raises(InvalidParams):
            generate(DatasetSpec("normal", n=10, params={"sigma": -1.0}))
        with pytest.raises(InvalidParams):
            generate(DatasetSpec("zipf", n=10))
        with pytest.raises(InvalidParams):
            generate(DatasetSpec("file"))

    @pytest.mark.parametrize(
        "kind, params, culprit",
        [("uniform", {"mu": 1.0}, "'mu'"), ("beta22", {"sigma": 1.0}, "'sigma'"),
         ("normal", {"mu": 0.0, "scale": 1.0}, "'scale'"), ("lognormal", {"path": "x"}, "'path'"),
         ("file", {"path": "x", "sigma": 1.0}, "'sigma'")],
    )
    def test_params_the_kind_does_not_read_are_refused(self, kind, params, culprit):
        with pytest.raises(InvalidParams, match=f"^unknown {kind} params \\[{culprit}\\]"):
            DatasetSpec(kind, n=10, params=params)

    @pytest.mark.parametrize(
        "kind, params",
        [("normal", {"sigma": float("nan")}), ("normal", {"sigma": float("inf")}),
         ("lognormal", {"sigma": 0.0}), ("lognormal", {"mu": float("nan")}),
         ("normal", {"mu": float("-inf")})],
    )
    def test_bad_distribution_params_are_named(self, kind, params):
        # The parameter is named before any draw (not as non-finite keys later).
        (culprit,) = params
        with pytest.raises(InvalidParams, match=f"^{culprit} must be"):
            generate(DatasetSpec(kind, n=10, params=params))


    @pytest.mark.parametrize(
        "kind, params",
        [("lognormal", {"mu": 1000.0}), ("normal", {"sigma": 1e308}),
         ("normal", {"mu": 1e308, "sigma": 1e308}), ("lognormal", {"sigma": 500.0})],
    )
    def test_overflowing_draws_name_mu_and_sigma(self, kind, params):
        # Finite parameters whose draws leave float64: named, not reported as bad keys.
        named = r"^\w+ draws with mu=.* and sigma=.* overflow float64"
        with pytest.raises(InvalidParams, match=named):
            generate(DatasetSpec(kind, n=1000, params=params))


class TestKeyFiles:
    def test_layout(self, tmp_path):
        A = validate_key_array([1, 2, 3], INT_MODE)
        path = tmp_path / "d.sosd"
        write_sosd(path, A)
        blob = path.read_bytes()
        assert len(blob) == 32
        assert struct.unpack_from("<Q", blob)[0] == 3
        assert struct.unpack_from("<QQQ", blob, 8) == (1, 2, 3)

    def test_round_trip_int(self, tmp_path):
        A = validate_key_array([0, 5, 5, 2**64 - 1], INT_MODE)
        path = tmp_path / "d.sosd"
        write_sosd(path, A)
        B = read_sosd(path, INT_MODE)
        np.testing.assert_array_equal(A.keys, B.keys)
        write_sosd(tmp_path / "d2.sosd", B)
        assert path.read_bytes() == (tmp_path / "d2.sosd").read_bytes()

    def test_round_trip_float(self, tmp_path):
        A = generate(DatasetSpec("uniform", n=257, seed=3))
        path = tmp_path / "d.sosd"
        write_sosd(path, A)
        B = read_sosd(path, FLOAT_MODE)
        np.testing.assert_array_equal(A.keys, B.keys)

    @pytest.mark.parametrize("name", ["d.sosd", "d.sosd.gz"])
    def test_written_bytes_are_the_count_then_the_keys(self, tmp_path, monkeypatch, name):
        monkeypatch.setattr(gzip.time, "time", lambda: 1.0e9)  # the gzip header's mtime
        for A in (generate(DatasetSpec("lognormal", n=5000, seed=4)),
                  validate_key_array([0, 7, 2**64 - 1], INT_MODE)):
            dtype = "<f8" if A.mode == FLOAT_MODE else "<u8"
            blob = struct.pack("<Q", A.n) + A.keys.astype(dtype).tobytes()
            path = tmp_path / name
            write_sosd(path, A)
            if name.endswith(".gz"):
                with gzip.open(path, "wb") as fh:  # the same name, so the same gzip header
                    fh.write(blob)
                blob = path.read_bytes()
                write_sosd(path, A)
            assert path.read_bytes() == blob

    def test_gzip_round_trip(self, tmp_path):
        A = validate_key_array([4, 5, 6], INT_MODE)
        path = tmp_path / "d.sosd.gz"
        write_sosd(path, A)
        with gzip.open(path, "rb") as fh:
            assert struct.unpack_from("<Q", fh.read())[0] == 3
        np.testing.assert_array_equal(read_sosd(path, INT_MODE).keys, A.keys)

    def test_truncated(self, tmp_path):
        path = tmp_path / "bad.sosd"
        path.write_bytes(struct.pack("<Q", 3) + b"\0" * 12)  # 20 bytes, claims n=3
        with pytest.raises(TruncatedFile):
            read_sosd(path, INT_MODE)
        path.write_bytes(b"\0" * 4)
        with pytest.raises(TruncatedFile):
            read_sosd(path, INT_MODE)
        path.write_bytes(struct.pack("<QQ", 2**61, 0))  # no 2^64-byte allocation is tried
        with pytest.raises(TruncatedFile):
            read_sosd(path, FLOAT_MODE)

    @pytest.mark.parametrize("keys", [[0.0, 1.0, np.inf], [-np.inf, 0.0, 1.0], [0.0, np.nan, 1.0]])
    def test_non_finite_float_file(self, tmp_path, keys):
        path = tmp_path / "bad.sosd"
        path.write_bytes(struct.pack("<Q", 3) + np.array(keys).tobytes())
        with pytest.raises(NonFiniteKey):
            read_sosd(path, FLOAT_MODE)

    def test_read_holds_the_file_once(self, tmp_path):
        n = 2 * 10**6  # 16 MB of keys
        path = tmp_path / "big.sosd"
        write_sosd(path, validate_key_array(np.linspace(0.0, 1.0, n), FLOAT_MODE))
        tracemalloc.start()
        try:
            A = read_sosd(path, FLOAT_MODE)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert A.n == n and A.keys[-1] == 1.0
        assert peak < 1.25 * 8 * n  # the file's bytes and the key checks' masks
        with pytest.raises(ValueError):  # the bytes under the keys cannot be written
            A.keys.setflags(write=True)

    def test_zero_count(self, tmp_path):
        path = tmp_path / "zero.sosd"
        path.write_bytes(struct.pack("<Q", 0))
        with pytest.raises(CountMismatch):
            read_sosd(path, INT_MODE)

    def test_unsorted_warns_and_sorts(self, tmp_path):
        path = tmp_path / "u.sosd"
        path.write_bytes(struct.pack("<Q", 3) + struct.pack("<QQQ", 3, 1, 2))
        with pytest.warns(UnsortedFileWarning):
            keys = read_sosd(path, INT_MODE)
        assert list(keys.keys) == [1, 2, 3]

    def test_file_dataset_spec(self, tmp_path):
        A = validate_key_array([10, 20], INT_MODE)
        path = tmp_path / "d.sosd"
        write_sosd(path, A)
        spec = DatasetSpec("file", params={"path": str(path), "mode": INT_MODE})
        np.testing.assert_array_equal(generate(spec).keys, A.keys)


class TestRescale:
    def test_affine_map(self):
        A = validate_key_array([10.0, 20.0, 30.0], FLOAT_MODE)
        out = rescale_unit(A)
        np.testing.assert_array_equal(out.keys, [0.0, 0.5, 1.0])
        assert out.mode == FLOAT_MODE
        assert not out.keys.flags.writeable
        np.testing.assert_array_equal(A.keys, [10.0, 20.0, 30.0])  # scaled in a copy

    def test_unit_span_nearly_unchanged(self):
        A = generate(DatasetSpec("uniform", n=1000, seed=5))
        forced = validate_key_array(
            np.concatenate(([0.0], A.keys, [1.0])), FLOAT_MODE
        )
        out = rescale_unit(forced)
        np.testing.assert_allclose(out.keys, forced.keys, atol=1e-15)

    def test_degenerate(self):
        A = validate_key_array([3.0, 3.0], FLOAT_MODE)
        with pytest.raises(DegenerateRange):
            rescale_unit(A)

    def test_int_mode_input(self):
        A = validate_key_array([100, 200, 400], INT_MODE)
        out = rescale_unit(A)
        np.testing.assert_allclose(out.keys, [0.0, 1.0 / 3.0, 1.0])


class TestSubsample:
    def test_full_size_identity(self):
        A = generate(DatasetSpec("uniform", n=500, seed=6))
        np.testing.assert_array_equal(subsample(A, 500, seed=1).keys, A.keys)

    def test_singleton(self):
        A = generate(DatasetSpec("uniform", n=500, seed=6))
        out = subsample(A, 1, seed=2)
        assert out.n == 1
        assert out.x_min in A.keys

    def test_deterministic(self):
        A = generate(DatasetSpec("uniform", n=500, seed=6))
        np.testing.assert_array_equal(
            subsample(A, 100, seed=3).keys, subsample(A, 100, seed=3).keys
        )

    def test_keys_at_increasing_positions(self):
        # The draw depends on (n, m, seed) alone, so subsampling keys 0..n-1 gives the
        # positions; the keys must be A's at those positions, bit for bit (signed zeros too).
        rng = np.random.default_rng(8)
        zeros = validate_key_array(rng.choice([-0.0, 0.0, 0.5], 3000), FLOAT_MODE)
        near_top = rng.integers(2**64 - 2**10, 2**64 - 1, 3000, dtype=np.uint64, endpoint=True)
        labels = validate_key_array(np.arange(3000), INT_MODE)
        for A in (
            generate(DatasetSpec("beta22", n=3000, seed=6)),
            validate_key_array(np.round(rng.random(3000), 2), FLOAT_MODE),  # duplicates
            validate_key_array(near_top, INT_MODE),
            zeros,
        ):
            for m, seed in ((1, 0), (700, 3), (2990, 5), (3000, 4)):
                out = subsample(A, m, seed)
                positions = subsample(labels, m, seed).keys.astype(np.int64)
                assert len(positions) == m and np.all(np.diff(positions) > 0)
                assert out.mode == A.mode and not out.keys.flags.writeable
                assert out.keys.tobytes() == A.keys[positions].tobytes()

    # (20, 7) keeps every position and drops 13; (60, 20) walks geometric gaps.
    @pytest.mark.parametrize("n, m", [(20, 7), (60, 20)])
    def test_each_position_and_pair_equally_likely(self, n, m):
        draws = 20_000
        labels = validate_key_array(np.arange(n), INT_MODE)
        chosen = np.zeros((draws, n))
        for seed in range(draws):
            chosen[seed, subsample(labels, m, seed).keys.astype(np.int64)] = 1.0
        together = chosen[:, 0] @ chosen[:, [1, n - 1]] / draws  # a neighbour, and the far end
        for rates, p in ((chosen.mean(axis=0), m / n), (together, m * (m - 1) / (n * (n - 1)))):
            assert np.abs(rates - p).max() <= 5 * np.sqrt(p * (1 - p) / draws)  # binomial sd

    def test_memory_is_o_m(self):
        # Keys' values do not enter the draw; a zero-stride view keeps 2*10^7 of them small.
        A = KeyArray(keys=np.broadcast_to(np.float64(0.5), (2 * 10**7,)), mode=FLOAT_MODE)
        tracemalloc.start()
        try:
            out = subsample(A, 10**6, seed=3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert out.n == 10**6
        assert peak < 48e6  # about 17 MB; an n-sized int64 array alone is 160 MB

    def test_bad_m(self):
        A = generate(DatasetSpec("uniform", n=10, seed=6))
        with pytest.raises(InvalidM):
            subsample(A, 0)
        with pytest.raises(InvalidM):
            subsample(A, 11)
