"""Generators, key-file round-trips, rescaling, subsampling."""

import gzip
import struct

import numpy as np
import pytest

from espc.core import FLOAT_MODE, INT_MODE, validate_key_array
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

    def test_equals_sorting_the_drawn_keys(self):
        # Keys at the sorted drawn positions are the drawn keys, sorted: bit for bit
        # without signed zeros, and value for value with them.
        rng = np.random.default_rng(8)
        zeros = validate_key_array(rng.choice([-0.0, 0.0, 0.5], 3000), FLOAT_MODE)
        near_top = rng.integers(2**64 - 2**10, 2**64 - 1, 3000, dtype=np.uint64, endpoint=True)
        for A in (
            generate(DatasetSpec("beta22", n=3000, seed=6)),
            validate_key_array(np.round(rng.random(3000), 2), FLOAT_MODE),  # duplicates
            validate_key_array(near_top, INT_MODE),
            zeros,
        ):
            for m, seed in ((1, 0), (700, 3), (3000, 4)):
                out = subsample(A, m, seed)
                picks = np.random.default_rng(seed).choice(A.n, m, replace=False)
                expected = np.sort(A.keys[picks], kind="stable")
                assert out.mode == A.mode and not out.keys.flags.writeable
                assert np.array_equal(out.keys, expected)
                assert A is zeros or out.keys.tobytes() == expected.tobytes()

    def test_bad_m(self):
        A = generate(DatasetSpec("uniform", n=10, seed=6))
        with pytest.raises(InvalidM):
            subsample(A, 0)
        with pytest.raises(InvalidM):
            subsample(A, 11)
