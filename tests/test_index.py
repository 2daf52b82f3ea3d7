"""Construction, prediction, exact lookup, sizing, and serialization."""

import copy
import dataclasses
import math
import pickle
import struct
import tracemalloc
import warnings

import numpy as np
import pytest

from espc.core import (
    FLOAT_MODE,
    INT_MODE,
    KeyArray,
    exact_ranks,
    rank_bruteforce,
    validate_key_array,
)
from espc.errors import (
    IndexMismatch,
    InvalidIndexFile,
    InvalidK,
    InvalidParams,
    InvalidPolicyParams,
    OutOfRange,
    StartOutOfRange,
)
from espc.bench import BenchConfig, prepare_keys
from espc.data import DatasetSpec
from espc.index import (
    CELL_LIMIT,
    HEADER_BYTES,
    MAX_KEYS,
    SHIFT_FLOOR,
    SLOT_BYTES,
    EspcIndex,
    HierIndex,
    SizingPolicy,
    assign_intervals,
    build_equal_probability,
    build_espc,
    choose_k,
    deserialize_index,
    evaluate_rank,
    evaluate_rank_hier,
    evaluate_rank_many,
    load_index,
    locate_interval,
    predict,
    predict_many,
    save_index,
    serialize_index,
)
from espc.index import _bisect_starts, _bits, _cell_starts, _choose_shift, _span
from espc.search import binary_search_rank, exponential_search


def _four_keys():
    return validate_key_array([0.0, 1.0, 2.0, 3.0], FLOAT_MODE)


def _lognormal_keys(n, seed=0):
    return validate_key_array(np.random.default_rng(seed).lognormal(0.0, 2.0, n), FLOAT_MODE)


def _interval_counts(idx, A):
    ks = assign_intervals(A.keys, idx.x_first, idx.delta, idx.K) if idx.delta else None
    if ks is None:
        return np.array([A.n])
    return np.bincount(ks, minlength=idx.K + 1)[1:]


class TestBuild:
    def test_hand_worked_example(self):
        idx = build_espc(_four_keys(), 2)
        assert idx.delta == 1.5
        assert list(idx.r) == [1.0, 3.0]
        assert list(_interval_counts(idx, _four_keys())) == [2, 2]

    def test_single_interval(self):
        A = validate_key_array([10, 20, 30, 40, 50], FLOAT_MODE)
        idx = build_espc(A, 1)
        assert idx.delta == 40.0
        assert list(idx.r) == [2.5]

    def test_degenerate_range(self):
        A = validate_key_array([7, 7, 7], FLOAT_MODE)
        for k in (1, 2, 100):
            idx = build_espc(A, k)
            assert idx.K == 1
            assert idx.delta == 0.0
            assert list(idx.r) == [1.5]

    def test_invalid_k(self):
        with pytest.raises(InvalidK):
            build_espc(_four_keys(), 0)
        # The interval length underflows to 0, or the key span overflows.
        for keys, k in (([0.0, 5e-324], 3), ([-1.7e308, 1.7e308], 1)):
            with pytest.raises(InvalidK):
                build_espc(validate_key_array(keys, FLOAT_MODE), k)
        with pytest.raises(InvalidK):  # 8 PB of slots
            build_espc(_four_keys(), 10**15)
        with warnings.catch_warnings():  # refused before numpy warns of an invalid int64 cast
            warnings.simplefilter("error")
            for k in (2**63, 10**30):
                with pytest.raises(InvalidK):
                    build_espc(_four_keys(), k)

    def test_cell_limit_refuses_before_allocating(self):
        # Sizes refused at once: a K past the limit would otherwise allocate 12 bytes a cell.
        tracemalloc.start()
        try:
            for keys in (_four_keys(), validate_key_array(np.arange(2_000.0), FLOAT_MODE)):
                with pytest.raises(InvalidK, match=str(CELL_LIMIT)):
                    build_espc(keys, CELL_LIMIT + 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20
        # K = n is admitted past the limit; broadcast views of one key allocate nothing.
        many = KeyArray(keys=np.broadcast_to(0.5, CELL_LIMIT + 2), mode=FLOAT_MODE)
        assert build_espc(many, CELL_LIMIT + 2).K == 1
        with pytest.raises(InvalidK):
            build_espc(many, CELL_LIMIT + 3)

    def test_estimates_reconstruct_from_counts(self):
        rng = np.random.default_rng(21)
        for _ in range(50):
            n = int(rng.integers(2, 500))
            A = validate_key_array(rng.integers(0, 60, n), INT_MODE)
            k = int(rng.integers(1, 2 * n))
            idx = build_espc(A, k)
            counts = _interval_counts(idx, A)
            before = np.concatenate(([0], np.cumsum(counts)[:-1]))
            np.testing.assert_allclose(idx.r, before + counts / 2.0)
            assert np.all(np.diff(idx.r) >= 0)
            assert idx.r[0] >= 0 and idx.r[-1] <= n

    @pytest.mark.parametrize("kind", ["uniform", "lognormal"])
    def test_guessed_cell_starts_rarely_need_bisection(self, kind, monkeypatch):
        # At K = ceil(n/log2 n) the build guesses each cell's start from its edge, and at
        # most 1% of the guesses may fail the cell rule and be bisected blind.
        n = 10**5
        rng = np.random.default_rng(27)
        raw = rng.random(n) if kind == "uniform" else rng.lognormal(0.0, 2.0, n)
        A = validate_key_array(raw, FLOAT_MODE)
        k = math.ceil(n / math.log2(n))
        guessed, bisected = [], []

        def guess(keys, *args):
            guessed.append(len(keys))
            return _cell_starts(keys, *args)

        def bisect(keys, cells, *args):
            bisected.append(len(cells))
            return _bisect_starts(keys, cells, *args)

        monkeypatch.setattr("espc.index._cell_starts", guess)
        monkeypatch.setattr("espc.index._bisect_starts", bisect)
        idx = build_espc(A, k)
        assert (idx.shift is not None) == (kind == "lognormal")
        assert guessed == [n]  # the scale's 4 096-key sample is counted in one pass
        assert sum(bisected) <= 0.01 * (k - 1)
        counts = np.bincount(assign_intervals(A.keys, idx.x_first, idx.delta, k, idx.shift),
                             minlength=k + 1)[1:]
        c = np.cumsum(counts)
        assert idx.t.tobytes() == (c + np.concatenate(([0], c[:-1]))).astype(np.uint32).tobytes()

    def test_small_arrays_count_their_keys_in_one_pass(self, monkeypatch):
        # Criterion 2's arrays of 1 to 12 keys, at every K up to n: a guess's fixed cost
        # would exceed the pass over so few keys.
        def refuse(*args, **kwargs):
            raise AssertionError("a small build searched for its cell starts")

        monkeypatch.setattr(np, "searchsorted", refuse)
        rng = np.random.default_rng(302)
        for n in range(1, 13):
            A = validate_key_array(rng.random(n), FLOAT_MODE)
            for k in range(1, n + 1):
                assert build_espc(A, k).K == (1 if n == 1 else k)

    def test_large_k_build_peaks_below_13_bytes_per_cell(self):
        A = validate_key_array(np.random.default_rng(22).random(2_000), FLOAT_MODE)
        k = 10**6
        tracemalloc.start()
        try:
            idx = build_espc(A, k)
            retained, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert idx.K == k
        assert peak < 13 * k  # the int64 running counts and the uint32 slots
        assert retained <= SLOT_BYTES * k + 1024  # the slots alone: nothing derived is kept

    def test_key_limit(self):
        # Broadcast views of one key allocate nothing; all-equal keys make one cell.
        idx = build_espc(KeyArray(keys=np.broadcast_to(0.5, MAX_KEYS), mode=FLOAT_MODE), 4)
        assert (idx.n, idx.K, idx.t.tolist()) == (2**31 - 1, 1, [2**31 - 1])
        with pytest.raises(InvalidParams):
            build_espc(KeyArray(keys=np.broadcast_to(0.5, MAX_KEYS + 1), mode=FLOAT_MODE), 4)
        # Slots up to 2n = 2^32 - 2 read back exactly (built by hand: no keys exist).
        t = np.array([MAX_KEYS, 2 * MAX_KEYS], dtype=np.uint32)
        big = EspcIndex(x_first=0.0, x_last=2.0, n=MAX_KEYS, t=t)
        expected = [MAX_KEYS / 2, MAX_KEYS]
        assert predict_many(big, [0.5, 1.5]).tolist() == [predict(big, 0.5), predict(big, 1.5)] == expected

    def test_estimates_are_half_the_slots(self, tmp_path):
        rng = np.random.default_rng(26)
        A = validate_key_array(rng.random(300), FLOAT_MODE)
        for k in (1, 7, 1_000):
            idx = build_espc(A, k)
            assert idx.t.dtype == np.uint32 and not idx.t.flags.writeable
            r = idx.r
            assert r.dtype == np.float64 and not r.flags.writeable
            assert r is not idx.r  # computed on each access, never kept
            np.testing.assert_array_equal(r, idx.t / 2)
            save_index(idx, tmp_path / "idx.espc")
            np.testing.assert_array_equal(load_index(tmp_path / "idx.espc").r, r)


class TestLocateAndPredict:
    def test_left_edge_clamp(self):
        idx = build_espc(_four_keys(), 2)
        assert locate_interval(idx, 0.0) == 1

    def test_direct_formula(self):
        idx = build_espc(_four_keys(), 2)
        assert locate_interval(idx, 1.5) == 1
        assert locate_interval(idx, 2.9) == 2

    def test_out_of_range(self):
        idx = build_espc(_four_keys(), 2)
        with pytest.raises(OutOfRange):
            locate_interval(idx, -0.1)
        with pytest.raises(OutOfRange):
            locate_interval(idx, 3.1)
        for fn in (locate_interval, predict):
            with pytest.raises(OutOfRange):
                fn(idx, math.nan)

    def test_right_edge_never_overflows(self):
        rng = np.random.default_rng(22)
        for _ in range(50):
            A = validate_key_array(rng.random(int(rng.integers(2, 200))), FLOAT_MODE)
            k = int(rng.integers(1, 400))
            idx = build_espc(A, k)
            assert locate_interval(idx, idx.x_last) == idx.K or idx.delta == 0.0
            assert 1 <= locate_interval(idx, idx.x_last) <= idx.K

    def test_predict_outside_range(self):
        idx = build_espc(_four_keys(), 2)
        assert predict(idx, -1.0) == 0.0
        assert predict(idx, 99.0) == 4.0

    def test_integers_past_float64_are_infinite(self):
        # float(10**400) overflows; such a query is past every key, as evaluate_rank finds.
        A = validate_key_array([2, 3, 5, 7], INT_MODE)
        idx = build_espc(A, 2)
        assert (predict(idx, 10**400), predict(idx, -(10**400))) == (4.0, 0.0)
        assert evaluate_rank(idx, A, 10**400).rank == 4
        for q in (10**400, -(10**400)):
            with pytest.raises(OutOfRange):
                locate_interval(idx, q)

    def test_predict_many_refuses_what_float64_cannot_hold(self):
        idx = build_espc(validate_key_array([2, 3, 5, 7], INT_MODE), 2)
        for values in ([10**400], ["a"], [1.0, object()]):
            with pytest.raises(InvalidParams):
                predict_many(idx, values)

    def test_predict_inside(self):
        idx = build_espc(_four_keys(), 2)
        assert predict(idx, 2.9) == 3.0

    def test_predict_monotone(self):
        rng = np.random.default_rng(23)
        for _ in range(30):
            A = validate_key_array(rng.random(int(rng.integers(2, 300))), FLOAT_MODE)
            idx = build_espc(A, int(rng.integers(1, 50)))
            grid = np.linspace(-0.2, 1.2, 500)
            vals = predict_many(idx, grid)
            assert np.all(np.diff(vals) >= 0)

    def test_predict_many_matches_scalar(self):
        rng = np.random.default_rng(24)
        A = validate_key_array(rng.random(100), FLOAT_MODE)
        idx = build_espc(A, 7)
        grid = np.concatenate((np.linspace(-0.1, 1.1, 200), [-math.inf, -1e308, 1e308, math.inf]))
        np.testing.assert_array_equal(
            predict_many(idx, grid), [predict(idx, float(q)) for q in grid]
        )
        for q in (-1.0, 0.5, 2.0):  # 0-d in, 0-d out
            out = predict_many(idx, q)
            assert out.shape == () and out == predict(idx, q)
        assert predict_many(idx, []).shape == (0,)


class TestEvaluateRank:
    def test_boundary_cases(self):
        A = _four_keys()
        idx = build_espc(A, 2)
        assert evaluate_rank(idx, A, -5.0).rank == 0
        assert evaluate_rank(idx, A, 100.0).rank == 4
        assert evaluate_rank(idx, A, 2.9).rank == 3

    def test_index_mismatch(self):
        A = _four_keys()
        B = validate_key_array([0.0, 1.0], FLOAT_MODE)
        idx = build_espc(A, 2)
        with pytest.raises(IndexMismatch):
            evaluate_rank(idx, B, 1.0)
        for other in ([0.0, 1.0, 2.0, 4.0], [-1.0, 1.0, 2.0, 3.0]):  # same n, other range
            with pytest.raises(IndexMismatch):
                evaluate_rank(idx, validate_key_array(other, FLOAT_MODE), 2.5)

    def test_nan_query_raises_out_of_range(self):
        for A in (_four_keys(), validate_key_array([0, 1, 2, 3], INT_MODE)):
            for nan in (math.nan, np.float64("nan")):
                with pytest.raises(OutOfRange):
                    evaluate_rank(build_espc(A, 2), A, nan)
                with pytest.raises(OutOfRange):
                    evaluate_rank_hier(build_equal_probability(A, 2, 1), A, nan)
        with pytest.raises(OutOfRange):
            predict_many(build_espc(_four_keys(), 2), [1.0, math.nan])

    @pytest.mark.parametrize("slot", [-6, 14])
    def test_slot_outside_the_ranks_raises_start_out_of_range(self, slot):
        # Loading refuses such a slot; built by hand, the lookup must still refuse
        # its start rather than read the keys from the end.  -6 wraps to 2^32 - 6.
        idx = EspcIndex(x_first=0.0, x_last=3.0, n=4, t=np.array([slot]).astype(np.uint32))
        with pytest.raises(StartOutOfRange):
            evaluate_rank(idx, _four_keys(), 1.5)

    def test_hand_built_index_derives_k_and_delta(self):
        idx = EspcIndex(x_first=0.0, x_last=3.0, n=4, t=np.array([1, 3], dtype=np.uint32))
        assert [f.name for f in dataclasses.fields(idx)] == ["x_first", "x_last", "n", "t", "shift"]
        assert (idx.K, idx.delta) == (2, 1.5)
        grid = np.linspace(-1.0, 4.0, 41)
        assert predict_many(idx, grid).tolist() == [predict(idx, q) for q in grid.tolist()]
        with pytest.raises(InvalidK):
            EspcIndex(x_first=0.0, x_last=3.0, n=4, t=np.array([], dtype=np.uint32))

    @pytest.mark.parametrize("t", [
        [1, 3], (1, 3), np.array([1.0, 3.0]), np.array([1, 3]), np.array([[1, 3]], dtype=np.uint32),
        np.array([1, 3], dtype=">u4"), memoryview(np.array([1, 3], dtype=np.uint32)),
    ], ids=["list", "tuple", "float64", "int64", "2-D", "big-endian", "memoryview"])
    def test_hand_built_slots_must_be_a_uint32_vector(self, t):
        with pytest.raises(InvalidParams, match="1-D uint32"):
            EspcIndex(x_first=0.0, x_last=3.0, n=4, t=t)

    def test_exactness_random_with_boundary_adversaries(self):
        rng = np.random.default_rng(25)
        for _ in range(150):
            n = int(rng.integers(1, 2049))
            dup = rng.random() < 0.3
            if rng.random() < 0.5:
                pool = max(2, n // 4) if dup else 10**6
                A = validate_key_array(rng.integers(0, pool, n), INT_MODE)
                queries = list(rng.integers(-2, int(A.x_max) + 2, 40))
            else:
                vals = rng.random(n)
                if dup:
                    vals = np.round(vals, 2)
                A = validate_key_array(vals, FLOAT_MODE)
                queries = list(rng.random(40) * 1.2 - 0.1)
            k = int(rng.integers(1, 2 * n))
            idx = build_espc(A, k)
            if A.mode == FLOAT_MODE and idx.delta > 0:
                for j in (1, idx.K // 2, idx.K):
                    t = idx.x_first + j * idx.delta
                    queries += [t, np.nextafter(t, np.inf), np.nextafter(t, -np.inf)]
            for q in queries:
                q = q.item() if isinstance(q, np.generic) else q
                assert evaluate_rank(idx, A, q).rank == rank_bruteforce(A, q)

    def test_error_bounded_by_half_interval_occupancy(self):
        # Exhaustive small-scale check of the per-interval error bound.
        rng = np.random.default_rng(26)
        for _ in range(300):
            n = int(rng.integers(1, 13))
            A = validate_key_array(rng.integers(0, 16, n).astype(float), FLOAT_MODE)
            k = int(rng.integers(1, n + 1))
            idx = build_espc(A, k)
            counts = _interval_counts(idx, A)
            for q in np.arange(-1.0, 16.5, 0.25):
                err = abs(rank_bruteforce(A, float(q)) - predict(idx, float(q)))
                if q < idx.x_first or q > idx.x_last:
                    assert err == 0.0
                else:
                    cell = locate_interval(idx, float(q))
                    assert err <= counts[cell - 1] / 2.0

    def test_spec_error_examples(self):
        A = _four_keys()
        idx = build_espc(A, 2)
        for q, err in ((5.0, 0.0), (1.0, 1.0), (2.9, 0.0)):
            assert abs(rank_bruteforce(A, q) - predict(idx, q)) == err

    def test_keys_pickle_and_deepcopy_after_a_lookup(self):
        # The records hold memoryviews, which neither pickle nor deep-copy: keys and
        # indexes pickle as their fields, and a copy makes its records again.
        for keys, mode in (([0.5, 1.5, 2.5, 2.5], FLOAT_MODE), ([3, 2**63, 2**64 - 1], INT_MODE),
                           (_lognormal_keys(SHIFT_FLOOR).keys, FLOAT_MODE)):  # a log scale
            A = validate_key_array(keys, mode)
            idx, h = build_espc(A, 2), build_equal_probability(A, 2, 2)
            qs = (2**63, A.keys.item(A.n // 2))
            want = [evaluate_rank(idx, A, q) for q in qs]  # caches the probe record
            want_hier = [evaluate_rank_hier(h, A, q) for q in qs]  # and the boundaries' record
            for obj in (A, idx, h):
                assert "_record" in vars(obj) or "_probe" in vars(obj)
                assert not any(isinstance(arg, memoryview) for arg in obj.__reduce__()[1])
            for B in (pickle.loads(pickle.dumps(A)), copy.deepcopy(A)):
                assert B._probe[0].obj is B.keys and B.mode == mode
                assert np.array_equal(B.keys, A.keys)
                assert B.keys.dtype == A.keys.dtype and not B.keys.flags.writeable
                assert [evaluate_rank(idx, B, q) for q in qs] == want
            for copied in (pickle.loads(pickle.dumps(idx)), copy.deepcopy(idx)):
                assert copied._record[0].obj is copied.t and copied.shift == idx.shift
                assert [evaluate_rank(copied, A, q) for q in qs] == want
            for copied in (pickle.loads(pickle.dumps(h)), copy.deepcopy(h)):
                view, top = copied._record[:2]
                assert view.obj is copied.boundaries.keys and top[0].obj is copied.top.t
                assert not copied.boundaries.keys.flags.writeable
                assert [evaluate_rank_hier(copied, A, q) for q in qs] == want_hier
                assert evaluate_rank(copied.top, copied.boundaries, 2**63) == evaluate_rank(
                    h.top, h.boundaries, 2**63)

    def test_strided_keys_match_oracle(self):
        rng = np.random.default_rng(27)
        for arr, mode in ((np.sort(rng.random(301)), FLOAT_MODE),
                          (np.sort(rng.integers(2**63, 2**64 - 1, 301, dtype=np.uint64)), INT_MODE)):
            A = KeyArray(keys=arr[::2], mode=mode)
            idx, h = build_espc(A, 40), build_equal_probability(A, 12, 5)
            for q in list(arr) + [arr[0] - 1, arr[-1] + 1]:
                q = q.item()
                truth = rank_bruteforce(A, q)
                assert evaluate_rank(idx, A, q).rank == truth
                assert evaluate_rank_hier(h, A, q).rank == truth
                assert binary_search_rank(A, q).rank == truth
                assert exponential_search(A, A.n // 2, q).rank == truth


class TestEvaluateRankMany:
    def test_float_queries_past_the_largest_int_key_are_above(self):
        # 7.5 floors to the largest key but lies above it; so does 2^64 for keys up to 2^64 - 1.
        for keys, qs in (([2, 3, 5, 7], [7.5, 1.5]), ([2**63, 2**64 - 1], [2.0**64, 0.5])):
            A = validate_key_array(keys, INT_MODE)
            ranks, comparisons = evaluate_rank_many(build_espc(A, 2), A, np.array(qs))
            assert ranks.tolist() == [A.n, 0]
            assert comparisons.tolist() == [2, 1]

    def test_float_query_on_int_keys_is_located_by_its_own_value(self):
        # 15.5 floors to key 15, the right edge of interval 3, but lies in interval 4.
        A = validate_key_array([1, 4, 15, 16, 22, 29], INT_MODE)
        idx = build_espc(A, 6)
        ranks, comparisons = evaluate_rank_many(idx, A, np.array([15.5]))
        assert (ranks[0], comparisons[0]) == (3, evaluate_rank(idx, A, 15.5).comparisons)

    def test_nan_query_raises_out_of_range(self):
        A = _four_keys()
        with pytest.raises(OutOfRange):
            evaluate_rank_many(build_espc(A, 2), A, np.array([1.0, math.nan]))
        B = validate_key_array([2, 3, 5, 7], INT_MODE)
        with pytest.raises(OutOfRange):
            evaluate_rank_many(build_espc(B, 2), B, np.array([math.nan]))

    def test_index_mismatch(self):
        idx = build_espc(_four_keys(), 2)
        for other in ([0.0, 1.0], [0.0, 1.0, 2.0, 4.0], [-1.0, 1.0, 2.0, 3.0]):
            with pytest.raises(IndexMismatch):
                evaluate_rank_many(idx, validate_key_array(other, FLOAT_MODE), np.array([2.5]))

    def test_non_numeric_queries_raise(self):
        # 2^64 makes numpy hold these Python ints as objects; as floats 2^63 + 5 would round.
        A = validate_key_array([1, 2**63 + 5], INT_MODE)
        with pytest.raises(InvalidParams):
            evaluate_rank_many(build_espc(A, 2), A, [2**63 + 5, 2**64])

    def test_list_of_ints_that_float64_rounds_raises(self):
        # numpy makes these lists float64 arrays, where 2^63 + 5 rounds to 2^63.
        A = validate_key_array([1, 2**63 + 5], INT_MODE)
        idx = build_espc(A, 2)
        for qs in ([-1, 2**63 + 5], (0.5, 2**63 + 5), [np.int64(-1), np.uint64(2**63 + 5)]):
            with pytest.raises(InvalidParams):
                evaluate_rank_many(idx, A, qs)
        # A list that float64 holds exactly still matches the scalar lookup.
        ranks, _ = evaluate_rank_many(idx, A, [-1, 2**63])
        assert ranks.tolist() == [evaluate_rank(idx, A, q).rank for q in (-1, 2**63)] == [0, 1]
        # A bool array, which numpy 2 cannot compare with 2^63 + 5, reads as the ints it is.
        qs = np.array([True, False])
        ranks, _ = evaluate_rank_many(idx, A, qs)
        assert ranks.tolist() == exact_ranks(A, qs).tolist() == [1, 0]
        assert ranks.tolist() == [evaluate_rank(idx, A, q).rank for q in qs]

    def test_float_keys_read_a_list_as_its_float64(self):
        # Only integer keys refuse this list, which numpy makes float64.
        A = validate_key_array([1.0, 2.0**63 + 5, 2.0**64], FLOAT_MODE)
        idx = build_espc(A, 3)
        qs = [-1, 2**63 + 5]
        ranks, comparisons = evaluate_rank_many(idx, A, qs)
        scalar = [evaluate_rank(idx, A, q) for q in qs]
        assert ranks.tolist() == [out.rank for out in scalar] == [0, 2]
        assert comparisons.tolist() == [out.comparisons for out in scalar]

    def test_queries_that_are_not_1d_raise(self):
        A = validate_key_array([1.0, 2.0, 3.0], FLOAT_MODE)
        idx = build_espc(A, 2)
        for qs in (2.5, np.float64(2.5), [[1.5, 2.5]]):
            with pytest.raises(InvalidParams):
                evaluate_rank_many(idx, A, qs)

    def test_empty_queries(self):
        A = _four_keys()
        ranks, comparisons = evaluate_rank_many(build_espc(A, 2), A, np.array([]))
        assert ranks.size == 0 and comparisons.size == 0


class TestSizing:
    def test_linear(self):
        assert choose_k(SizingPolicy("linear"), 10**6) == 10**6

    def test_sublinear(self):
        assert choose_k(SizingPolicy("sublinear"), 1024) == 103

    def test_bad_params(self):
        for kind in ("nope", "chebyshev", "subexponential"):
            with pytest.raises(InvalidPolicyParams):
                SizingPolicy(kind)
        with pytest.raises(InvalidPolicyParams):
            choose_k(SizingPolicy("linear"), 1)

    def test_always_positive(self):
        for kind in ("linear", "sublinear"):
            for n in (2, 3, 10, 1000):
                assert choose_k(SizingPolicy(kind), n) >= 1


class TestHierarchical:
    def test_quantile_boundaries(self):
        A = validate_key_array(np.arange(10.0), FLOAT_MODE)
        h = build_equal_probability(A, 2, 1)
        assert list(h.boundaries.keys) == [0.0, 5.0]
        assert h.top.n == 2
        assert not h.boundaries.keys.flags.writeable
        assert not np.shares_memory(h.boundaries.keys, A.keys)

    def test_single_bucket(self):
        A = validate_key_array(np.arange(10.0), FLOAT_MODE)
        h = build_equal_probability(A, 1, 1)
        assert list(h.boundaries.keys) == [0.0]

    def test_bucket_occupancy_roughly_even(self):
        rng = np.random.default_rng(27)
        A = validate_key_array(rng.random(10_000), FLOAT_MODE)
        h = build_equal_probability(A, 100, 10)
        occupancy = np.diff(
            np.searchsorted(A.keys, h.boundaries.keys, side="left").tolist() + [A.n]
        )
        assert occupancy.min() >= 50
        assert occupancy.max() <= 200

    def test_invalid_fanout(self):
        A = validate_key_array(np.arange(10.0), FLOAT_MODE)
        with pytest.raises(InvalidK):
            build_equal_probability(A, 0, 1)
        with pytest.raises(InvalidK):
            build_equal_probability(A, 11, 1)
        with pytest.raises(InvalidK):
            build_equal_probability(A, 2, 0)

    def test_evaluate_examples(self):
        # Boundaries keys[0] and keys[5]: a bucket leaves ceil(10/2) - 1 = 4 unknown keys,
        # a perfect bracket of 7 costs T = 3 probes after the two layers' 4 checks.
        A = validate_key_array(np.arange(10.0), FLOAT_MODE)
        h = build_equal_probability(A, 2, 1)
        assert evaluate_rank_hier(h, A, -1.0) == (0, 1)
        assert evaluate_rank(h.top, h.boundaries, 3.0) == (1, 4)
        assert evaluate_rank_hier(h, A, 3.0) == (4, 4 + 2 + 3)
        # Above the last boundary the bucket is K with no top lookup; the bracket
        # [6, 13) ends at n = 10 and still counts 3.
        assert evaluate_rank_hier(h, A, 7.0) == (8, 4 + 3)
        assert evaluate_rank_hier(h, A, 9.0) == (10, 4 + 3)

    def test_one_key_a_bucket_costs_only_the_top_layer(self):
        A = validate_key_array([0, 1, 1, 1, 2, 5, 5, 8], INT_MODE)
        h = build_equal_probability(A, A.n, 3)  # K = n, T = 0: the bucket is the rank
        for q in range(9):
            top = evaluate_rank(h.top, h.boundaries, q).comparisons
            assert evaluate_rank_hier(h, A, q) == (rank_bruteforce(A, q), top + 2)

    def test_one_bucket_bisects_all_keys(self):
        # K = 1: T = bit_length(9) = 4, and a bracket of 15 is longer than n = 10.
        A = validate_key_array(np.arange(10.0), FLOAT_MODE)
        h = build_equal_probability(A, 1, 1)
        for q in (0.0, 3.5, 6.5, 9.0):
            top = evaluate_rank(h.top, h.boundaries, q).comparisons
            want = binary_search_rank(A, q)
            assert evaluate_rank_hier(h, A, q) == (want.rank, top + 2 + want.comparisons)

    def test_exactness_matches_oracle(self):
        rng = np.random.default_rng(28)
        for _ in range(80):
            n = int(rng.integers(1, 800))
            if rng.random() < 0.5:
                A = validate_key_array(rng.integers(0, max(2, n // 3), n), INT_MODE)
                queries = rng.integers(-2, max(2, n // 3) + 2, 30)
            else:
                A = validate_key_array(rng.random(n), FLOAT_MODE)
                queries = rng.random(30) * 1.2 - 0.1
            h = build_equal_probability(A, int(rng.integers(1, n + 1)), int(rng.integers(1, 20)))
            for q in queries:
                q = q.item()
                assert evaluate_rank_hier(h, A, q).rank == rank_bruteforce(A, q)

    def test_mismatch(self):
        A = validate_key_array(np.arange(10.0), FLOAT_MODE)
        B = validate_key_array(np.arange(5.0), FLOAT_MODE)
        h = build_equal_probability(A, 2, 1)
        with pytest.raises(IndexMismatch):
            evaluate_rank_hier(h, B, 1.0)
        C = validate_key_array(np.arange(1.0, 11.0), FLOAT_MODE)  # same n, other first key
        with pytest.raises(IndexMismatch):
            evaluate_rank_hier(h, C, 5.0)
        D = validate_key_array(np.r_[0.0, 20.0:29.0], FLOAT_MODE)  # other last boundary keys[5]
        with pytest.raises(IndexMismatch):
            evaluate_rank_hier(h, D, 21.0)
        other = build_equal_probability(validate_key_array(np.arange(20.0), FLOAT_MODE), 2, 1)
        for top in (other.top, build_espc(B, 1)):  # other last boundary, other bucket count
            with pytest.raises(IndexMismatch):  # refused when made, not on each lookup
                HierIndex(boundaries=h.boundaries, top=top, n=h.n)
        with pytest.raises(InvalidK):  # more buckets than keys
            HierIndex(boundaries=h.boundaries, top=h.top, n=1)


class TestSerialization:
    def test_layout_size(self):
        idx = build_espc(_four_keys(), 2)
        blob = serialize_index(idx)
        assert len(blob) == HEADER_BYTES + SLOT_BYTES * 2 == 45 + 4 * 2
        assert blob[:5] == b"ESPC2"

    def test_round_trip_bit_exact(self):
        rng = np.random.default_rng(29)
        for _ in range(20):
            A = validate_key_array(rng.random(int(rng.integers(2, 500))), FLOAT_MODE)
            idx = build_espc(A, int(rng.integers(1, 100)))
            blob = serialize_index(idx)
            again = deserialize_index(blob)
            assert serialize_index(again) == blob
            assert (again.K, again.n, again.delta) == (idx.K, idx.n, idx.delta)
            assert (again.x_first, again.x_last) == (idx.x_first, idx.x_last)
            np.testing.assert_array_equal(again.r, idx.r)

    def test_rejects_garbage(self):
        with pytest.raises(InvalidIndexFile):
            deserialize_index(b"NOTME" + b"\0" * 60)
        idx = build_espc(_four_keys(), 2)
        with pytest.raises(InvalidIndexFile):
            deserialize_index(serialize_index(idx)[:-1])
        # The retired ESPC1 layout: the same header, then the estimates r as float64.
        espc1 = b"ESPC1" + struct.pack("<QQddd", idx.n, idx.K, idx.x_first, idx.x_last, idx.delta)
        with pytest.raises(InvalidIndexFile, match="bad magic"):
            deserialize_index(espc1 + struct.pack(f"<{idx.K}d", *idx.r.tolist()))

    def test_rejects_slots_that_count_no_partition(self):
        header = b"ESPC2" + struct.pack("<QQddd", 3, 2, 0.0, 2.0, 1.0)
        assert deserialize_index(header + struct.pack("<2I", 2, 5)).r.tolist() == [1.0, 2.5]
        # [1.5, 1.5] is non-decreasing within [0, 3], but cell 2 would hold -3 keys.
        for slots in ((3, 3), (2, 4), (2, 6), (7, 7)):
            with pytest.raises(InvalidIndexFile):
                deserialize_index(header + struct.pack("<2I", *slots))
        big = b"ESPC2" + struct.pack("<QQddd", 2**31, 1, 0.0, 0.0, 0.0) + struct.pack("<I", 2**31)
        with pytest.raises(InvalidIndexFile):  # n beyond MAX_KEYS
            deserialize_index(big)

    @pytest.mark.parametrize("x_first, x_last, delta", [
        (0.0, 2.0, 0.75),  # not the range split in two
        (1.0, 0.0, -0.5),  # a reversed range
        (1.0, 1.0, 0.0),  # two cells over one point
        (0.0, 5e-324, 0.0),  # the length underflows to 0
        (-1e308, 1e308, math.inf),  # the length overflows
    ])
    def test_rejects_a_delta_that_does_not_split_the_range(self, x_first, x_last, delta):
        slots = struct.pack("<2I", 1, 3)  # one key in each of K = 2 cells: n = 2
        blob = b"ESPC2" + struct.pack("<QQddd", 2, 2, x_first, x_last, delta) + slots
        with pytest.raises(InvalidIndexFile, match="interval length"):
            deserialize_index(blob)
        if delta == (x_last - x_first) / 2:  # the derived length: the constructor refuses it
            with pytest.raises(InvalidParams, match="^interval length"):
                EspcIndex(x_first=x_first, x_last=x_last, n=2, t=np.array([1, 3], dtype=np.uint32))

    def test_loads_one_cell_over_one_point(self):
        blob = b"ESPC2" + struct.pack("<QQddd", 1, 1, 1.0, 1.0, 0.0) + struct.pack("<I", 1)
        idx = deserialize_index(blob)
        assert (idx.K, idx.delta, idx.r.tolist()) == (1, 0.0, [0.5])

    def test_rejects_slot_out_of_range(self):
        blob = bytearray(serialize_index(build_espc(_four_keys(), 2)))
        blob[HEADER_BYTES : HEADER_BYTES + SLOT_BYTES] = struct.pack("<I", 10**9)
        with pytest.raises(InvalidIndexFile):
            deserialize_index(bytes(blob))


class TestLogScaleCells:
    """Cells equal in g(x) = β(x - s) - β(x_first - s), chosen by the sample's collisions."""

    def test_heavy_tails_take_a_shift_from_the_floor(self):
        rng = np.random.default_rng(41)
        for draw in (lambda n: rng.lognormal(0.0, 2.0, n), lambda n: rng.pareto(1.5, n),
                     lambda n: rng.exponential(1.0, n)):
            below = validate_key_array(draw(SHIFT_FLOOR - 1), FLOAT_MODE)
            assert build_espc(below, 100).shift is None
            A = validate_key_array(draw(SHIFT_FLOOR), FLOAT_MODE)
            idx = build_espc(A, 100)
            assert idx.shift is not None and idx.shift < idx.x_first
            assert idx.delta == _span(idx.x_first, idx.x_last, idx.shift) / 100

    def test_shift_is_one_of_the_candidates(self):
        A = _lognormal_keys(10**5)
        lo, hi = float(A.keys[0]), float(A.keys[-1])
        assert _choose_shift(A.keys, lo, hi) in [lo - c * (hi - lo) for c in (1e-9, 1e-6, 1e-3)]

    def test_shift_halves_the_collisions_or_is_not_taken(self):
        # Gamma(2) keys: the best shift leaves 2/3 of the identity's collisions, so none is taken.
        rng = np.random.default_rng(0)
        for raw, halved in ((rng.gamma(2.0, 1.0, 10**5), False), (rng.gamma(1.5, 1.0, 10**5), True)):
            keys = np.sort(raw)
            lo, hi = float(keys[0]), float(keys[-1])
            sample = keys[:: len(keys) // 4096]

            def collisions(shift, sample=sample, lo=lo, hi=hi):
                counts = np.bincount(assign_intervals(
                    sample, lo, _span(lo, hi, shift) / len(sample), len(sample), shift))
                return int(np.sum(counts * (counts - 1)))

            scores = {lo - c * (hi - lo): collisions(lo - c * (hi - lo)) for c in (1e-9, 1e-6, 1e-3)}
            best = min(scores, key=scores.get)
            assert (2 * scores[best] <= collisions(None)) == halved
            assert scores[best] < collisions(None)
            assert _choose_shift(keys, lo, hi) == (best if halved else None)

    @pytest.mark.parametrize("kind, seed", [("uniform", 101), ("beta22", 102), ("normal", 103)])
    def test_criterion_3_keys_keep_the_identity(self, kind, seed):
        cfg = BenchConfig(dataset=DatasetSpec(kind, n=10**6, seed=seed), n_sub=10**6, seed=seed)
        A = prepare_keys(cfg)
        assert _choose_shift(A.keys, float(A.keys[0]), float(A.keys[-1])) is None
        assert serialize_index(build_espc(A, 1000))[:5] == b"ESPC2"

    def test_shifted_cells_cut_the_heavy_tail(self):
        A = _lognormal_keys(10**5)
        k = choose_k(SizingPolicy("sublinear"), A.n)
        idx = build_espc(A, k)
        lo, hi = idx.x_first, idx.x_last
        busiest = np.bincount(assign_intervals(A.keys, lo, idx.delta, k, idx.shift)).max()
        assert busiest * 100 < np.bincount(assign_intervals(A.keys, lo, (hi - lo) / k, k)).max()
        queries = A.keys[::97]
        counts = evaluate_rank_many(idx, A, queries)[1]
        assert counts.mean() < 12

    def test_log_scale_build_holds_what_an_equal_split_holds(self):
        n = 10**6
        peaks = []
        for A in (validate_key_array(np.linspace(0.0, 1.0, n), FLOAT_MODE), _lognormal_keys(n)):
            tracemalloc.start()
            try:
                idx = build_espc(A, n)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert idx.shift is not None
        assert peaks[1] < peaks[0] + 2**17  # the key pass's two n-sized buffers, and the sample's

    def test_scalar_g_equals_numpy_g(self):
        # assign_intervals at step 1 returns ceil(g) = g, an integer-valued float, unclamped.
        rng = np.random.default_rng(43)
        tiny = np.array([5e-324, 1e-323, 2.2250738585072014e-308, 2.225073858507201e-308])
        values = np.concatenate([
            rng.random(2000), rng.lognormal(0.0, 5.0, 2000), tiny, np.nextafter(tiny, 1.0),
            [1e300, 1e308, 1.7976931348623157e308, 3.0, 2.0**-1022],
        ])
        for shift in (-1e-320, -5e-324, -1e-300, -1e-3, -1.0, -1e307):
            lo = float(values.min())
            got = assign_intervals(values, lo, 1.0, 2**62, shift)
            want = [min(max(math.ceil(float(_bits(v - shift) - _bits(lo - shift))), 1), 2**62)
                    for v in values.tolist()]
            assert got.tolist() == want
            assert [_bits(v) for v in values.tolist()] == values.view(np.int64).tolist()
            # Cells of a few units of g: the scalar rule rounds g exactly as numpy does.
            hi = float(values.max())
            k = 2**50
            fields = dict(x_first=lo, x_last=hi, n=1, shift=shift,  # locating reads no slot
                          t=np.broadcast_to(np.uint32(0), k))  # k cells, not allocated
            if hi - shift == math.inf:  # -1e307: an index refuses a g past float64
                with pytest.raises(InvalidParams, match="leaves g undefined"):
                    EspcIndex(**fields)
                continue
            idx = EspcIndex(**fields)
            assert idx.delta == _span(lo, hi, shift) / k
            cells = assign_intervals(values, lo, idx.delta, k, shift)
            assert cells.tolist() == [locate_interval(idx, v) for v in values.tolist()]

    @pytest.mark.parametrize("lo, hi, shift", [
        (0.0, 1e-300, -1e-320),  # g starts among the subnormals
        (5e-324, 1e-310, 0.0),
        (1e300, 1.7e308, 1e300 - 1e305),  # huge keys
        (-3.0, 1e6, -3.5),
    ])
    def test_scalar_and_batched_cells_agree(self, lo, hi, shift):
        k = 1000
        idx = EspcIndex(x_first=lo, x_last=hi, n=k, t=np.arange(k, dtype=np.uint32) * 2 + 1,
                        shift=shift)
        rng = np.random.default_rng(44)
        unit = rng.random(3000)
        qs = np.concatenate([
            lo + unit * (hi - lo), lo + unit**40 * (hi - lo),  # most near lo, where g is steep
            [lo, hi, np.nextafter(lo, math.inf), np.nextafter(hi, -math.inf), -math.inf, math.inf],
            np.nextafter(lo, -math.inf) - unit[:5],
            [np.nextafter(hi, math.inf), min(2 * hi, 1e308)],
        ])
        many = predict_many(idx, qs)
        assert many.tobytes() == np.array([predict(idx, float(q)) for q in qs]).tobytes()
        inside = qs[(qs >= lo) & (qs <= hi)]
        cells = assign_intervals(inside, lo, idx.delta, k, shift)
        assert cells.tolist() == [locate_interval(idx, float(q)) for q in inside]
        assert len(set(cells.tolist())) > k // 10  # the queries reach many cells

    def test_batched_predict_raises_no_warning(self):
        idx = build_espc(_lognormal_keys(20_000), 500)
        assert idx.shift is not None
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = predict_many(idx, [-math.inf, -1e308, 0.0, 1e308, math.inf, idx.x_last])
        assert out.tolist() == [0.0, 0.0, 0.0, idx.n, idx.n, predict(idx, idx.x_last)]

    def test_espc3_round_trip(self, tmp_path):
        A = _lognormal_keys(30_000)
        for k in (1, 7, 5000, 60_000):
            idx = build_espc(A, k)
            blob = serialize_index(idx)
            assert blob[:5] == b"ESPC3" and len(blob) == HEADER_BYTES + SLOT_BYTES * k
            assert struct.unpack_from("<d", blob, 5 + 16 + 16)[0] == idx.shift
            again = deserialize_index(blob)
            assert (again.shift, again.delta, again.K, again.n) == (idx.shift, idx.delta, k, idx.n)
            assert serialize_index(again) == blob
            save_index(idx, tmp_path / "i.espc")
            assert (tmp_path / "i.espc").read_bytes() == blob
            copied = pickle.loads(pickle.dumps(idx))
            for q in A.keys[::1111].tolist():
                assert evaluate_rank(again, A, q) == evaluate_rank(idx, A, q)
                assert evaluate_rank(copied, A, q) == evaluate_rank(idx, A, q)

    def test_save_index_writes_the_serialized_blob(self, tmp_path):
        for idx in (build_espc(_four_keys(), 2), build_espc(_lognormal_keys(9000), 64)):
            save_index(idx, tmp_path / "i.espc")
            assert (tmp_path / "i.espc").read_bytes() == serialize_index(idx)
            assert load_index(tmp_path / "i.espc").shift == idx.shift

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, "x_first", "above", -1e308])
    def test_espc3_refuses_a_bad_shift(self, bad):
        idx = build_espc(_lognormal_keys(10_000), 50)
        shift = {"x_first": idx.x_first, "above": idx.x_first + 1.0}.get(bad, bad)
        blob = bytearray(serialize_index(idx))
        struct.pack_into("<d", blob, 5 + 16 + 16, shift)  # -1e308: x_last - shift overflows
        with pytest.raises(InvalidIndexFile):
            deserialize_index(bytes(blob))
        with pytest.raises(InvalidParams):  # so does the constructor, before predict_many warns
            EspcIndex(x_first=idx.x_first, x_last=idx.x_last, n=idx.n, t=idx.t, shift=shift)
