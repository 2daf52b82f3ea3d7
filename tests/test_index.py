"""Construction, prediction, exact lookup, sizing, and serialization."""

import copy
import math
import pickle
import struct
import tracemalloc
import warnings

import numpy as np
import pytest

from espc.core import FLOAT_MODE, INT_MODE, KeyArray, rank_bruteforce, validate_key_array
from espc.errors import (
    IndexMismatch,
    InvalidIndexFile,
    InvalidK,
    InvalidParams,
    InvalidPolicyParams,
    OutOfRange,
    StartOutOfRange,
)
from espc.index import (
    HEADER_BYTES,
    SLOT_BYTES,
    EspcIndex,
    HierIndex,
    SizingPolicy,
    approximation_error,
    assign_intervals,
    build_equal_probability,
    build_espc,
    choose_k,
    deserialize_index,
    evaluate_rank,
    evaluate_rank_hier,
    evaluate_rank_many,
    locate_interval,
    predict,
    predict_many,
    serialize_index,
)
from espc.search import binary_search_rank, exponential_search


def _four_keys():
    return validate_key_array([0.0, 1.0, 2.0, 3.0], FLOAT_MODE)


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

    def test_large_k_build_peaks_below_two_and_a_half_slot_arrays(self):
        A = validate_key_array(np.random.default_rng(22).random(2_000), FLOAT_MODE)
        k = 10**6
        tracemalloc.start()
        try:
            idx = build_espc(A, k)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert idx.K == k
        assert peak < 2.5 * SLOT_BYTES * k  # the int64 counts and the float64 slots


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
        assert predict_many(idx, 0.5) == predict(idx, 0.5)


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

    @pytest.mark.parametrize("slot", [-3.0, 7.0])
    def test_slot_outside_the_ranks_raises_start_out_of_range(self, slot):
        # Loading refuses such a slot; built by hand, the lookup must still refuse
        # its start rather than read the keys from the end.
        idx = EspcIndex(K=1, delta=3.0, x_first=0.0, x_last=3.0, n=4, r=np.array([slot]))
        with pytest.raises(StartOutOfRange):
            evaluate_rank(idx, _four_keys(), 1.5)

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
                err = approximation_error(idx, A, float(q))
                if q < idx.x_first or q > idx.x_last:
                    assert err == 0.0
                else:
                    cell = locate_interval(idx, float(q))
                    assert err <= counts[cell - 1] / 2.0

    def test_spec_error_examples(self):
        A = _four_keys()
        idx = build_espc(A, 2)
        assert approximation_error(idx, A, 5.0) == 0.0
        assert approximation_error(idx, A, 1.0) == 1.0
        assert approximation_error(idx, A, 2.9) == 0.0

    def test_keys_pickle_and_deepcopy_after_a_lookup(self):
        for keys, mode in (([0.5, 1.5, 2.5, 2.5], FLOAT_MODE), ([3, 2**63, 2**64 - 1], INT_MODE)):
            A = validate_key_array(keys, mode)
            idx, h = build_espc(A, 2), build_equal_probability(A, 2, 2)
            want = evaluate_rank(idx, A, 2**63)  # caches the probe record
            want_hier = evaluate_rank_hier(h, A, 2**63)  # and the boundaries' record
            for B in (pickle.loads(pickle.dumps(A)), copy.deepcopy(A)):
                assert B.mode == mode and np.array_equal(B.keys, A.keys)
                assert B.keys.dtype == A.keys.dtype and not B.keys.flags.writeable
                assert evaluate_rank(idx, B, 2**63) == want
            for copied in (pickle.loads(pickle.dumps(idx)), copy.deepcopy(idx)):
                assert evaluate_rank(copied, A, 2**63) == want
            for copied in (pickle.loads(pickle.dumps(h)), copy.deepcopy(h)):
                assert not copied.boundaries.keys.flags.writeable
                assert evaluate_rank_hier(copied, A, 2**63) == want_hier
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

    def test_subexponential(self):
        assert choose_k(SizingPolicy("subexponential"), 8) == math.ceil(8 * math.log(8))

    def test_chebyshev(self):
        n = 100
        expected = math.ceil(n * math.sqrt(n * math.log(n)))
        assert choose_k(SizingPolicy("chebyshev"), n) == expected

    def test_bad_params(self):
        with pytest.raises(InvalidPolicyParams):
            SizingPolicy("nope")
        with pytest.raises(InvalidPolicyParams):
            choose_k(SizingPolicy("linear"), 1)

    def test_always_positive(self):
        for kind in ("linear", "sublinear", "chebyshev", "subexponential"):
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
        A = validate_key_array(np.arange(10.0), FLOAT_MODE)
        h = build_equal_probability(A, 2, 1)
        assert evaluate_rank_hier(h, A, -1.0).rank == 0
        assert evaluate_rank_hier(h, A, 7.0).rank == 8
        assert evaluate_rank_hier(h, A, 9.0).rank == 10

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
        other = build_equal_probability(validate_key_array(np.arange(20.0), FLOAT_MODE), 2, 1)
        for top in (other.top, build_espc(B, 1)):  # other last boundary, other bucket count
            with pytest.raises(IndexMismatch):
                evaluate_rank_hier(HierIndex(boundaries=h.boundaries, top=top, n=h.n), A, 5.0)


class TestSerialization:
    def test_layout_size(self):
        idx = build_espc(_four_keys(), 2)
        blob = serialize_index(idx)
        assert len(blob) == HEADER_BYTES + SLOT_BYTES * 2
        assert blob[:5] == b"ESPC1"

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

    def test_rejects_slot_out_of_range(self):
        blob = bytearray(serialize_index(build_espc(_four_keys(), 2)))
        blob[HEADER_BYTES : HEADER_BYTES + SLOT_BYTES] = struct.pack("<d", 1e9)
        with pytest.raises(InvalidIndexFile):
            deserialize_index(bytes(blob))
