"""Key-array validation and the linear-scan rank oracle."""

import math

import numpy as np
import pytest

from espc.core import (
    FLOAT_MODE,
    INT_MODE,
    MODES,
    KeyArray,
    exact_ranks,
    key_queries,
    rank_bruteforce,
    validate_key_array,
)
from espc.core import _uint64_keys
from espc.errors import EmptyInput, EspcError, InvalidParams, NonFiniteKey


class TestValidateKeyArray:
    def test_sorts_unsorted_input(self):
        A = validate_key_array([3, 1, 2], INT_MODE)
        assert list(A.keys) == [1, 2, 3]
        assert A.n == 3

    def test_singleton(self):
        A = validate_key_array([5], INT_MODE)
        assert A.n == 1
        assert A.x_min == 5
        assert A.x_max == 5

    def test_rejects_nan(self):
        with pytest.raises(NonFiniteKey):
            validate_key_array([1.0, float("nan")], FLOAT_MODE)

    def test_rejects_inf(self):
        with pytest.raises(NonFiniteKey):
            validate_key_array([1.0, float("inf")], FLOAT_MODE)

    @pytest.mark.parametrize(
        "raw", [[math.nan], [1, math.nan, 2], [math.nan, math.nan], [-math.inf, 1], [1, math.inf],
                [3, math.inf, 1]],
    )
    def test_rejects_non_finite_sorted_or_not(self, raw):
        # Sorted input is checked at its two ends only, which must still catch these.
        with pytest.raises(NonFiniteKey):
            validate_key_array(raw, FLOAT_MODE)

    def test_rejects_empty(self):
        with pytest.raises(EmptyInput):
            validate_key_array([], FLOAT_MODE)
        with pytest.raises(EmptyInput):  # made directly, the record needs a first key
            KeyArray(keys=np.empty(0), mode=FLOAT_MODE)

    @pytest.mark.parametrize("raw", [
        np.array([-1, 5], dtype=np.int64),  # a cast would wrap -1 to 2^64 - 1 and sort it last
        [0.5, 2.7],  # a cast would truncate to [0, 2]
        [2**64],  # a cast would raise a bare OverflowError
        np.array([3.0, np.nan]), np.array([2.0**64]), [-1], ["1"],
        [1, math.inf], [math.nan], [None, 1],  # list items that int() refuses
    ], ids=["negative_int64", "fractions", "2_64", "nan", "float_2_64", "negative_list", "text",
            "inf_list", "nan_list", "none_list"])
    def test_integer_mode_refuses_what_is_not_a_uint64(self, raw):
        with pytest.raises(InvalidParams, match=r"\[0, 2\^64\)"):
            validate_key_array(raw, INT_MODE)

    def test_integer_mode_keeps_every_uint64(self):
        top = 2**64 - 1
        for raw in ([top, 0, 2**63 + 1], np.array([top, 0], dtype=np.uint64),
                    np.array([7.0, 0.0]), np.arange(3, dtype=np.int8), [True, 4.0, 2**63]):
            expect = sorted(int(v) for v in np.asarray(raw, dtype=object).tolist())
            assert validate_key_array(raw, INT_MODE).keys.tolist() == expect
        uint = np.array([1, 2], dtype=np.uint64)
        assert _uint64_keys(uint) is uint  # uint64 keys, as read_sosd passes, take no pass

    def test_rejects_unknown_mode(self):
        with pytest.raises(EspcError):
            validate_key_array([1], "int32")

    def test_duplicates_preserved(self):
        A = validate_key_array([2, 2, 1, 2], INT_MODE)
        assert list(A.keys) == [1, 2, 2, 2]

    def test_immutable(self):
        A = validate_key_array([1, 2, 3], INT_MODE)
        with pytest.raises(ValueError):
            A.keys[0] = 7

    def test_2d_input_is_flattened(self):
        for mode in MODES:
            A = validate_key_array([[3, 1], [2, 4]], mode)
            assert A.keys.ndim == 1
            assert A.keys.tolist() == [1, 2, 3, 4]
            assert len(A) == A.n == 4

    def test_big_uint64_keys_survive(self):
        big = [2**64 - 1, 2**63, 2**53 + 1]
        A = validate_key_array(big, INT_MODE)
        assert A.x_max == 2**64 - 1
        assert A.x_min == 2**53 + 1


class TestRankBruteforce:
    def test_duplicate_counting(self):
        A = validate_key_array([1, 1, 2], INT_MODE)
        assert rank_bruteforce(A, 1) == 2

    def test_below_minimum(self):
        A = validate_key_array([1, 2, 3], INT_MODE)
        assert rank_bruteforce(A, 0) == 0

    def test_equals_maximum(self):
        A = validate_key_array([1, 2, 3], INT_MODE)
        assert rank_bruteforce(A, 3) == 3

    def test_negative_query_int_mode(self):
        A = validate_key_array([0, 1], INT_MODE)
        assert rank_bruteforce(A, -5) == 0

    def test_huge_query_int_mode(self):
        A = validate_key_array([0, 1], INT_MODE)
        assert rank_bruteforce(A, 2**70) == 2

    def test_exact_near_uint64_top(self):
        A = validate_key_array([2**64 - 2, 2**64 - 1], INT_MODE)
        assert rank_bruteforce(A, 2**64 - 2) == 1
        assert rank_bruteforce(A, 2**64 - 1) == 2

    def test_float_and_signed_queries_on_int_keys(self):
        # numpy alone would compare these in float64, where all three keys equal 2**60.
        A = validate_key_array([2**60, 2**60 + 1, 2**60 + 2], INT_MODE)
        for q in (float(2**60), np.float64(2**60), np.int64(2**60)):
            assert rank_bruteforce(A, q) == 1
        assert rank_bruteforce(A, 2.0**64) == 3
        assert rank_bruteforce(A, math.inf) == 3
        assert rank_bruteforce(A, -math.inf) == 0
        assert rank_bruteforce(A, -0.5) == 0
        assert rank_bruteforce(A, math.nan) == 0
        floats = [2.0**60, 2.0**64, math.inf, -math.inf, -0.5, math.nan]
        assert exact_ranks(A, floats).tolist() == [1, 3, 3, 0, 0, 0]

    def test_key_queries_floor_clamp_and_mark_1d(self):
        # On integer keys up to 5, 5.5 floors to the greatest key but lies above it.
        values, under, over = key_queries(validate_key_array([1, 5], INT_MODE),
                                          [5.5, 2.0**70, math.nan, -3])
        assert values.dtype == np.uint64
        assert values.tolist() == [5, 2**64 - 1, 0, 0]
        assert under.tolist() == [False, False, True, True]
        assert over.tolist() == [True, True, False, False]
        # On float keys a NaN query is below every key, as the oracle counts it.
        values, under, over = key_queries(validate_key_array([1.0, 2.0], FLOAT_MODE),
                                          [math.nan, 1.5, 3])
        assert values.dtype == np.float64
        assert under.tolist() == [True, False, False]
        assert over.tolist() == [False, False, True]
        B = validate_key_array([1.0, 2.0, 3.0], FLOAT_MODE)
        assert exact_ranks(B, [math.nan]).tolist() == [0] == [rank_bruteforce(B, math.nan)]

    def test_float_keys_read_a_query_as_its_float64(self):
        # 2^53 + 3 is 2^53 + 4 as a float64, which numpy compares with float keys.
        A = validate_key_array([0.0, 2.0**53 + 4], FLOAT_MODE)
        assert rank_bruteforce(A, 2**53 + 3) == 2
        assert exact_ranks(A, [2**53 + 3]).tolist() == [2]
        B = validate_key_array([1.0, 2.0, 3.0], FLOAT_MODE)
        assert rank_bruteforce(B, 10**400) == 3
        assert rank_bruteforce(B, -(10**400)) == 0

    def test_exact_ranks_refuses_what_float64_cannot_hold(self):
        for mode in MODES:
            with pytest.raises(InvalidParams):
                exact_ranks(validate_key_array([1, 2, 3], mode), [10**400])

    def test_exact_ranks_refuses_queries_not_1d(self):
        for A, q in ((validate_key_array([1, 2, 3], INT_MODE), 5.0),
                     (validate_key_array([1.0, 2.0], FLOAT_MODE), 1.5)):
            for queries in (q, [[q]]):
                with pytest.raises(InvalidParams):
                    exact_ranks(A, queries)

    def test_bounds_and_monotonicity(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            n = int(rng.integers(1, 200))
            A = validate_key_array(rng.integers(0, 50, n), INT_MODE)
            grid = np.arange(-1, 51)
            ranks = [rank_bruteforce(A, int(q)) for q in grid]
            assert all(0 <= r <= n for r in ranks)
            assert all(a <= b for a, b in zip(ranks, ranks[1:]))

    def test_rank_of_each_key_at_least_its_position(self):
        rng = np.random.default_rng(12)
        for _ in range(30):
            n = int(rng.integers(1, 100))
            A = validate_key_array(rng.integers(0, 20, n), INT_MODE)
            for i in range(n):
                # position i is 0-based; rank counts ties rightward
                assert rank_bruteforce(A, A.keys.item(i)) >= i + 1
