"""Binary and exponential search against the linear-scan oracle."""

import math

import numpy as np
import pytest

from espc.core import FLOAT_MODE, INT_MODE, rank_bruteforce, validate_key_array
from espc.errors import InvalidParams, StartOutOfRange
from espc.search import binary_search_rank, exponential_search, exponential_search_many


def _exhaustive_query_grid(A):
    """Below-min, every key, every midpoint, above-max."""
    vals = A.keys.astype(np.float64)
    mids = (vals[:-1] + vals[1:]) / 2.0
    lo = float(vals[0]) - 1.0
    hi = float(vals[-1]) + 1.0
    return np.concatenate(([lo], vals, mids, [hi]))


class TestBinarySearch:
    def test_example_hit(self):
        A = validate_key_array([1, 3, 5, 7], INT_MODE)
        assert binary_search_rank(A, 5).rank == 3

    def test_below_minimum(self):
        A = validate_key_array([1, 3, 5, 7], INT_MODE)
        assert binary_search_rank(A, 0).rank == 0

    def test_singleton_hit(self):
        A = validate_key_array([2], INT_MODE)
        out = binary_search_rank(A, 2)
        assert out.rank == 1
        assert out.comparisons >= 1

    def test_comparison_budget(self):
        rng = np.random.default_rng(3)
        for _ in range(40):
            n = int(rng.integers(1, 2000))
            A = validate_key_array(rng.random(n), FLOAT_MODE)
            budget = math.ceil(math.log2(n + 1)) + 1
            for q in rng.random(20):
                assert binary_search_rank(A, float(q)).comparisons <= budget

    def test_matches_oracle_on_exhaustive_grid(self):
        rng = np.random.default_rng(4)
        for _ in range(60):
            n = int(rng.integers(1, 300))
            A = validate_key_array(rng.integers(0, 40, n), INT_MODE)
            A = validate_key_array(A.keys.astype(np.float64), FLOAT_MODE)
            for q in _exhaustive_query_grid(A):
                assert binary_search_rank(A, float(q)).rank == rank_bruteforce(A, float(q))


class TestExponentialSearch:
    def test_example_far_start(self):
        A = validate_key_array([1, 3, 5, 7], INT_MODE)
        assert exponential_search(A, 1, 7).rank == 4

    def test_exact_prediction_fast_path(self):
        A = validate_key_array([1, 3, 5, 7], INT_MODE)
        out = exponential_search(A, 3, 5)
        assert out.rank == 3
        assert out.comparisons <= 2  # displacement zero

    def test_below_minimum(self):
        A = validate_key_array([1, 3, 5, 7], INT_MODE)
        assert exponential_search(A, 2, 0).rank == 0

    def test_start_out_of_range(self):
        A = validate_key_array([1, 2], INT_MODE)
        with pytest.raises(StartOutOfRange):
            exponential_search(A, 3, 1)
        with pytest.raises(StartOutOfRange):
            exponential_search(A, -1, 1)

    def test_oracle_equivalence_random_triples(self):
        # 10_000 random (array, start, query) triples, duplicates included.
        rng = np.random.default_rng(5)
        total = 0
        for _ in range(200):
            n = int(rng.integers(1, 2049))
            if rng.random() < 0.5:
                A = validate_key_array(rng.integers(0, max(2, n // 3), n), INT_MODE)
                queries = rng.integers(-2, max(2, n // 3) + 2, 50)
            else:
                A = validate_key_array(rng.random(n), FLOAT_MODE)
                queries = rng.random(50) * 1.2 - 0.1
            for q in queries:
                i = int(rng.integers(0, n + 1))
                q = q.item()
                assert exponential_search(A, i, q).rank == rank_bruteforce(A, q)
                total += 1
        assert total >= 10_000

    def test_cost_contract_against_displacement(self):
        # comparisons <= 2*ceil(log2(eps + 2)) + 4 for every start.
        rng = np.random.default_rng(6)
        for _ in range(30):
            n = int(rng.integers(1, 1500))
            A = validate_key_array(rng.random(n), FLOAT_MODE)
            for q in rng.random(30) * 1.2 - 0.1:
                q = q.item()
                true_rank = rank_bruteforce(A, q)
                for i in (0, n, int(rng.integers(0, n + 1)), true_rank):
                    out = exponential_search(A, i, q)
                    eps = abs(true_rank - i)
                    assert out.comparisons <= 2 * math.ceil(math.log2(eps + 2)) + 4

    def test_cost_grows_logarithmically(self):
        # Mean comparisons vs log2(displacement) fits a slope in [0.8, 2.5].
        rng = np.random.default_rng(7)
        n = 4096
        A = validate_key_array(np.sort(rng.random(n)), FLOAT_MODE)
        displacements = [2**j for j in range(1, 11)]
        means = []
        for eps in displacements:
            costs = []
            for _ in range(200):
                rank = int(rng.integers(eps, n - eps))
                q = float(A.keys[rank - 1])  # rank(q) == rank_bruteforce of that key
                true_rank = rank_bruteforce(A, q)
                start = true_rank - eps if rng.random() < 0.5 else true_rank + eps
                costs.append(exponential_search(A, start, q).comparisons)
            means.append(np.mean(costs))
        slope = np.polyfit(np.log2(displacements), means, 1)[0]
        assert 0.8 <= slope <= 2.5

    def test_rightmost_tie_semantics(self):
        A = validate_key_array([5, 5, 5, 5], INT_MODE)
        for i in range(5):
            assert exponential_search(A, i, 5).rank == 4
            assert exponential_search(A, i, 4).rank == 0


class TestExponentialSearchMany:
    def test_start_out_of_range(self):
        A = validate_key_array([1.0, 2.0], FLOAT_MODE)
        for start in (3, -1):
            with pytest.raises(StartOutOfRange):
                exponential_search_many(A, [0, start], [1.0, 1.0])

    def test_int_keys_reject_inexact_queries(self):
        A = validate_key_array([1, 2], INT_MODE)
        for qs in (np.array([1.5]), np.array([-1])):
            with pytest.raises(InvalidParams):
                exponential_search_many(A, [0], qs)
