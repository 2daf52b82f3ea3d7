"""Binary and exponential search against the linear-scan oracle."""

import math
from bisect import bisect_right

import numpy as np
import pytest

from espc.core import FLOAT_MODE, INT_MODE, rank_bruteforce, validate_key_array
from espc.errors import InvalidParams, StartOutOfRange
from espc.index import build_equal_probability, build_espc, evaluate_rank, evaluate_rank_hier
from espc.search import (
    SearchOutcome,
    _bisect,
    _gallop,
    binary_search_rank,
    exponential_search,
    exponential_search_many,
)


def _exhaustive_query_grid(A):
    """Below-min, every key, every midpoint, above-max."""
    vals = A.keys.astype(np.float64)
    mids = (vals[:-1] + vals[1:]) / 2.0
    lo = float(vals[0]) - 1.0
    hi = float(vals[-1]) + 1.0
    return np.concatenate(([lo], vals, mids, [hi]))


class TestSearchOutcome:
    def test_named_tuple(self):
        out = SearchOutcome(rank=2, comparisons=4)
        assert out == SearchOutcome(2, 4) == (2, 4)
        rank, comparisons = out
        assert (rank, comparisons) == (out.rank, out.comparisons) == (2, 4)
        with pytest.raises(AttributeError):
            out.rank = 3

    @pytest.mark.parametrize("q", [-1.0, 0.0, 1.5, 2.0, 3.0, 4.0])  # below, inside, above
    def test_every_lookup_returns_one(self, q):
        A = validate_key_array([0.0, 1.0, 2.0, 3.0], FLOAT_MODE)
        outs = [
            evaluate_rank(build_espc(A, 2), A, q),
            evaluate_rank_hier(build_equal_probability(A, 2, 1), A, q),
            binary_search_rank(A, q),
            # From start 2, q = 1.5 brackets rank 2 after two probes, without bisecting.
            *(exponential_search(A, i, q) for i in range(A.n + 1)),
        ]
        for out in outs:
            assert type(out) is SearchOutcome
            assert out.rank == rank_bruteforce(A, q)


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


def _reference_gallop(keys, i, q, comparisons, first=1):
    """The galloping loop as it was before its brackets were bisected in C, doubling from
    ``first``."""
    n = len(keys)
    go_right = False
    if i < n:
        comparisons += 1
        go_right = keys[i] <= q
    step = first
    if go_right:
        lo, hi = i + 1, n
        while i + step < n:
            comparisons += 1
            if keys[i + step] <= q:
                lo = i + step + 1
                step *= 2
            else:
                hi = i + step
                break
    else:
        lo, hi = 0, i
        while hi > 0:
            j = max(i - step, 0)
            comparisons += 1
            if keys[j] <= q:
                lo = j + 1
                break
            hi = j
            step *= 2
    return _bisect(keys, lo, hi, q, comparisons)


def _tied_probe_views():
    """(probe view, queries) for key arrays of 1..64 keys with ties.

    Float keys get float and int queries and NaN; integer keys above 2^53, where
    neighbours differ below float64 resolution, get int and float queries.
    """
    rng = np.random.default_rng(11)
    for n in range(1, 65):
        values = np.sort(rng.integers(0, n // 2 + 2, n))
        A = validate_key_array(values / 4.0, FLOAT_MODE)
        keys = A._probe[0]
        distinct = sorted(set(keys))
        mids = [(a + b) / 2 for a, b in zip(distinct, distinct[1:])]
        ints = list(range(math.floor(distinct[0]) - 1, math.ceil(distinct[-1]) + 2))
        yield keys, [distinct[0] - 1.0, *distinct, *mids, distinct[-1] + 1.0, *ints, math.nan]

        A = validate_key_array(2**60 + 3 * values.astype(np.uint64), INT_MODE)
        keys = A._probe[0]
        distinct = sorted(set(keys))
        around = [k + d for k in distinct for d in (-1, 0, 1)]
        floats = {math.nextafter(float(k), to) for k in distinct for to in (-math.inf, math.inf)}
        yield keys, [*around, *sorted(floats), 0, 2**64, 0.5, 2.0**64]


class TestGallopKernel:
    def test_matches_the_reference_loop_from_every_start(self):
        # First steps 1 (the public search), 2 and 8 (K = n/log2 n at n = 10^6).
        for keys, queries in _tied_probe_views():
            for i in range(len(keys) + 1):
                for q in queries:
                    for first in (1, 2, 8):
                        got = _gallop(keys, i, q, 3, first)
                        assert got == _reference_gallop(keys, i, q, 3, first), (i, q, first)

    def test_perfect_bracket_costs_t_probes(self):
        # The fact the C bisection relies on: every path through 2^t - 1 keys probes t.
        # NaN is left out: bisect_right sees no key above it, _bisect none below it.
        for keys, queries in _tied_probe_views():
            n = len(keys)
            if n not in (31, 64):
                continue
            queries = [q for q in queries if not math.isnan(q)]
            for t in range(1, (n + 1).bit_length()):
                for lo in range(n - 2**t + 2):
                    hi = lo + 2**t - 1
                    for q in queries:
                        assert _bisect(keys, lo, hi, q, 0) == (bisect_right(keys, q, lo, hi), t)
