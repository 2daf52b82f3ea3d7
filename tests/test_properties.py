"""Property tests: every lookup path agrees with the linear-scan oracle.

Key sets cover unsigned integers near 2^64 and near 0, heavy duplicates,
all-equal keys and finite floats of any magnitude; queries are keys,
neighbours of keys and arbitrary values on both sides of the key range, as
Python or as numpy scalars.  Serialized indexes round-trip, and a corrupted
one is rejected at load, or it no longer matches the keys, or it gives
exact ranks.
The batched lookup equals the scalar one, rank and comparisons, on query
arrays of float64 (either key mode) and uint64 (integer keys).  Validation
sorts keys as a stable sort does, bit for bit unless -0.0 and +0.0 tie.  A
histogram density is positive at every key it was fitted to.
"""

import math
import sys

import numpy as np
import pytest

from espc.core import FLOAT_MODE, INT_MODE, int_key_queries, rank_bruteforce, validate_key_array
from espc.errors import IndexMismatch, InvalidIndexFile, InvalidK
from espc.index import (
    build_equal_probability,
    build_espc,
    deserialize_index,
    evaluate_rank,
    evaluate_rank_hier,
    evaluate_rank_many,
    serialize_index,
)
from espc.search import binary_search_rank, exponential_search, exponential_search_many
from espc.stats import histogram_density

hypothesis = pytest.importorskip("hypothesis")
given, example, st = hypothesis.given, hypothesis.example, hypothesis.strategies

_U64_MAX = 2**64 - 1
_FINITE = st.floats(allow_nan=False, allow_infinity=False)

_int_keys = st.one_of(
    st.lists(st.integers(_U64_MAX - 2**12, _U64_MAX), min_size=1, max_size=60),
    st.lists(st.integers(0, _U64_MAX), min_size=1, max_size=60),
    st.lists(st.integers(0, 200), min_size=1, max_size=60),
    st.lists(st.sampled_from([0, 1, 2**53 + 1, _U64_MAX]), min_size=1, max_size=60),
).map(lambda keys: validate_key_array(keys, INT_MODE))
_float_keys = st.one_of(
    st.lists(_FINITE, min_size=1, max_size=60),
    st.lists(st.sampled_from([-1.5, 0.0, 0.25, 1e300]), min_size=1, max_size=60),
).map(lambda keys: validate_key_array(keys, FLOAT_MODE))
_equal_keys = st.one_of(
    st.tuples(st.integers(0, _U64_MAX), st.integers(1, 40)).map(
        lambda kn: validate_key_array([kn[0]] * kn[1], INT_MODE)
    ),
    st.tuples(_FINITE, st.integers(1, 40)).map(
        lambda kn: validate_key_array([kn[0]] * kn[1], FLOAT_MODE)
    ),
)
key_arrays = st.one_of(_int_keys, _float_keys, _equal_keys)


_SIGNED_FLOATS = st.one_of(_FINITE, st.sampled_from([-0.0, 0.0]))
_TOP_UINTS = st.integers(_U64_MAX - 2**8, _U64_MAX)


def _pooled(values, dtype):
    """Up to 3 000 draws from a pool of at most 8 values (one value: all keys equal)."""
    return st.tuples(
        st.lists(values, min_size=1, max_size=8), st.integers(1, 3000), st.integers(0, 2**32)
    ).map(lambda t: np.random.default_rng(t[2]).choice(np.array(t[0], dtype=dtype), t[1]))


_raw_keys = st.one_of(
    st.lists(_SIGNED_FLOATS, min_size=1, max_size=60).map(np.array),
    st.lists(_TOP_UINTS, min_size=1, max_size=60).map(lambda keys: np.array(keys, np.uint64)),
    _pooled(_SIGNED_FLOATS, np.float64),
    _pooled(_TOP_UINTS, np.uint64),
)


@given(_raw_keys)
def test_validation_sorts_as_a_stable_sort_does(raw):
    keys = validate_key_array(raw, FLOAT_MODE if raw.dtype.kind == "f" else INT_MODE).keys
    stable = np.sort(raw, kind="stable")
    assert np.array_equal(keys, stable)
    signs = np.signbit(raw[raw == 0])
    if signs.all() or not signs.any():  # no -0.0 and +0.0 to tie
        assert keys.tobytes() == stable.tobytes()


@st.composite
def arrays_and_queries(draw):
    A = draw(key_arrays)
    keys = A.keys.tolist()
    if A.mode == INT_MODE:
        near = [k + d for k in keys[:10] for d in (-1, 1)] + [float(k) for k in keys[:10]]
        free = st.one_of(st.integers(-(2**65), 2**65), _FINITE)
    else:
        near = [math.nextafter(k, d) for k in keys[:10] for d in (-math.inf, math.inf)]
        free = _FINITE
    pool = st.one_of(st.sampled_from(keys + near), free)
    queries = draw(st.lists(pool, min_size=1, max_size=20))
    if draw(st.booleans()):  # as iterating a numpy query array yields them
        queries = [_numpy_scalar(q) for q in queries]
    return A, queries


def _numpy_scalar(q):
    if isinstance(q, float):
        return np.float64(q)
    if -(2**63) <= q < 2**63:
        return np.int64(q)
    return np.uint64(q) if 0 <= q <= _U64_MAX else q


def _buildable(build, *args):
    try:
        return build(*args)
    except InvalidK:
        return None  # key span / k is not a positive finite float


@given(arrays_and_queries(), st.integers(1, 80))
def test_flat_lookup_matches_oracle(data, k):
    A, queries = data
    idx = _buildable(build_espc, A, k)
    if idx is None:
        span = float(A.keys[-1]) - float(A.keys[0])
        assert not 0.0 < span / k < math.inf
        return
    for q in queries:
        assert evaluate_rank(idx, A, q).rank == rank_bruteforce(A, q)


@given(arrays_and_queries(), st.integers(1, 80), st.integers(1, 20))
def test_hier_lookup_matches_oracle(data, k, k_top):
    A, queries = data
    h = _buildable(build_equal_probability, A, min(k, A.n), k_top)
    if h is None:
        return
    for q in queries:
        assert evaluate_rank_hier(h, A, q).rank == rank_bruteforce(A, q)


@given(arrays_and_queries())
def test_searches_match_oracle_from_every_start(data):
    A, queries = data
    for q in queries:
        rank = rank_bruteforce(A, q)
        assert binary_search_rank(A, q).rank == rank
        for i in range(A.n + 1):
            out = exponential_search(A, i, q)
            assert out.rank == rank
            assert out.comparisons <= 2 * math.ceil(math.log2(abs(rank - i) + 2)) + 4


@st.composite
def arrays_and_query_arrays(draw):
    """A key array and a numpy query array: float64 on either mode, or uint64 on int keys."""
    A = draw(key_arrays)
    keys = A.keys.tolist()
    if A.mode == INT_MODE and draw(st.booleans()):
        near = [min(k + 1, _U64_MAX) for k in keys[:10]] + [max(k - 1, 0) for k in keys[:10]]
        pool, dtype = st.one_of(st.sampled_from(keys + near), st.integers(0, _U64_MAX)), np.uint64
    elif A.mode == INT_MODE:  # hi + 0.5 floors to hi, yet lies above every key
        near = [float(k) + d for k in keys[:10] + keys[-1:] for d in (-0.5, 0.0, 0.5)]
        pool, dtype = st.one_of(st.sampled_from(near + [2.0**64]), _FINITE), np.float64
    else:
        near = [math.nextafter(k, d) for k in keys[:10] for d in (-math.inf, math.inf)]
        pool, dtype = st.one_of(st.sampled_from(keys + near), _FINITE), np.float64
    return A, np.array(draw(st.lists(pool, max_size=30)), dtype=dtype)


@given(arrays_and_query_arrays(), st.integers(1, 80))
def test_batched_lookup_matches_scalar(data, k):
    A, qs = data
    idx = _buildable(build_espc, A, k)
    if idx is None:
        return
    ranks, comparisons = evaluate_rank_many(idx, A, qs)
    scalar = [evaluate_rank(idx, A, q) for q in qs]
    assert ranks.tolist() == [out.rank for out in scalar]
    assert comparisons.tolist() == [out.comparisons for out in scalar]


@given(arrays_and_query_arrays())
def test_batched_search_matches_scalar_from_every_start(data):
    A, qs = data
    if A.mode == INT_MODE:
        qs = int_key_queries(qs)[0]
    starts = np.repeat(np.arange(A.n + 1), len(qs))
    lanes = np.tile(qs, A.n + 1)
    ranks, comparisons = exponential_search_many(A, starts, lanes)
    scalar = [exponential_search(A, int(i), q) for i, q in zip(starts, lanes)]
    assert ranks.tolist() == [out.rank for out in scalar]
    assert comparisons.tolist() == [out.comparisons for out in scalar]


@given(key_arrays, st.integers(1, 80))
def test_serialization_round_trips(A, k):
    idx = _buildable(build_espc, A, k)
    if idx is not None:
        blob = serialize_index(idx)
        assert serialize_index(deserialize_index(blob)) == blob


@given(arrays_and_queries(), st.integers(1, 80), st.data())
def test_corrupt_blob_is_rejected_or_still_exact(data, k, more):
    A, queries = data
    idx = _buildable(build_espc, A, k)
    if idx is None:
        return
    blob = bytearray(serialize_index(idx))
    blob[more.draw(st.integers(0, len(blob) - 1))] ^= more.draw(st.integers(1, 255))
    try:
        loaded = deserialize_index(bytes(blob))
    except InvalidIndexFile:
        return
    for q in queries:
        try:
            rank = evaluate_rank(loaded, A, q).rank
        except IndexMismatch:  # a changed n or key range
            continue
        assert rank == rank_bruteforce(A, q)


@st.composite
def keys_and_bin_widths(draw):
    """Finite float keys at any offset, and a bin width giving at most ~10^4 bins.

    Widths start at the smallest normal float: a subnormal width makes the
    heights count/(n*width) overflow.
    """
    offset = draw(_FINITE)
    width = draw(st.floats(min_value=sys.float_info.min, max_value=1e300))
    fracs = draw(st.lists(st.floats(0.0, 1e4), min_size=1, max_size=60))
    keys = [offset + width * f for f in fracs]
    hypothesis.assume(all(math.isfinite(key) for key in keys))
    A = validate_key_array(keys, FLOAT_MODE)
    hypothesis.assume(float(A.keys[-1]) - float(A.keys[0]) <= 1e4 * width)
    return A, width


@example(
    (
        validate_key_array(
            [7345771.779514994, 7345782.017973739, 7345782.586777002], FLOAT_MODE
        ),
        1.1376065271941127,
    )
)
@given(keys_and_bin_widths())
def test_histogram_density_is_positive_at_every_key(case):
    A, width = case
    assert np.all(histogram_density(A, width)(A.keys) > 0)
