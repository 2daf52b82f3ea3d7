"""Property tests: every lookup path agrees with the linear-scan oracle.

Key sets cover unsigned integers near 2^64 and near 0, heavy duplicates,
all-equal keys and finite floats of any magnitude; queries are keys,
neighbours of keys and arbitrary values on both sides of the key range, as
Python or as numpy scalars.  Inside the keys, a lookup's comparisons are
those of the scalar exponential search from its start plus its own checks.
Serialized indexes round-trip, and a corrupted
one is rejected at load, or it no longer matches the keys, or it gives
exact ranks.
The batched lookup equals the scalar one, rank and comparisons, on query
arrays of float64 (either key mode) and uint64 (integer keys).  The cell
probabilities are the occupancies the index's slots encode.  Validation
sorts keys as a stable sort does, bit for bit unless -0.0 and +0.0 tie.  A
histogram density is positive at every key it was fitted to, and its
heights are the counts of its bins as index cells.  Counting sorted keys by
bisection gives the counts of one pass over every key, and the
Freedman-Diaconis width reads the quartiles numpy computes.
"""

import math
import sys
import warnings

import numpy as np
import pytest

from espc.core import FLOAT_MODE, INT_MODE, int_key_queries, rank_bruteforce, validate_key_array
from espc.errors import (
    DegenerateIQR,
    DegenerateIqrWarning,
    IndexMismatch,
    InvalidIndexFile,
    InvalidK,
)
from espc.index import (
    _cell_counts,
    _cell_starts,
    assign_intervals,
    build_equal_probability,
    build_espc,
    deserialize_index,
    evaluate_rank,
    evaluate_rank_hier,
    evaluate_rank_many,
    predict,
    serialize_index,
)
from espc.search import binary_search_rank, exponential_search, exponential_search_many
from espc.stats import fd_bin_width, histogram_density, partition_probabilities

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


def _inside(A, queries):
    """The queries within [x_min, x_max], compared as the lookups compare them."""
    lo, hi = A.x_min, A.x_max
    return [q for q in queries if lo <= (float(q) if isinstance(q, np.floating) else q) <= hi]


@given(arrays_and_queries(), st.integers(1, 80), st.integers(1, 20))
def test_lookups_count_what_the_scalar_search_counts(data, k, k_top):
    # Inside the keys, a lookup costs its two endpoint checks, the top lookup's
    # comparisons if it has a top layer, and exponential_search from its start.
    A, queries = data
    idx = _buildable(build_espc, A, k)
    h = _buildable(build_equal_probability, A, min(k, A.n), k_top)
    for q in _inside(A, queries):
        if idx is not None:
            rank, cost = exponential_search(A, math.ceil(predict(idx, q)), q)
            assert evaluate_rank(idx, A, q) == (rank, 2 + cost)
        if h is not None:
            bucket, top_cost = evaluate_rank(h.top, h.boundaries, q)
            centre = min(math.ceil((bucket - 0.5) * A.n / h.K), A.n)
            rank, cost = exponential_search(A, centre, q)
            assert evaluate_rank_hier(h, A, q) == (rank, top_cost + 2 + cost)


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


@given(key_arrays.filter(lambda A: float(A.keys[0]) < float(A.keys[-1])), st.integers(1, 80))
def test_cell_probabilities_are_the_slot_occupancies(A, k):
    a, b = float(A.keys[0]), float(A.keys[-1])
    idx = _buildable(build_espc, A, k)
    if idx is None:
        with pytest.raises(InvalidK):
            partition_probabilities(A, a, b, k)
        return
    counts, before = [], 0.0
    for r in idx.r:  # r_k = before_k + c_k/2
        counts.append(2 * (r - before))
        before += counts[-1]
    expected = np.array(counts) / A.n
    assert partition_probabilities(A, a, b, k).p.tobytes() == expected.tobytes()


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


@given(keys_and_bin_widths())
def test_histogram_heights_are_the_cell_counts(case):
    A, width = case
    dens = histogram_density(A, width)
    nbins = len(dens.heights)
    cell = (dens.b - dens.a) / nbins
    counts = np.bincount(assign_intervals(A.keys, dens.a, cell, nbins), minlength=nbins + 1)[1:]
    assert dens.heights.tobytes() == (counts / (A.n * cell)).tobytes()


# Sorted-key sets for the counting properties: duplicates, -0.0 next to +0.0, keys
# near 2^64, and keys 1e15 + 0.125*j, where 0.125 is the float spacing.
_sortable_keys = st.one_of(
    _raw_keys,
    st.lists(st.integers(0, 4000), min_size=1, max_size=300).map(
        lambda steps: 1e15 + 0.125 * np.array(steps, dtype=np.float64)
    ),
).map(lambda raw: validate_key_array(raw, INT_MODE if raw.dtype == np.uint64 else FLOAT_MODE))


@given(_sortable_keys, st.integers(1, 300), st.floats(0.0, 2.0))
def test_bisection_counts_equal_one_pass_over_every_key(A, k, pad):
    keys = A.keys
    lo, hi = float(keys[0]), float(keys[-1])
    b = hi + pad * (hi - lo)  # histogram_density may widen the last cell past x_max
    hypothesis.assume(lo < hi and 0.0 < (hi - lo) / k and math.isfinite(b))
    for top in (hi, b):
        step = (top - lo) / k
        expected = np.bincount(assign_intervals(keys, lo, step, k), minlength=k + 1)[1:]
        bisected = np.diff(_cell_starts(keys, lo, step, k), prepend=0, append=len(keys))
        assert bisected.tobytes() == expected.tobytes()


@pytest.mark.parametrize("kind", ["uniform", "pooled", "offset"])
def test_counts_agree_on_both_sides_of_the_bisection_switch(kind, monkeypatch):
    rng = np.random.default_rng(11)
    n = 40_000
    raw = {
        "uniform": rng.random(n),
        "pooled": rng.choice(np.array([-1.0, -0.0, 0.0, 0.5, 3.0]), n),
        "offset": 1e15 + 0.125 * rng.integers(0, 3 * n, n),
    }[kind]
    keys = validate_key_array(raw, FLOAT_MODE).keys
    lo, hi = float(keys[0]), float(keys[-1])
    bisected = []

    def counted(*args):
        bisected.append(k)
        return _cell_starts(*args)

    monkeypatch.setattr("espc.index._cell_starts", counted)
    for k in (1, 2, 50, 200, 400, 3000, n):
        for top in (hi, hi + 0.37 * (hi - lo)):  # a histogram's last cell may pass x_max
            step = (top - lo) / k
            expected = np.bincount(assign_intervals(keys, lo, step, k), minlength=k + 1)[1:]
            counts, cell = _cell_counts(keys, lo, top, k)
            assert cell == step and counts.tobytes() == expected.tobytes()
    assert 1 in bisected and n not in bisected  # both sides of the switch ran


@given(_sortable_keys)
def test_fd_width_reads_numpy_quartiles(A):
    hypothesis.assume(A.n >= 4)
    q25, q75 = np.quantile(A.keys.astype(np.float64), [0.25, 0.75])
    iqr = float(q75 - q25)
    with warnings.catch_warnings():
        warnings.simplefilter("error", DegenerateIqrWarning)
        if iqr > 0.0:
            assert fd_bin_width(A) == 2.0 * iqr / A.n ** (1.0 / 3.0)
        else:
            with pytest.raises((DegenerateIqrWarning, DegenerateIQR)):
                fd_bin_width(A)
