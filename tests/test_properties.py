"""Property tests: every lookup path agrees with the linear-scan oracle.

Key sets cover unsigned integers near 2^64 and near 0, heavy duplicates,
all-equal keys and finite floats of any magnitude; queries are keys,
neighbours of keys and arbitrary values on both sides of the key range, as
Python or as numpy scalars.  On float keys every path reads a query,
Python int, float or numpy float, as its float64, as the oracle does.
Inside the keys, a lookup's comparisons are those of a gallop from its start,
doubling from the first step the index's occupancy fixes, plus its own checks; an
interpreted reference counts that gallop from the rank alone, from every start and
first step, and the batched gallop equals the scalar one lane by lane.
Serialized indexes round-trip, and a corrupted
one is rejected at load, or it no longer matches the keys, or it gives
exact ranks.  The constructor refuses exactly the headers the loader refuses,
and an index both accept round-trips bit-exactly and predicts alike at any query
through the scalar and the batched path.
The batched lookup equals the scalar one, rank and comparisons, on query
arrays of float64 (either key mode) and uint64 (integer keys).  The cell
probabilities are the occupancies the index's slots encode, and the slots
are byte for byte the keys before each cell plus half those in it, on both
sides of the guessing switch.  Validation
sorts keys as a stable sort does, bit for bit unless -0.0 and +0.0 tie.  A
histogram density is positive at every key it was fitted to, and its
heights are the counts of its bins as index cells.  Counting sorted keys from
guessed cell starts gives the counts of one pass over every key, as the cell
rule proves exactly the right guesses and the bisection replaces the rest; the
Freedman-Diaconis width reads the quartiles numpy computes, and the density
norm is the mean of either fitted density over every key.  On heavy-tailed
keys above the size floor, whose cells are cut on a log scale, every lookup
path still gives the oracle's ranks and the scalar counts, the scalar and
batched estimates agree bit for bit, and the blobs round-trip; below the
floor the cells stay equal in x.
"""

import math
import struct
import sys
import warnings
from unittest import mock

import numpy as np
import pytest

from espc.core import (
    FLOAT_MODE,
    INT_MODE,
    exact_ranks,
    key_queries,
    rank_bruteforce,
    validate_key_array,
)
from espc.errors import (
    DegenerateIQR,
    DegenerateIqrWarning,
    IndexMismatch,
    InvalidIndexFile,
    InvalidK,
    InvalidParams,
    InvalidWidth,
)
from espc.index import (
    _SHIFT_FRACTIONS,
    MAX_KEYS,
    SHIFT_FLOOR,
    EspcIndex,
    _bisect_starts,
    _cell_counts,
    _cell_starts,
    _choose_shift,
    _proved_starts,
    _shift_ok,
    _span,
    _stretch_counts,
    assign_intervals,
    build_equal_probability,
    build_espc,
    deserialize_index,
    evaluate_rank,
    evaluate_rank_hier,
    evaluate_rank_many,
    predict,
    predict_many,
    serialize_index,
)
from espc.search import (
    _gallop,
    _gallop_many,
    binary_search_rank,
    exponential_search,
    exponential_search_many,
)
from espc.stats import (
    HISTOGRAM,
    KERNEL,
    estimate_rho,
    fd_bin_width,
    histogram_density,
    kde_density,
    partition_probabilities,
)

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


def _first_step(n, k):
    """The largest power of two <= n // (2k), or 1 below 2."""
    first = 1
    while 4 * first * k <= n:
        first *= 2
    return first


def _gallop_reference(n, i, rank, first):
    """(rank, comparisons) of the gallop from start ``i`` over ``n`` keys, doubling from
    ``first``: an interpreted loop whose every probe reads the rank alone, as keys[x] <= q
    holds exactly when x < rank, and bisects every bracket itself."""
    comparisons = 0

    def at_most_q(x):
        nonlocal comparisons
        comparisons += 1
        return x < rank

    step = first
    if i < n and at_most_q(i):
        lo, hi = i + 1, n
        while i + step < n:
            if not at_most_q(i + step):
                hi = i + step
                break
            lo, step = i + step + 1, 2 * step
    else:
        lo, hi = 0, i
        while hi > 0:
            j = max(i - step, 0)
            if at_most_q(j):
                lo = j + 1
                break
            hi, step = j, 2 * step
    while lo < hi:
        mid = (lo + hi) // 2
        if at_most_q(mid):
            lo = mid + 1
        else:
            hi = mid
    return lo, comparisons


def _composition_holds(A, idx, h, queries):
    """Inside the keys, each lookup is the parts it is made of, counts summed.

    Flat: the oracle's rank, at the cost of its two endpoint checks and the gallop from
    ceil(predict), where predict is the batched estimate, doubling from the first step
    the index's n and K fix, as :func:`_gallop_reference` counts it; where that step is 1
    this is exponential_search's count.  Two-layer: the oracle's rank, at the cost of its
    two endpoint checks, the flat lookup on the top layer over the boundaries, and
    T = bit_length(ceil(n/K) - 1) probes, or binary_search_rank's count where the
    perfect bracket 2^T - 1 is longer than n.  Either index may be None (not buildable).
    """
    for q in _inside(A, queries):
        if idx is not None:
            estimate = predict(idx, q)
            assert estimate == predict_many(idx, [float(q)])[0]
            start, first = math.ceil(estimate), _first_step(A.n, idx.K)
            truth = rank_bruteforce(A, q)
            rank, cost = _gallop_reference(A.n, start, truth, first)
            assert rank == truth
            assert evaluate_rank(idx, A, q) == (truth, 2 + cost)
            if first == 1:
                assert exponential_search(A, start, q) == (truth, cost)
        if h is not None:
            depth = (-(-A.n // h.K) - 1).bit_length()
            cost = binary_search_rank(A, q).comparisons if 2**depth - 1 > A.n else depth
            top_cost = evaluate_rank(h.top, h.boundaries, q).comparisons
            assert evaluate_rank_hier(h, A, q) == (rank_bruteforce(A, q), top_cost + 2 + cost)


@given(arrays_and_queries(), st.integers(1, 80), st.integers(1, 20))
def test_lookups_count_what_the_scalar_search_counts(data, k, k_top):
    A, queries = data
    idx = _buildable(build_espc, A, k)
    h = _buildable(build_equal_probability, A, min(k, A.n), k_top)
    _composition_holds(A, idx, h, queries)


@given(arrays_and_queries(), st.integers(0, 6))
def test_gallop_from_every_start_and_first_step_counts_as_the_reference(data, log_first):
    A, queries = data
    keys, first = A._probe[0], 2**log_first
    for q in queries:
        rank = rank_bruteforce(A, q)
        if A.mode == FLOAT_MODE or isinstance(q, np.floating):
            q = float(q)  # as the lookups read it; integer keys compare an integer exactly
        for i in range(A.n + 1):
            expected = _gallop_reference(A.n, i, rank, first)
            assert expected[0] == rank
            assert _gallop(keys, i, q, 0, first) == expected


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
def float_keys_and_mixed_queries(draw):
    """Float keys, some past 2^53, and queries of each type a lookup takes, with a start each.

    Python ints past 2^53 round as float64s, and ints past float64 read as infinities.
    """
    ints = st.lists(st.integers(-(2**60), 2**60), min_size=1, max_size=40)
    keys = draw(st.one_of(ints.map(lambda ks: [float(k) for k in ks]),
                          st.lists(_FINITE, min_size=1, max_size=40)))
    A = validate_key_array(keys, FLOAT_MODE)
    near = [int(k) + d for k in A.keys.tolist()[:10] for d in (-3, -1, 0, 1, 3)]
    pool = st.one_of(
        st.sampled_from(near + [2**53 + 3, 2**1024, -(2**1024), 10**400]),
        st.integers(-(2**70), 2**70),
        _FINITE,
        _FINITE.map(np.float64),
    )
    queries = draw(st.lists(pool, min_size=1, max_size=20))
    starts = draw(st.lists(st.integers(0, A.n), min_size=len(queries), max_size=len(queries)))
    return A, queries, starts


@given(float_keys_and_mixed_queries(), st.integers(1, 80), st.integers(1, 20))
@example((validate_key_array([0.0, 2.0**53 + 4], FLOAT_MODE), [2**53 + 3], [0]), 2, 2)
def test_every_path_reads_a_float_key_query_as_the_oracle_does(data, k, k_top):
    A, queries, starts = data
    idx = _buildable(build_espc, A, k)
    h = _buildable(build_equal_probability, A, min(k, A.n), k_top)
    truth = [rank_bruteforce(A, q) for q in queries]
    assert [binary_search_rank(A, q).rank for q in queries] == truth
    assert [exponential_search(A, i, q).rank for i, q in zip(starts, queries)] == truth
    if h is not None:
        assert [evaluate_rank_hier(h, A, q).rank for q in queries] == truth
    try:
        assert exact_ranks(A, queries).tolist() == truth
    except InvalidParams:  # numpy holds a Python int past 64 bits as an object
        assert np.asarray(queries).dtype == object
    if idx is None:
        return
    scalar = [evaluate_rank(idx, A, q) for q in queries]
    assert [out.rank for out in scalar] == truth
    try:
        ranks, comparisons = evaluate_rank_many(idx, A, queries)
    except InvalidParams:
        assert np.asarray(queries).dtype == object
    else:
        assert ranks.tolist() == truth
        assert comparisons.tolist() == [out.comparisons for out in scalar]


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


@given(arrays_and_query_arrays(), st.integers(1, 6))
def test_batched_search_matches_scalar_from_every_start(data, log_first):
    A, qs = data
    qs = key_queries(A, qs)[0]
    starts = np.repeat(np.arange(A.n + 1), len(qs))
    lanes = np.tile(qs, A.n + 1)
    ranks, comparisons = exponential_search_many(A, starts, lanes)
    scalar = [exponential_search(A, int(i), q) for i, q in zip(starts, lanes)]
    assert ranks.tolist() == [out.rank for out in scalar]
    assert comparisons.tolist() == [out.comparisons for out in scalar]
    # The lookups' kernel from a larger first step, lane by lane.
    first = 2**log_first
    ranks, comparisons = _gallop_many(A.keys, starts, lanes, first)
    scalar = [_gallop(A._probe[0], i, q, 0, first) for i, q in zip(starts.tolist(), lanes.tolist())]
    assert list(zip(ranks.tolist(), comparisons.tolist())) == scalar


@given(key_arrays, st.integers(1, 80))
def test_serialization_round_trips(A, k):
    idx = _buildable(build_espc, A, k)
    if idx is not None:
        blob = serialize_index(idx)
        assert serialize_index(deserialize_index(blob)) == blob


_ENDS = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.5, 1e308, -1e308, 1.7976931348623157e308,
                     5e-324, -5e-324, 1e-310]),
    _FINITE,
)


@st.composite
def headers(draw):
    """(n, cell counts that partition n, x_first, x_last, shift): ends that are reversed,
    equal, huge or subnormal, or x_last a step above x_first, and a shift that is None,
    any end, or a step below x_first."""
    n = draw(st.sampled_from([*range(61), MAX_KEYS, MAX_KEYS + 1]))
    k = draw(st.integers(0, 6))
    cuts = draw(st.lists(st.integers(0, n), min_size=max(k - 1, 0), max_size=max(k - 1, 0)))
    counts = np.diff([0, *sorted(cuts), n]).tolist() if k else []
    x_first = draw(_ENDS)
    scale = abs(x_first) or 1.0
    steps = st.sampled_from([5e-324, 1e-300, 1e-9, 1.0, 1e300]).map(lambda c: c * scale)
    x_last = draw(st.one_of(steps.map(lambda c: x_first + c), _ENDS))
    shift = draw(st.one_of(st.none(), steps.map(lambda c: x_first - c), _ENDS))
    return n, counts, x_first, x_last, shift


@given(headers())
@example((4, [2, 2], 1.0, 0.0, None))  # a reversed range
@example((2, [1, 1], 1.0, 1.0, None))  # two cells over one point
@example((2, [1, 1], -1e308, 1e308, None))  # the interval length overflows to inf
@example((2, [1, 1], 0.0, 5e-324, None))  # and underflows to 0
def test_the_constructor_refuses_exactly_the_headers_the_loader_refuses(header):
    n, counts, x_first, x_last, shift = header
    c = np.cumsum(counts, dtype=np.int64)
    t = (c + np.concatenate([[0], c[:-1]])).astype(np.uint32)  # t_k = c_{k-1} + c_k
    last = (x_last - x_first) / max(len(t), 1) if shift is None else shift  # as derived
    magic = b"ESPC2" if shift is None else b"ESPC3"
    header = struct.pack("<QQddd", n, len(t), x_first, x_last, last)
    blob = magic + header + t.astype("<u4").tobytes()
    try:
        idx = EspcIndex(x_first=x_first, x_last=x_last, n=n, t=t, shift=shift)
    except (InvalidParams, InvalidK):
        with pytest.raises(InvalidIndexFile):
            deserialize_index(blob)
        return
    loaded = deserialize_index(blob)
    assert serialize_index(idx) == blob == serialize_index(loaded)
    outside = [-math.inf, math.nextafter(x_first, -math.inf), math.nextafter(x_last, math.inf),
               math.inf]
    for q in [x_first, x_last, x_first / 2 + x_last / 2, *outside]:
        for index in (idx, loaded):
            assert predict(index, q) == predict_many(index, [q])[0]


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


_LARGE_N = 40_000  # _cell_counts guesses these keys' cell starts for K <= 2 725, one pass above


@st.composite
def keys_and_slot_counts(draw):
    """Keys with ties (all equal among them) and a K on either side of the guessing switch."""
    if draw(st.booleans()):
        return draw(key_arrays), draw(st.integers(1, 80))
    rng = np.random.default_rng(draw(st.integers(0, 2**32)))
    if draw(st.booleans()):
        pool = draw(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=8))
        raw = rng.choice(np.array(pool), _LARGE_N)
    else:
        raw = rng.random(_LARGE_N)
    bisect = draw(st.booleans())
    k = draw(st.integers(1, 2725) if bisect else st.integers(2726, _LARGE_N))
    assert (2 * _LARGE_N.bit_length() * (k + 1024) < 3 * _LARGE_N) == bisect  # the switch's rule
    return validate_key_array(raw, FLOAT_MODE), k


_SWITCH_KEYS = validate_key_array(np.random.default_rng(23).random(_LARGE_N), FLOAT_MODE)


@example((validate_key_array([0.25] * 7, FLOAT_MODE), 5))  # one cell of length 0
@example((_SWITCH_KEYS, 2725))
@example((_SWITCH_KEYS, 2726))
@given(keys_and_slot_counts())
def test_slots_are_the_counts_before_plus_half(case):
    A, k = case
    lo, hi = float(A.keys[0]), float(A.keys[-1])
    idx = _buildable(build_espc, A, k)
    if idx is None:
        with pytest.raises(InvalidK):
            _cell_counts(A.keys, lo, hi, k)
        return
    counts = _cell_counts(A.keys, lo, hi, k, idx.shift)  # the index's g, not always x
    before = np.concatenate(([0.0], np.cumsum(counts.astype(np.float64))[:-1]))
    assert idx.K == len(idx.r) == (1 if lo == hi else k)
    assert idx.r.dtype == np.float64 and not idx.r.flags.writeable
    assert idx.r.tobytes() == (before + counts / 2.0).tobytes()


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


# Keys whose guessed starts fail: runs of equal keys on the cell edges j/m of [0, 1],
# -0.0 next to +0.0, and integer keys near 2^64, where float64 steps by 2 048 or 4 096.
_edge_keys = st.one_of(
    _sortable_keys,
    st.tuples(st.integers(1, 60), st.integers(1, 20)).map(
        lambda mr: validate_key_array(np.repeat(np.arange(mr[0] + 1) / mr[0], mr[1]), FLOAT_MODE)
    ),
    st.lists(st.sampled_from([-1.0, -0.0, 0.0, 0.5, 1.0]), min_size=2, max_size=300).map(
        lambda keys: validate_key_array(keys, FLOAT_MODE)
    ),
    st.lists(st.integers(_U64_MAX - 2**17, _U64_MAX), min_size=2, max_size=300).map(
        lambda keys: validate_key_array(keys, INT_MODE)
    ),
)


@given(_edge_keys, st.integers(1, 300), st.floats(0.0, 2.0),
       st.sampled_from((None,) + _SHIFT_FRACTIONS), st.integers(0, 2**32))
def test_the_cell_rule_proves_exactly_the_right_guesses(A, k, pad, fraction, seed):
    keys, n = A.keys, A.n
    lo, hi = float(keys[0]), float(keys[-1])
    top = hi + pad * (hi - lo)  # histogram_density may widen the last cell past x_max
    shift = None if fraction is None else lo - fraction * (hi - lo)  # a log scale, as built
    hypothesis.assume(lo < hi and math.isfinite(top))
    hypothesis.assume(shift is None or _shift_ok(lo, top, shift))
    step = _span(lo, top, shift) / k
    hypothesis.assume(0.0 < step < math.inf)
    one_pass = np.bincount(assign_intervals(keys, lo, step, k, shift), minlength=k + 1)[1:]
    truth = np.cumsum(one_pass)[:-1]
    rng = np.random.default_rng(seed)  # each start moved by up to 3, or drawn from [0, n]
    near = truth + rng.integers(-3, 4, k - 1)
    guesses = np.where(rng.random(k - 1) < 0.5, near, rng.integers(0, n + 1, k - 1)).clip(0, n)
    with mock.patch("espc.index._bisect_starts", wraps=_bisect_starts) as bisect:
        proved = _proved_starts(keys, guesses.copy(), lo, step, k, shift)
    wrong = np.flatnonzero(guesses != truth)
    if wrong.size:  # the lanes bisected are the wrong guesses, and only they
        assert bisect.call_args.args[1].tolist() == (wrong + 2).tolist()
    else:
        assert not bisect.called
    assert np.diff(proved, prepend=0, append=n).tobytes() == one_pass.tobytes()
    predicted = _cell_starts(keys, lo, step, k, shift)
    assert np.diff(predicted, prepend=0, append=n).tobytes() == one_pass.tobytes()


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
    guessed = []

    def counted(*args):
        guessed.append(k)
        return _cell_starts(*args)

    monkeypatch.setattr("espc.index._cell_starts", counted)
    ks = (1, 2, 50, 400, 2725, 2726, 3000, n)
    for k in ks:
        for top in (hi, hi + 0.37 * (hi - lo)):  # a histogram's last cell may pass x_max
            step = (top - lo) / k
            expected = np.bincount(assign_intervals(keys, lo, step, k), minlength=k + 1)[1:]
            assert _cell_counts(keys, lo, top, k).tobytes() == expected.tobytes()
    # Guessed where 2 bit_length(n) (K + 1024) < 3n, both sides of the switch.
    assert sorted(set(guessed)) == [1, 2, 50, 400, 2725]


# The edge keys above with each key repeated up to 100 times, so that whole stretches
# of 64 keys lie in one cell, on its edges, and across -0.0 and +0.0.
_stretched_keys = st.tuples(_edge_keys, st.integers(1, 100)).map(
    lambda kr: validate_key_array(np.repeat(kr[0].keys, kr[1]), kr[0].mode)
)


@given(_stretched_keys, st.integers(1, 300), st.floats(0.0, 2.0),
       st.sampled_from((None,) + _SHIFT_FRACTIONS))
def test_stretch_counts_equal_one_pass_over_every_key(A, k, pad, fraction):
    keys = A.keys
    lo, hi = float(keys[0]), float(keys[-1])
    top = hi + pad * (hi - lo)  # histogram_density may widen the last cell past x_max
    shift = None if fraction is None else lo - fraction * (hi - lo)  # a log scale, as built
    hypothesis.assume(lo < hi and math.isfinite(top))
    hypothesis.assume(shift is None or _shift_ok(lo, top, shift))
    step = _span(lo, top, shift) / k
    hypothesis.assume(0.0 < step < math.inf)
    one_pass = np.bincount(assign_intervals(keys, lo, step, k, shift), minlength=k + 1)[1:]
    assert _stretch_counts(keys, lo, step, k, shift).tobytes() == one_pass.tobytes()


_SWITCHED = {  # 40 000 keys of each kind, past the floor where a count probes its stretches
    "uniform": lambda rng: validate_key_array(rng.random(_LARGE_N), FLOAT_MODE),
    "pooled": lambda rng: validate_key_array(
        rng.choice(np.array([-1.0, -0.0, 0.0, 0.5, 3.0]), _LARGE_N), FLOAT_MODE),
    "lognormal": lambda rng: validate_key_array(rng.lognormal(0.0, 2.0, _LARGE_N), FLOAT_MODE),
    "top": lambda rng: validate_key_array(  # integers float64 rounds to multiples of 2 048
        rng.integers(_U64_MAX - 2**20, _U64_MAX, _LARGE_N, dtype=np.uint64, endpoint=True),
        INT_MODE),
}


@hypothesis.settings(max_examples=60)
@given(st.sampled_from(sorted(_SWITCHED)), st.integers(0, 2**32), st.booleans(),
       st.one_of(st.integers(1, 2725), st.integers(2726, 4 * _LARGE_N)), st.floats(0.0, 2.0))
def test_counts_equal_one_pass_across_both_switches(kind, seed, log_scale, k, pad):
    A = _SWITCHED[kind](np.random.default_rng(seed))
    keys = A.keys
    lo, hi = float(keys[0]), float(keys[-1])
    top = hi + pad * (hi - lo)  # histogram_density may widen the last cell past x_max
    shift = _choose_shift(keys, lo, hi) if log_scale else None
    hypothesis.assume(shift is None or _shift_ok(lo, top, shift))
    step = _span(lo, top, shift) / k
    one_pass = np.bincount(assign_intervals(keys, lo, step, k, shift), minlength=k + 1)[1:]
    with mock.patch("espc.index._stretch_counts", wraps=_stretch_counts) as stretched:
        counts = _cell_counts(keys, lo, top, k, shift)
    hypothesis.event(f"{kind}, log scale: {shift is not None}, guessed: {k <= 2725}, "
                     f"stretches: {stretched.called}")
    assert counts.tobytes() == one_pass.tobytes()


@pytest.mark.parametrize("kind, stretched_ks", [
    ("uniform", []), ("pooled", [2726, 10_000, _LARGE_N - 1]),
    ("lognormal", [2726, 10_000, _LARGE_N - 1]), ("top", []),
])
def test_counts_agree_on_both_sides_of_the_stretch_switch(kind, stretched_ks, monkeypatch):
    keys = _SWITCHED[kind](np.random.default_rng(11)).keys
    lo, hi = float(keys[0]), float(keys[-1])
    stretched = []

    def counted(*args):
        stretched.append(k)
        return _stretch_counts(*args)

    monkeypatch.setattr("espc.index._stretch_counts", counted)
    for k in (2725, 2726, 10_000, _LARGE_N - 1, _LARGE_N, 40 * _LARGE_N):
        step = (hi - lo) / k
        expected = np.bincount(assign_intervals(keys, lo, step, k), minlength=k + 1)[1:]
        assert _cell_counts(keys, lo, hi, k).tobytes() == expected.tobytes()
    # Stretches only past the guessing switch, below K = n, where the probe finds few edges.
    assert sorted(set(stretched)) == stretched_ks


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


# Float keys for the density norm: arbitrary values, ties from a small pool (the
# zero-IQR fallback among them), and ranges a few hundred float steps wide.
_MODEST = st.floats(-1e100, 1e100)  # np.std of larger keys can overflow
_rho_keys = st.one_of(
    st.lists(_MODEST, min_size=4, max_size=60).map(np.array),
    _pooled(_MODEST, np.float64),
    st.lists(st.integers(0, 400), min_size=4, max_size=300).map(
        lambda steps: 1e15 + 0.125 * np.array(steps, dtype=np.float64)
    ),
).map(lambda raw: validate_key_array(raw, FLOAT_MODE))


@given(_rho_keys)
def test_rho_is_the_mean_density_over_every_key(A):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DegenerateIqrWarning)
        try:
            width = fd_bin_width(A)
            hypothesis.assume((float(A.keys[-1]) - float(A.keys[0])) / width <= 1e5)  # affordable bins
            hist = histogram_density(A, width)
            kde = kde_density(A)
        except (DegenerateIQR, InvalidWidth, InvalidParams):
            hypothesis.reject()  # fewer than 4 keys, all equal, or no usable width
        for method, density in ((HISTOGRAM, hist), (KERNEL, kde)):
            rho = estimate_rho(A, method=method)
            assert rho.method == method
            assert rho.value == pytest.approx(float(np.mean(density(A.keys))), rel=1e-12)


_HEAVY_TAILS = {
    "lognormal": lambda rng, n: rng.lognormal(0.0, 2.0, n),
    "pareto": lambda rng, n: rng.pareto(1.5, n),
    "exponential": lambda rng, n: rng.exponential(1.0, n),
}


@st.composite
def heavy_tailed_keys(draw, floor=SHIFT_FLOOR, top=3 * SHIFT_FLOOR):
    """Lognormal, Pareto or exponential draws: floats with an offset, or integers above 2^60."""
    dist = draw(st.sampled_from(sorted(_HEAVY_TAILS)))
    n = draw(st.integers(floor, top))
    draws = _HEAVY_TAILS[dist](np.random.default_rng(draw(st.integers(0, 2**32))), n)
    if draw(st.booleans()):  # integers that float64 rounds, to multiples of 256
        return validate_key_array(2**60 + np.floor(draws * 2**30).astype(np.uint64), INT_MODE)
    return validate_key_array(draws + draw(st.sampled_from([0.0, -7.5, 1e6])), FLOAT_MODE)


_LOGNORMAL_KEYS = validate_key_array(np.random.default_rng(11).lognormal(0.0, 2.0, SHIFT_FLOOR))


def _heavy_queries(A, rng):
    """Keys, their neighbours, values between keys and values outside, as two numpy arrays."""
    keys = A.keys[rng.integers(0, A.n, 24)]
    lo, hi = float(A.keys[0]), float(A.keys[-1])
    spread = lo + (rng.random(12) * 1.2 - 0.1) * (hi - lo)
    if A.mode == INT_MODE:
        ints = np.concatenate([keys, keys + 1, keys - 1, A.keys[[0, -1]]]).astype(np.uint64)
        floats = np.concatenate([keys.astype(np.float64) + 0.5, spread, [hi + 0.5, 2.0**64]])
        return ints, floats
    near = np.nextafter(keys, np.where(rng.random(24) < 0.5, -np.inf, np.inf))
    floats = np.concatenate([keys, near, spread, A.keys[[0, -1]], [-np.inf, np.inf]])
    return None, floats


@hypothesis.settings(max_examples=25)
@given(heavy_tailed_keys(), st.sampled_from([0.1, 1.0, 2.0]), st.integers(0, 2**32))
def test_log_scale_cells_keep_every_lookup_exact(A, per_key, seed):
    rng = np.random.default_rng(seed)
    k = max(1, int(A.n * per_key))
    idx = build_espc(A, k)
    h = build_equal_probability(A, A.n // 2, A.n // 2)
    loaded = deserialize_index(serialize_index(idx))
    assert (loaded.shift, loaded.delta) == (idx.shift, idx.delta)
    for qs in _heavy_queries(A, rng):
        if qs is None:
            continue
        ranks, counts = evaluate_rank_many(idx, A, qs)
        scalar = [evaluate_rank(idx, A, q) for q in qs.tolist()]
        assert ranks.tolist() == [rank_bruteforce(A, q) for q in qs.tolist()]
        assert [tuple(out) for out in scalar] == list(zip(ranks.tolist(), counts.tolist()))
        assert [evaluate_rank(loaded, A, q) for q in qs.tolist()] == scalar
        assert [evaluate_rank_hier(h, A, q).rank for q in qs.tolist()] == ranks.tolist()
        values = qs.astype(np.float64)
        assert predict_many(idx, values).tobytes() == np.array(
            [predict(idx, q) for q in values.tolist()]).tobytes()


@hypothesis.settings(max_examples=25)
@given(heavy_tailed_keys(), st.booleans(), st.sampled_from([0.1, 1.0, 2.0]), st.integers(1, 64),
       st.integers(0, 2**32))
@example(_LOGNORMAL_KEYS, True, 1.0, 64, 0)  # cut on a log scale, with ties
def test_lookups_count_the_scalar_search_on_heavy_tails(A, ties, per_key, k_top, seed):
    if ties:  # every third key twice
        A = validate_key_array(np.concatenate([A.keys, A.keys[::3]]), A.mode)
    idx = build_espc(A, max(1, int(A.n * per_key)))
    hypothesis.event(f"log scale: {idx.shift is not None}")
    h = build_equal_probability(A, max(1, A.n // 8), k_top)
    queries = [q for qs in _heavy_queries(A, np.random.default_rng(seed)) if qs is not None
               for q in qs.tolist()]
    _composition_holds(A, idx, h, queries + A.keys[::97].tolist())


@hypothesis.settings(max_examples=25)
@given(heavy_tailed_keys(floor=2, top=SHIFT_FLOOR - 1), st.integers(1, 2000))
def test_arrays_below_the_floor_keep_equal_cells_in_x(A, k):
    idx = _buildable(build_espc, A, k)
    if idx is not None:
        assert idx.shift is None
        assert serialize_index(idx)[:5] == b"ESPC2"


@hypothesis.settings(max_examples=25)
@given(heavy_tailed_keys(), st.integers(1, 40))
def test_log_scale_bisection_counts_equal_one_pass(A, k):
    lo, hi = float(A.keys[0]), float(A.keys[-1])
    shift = build_espc(A, 1).shift
    hypothesis.assume(shift is not None)
    counts = _cell_counts(A.keys, lo, hi, k, shift)  # one pass below the switch
    step = _span(lo, hi, shift) / k
    bisected = np.diff(_cell_starts(A.keys, lo, step, k, shift), prepend=0, append=A.n)
    assert np.array_equal(counts, bisected)
