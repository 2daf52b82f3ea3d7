"""Equal-split piecewise-constant rank index.

The index splits the key range [x_min, x_max] into K equal-length
intervals and stores one half-integer rank estimate per interval.  A
lookup locates its interval with one division, reads the stored estimate,
and corrects it to the exact rank with an exponential search.  Build cost
is O(K + min(n, K log n)); lookup cost is O(log error).

The flat and two-layer indexes share one lookup path, :func:`_lookup`; they
differ only in how they predict the start of the search.  It works on plain
``(rank, comparisons)`` pairs, locates through :func:`_cell` and corrects
through :func:`espc.search._gallop`, so each public lookup builds exactly one
:class:`~espc.search.SearchOutcome`.
:func:`evaluate_rank_many` runs the flat lookup on many queries in lockstep.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass

import numpy as np

from .core import INT_MODE, KeyArray, int_key_queries, rank_bruteforce
from .errors import (
    IndexMismatch,
    InvalidIndexFile,
    InvalidK,
    InvalidParams,
    InvalidPolicyParams,
    OutOfRange,
)
from .search import SearchOutcome, _gallop, exponential_search_many

MAGIC = b"ESPC1"
SLOT_BYTES = 8
HEADER_BYTES = len(MAGIC) + 2 * 8 + 3 * 8  # magic, n, K, x_first, x_last, delta


@dataclass(frozen=True, eq=False)
class EspcIndex:
    """Built index: K intervals of length ``delta`` with rank estimates ``r``.

    ``r[k-1]`` is the midpoint of the rank range attainable inside
    interval k, i.e. (keys before interval k) + (keys inside interval k)/2.
    The array is non-decreasing, each entry a half-integer in [0, n].
    Instances are immutable and safe for concurrent lookups.
    """

    K: int
    delta: float
    x_first: float
    x_last: float
    n: int
    r: np.ndarray


def assign_intervals(values, lo: float, step: float, k: int) -> np.ndarray:
    """Interval numbers (1-based) for ``values`` under equal-length splits.

    Uses the clamped ceiling rule ``clip(ceil((v - lo)/step), 1, k)``: a value
    on an inner boundary is in the lower interval, and values far outside clamp
    to the end intervals.  Index cells, histogram bins and the kernel grid all
    decide membership by this formula, never by recomputing boundary positions,
    so every value maps to exactly one interval even under floating-point roundoff.
    """
    # One float buffer, updated in place; the outer asarray keeps 0-d input an array.
    with np.errstate(over="ignore"):  # clamped below
        raw = np.asarray(np.asarray(values, dtype=np.float64) - lo)
        raw /= step
    np.ceil(raw, out=raw)
    np.clip(raw, 1, k, out=raw)
    return raw.astype(np.int64)


def _cell_starts(keys: np.ndarray, lo: float, step: float, k: int) -> np.ndarray:
    """Position of the first of the sorted ``keys`` in or past each of cells 2, ..., k.

    All cells are bisected in lockstep over ceil(log2 n) rounds, each applying
    :func:`assign_intervals` to one probed key per cell, so the rule decides
    where a cell starts, not a computed boundary value.
    """
    cells = np.arange(2, k + 1)
    base = np.zeros(k - 1, dtype=np.int64)
    size = len(keys)
    while size > 1:  # each answer lies in [base, base + size]
        half = size // 2
        mid = base + half
        base = np.where(assign_intervals(keys[mid], lo, step, k) < cells, mid, base)
        size -= half
    return base + (assign_intervals(keys[base], lo, step, k) < cells)


def _cell_counts(keys: np.ndarray, lo: float, hi: float, k: int) -> tuple[np.ndarray, float]:
    """Counts of the sorted ``keys`` in ``k`` equal cells of [lo, hi], and the cell length.

    Each key is in the cell :func:`assign_intervals` gives it; cell starts are bisected
    for (:func:`_cell_starts`) where that is cheaper than one pass over every key.
    [lo, lo] is one cell of length 0.  Raises InvalidK as :func:`build_espc` does.
    """
    if not 1 <= k < 2**63:  # interval numbers are int64
        raise InvalidK(f"interval count must be in [1, 2^63), got {k}")
    n = len(keys)
    if lo == hi:
        return np.array([n]), 0.0
    step = (hi - lo) / k
    if not 0.0 < step < math.inf:
        raise InvalidK(f"{k} intervals over [{lo}, {hi}] have length {step}")
    try:
        # A bisection round costs about 1000 probes in numpy call overhead, and a probe
        # about what a key costs in the full pass (numpy 2, 2 vCPUs): bisect where that
        # comes to at most half the pass, so small arrays keep the pass.
        if 2 * n.bit_length() * (k + 1024) < n:
            return np.diff(_cell_starts(keys, lo, step, k), prepend=0, append=n), step
        return np.bincount(assign_intervals(keys, lo, step, k), minlength=k + 1)[1:], step
    except (MemoryError, ValueError, OverflowError) as exc:  # too many cells to allocate
        raise InvalidK(f"cannot allocate {k} interval slots") from exc


def build_espc(A: KeyArray, k: int) -> EspcIndex:
    """Build an index with ``k`` equal-length intervals over ``A``.

    When all keys are equal the range is degenerate and the index stores a
    single interval with estimate n/2.

    Memory: the key pass's temporaries (n-sized in :func:`assign_intervals`,
    or K-sized when cell starts are bisected), then the int64 counts, turned
    into running counts c in place, and one float64 slot array
    r_k = (c_{k-1} + c_k)/2, about 2 * 8K bytes at the peak for K >= n.

    Raises:
        InvalidK: k outside [1, 2^63), (x_last - x_first)/k is not a positive
            finite float, or k slots cannot be allocated.
    """
    x_first, x_last = float(A.keys[0]), float(A.keys[-1])
    counts, delta = _cell_counts(A.keys, x_first, x_last, k)
    c = np.add.accumulate(counts, out=counts)  # np.cumsum without its dispatch cost
    r = np.empty(len(c))  # sums of counts are exact integers below 2^53
    r[0] = c[0]
    np.add(c[:-1], c[1:], out=r[1:])
    r *= 0.5
    r.setflags(write=False)
    return EspcIndex(K=len(r), delta=delta, x_first=x_first, x_last=x_last, n=A.n, r=r)


def locate_interval(idx: EspcIndex, q) -> int:
    """Interval number (1-based) containing ``q``; constant time.

    Raises:
        OutOfRange: q outside [x_first, x_last], or NaN.
    """
    qf = float(q)
    if not idx.x_first <= qf <= idx.x_last:  # NaN fails this too
        raise OutOfRange(f"{q!r} outside [{idx.x_first}, {idx.x_last}]")
    return _cell(idx, qf)


def _cell(idx: EspcIndex, qf: float) -> int:
    """:func:`locate_interval` of a float ``qf`` already checked to be in [x_first, x_last]."""
    if idx.delta == 0.0:
        return 1
    k = math.ceil((qf - idx.x_first) / idx.delta)
    if k < 1:
        return 1
    if k > idx.K:
        return idx.K
    return k


def predict(idx: EspcIndex, q) -> float:
    """Piecewise-constant rank estimate for ``q``, in [0, n].

    Exact (0 or n) outside the key range; the stored interval estimate
    otherwise.  Non-decreasing in q.
    """
    qf = float(q)
    if qf < idx.x_first:
        return 0.0
    if qf > idx.x_last:
        return float(idx.n)
    return float(idx.r[locate_interval(idx, qf) - 1])


def predict_many(idx: EspcIndex, values) -> np.ndarray:
    """Vectorized :func:`predict` over an array of query values.

    Raises:
        OutOfRange: a value is NaN.
    """
    v = np.asarray(values, dtype=np.float64)
    if np.isnan(v).any():
        raise OutOfRange("NaN query has no rank")
    if idx.delta == 0.0:
        out = np.full(v.shape, idx.r[0])
    else:
        ks = assign_intervals(v, idx.x_first, idx.delta, idx.K)
        out = np.asarray(idx.r[ks - 1])  # a 0-d index gives a scalar
    out[v < idx.x_first] = 0.0
    out[v > idx.x_last] = float(idx.n)
    return out


def evaluate_rank(idx: EspcIndex, A: KeyArray, q) -> SearchOutcome:
    """Exact rank of ``q`` via predict-then-correct.

    Checks the range endpoints, reads the interval estimate, and runs an
    exponential search from ceil(estimate).  Comparison count includes the
    endpoint checks and the corrective search.

    Raises:
        IndexMismatch: index was built over an array of other length or key range.
        OutOfRange: q is NaN.
        StartOutOfRange: a slot outside [0, n], which only a hand-built index holds.
    """
    return tuple.__new__(SearchOutcome, _lookup(idx, A, q, idx.x_first, idx.x_last, _flat_start))


def _flat_start(idx: EspcIndex, q) -> tuple[int, int]:
    return math.ceil(idx.r.item(_cell(idx, float(q)) - 1)), 0


def _lookup(index, A: KeyArray, q, x_first: float, x_last: float | None, start_of):
    """Predict-then-correct body shared by both index types, as a ``(rank, comparisons)`` pair.

    ``start_of(index, q)`` returns the start and the comparisons it cost; it
    sees only queries inside the keys, so it need not check the range.
    ``x_first``/``x_last`` are the built key range as floats (None: unchecked).
    Raises what :func:`evaluate_rank` raises.
    """
    if isinstance(q, np.floating):
        q = float(q)  # a Python int key compares with np.float64 in float64, not exactly
    n, lo, hi = _built_over(index, A, x_first, x_last)
    if not lo <= q <= hi:
        if q < lo:
            return 0, 1
        if q > hi:
            return n, 2
        raise OutOfRange("NaN query has no rank")  # NaN compares false both ways
    start, cost = start_of(index, q)
    return _gallop(A._view, start, q, 2 + cost)


def _built_over(index, A: KeyArray, x_first: float, x_last: float | None):
    keys = A._view
    n, lo, hi = len(keys), keys[0], keys[-1]
    if index.n != n:
        raise IndexMismatch(f"index holds n={index.n}, array has n={n}")
    if float(lo) != x_first or (x_last is not None and float(hi) != x_last):
        raise IndexMismatch(f"array keys [{lo}, {hi}] are not the keys the index was built over")
    return n, lo, hi


def evaluate_rank_many(idx: EspcIndex, A: KeyArray, qs) -> tuple[np.ndarray, np.ndarray]:
    """:func:`evaluate_rank` of many queries at once, with the same ranks and counts.

    The result equals :func:`evaluate_rank` on each element of
    ``np.asarray(qs)``.  Queries below the keys cost 1 comparison and those
    above cost 2; the others start at ceil(estimate) of their interval and
    run :func:`espc.search.exponential_search_many`.  On integer keys,
    queries follow the oracle's rule (:func:`espc.core.int_key_queries`).

    Returns:
        (ranks, comparisons): two int64 arrays, one entry per query.

    Raises:
        IndexMismatch: index was built over an array of other length or key range.
        OutOfRange: a query is NaN.
        InvalidParams: the queries are not a 1-D numeric array, or are a list
            that numpy makes float64 though an integer in it is not a float64.
    """
    n, lo, hi = _built_over(idx, A, idx.x_first, idx.x_last)
    raw = np.asarray(qs)
    if raw.ndim != 1 or raw.dtype.kind not in "biuf":  # "O": Python ints beyond 64 bits
        raise InvalidParams(f"queries must be a 1-D numeric array, got {raw.ndim}-D {raw.dtype}")
    if raw.dtype.kind == "f" and isinstance(qs, (list, tuple)):  # numpy rounds [-1, 2**63 + 5]
        if any(isinstance(q, (int, np.integer)) and float(q) != int(q) for q in qs):
            raise InvalidParams("queries hold integers that float64 cannot represent exactly")
    if raw.dtype.kind == "f" and np.isnan(raw).any():
        raise OutOfRange("NaN query has no rank")
    if A.mode == INT_MODE:
        q, below, inexact = int_key_queries(raw)
        under = below | (q < lo)
        over = ~under & ((q > hi) | ((q == hi) & inexact))  # hi + 0.5 floors to hi
    else:
        q = raw.astype(np.float64, copy=False)
        under, over = q < lo, q > hi
    ranks = np.where(over, n, 0)
    comparisons = np.where(under, 1, 2)
    inside = np.flatnonzero(~(under | over))
    if inside.size:  # locate with the query's own value, as the scalar lookup does
        found, cost = exponential_search_many(A, np.ceil(predict_many(idx, raw[inside])), q[inside])
        ranks[inside] = found
        comparisons[inside] += cost
    return ranks, comparisons


def approximation_error(idx: EspcIndex, A: KeyArray, q) -> float:
    """Absolute prediction error |rank(q) - estimate(q)|.

    Zero outside the key range; at most (keys in q's interval)/2 inside.
    """
    return abs(rank_bruteforce(A, q) - predict(idx, q))


# --- sizing policies -------------------------------------------------------

LINEAR = "linear"
SUBLINEAR = "sublinear"
CHEBYSHEV = "chebyshev"
SUBEXPONENTIAL = "subexponential"

POLICY_KINDS = (LINEAR, SUBLINEAR, CHEBYSHEV, SUBEXPONENTIAL)


@dataclass(frozen=True)
class SizingPolicy:
    """Rule for picking the interval count K from the key count n.

    ``linear`` (K = n) buys constant expected lookup cost for densities
    with bounded support; ``sublinear`` (K = n/log2 n) trades down to
    log-log cost.  ``chebyshev`` (K = n*sqrt(n ln n), needs finite
    mean/variance) and ``subexponential`` (K = n ln n, needs exponential
    tails) cover unbounded supports by oversizing the index.
    """

    kind: str

    def __post_init__(self):
        if self.kind not in POLICY_KINDS:
            raise InvalidPolicyParams(f"unknown sizing policy {self.kind!r}")


def choose_k(policy: SizingPolicy, n: int) -> int:
    """Interval count prescribed by ``policy`` for an n-key array.

    Raises:
        InvalidPolicyParams: n < 2.
    """
    if n < 2:
        raise InvalidPolicyParams(f"sizing needs n >= 2, got {n}")
    if policy.kind == LINEAR:
        return n
    if policy.kind == SUBLINEAR:
        return max(1, math.ceil(n / math.log2(n)))
    if policy.kind == CHEBYSHEV:
        return max(1, math.ceil(n * math.sqrt(n * math.log(n))))
    return max(1, math.ceil(n * math.log(n)))


# --- two-layer equal-probability variant -----------------------------------


@dataclass(frozen=True, eq=False)
class HierIndex:
    """Two-layer index: quantile bucket boundaries plus a top-level index.

    The bottom layer cuts the array into ``K`` buckets of (approximately)
    equal occupancy at empirical quantiles; the top layer is an
    equal-split index over the bucket boundaries and resolves which bucket
    a query falls in.  Bucket rank estimates are implicit (bucket k is
    centred at (k - 1/2) * n / K), so only the boundaries and the top
    index occupy space.
    """

    boundaries: KeyArray
    top: EspcIndex
    n: int

    @property
    def K(self) -> int:
        return self.boundaries.n


def build_equal_probability(A: KeyArray, k: int, k_top: int) -> HierIndex:
    """Build the two-layer variant with ``k`` buckets and ``k_top`` top intervals.

    Bucket boundaries are the empirical quantiles keys[ceil(i*n/k)],
    i = 0..k-1, so the first boundary is the minimum key.

    Raises:
        InvalidK: k outside [1, n], or k_top refused by :func:`build_espc`.
    """
    n = A.n
    if not 1 <= k <= n:
        raise InvalidK(f"bucket count must be in [1, {n}], got {k}")
    positions = np.minimum(np.ceil(np.arange(k) * n / k).astype(np.int64), n - 1)
    boundary_keys = A.keys[positions]  # a fancy index returns a fresh array
    boundary_keys.setflags(write=False)
    boundaries = KeyArray(keys=boundary_keys, mode=A.mode)
    top = build_espc(boundaries, k_top)
    return HierIndex(boundaries=boundaries, top=top, n=n)


def evaluate_rank_hier(h: HierIndex, A: KeyArray, q) -> SearchOutcome:
    """Exact rank of ``q`` through both layers of the two-layer index.

    The top index finds the bucket (the exact rank of q among the
    boundaries), the bucket centre seeds an exponential search over the
    full array, and the reported comparisons are the sum of both layers.

    Raises:
        IndexMismatch: index was built over an array of other length or first key.
        OutOfRange: q is NaN.
    """
    return tuple.__new__(SearchOutcome, _lookup(h, A, q, h.top.x_first, None, _hier_start))


def _hier_start(h: HierIndex, q) -> tuple[int, int]:
    top = h.top
    bucket, comparisons = _lookup(top, h.boundaries, q, top.x_first, top.x_last, _flat_start)
    # bucket >= 1 because boundaries[0] == x_min <= q.
    return min(math.ceil((bucket - 0.5) * h.n / h.K), h.n), comparisons


# --- serialization ----------------------------------------------------------


def serialize_index(idx: EspcIndex) -> bytes:
    """Little-endian blob: magic, n, K (u64), x_first, x_last, delta, then r.

    The layout is fixed at HEADER_BYTES + SLOT_BYTES * K bytes and
    round-trips bit-exactly through :func:`deserialize_index`.
    """
    header = MAGIC + struct.pack("<QQ", idx.n, idx.K)
    header += struct.pack("<ddd", idx.x_first, idx.x_last, idx.delta)
    return header + np.ascontiguousarray(idx.r, dtype="<f8").tobytes()


def deserialize_index(blob: bytes) -> EspcIndex:
    """Inverse of :func:`serialize_index`.

    Raises:
        InvalidIndexFile: bad magic, length inconsistent with K, or a header
            or slot that :func:`build_espc` cannot produce.
    """
    if len(blob) < HEADER_BYTES or blob[: len(MAGIC)] != MAGIC:
        raise InvalidIndexFile("not a serialized index (bad magic)")
    n, k = struct.unpack_from("<QQ", blob, len(MAGIC))
    x_first, x_last, delta = struct.unpack_from("<ddd", blob, len(MAGIC) + 16)
    if len(blob) != HEADER_BYTES + SLOT_BYTES * k:
        raise InvalidIndexFile(
            f"expected {HEADER_BYTES + SLOT_BYTES * k} bytes for K={k}, got {len(blob)}"
        )
    if not (k >= 1 and n >= 1 and -math.inf < x_first <= x_last < math.inf):
        raise InvalidIndexFile(f"bad header: n={n}, K={k}, range [{x_first}, {x_last}]")
    if not (delta == (x_last - x_first) / k < math.inf and (delta > 0.0 or k == 1)):
        raise InvalidIndexFile(f"interval length {delta} does not split the range into K={k}")
    r = np.frombuffer(blob, dtype="<f8", count=k, offset=HEADER_BYTES).copy()
    # Non-decreasing from r[0] >= 0 up to r[-1] <= n also rules out NaN and infinities.
    if not (r[0] >= 0.0 and r[-1] <= n and np.all(r[:-1] <= r[1:])):
        raise InvalidIndexFile(f"slots are not non-decreasing within [0, {n}]")
    r.setflags(write=False)
    return EspcIndex(K=int(k), delta=delta, x_first=x_first, x_last=x_last, n=int(n), r=r)


def save_index(idx: EspcIndex, path) -> None:
    with open(path, "wb") as fh:
        fh.write(serialize_index(idx))


def load_index(path) -> EspcIndex:
    with open(path, "rb") as fh:
        return deserialize_index(fh.read())
