"""Equal-split piecewise-constant rank index.

The index splits the key range [x_min, x_max] into K intervals of equal
length in g(x), and stores one half-integer rank estimate per interval,
doubled into a uint32 slot.  g is the identity x - x_min, or, where a
sample of the keys shows it spreads them much more evenly, a log-like
transform (:func:`_choose_shift`).  A lookup locates its interval with one
division, reads the stored estimate, and corrects it to the exact rank with
an exponential search over the keys themselves, so ranks are exact whatever
g is.  A build predicts each cell's start with one binary search of its lower edge
and proves it with the cell rule at the two keys around it, O(K log n), where that is
cheaper than one O(n + K) pass over every key; where most cells are empty, only the
stretches of 64 keys that cross a cell edge go through the rule key by key.  Lookup cost
is O(log error + log(n/K)), as the search doubles from a first step of about n/(2K),
which is 1 at K = n, where the cost is O(log error) and O(1) expected.

Every scalar lookup checks the index and q against the keys' record
(``KeyArray._probe``), then runs :func:`_lookup` on the record the index derives from
its fields: it locates the cell, reads the slot and corrects through
:func:`espc.search._gallop`, doubling from the record's first step.  Each structure
makes its record when it is made.
The two-layer lookup runs it on its top layer, whose bucket number fixes the rank to
a range of at most ceil(n/K) - 1 unknown keys, and bisects one perfect bracket that
covers that range.  Each builds one :class:`~espc.search.SearchOutcome`.
:func:`evaluate_rank_many` runs the flat lookup on many queries in lockstep.
"""

from __future__ import annotations

import math
import struct
from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from .core import KeyArray, _instance, _integer, _query, _real, key_queries
from .errors import (
    IndexMismatch,
    InvalidIndexFile,
    InvalidK,
    InvalidParams,
    InvalidPolicyParams,
    OutOfRange,
    StartOutOfRange,
)
from .search import SearchOutcome, _bisect, _gallop, _gallop_many

MAGIC = b"ESPC2"
SLOT_BYTES = 4
_HEADER = struct.Struct("<QQddd")  # after the magic: n, K, x_first, x_last, delta
HEADER_BYTES = len(MAGIC) + _HEADER.size
MAGIC_SHIFTED = b"ESPC3"  # the same layout, with the shift s of g where ESPC2 has delta
MAX_KEYS = 2**31 - 1  # the most keys n for which every slot, up to 2n, fits a uint32
CELL_LIMIT = 2**26  # cells any key count may ask for: 768 MiB at a build's 12 bytes a cell
SHIFT_FLOOR = 8192  # fewest keys for which build_espc considers cutting on a log scale
_SHIFT_FRACTIONS = (1e-9, 1e-6, 1e-3)  # candidate shifts s = x_first - c * (x_last - x_first)
_STRETCH = 64  # keys a count takes as one stretch where the cell rule is the same at both ends
_STRETCH_FLOOR = 2**15  # fewest keys for which a count probes whether stretches pay
_PROBES = 32  # stretches, spread over the keys, that the probe puts through the cell rule
_pack_f64 = struct.Struct("<d").pack
_unpack_i64 = struct.Struct("<q").unpack


def _bits(x: float) -> int:
    """β(x): the IEEE-754 bits of the float64 ``x`` read as an int64.

    For x > 0 this is increasing and piecewise linear in x, a scaled log2 of x
    plus a constant; numpy reads the same value through an int64 view (:func:`_scaled`).
    """
    return _unpack_i64(_pack_f64(x))[0]


def _span(lo: float, hi: float, shift: float | None) -> float:
    """g(hi) for g(x) = x - lo (``shift`` None) or β(x - shift) - β(lo - shift)."""
    if shift is None:
        return hi - lo
    return float(_bits(hi - shift) - _bits(lo - shift))


def _shift_ok(lo: float, hi: float, shift: float) -> bool:
    """Whether g with this shift is defined and increasing on [lo, hi]."""
    return -math.inf < shift < lo and hi - shift < math.inf and _span(lo, hi, shift) > 0.0


@dataclass(frozen=True, eq=False)
class EspcIndex:
    """Built index: K intervals of length ``delta`` in g with doubled rank estimates ``t``.

    ``t[k-1] = c_{k-1} + c_k``, where c_k counts the keys in intervals 1..k:
    twice the midpoint of the rank range attainable inside interval k.  The
    array is uint32, non-decreasing, each entry an integer in [0, 2n].
    A value x lies in interval ``clip(ceil(g(x)/delta), 1, K)``, where g is
    ``x - x_first`` when ``shift`` is None, and otherwise
    ``float(β(x - shift) - β(x_first - shift))`` (:func:`_bits`), a log-like
    scale.  ``K = len(t)`` and ``delta = g(x_last)/K`` are derived, not fields; a ``t``
    that is not a 1-D uint32 array, an ``n`` not an integer in [1, MAX_KEYS], an
    ``x_first`` or ``x_last`` not a finite real number, a ``shift`` not a real number
    in (-inf, x_first) on which g is defined and increasing up to x_last
    (:func:`_shift_ok`), or a ``delta`` neither positive and finite nor 0 in one cell
    over one point raises InvalidParams, an empty ``t`` InvalidK: the headers the loader
    refuses.  Instances are immutable and safe for concurrent lookups.  They pickle and
    deep-copy as their fields, and the copy derives its record again.
    """

    x_first: float
    x_last: float
    n: int
    t: np.ndarray
    shift: float | None = None

    def __post_init__(self):
        # Derived so not fields: K, delta, and the record _lookup reads, (slots, K, x_first,
        # delta, shift, base, first), slots[k] == t.item(k), base = β(x_first - shift), a
        # single point's delta read as inf, and first the gallop's first step: the largest
        # power of two <= n // (2K), a typical distance from a cell's middle to its keys'
        # ranks, or 1 below 2.  Set here, not by a cached_property, whose write to
        # __dict__ would make every attribute read of the index about three times slower.
        t = self.t
        if not (isinstance(t, np.ndarray) and t.ndim == 1 and t.dtype == np.uint32):
            got = f"{t.ndim}-D {t.dtype}" if isinstance(t, np.ndarray) else type(t).__name__
            raise InvalidParams(f"slots t must be a 1-D uint32 array, got {got}")
        _integer(self.n, 1, MAX_KEYS, InvalidParams, "key count n")
        _real(self.x_first, -math.inf, math.inf, InvalidParams, "x_first")
        _real(self.x_last, -math.inf, math.inf, InvalidParams, "x_last")
        if self.shift is not None:
            _real(self.shift, -math.inf, self.x_first, InvalidParams, "shift")
            if not _shift_ok(self.x_first, self.x_last, self.shift):
                raise InvalidParams(f"shift {self.shift!r} leaves g undefined or not increasing "
                                    f"on [{self.x_first!r}, {self.x_last!r}]")
        k = _integer(len(t), 1, math.inf, InvalidK, "interval count len(t)")
        delta = _span(self.x_first, self.x_last, self.shift) / k  # as _cell_counts divides
        if not (0.0 < delta < math.inf or delta == 0.0 and k == 1):  # a reversed range is < 0
            raise InvalidParams(f"interval length {delta} does not split "
                                f"[{self.x_first!r}, {self.x_last!r}] into K={k}")
        base = None if self.shift is None else _bits(self.x_first - self.shift)
        slots = memoryview(t).toreadonly()
        object.__setattr__(self, "K", k)
        object.__setattr__(self, "delta", delta)
        first = 1 << (max(self.n // (2 * k), 1).bit_length() - 1)
        object.__setattr__(self, "_record", (slots, k, self.x_first, delta or math.inf,
                                             self.shift, base, first))

    def __reduce__(self):
        return EspcIndex, (self.x_first, self.x_last, self.n, self.t, self.shift)

    @property
    def r(self) -> np.ndarray:
        """The rank estimates t/2: half-integers in [0, n], as a new read-only float64 array.

        Computed on each access and never kept, so the index holds 4 bytes per interval.
        """
        r = self.t.astype(np.float64)
        r *= 0.5
        r.setflags(write=False)
        return r


def assign_intervals(values, lo: float, step: float, k: int, shift=None) -> np.ndarray:
    """Interval numbers (1-based) for ``values`` under equal-length splits.

    Uses the clamped ceiling rule ``clip(ceil(g(v)/step), 1, k)``: a value
    on an inner boundary is in the lower interval, and values far outside clamp
    to the end intervals.  g(v) is v - lo, or with a ``shift`` (which takes values
    at or above lo only) the log-like β(v - shift) - β(lo - shift) of :func:`_span`.
    Index cells, histogram bins and the kernel grid all decide membership by this
    formula, never by recomputing boundary positions, so every value maps to
    exactly one interval even under floating-point roundoff.
    """
    with np.errstate(over="ignore"):  # clamped below
        raw = _scaled(values, lo, step, shift)
    np.ceil(raw, out=raw)
    raw.clip(1, k, out=raw)  # one fused pass; the method skips np.clip's dispatch
    return raw.astype(np.int64)


def _scaled(values, lo: float, step: float, shift: float | None) -> np.ndarray:
    """g(v)/step for the float64 ``values``, as a new float64 array; 0-d input stays an array.

    g(v) is v - lo, or with a ``shift`` β(v - shift) - β(lo - shift), exact in int64 and
    divided as Python divides an int by a float.  No other numpy code computes g.
    """
    y = np.asarray(np.asarray(values, dtype=np.float64) - (lo if shift is None else shift))
    if shift is None:
        y /= step
    else:
        np.divide(y.view(np.int64) - _bits(lo - shift), step, out=y)
    return y


def _lookup(record: tuple, keys, q, comparisons: int):
    """:func:`espc.search._gallop` over the probe view ``keys`` from ceil(t/2), t the slot
    of the cell of ``q``, a Python scalar in [x_first, x_last], doubling from the record's
    first step; given no ``keys``, the cell.

    The cell is :func:`assign_intervals`' rule, with g's float rounded as numpy rounds it.
    """
    slots, last, x_first, delta, shift, base, first = record
    if shift is None:
        k = math.ceil((q - x_first) / delta)
    else:  # int / float divides float(int), correctly rounded as numpy's cast is
        k = math.ceil((_unpack_i64(_pack_f64(q - shift))[0] - base) / delta)
    if k < 1:
        k = 1
    elif k > last:
        k = last
    if keys is None:
        return k
    t = slots[k - 1]
    return _gallop(keys, t - (t >> 1), q, comparisons, first)  # ceil(t/2), faster than (t+1)>>1


def _cell_starts(keys: np.ndarray, lo: float, step: float, k: int, shift=None) -> np.ndarray:
    """Position of the first of the sorted ``keys`` in or past each of cells 2, ..., k.

    Predict, then prove.  One ``np.searchsorted`` of each cell's lower edge in x guesses
    its start, about log2 n probes a cell, and :func:`_proved_starts` proves each guess
    with :func:`assign_intervals` or replaces it, so the rule decides every start, not
    the computed edge.
    """
    with np.errstate(all="ignore"):  # an edge past float64 or the keys' dtype is only a bad guess
        edges = np.arange(1, k, dtype=np.float64)
        edges *= step
        if shift is None:
            edges += lo
        else:  # β(x - shift) = β(lo - shift) + (j - 1) * step at the lower edge of cell j
            raw = np.floor(edges).astype(np.int64)
            raw += _bits(lo - shift)
            edges = raw.view(np.float64) + shift
        if keys.dtype != edges.dtype:  # else numpy compares in float64, converting every key
            edges = edges.astype(keys.dtype)
    return _proved_starts(keys, np.searchsorted(keys, edges, side="right"), lo, step, k, shift)


def _proved_starts(keys: np.ndarray, starts: np.ndarray, lo: float, step: float, k: int,
                   shift=None) -> np.ndarray:
    """The guessed ``starts`` of cells 2, ..., k, each proved or replaced, in place.

    s is the start of cell j exactly when the key before s lies in a cell below j and the
    key at s in j or past it (no key, at s = 0 or n), as the rule is non-decreasing over
    sorted keys; so only the right guess is proved.  The cells whose guess fails are
    bisected (:func:`_bisect_starts`).
    """
    n = len(keys)
    cells = np.arange(2, k + 1)
    before = assign_intervals(keys[starts - 1], lo, step, k, shift)  # keys[-1] where s = 0
    at = assign_intervals(keys[starts.clip(max=n - 1)], lo, step, k, shift)
    wrong = np.flatnonzero((before >= cells) & (starts > 0) | (at < cells) & (starts < n))
    if wrong.size:
        starts[wrong] = _bisect_starts(keys, cells[wrong], lo, step, k, shift)
    return starts


def _bisect_starts(keys: np.ndarray, cells: np.ndarray, lo: float, step: float, k: int,
                   shift=None) -> np.ndarray:
    """The starts of the given ``cells``, bisected blind over every key.

    All cells are bisected in lockstep over ceil(log2 n) rounds, each applying
    :func:`assign_intervals` to one probed key per cell.
    """
    base = np.zeros(len(cells), dtype=np.int64)
    size = len(keys)
    while size > 1:  # each answer lies in [base, base + size]
        half = size // 2
        mid = base + half
        base = np.where(assign_intervals(keys[mid], lo, step, k, shift) < cells, mid, base)
        size -= half
    return base + (assign_intervals(keys[base], lo, step, k, shift) < cells)


def _cell_counts(
    keys: np.ndarray, lo: float, hi: float, k: int, shift: float | None = None
) -> np.ndarray:
    """Counts of the sorted ``keys`` in ``k`` cells of [lo, hi] equal in g.

    Each key is in the cell :func:`assign_intervals` gives it, counted in one of three
    ways, all bit for bit the same.  Cell starts are guessed and proved
    (:func:`_cell_starts`) where that is cheaper than one pass over every key.  Otherwise,
    for K < n and from :data:`_STRETCH_FLOOR` keys, a probe of :data:`_PROBES` stretches of
    :data:`_STRETCH` keys (:func:`_few_edges`) decides whether the keys are counted a
    stretch at a time (:func:`_stretch_counts`), as where most cells are empty, or each
    put through the rule and one ``bincount``, as on evenly spread keys.  K >= n, as in a
    K = n build, always makes that pass, and pays no probe: a cell holds a key or less on
    average, so stretches lying in one cell need the keys to pile up.
    [lo, lo] is one cell of length 0.  Raises InvalidK as :func:`build_espc` does, so
    for more than max(:data:`CELL_LIMIT`, n) cells before allocating any.
    """
    n = len(keys)
    k = _integer(k, 1, max(CELL_LIMIT, n), InvalidK, "interval count")  # K = n always fits
    if lo == hi:
        return np.array([n])
    step = _span(lo, hi, shift) / k
    if not 0.0 < step < math.inf:
        raise InvalidK(f"{k} intervals over [{lo}, {hi}] have length {step}")
    try:
        # Guessing and proving the starts costs about log2 n probes a cell, each at most
        # about 2/3 of what a key costs in the pass over every key, and a fixed 30-40 us
        # for the calls, counted as 1024 cells more (numpy 2, 2 vCPUs).  Guess where that
        # comes to less than the pass, so K near n and arrays below about 10^4 keys pass.
        if 2 * n.bit_length() * (k + 1024) < 3 * n:
            return np.diff(_cell_starts(keys, lo, step, k, shift), prepend=0, append=n)
        if n >= _STRETCH_FLOOR and k < n and _few_edges(keys, lo, step, k, shift):
            return _stretch_counts(keys, lo, step, k, shift)
        return np.bincount(assign_intervals(keys, lo, step, k, shift), minlength=k + 1)[1:]
    except (MemoryError, ValueError, OverflowError) as exc:  # too many cells to allocate
        raise InvalidK(f"cannot allocate {k} interval slots") from exc


def _few_edges(keys: np.ndarray, lo: float, step: float, k: int, shift=None) -> bool:
    """Whether at most half of :data:`_PROBES` stretches spread over the sorted ``keys``
    cross a cell edge, read with the scalar rule of :func:`_lookup` and no array.

    Then :func:`_stretch_counts` beats one pass over every key: on 10^6 uniform keys
    (numpy 2, 2 vCPUs) it costs 0.5 of the pass where half the stretches cross an edge,
    and 1.4 where all do, as at K = n.
    """
    record = (None, k, lo, step, shift, None if shift is None else _bits(lo - shift), None)
    gap = (len(keys) - 1) // (_STRETCH * _PROBES) * _STRETCH
    crossing = sum(_lookup(record, None, keys.item(i), 0)
                   != _lookup(record, None, keys.item(i + _STRETCH), 0)
                   for i in range(0, _PROBES * gap, gap))
    return 2 * crossing <= _PROBES


def _stretch_counts(keys: np.ndarray, lo: float, step: float, k: int,
                    shift=None) -> np.ndarray:
    """:func:`_cell_counts` of the sorted ``keys``, a stretch of :data:`_STRETCH` at a time.

    The rule is non-decreasing over sorted keys, so a stretch whose first key and the
    next stretch's first key share a cell lies in it whole.  Only the other stretches,
    and the 1 to 64 keys after the last sampled one, go through the rule key by key;
    the counts are the one K-sized array.
    """
    whole = (len(keys) - 1) // _STRETCH * _STRETCH  # keys in stretches with a sampled successor
    firsts = assign_intervals(keys[:whole + 1:_STRETCH], lo, step, k, shift)
    same = firsts[:-1] == firsts[1:]
    crossing = keys[:whole].reshape(-1, _STRETCH)[~same]
    counts = np.bincount(assign_intervals(crossing, lo, step, k, shift).ravel(),
                         minlength=k + 1)
    np.add.at(counts, firsts[:-1][same], _STRETCH)
    np.add.at(counts, assign_intervals(keys[whole:], lo, step, k, shift), 1)
    return counts[1:]


def _choose_shift(keys: np.ndarray, lo: float, hi: float) -> float | None:
    """The shift of g that cuts ``keys`` into the most even cells, or None for the identity.

    Arrays of fewer than :data:`SHIFT_FLOOR` keys keep the identity.  Otherwise the
    sample ``keys[::n // 4096]`` of m keys is counted into m cells equal in g, for
    the identity and for each shift ``lo - c * (hi - lo)`` with c in
    :data:`_SHIFT_FRACTIONS`, and scored by its collisions Σ n_k (n_k - 1).  A shift
    is taken only if its score is at most half the identity's.
    """
    n = len(keys)
    if n < SHIFT_FLOOR:
        return None
    sample = keys[:: n // 4096]
    m = len(sample)
    if not 0.0 < (hi - lo) / m < math.inf:  # no m cells to count the sample in
        return None

    def collisions(shift):
        counts = _cell_counts(sample, lo, hi, m, shift)
        return int(np.dot(counts, counts - 1))

    shifts = (lo - c * (hi - lo) for c in _SHIFT_FRACTIONS)
    scores = {shift: collisions(shift) for shift in shifts if _shift_ok(lo, hi, shift)}
    best = min(scores, key=scores.get, default=None)  # the first of equal scores
    if best is None or 2 * scores[best] > collisions(None):
        return None
    return best


def build_espc(A: KeyArray, k: int) -> EspcIndex:
    """Build an index with ``k`` intervals over ``A``, equal in length in g.

    g is the identity or a log-like scale, as :func:`_choose_shift` picks for the keys.
    When all keys are equal the range is degenerate and the index stores a
    single interval with estimate n/2.

    Memory: the counting step's temporaries (n-sized in :func:`assign_intervals`
    over every key, n/64-sized plus 24 bytes a key of each stretch that crosses a cell
    edge where the keys are counted a stretch at a time, or K-sized where cell starts
    are predicted; see :func:`_cell_counts`), then the int64 counts, turned into
    running counts c in place, and one uint32 slot array t_k = c_{k-1} + c_k, about
    (8 + 4)K bytes at the peak for K far above n.

    Raises:
        InvalidParams: more than :data:`MAX_KEYS` keys.
        InvalidK: k outside [1, max(CELL_LIMIT, n)], (x_last - x_first)/k is not
            a positive finite float, or k slots cannot be allocated.
    """
    return _build(A, k, _choose_shift(A.keys, float(A.keys[0]), float(A.keys[-1])))


def _build(A: KeyArray, k: int, shift: float | None) -> EspcIndex:
    """:func:`build_espc` on the scale of g's ``shift``, as :func:`_choose_shift` chose it for ``A``.

    A caller that builds many K over the same keys chooses the scale once.
    """
    _integer(A.n, 1, MAX_KEYS, InvalidParams, "key count n")
    x_first, x_last = float(A.keys[0]), float(A.keys[-1])
    counts = _cell_counts(A.keys, x_first, x_last, k, shift)
    c = np.add.accumulate(counts, out=counts)  # np.cumsum without its dispatch cost
    t = np.empty(len(c), dtype=np.uint32)
    t[0] = c[0]
    np.add(c[:-1], c[1:], out=t[1:], casting="unsafe")  # at most 2n, which fits
    t.setflags(write=False)
    return EspcIndex(x_first=x_first, x_last=x_last, n=A.n, t=t, shift=shift)


def locate_interval(idx: EspcIndex, q) -> int:
    """Interval number (1-based) containing ``q``; constant time.

    Raises:
        OutOfRange: q outside [x_first, x_last], or NaN.
    """
    qf = _query(q)
    if not idx.x_first <= qf <= idx.x_last:  # NaN fails this too
        raise OutOfRange(f"{q!r} outside [{idx.x_first}, {idx.x_last}]")
    return _lookup(idx._record, None, qf, 0)


def predict(idx: EspcIndex, q) -> float:
    """Piecewise-constant rank estimate for ``q``, in [0, n].

    Exact (0 or n) outside the key range; the stored interval estimate
    otherwise.  Non-decreasing in q.
    """
    qf = _query(q)
    if qf < idx.x_first:
        return 0.0
    if qf > idx.x_last:
        return float(idx.n)
    return idx._record[0][locate_interval(idx, qf) - 1] / 2


def predict_many(idx: EspcIndex, values) -> np.ndarray:
    """Vectorized :func:`predict` over an array of query values.

    The slot read is ``ceil(g(v)/delta - 1)`` clipped to [0, K - 1]: :func:`assign_intervals`'
    rule, as the subtraction is exact for g(v)/delta in [1, 2^53] and below 1 both are at
    most 0.  Values outside the keys, if any, are clamped first, then set to 0 or n.

    Raises:
        OutOfRange: a value is NaN.
        InvalidParams: a value that numpy cannot hold as a float64, such as ``10**400``.
    """
    try:
        v = np.asarray(values, dtype=np.float64)
    except (OverflowError, ValueError, TypeError) as exc:
        raise InvalidParams(f"queries are not float64 values: {exc}") from exc
    if not v.size:
        return np.empty(v.shape)
    # The ufuncs, not v.min() and v.max(), whose Python wrappers cost about 1 us a call.
    lo, hi = np.minimum.reduce(v, axis=None), np.maximum.reduce(v, axis=None)
    if not lo <= hi:  # NaN propagates through both
        raise OutOfRange("NaN query has no rank")
    _, _, x_first, delta, shift, _, _ = idx._record  # one point's delta is inf: every y is -1
    outside = lo < x_first or hi > idx.x_last
    y = _scaled(v.clip(x_first, idx.x_last) if outside else v, x_first, delta, shift)
    y -= 1.0
    np.ceil(y, out=y)
    out = np.multiply(idx.t.take(y.astype(np.intp), mode="clip"), 0.5, out=y)
    if lo < x_first:
        out[v < x_first] = 0.0
    if hi > idx.x_last:
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
    keys, n, lo, hi, lo_f, hi_f = A._probe
    if type(q) is not float:
        q = _query(q, lo)
    if idx.n != n or idx.x_first != lo_f or idx.x_last != hi_f:
        raise _mismatch(idx.n, A)
    if not lo <= q <= hi:
        return _outside(q, lo, n)
    return tuple.__new__(SearchOutcome, _lookup(idx._record, keys, q, 2))


def _outside(q, lo, n: int) -> SearchOutcome:
    """The outcome of a query outside the keys [lo, hi]: rank 0 after 1 comparison below
    them, n after 2 above them; a NaN, which compares false both ways, raises OutOfRange."""
    if q < lo:
        return tuple.__new__(SearchOutcome, (0, 1))
    if q > lo:  # so above hi, as q is outside
        return tuple.__new__(SearchOutcome, (n, 2))
    raise OutOfRange("NaN query has no rank")


def _mismatch(built_n: int, A: KeyArray) -> IndexMismatch:
    _, n, lo, hi, _, _ = A._probe
    return IndexMismatch(f"index holds n={built_n}, not these n={n} keys in [{lo}, {hi}]")


def evaluate_rank_many(idx: EspcIndex, A: KeyArray, qs) -> tuple[np.ndarray, np.ndarray]:
    """:func:`evaluate_rank` of many queries at once, with the same ranks and counts.

    The result equals :func:`evaluate_rank` on each element of
    ``np.asarray(qs)``.  Queries below the keys cost 1 comparison and those
    above cost 2; the others start at ceil(estimate) of their interval and
    gallop in lockstep from the index's first step (:func:`espc.search._gallop_many`).
    Queries meet the keys as :func:`espc.core.key_queries` reads them.

    Returns:
        (ranks, comparisons): two int64 arrays, one entry per query.

    Raises:
        IndexMismatch: index was built over an array of other length or key range.
        OutOfRange: a query is NaN.
        InvalidParams: as :func:`espc.core.key_queries`.
        StartOutOfRange: a slot above 2n, which only a hand-built index holds.
    """
    _, n, _, _, lo_f, hi_f = A._probe
    if idx.n != n or idx.x_first != lo_f or idx.x_last != hi_f:
        raise _mismatch(idx.n, A)
    q, under, over = key_queries(A, qs)
    raw = np.asarray(qs)  # the queries' own values, which locate them
    if np.isnan(raw).any():
        raise OutOfRange("NaN query has no rank")
    ranks = np.where(over, n, 0)
    comparisons = np.where(under, 1, 2)
    inside = np.flatnonzero(~(under | over))
    if inside.size:  # locate with the query's own value and start at ceil(t/2), as _lookup does
        starts = np.ceil(predict_many(idx, raw[inside])).astype(np.int64)
        if starts.max() > n:
            raise StartOutOfRange(f"start {starts.max()} outside [0, {n}]")
        found, cost = _gallop_many(A.keys, starts, q[inside], idx._record[6])  # first step
        ranks[inside] = found
        comparisons[inside] += cost
    return ranks, comparisons


# --- sizing policies -------------------------------------------------------

LINEAR = "linear"
SUBLINEAR = "sublinear"

POLICY_KINDS = (LINEAR, SUBLINEAR)


@dataclass(frozen=True)
class SizingPolicy:
    """Rule for picking the interval count K from the key count n.

    ``linear`` (K = n) buys constant expected lookup cost for densities
    with bounded support; ``sublinear`` (K = n/log2 n) trades down to
    log-log cost.
    """

    kind: str

    def __post_init__(self):
        if self.kind not in POLICY_KINDS:
            raise InvalidPolicyParams(f"unknown sizing policy {self.kind!r}")


def choose_k(policy: SizingPolicy, n: int) -> int:
    """Interval count prescribed by ``policy`` for an n-key array.

    Raises:
        InvalidPolicyParams: n is not an integer >= 2.
    """
    n = _integer(n, 2, math.inf, InvalidPolicyParams, "key count n")
    if policy.kind == LINEAR:
        return n
    return math.ceil(n / math.log2(n))


# --- two-layer equal-probability variant -----------------------------------


@dataclass(frozen=True, eq=False)
class HierIndex:
    """Two-layer index: quantile bucket boundaries plus a top-level index.

    The bottom layer cuts the array into ``K`` buckets of equal occupancy, up to one
    key, at the positions p_i = ceil(i*n/K): bucket b holds the ranks p_{b-1} + 1 to
    p_b.  The top layer is an equal-split index over the bucket boundaries
    keys[p_0], ..., keys[p_{K-1}] and resolves which bucket a query falls in.  The
    T = bit_length(ceil(n/K) - 1) probes that finish a lookup are fixed by n and K,
    so only the boundaries and the top index occupy space.  Instances pickle and
    deep-copy as their fields, without their record.  ``boundaries`` that are no
    KeyArray or a ``top`` that is no EspcIndex raise InvalidParams, a ``top`` not built
    over ``boundaries`` IndexMismatch, an ``n`` that is not an integer >= K InvalidK.
    """

    boundaries: KeyArray
    top: EspcIndex
    n: int

    @property
    def K(self) -> int:
        return self.boundaries.n

    def __post_init__(self):
        # The record evaluate_rank_hier reads, derived so not a field: (view, top, last, K,
        # n, x_first, p_{K-1}, T, S) of the boundaries, the top layer's record and the keys,
        # where S = 2^T - 1 is the least perfect bracket that holds a bucket's
        # ceil(n/K) - 1 unknown positions.
        _instance(self.boundaries, (KeyArray,), "boundaries")
        _instance(self.top, (EspcIndex,), "top")
        view, k, _, last, first_f, last_f = self.boundaries._probe
        top = self.top
        if top.n != k or top.x_first != first_f or top.x_last != last_f:
            raise _mismatch(top.n, self.boundaries)
        n = _integer(self.n, k, math.inf, InvalidK, f"key count n for {k} buckets")
        depth = (-(-n // k) - 1).bit_length()
        object.__setattr__(self, "_record", (view, top._record, last, k, n, first_f,
                                             ((k - 1) * n + k - 1) // k, depth, (1 << depth) - 1))

    def __reduce__(self):
        return HierIndex, (self.boundaries, self.top, self.n)


def build_equal_probability(A: KeyArray, k: int, k_top: int) -> HierIndex:
    """Build the two-layer variant with ``k`` buckets and ``k_top`` top intervals.

    Bucket boundaries are the empirical quantiles keys[p_i], p_i = ceil(i*n/k) for
    i = 0..k-1, computed in exact integers as :func:`evaluate_rank_hier` computes them,
    so the first boundary is the minimum key.

    Raises:
        InvalidK: k outside [1, n], or k_top refused by :func:`build_espc`.
    """
    n = A.n
    k = _integer(k, 1, n, InvalidK, "bucket count")
    positions = (np.arange(k, dtype=np.int64) * n + (k - 1)) // k  # at most n - 1, as k <= n
    boundary_keys = A.keys[positions]  # a fancy index returns a fresh array
    boundary_keys.setflags(write=False)
    boundaries = KeyArray(keys=boundary_keys, mode=A.mode)
    top = build_espc(boundaries, k_top)
    return HierIndex(boundaries=boundaries, top=top, n=n)


def evaluate_rank_hier(h: HierIndex, A: KeyArray, q) -> SearchOutcome:
    """Exact rank of ``q`` through both layers of the two-layer index.

    The top index finds the bucket b, the exact rank of q among the boundaries, which
    puts the rank in [p_{b-1} + 1, p_b].  ``bisect.bisect_right`` then bisects the
    perfect bracket of S = 2^T - 1 positions from p_{b-1} + 1 (:class:`HierIndex`),
    which costs T probes.  A bracket that would pass n ends at n, and is counted as
    the perfect tree it is part of, whose positions past n hold no key at or below q.
    At T = 0 the rank is p_{b-1} + 1 with no probe.  Where S > n, which only K = 1
    reaches, the reference :func:`espc.search._bisect` searches all keys.  The reported
    comparisons are the sum of both layers.

    Raises:
        IndexMismatch: index was built over an array of other length, first key or
            key at p_{K-1}, the last boundary.
        OutOfRange: q is NaN.
    """
    view, top, last, k, built_n, first_f, last_at, depth, span = h._record
    keys, n, lo, hi, lo_f, _ = A._probe
    if type(q) is not float:
        q = _query(q, lo)
    if built_n != n or first_f != lo_f or keys[last_at] != last:  # the bracket trusts them
        raise _mismatch(built_n, A)
    if not lo <= q <= hi:
        return _outside(q, lo, n)
    # The top layer counts its own two range checks; q >= boundaries[0] == x_min.
    bucket, comparisons = (k, 4) if q > last else _lookup(top, view, q, 4)
    first = 1 - (1 - bucket) * n // k  # p_{b-1} + 1 = 1 + ceil((b - 1) * n / K)
    if not depth:
        return tuple.__new__(SearchOutcome, (first, comparisons))
    end = first + span
    if end > n:
        if span > n:
            return tuple.__new__(SearchOutcome, _bisect(keys, 0, n, q, comparisons))
        end = n
    return tuple.__new__(SearchOutcome, (bisect_right(keys, q, first, end), comparisons + depth))


# --- serialization ----------------------------------------------------------


def serialize_index(idx: EspcIndex) -> bytes:
    """Little-endian blob: magic ``ESPC2``, n, K (u64), x_first, x_last, delta, then t (u32).

    An index cut on a log scale is written as ``ESPC3``, the same layout with its
    shift in place of delta, which the loader derives.  The layout is fixed at
    HEADER_BYTES + SLOT_BYTES * K bytes, the header joined to the slots' buffer in one
    copy, and round-trips bit-exactly through :func:`deserialize_index`.
    """
    magic, last = (MAGIC, idx.delta) if idx.shift is None else (MAGIC_SHIFTED, idx.shift)
    header = magic + _HEADER.pack(idx.n, idx.K, idx.x_first, idx.x_last, last)
    return header + memoryview(np.ascontiguousarray(idx.t, dtype="<u4"))


def deserialize_index(blob: bytes) -> EspcIndex:
    """Inverse of :func:`serialize_index`: the :class:`EspcIndex` of its header and slots.

    Beyond the headers the constructor refuses, a file can get wrong only its magic, its
    length, an ``ESPC2`` delta other than the derived one, or slots that count no partition
    of the n keys: running counts c_k = t_k - c_{k-1}, from c_0 = 0, non-decreasing to n.

    Raises:
        InvalidIndexFile: any of these, the constructor's refusal among them.
    """
    magic = blob[: len(MAGIC)]
    if len(blob) < HEADER_BYTES or magic not in (MAGIC, MAGIC_SHIFTED):
        raise InvalidIndexFile("not a serialized index (bad magic)")
    n, k, x_first, x_last, last = _HEADER.unpack_from(blob, len(MAGIC))
    if len(blob) != HEADER_BYTES + SLOT_BYTES * k:
        raise InvalidIndexFile(
            f"expected {HEADER_BYTES + SLOT_BYTES * k} bytes for K={k}, got {len(blob)}"
        )
    # In native byte order, which the lookup's memoryview of the slots can index.
    t = np.frombuffer(blob, dtype="<u4", count=k, offset=HEADER_BYTES).astype(np.uint32)
    t.setflags(write=False)
    try:
        idx = EspcIndex(x_first=x_first, x_last=x_last, n=n, t=t,
                        shift=last if magic == MAGIC_SHIFTED else None)
    except (InvalidParams, InvalidK) as exc:
        raise InvalidIndexFile(f"bad header: {exc}") from exc
    if magic == MAGIC and last != idx.delta:
        raise InvalidIndexFile(f"interval length {last} does not split the range into K={k}")
    c = t.astype(np.int64)  # c_k = t_k - t_{k-1} + t_{k-2} - ...: one signed cumulative sum
    c[1::2] *= -1
    np.cumsum(c, out=c)
    c[1::2] *= -1
    if not (c[-1] == n and np.all(c[:-1] <= c[1:])):  # c_1 = t_1 >= 0 = c_0
        raise InvalidIndexFile(f"slots do not count a partition of n={n} keys into K={k} cells")
    return idx


def save_index(idx: EspcIndex, path) -> None:
    """Write :func:`serialize_index`'s blob to ``path``."""
    with open(path, "wb") as fh:
        fh.write(serialize_index(idx))


def load_index(path) -> EspcIndex:
    with open(path, "rb") as fh:
        return deserialize_index(fh.read())
