"""Comparison-counting search primitives.

Both searches return the same rank as :func:`espc.core.rank_bruteforce`
(count of keys <= q, rightmost tie) together with the number of key
comparisons performed.  Comparison counts are the machine-independent cost
proxy used throughout the benchmark harness; index arithmetic is free.
Each public search builds one :class:`SearchOutcome`; its loops live in the
private kernels :func:`_gallop` and :func:`_bisect`, which return plain
``(rank, comparisons)`` pairs; the index lookups call them on ``KeyArray._probe``.
:func:`exponential_search_many` runs many searches in lockstep with the
same probes, so its ranks and counts equal the scalar ones.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .core import KeyArray, Rank
from .errors import InvalidParams, StartOutOfRange


class SearchOutcome(NamedTuple):
    """Result of a search: the exact rank and the comparisons it cost."""

    rank: Rank
    comparisons: int


def binary_search_rank(A: KeyArray, q) -> SearchOutcome:
    """Rank of ``q`` by plain binary search over the whole array.

    Costs at most ceil(log2(n + 1)) key comparisons.
    """
    if isinstance(q, np.floating):
        q = float(q)  # a Python int key compares with np.float64 in float64, not exactly
    keys, n = A._probe[:2]
    return tuple.__new__(SearchOutcome, _bisect(keys, 0, n, q, 0))


def exponential_search(A: KeyArray, i: int, q) -> SearchOutcome:
    """Rank of ``q`` by galloping outward from start position ``i``.

    Doubles the probe offset away from ``i`` until the answer is
    bracketed, then binary-searches the bracket.  With displacement
    eps = |rank(q) - i| the cost is at most 2*ceil(log2(eps + 2)) + c
    comparisons for a small fixed c (c = 4 here), so a good start makes
    the search cheap regardless of n.  The search itself is :func:`_gallop`.

    Raises:
        StartOutOfRange: ``i`` outside [0, n].
    """
    if isinstance(q, np.floating):
        q = float(q)  # a Python int key compares with np.float64 in float64, not exactly
    return tuple.__new__(SearchOutcome, _gallop(A._probe[0], i, q, 0))


def _gallop(keys, i: int, q, comparisons: int) -> tuple[Rank, int]:
    """:func:`exponential_search` over the probe view ``keys``, adding to ``comparisons``.

    ``q`` must compare exactly with the keys (a Python scalar, not a numpy float).

    Raises:
        StartOutOfRange: ``i`` outside [0, n]; a negative ``i`` would index
            the view from its end.
    """
    n = len(keys)
    if not 0 <= i <= n:
        raise StartOutOfRange(f"start {i} outside [0, {n}]")

    go_right = False
    if i < n:
        comparisons += 1
        go_right = keys[i] <= q

    step = 1
    if go_right:
        # rank > i: probe i+1, i+2, i+4, ... until a key exceeds q.
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
        # rank <= i: probe i-1, i-2, i-4, ... until a key is <= q.
        lo, hi = 0, i
        while hi > 0:
            j = i - step
            if j < 0:
                j = 0
            comparisons += 1
            if keys[j] <= q:
                lo = j + 1
                break
            hi = j
            step *= 2

    if lo == hi:
        return lo, comparisons
    return _bisect(keys, lo, hi, q, comparisons)


def exponential_search_many(A: KeyArray, starts, qs) -> tuple[np.ndarray, np.ndarray]:
    """:func:`exponential_search` of many queries, one lane per query, in lockstep.

    Every lane probes the keys that the scalar search would probe, phase by
    phase: the first probe at its start, the rightward or leftward gallop
    (all lanes in a gallop share the current step), then the bisection.
    Queries are compared as the keys' dtype: float64 on float keys, uint64
    on integer keys (see :func:`espc.core.int_key_queries` for other queries).

    Returns:
        (ranks, comparisons): two int64 arrays, one entry per query.

    Raises:
        StartOutOfRange: a start outside [0, n].
        InvalidParams: integer keys given queries that are not unsigned integers.
    """
    keys = A.keys
    n = len(keys)
    i = np.asarray(starts, dtype=np.int64)
    q = np.asarray(qs)
    if not np.can_cast(q.dtype, keys.dtype):
        raise InvalidParams(f"{q.dtype} queries do not compare exactly with {keys.dtype} keys")
    q = q.astype(keys.dtype, copy=False)
    if i.size and not (i.min() >= 0 and i.max() <= n):
        raise StartOutOfRange(f"starts in [{i.min()}, {i.max()}] outside [0, {n}]")

    probed = i < n
    comparisons = probed.astype(np.int64)
    go_right = np.zeros(i.shape, dtype=bool)
    go_right[probed] = keys[i[probed]] <= q[probed]
    lo = np.where(go_right, i + 1, 0)
    hi = np.where(go_right, n, i)

    # rank > i: probe i+1, i+2, i+4, ... until a key exceeds q.
    lanes, step = np.flatnonzero(go_right), 1
    while lanes.size:
        j = i[lanes] + step
        inside = j < n
        lanes, j = lanes[inside], j[inside]
        comparisons[lanes] += 1
        le = keys[j] <= q[lanes]
        lo[lanes[le]] = j[le] + 1
        hi[lanes[~le]] = j[~le]
        lanes, step = lanes[le], step * 2

    # rank <= i: probe i-1, i-2, i-4, ... (clamped at 0) until a key is <= q.
    lanes, step = np.flatnonzero(~go_right & (i > 0)), 1
    while lanes.size:
        j = np.maximum(i[lanes] - step, 0)
        comparisons[lanes] += 1
        le = keys[j] <= q[lanes]
        lo[lanes[le]] = j[le] + 1
        hi[lanes[~le]] = j[~le]
        lanes, step = lanes[~le & (j > 0)], step * 2

    return _bisect_many(keys, lo, hi, q, comparisons), comparisons


def _bisect_many(keys, lo, hi, q, comparisons) -> np.ndarray:
    """:func:`_bisect` on every lane; a lane leaves the batch once it is resolved.

    Updates ``lo`` and ``comparisons`` in place and returns ``lo``, the ranks.
    """
    lanes = np.flatnonzero(lo < hi)
    l, h, ql = lo[lanes], hi[lanes], q[lanes]
    while lanes.size:
        mid = (l + h) // 2
        comparisons[lanes] += 1
        le = keys[mid] <= ql
        l = np.where(le, mid + 1, l)
        h = np.where(le, h, mid)
        open_ = l < h
        if not open_.all():
            lo[lanes[~open_]] = l[~open_]
            lanes, l, h, ql = lanes[open_], l[open_], h[open_], ql[open_]
    return lo


def _bisect(keys, lo: int, hi: int, q, comparisons: int) -> tuple[Rank, int]:
    """Rank of ``q`` known to lie in [lo, hi]; adds one comparison per probe."""
    while lo < hi:
        mid = (lo + hi) // 2
        comparisons += 1
        if keys[mid] <= q:
            lo = mid + 1
        else:
            hi = mid
    return lo, comparisons
