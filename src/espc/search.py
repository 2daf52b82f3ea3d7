"""Comparison-counting search primitives.

Both searches return the same rank as :func:`espc.core.rank_bruteforce`
(count of keys <= q, rightmost tie) together with the number of key
comparisons performed.  Comparison counts are the machine-independent cost
proxy used throughout the benchmark harness; index arithmetic is free.
Each public search builds one :class:`SearchOutcome`; its loops live in the
private kernels :func:`_gallop` and :func:`_bisect`, which return plain
``(rank, comparisons)`` pairs; the index lookups call them on ``KeyArray._probe``.
A bracket of 2^t - 1 keys bisects as a perfect tree, t probes on every path,
so :func:`_gallop` hands each such bracket its doubling phase leaves to C
(``bisect.bisect_right``, the same probes) and adds t; brackets clamped at an
end of the keys, and :func:`binary_search_rank`, run :func:`_bisect`, the
interpreted loop that stays the reference for counts.
:func:`exponential_search_many` runs many searches in lockstep with the
same probes, so its ranks and counts equal the scalar ones.  The public searches
double from a first step of 1; the index lookups pass :func:`_gallop` and the lockstep
kernel :func:`_gallop_many` a larger power of two where the index's cells hold
many keys.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import NamedTuple

import numpy as np

from .core import KeyArray, Rank, _integer, _query
from .errors import InvalidParams, StartOutOfRange


class SearchOutcome(NamedTuple):
    """Result of a search: the exact rank and the comparisons it cost."""

    rank: Rank
    comparisons: int


def binary_search_rank(A: KeyArray, q) -> SearchOutcome:
    """Rank of ``q`` by plain binary search over the whole array.

    Costs at most ceil(log2(n + 1)) key comparisons.
    """
    keys, n, lo = A._probe[:3]
    if type(q) is not float:
        q = _query(q, lo)
    return tuple.__new__(SearchOutcome, _bisect(keys, 0, n, q, 0))


def exponential_search(A: KeyArray, i: int, q) -> SearchOutcome:
    """Rank of ``q`` by galloping outward from start position ``i``.

    Doubles the probe offset away from ``i`` until the answer is
    bracketed, then binary-searches the bracket.  With displacement
    eps = |rank(q) - i| the cost is at most 2*ceil(log2(eps + 2)) + c
    comparisons for a small fixed c (c = 4 here), so a good start makes
    the search cheap regardless of n.  The search itself is :func:`_gallop`.

    Raises:
        StartOutOfRange: ``i`` is not an integer in [0, n].
    """
    keys, n, lo = A._probe[:3]
    i = _integer(i, 0, n, StartOutOfRange, "start")
    if type(q) is not float:
        q = _query(q, lo)
    return tuple.__new__(SearchOutcome, _gallop(keys, i, q, 0))


def _gallop(keys, i: int, q, comparisons: int, first: int = 1) -> tuple[Rank, int]:
    """:func:`exponential_search` over the probe view ``keys``, adding to ``comparisons``;
    its doubling steps start at ``first``, a power of two, where the public search starts at 1.

    ``q`` must compare exactly with the keys (a Python scalar, not a numpy float).

    A doubling phase that ends on a key across ``q`` from ``i`` leaves a
    perfect bracket: going right, the positions strictly between the last two
    probes, i + step/2 and i + step, or between i and i + first when the first
    step already crosses ``q``; going left their mirror image.  With
    ``mid = (lo + hi) // 2`` a bracket of 2^t - 1 positions
    bisects as a perfect tree, so every path probes exactly t keys, and
    ``bisect.bisect_right`` takes the same midpoints and tests ``q < key``,
    which is ``not key <= q`` for every q but NaN (a NaN q goes left to rank
    0 without a bracket).  So C bisects every non-empty perfect bracket and
    t is added to the count; empty ones (first 1, step 1 or 2) return at once, and a
    bracket clamped at 0 or n keeps :func:`_bisect`, the reference for counts.
    Each doubling phase counts its probes once, from the bit lengths of ``first``
    and of its final step ``first << m``: m + 1 probes, or m where clamped (at 0,
    keys[0] is probed after them).

    Raises:
        StartOutOfRange: ``i`` outside [0, n]; a negative ``i`` would index
            the view from its end.
    """
    n = len(keys)
    if not 0 <= i <= n:
        raise StartOutOfRange(f"start {i} outside [0, {n}]")

    if i < n:
        comparisons += 1
        if keys[i] <= q:
            # rank > i: probe i+first, i+2first, i+4first, ... until a key exceeds q.
            step = first
            while i + step < n and keys[i + step] <= q:
                step += step
            if i + step >= n:  # clamped at n: the last step probed nothing
                lo = i + 1 + (step >> 1 if step > first else 0)
                return _bisect(keys, lo, n, q, comparisons + step.bit_length() - first.bit_length())
            if step < 2:  # keys[i + 1] > q
                return i + 1, comparisons + 1
            if step > first:  # keys[i + step] > q: rank in (i + step/2, i + step]
                if step == 2:
                    return i + 2, comparisons + 2
                t = step.bit_length() - 2  # t + 3 - bits(first) doubling probes, then t
                return (bisect_right(keys, q, i + (step >> 1) + 1, i + step),
                        comparisons + 2 * t + 3 - first.bit_length())
            # rank in (i, i + first]: one doubling probe, then bits(first) - 1 in the bracket
            return bisect_right(keys, q, i + 1, i + step), comparisons + step.bit_length()

    # rank <= i: probe i-first, i-2first, i-4first, ... (clamped at 0) until a key is <= q.
    step = first
    while step < i and not keys[i - step] <= q:
        step += step
    if step < i:
        if step < 2:  # keys[i - 1] <= q
            return i, comparisons + 1
        if step > first:  # keys[i - step] <= q: rank in (i - step, i - step/2]
            if step == 2:
                return i - 1, comparisons + 2
            t = step.bit_length() - 2  # t + 3 - bits(first) doubling probes, then t
            return (bisect_right(keys, q, i - step + 1, i - (step >> 1)),
                    comparisons + 2 * t + 3 - first.bit_length())
        # rank in (i - first, i]: one doubling probe, then bits(first) - 1 in the bracket
        return bisect_right(keys, q, i - step + 1, i), comparisons + step.bit_length()
    if not i:
        return 0, comparisons
    # clamped at 0: the doubling probes that missed, then keys[0]
    comparisons += step.bit_length() - first.bit_length() + 1
    if not keys[0] <= q:
        return 0, comparisons
    return _bisect(keys, 1, i - (step >> 1) if step > first else i, q, comparisons)


def exponential_search_many(A: KeyArray, starts, qs) -> tuple[np.ndarray, np.ndarray]:
    """:func:`exponential_search` of many queries, one lane per query, in lockstep.

    Every lane probes the keys that the scalar search would probe, phase by
    phase: the first probe at its start, the rightward or leftward gallop
    (all lanes in a gallop share the current step), then the bisection.
    Queries are compared as the keys' dtype: float64 on float keys, uint64
    on integer keys (:func:`espc.core.key_queries` makes other queries so).

    Returns:
        (ranks, comparisons): two int64 arrays, one entry per query.

    Raises:
        StartOutOfRange: the starts are not an integer array, or one lies outside [0, n].
        InvalidParams: integer keys given queries that are not unsigned integers.
    """
    keys, n = A.keys, A.n
    i = np.asarray(starts)
    if i.size and not (i.dtype.kind in "iu" and i.min() >= 0 and i.max() <= n):  # [] is float
        got = f"[{i.min()}, {i.max()}]" if i.dtype.kind in "iu" else f"{i.dtype} starts"
        raise StartOutOfRange(f"starts must be an integer array in [0, {n}], got {got}")
    i = i.astype(np.int64, copy=False)
    q = np.asarray(qs)
    if not np.can_cast(q.dtype, keys.dtype):
        raise InvalidParams(f"{q.dtype} queries do not compare exactly with {keys.dtype} keys")
    return _gallop_many(keys, i, q.astype(keys.dtype, copy=False), 1)


def _gallop_many(keys, i: np.ndarray, q: np.ndarray, first: int) -> tuple[np.ndarray, np.ndarray]:
    """:func:`_gallop` from the int64 starts ``i`` in [0, n], doubling from ``first``, of
    the queries ``q`` in the keys' dtype, in lockstep; returns int64 (ranks, comparisons)."""
    n = len(keys)
    probed = i < n
    comparisons = probed.astype(np.int64)
    go_right = np.zeros(i.shape, dtype=bool)
    go_right[probed] = keys[i[probed]] <= q[probed]
    lo = np.where(go_right, i + 1, 0)
    hi = np.where(go_right, n, i)

    # rank > i: probe i+first, i+2first, i+4first, ... until a key exceeds q.
    lanes, step = np.flatnonzero(go_right), first
    while lanes.size:
        j = i[lanes] + step
        inside = j < n
        lanes, j = lanes[inside], j[inside]
        comparisons[lanes] += 1
        le = keys[j] <= q[lanes]
        lo[lanes[le]] = j[le] + 1
        hi[lanes[~le]] = j[~le]
        lanes, step = lanes[le], step * 2

    # rank <= i: probe i-first, i-2first, i-4first, ... (clamped at 0) until a key is <= q.
    lanes, step = np.flatnonzero(~go_right & (i > 0)), first
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
