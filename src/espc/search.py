"""Comparison-counting search primitives.

Both searches return the same rank as :func:`espc.core.rank_bruteforce`
(count of keys <= q, rightmost tie) together with the number of key
comparisons performed.  Comparison counts are the machine-independent cost
proxy used throughout the benchmark harness; index arithmetic is free.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import KeyArray, Rank
from .errors import StartOutOfRange


@dataclass(frozen=True)
class SearchOutcome:
    """Result of a search: the exact rank and the comparisons it cost."""

    rank: Rank
    comparisons: int


def binary_search_rank(A: KeyArray, q) -> SearchOutcome:
    """Rank of ``q`` by plain binary search over the whole array.

    Costs at most ceil(log2(n + 1)) key comparisons.
    """
    if isinstance(q, np.floating):
        q = float(q)  # a Python int key compares with np.float64 in float64, not exactly
    return _bisect(A.keys, 0, A.n, q, 0)


def exponential_search(A: KeyArray, i: int, q) -> SearchOutcome:
    """Rank of ``q`` by galloping outward from start position ``i``.

    Doubles the probe offset away from ``i`` until the answer is
    bracketed, then binary-searches the bracket.  With displacement
    eps = |rank(q) - i| the cost is at most 2*ceil(log2(eps + 2)) + c
    comparisons for a small fixed c (c = 4 here), so a good start makes
    the search cheap regardless of n.

    Raises:
        StartOutOfRange: ``i`` outside [0, n].
    """
    n = A.n
    if not 0 <= i <= n:
        raise StartOutOfRange(f"start {i} outside [0, {n}]")
    if isinstance(q, np.floating):
        q = float(q)
    keys = A.keys
    comparisons = 0

    go_right = False
    if i < n:
        comparisons += 1
        go_right = keys.item(i) <= q

    step = 1
    if go_right:
        # rank > i: probe i+1, i+2, i+4, ... until a key exceeds q.
        lo, hi = i + 1, n
        while i + step < n:
            comparisons += 1
            if keys.item(i + step) <= q:
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
            if keys.item(j) <= q:
                lo = j + 1
                break
            hi = j
            step *= 2

    return _bisect(keys, lo, hi, q, comparisons)


def _bisect(keys, lo: int, hi: int, q, comparisons: int) -> SearchOutcome:
    """Rank of ``q`` known to lie in [lo, hi]; adds one comparison per probe."""
    while lo < hi:
        mid = (lo + hi) // 2
        comparisons += 1
        if keys.item(mid) <= q:
            lo = mid + 1
        else:
            hi = mid
    return SearchOutcome(rank=lo, comparisons=comparisons)
