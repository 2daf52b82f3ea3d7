"""Sorted key arrays and the exact linear-scan rank oracle.

Everything else in the package is ultimately tested against
:func:`rank_bruteforce`, which counts keys by definition rather than by any
clever search.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import EmptyInput, InvalidParams, NonFiniteKey

INT_MODE = "int64"
FLOAT_MODE = "float64"
MODES = (INT_MODE, FLOAT_MODE)

_DTYPES = {INT_MODE: np.uint64, FLOAT_MODE: np.float64}

_UINT64_MAX = 2**64 - 1

# Ranks are plain integers in [0, n].
Rank = int


@dataclass(frozen=True, eq=False)
class KeyArray:
    """Immutable, non-decreasing array of 64-bit keys.

    Two storage modes exist: ``"int64"`` (unsigned 64-bit integers, the
    layout used by sorted-data benchmark files) and ``"float64"`` (IEEE
    doubles, the natural domain for synthetic data and rescaled keys).
    Duplicates are allowed and preserved.  Instances are safe to share
    across threads; the backing array is marked read-only.  Instances pickle
    and deep-copy as ``validate_key_array(keys, mode)``, without the cached record.
    """

    keys: np.ndarray
    mode: str

    @cached_property
    def _probe(self) -> tuple:
        """``(view, n, first, last, float(first), float(last))``; ``view[i] == keys.item(i)``."""
        v = memoryview(self.keys).toreadonly()
        return v, len(v), v[0], v[-1], float(v[0]), float(v[-1])

    def __reduce__(self):
        return validate_key_array, (self.keys, self.mode)

    @property
    def n(self) -> int:
        return len(self.keys)

    @property
    def x_min(self):
        """Smallest key, as a native Python scalar."""
        return self.keys.item(0)

    @property
    def x_max(self):
        """Largest key, as a native Python scalar."""
        return self.keys.item(-1)

    def __len__(self) -> int:
        return len(self.keys)


def validate_key_array(raw, mode: str = FLOAT_MODE) -> KeyArray:
    """Validate, sort, and freeze a raw key sequence.

    Duplicate keys are preserved.  Unsorted input is sorted with numpy's
    default (unstable) sort, which is bit-identical to a stable sort except
    that ``-0.0`` and ``+0.0`` keys, which compare equal, may swap places.
    Float mode rejects NaN and infinities; integer mode stores unsigned
    64-bit values.

    Raises:
        EmptyInput: ``raw`` has no elements.
        NonFiniteKey: float mode saw NaN or +/-inf.
        InvalidParams: ``mode`` is not one of :data:`MODES`.
    """
    return _validated(raw, mode)[0]


def _validated(raw, mode: str, frozen: bool = False) -> tuple[KeyArray, bool]:
    """:func:`validate_key_array`, and whether ``raw`` was already sorted.

    ``frozen``: ``raw`` is a read-only array that nothing can write to (such as
    a view over ``bytes``), so sorted keys keep it as their storage, uncopied.
    """
    if mode not in _DTYPES:
        raise InvalidParams(f"unknown key mode {mode!r}")
    arr = np.asarray(raw, dtype=_DTYPES[mode])
    if arr.ndim != 1:
        arr = arr.reshape(-1)
    if arr.size == 0:
        raise EmptyInput("key array must contain at least one key")
    if mode == FLOAT_MODE and not np.isfinite(arr).all():
        raise NonFiniteKey("float keys must be finite (no NaN/inf)")
    was_sorted = _is_sorted(arr)
    if not was_sorted:
        arr = np.sort(arr)
    elif not frozen:
        arr = arr.copy()
    arr.setflags(write=False)
    return KeyArray(keys=arr, mode=mode), was_sorted


def rank_bruteforce(A: KeyArray, q) -> Rank:
    """Exact rank of ``q``: the number of keys <= q, by linear scan.

    This is the definitional oracle; ties are counted (rank of a
    duplicated key includes every copy).  Always in [0, n] and
    non-decreasing in ``q``.
    """
    if A.mode == INT_MODE:
        # numpy would compare in float64, rounding keys above 2^53; an integer
        # key is <= q exactly when it is <= floor(q), so clamp, floor, compare.
        if isinstance(q, (float, np.floating)):
            q = math.floor(min(q, 2.0**64)) if q >= 0 else -1  # NaN counts as below
        if q < 0:
            return 0
        if q > _UINT64_MAX:
            return A.n
        q = np.uint64(q)
    return int(np.count_nonzero(A.keys <= q))


def exact_ranks(A: KeyArray, queries) -> np.ndarray:
    """:func:`rank_bruteforce` of many queries at once, by binary search.

    Queries on integer keys follow the oracle's rule (:func:`int_key_queries`),
    where numpy alone would compare in float64.
    """
    if A.mode != INT_MODE:
        return np.searchsorted(A.keys, queries, side="right")
    floors, below, _ = int_key_queries(queries)
    ranks = np.searchsorted(A.keys, floors, side="right")
    ranks[below] = 0
    return ranks


def int_key_queries(queries) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Many queries as uint64 values that compare exactly with integer keys.

    An integer key is <= q exactly when it is <= floor(q), so each query is
    floored and clamped: queries at or past 2^64 become 2^64 - 1, which every
    key is <= (their ``inexact`` entry is set); NaN and negative queries, which
    no key is <=, become 0 and are marked in ``below``.  ``inexact`` marks the
    queries that exceed their returned value, so q > key exactly when
    value > key, or value == key and inexact.

    Returns:
        (values, below, inexact): a uint64 array and two boolean masks.
    """
    q = np.asarray(queries)
    if q.dtype.kind in "iu":
        below = q < 0
        return np.where(below, 0, q).astype(np.uint64), below, np.zeros(q.shape, bool)
    q = q.astype(np.float64, copy=False)
    below = ~(q >= 0)  # NaN counts as below
    above = q >= 2.0**64
    clamped = np.where(below | above, 0.0, q)
    floors = np.floor(clamped)
    values = floors.astype(np.uint64)
    values[above] = _UINT64_MAX
    return values, below, above | (floors < clamped)


def _is_sorted(arr: np.ndarray) -> bool:
    return bool(np.all(arr[:-1] <= arr[1:]))
