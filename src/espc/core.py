"""Sorted key arrays and the exact linear-scan rank oracle.

Everything else in the package is ultimately tested against
:func:`rank_bruteforce`, which counts keys by definition rather than by any
clever search.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import EmptyInput, InvalidParams, NonFiniteKey

INT_MODE = "int64"
FLOAT_MODE = "float64"
MODES = (INT_MODE, FLOAT_MODE)

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
    and deep-copy as ``validate_key_array(keys, mode)``, without their record.
    Empty ``keys`` raise EmptyInput.
    """

    keys: np.ndarray
    mode: str

    def __post_init__(self):
        # The record lookups read, derived so not a field: (view, n, first, last,
        # float(first), float(last)), view[i] == keys.item(i).
        v = memoryview(self.keys).toreadonly()
        if not len(v):
            raise EmptyInput("key array must contain at least one key")
        object.__setattr__(self, "_probe", (v, len(v), v[0], v[-1], float(v[0]), float(v[-1])))

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
    64-bit values and rejects any value that is not an integer in [0, 2^64).

    Raises:
        EmptyInput: ``raw`` has no elements.
        NonFiniteKey: float mode saw NaN or +/-inf.
        InvalidParams: ``mode`` is not one of :data:`MODES`, or integer mode saw
            a value that is not an integer in [0, 2^64).
    """
    return _validated(raw, mode)[0]


def _validated(raw, mode: str, frozen: bool = False) -> tuple[KeyArray, bool]:
    """:func:`validate_key_array`, and whether ``raw`` was already sorted.

    ``frozen``: ``raw`` is a read-only array that nothing can write to (such as
    a view over ``bytes``), so sorted keys keep it as their storage, uncopied.
    """
    if mode not in MODES:
        raise InvalidParams(f"unknown key mode {mode!r}")
    arr = _uint64_keys(raw) if mode == INT_MODE else np.asarray(raw, dtype=np.float64)
    if arr.ndim != 1:
        arr = arr.reshape(-1)
    if arr.size == 0:
        raise EmptyInput("key array must contain at least one key")
    was_sorted = _is_sorted(arr)
    if mode == FLOAT_MODE:
        # Among two or more keys a NaN fails the sortedness test; a sorted array holds
        # any inf, or a lone NaN, at an end.
        finite = arr[[0, -1]] if was_sorted else arr
        if not np.isfinite(finite).all():
            raise NonFiniteKey("float keys must be finite (no NaN/inf)")
    if not was_sorted:
        arr = np.sort(arr)
    elif not frozen:
        arr = arr.copy()
    arr.setflags(write=False)
    return KeyArray(keys=arr, mode=mode), was_sorted


def _uint64_keys(raw) -> np.ndarray:
    """``raw`` as uint64 keys, refusing any value that is not an integer in [0, 2^64).

    A uint64 array, which :func:`espc.data.read_sosd` passes, is taken with no pass.
    """
    arr = np.asarray(raw)
    if arr.dtype == np.uint64:
        return arr
    kind = arr.dtype.kind
    if kind in "bu" or kind == "i" and not (arr < 0).any():
        return arr.astype(np.uint64)
    if kind == "f" and isinstance(raw, np.ndarray):
        if ((arr >= 0) & (arr < 2.0**64) & (np.floor(arr) == arr)).all():  # NaN fails
            return arr.astype(np.uint64)
    elif kind in "fO":  # from Python scalars, which numpy may have rounded to float64
        values = np.asarray(raw, dtype=object).ravel().tolist()
        if all(_is_uint64(v) for v in values):
            return np.array(values, dtype=np.uint64)
    raise InvalidParams("integer keys must be integers in [0, 2^64)")


def _is_uint64(v) -> bool:
    try:
        i = int(v)  # exact for an integral float, so i == v compares exactly
    except (TypeError, ValueError, OverflowError):
        return False
    return 0 <= i <= _UINT64_MAX and i == v


def rank_bruteforce(A: KeyArray, q) -> Rank:
    """Exact rank of ``q``: the number of keys <= q, by linear scan.

    This is the definitional oracle; ties are counted (rank of a
    duplicated key includes every copy).  Always in [0, n] and
    non-decreasing in ``q``.  The query is read by :func:`_query`, as every
    scalar lookup reads it: on integer keys it is then compared exactly.
    """
    q = _query(q, A._probe[2])
    if A.mode == INT_MODE:
        # numpy would compare in float64, rounding keys above 2^53; an integer
        # key is <= q exactly when it is <= floor(q), so clamp, floor, compare.
        if isinstance(q, float):
            q = math.floor(min(q, 2.0**64)) if q >= 0 else -1  # NaN counts as below
        if q < 0:
            return 0
        if q > _UINT64_MAX:
            return A.n
        q = np.uint64(q)
    return int(np.count_nonzero(A.keys <= q))


def _query(q, first=0.0):
    """The scalar query ``q`` as it meets keys whose first key is ``first``.

    On float keys (a float ``first``), and for any numpy float, it is ``float(q)``,
    as numpy reads it, with an int past float64 an infinity.  Integer keys compare a
    Python or numpy integer, or another ``numbers.Real`` such as a ``Fraction``, as
    it is given, and a numpy bool as the int it is.  Anything else, such as None,
    ``1j``, ``np.complex128(0.5)``, ``"0.5"``, ``b"0.5"``, or on integer keys a
    ``Decimal``, raises InvalidParams.
    """
    if isinstance(q, float):  # first, for the Python and numpy float64 queries of a lookup
        return float(q)
    if type(first) is float or isinstance(q, np.floating):
        if not isinstance(q, (str, bytes, bytearray, np.complexfloating)):  # float() reads them
            try:
                return float(q)
            except OverflowError:
                return math.inf if q > 0 else -math.inf
            except (TypeError, ValueError):
                pass
    elif isinstance(q, (int, np.integer)) or isinstance(q, numbers.Real):  # ints skip the ABC
        return q
    elif isinstance(q, np.bool_):
        return int(q)
    raise InvalidParams(f"query {q!r} is not a number")


def _integer(value, least: int, most, error: type, what: str) -> int:
    """``int(value)`` for a Python or numpy integer, not a bool, in [least, most] (``most``
    may be ``math.inf``); else ``error``, "<what> must be an integer in [...], got <value>"."""
    if isinstance(value, (int, np.integer)) and type(value) is not bool and least <= value <= most:
        return int(value)
    raise error(f"{what} must be an integer in [{least}, {most}], got {value!r}")


def _instance(value, kinds: tuple, what: str):
    """``value`` if it is an instance of one of ``kinds``, where None admits None itself;
    else InvalidParams, "<what> must be <kinds>, got <value>"."""
    if any(value is None if kind is None else isinstance(value, kind) for kind in kinds):
        return value
    names = " or ".join("None" if kind is None else kind.__name__ for kind in kinds)
    raise InvalidParams(f"{what} must be {names}, got {value!r}")


def _real(value, least, most, error: type, what: str, closed: bool = False) -> float:
    """``value`` as a float (:func:`_query`) for a real number, not a bool, in (least, most),
    or in [least, most] when ``closed``; else ``error``, "<what> must be a real number in
    (...), got <value>".  NaN lies in no range."""
    if isinstance(value, numbers.Real) and type(value) is not bool:
        x = _query(value)
        if (least <= x <= most) if closed else (least < x < most):
            return x
    left, right = "[]" if closed else "()"
    raise error(f"{what} must be a real number in {left}{least}, {most}{right}, got {value!r}")


def exact_ranks(A: KeyArray, queries) -> np.ndarray:
    """:func:`rank_bruteforce` of a 1-D query array, by binary search.

    Queries follow the oracle's rule through :func:`key_queries`.  They are
    searched in sorted order, in which numpy starts each search from the one
    before (about 3x faster for 10^4 queries over 10^6 keys), and their ranks
    put back in place.

    Raises:
        InvalidParams: as :func:`key_queries`.
    """
    values, under, _ = key_queries(A, queries)
    order = np.argsort(values)
    ranks = np.empty(len(values), dtype=np.intp)
    ranks[order] = np.searchsorted(A.keys, values[order], side="right")
    ranks[under] = 0
    return ranks


def key_queries(A: KeyArray, queries) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """A 1-D query array as ``(values, under, over)``: values that compare with the keys
    of ``A`` as the oracle does, and the masks of the queries below the least key (NaN
    included) and above the greatest.

    On float keys the values are the queries' float64.  On integer keys, where an
    integer key is <= q exactly when it is <= floor(q), each query is floored and
    clamped to uint64: NaN and negative queries become 0, and queries at or past
    2^64 become 2^64 - 1, which every key is <= though the query exceeds it.

    Raises:
        InvalidParams: the queries are not a 1-D numeric array, or, on integer
            keys, are a list that numpy makes float64 though an integer in it
            is not a float64 (such as ``[-1, 2**63 + 5]``).
    """
    q = np.asarray(queries)
    if q.ndim != 1 or q.dtype.kind not in "biuf":  # "O": Python ints beyond 64 bits
        raise InvalidParams(f"queries must be a 1-D numeric array, got {q.ndim}-D {q.dtype}")
    _, _, lo, hi, _, _ = A._probe
    if A.mode != INT_MODE:
        values = q.astype(np.float64, copy=False)
        return values, ~(values >= lo), values > hi
    if q.dtype.kind in "biu":
        if q.dtype.kind == "b":  # numpy 2 cannot compare a bool array with an int past int64
            q = q.astype(np.uint64)
        under = q < lo
        return np.where(under, 0, q).astype(np.uint64), under, q > hi
    if isinstance(queries, (list, tuple)):  # numpy rounds [-1, 2**63 + 5]
        if any(isinstance(v, (int, np.integer)) and float(v) != int(v) for v in queries):
            raise InvalidParams("queries hold integers that float64 cannot represent exactly")
    q = q.astype(np.float64, copy=False)
    below = ~(q >= 0)  # NaN counts as below
    above = q >= 2.0**64
    floors = np.floor(np.where(below | above, 0.0, q))
    values = floors.astype(np.uint64)
    values[above] = _UINT64_MAX
    # A query past its value lies above a greatest key equal to that value.
    return values, below | (values < lo), (values > hi) | (values == hi) & (floors < q)


def _is_sorted(arr: np.ndarray) -> bool:
    return bool(np.all(arr[:-1] <= arr[1:]))
