"""Dataset lifecycle: seeded generators, sorted-data binary files, rescaling.

The binary layout is the one used by sorted-data search benchmarks:
little-endian, a u64 key count followed by that many 64-bit keys.  Files
ending in ``.gz`` are compressed/decompressed transparently.
"""

from __future__ import annotations

import gzip
import struct
import warnings
import zlib
from dataclasses import dataclass, field
from functools import partial
from typing import Mapping

import numpy as np

from .core import FLOAT_MODE, INT_MODE, KeyArray, _validated, validate_key_array
from .errors import (
    CountMismatch,
    DegenerateRange,
    InvalidM,
    InvalidParams,
    TruncatedFile,
    UnsortedFileWarning,
)

UNIFORM = "uniform"
NORMAL = "normal"
BETA22 = "beta22"
LOGNORMAL = "lognormal"
FILE = "file"

SYNTHETIC_KINDS = (UNIFORM, NORMAL, BETA22, LOGNORMAL)


@dataclass(frozen=True)
class DatasetSpec:
    """What to load: a named synthetic family or a file on disk.

    Synthetic kinds: ``uniform`` on [0, 1]; ``normal`` (params ``mu``,
    ``sigma``); ``beta22`` (the symmetric Beta(2, 2) hump on [0, 1]);
    ``lognormal`` (params ``mu``, ``sigma``; a heavy-tailed stand-in for
    hard real-world key sets).  Kind ``file`` reads params["path"]
    (params["mode"] selects int64/float64 payloads).
    """

    kind: str
    n: int = 0
    params: Mapping[str, object] = field(default_factory=dict)
    seed: int = 0

    def __post_init__(self):
        if self.seed < 0:
            raise InvalidParams(f"seed must be non-negative, got {self.seed}")


def generate(spec: DatasetSpec) -> KeyArray:
    """Materialize a dataset: n seeded draws, sorted, duplicates kept.

    Deterministic given (kind, params, seed).  Synthetic data is float
    mode; files keep the mode they are read with.

    Raises:
        InvalidParams: unknown kind, n < 1, bad distribution params, or n draws
            that cannot be allocated.
    """
    if spec.kind == FILE:
        path = spec.params.get("path")
        if not path:
            raise InvalidParams("file datasets need params['path']")
        return read_sosd(path, mode=str(spec.params.get("mode", INT_MODE)))
    if spec.kind not in SYNTHETIC_KINDS:
        raise InvalidParams(f"unknown dataset kind {spec.kind!r}")
    if spec.n < 1:
        raise InvalidParams(f"need n >= 1, got {spec.n}")
    rng = np.random.default_rng(spec.seed)
    if spec.kind == UNIFORM:
        draw = rng.random
    elif spec.kind == BETA22:
        draw = partial(rng.beta, 2.0, 2.0)
    else:
        try:
            mu = float(spec.params.get("mu", 0.0))
            sigma = float(spec.params.get("sigma", 1.0 if spec.kind == NORMAL else 2.0))
        except (TypeError, ValueError) as exc:
            raise InvalidParams(f"mu and sigma must be numbers, got {dict(spec.params)}") from exc
        if sigma <= 0:
            raise InvalidParams(f"sigma must be positive, got {sigma}")
        draw = partial(rng.normal if spec.kind == NORMAL else rng.lognormal, mu, sigma)
    try:
        draws = draw(spec.n)
    except (MemoryError, ValueError, OverflowError) as exc:  # too many draws to allocate
        raise InvalidParams(f"cannot allocate {spec.n} draws") from exc
    return validate_key_array(draws, FLOAT_MODE)


def read_sosd(path, mode: str = INT_MODE) -> KeyArray:
    """Read a key file: u64 count, then n 64-bit keys (little-endian).

    ``mode`` selects how the 8-byte payload is interpreted (unsigned
    integers or IEEE doubles).  Unsorted files are sorted in memory with a
    warning.  Sorted keys are a read-only view over the bytes read, so the
    file is held in memory once.

    Raises:
        TruncatedFile: size differs from 8 + 8n, or a ``.gz`` stream is damaged.
        CountMismatch: header count is zero.
    """
    opener = gzip.open if str(path).endswith(".gz") else open
    with opener(path, "rb") as fh:
        try:
            blob = fh.read()
        except (EOFError, zlib.error) as exc:  # gzip stream cut off or damaged
            raise TruncatedFile(f"{path}: compressed stream ends early or is corrupt") from exc
    if len(blob) < 8:
        raise TruncatedFile(f"{path}: too short for a count header")
    (n,) = struct.unpack_from("<Q", blob)
    if n == 0:
        raise CountMismatch(f"{path}: header declares zero keys")
    if len(blob) != 8 + 8 * n:
        raise TruncatedFile(f"{path}: expected {8 + 8 * n} bytes for n={n}, got {len(blob)}")
    dtype = "<u8" if mode == INT_MODE else "<f8"
    payload = np.frombuffer(blob, dtype=dtype, count=n, offset=8)  # read-only, as bytes are
    keys, was_sorted = _validated(payload, mode, frozen=True)
    if not was_sorted:
        warnings.warn(f"{path}: keys not sorted; sorting", UnsortedFileWarning, stacklevel=2)
    return keys


def write_sosd(path, A: KeyArray) -> None:
    """Write ``A`` in the binary key-file layout (gzip for ``.gz`` paths).

    Reading the result back with the same mode reproduces ``A`` exactly,
    and re-writing a file read this way is byte-identical.
    """
    dtype = "<u8" if A.mode == INT_MODE else "<f8"
    blob = struct.pack("<Q", A.n) + np.ascontiguousarray(A.keys, dtype=dtype).tobytes()
    opener = gzip.open if str(path).endswith(".gz") else open
    with opener(path, "wb") as fh:
        fh.write(blob)


def rescale_unit(A: KeyArray) -> KeyArray:
    """Affinely map keys onto [0, 1] (float mode); order preserved.

    The smallest key maps to exactly 0 and the largest to exactly 1.

    Raises:
        DegenerateRange: all keys equal.
    """
    vals = A.keys.astype(np.float64, copy=False)
    lo = float(vals[0])
    span = float(vals[-1]) - lo
    if span <= 0.0:
        raise DegenerateRange("all keys equal; nothing to rescale")
    scaled = vals - lo
    scaled /= span
    scaled.setflags(write=False)
    return KeyArray(keys=scaled, mode=FLOAT_MODE)


def subsample(A: KeyArray, m: int, seed: int = 0) -> KeyArray:
    """m keys drawn uniformly without replacement, in key order; seeded.

    The keys are gathered at the sorted drawn positions, so they need no
    sort of their own: ``A.keys`` is non-decreasing.  The result holds the
    same values as sorting the drawn keys, bit for bit unless ``A`` holds
    both ``-0.0`` and ``+0.0``, which keep their order in ``A``.

    Raises:
        InvalidM: m outside [1, n].
    """
    if not 1 <= m <= A.n:
        raise InvalidM(f"subsample size must be in [1, {A.n}], got {m}")
    rng = np.random.default_rng(seed)
    picks = rng.choice(A.n, size=m, replace=False)
    keys = A.keys[np.sort(picks)]
    keys.setflags(write=False)
    return KeyArray(keys=keys, mode=A.mode)
