"""Dataset lifecycle: seeded generators, sorted-data binary files, rescaling.

The binary layout is the one used by sorted-data search benchmarks:
little-endian, a u64 key count followed by that many 64-bit keys.  Files
ending in ``.gz`` are compressed/decompressed transparently.
"""

from __future__ import annotations

import gzip
import math
import struct
import warnings
import zlib
from dataclasses import dataclass, field
from functools import partial
from typing import Mapping

import numpy as np

from .core import FLOAT_MODE, INT_MODE, KeyArray, _integer, _real, _validated, validate_key_array
from .errors import (
    CountMismatch,
    DegenerateRange,
    InvalidM,
    InvalidParams,
    NonFiniteKey,
    TruncatedFile,
    UnsortedFileWarning,
)

UNIFORM = "uniform"
NORMAL = "normal"
BETA22 = "beta22"
LOGNORMAL = "lognormal"
FILE = "file"

SYNTHETIC_KINDS = (UNIFORM, NORMAL, BETA22, LOGNORMAL)
_PARAMS = {UNIFORM: (), BETA22: (), NORMAL: ("mu", "sigma"), LOGNORMAL: ("mu", "sigma"),
           FILE: ("path", "mode")}  # the params each kind reads


@dataclass(frozen=True)
class DatasetSpec:
    """What to load: a named synthetic family or a file on disk.

    Synthetic kinds: ``uniform`` on [0, 1]; ``normal`` (params ``mu``,
    ``sigma``); ``beta22`` (the symmetric Beta(2, 2) hump on [0, 1]);
    ``lognormal`` (params ``mu``, ``sigma``; a heavy-tailed stand-in for
    hard real-world key sets).  Kind ``file`` reads params["path"]
    (params["mode"] selects int64/float64 payloads).  A seed that is not an integer
    >= 0, params that are not a mapping, or a param that the kind does not read, raises
    InvalidParams.
    """

    kind: str
    n: int = 0
    params: Mapping[str, object] = field(default_factory=dict)
    seed: int = 0

    def __post_init__(self):
        _integer(self.seed, 0, math.inf, InvalidParams, "seed")
        if not isinstance(self.params, Mapping):
            raise InvalidParams(f"params must be a mapping, got {self.params!r}")
        allowed = _PARAMS.get(self.kind, self.params)  # generate refuses an unknown kind
        unknown = sorted(set(self.params) - set(allowed))
        if unknown:
            raise InvalidParams(f"unknown {self.kind} params {unknown}; "
                                f"the kind reads {list(allowed) or 'none'}")


def generate(spec: DatasetSpec) -> KeyArray:
    """Materialize a dataset: n seeded draws, sorted, duplicates kept.

    Deterministic given (kind, params, seed).  Synthetic data is float
    mode; files keep the mode they are read with.

    Raises:
        InvalidParams: unknown kind, n not an integer >= 1, bad distribution params, n draws
            that cannot be allocated, or normal or lognormal draws that overflow.
    """
    if spec.kind == FILE:
        path = spec.params.get("path")
        if not path:
            raise InvalidParams("file datasets need params['path']")
        return read_sosd(path, mode=str(spec.params.get("mode", INT_MODE)))
    if spec.kind not in SYNTHETIC_KINDS:
        raise InvalidParams(f"unknown dataset kind {spec.kind!r}")
    _integer(spec.n, 1, math.inf, InvalidParams, "key count n")
    rng = np.random.default_rng(spec.seed)
    if spec.kind == UNIFORM:
        draw = rng.random
    elif spec.kind == BETA22:
        draw = partial(rng.beta, 2.0, 2.0)
    else:
        mu = _real(spec.params.get("mu", 0.0), -math.inf, math.inf, InvalidParams, "mu")
        sigma = _real(spec.params.get("sigma", 1.0 if spec.kind == NORMAL else 2.0),
                      0, math.inf, InvalidParams, "sigma")
        draw = partial(rng.normal if spec.kind == NORMAL else rng.lognormal, mu, sigma)
    try:
        draws = draw(spec.n)
    except (MemoryError, ValueError, OverflowError) as exc:  # too many draws to allocate
        raise InvalidParams(f"cannot allocate {spec.n} draws") from exc
    try:
        return validate_key_array(draws, FLOAT_MODE)
    except NonFiniteKey as exc:  # only normal and lognormal draws, from finite mu and sigma
        raise InvalidParams(
            f"{spec.kind} draws with mu={mu} and sigma={sigma} overflow float64"
        ) from exc


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
    opener = gzip.open if str(path).endswith(".gz") else open
    with opener(path, "wb") as fh:
        fh.write(struct.pack("<Q", A.n))
        fh.write(memoryview(np.ascontiguousarray(A.keys, dtype=dtype)))  # no joined copy


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

    Sequential sampling by skips (Vitter, CACM 1984), in O(m) time and memory:
    each position of ``A`` is kept with probability p, a little above m/n, by
    walking geometric gaps (:func:`_bernoulli_positions`), or every position
    when p reaches 1; a uniform choice of the surplus over m is dropped and the
    keys are gathered at the positions left.  Each step is invariant under
    permuting positions, so the m-set is uniform over all C(n, m) subsets.  The
    positions increase, so no keys are sorted, and ``-0.0`` and ``+0.0`` keep
    their order in ``A``.

    Raises:
        InvalidM: m is not an integer in [1, n].
        InvalidParams: seed is not an integer >= 0.
    """
    n = A.n
    m = _integer(m, 1, n, InvalidM, "subsample size")
    rng = np.random.default_rng(_integer(seed, 0, math.inf, InvalidParams, "seed"))
    p = (m + 4.0 * math.sqrt(m) + 10.0) / n  # under m positions in at most ~3e-5 of draws
    positions = np.arange(n) if p >= 1.0 else _bernoulli_positions(rng, n, p, m)
    surplus = len(positions) - m
    if surplus:
        positions = np.delete(positions, rng.choice(len(positions), surplus, replace=False))
    keys = A.keys[positions]
    keys.setflags(write=False)
    return KeyArray(keys=keys, mode=A.mode)


def _bernoulli_positions(rng: np.random.Generator, n: int, p: float, m: int) -> np.ndarray:
    """Increasing positions in [0, n), each kept independently with probability p < 1.

    A fixed number of gaps is drawn by inversion, ``floor(log1p(-U)/log1p(-p)) + 1``,
    which is at least 1 even at U = 0, and summed.  A draw is repeated while it keeps
    fewer than m positions, or one per gap (the gaps may then stop short of n): both
    depend on the count kept alone, so the positions stay exchangeable.
    """
    mean = n * p
    draws = int(mean + 6.0 * math.sqrt(mean)) + 16
    scale = 1.0 / math.log1p(-p)
    while True:
        u = rng.random(draws)
        np.negative(u, out=u)
        np.log1p(u, out=u)
        u *= scale
        positions = u.astype(np.int64)  # truncation floors these non-negative values
        positions += 1
        positions[0] -= 1  # the first gap from position -1
        np.add.accumulate(positions, out=positions)
        kept = int(np.searchsorted(positions, n))
        if m <= kept < draws:
            return positions[:kept]
