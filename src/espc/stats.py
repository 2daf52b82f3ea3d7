"""Partition statistics, error-bound calculators, and density estimation.

The expected prediction error of an equal-split index is controlled by the
collision probability sum(p_k^2) of the key distribution over equal-length
cells, or equivalently by the squared L2 norm of the key density
(``rho = integral of f^2``, which equals E[f(X)] and is therefore estimable
as the mean of a fitted density over the keys).  This module computes the
empirical cell probabilities, the order-2 Renyi entropy, the closed-form
bounds, and the rho estimator.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .core import KeyArray, _integer, _real
from .errors import (
    DegenerateIQR,
    DegenerateIqrWarning,
    InvalidK,
    InvalidParams,
    InvalidWidth,
    OutOfRange,
    SupportViolation,
)
from .index import _cell_counts, assign_intervals

HISTOGRAM = "histogram"
KERNEL = "kernel"

_KDE_GRID_SIZE = 2048
_KDE_TAIL_CUT = 4.0  # kernel support, in bandwidths, kept on each side
_RHO_BLOCK = 1 << 16  # keys per kernel evaluation: bounds its temporaries


@dataclass(frozen=True, eq=False)
class PartitionProfile:
    """Probabilities of K equal-length cells partitioning [a, b].

    ``p`` sums to 1 (within 1e-9) with non-negative entries.
    """

    p: np.ndarray

    @property
    def collision_probability(self) -> float:
        """sum(p_k^2): chance two independent draws share a cell."""
        return float(np.dot(self.p, self.p))


def partition_probabilities(A: KeyArray, a: float, b: float, k: int) -> PartitionProfile:
    """Empirical cell probabilities of ``A`` over K equal cells of [a, b].

    Cells are counted as index construction counts them, so these
    probabilities predict index behaviour directly.

    Raises:
        InvalidParams: a or b is not a finite real number.
        SupportViolation: [a, b] does not contain the key range.
        InvalidK: as :func:`espc.index.build_espc` raises it.
    """
    a = _real(a, -math.inf, math.inf, InvalidParams, "support end a")
    b = _real(b, -math.inf, math.inf, InvalidParams, "support end b")
    if not a < b:
        raise SupportViolation(f"need a < b, got [{a}, {b}]")
    if a > float(A.keys[0]) or float(A.keys[-1]) > b:
        raise SupportViolation(
            f"support [{a}, {b}] does not cover keys "
            f"[{float(A.keys[0])}, {float(A.keys[-1])}]"
        )
    p = _cell_counts(A.keys, a, b, k) / A.n
    p.setflags(write=False)
    return PartitionProfile(p=p)


def renyi_entropy_2(profile: PartitionProfile, base: float | None = None) -> float:
    """Order-2 Renyi entropy -log(sum p_k^2), in nats by default.

    Maximized (= log K) by the uniform profile; zero for a point mass.
    Pass ``base=2`` for bits; a base that :func:`_log` refuses raises InvalidParams.
    """
    return -_log(profile.collision_probability, base)


def _log(x: float, base) -> float:
    """log(x) in ``base``, natural for None; InvalidParams unless 0 < base < inf, base != 1."""
    if base is None:
        return math.log(x)
    base = _real(base, 0, math.inf, InvalidParams, "log base")
    if base == 1:
        raise InvalidParams("log base must not be 1")
    return math.log(x) / math.log(base)


def error_bound_partition(n: int, profile: PartitionProfile) -> float:
    """Expected-error bound (3n/2) * sum(p_k^2) from the cell profile, for an integer n >= 1."""
    n = _integer(n, 1, math.inf, InvalidParams, "key count n")
    return 1.5 * n * profile.collision_probability


def error_bound_rho(n: int, k: int, a: float, b: float, rho: float) -> float:
    """Expected-error bound (3(b-a)/2) * rho * n / K from the density norm.

    An n or k that is not an integer >= 1 raises InvalidParams or InvalidK, and an a or b
    that is not a finite real number, b <= a, or a rho that is not a real number >= 0,
    InvalidParams.
    """
    n = _integer(n, 1, math.inf, InvalidParams, "key count n")
    k = _integer(k, 1, math.inf, InvalidK, "cell count")
    a = _real(a, -math.inf, math.inf, InvalidParams, "support end a")
    b = _real(b, -math.inf, math.inf, InvalidParams, "support end b")
    if not b > a:
        raise InvalidParams(f"need b > a, got [{a}, {b}]")
    return 1.5 * (b - a) * _real(rho, 0, math.inf, InvalidParams, "rho", closed=True) * n / k


def error_bound_query_dist(
    n: int, k: int, a: float, b: float, rho_keys: float, rho_queries: float
) -> float:
    """Expected-error bound when queries follow their own density.

    Replaces rho with sqrt(rho_keys * rho_queries); reduces to
    :func:`error_bound_rho` when the two coincide, and refuses either rho as it does.
    """
    rho_keys = _real(rho_keys, 0, math.inf, InvalidParams, "rho_keys", closed=True)
    rho_queries = _real(rho_queries, 0, math.inf, InvalidParams, "rho_queries", closed=True)
    return error_bound_rho(n, k, a, b, math.sqrt(rho_keys * rho_queries))


def log_error_entropy_bound(
    n: int, profile: PartitionProfile, base: float | None = None
) -> float:
    """Bound on E[log error]: log(3n/2) minus the order-2 entropy.

    Uses the same log base as :func:`renyi_entropy_2` (natural by default), and an
    integer n >= 1.
    """
    n = _integer(n, 1, math.inf, InvalidParams, "key count n")
    return _log(1.5 * n, base) - renyi_entropy_2(profile, base=base)


# --- density estimation ------------------------------------------------------


def fd_bin_width(A: KeyArray) -> float:
    """Freedman-Diaconis histogram bin width 2*IQR / n^(1/3).

    The IQR uses linear-interpolation quantiles, each read from its two
    neighbouring sorted keys.  A zero IQR falls back to (range)/ceil(sqrt(n))
    with a :class:`DegenerateIqrWarning`.

    Raises:
        InvalidParams: n < 4.
        DegenerateIQR: all keys equal, so no usable width exists.
    """
    n = _integer(A.n, 4, math.inf, InvalidParams, "key count n for the bin-width rule")
    q25, q75 = (_sorted_quantile(A.keys, q) for q in (0.25, 0.75))
    iqr = float(q75 - q25)
    if iqr > 0.0:
        return 2.0 * iqr / n ** (1.0 / 3.0)
    span = float(A.keys[-1]) - float(A.keys[0])
    if span <= 0.0:
        raise DegenerateIQR("all keys equal; no bin width is meaningful")
    warnings.warn(
        "IQR is zero; falling back to range-based bin width",
        DegenerateIqrWarning,
        stacklevel=2,
    )
    return span / math.ceil(math.sqrt(n))


def _sorted_quantile(keys: np.ndarray, q: float) -> np.floating:
    """``np.quantile(keys, q)`` of sorted ``keys``, from the two keys it interpolates.

    numpy's linear method sits at position (n - 1)*q, between keys[prev] and
    keys[prev + 1]; the quantile of that pair at the fractional part runs the
    same interpolation.  Needs q < 1.
    """
    pos = (len(keys) - 1) * q
    prev = math.floor(pos)
    return np.quantile(keys[prev:prev + 2].astype(np.float64), pos - prev)


@dataclass(frozen=True, eq=False)
class DensityEstimate:
    """Evaluable density estimate over [a, b]; integrates to ~1.

    ``heights`` sit on an equal-spaced grid over [a, b]: one per bin of a
    ``histogram`` step function, or the ``kernel`` values at
    ``np.linspace(a, b, len(heights))``, interpolated.  Calling the instance
    evaluates the density (vectorized, >= 0 everywhere, 0 outside [a, b]);
    a NaN value raises :class:`~espc.errors.OutOfRange`.
    """

    kind: str
    a: float
    b: float
    heights: np.ndarray

    def __call__(self, x) -> np.ndarray:
        v = np.asarray(x, dtype=np.float64)
        if np.isnan(v).any():
            raise OutOfRange("NaN has no density")
        if self.kind == HISTOGRAM:
            nbins = len(self.heights)
            bins = assign_intervals(v, self.a, (self.b - self.a) / nbins, nbins)
            out = self.heights.take(bins - 1)
            return np.where((v >= self.a) & (v <= self.b), out, 0.0)
        return np.interp(v, self._grid(), self.heights, left=0.0, right=0.0)

    def integral(self) -> float:
        """Numerical mass of the estimate (exact sum for histograms)."""
        if self.kind == HISTOGRAM:
            return float(np.sum(self.heights) * (self.b - self.a) / len(self.heights))
        return float(np.trapezoid(self.heights, self._grid()))

    def _grid(self) -> np.ndarray:
        return np.linspace(self.a, self.b, len(self.heights))


def histogram_density(A: KeyArray, width: float) -> DensityEstimate:
    """Histogram density over [x_min, x_max] with bins about ``width`` wide.

    The bins are index cells, counted and read by :func:`espc.index.assign_intervals`
    (a key on an inner edge is in the lower bin).  The last bin is padded past
    x_max so every key lands in a bin; heights are count/(n*(b - a)/nbins),
    making the total mass 1.

    Raises:
        InvalidWidth: width <= 0 or not finite, or so small that the bins are more
            than :func:`espc.index.build_espc` admits as cells, cannot be allocated,
            or overflow the heights.
    """
    width = _real(width, 0, math.inf, InvalidWidth, "bin width")
    lo, hi = float(A.keys[0]), float(A.keys[-1])
    bins = (hi - lo) / width
    if not bins < 2**63:  # also infinite: bin numbers are int64
        raise InvalidWidth(f"bin width {width} splits [{lo}, {hi}] into {bins:.3g} bins")
    nbins = max(1, math.ceil(bins))
    # Rounding can leave lo + nbins*width below x_max, or at lo for a width under the
    # keys' resolution; widen b so every key falls in a bin of positive width.
    b = max(lo + width * nbins, hi, math.nextafter(lo, math.inf))
    try:
        counts = _cell_counts(A.keys, lo, b, nbins)
    except InvalidK as exc:
        raise InvalidWidth(f"bin width {width} over [{lo}, {hi}]: {exc}") from exc
    norm = A.n * ((b - lo) / nbins)
    if not math.isfinite(int(counts.max()) / norm):
        raise InvalidWidth(f"bins {width} wide make the heights overflow")
    heights = counts / norm
    heights.setflags(write=False)
    return DensityEstimate(kind=HISTOGRAM, a=lo, b=b, heights=heights)


def kde_density(A: KeyArray, bandwidth: float | None = None) -> DensityEstimate:
    """Gaussian kernel density estimate of the key distribution.

    Defaults to the normal-reference bandwidth 1.06 * std * n^(-1/5).  The keys are
    counted into 2 048 index cells of [x_min - 4*bandwidth, x_max + 4*bandwidth] and
    convolved with the kernel; evaluation interpolates that grid, which keeps
    large-sample evaluation affordable and errs far below sampling noise.

    Raises:
        InvalidParams: n < 2, the bandwidth is not positive (e.g. all keys
            equal and none supplied), the padded range has no 2 048 cells
            (its ends round to one float, the cell length is 0 or infinite,
            or the grid points are not distinct floats), the kernel's widest
            offset, in bandwidths, overflows its square, or the heights' slopes
            between grid points overflow.
    """
    n = _integer(A.n, 2, math.inf, InvalidParams, "key count n for a kernel estimate")
    vals = A.keys.astype(np.float64, copy=False)
    if bandwidth is None:
        bandwidth = 1.06 * float(np.std(vals, ddof=1)) * n ** (-0.2)
    bandwidth = _real(bandwidth, 0, math.inf, InvalidParams, "bandwidth")

    pad = _KDE_TAIL_CUT * bandwidth
    lo, hi = float(vals[0]) - pad, float(vals[-1]) + pad
    no_grid = f"bandwidth {bandwidth}: no {_KDE_GRID_SIZE} cells in [{lo}, {hi}]"
    if not 0.0 < (hi - lo) / _KDE_GRID_SIZE < math.inf:
        raise InvalidParams(no_grid)
    grid_x = np.linspace(lo, hi, _KDE_GRID_SIZE)
    gap = float(np.min(np.diff(grid_x)))
    if not gap > 0.0:  # grid steps under the floats' spacing
        raise InvalidParams(no_grid)
    counts = _cell_counts(A.keys, lo, hi, _KDE_GRID_SIZE)
    step = grid_x[1] - grid_x[0]
    mass = counts / n
    half = min(int(math.ceil(pad / step)), (_KDE_GRID_SIZE - 1) // 2)
    widest = half * float(step) / float(bandwidth)  # the largest of offsets / bandwidth
    if not widest * widest < math.inf:
        raise InvalidParams(f"bandwidth {bandwidth}: kernel offsets of {widest:.3g} "
                            "bandwidths overflow their square")
    offsets = np.arange(-half, half + 1) * step
    kernel = np.exp(-0.5 * (offsets / bandwidth) ** 2) / (bandwidth * math.sqrt(2.0 * math.pi))
    heights = np.convolve(mass, kernel, mode="same")
    if not float(heights.max()) / gap < math.inf:  # np.interp's slopes between grid points
        raise InvalidParams(f"bandwidth {bandwidth}: the heights' slopes overflow")
    heights.setflags(write=False)
    return DensityEstimate(kind=KERNEL, a=lo, b=hi, heights=heights)


# --- the density norm -------------------------------------------------------


@dataclass(frozen=True)
class RhoEstimate:
    """Estimate of the squared L2 norm of the key density, by ``method``.

    Never much below 1/(b-a): the uniform density minimizes the norm on a
    bounded support.  Deterministic given (data, method, bandwidth).
    """

    value: float
    method: str


def estimate_rho(
    A: KeyArray,
    draws=None,
    method: str = HISTOGRAM,
    seed=None,
    bandwidth: float | None = None,
) -> RhoEstimate:
    """Estimate integral(f^2) = E[f(X)] as the mean of a fitted density over every key.

    The histogram method fits the Freedman-Diaconis width; over bins of width w
    holding n_k keys its mean is sum(n_k^2)/(n^2 w), read off the heights
    h_k = n_k/(n w) as sum(h_k * h_k w).  The kernel method evaluates
    :func:`kde_density` at every key, :data:`_RHO_BLOCK` keys at a time, as it has
    no closed form between its grid points.  Either value is the exact expectation
    of averaging the estimate at keys drawn uniformly with replacement.  The histogram's
    bins are counted as index cells (:func:`espc.index._cell_counts`); on heavy tails,
    where most bins are empty, that is a stretch of 64 keys at a time, so the estimate
    costs little more than its K-sized heights: 1.5 ms against 9.0 ms for one pass over
    10^6 lognormal(0, 2) keys in 178 348 bins (2 vCPUs, one BLAS thread).

    ``draws`` and ``seed`` are ignored: they sized and seeded such draws, and
    remain only so that callers which still pass them keep running.

    Raises:
        InvalidParams: unknown method, or a bandwidth with the histogram method.
    """
    if method == HISTOGRAM:
        if bandwidth is not None:
            raise InvalidParams(f"bandwidth {bandwidth} applies only to the {KERNEL} method")
        density = histogram_density(A, fd_bin_width(A))
        h = density.heights
        w = (density.b - density.a) / len(h)
        return RhoEstimate(value=float(np.dot(h, h * w)), method=method)
    if method == KERNEL:
        density = kde_density(A, bandwidth=bandwidth)
        total = sum(float(np.sum(density(A.keys[i:i + _RHO_BLOCK])))
                    for i in range(0, A.n, _RHO_BLOCK))
        return RhoEstimate(value=total / A.n, method=method)
    raise InvalidParams(f"unknown density method {method!r}")
