"""Partition profiles, entropy, error bounds, densities, and the rho estimator."""

import math
import warnings

import numpy as np
import pytest

from espc.core import FLOAT_MODE, validate_key_array
from espc.data import DatasetSpec, generate, rescale_unit
from espc.errors import (
    DegenerateIQR,
    DegenerateIqrWarning,
    InvalidK,
    InvalidParams,
    InvalidWidth,
    OutOfRange,
    SupportViolation,
)
from espc.stats import (
    HISTOGRAM,
    KERNEL,
    PartitionProfile,
    error_bound_partition,
    error_bound_query_dist,
    error_bound_rho,
    estimate_rho,
    fd_bin_width,
    histogram_density,
    kde_density,
    log_error_entropy_bound,
    partition_probabilities,
    renyi_entropy_2,
)


def _profile(p):
    return PartitionProfile(p=np.asarray(p, dtype=np.float64))


class TestPartitionProbabilities:
    def test_hand_count(self):
        A = validate_key_array([0.1, 0.2, 0.6, 0.9], FLOAT_MODE)
        prof = partition_probabilities(A, 0.0, 1.0, 2)
        np.testing.assert_allclose(prof.p, [0.5, 0.5])

    def test_single_key(self):
        A = validate_key_array([0.4], FLOAT_MODE)
        prof = partition_probabilities(A, 0.0, 1.0, 3)
        assert prof.p.sum() == 1.0
        assert np.count_nonzero(prof.p) == 1

    def test_uniform_grid(self):
        A = validate_key_array((np.arange(100) + 0.5) / 100.0, FLOAT_MODE)
        prof = partition_probabilities(A, 0.0, 1.0, 10)
        np.testing.assert_allclose(prof.p, 0.1)

    def test_support_violation(self):
        A = validate_key_array([0.1, 1.5], FLOAT_MODE)
        with pytest.raises(SupportViolation):
            partition_probabilities(A, 0.0, 1.0, 2)
        with pytest.raises(SupportViolation):
            partition_probabilities(A, 1.0, 1.0, 2)

    def test_invalid_k(self):
        unit = validate_key_array([0.1, 0.2, 0.6, 0.9], FLOAT_MODE)
        tiny = validate_key_array([0.0, 5e-324], FLOAT_MODE)  # the cell length underflows to 0
        wide = validate_key_array([-1.7e308, 1.7e308], FLOAT_MODE)  # the span overflows
        cases = [(unit, 0.0, 1.0, k) for k in (0, 10**15, 2**63, 10**30)]  # 10^15: 8 PB
        cases += [(tiny, 0.0, 5e-324, 3), (wide, -1.7e308, 1.7e308, 1)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for A, a, b, k in cases:
                with pytest.raises(InvalidK):
                    partition_probabilities(A, a, b, k)

    def test_sums_to_one(self):
        rng = np.random.default_rng(31)
        for _ in range(30):
            A = validate_key_array(rng.random(int(rng.integers(1, 500))), FLOAT_MODE)
            prof = partition_probabilities(A, -0.5, 1.5, int(rng.integers(1, 40)))
            assert abs(prof.p.sum() - 1.0) < 1e-9
            assert np.all(prof.p >= 0)


class TestRenyiEntropy:
    def test_uniform_four(self):
        assert renyi_entropy_2(_profile([0.25] * 4)) == pytest.approx(math.log(4), rel=1e-12)

    def test_point_mass(self):
        assert renyi_entropy_2(_profile([1.0, 0.0, 0.0])) == 0.0

    def test_half_half(self):
        assert renyi_entropy_2(_profile([0.5, 0.5])) == pytest.approx(math.log(2), rel=1e-12)

    def test_base_two(self):
        assert renyi_entropy_2(_profile([0.25] * 4), base=2) == pytest.approx(2.0, rel=1e-12)

    def test_uniform_maximizes(self):
        rng = np.random.default_rng(32)
        for _ in range(200):
            k = int(rng.integers(2, 50))
            p = rng.random(k)
            p /= p.sum()
            assert renyi_entropy_2(_profile(p)) <= math.log(k) + 1e-12


class TestErrorBounds:
    def test_partition_bound_values(self):
        assert error_bound_partition(4, _profile([0.5, 0.5])) == pytest.approx(3.0)
        assert error_bound_partition(10, _profile([1.0, 0.0])) == pytest.approx(15.0)
        uniform = _profile(np.full(1000, 1e-3))
        assert error_bound_partition(10**6, uniform) == pytest.approx(1500.0)

    def test_rho_bound_values(self):
        assert error_bound_rho(10**7, 10**3, 0.0, 1.0, 1.20) == pytest.approx(18000.0)
        assert error_bound_rho(10**6, 10**6, 0.0, 1.0, 1.0) == pytest.approx(1.5)

    def test_rho_bound_monotone_in_k(self):
        prev = math.inf
        for k in (1, 10, 100, 1000, 10**6):
            cur = error_bound_rho(10**5, k, 0.0, 1.0, 2.0)
            assert cur < prev
            prev = cur

    def test_query_dist_bound(self):
        assert error_bound_query_dist(10**6, 10**4, 0.0, 1.0, 4.0, 1.0) == pytest.approx(300.0)
        same = error_bound_query_dist(500, 10, 0.0, 1.0, 2.5, 2.5)
        assert same == pytest.approx(error_bound_rho(500, 10, 0.0, 1.0, 2.5))
        assert error_bound_query_dist(500, 10, 0.0, 1.0, 2.5, 0.0) == 0.0

    def test_log_error_bound(self):
        assert log_error_entropy_bound(2, _profile([1.0])) == pytest.approx(math.log(3))
        uniform = _profile(np.full(1000, 1e-3))
        assert log_error_entropy_bound(10**6, uniform) == pytest.approx(math.log(1500.0))
        degenerate = _profile([1.0, 0.0])
        assert log_error_entropy_bound(20, degenerate) == pytest.approx(math.log(30.0))

    def test_bad_args(self):
        with pytest.raises(InvalidParams):
            error_bound_rho(10, 5, 1.0, 0.0, 1.0)
        with pytest.raises(InvalidParams):
            error_bound_rho(10, 5, 0.0, 1.0, -1.0)
        with pytest.raises(InvalidParams):
            error_bound_partition(0, _profile([1.0]))


class TestBinWidth:
    def test_formula(self):
        # IQR of this grid is 1.0 by linear-interpolation quantiles.
        A = validate_key_array(np.linspace(0.0, 2.0, 1000), FLOAT_MODE)
        q25, q75 = np.quantile(A.keys, [0.25, 0.75])
        assert q75 - q25 == pytest.approx(1.0)
        assert fd_bin_width(A) == pytest.approx(2.0 / 10.0)

    def test_unit_grid(self):
        A = validate_key_array(np.arange(1000) / 999.0, FLOAT_MODE)
        assert fd_bin_width(A) == pytest.approx(0.1, rel=1e-6)

    def test_all_equal_raises(self):
        A = validate_key_array([3.0, 3.0, 3.0, 3.0], FLOAT_MODE)
        with pytest.raises(DegenerateIQR):
            fd_bin_width(A)

    def test_zero_iqr_falls_back_with_warning(self):
        A = validate_key_array([5.0] * 20 + [6.0], FLOAT_MODE)
        with pytest.warns(DegenerateIqrWarning):
            width = fd_bin_width(A)
        assert width == pytest.approx(1.0 / math.ceil(math.sqrt(21)))

    def test_too_small(self):
        A = validate_key_array([1.0, 2.0, 3.0], FLOAT_MODE)
        with pytest.raises(InvalidParams):
            fd_bin_width(A)


class TestHistogramDensity:
    def test_hand_heights(self):
        # Bins [0.1, 0.6] and (0.6, 1.1]: key 0.6 sits on the edge and, as in
        # the index's cells, belongs to the lower bin.
        A = validate_key_array([0.1, 0.3, 0.6, 0.8], FLOAT_MODE)
        dens = histogram_density(A, 0.5)
        np.testing.assert_allclose(dens.heights, [1.5, 0.5])

    def test_single_bin(self):
        A = validate_key_array([0.0, 1.0], FLOAT_MODE)
        dens = histogram_density(A, 1.0)
        assert len(dens.heights) == 1
        assert dens.heights[0] == pytest.approx(1.0)

    def test_integrates_to_one(self):
        rng = np.random.default_rng(33)
        for _ in range(30):
            A = validate_key_array(rng.random(int(rng.integers(4, 2000))), FLOAT_MODE)
            dens = histogram_density(A, fd_bin_width(A))
            assert dens.integral() == pytest.approx(1.0, abs=1e-9)

    def test_evaluation_covers_extremes(self):
        A = validate_key_array([0.0, 0.25, 0.5, 1.0], FLOAT_MODE)
        dens = histogram_density(A, 0.3)
        assert dens(0.0) > 0
        assert dens(1.0) > 0
        assert dens(-0.01) == 0.0
        assert dens(float(dens.b) + 0.01) == 0.0
        far = np.array([-1.7e308, -1e300, 1e300, 1.7e308])  # no cast or overflow warning
        assert dens(far).tolist() == [0.0] * 4

    def test_invalid_width(self):
        A = validate_key_array([0.0, 1.0], FLOAT_MODE)
        with pytest.raises(InvalidWidth):
            histogram_density(A, 0.0)

    @pytest.mark.parametrize(
        "keys, width",
        [
            ([0.0, 1e10], 1e-10),  # 10^20 bins: past int64
            ([0.0, 1e10], 1e-300),  # an infinite bin count
            ([0.0, 1.0], 1e-15),  # 10^15 bins cannot be allocated anywhere
        ],
    )
    def test_too_many_bins_raise(self, keys, width):
        with pytest.raises(InvalidWidth):
            histogram_density(validate_key_array(keys, FLOAT_MODE), width)

    def test_overflowing_heights_raise(self):
        # One key in a bin 5e-324 wide would have height 1/5e-324 = inf.
        with pytest.raises(InvalidWidth):
            histogram_density(validate_key_array([0.0], FLOAT_MODE), 5e-324)

    def test_keys_read_from_the_bin_they_were_counted_in(self):
        # Far from zero, fitting and reading must agree on each key's bin.
        A = validate_key_array(
            [7345771.779514994, 7345782.017973739, 7345782.586777002], FLOAT_MODE
        )
        dens = histogram_density(A, 1.1376065271941127)
        assert np.all(dens(A.keys) > 0)
        assert dens.integral() == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("x", [math.nan, np.float64("nan"), [0.5, math.nan]])
    def test_nan_raises_out_of_range(self, x):
        dens = histogram_density(validate_key_array([0.0, 0.5, 1.0], FLOAT_MODE), 0.25)
        with pytest.raises(OutOfRange):
            dens(x)


class TestKernelDensity:
    def test_positive_between_points(self):
        A = validate_key_array([0.0, 1.0], FLOAT_MODE)
        dens = kde_density(A, bandwidth=0.5)
        assert dens(0.5) > 0

    def test_integrates_to_one(self):
        rng = np.random.default_rng(34)
        A = validate_key_array(rng.normal(0.0, 1.0, 5000), FLOAT_MODE)
        dens = kde_density(A)
        assert dens.integral() == pytest.approx(1.0, abs=0.01)

    def test_standard_normal_peak(self):
        rng = np.random.default_rng(35)
        A = validate_key_array(rng.normal(0.0, 1.0, 100_000), FLOAT_MODE)
        dens = kde_density(A)
        assert float(dens(0.0)) == pytest.approx(0.3989, abs=0.02)

    def test_needs_two_keys(self):
        A = validate_key_array([1.0], FLOAT_MODE)
        with pytest.raises(InvalidParams):
            kde_density(A)

    def test_degenerate_needs_explicit_bandwidth(self):
        A = validate_key_array([2.0, 2.0, 2.0], FLOAT_MODE)
        with pytest.raises(InvalidParams):
            kde_density(A)
        assert kde_density(A, bandwidth=0.1)(2.0) > 0

    @pytest.mark.parametrize(
        "keys, bandwidth",
        [
            ([1.0] * 4, 1e-300),  # 1 - 4e-300 rounds to 1
            ([1e300, 1e300], 1.0),  # 1e300 + 4 rounds to 1e300
            ([0.0, 0.0], 1e-322),  # 7.9e-322 / 2048 underflows to 0
        ],
    )
    def test_padded_range_that_cannot_be_split(self, keys, bandwidth):
        with pytest.raises(InvalidParams, match="bandwidth"):
            kde_density(validate_key_array(keys, FLOAT_MODE), bandwidth=bandwidth)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("bandwidth", [1e-300, 5e-324])
    def test_offsets_whose_square_overflows(self, bandwidth):
        # One cell, about 1/2047 wide, is 4.9e296 bandwidths of 1e-300.
        A = validate_key_array([1.0, 1.25, 1.5, 2.0], FLOAT_MODE)
        with pytest.raises(InvalidParams, match="bandwidth"):
            kde_density(A, bandwidth=bandwidth)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("x", [math.nan, np.float64("nan"), [0.5, math.nan]])
    def test_nan_raises_out_of_range(self, x):
        dens = kde_density(validate_key_array([0.0, 0.5, 1.0], FLOAT_MODE), bandwidth=0.1)
        with pytest.raises(OutOfRange):
            dens(x)


class TestRhoEstimator:
    def test_uniform_near_one(self):
        keys = generate(DatasetSpec("uniform", n=400_000, seed=41))
        est = estimate_rho(keys, 40_000, HISTOGRAM, seed=1)
        assert est.value == pytest.approx(1.0, abs=0.05)

    def test_beta22_near_analytic(self):
        # integral of (6x(1-x))^2 over [0,1] is 1.2
        keys = generate(DatasetSpec("beta22", n=400_000, seed=42))
        est = estimate_rho(keys, 40_000, HISTOGRAM, seed=1)
        assert est.value == pytest.approx(1.2, abs=0.06)

    def test_kernel_method_runs(self):
        keys = generate(DatasetSpec("uniform", n=20_000, seed=43))
        est = estimate_rho(keys, 2_000, KERNEL, seed=1)
        assert est.value == pytest.approx(1.0, abs=0.1)

    def test_seed_deterministic(self):
        keys = generate(DatasetSpec("uniform", n=10_000, seed=44))
        a = estimate_rho(keys, 5_000, HISTOGRAM, seed=9)
        b = estimate_rho(keys, 5_000, HISTOGRAM, seed=9)
        assert a.value == b.value
        c = estimate_rho(keys, 5_000, HISTOGRAM, seed=10)
        assert c.value != a.value

    def test_never_much_below_uniform_floor(self):
        # The uniform density minimizes the norm on a bounded support.
        rng = np.random.default_rng(45)
        for seed in range(5):
            keys = generate(DatasetSpec("beta22", n=50_000, seed=seed))
            est = estimate_rho(keys, 5_000, HISTOGRAM, seed=seed)
            span = float(keys.keys[-1] - keys.keys[0])
            assert est.value >= 1.0 / span - 0.1

    def test_variance_scales_inverse_j(self):
        # Standard error across seeds should halve when draws quadruple.
        keys = generate(DatasetSpec("beta22", n=50_000, seed=46))
        small = [estimate_rho(keys, 1_000, HISTOGRAM, seed=s).value for s in range(30)]
        large = [estimate_rho(keys, 4_000, HISTOGRAM, seed=s + 100).value for s in range(30)]
        ratio = np.std(small, ddof=1) / np.std(large, ddof=1)
        assert 2.0 * 0.7 <= ratio <= 2.0 * 1.3

    def test_rescale_covariance(self):
        # Mapping keys onto [0,1] multiplies the norm by the original span.
        rng = np.random.default_rng(47)
        raw = validate_key_array(rng.uniform(5.0, 15.0, 200_000), FLOAT_MODE)
        est_raw = estimate_rho(raw, 20_000, HISTOGRAM, seed=2)
        est_unit = estimate_rho(rescale_unit(raw), 20_000, HISTOGRAM, seed=2)
        span = float(raw.keys[-1] - raw.keys[0])
        assert est_unit.value == pytest.approx(span * est_raw.value, rel=0.05)

    def test_empirical_partition_bound_consistent_with_rho_bound(self):
        # Chain: (3n/2) sum(p_hat^2) <= 1.1 * (3(b-a)/2) rho_hat n / K.
        for kind in ("uniform", "beta22"):
            keys = generate(DatasetSpec(kind, n=100_000, seed=48))
            rho = estimate_rho(keys, 20_000, HISTOGRAM, seed=3)
            k = 100
            prof = partition_probabilities(keys, 0.0, 1.0, k)
            lhs = error_bound_partition(keys.n, prof)
            rhs = error_bound_rho(keys.n, k, 0.0, 1.0, rho.value)
            assert lhs <= rhs * 1.1

    def test_rejects_bad_args(self):
        keys = generate(DatasetSpec("uniform", n=100, seed=49))
        with pytest.raises(InvalidParams):
            estimate_rho(keys, 0, HISTOGRAM)
        with pytest.raises(InvalidParams):
            estimate_rho(keys, 10, "splines")
        with pytest.raises(InvalidParams, match="bandwidth"):
            estimate_rho(keys, 10, HISTOGRAM, bandwidth=0.1)
