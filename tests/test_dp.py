import math
import re

import numpy as np
import pytest

from obfgame import DpSpec, InfiniteLeakageError, gaussian_epsilon, scaling_check


class TestGaussianEpsilon:
    def test_reference_point(self):
        result = gaussian_epsilon(DpSpec(delta=1e-5, sensitivity=1.0), 5.0)
        assert result.epsilon == pytest.approx(0.9689610525210778, rel=1e-12)
        assert result.valid

    def test_doubling_noise_halves_epsilon(self):
        spec = DpSpec(delta=1e-5, sensitivity=1.0)
        five = gaussian_epsilon(spec, 5.0)
        ten = gaussian_epsilon(spec, 10.0)
        assert ten.epsilon == pytest.approx(five.epsilon / 2.0, rel=1e-15)
        assert ten.epsilon == pytest.approx(0.4844805262605389, rel=1e-12)

    @pytest.mark.parametrize("delta", [1.0, 2.0])
    def test_delta_of_one_or_more_is_an_error(self, delta):
        with pytest.raises(ValueError, match=re.escape(
                "delta must lie in (0, 1)")):
            DpSpec(delta)

    def test_zero_noise_is_an_error(self):
        with pytest.raises(InfiniteLeakageError):
            gaussian_epsilon(DpSpec(delta=1e-5), 0.0)

    @pytest.mark.parametrize("total_std", [-1.0, math.nan, math.inf])
    def test_negative_or_non_finite_noise_is_an_error(self, total_std):
        with pytest.raises(ValueError, match=f"got {total_std}$"):
            gaussian_epsilon(DpSpec(delta=1e-5), total_std)

    def test_validity_flag_tracks_unit_threshold(self):
        spec = DpSpec(delta=1e-5, sensitivity=1.0)
        constant = math.sqrt(2.0 * math.log(1.25e5))
        below = gaussian_epsilon(spec, constant * 1.01)
        above = gaussian_epsilon(spec, constant * 0.99)
        assert below.valid and below.epsilon < 1.0
        assert not above.valid and above.epsilon > 1.0

    def test_identity_holds_to_machine_precision(self):
        rng = np.random.default_rng(42)
        for _ in range(1000):
            spec = DpSpec(delta=float(rng.uniform(1e-8, 0.5)),
                          sensitivity=float(rng.uniform(1e-3, 10.0)))
            std = float(rng.uniform(1e-3, 100.0))
            result = gaussian_epsilon(spec, std)
            constant = spec.sensitivity * math.sqrt(2.0 * math.log(1.25 / spec.delta))
            assert abs(result.epsilon * std - constant) <= 1e-12 * constant

    def test_monotone_in_sensitivity(self):
        low = gaussian_epsilon(DpSpec(delta=1e-5, sensitivity=0.5), 5.0)
        high = gaussian_epsilon(DpSpec(delta=1e-5, sensitivity=2.0), 5.0)
        assert high.epsilon == pytest.approx(4.0 * low.epsilon, rel=1e-15)

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            DpSpec(delta=0.0)
        with pytest.raises(ValueError):
            DpSpec(delta=1e-5, sensitivity=0.0)
        with pytest.raises(ValueError, match="got inf"):
            DpSpec(delta=1e-5, sensitivity=math.inf)


class TestScalingCheck:
    def test_same_combined_variance_same_epsilon(self):
        spec = DpSpec(delta=1e-5)
        report = scaling_check(spec, [(1.0, 0.0), (0.0, 1.0)])
        assert report.rows[0].epsilon == report.rows[1].epsilon

    def test_product_constant(self):
        spec = DpSpec(delta=1e-5)
        report = scaling_check(spec, [(1.0, 0.0), (2.0, 0.0), (3.0, 0.0)])
        assert report.max_deviation <= 1e-12 * report.constant

    def test_variance_additivity(self):
        spec = DpSpec(delta=1e-5)
        report = scaling_check(spec, [(1.0, 1.0), (math.sqrt(2.0), 0.0)])
        assert report.rows[0].epsilon == pytest.approx(
            report.rows[1].epsilon, rel=1e-15)

    @pytest.mark.parametrize("pair", [
        (-1.0, 0.0), (math.inf, 0.0), (2.0, math.nan), (1.5e308, 1.5e308)])
    def test_bad_sigma_names_the_pair(self, pair):
        with pytest.raises(ValueError,
                           match=re.escape(f"sigma pair 1 ({pair[0]}, ")):
            scaling_check(DpSpec(delta=1e-5), [(1.0, 0.0), pair])

    def test_rows_carry_inputs(self):
        report = scaling_check(DpSpec(delta=1e-5), [(3.0, 4.0)])
        row = report.rows[0]
        assert (row.sigma_L, row.sigma_S) == (3.0, 4.0)
        assert row.combined_std == pytest.approx(5.0, rel=1e-15)
