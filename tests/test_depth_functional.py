"""Unit tests for functional depth aggregation (paper Sec. 1.2 issues)."""

import numpy as np
import pytest

from repro.depth.functional import (
    aggregate_depth,
    functional_depth,
    modified_band_depth,
    pointwise_depth_profile,
    univariate_integrated_depth,
)
from repro.exceptions import ValidationError
from repro.fda.fdata import FDataGrid, MFDataGrid

from oracles import _modified_band_depth_pairwise


@pytest.fixture
def band_curves():
    """9 horizontal lines at levels 0..8 plus a grid."""
    grid = np.linspace(0, 1, 20)
    values = np.tile(np.arange(9.0)[:, None], (1, 20))
    return FDataGrid(values, grid)


@pytest.fixture
def fan_mfd(rng):
    """Bivariate curves fanned around zero; index 0 is the most central."""
    grid = np.linspace(0, 1, 30)
    offsets = np.array([0.0, 1.0, -1.0, 2.0, -2.0, 3.0, -3.0])
    x = offsets[:, None] + 0.0 * grid[None, :]
    y = 2 * offsets[:, None] + 0.0 * grid[None, :]
    values = np.stack([x, y], axis=2) + 0.01 * rng.standard_normal((7, 30, 2))
    return MFDataGrid(values, grid)


class TestPointwiseProfile:
    def test_shape(self, fan_mfd):
        profile = pointwise_depth_profile(fan_mfd, notion="mahalanobis")
        assert profile.shape == (7, 30)

    def test_central_curve_deepest(self, fan_mfd):
        profile = pointwise_depth_profile(fan_mfd, notion="projection", random_state=0)
        means = profile.mean(axis=1)
        assert means.argmax() == 0

    def test_unknown_notion(self, fan_mfd):
        with pytest.raises(ValidationError, match="unknown depth notion"):
            pointwise_depth_profile(fan_mfd, notion="bogus")

    @pytest.mark.parametrize("n_directions", [0, -3])
    def test_invalid_n_directions(self, fan_mfd, n_directions):
        # Checked before the kernel, as halfspace_depth and dirout_scores do.
        with pytest.raises(ValidationError, match="n_directions"):
            functional_depth(
                fan_mfd, fan_mfd, notion="halfspace", n_directions=n_directions
            )

    def test_reference_grid_mismatch(self, fan_mfd):
        other = MFDataGrid(fan_mfd.values[:, :-1, :], fan_mfd.grid[:-1])
        with pytest.raises(ValidationError):
            pointwise_depth_profile(fan_mfd, reference=other)


class TestAggregateDepth:
    def test_integral_averages(self):
        grid = np.linspace(0, 1, 11)
        profile = np.vstack([np.full(11, 0.5), np.linspace(0, 1, 11)])
        out = aggregate_depth(profile, grid, "integral")
        np.testing.assert_allclose(out, [0.5, 0.5], atol=1e-8)

    def test_infimum_takes_min(self):
        grid = np.linspace(0, 1, 11)
        profile = np.vstack([np.full(11, 0.5), np.linspace(0.1, 1, 11)])
        out = aggregate_depth(profile, grid, "infimum")
        np.testing.assert_allclose(out, [0.5, 0.1])

    def test_infimum_catches_isolated_dip(self):
        """Paper issue (2): an isolated outlier's single deep dip is
        masked by the integral but caught by the infimum."""
        grid = np.linspace(0, 1, 101)
        inlier = np.full(101, 0.45)
        isolated = np.full(101, 0.5)
        isolated[50] = 0.01  # extreme at a single point
        profile = np.vstack([inlier, isolated])
        integral = aggregate_depth(profile, grid, "integral")
        infimum = aggregate_depth(profile, grid, "infimum")
        assert integral[1] > integral[0]  # masked: looks deeper on average
        assert infimum[1] < infimum[0]  # caught by the infimum

    def test_unknown_aggregation(self):
        with pytest.raises(ValidationError):
            aggregate_depth(np.ones((2, 5)), np.linspace(0, 1, 5), "median")


class TestFunctionalDepth:
    def test_outlier_ranked_last(self, correlation_mfd):
        data, labels = correlation_mfd
        depth = functional_depth(data, notion="projection", random_state=0)
        # The correlation outliers have typical marginals: pointwise depth
        # in the joint R^2 cloud must still pull some of them down.
        assert depth[labels == 1].mean() < depth[labels == 0].mean()

    def test_reference_based_scoring(self, fan_mfd):
        ref = fan_mfd[:5]
        depth = functional_depth(fan_mfd, reference=ref, notion="mahalanobis")
        assert depth.shape == (7,)

    def test_rejects_raw_arrays(self):
        with pytest.raises(ValidationError):
            functional_depth(np.zeros((3, 5, 2)))


class TestUnivariateIntegratedDepth:
    def test_median_curve_deepest(self, band_curves):
        depth = univariate_integrated_depth(band_curves)
        assert depth.argmax() == 4  # the middle level

    def test_extremes_shallowest(self, band_curves):
        depth = univariate_integrated_depth(band_curves)
        assert depth.argmin() in (0, 8)


class TestModifiedBandDepth:
    def test_middle_curve_deepest(self, band_curves):
        depth = modified_band_depth(band_curves)
        assert depth.argmax() == 4

    def test_extreme_curves_shallowest(self, band_curves):
        depth = modified_band_depth(band_curves)
        assert set([depth.argmin()]) <= {0, 8}

    def test_exact_small_case(self):
        """Three constant curves at 0, 1, 2: middle one is inside the only
        band not involving it; each curve is always inside its own bands."""
        grid = np.linspace(0, 1, 5)
        data = FDataGrid(np.tile(np.array([0.0, 1.0, 2.0])[:, None], (1, 5)), grid)
        depth = modified_band_depth(data)
        # Bands: {0,1}, {0,2}, {1,2}. Curve 1 inside all 3; curves 0 and 2
        # inside the 2 bands containing them.
        np.testing.assert_allclose(depth, [2 / 3, 1.0, 2 / 3])

    def test_needs_two_reference_curves(self, band_curves):
        with pytest.raises(ValidationError):
            modified_band_depth(band_curves, reference=band_curves[0])

    def test_out_of_sample(self, band_curves):
        new = FDataGrid(np.full((1, 20), 4.2), band_curves.grid)
        depth = modified_band_depth(new, reference=band_curves)
        assert 0.0 < depth[0] <= 1.0

    def test_rank_count_matches_pairwise(self, rng):
        """The vectorized rank-count identity equals the explicit pair loop."""
        grid = np.linspace(0, 1, 17)
        data = FDataGrid(rng.standard_normal((12, 17)), grid)
        np.testing.assert_allclose(
            modified_band_depth(data),
            _modified_band_depth_pairwise(data),
            rtol=0, atol=1e-12,
        )

    def test_rank_count_matches_pairwise_with_ties_and_reference(self, rng):
        grid = np.linspace(0, 1, 9)
        # Quantized values force ties, the regime where strict/non-strict
        # inequalities in the identity must line up exactly.
        ref = FDataGrid(np.round(rng.standard_normal((15, 9)) * 2) / 2, grid)
        new = FDataGrid(np.round(rng.standard_normal((6, 9)) * 2) / 2, grid)
        np.testing.assert_allclose(
            modified_band_depth(new, reference=ref),
            _modified_band_depth_pairwise(new, reference=ref),
            rtol=0, atol=1e-12,
        )
