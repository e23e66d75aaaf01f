"""Unit tests for the directional outlyingness (Dir.out) baseline."""

import numpy as np
import pytest

from repro.depth.dirout import (
    DirectionalOutlyingness,
    directional_outlyingness,
    dirout_scores,
)
from repro.exceptions import ValidationError
from repro.fda.fdata import FDataGrid, MFDataGrid

from oracles import _spatial_median


@pytest.fixture
def shifted_population(rng):
    """19 curves near sin plus one magnitude outlier (constant +3 shift)."""
    grid = np.linspace(0, 1, 40)
    base = np.sin(2 * np.pi * grid)
    values = base[None, :] + 0.1 * rng.standard_normal((20, 40))
    values[19] = base + 3.0
    return FDataGrid(values, grid)


@pytest.fixture
def shape_population(rng):
    """19 near-sin curves plus one frequency (shape) outlier."""
    grid = np.linspace(0, 1, 40)
    base = np.sin(2 * np.pi * grid)
    values = base[None, :] + 0.1 * rng.standard_normal((20, 40))
    values[19] = np.sin(6 * np.pi * grid)
    return FDataGrid(values, grid)


class TestSpatialMedian:
    def test_symmetric_cloud(self, rng):
        cloud = rng.standard_normal((500, 2))
        med = _spatial_median(cloud)
        assert np.linalg.norm(med) < 0.2

    def test_collinear_points(self):
        cloud = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
        med = _spatial_median(cloud)
        assert med[0] == pytest.approx(1.0, abs=1e-6)


class TestDirectionalOutlyingness:
    def test_shapes(self, shifted_population):
        out = directional_outlyingness(shifted_population, random_state=0)
        assert isinstance(out, DirectionalOutlyingness)
        assert out.mean.shape == (20, 1)
        assert out.variation.shape == (20,)
        assert out.total.shape == (20,)

    def test_total_decomposition(self, shifted_population):
        """FO = |MO|^2 + VO by construction."""
        out = directional_outlyingness(shifted_population, random_state=0)
        np.testing.assert_allclose(
            out.total, np.sum(out.mean**2, axis=1) + out.variation, atol=1e-10
        )

    def test_magnitude_outlier_high_mo_low_vo(self, shifted_population):
        """A constant shift is pure magnitude outlyingness: it must show
        in MO, not VO (the Dai-Genton class separation)."""
        out = directional_outlyingness(shifted_population, random_state=0)
        mo_mag = out.mean_magnitude
        assert mo_mag.argmax() == 19
        # For a pure shift the mean component dominates the variation
        # component, unlike for inliers (the class-separation property).
        ratio = np.sum(out.mean**2, axis=1) / np.maximum(out.variation, 1e-12)
        assert ratio[19] > 10 * ratio[:19].max()

    def test_shape_outlier_high_vo(self, shape_population):
        """A frequency outlier swings direction: dominant VO component."""
        out = directional_outlyingness(shape_population, random_state=0)
        assert out.variation.argmax() == 19

    def test_mfd_input(self, correlation_mfd):
        data, labels = correlation_mfd
        out = directional_outlyingness(data, random_state=0)
        assert out.mean.shape == (data.n_samples, 2)

    def test_reference_based(self, shifted_population):
        ref = shifted_population[:10]
        out = directional_outlyingness(shifted_population, reference=ref, random_state=0)
        assert out.total.shape == (20,)

    def test_grid_mismatch(self, shifted_population):
        bad_ref = FDataGrid(
            shifted_population.values[:, :-1], shifted_population.grid[:-1]
        )
        with pytest.raises(ValidationError):
            directional_outlyingness(shifted_population, reference=bad_ref)

    def test_rejects_arrays(self):
        with pytest.raises(ValidationError):
            directional_outlyingness(np.zeros((3, 5)))


class TestDiroutScores:
    def test_total_ranks_outlier_first(self, shifted_population):
        scores = dirout_scores(shifted_population, random_state=0)
        assert scores.argmax() == 19

    def test_mahalanobis_variant(self, shifted_population):
        scores = dirout_scores(shifted_population, method="mahalanobis", random_state=0)
        assert scores.argmax() == 19
        assert (scores >= 0).all()

    def test_unknown_method(self, shifted_population):
        with pytest.raises(ValidationError):
            dirout_scores(shifted_population, method="sum")

    def test_detects_shape_outlier(self, shape_population):
        scores = dirout_scores(shape_population, random_state=0)
        assert scores.argmax() == 19
