"""Unit tests for the FUNTA baseline."""

import numpy as np
import pytest

from repro.depth.funta import funta_depth, funta_outlyingness
from repro.exceptions import ValidationError
from repro.fda.fdata import FDataGrid, MFDataGrid

from oracles import _crossing_angles


@pytest.fixture
def crossing_lines():
    """Curves through the origin with different slopes: all cross at 0.5."""
    grid = np.linspace(0, 1, 41)
    slopes = np.array([1.0, 1.1, 0.9, 1.05, 0.95])
    values = slopes[:, None] * (grid[None, :] - 0.5)
    return FDataGrid(values, grid)


class TestCrossingAngles:
    def test_known_angle(self):
        grid = np.linspace(0, 1, 101)
        a = grid - 0.5          # slope 1
        b = -(grid - 0.5)       # slope -1
        angles = _crossing_angles(a, b, grid)
        assert angles.shape[0] >= 1
        np.testing.assert_allclose(angles, np.pi / 2, atol=1e-6)

    def test_parallel_no_crossing(self):
        grid = np.linspace(0, 1, 11)
        angles = _crossing_angles(grid, grid + 1.0, grid)
        assert angles.size == 0

    def test_shallow_crossing_small_angle(self):
        grid = np.linspace(0, 1, 101)
        a = grid - 0.5
        b = 1.02 * (grid - 0.5)
        angles = _crossing_angles(a, b, grid)
        assert (angles < 0.05).all()

    def test_angles_in_range(self, rng):
        grid = np.linspace(0, 1, 51)
        a = rng.standard_normal(51).cumsum() / 10
        b = rng.standard_normal(51).cumsum() / 10
        angles = _crossing_angles(a, b, grid)
        assert ((angles >= 0) & (angles <= np.pi / 2 + 1e-12)).all()


class TestFuntaDepth:
    def test_similar_slopes_deep(self, crossing_lines):
        depth = funta_depth(crossing_lines)
        assert (depth > 0.9).all()

    def test_shape_outlier_shallow(self, crossing_lines):
        grid = crossing_lines.grid
        outlier = -1.0 * (grid - 0.5)  # opposite slope: steep crossings
        values = np.vstack([crossing_lines.values, outlier[None, :]])
        depth = funta_depth(FDataGrid(values, grid))
        assert depth.argmin() == 5

    def test_range(self, crossing_lines):
        depth = funta_depth(crossing_lines)
        assert ((depth >= 0) & (depth <= 1)).all()

    def test_non_crossing_curve_penalized(self, crossing_lines):
        grid = crossing_lines.grid
        isolated = np.full((1, grid.shape[0]), 10.0)  # never crosses anyone
        values = np.vstack([crossing_lines.values, isolated])
        depth = funta_depth(FDataGrid(values, grid))
        assert depth[5] == pytest.approx(0.0, abs=1e-9)

    def test_reference_based(self, crossing_lines):
        test = FDataGrid(crossing_lines.values[:2], crossing_lines.grid)
        depth = funta_depth(test, reference=crossing_lines)
        assert depth.shape == (2,)

    def test_multivariate_averages_parameters(self, crossing_lines):
        mfd = MFDataGrid(
            np.stack([crossing_lines.values, crossing_lines.values], axis=2),
            crossing_lines.grid,
        )
        d_mfd = funta_depth(mfd)
        d_ufd = funta_depth(crossing_lines)
        np.testing.assert_allclose(d_mfd, d_ufd, atol=1e-12)

    def test_trim_reduces_influence_of_extreme_angles(self, crossing_lines):
        grid = crossing_lines.grid
        spiky = crossing_lines.values.copy()
        spiky[0, 20] += 3.0  # one violent crossing for curve 0
        data = FDataGrid(spiky, grid)
        plain = funta_depth(data)[0]
        trimmed = funta_depth(data, trim=0.2)[0]
        assert trimmed >= plain

    def test_needs_two_curves(self, crossing_lines):
        with pytest.raises(ValidationError):
            funta_depth(crossing_lines[0])

    def test_invalid_trim(self, crossing_lines):
        with pytest.raises(ValidationError):
            funta_depth(crossing_lines, trim=0.9)

    def test_rejects_arrays(self):
        with pytest.raises(ValidationError):
            funta_depth(np.zeros((3, 10)))


class TestFuntaOutlyingness:
    def test_complement_of_depth(self, crossing_lines):
        np.testing.assert_allclose(
            funta_outlyingness(crossing_lines), 1.0 - funta_depth(crossing_lines)
        )
