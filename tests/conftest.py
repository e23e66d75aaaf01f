"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.data.ecg import make_ecg_dataset
from repro.data.synthetic import make_taxonomy_dataset
from repro.fda.fdata import FDataGrid, MFDataGrid


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def unit_grid():
    return np.linspace(0.0, 1.0, 85)


@pytest.fixture
def sine_curves(unit_grid, rng):
    """20 noisy sine curves on a common grid (UFD)."""
    true = np.sin(2 * np.pi * unit_grid)
    values = true[None, :] + 0.05 * rng.standard_normal((20, unit_grid.shape[0]))
    return FDataGrid(values, unit_grid)


@pytest.fixture
def circle_mfd(rng):
    """15 noisy circles of radius 2 in R^2 (MFD) — curvature 1/2."""
    grid = np.linspace(0.0, 2.0 * np.pi, 101)
    x = 2.0 * np.cos(grid)[None, :] + 0.01 * rng.standard_normal((15, 101))
    y = 2.0 * np.sin(grid)[None, :] + 0.01 * rng.standard_normal((15, 101))
    return MFDataGrid(np.stack([x, y], axis=2), grid)


@pytest.fixture
def gaussian_cloud(rng):
    """2-D standard-normal cloud with a handful of far outliers."""
    inliers = rng.standard_normal((150, 2))
    outliers = rng.uniform(4.0, 6.0, size=(8, 2)) * rng.choice([-1.0, 1.0], size=(8, 2))
    X = np.vstack([inliers, outliers])
    y = np.concatenate([np.zeros(150, dtype=int), np.ones(8, dtype=int)])
    return X, y


@pytest.fixture(scope="session")
def small_ecg():
    """A small ECG substitute data set shared by integration-style tests."""
    data, labels, tags = make_ecg_dataset(n_normal=40, n_abnormal=20, random_state=3)
    return data, labels, tags


@pytest.fixture(scope="session")
def correlation_mfd():
    """Synthetic MFD whose outliers break cross-parameter correlation."""
    data, labels = make_taxonomy_dataset(
        "correlation", n_inliers=40, n_outliers=6, random_state=11
    )
    return data, labels


@pytest.fixture(scope="session")
def cloud_depth():
    """``cloud_depth(notion, points, reference, **kw)``: pointwise depth of
    ``points`` in the R^p cloud ``reference``.

    Both clouds sit at the two points of a two-point grid, so one column
    of :func:`~repro.depth.functional.pointwise_depth_profile` is the
    depth of the points in that cloud.
    """
    from repro.depth.functional import pointwise_depth_profile

    grid = np.array([0.0, 1.0])

    def cube(points):
        points = np.asarray(points, dtype=np.float64)
        return MFDataGrid(np.repeat(points[:, None, :], 2, axis=1), grid)

    def depth(notion, points, reference, **kwargs):
        return pointwise_depth_profile(cube(points), cube(reference), notion, **kwargs)[:, 0]

    return depth
