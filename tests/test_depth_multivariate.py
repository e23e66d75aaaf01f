"""Unit tests for the pointwise depth notions on R^p point clouds.

The ``cloud_depth`` fixture (``conftest.py``) reads one column of
:func:`~repro.depth.functional.pointwise_depth_profile`.
"""

import numpy as np
import pytest

from repro.depth import _kernels


def stahel_donoho_outlyingness(points, reference, **kwargs):
    """The batched SDO kernel on ``points``/``reference`` at two grid points."""
    def cube(cloud):
        return np.repeat(np.asarray(cloud, dtype=np.float64)[:, None, :], 2, axis=1)

    return _kernels.batched_stahel_donoho(cube(points), cube(reference), **kwargs)[:, 0]


@pytest.fixture
def cloud(rng):
    return rng.standard_normal((200, 2))


def _center_ranks_higher(cloud_depth, notion, cloud, **kwargs):
    center = np.zeros((1, cloud.shape[1]))
    far = np.full((1, cloud.shape[1]), 5.0)
    d = cloud_depth(notion, np.vstack([center, far]), cloud, **kwargs)
    return d[0], d[1]


class TestStahelDonoho:
    def test_exact_univariate(self):
        ref = np.arange(1.0, 12.0)[:, None]  # median 6, MAD = 3*1.4826
        out = stahel_donoho_outlyingness(np.array([[6.0], [12.0]]), ref)
        assert out[0] == pytest.approx(0.0)
        assert out[1] == pytest.approx(6.0 / (3 * 1.4826), rel=1e-6)

    def test_monotone_along_ray(self, cloud):
        pts = np.array([[0.0, 0.0], [1.0, 1.0], [3.0, 3.0], [6.0, 6.0]])
        out = stahel_donoho_outlyingness(pts, cloud, random_state=0)
        assert (np.diff(out) > 0).all()

    def test_degenerate_direction_guarded(self):
        """A reference cloud constant in one coordinate must not divide
        by a zero MAD."""
        ref = np.column_stack([np.arange(20.0), np.zeros(20)])
        out = stahel_donoho_outlyingness(np.array([[0.0, 5.0]]), ref, random_state=0)
        assert np.isfinite(out).all()


class TestProjectionDepth:
    def test_reciprocal_relation(self, cloud_depth, cloud):
        pts = cloud[:5]
        sdo = stahel_donoho_outlyingness(pts, cloud, random_state=1)
        pd = cloud_depth("projection", pts, cloud, random_state=1)
        np.testing.assert_allclose(pd, 1.0 / (1.0 + sdo))

    def test_center_deeper(self, cloud_depth, cloud):
        d_center, d_far = _center_ranks_higher(cloud_depth, "projection", cloud, random_state=0)
        assert d_center > d_far


class TestHalfspaceDepth:
    def test_univariate_exact(self, cloud_depth):
        ref = np.arange(10.0)[:, None]
        d = cloud_depth("halfspace", np.array([[0.0], [4.5], [9.0]]), ref)
        assert d[0] == pytest.approx(0.1)
        assert d[1] == pytest.approx(0.5)
        assert d[2] == pytest.approx(0.1)

    def test_max_half(self, cloud_depth, cloud):
        d = cloud_depth("halfspace", cloud, cloud, random_state=0)
        assert d.max() <= 0.5 + 1e-12

    def test_far_point_depth_zero(self, cloud_depth, cloud):
        d = cloud_depth("halfspace", np.array([[50.0, 50.0]]), cloud, random_state=0)
        assert d[0] == pytest.approx(0.0)

    def test_center_deeper(self, cloud_depth, cloud):
        d_center, d_far = _center_ranks_higher(cloud_depth, "halfspace", cloud, random_state=0)
        assert d_center > d_far


class TestSpatialDepth:
    def test_center_near_one(self, cloud_depth, cloud):
        d = cloud_depth("spatial", np.zeros((1, 2)), cloud)
        assert d[0] > 0.9

    def test_far_point_near_zero(self, cloud_depth, cloud):
        d = cloud_depth("spatial", np.array([[100.0, 0.0]]), cloud)
        assert d[0] < 0.05

    def test_point_in_reference_handled(self, cloud_depth, cloud):
        d = cloud_depth("spatial", cloud[:3], cloud)
        assert np.isfinite(d).all()
