"""Unit tests for repro.utils.linalg."""

import numpy as np
import pytest

from repro.exceptions import ValidationError
from repro.utils.linalg import pairwise_sq_dists, symmetrize


class TestSymmetrize:
    def test_symmetric_output(self):
        A = np.array([[1.0, 2.0], [0.0, 1.0]])
        S = symmetrize(A)
        np.testing.assert_allclose(S, S.T)
        np.testing.assert_allclose(S, [[1.0, 1.0], [1.0, 1.0]])

    def test_rejects_nonsquare(self):
        with pytest.raises(ValidationError):
            symmetrize(np.ones((2, 3)))


class TestPairwiseSqDists:
    def test_against_naive(self, rng):
        a = rng.standard_normal((7, 3))
        b = rng.standard_normal((4, 3))
        fast = pairwise_sq_dists(a, b)
        naive = ((a[:, None, :] - b[None, :, :]) ** 2).sum(axis=2)
        np.testing.assert_allclose(fast, naive, atol=1e-10)

    def test_self_distances_zero_diag(self, rng):
        a = rng.standard_normal((5, 2))
        d = pairwise_sq_dists(a)
        np.testing.assert_allclose(np.diag(d), 0.0, atol=1e-10)

    def test_nonnegative(self, rng):
        a = rng.standard_normal((50, 4)) * 1e-8
        assert (pairwise_sq_dists(a) >= 0).all()

    def test_dimension_mismatch(self, rng):
        with pytest.raises(ValidationError):
            pairwise_sq_dists(rng.standard_normal((3, 2)), rng.standard_normal((3, 4)))

    def test_rejects_1d(self):
        with pytest.raises(ValidationError):
            pairwise_sq_dists(np.array([1.0, 2.0]))
