"""Unit tests for threshold learning (paper Sec. 4.2)."""

import numpy as np
import pytest

from repro.detectors.threshold import LearnedThreshold, threshold_from_quantile
from repro.exceptions import ValidationError


@pytest.fixture
def separable():
    scores = np.array([0.1, 0.2, 0.3, 0.4, 0.8, 0.9])
    labels = np.array([0, 0, 0, 0, 1, 1])
    return scores, labels


@pytest.fixture
def overlapping(rng):
    inlier_scores = rng.normal(0.0, 1.0, 200)
    outlier_scores = rng.normal(2.5, 1.0, 40)
    scores = np.concatenate([inlier_scores, outlier_scores])
    labels = np.r_[np.zeros(200, int), np.ones(40, int)]
    return scores, labels


class TestThresholdFromQuantile:
    def test_flags_target_fraction(self, rng):
        scores = rng.standard_normal(1000)
        learned = threshold_from_quantile(scores, 0.1)
        flagged = np.mean(learned.predict(scores) == -1)
        assert flagged == pytest.approx(0.1, abs=0.01)

    def test_contamination_bounds(self, rng):
        with pytest.raises(ValidationError):
            threshold_from_quantile(rng.standard_normal(10), 0.7)

    def test_needs_two_scores(self):
        with pytest.raises(ValidationError):
            threshold_from_quantile(np.array([1.0]), 0.1)


class TestLearnedThreshold:
    def test_predict_orientation(self):
        learned = LearnedThreshold(value=0.5, criterion="manual", objective=0.0)
        np.testing.assert_array_equal(
            learned.predict([0.4, 0.6]), np.array([1, -1])
        )
