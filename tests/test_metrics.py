"""Unit tests for the ROC AUC."""

import numpy as np
import pytest

from repro.evaluation.metrics import roc_auc
from repro.exceptions import ValidationError


def _roc_points(scores, labels):
    """Tie-collapsed ROC curve ``(fpr, tpr)``, from (0, 0) to (1, 1)."""
    order = np.argsort(-scores, kind="mergesort")
    sorted_labels = labels[order]
    cut = np.r_[np.nonzero(np.diff(scores[order]))[0], labels.shape[0] - 1]
    tps = np.cumsum(sorted_labels)[cut]
    fps = (cut + 1) - tps
    return np.r_[0.0, fps / (labels.shape[0] - labels.sum())], np.r_[0.0, tps / labels.sum()]


class TestRocAuc:
    def test_perfect(self):
        assert roc_auc([0.1, 0.2, 0.9], [0, 0, 1]) == 1.0

    def test_inverted(self):
        assert roc_auc([0.9, 0.8, 0.1], [0, 0, 1]) == 0.0

    def test_random_half(self, rng):
        scores = rng.uniform(size=10000)
        labels = (rng.uniform(size=10000) < 0.5).astype(int)
        assert roc_auc(scores, labels) == pytest.approx(0.5, abs=0.03)

    def test_ties_midrank(self):
        # All scores equal -> AUC exactly 0.5 by midrank convention.
        assert roc_auc([1.0, 1.0, 1.0, 1.0], [0, 1, 0, 1]) == 0.5

    def test_matches_trapezoid_integration(self, rng):
        scores = rng.standard_normal(200)
        labels = (rng.uniform(size=200) < 0.25).astype(int)
        labels[0] = 1
        labels[1] = 0
        fpr, tpr = _roc_points(scores, labels)
        trapezoid = np.trapezoid(tpr, fpr)
        assert roc_auc(scores, labels) == pytest.approx(trapezoid, abs=1e-10)

    def test_invariant_to_monotone_transform(self, rng):
        scores = rng.uniform(1, 2, size=100)
        labels = (rng.uniform(size=100) < 0.3).astype(int)
        labels[:2] = [0, 1]
        a1 = roc_auc(scores, labels)
        a2 = roc_auc(np.log(scores), labels)
        assert a1 == pytest.approx(a2, abs=1e-12)

    def test_single_class_rejected(self):
        with pytest.raises(ValidationError):
            roc_auc([0.1, 0.2], [1, 1])

    def test_nonbinary_rejected(self):
        with pytest.raises(ValidationError):
            roc_auc([0.1, 0.2], [0, 2])

    def test_length_mismatch(self):
        with pytest.raises(ValidationError):
            roc_auc([0.1], [0, 1])
