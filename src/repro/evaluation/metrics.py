"""The ranking metric computed from outlyingness scores.

The paper's evaluation metric is the area under the ROC curve of the
outlyingness scores against the ground-truth labels (Sec. 4.1).  It
takes scores oriented "higher = more anomalous" and labels with
1 = outlier (positive class).
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import ValidationError
from repro.utils.validation import as_float_array

__all__ = ["roc_auc"]


def _check_scores_labels(scores, labels) -> tuple[np.ndarray, np.ndarray]:
    scores = as_float_array(scores, "scores")
    labels = np.asarray(labels)
    if scores.ndim != 1 or labels.ndim != 1:
        raise ValidationError("scores and labels must be one-dimensional")
    if scores.shape[0] != labels.shape[0]:
        raise ValidationError(
            f"scores ({scores.shape[0]}) and labels ({labels.shape[0]}) lengths differ"
        )
    unique = np.unique(labels)
    if not np.all(np.isin(unique, (0, 1))):
        raise ValidationError(f"labels must be binary 0/1, got values {unique}")
    if unique.shape[0] < 2:
        raise ValidationError("labels must contain both classes for ranking metrics")
    return scores, labels.astype(int)


def roc_auc(scores, labels) -> float:
    """Area under the ROC curve.

    Computed via the Mann–Whitney U statistic with midrank tie
    handling — identical to trapezoidal integration of the tie-collapsed
    ROC curve, but O(n log n) and numerically exact.
    """
    scores, labels = _check_scores_labels(scores, labels)
    order = np.argsort(scores, kind="mergesort")
    ranks = np.empty_like(scores)
    sorted_scores = scores[order]
    ranks_sorted = np.arange(1, scores.shape[0] + 1, dtype=np.float64)
    # Midranks for ties.
    i = 0
    n = scores.shape[0]
    while i < n:
        j = i
        while j + 1 < n and sorted_scores[j + 1] == sorted_scores[i]:
            j += 1
        if j > i:
            ranks_sorted[i : j + 1] = 0.5 * (i + 1 + j + 1)
        i = j + 1
    ranks[order] = ranks_sorted
    n_pos = labels.sum()
    n_neg = n - n_pos
    u = ranks[labels == 1].sum() - n_pos * (n_pos + 1) / 2.0
    return float(u / (n_pos * n_neg))
