"""Unsupervised hyper-parameter tuning.

The paper tunes the OCSVM ν "on the training set with a 5-fold cross
validation" (Sec. 4.3) — without labels, since the setting is fully
unsupervised.  We implement the natural self-consistency criterion that
matches the paper's reading of ν as "an estimate of the contamination
level in the training set": for each candidate ν, fit on k-1 folds and
measure the fraction of held-out points flagged as outliers; the score
is the absolute gap between that fraction and ν itself.  At the true
contamination level the ν-property makes the held-out rejection rate
track ν closely; past it, the frontier tightens and the rejection rate
overshoots — exactly the behaviour that makes ν "hard to tune as c
increases" (the paper's explanation for OCSVM's degradation).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.detectors.ocsvm import OneClassSVM, fit_shared_gram
from repro.evaluation.splits import kfold_indices
from repro.exceptions import ValidationError
from repro.utils.random import check_random_state
from repro.utils.validation import check_int, check_matrix

__all__ = ["TuningResult", "tune_nu"]


@dataclass(frozen=True)
class TuningResult:
    """Outcome of an unsupervised hyper-parameter sweep."""

    best: object
    scores: dict

    def __post_init__(self):
        if not self.scores:
            raise ValidationError("TuningResult needs at least one candidate")


def tune_nu(
    X,
    candidates: Sequence[float] = (0.02, 0.05, 0.10, 0.15, 0.20, 0.25, 0.30),
    n_folds: int = 5,
    kernel: str = "rbf",
    gamma="scale",
    random_state=None,
) -> TuningResult:
    """Pick ν by the 5-fold self-consistency criterion (see module doc).

    Returns the :class:`TuningResult` whose ``best`` minimizes the mean
    absolute gap between ν and the held-out rejection rate.  Per fold,
    every ν candidate is fitted on one shared Gram matrix of the fold's
    training rows (:func:`~repro.detectors.ocsvm.fit_shared_gram`).  A
    bad ν, kernel or gamma raises :class:`ValidationError`; a fold with
    too few training rows to fit scores a gap of 1 for every candidate.
    """
    X = check_matrix(X, "X")
    n_folds = check_int(n_folds, "n_folds", minimum=2)
    if not candidates:
        raise ValidationError("need at least one nu candidate")
    models = [OneClassSVM(nu=float(nu), kernel=kernel, gamma=gamma) for nu in candidates]
    rng = check_random_state(random_state)
    folds = kfold_indices(X.shape[0], n_folds=n_folds, random_state=rng)
    gaps = [[] for _ in models]
    for train_idx, valid_idx in folds:
        try:
            fit_shared_gram(models, X[train_idx])
        except ValidationError:
            for model_gaps in gaps:
                model_gaps.append(1.0)
            continue
        valid = X[valid_idx]
        for model, model_gaps in zip(models, gaps):
            rejected = float(np.mean(model.raw_decision(valid) < 0.0))
            model_gaps.append(abs(rejected - model.nu))
    scores = {model.nu: float(np.mean(model_gaps)) for model, model_gaps in zip(models, gaps)}
    best = min(scores, key=scores.get)
    return TuningResult(best=best, scores=scores)
