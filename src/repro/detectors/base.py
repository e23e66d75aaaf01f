"""Common interface for the multivariate outlier detectors.

All detectors follow the same contract:

* :meth:`fit(X)` learns the model from a (possibly contaminated)
  training matrix — unsupervised, as in the paper (Sec. 4.2);
* :meth:`score_samples(X)` returns an **outlyingness score per row,
  higher = more anomalous** (the orientation used for AUC in the
  experiments; note this is the opposite of scikit-learn's convention);
* :meth:`predict(X)` thresholds the scores into ``+1`` (inlier) /
  ``-1`` (outlier) using each algorithm's natural threshold or the
  ``contamination``-quantile of the training scores.
"""

from __future__ import annotations

import abc

import numpy as np

from repro.exceptions import NotFittedError, ValidationError
from repro.utils.validation import check_in_range, check_matrix

__all__ = ["OutlierDetector"]


class OutlierDetector(abc.ABC):
    """Abstract unsupervised outlier detector on vector data."""

    def __init__(self, contamination: float | None = None):
        if contamination is not None:
            contamination = check_in_range(
                contamination, 0.0, 0.5, "contamination", inclusive=(False, False)
            )
        self.contamination = contamination
        self._fitted = False
        self.threshold_: float | None = None
        self.n_features_: int | None = None

    # ------------------------------------------------------------------ hooks
    @abc.abstractmethod
    def _fit(self, X: np.ndarray) -> None:
        """Learn model state from the validated training matrix."""

    @abc.abstractmethod
    def _score(self, X: np.ndarray) -> np.ndarray:
        """Outlyingness scores (higher = more anomalous) for validated rows."""

    def _natural_threshold(self) -> float:
        """Algorithm-specific default decision threshold on the score scale."""
        raise NotImplementedError

    # ------------------------------------------------------------------ API
    def fit(self, X) -> "OutlierDetector":
        """Fit the detector on training rows (contaminated training allowed)."""
        X = check_matrix(X, "X")
        self._fit(X)
        return self._finish_fit(X)

    def _finish_fit(self, X: np.ndarray) -> "OutlierDetector":
        """Record the training width and the decision threshold after ``_fit``."""
        self.n_features_ = X.shape[1]
        self._fitted = True
        if self.contamination is not None:
            train_scores = self._score(X)
            self.threshold_ = float(
                np.quantile(train_scores, 1.0 - self.contamination)
            )
        else:
            try:
                self.threshold_ = float(self._natural_threshold())
            except NotImplementedError:
                self.threshold_ = None
        return self

    def _check_fitted_input(self, X) -> np.ndarray:
        if not self._fitted:
            raise NotFittedError(f"{type(self).__name__} must be fitted before scoring")
        X = check_matrix(X, "X")
        if X.shape[1] != self.n_features_:
            raise ValidationError(
                f"X has {X.shape[1]} features but the detector was fitted with "
                f"{self.n_features_}"
            )
        return X

    def score_samples(self, X) -> np.ndarray:
        """Outlyingness score per row — **higher means more anomalous**."""
        return self._score(self._check_fitted_input(X))

    def decision_function(self, X) -> np.ndarray:
        """Signed inlier-ness: ``threshold - score`` (positive = inlier)."""
        scores = self.score_samples(X)
        if self.threshold_ is None:
            raise NotFittedError(
                f"{type(self).__name__} has no decision threshold; "
                "set contamination to enable predict/decision_function"
            )
        return self.threshold_ - scores

    def predict(self, X) -> np.ndarray:
        """Label rows ``+1`` (inlier) or ``-1`` (outlier)."""
        return np.where(self.decision_function(X) >= 0.0, 1, -1)

    def fit_predict(self, X) -> np.ndarray:
        """Fit on ``X`` and label the same rows."""
        return self.fit(X).predict(X)

    # ------------------------------------------------------------------ state
    def _export_config(self) -> dict:
        """JSON-able constructor kwargs that recreate this detector unfitted.

        Subclasses extend the base dict with their own hyper-parameters;
        every key must be accepted by ``__init__``.
        """
        return {"contamination": self.contamination}

    def _export_fitted(self) -> dict:
        """Subclass hook: the fitted model state as a flat dict.

        Values must be NumPy arrays or JSON-able scalars — nothing that
        would require pickling (no callables, no nested objects).  The
        inverse is :meth:`_import_fitted`.
        """
        raise NotImplementedError(
            f"{type(self).__name__} does not support state export"
        )

    def _import_fitted(self, state: dict) -> None:
        """Subclass hook: install the dict produced by :meth:`_export_fitted`."""
        raise NotImplementedError(
            f"{type(self).__name__} does not support state import"
        )

    def export_state(self) -> dict:
        """Full state of a fitted detector as arrays + JSON-able scalars.

        Returns ``{"type", "config", "threshold", "n_features", "fitted"}``
        where ``fitted`` is the subclass's :meth:`_export_fitted` dict.
        The result round-trips through :meth:`from_state` with
        bit-identical scores and contains no pickled code, so it can be
        written to ``.npz`` + JSON by :mod:`repro.serving.persist`.
        """
        if not self._fitted:
            raise NotFittedError(
                f"{type(self).__name__} must be fitted before exporting state"
            )
        return {
            "type": type(self).__name__,
            "config": self._export_config(),
            "threshold": self.threshold_,
            "n_features": self.n_features_,
            "fitted": self._export_fitted(),
        }

    @classmethod
    def from_state(cls, state: dict) -> "OutlierDetector":
        """Rebuild a fitted detector from :meth:`export_state` output.

        Call on the concrete class named by ``state["type"]`` (or use
        :func:`repro.detectors.detector_from_state`, which dispatches).
        """
        if not isinstance(state, dict) or "config" not in state or "fitted" not in state:
            raise ValidationError(
                f"detector state must be a dict with 'config' and 'fitted' keys, "
                f"got {type(state).__name__}"
            )
        declared = state.get("type")
        if declared is not None and declared != cls.__name__:
            raise ValidationError(
                f"state was exported from {declared!r} but is being restored "
                f"as {cls.__name__!r}"
            )
        detector = cls(**state["config"])
        n_features = state.get("n_features")
        detector.n_features_ = None if n_features is None else int(n_features)
        detector._import_fitted(state["fitted"])
        threshold = state.get("threshold")
        detector.threshold_ = None if threshold is None else float(threshold)
        detector._fitted = True
        return detector
