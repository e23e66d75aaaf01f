"""Drift-aware online thresholds for unbounded score streams.

Two quantile trackers back the streaming decision boundary:

* :class:`~repro.detectors.threshold.StreamingQuantileThreshold`
  (re-exported here) — the *exact* tracker: a ring buffer of the last
  ``capacity`` scores whose quantile is re-read after every update.
  Memory is O(capacity); the threshold reflects exactly the trailing
  window, so it forgets old regimes at the window rate.
* :class:`SketchQuantileThreshold` over a :class:`QuantileSketch` — a
  t-digest-style centroid sketch summarizing the *whole* stream in
  O(``compression``) memory; exact until compression kicks in, then
  rank-accurate.  Use it when the threshold should average over the
  full history rather than a trailing window.

Both expose the same ``update(scores) -> float`` / ``value`` /
``ready`` / ``reset()`` surface, which is the threshold contract
:class:`~repro.streaming.online.StreamingDetector` consumes;
:func:`make_threshold` builds either flavour from a config string.
"""

from __future__ import annotations

import numpy as np

from repro.detectors.threshold import LearnedThreshold, StreamingQuantileThreshold
from repro.exceptions import ConfigurationError, ValidationError
from repro.utils.validation import as_float_array, check_in_range, check_int

__all__ = [
    "THRESHOLD_MODES",
    "StreamingQuantileThreshold",
    "QuantileSketch",
    "SketchQuantileThreshold",
    "make_threshold",
]

#: The ``mode`` strings :func:`make_threshold` accepts.
THRESHOLD_MODES = ("window", "sketch")


class QuantileSketch:
    """Quantile sketch: sorted weighted centroids, t-digest style.

    The state is a multiset of ``(mean, weight)`` centroids sorted by
    mean (then weight).  New observations enter as weight-1 singletons;
    once the centroid count exceeds ``compression``, adjacent centroids
    are folded into ``compression`` equal-weight buckets.  While
    ``n_seen <= compression`` every centroid is a singleton and
    :meth:`quantile` returns ``np.quantile`` of the observations, bit
    for bit.

    Unlike the ring tracker this summarizes the *whole* stream in
    O(``compression``) memory.
    """

    def __init__(self, compression: int = 256):
        self.compression = check_int(compression, "compression", minimum=8)
        self._means = np.empty(0)
        self._weights = np.empty(0)
        self.n_seen = 0

    # ------------------------------------------------------------------ state
    def _canonicalize(self, means: np.ndarray, weights: np.ndarray) -> None:
        order = np.lexsort((weights, means))
        means, weights = means[order], weights[order]
        if means.size > self.compression:
            total = weights.sum()
            cum = np.cumsum(weights)
            # Bucket by the centroid's cumulative-weight midpoint.
            mid = cum - weights / 2.0
            bucket = np.minimum(
                (mid / total * self.compression).astype(np.int64),
                self.compression - 1,
            )
            folded_w = np.bincount(bucket, weights=weights,
                                   minlength=self.compression)
            folded_m = np.bincount(bucket, weights=weights * means,
                                   minlength=self.compression)
            keep = folded_w > 0
            means = folded_m[keep] / folded_w[keep]
            weights = folded_w[keep]
        self._means, self._weights = means, weights

    def update(self, values) -> None:
        """Fold observations in (weight-1 centroids, then re-canonicalize)."""
        values = np.atleast_1d(as_float_array(values, "values")).ravel()
        if values.size == 0:
            return
        self.n_seen += values.size
        self._canonicalize(
            np.concatenate([self._means, values]),
            np.concatenate([self._weights, np.ones(values.size)]),
        )

    # ------------------------------------------------------------------ queries
    @property
    def ready(self) -> bool:
        return self.n_seen >= 1

    def quantile(self, q: float) -> float:
        """Estimated ``q``-quantile (exact while uncompressed)."""
        q = check_in_range(q, 0.0, 1.0, "q", inclusive=(True, True))
        if self.n_seen == 0:
            raise ValidationError("QuantileSketch has seen no observations")
        if self._means.size == self.n_seen:
            # All singletons: defer to np.quantile for bit-exactness with
            # the batch path (its >= 0.5 lerp branch differs from interp).
            return float(np.quantile(self._means, q))
        cum = np.cumsum(self._weights)
        centers = cum - (self._weights + 1.0) / 2.0
        pos = q * (cum[-1] - 1.0)
        return float(np.interp(pos, centers, self._means))

    def reset(self) -> None:
        self._means = np.empty(0)
        self._weights = np.empty(0)
        self.n_seen = 0

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"QuantileSketch(compression={self.compression}, "
            f"centroids={self._means.size}, n_seen={self.n_seen})"
        )


class SketchQuantileThreshold:
    """Whole-stream threshold over a :class:`QuantileSketch`.

    Same surface as :class:`StreamingQuantileThreshold`, so detectors
    can swap trackers freely.
    """

    def __init__(self, contamination: float, compression: int = 256):
        self.contamination = check_in_range(
            contamination, 0.0, 0.5, "contamination", inclusive=(False, False)
        )
        self.sketch = QuantileSketch(compression)

    @property
    def ready(self) -> bool:
        return self.sketch.n_seen >= 2

    @property
    def n_seen(self) -> int:
        return self.sketch.n_seen

    @property
    def value(self) -> float:
        if not self.ready:
            raise ValidationError(
                "need at least 2 scores before a quantile threshold exists"
            )
        return self.sketch.quantile(1.0 - self.contamination)

    def update(self, scores) -> float | None:
        self.sketch.update(scores)
        return self.value if self.ready else None

    def learned(self) -> LearnedThreshold:
        return LearnedThreshold(
            value=self.value, criterion="quantile-sketch", objective=self.contamination
        )

    def reset(self) -> None:
        self.sketch.reset()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"SketchQuantileThreshold(contamination={self.contamination}, "
            f"n_seen={self.n_seen})"
        )


def make_threshold(
    contamination: float, mode: str = "window", capacity: int = 1024
):
    """Build a streaming threshold tracker from a config string.

    ``mode="window"`` → the exact ring-buffer tracker (memory
    O(``capacity``), trailing-window semantics); ``mode="sketch"`` → the
    centroid sketch over the whole stream.
    """
    if mode == "window":
        return StreamingQuantileThreshold(contamination, capacity=check_int(
            capacity, "capacity", minimum=2))
    if mode == "sketch":
        return SketchQuantileThreshold(contamination)
    raise ConfigurationError(
        f"unknown threshold mode {mode!r}; use one of {THRESHOLD_MODES}"
    )
