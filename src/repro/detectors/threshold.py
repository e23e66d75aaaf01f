"""Turning outlyingness scores into decisions (paper Sec. 4.2).

The detection methods output a *score* per sample; deployment needs a
*decision*.  :func:`threshold_from_quantile` is the unsupervised route:
flag the top ``contamination`` fraction of *unlabelled* scores.

For unbounded score streams, :class:`StreamingQuantileThreshold` keeps
the quantile route online: it holds the last ``capacity`` scores in a
ring buffer and re-reads the threshold after every
:meth:`~StreamingQuantileThreshold.update`.  The batch
:func:`threshold_from_quantile` delegates to it (one full-window
update), so the batch and streaming paths share a single quantile
implementation and agree bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.exceptions import ValidationError
from repro.utils.validation import as_float_array, check_in_range, check_int

__all__ = [
    "LearnedThreshold",
    "StreamingQuantileThreshold",
    "threshold_from_quantile",
]


@dataclass(frozen=True)
class LearnedThreshold:
    """A decision threshold on the outlyingness-score scale.

    Attributes
    ----------
    value:
        The cut point: samples with ``score > value`` are flagged.
    criterion:
        Name of the selection criterion (``"quantile"`` or
        ``"quantile-sketch"``).
    objective:
        The criterion's parameter (the contamination level).
    """

    value: float
    criterion: str
    objective: float

    def predict(self, scores) -> np.ndarray:
        """Label scores: ``-1`` outlier (score above threshold), ``+1`` inlier."""
        scores = as_float_array(scores, "scores")
        return np.where(scores > self.value, -1, 1)


class StreamingQuantileThreshold:
    """Online quantile threshold over the last ``capacity`` scores.

    The streaming counterpart of :func:`threshold_from_quantile`: a
    preallocated ring buffer holds the most recent scores, and the
    threshold is the ``1 - contamination`` quantile of the buffered
    window — so the decision boundary adapts as the score distribution
    moves, with bounded memory.  :func:`threshold_from_quantile`
    delegates here with ``capacity = len(scores)``, which makes the two
    paths bit-identical on a full window (same :func:`numpy.quantile`
    over the same multiset).

    Parameters
    ----------
    contamination:
        Expected outlier fraction in ``(0, 0.5)``; the threshold sits at
        the ``1 - contamination`` score quantile.
    capacity:
        Ring-buffer length (how much score history backs the quantile).
    """

    def __init__(self, contamination: float, capacity: int = 1024):
        self.contamination = check_in_range(
            contamination, 0.0, 0.5, "contamination", inclusive=(False, False)
        )
        self.capacity = check_int(capacity, "capacity", minimum=2)
        self._buffer = np.empty(self.capacity)
        self.size = 0
        self.n_seen = 0

    def update(self, scores) -> float | None:
        """Fold new scores into the window; returns the fresh threshold
        (or ``None`` until at least two scores have been seen)."""
        scores = as_float_array(scores, "scores").ravel()
        for chunk_start in range(0, scores.size, self.capacity):
            chunk = scores[chunk_start : chunk_start + self.capacity]
            start = self.n_seen % self.capacity
            stop = start + chunk.size
            if stop <= self.capacity:
                self._buffer[start:stop] = chunk
            else:
                split = self.capacity - start
                self._buffer[start:] = chunk[:split]
                self._buffer[: stop - self.capacity] = chunk[split:]
            self.n_seen += chunk.size
            self.size = min(self.n_seen, self.capacity)
        return self.value if self.ready else None

    @property
    def ready(self) -> bool:
        """Whether enough scores arrived to define a quantile (>= 2)."""
        return self.size >= 2

    @property
    def value(self) -> float:
        """The current threshold (``1 - contamination`` window quantile)."""
        if not self.ready:
            raise ValidationError(
                "need at least 2 scores before a quantile threshold exists"
            )
        return float(
            np.quantile(self._buffer[: self.size], 1.0 - self.contamination)
        )

    def learned(self) -> LearnedThreshold:
        """Freeze the current state as a :class:`LearnedThreshold`."""
        return LearnedThreshold(
            value=self.value, criterion="quantile", objective=self.contamination
        )

    def reset(self) -> None:
        """Forget the buffered scores (drift re-reference hook)."""
        self.size = 0
        self.n_seen = 0

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"StreamingQuantileThreshold(contamination={self.contamination}, "
            f"capacity={self.capacity}, size={self.size})"
        )


def threshold_from_quantile(scores, contamination: float) -> LearnedThreshold:
    """Unsupervised threshold: flag the top ``contamination`` fraction.

    Delegates to :class:`StreamingQuantileThreshold` sized to the input,
    so the batch result is bit-identical to a streaming tracker that has
    seen exactly these scores.
    """
    scores = as_float_array(scores, "scores")
    if scores.ndim != 1 or scores.size < 2:
        raise ValidationError("need at least 2 one-dimensional scores")
    tracker = StreamingQuantileThreshold(contamination, capacity=scores.size)
    tracker.update(scores)
    return tracker.learned()
