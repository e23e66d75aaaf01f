"""Streaming detection: online reference maintenance, incremental
scoring, drift-aware thresholds.

The batch stack fixes its reference sample up front; this package
scores *unbounded* curve streams whose reference population evolves:

* :mod:`repro.streaming.window` — sliding-window and reservoir-sampling
  reference maintainers over one preallocated ring buffer, with seeded
  reproducible eviction and round-robin ``split()``;
* :mod:`repro.streaming.online` — :class:`StreamingDetector`, scoring
  each arrival against the current window through the vectorized depth
  kernels (FUNTA, Dir.out, halfspace profiles), one scoring rule per
  kind: FUNTA refreshes its cached tangent angles as chunks are
  ingested instead of refitting them; Dir.out and halfspace score from
  the window contents on every call.  For untrimmed FUNTA,
  ``shards=N`` deals the reference across N shard windows whose ingest
  and partial scoring run on a thread pool, while the threshold and
  drift monitor stay the single-stream trackers in the coordinator, so
  the answers are those of ``shards=1``;
* :mod:`repro.streaming.calibrate` — streaming quantile thresholds
  (exact ring-buffer window, shared with the batch
  :func:`~repro.detectors.threshold.threshold_from_quantile`, and a
  whole-stream :class:`QuantileSketch`);
* :mod:`repro.streaming.drift` — a depth-rank Kolmogorov–Smirnov drift
  monitor emitting re-reference events.

``repro stream-score`` exposes the subsystem from the CLI (``--shards``
sets the shard count of a FUNTA stream).
"""

from repro.streaming.calibrate import (
    THRESHOLD_MODES,
    QuantileSketch,
    SketchQuantileThreshold,
    StreamingQuantileThreshold,
    make_threshold,
)
from repro.streaming.drift import DepthRankDrift, DriftEvent, ks_two_sample
from repro.streaming.online import (
    STREAM_KINDS,
    StreamBatchResult,
    StreamingDetector,
)
from repro.streaming.window import (
    ReferenceWindow,
    ReservoirWindow,
    SlidingWindow,
    WindowUpdate,
)

__all__ = [
    "STREAM_KINDS",
    "THRESHOLD_MODES",
    "DepthRankDrift",
    "DriftEvent",
    "QuantileSketch",
    "ReferenceWindow",
    "ReservoirWindow",
    "SketchQuantileThreshold",
    "SlidingWindow",
    "StreamBatchResult",
    "StreamingDetector",
    "StreamingQuantileThreshold",
    "WindowUpdate",
    "ks_two_sample",
    "make_threshold",
]
