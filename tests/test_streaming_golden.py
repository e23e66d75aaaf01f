"""Dir.out and halfspace streams against golden per-chunk scores.

``tests/data/stream_lanes_golden.npz`` holds the scores that
``StreamingDetector`` produced for Dir.out and halfspace streams while
both kinds still kept per-grid-point sorted lanes of the window at
p = 1 (the p = 2 streams ran the seeded batch kernels then as now):

* ``values`` (256 × 16 × 2) on ``grid``: one bivariate
  :func:`~repro.data.make_drifting_stream` (16 chunks of 16 curves,
  drift from chunk 8); p = 1 streams use ``values[:, :, :1]``.  Every
  detector used ``min_reference=8`` and ``n_directions=40``.
* ``<kind>_p<p>_<case>`` for ``kind`` in (dirout, halfspace), ``p`` in
  (1, 2) and every case of :data:`CASES`: the scores of each arrival in
  stream order, ``NaN`` where the chunk was only ingested (warm-up).
  ``<kind>_p<p>_rereference_count`` is the number of re-references the
  drift case took.

The cases cover sliding and reservoir windows, chunks of 1 and 64
curves and chunks longer than the window, ``update_policy="inliers"``
under a quantile threshold and ``on_drift="rereference"``.

The file is never regenerated: a mismatch means streaming scores
changed, which needs a deliberate decision, not a new fixture.
"""

from pathlib import Path

import numpy as np
import pytest

from repro.fda.fdata import MFDataGrid
from repro.streaming import (
    DepthRankDrift,
    ReservoirWindow,
    SlidingWindow,
    StreamingDetector,
    StreamingQuantileThreshold,
)

DATA = Path(__file__).parent / "data"
WINDOW = 96
KINDS = ("dirout", "halfspace")
#: Random projection directions of the p = 2 batch kernels (seed 0).
N_DIRECTIONS = 40

#: case -> (window factory, chunk size, arrivals used, detector options)
CASES = {
    "sliding_c1": (lambda: SlidingWindow(WINDOW), 1, 160, {}),
    "sliding_c64": (lambda: SlidingWindow(WINDOW), 64, 256, {}),
    "sliding_c100": (lambda: SlidingWindow(WINDOW), 100, 256, {}),
    "reservoir_c1": (lambda: ReservoirWindow(WINDOW, random_state=5), 1, 160, {}),
    "reservoir_c64": (lambda: ReservoirWindow(WINDOW, random_state=5), 64, 256, {}),
    "reservoir_c100": (lambda: ReservoirWindow(WINDOW, random_state=5), 100, 256, {}),
    "inliers_c16": (
        lambda: SlidingWindow(WINDOW), 16, 256,
        {"threshold": lambda: StreamingQuantileThreshold(0.1, capacity=64),
         "update_policy": "inliers"},
    ),
    "rereference_c16": (
        lambda: ReservoirWindow(48, random_state=6), 16, 256,
        {"drift": lambda: DepthRankDrift(
            baseline_size=32, recent_size=16, alpha=0.05, patience=1, min_gap=8),
         "on_drift": "rereference"},
    ),
}


def run_case(values, grid, kind, p, case):
    """``(scores per arrival, NaN at warm-up; re-reference count)``."""
    make_window, chunk, n_arrivals, options = CASES[case]
    options = {k: v() if callable(v) else v for k, v in options.items()}
    detector = StreamingDetector(
        kind, make_window(), min_reference=8, n_directions=N_DIRECTIONS, **options
    )
    scores = []
    for start in range(0, n_arrivals, chunk):
        batch = values[start : min(start + chunk, n_arrivals), :, :p]
        result = detector.process(MFDataGrid(batch, grid))
        scores.append(
            np.full(batch.shape[0], np.nan) if result.scores is None else result.scores
        )
    return np.concatenate(scores), detector.n_rereferences


@pytest.fixture(scope="module")
def golden():
    with np.load(DATA / "stream_lanes_golden.npz", allow_pickle=False) as bundle:
        return {key: bundle[key] for key in bundle.files}


@pytest.mark.parametrize("case", list(CASES))
@pytest.mark.parametrize("p", [1, 2])
@pytest.mark.parametrize("kind", KINDS)
def test_stream_scores_match_golden(golden, kind, p, case):
    scores, rereferences = run_case(golden["values"], golden["grid"], kind, p, case)
    expected = golden[f"{kind}_p{p}_{case}"]
    assert np.array_equal(scores, expected, equal_nan=True)
    if case == "rereference_c16":
        assert rereferences == golden[f"{kind}_p{p}_rereference_count"] >= 1


def test_golden_cases_score_past_the_window(golden):
    # Every case scores arrivals that come after the first window's worth,
    # so evictions (sliding) or replacements (reservoir) shape the pins.
    for key, scores in golden.items():
        if key not in ("values", "grid") and not key.endswith("_count"):
            assert np.isfinite(scores[WINDOW:]).sum() >= 24, key
