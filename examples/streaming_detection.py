"""Streaming detection end to end: drift, bursts, adaptive thresholds.

A fixed-reference detector degrades the moment the underlying process
moves: post-drift inliers score as outliers forever.  This example
drives the full streaming subsystem over a synthetic stream with an
injected regime change and outlier bursts:

1. generate a drifting bivariate stream with
   :func:`repro.data.make_drifting_stream` (the inlier process itself
   shifts halfway through; two chunks carry genuine shift outliers),
2. score it online with a :class:`repro.streaming.StreamingDetector`
   (FUNTA kind, sliding reference window, incremental tangent-angle
   cache),
3. adapt the decision boundary with a streaming quantile threshold,
4. watch the depth-rank KS monitor flag the regime change, and
5. check the flags: burst curves should rank above the adaptive
   threshold, while drifted inliers stop being flagged once the sliding
   window has absorbed the new regime (a quantile threshold always
   flags ~contamination of the traffic — the question is *which*
   curves).

Run:  python examples/streaming_detection.py
"""

from repro.data import make_drifting_stream
from repro.streaming import (
    DepthRankDrift,
    SlidingWindow,
    StreamingDetector,
    StreamingQuantileThreshold,
)

N_CHUNKS = 60
CHUNK_SIZE = 16
DRIFT_AT = 30
BURSTS = (18, 46)


def main() -> None:
    stream = make_drifting_stream(
        n_chunks=N_CHUNKS,
        chunk_size=CHUNK_SIZE,
        n_points=64,
        drift_at=DRIFT_AT,
        drift_phase=0.9,
        drift_scale=1.35,
        burst_at=BURSTS,
        burst_size=4,
        burst_kind="shift_isolated",
        random_state=11,
    )

    detector = StreamingDetector(
        "funta",
        SlidingWindow(160),
        threshold=StreamingQuantileThreshold(contamination=0.03, capacity=256),
        drift=DepthRankDrift(baseline_size=128, recent_size=96, alpha=0.01,
                             patience=1, min_gap=32),
        min_reference=32,
    )

    flagged_true = flagged_false = n_outliers = 0
    drift_chunks = []
    for chunk_idx, (chunk, labels) in enumerate(stream):
        result = detector.process(chunk)
        if result.drift is not None:
            drift_chunks.append(chunk_idx)
        if result.flags is None:
            continue
        n_outliers += int(labels.sum())
        flagged_true += int((result.flags & (labels == 1)).sum())
        flagged_false += int((result.flags & (labels == 0)).sum())

    stats = detector.stats()
    print(f"stream: {N_CHUNKS} chunks x {CHUNK_SIZE} curves, drift ramps in "
          f"at chunk {DRIFT_AT}, bursts at {BURSTS}")
    print(f"scored {stats['n_scored']} curves against a sliding reference")
    print(f"flagged {flagged_true}/{n_outliers} injected burst outliers, "
          f"{flagged_false} false alarms among scored inliers")
    print(f"drift events at chunks: {drift_chunks or 'none'} "
          f"(KS statistic {detector.drift.last_statistic:.3f} on the last check)")

    if not drift_chunks:
        raise SystemExit("expected the KS monitor to flag the injected drift")
    if min(drift_chunks) < DRIFT_AT - 2:
        raise SystemExit("drift fired before the injected regime change")
    if flagged_true == 0:
        raise SystemExit("expected at least some burst outliers to be flagged")
    print("OK: drift localized after the regime change, bursts flagged")


if __name__ == "__main__":
    main()
