"""Sharded streaming: N shard windows, single-stream answers.

Partitioning a stream across workers normally changes the answers —
each partition sees a different reference sample.
``StreamingDetector(..., shards=N)`` avoids that: arrivals are dealt
round-robin into N shard windows whose union *is* the single-stream
window, per-shard depth partials sum to the full-reference statistic
(or the shard caches merge into it), and the threshold and drift
monitor are the ordinary single-stream trackers fed every score chunk
in the coordinator.  This example proves it end to end:

1. drive one drifting stream through ``shards=1``,
2. drive the *same* stream through ``shards=2, 3, 7``,
3. compare: scores within ``rtol=1e-12``, identical flag sequences,
   identical drift-event chunks — through the re-reference, where every
   shard window is reset together.

The drift monitor checks every 16 scores while chunks hold 64 curves,
so checks land inside chunks; the decisions still match.

Run:  python examples/sharded_streaming.py
"""

import numpy as np

from repro.data import make_drifting_stream
from repro.streaming import (
    DepthRankDrift,
    SlidingWindow,
    StreamingDetector,
    make_threshold,
)

# 84 = 2^2 * 3 * 7: the window divides evenly for every shard count below.
WINDOW = 84
CHUNK = 64
N_CHUNKS = 20
CONTAMINATION = 0.1
ALPHA = 0.05
SHARD_COUNTS = (1, 2, 3, 7)


def stream():
    return make_drifting_stream(
        n_chunks=N_CHUNKS, chunk_size=CHUNK, n_points=40, drift_at=8,
        drift_ramp=2, drift_phase=1.2, drift_scale=1.8, random_state=3,
    )


def drive(n_shards):
    detector = StreamingDetector(
        "funta",
        SlidingWindow(WINDOW),
        shards=n_shards,
        min_reference=2,
        threshold=make_threshold(CONTAMINATION, "window", capacity=WINDOW),
        drift=DepthRankDrift(baseline_size=128, recent_size=64, alpha=ALPHA,
                             patience=1, min_gap=16),
        on_drift="rereference",
    )
    scores, flags, events = [], [], []
    with detector:
        for chunk_idx, (chunk, _) in enumerate(stream()):
            result = detector.process(chunk)
            if result.scores is not None:
                scores.append(result.scores)
            if result.flags is not None:
                flags.append(result.flags)
            if result.drift is not None:
                events.append(chunk_idx)
    return np.concatenate(scores), np.concatenate(flags), events, detector.n_rereferences


def main() -> None:
    ref_scores, ref_flags, ref_events, rereferences = drive(1)
    print(f"single stream: {ref_scores.size} curves scored, "
          f"{int(ref_flags.sum())} flagged, drift + re-reference at chunks "
          f"{ref_events} ({rereferences} re-reference(s))")
    if not ref_events:
        raise SystemExit("expected the KS monitor to fire on this stream")

    for n_shards in SHARD_COUNTS[1:]:
        scores, flags, events, _ = drive(n_shards)
        np.testing.assert_allclose(scores, ref_scores, rtol=1e-12, atol=0.0)
        np.testing.assert_array_equal(flags, ref_flags)
        if events != ref_events:
            raise SystemExit(
                f"{n_shards} shards: drift at {events}, single at {ref_events}"
            )
        worst = float(np.max(np.abs(scores - ref_scores)))
        print(f"{n_shards} shards: scores match (max |delta| {worst:.2e}), "
              f"flags identical, re-reference at chunks {events}")

    print("OK: every shard count reproduced the single stream through drift")


if __name__ == "__main__":
    main()
