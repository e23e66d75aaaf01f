"""Streaming bench: incremental reference updates vs naive per-arrival refit.

Primes a sliding window, then pushes single-curve arrivals through
:class:`~repro.streaming.StreamingDetector` twice — once with the
incremental reference-statistic caches (tangent-angle ring, sorted
lanes) and once with ``incremental=False``, which rebuilds every
reference statistic from the full window on each arrival via the batch
entry points.  Scores are asserted identical before timing (a wrong
cache can never post a fast number), the machine-readable record is
appended to the perf trajectory ``BENCH_streaming.json`` at the repo
root (same git-sha schema as ``BENCH_depth_kernels.json``), and the CI
gate asserts that the incremental update beats the naive refit for
every gated case.

Sharding rides along: the same chunked stream is pushed through
``StreamingDetector(..., shards=2)`` with score equivalence asserted
before timing (always), and ``shard_speedup > 1`` gated only on
machines with >= 2 cores.  The sharded cases run at
``repro.perf.SHARD_BENCH_GEOMETRY`` (W=512, 64-curve chunks), where the
shard thread pool wins on 2 cores, not at this file's ``WINDOW``.

Set ``REPRO_BENCH_QUICK=1`` for the CI smoke configuration; the default
run uses a larger workload.  ``repro bench-stream`` exposes the same
measurement from the CLI.
"""

import os

from repro.perf import append_bench_record, format_streaming_rows, run_streaming_bench

from benchmarks.conftest import BENCH_SEED, print_table

QUICK = os.environ.get("REPRO_BENCH_QUICK", "0") == "1"

WINDOW = 128 if QUICK else 256
M = 100 if QUICK else 150
ARRIVALS = 150 if QUICK else 300
REPEATS = 2 if QUICK else 3
SHARDS = 2

_REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_streaming_incremental_beats_refit():
    record = run_streaming_bench(
        window=WINDOW, m=M, arrivals=ARRIVALS, seed=BENCH_SEED,
        repeats=REPEATS, quick=QUICK, shards=SHARDS,
    )
    append_bench_record(os.path.join(_REPO_ROOT, "BENCH_streaming.json"), record)

    headers, rows = format_streaming_rows(record)
    print_table(
        f"Streaming — window={WINDOW}, m={M}, arrivals={ARRIVALS} "
        f"(incremental vs refit; {SHARDS}-shard tier vs single stream)",
        headers,
        rows,
    )

    # The CI gate: an incremental cache that fails to beat rebuilding
    # the same statistics from scratch is a regression, full stop.
    for r in record["results"]:
        if r["gated"] and r.get("shards", 1) == 1:
            assert r["incremental_s"] < r["naive_s"], (
                f"{r['case']}: incremental ({r['incremental_s']:.4f}s) slower "
                f"than naive refit ({r['naive_s']:.4f}s)"
            )

    # Sharded gate.  Score equivalence with the single stream was
    # already asserted inside run_streaming_bench before timing, on
    # every machine.  The throughput half only means something with
    # real parallelism, so it is conditional on core count.
    sharded = [r for r in record["results"] if r.get("shards", 1) > 1]
    assert sharded, "sharded tier missing from bench record"
    if (os.cpu_count() or 1) >= 2:
        for r in sharded:
            if r["gated"]:
                assert r["shard_speedup"] > 1.0, (
                    f"{r['case']}: {SHARDS}-shard tier "
                    f"({r['incremental_s']:.4f}s) failed to beat the single "
                    f"stream ({r['naive_s']:.4f}s) on a multi-core machine"
                )

