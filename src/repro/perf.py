"""Machine-readable performance baselines for the depth-kernel layer.

:func:`run_depth_kernel_bench` times every depth kernel of
:mod:`repro.depth._kernels` against its ``naive=True`` loop oracle
(plus, optionally, the vectorized path fanned out over an
:class:`~repro.engine.ExecutionContext` pool) and returns one
JSON-serializable *record*.  :func:`append_bench_record` maintains the
persisted perf trajectory — a JSON array of such records, one per
benchmarked commit — in ``BENCH_depth_kernels.json``, so every future
PR can be measured against this baseline.

Record schema (``schema_version`` 3)::

    {
      "schema_version": 3,
      "bench": "depth_kernels" | "depth_kernels_scaled",
      "git_sha": "<sha or 'unknown'>",
      "created_unix": <float>,
      "quick": <bool>,
      "workload": {"n": ..., "m": ..., "seed": ..., "repeats": ...,
                   "n_jobs": ..., "cpu_count": ..., "gated_kernels": [...]},
      "results": [
        {"kernel": "funta", "p": 1, "gated": true,
         "naive_s": ..., "vectorized_s": ..., "pool_s": ... | null,
         "p50_ms": ..., "p95_ms": ..., "p99_ms": ...,
         "speedup": ..., "parallel_speedup": ... | null},
        ...
      ]
    }

Version 2 added ``workload.cpu_count`` and per-row ``parallel_speedup``
(vectorized / pooled wall time, null for serial runs), plus the
``depth_kernels_scaled`` flavour produced by
:func:`run_scaled_depth_bench` — the 100k-curve scoring workload where
the naive oracles are unaffordable, so rows carry only vectorized/pool
timings (with pooled results still asserted bit-identical to serial).
Version 3 re-bases the timing loop on the telemetry layer's
:class:`~repro.telemetry.metrics.Histogram` — every repeat lands in one
histogram, so rows gain exact ``p50_ms``/``p95_ms``/``p99_ms`` tail
fields alongside the best-of wall times.  Readers fall back gracefully
on older records (missing keys read as null via ``.get``).

``gated`` marks the kernels whose speedup the CI smoke step asserts
(vectorized must beat naive).

Used by ``repro bench-depth`` (CLI) and
``benchmarks/bench_depth_kernels.py`` (pytest smoke / CI gate).
"""

from __future__ import annotations

import json
import os
import subprocess
import time
from pathlib import Path

import numpy as np

__all__ = [
    "SCHEMA_VERSION",
    "BENCH_FILENAME",
    "STREAM_BENCH_FILENAME",
    "SERVING_HTTP_BENCH_FILENAME",
    "GATED_KERNELS",
    "GATED_STREAM_CASES",
    "git_sha",
    "run_depth_kernel_bench",
    "run_scaled_depth_bench",
    "run_serving_http_bench",
    "run_streaming_bench",
    "run_telemetry_overhead_bench",
    "append_bench_record",
    "format_bench_rows",
    "format_serving_http_rows",
    "format_streaming_rows",
    "format_telemetry_overhead_rows",
]

SCHEMA_VERSION = 3
BENCH_FILENAME = "BENCH_depth_kernels.json"

#: Kernels whose vectorized-vs-naive speedup the CI smoke step asserts.
#: ``projection_p2``/``dirout_p2`` joined the gate once their oracles
#: moved to per-direction loop discipline (matching halfspace) and the
#: SDO kernel went lane-major — before that both paths shared the same
#: batched medians and the ratio hovered near 1 by construction.
GATED_KERNELS = (
    "funta", "halfspace_p1", "halfspace_p2", "spatial_p2",
    "projection_p2", "dirout_p2",
)


def git_sha(cwd=None) -> str:
    """Current commit sha, or ``"unknown"`` outside a git checkout."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10, cwd=cwd,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    sha = out.stdout.strip()
    return sha if out.returncode == 0 and sha else "unknown"


def git_dirty(cwd=None) -> bool:
    """True when tracked files differ from HEAD (conservatively True on
    error).  The check is anchored at the repository toplevel — not the
    caller's cwd — so running the bench from a subdirectory cannot hide
    modifications elsewhere in the tree.  The perf-trajectory files
    themselves are excluded: appending a record must not mark the very
    record it appends as dirty."""
    try:
        top = subprocess.run(
            ["git", "rev-parse", "--show-toplevel"],
            capture_output=True, text=True, timeout=10, cwd=cwd,
        )
        if top.returncode != 0 or not top.stdout.strip():
            return True
        out = subprocess.run(
            ["git", "status", "--porcelain", "--untracked-files=no",
             "--", ".", f":(exclude){BENCH_FILENAME}",
             f":(exclude){STREAM_BENCH_FILENAME}",
             f":(exclude){SERVING_HTTP_BENCH_FILENAME}"],
            capture_output=True, text=True, timeout=10, cwd=top.stdout.strip(),
        )
    except (OSError, subprocess.TimeoutExpired):
        return True
    if out.returncode != 0:
        return True
    return bool(out.stdout.strip())


def _time_histogram(fn, repeats: int):
    """Time ``repeats`` calls of ``fn`` into one telemetry histogram.

    The histogram's exact-sample reservoir holds every repeat, so its
    percentiles are the exact order statistics of the timing samples
    (NumPy linear-interpolation semantics) — the same machinery the
    serving layer uses for request latency, reused as the bench timer.
    """
    from repro.telemetry.metrics import Histogram

    hist = Histogram("bench_seconds", {})
    _observe_times(fn, repeats, hist)
    return hist


def _observe_times(fn, repeats: int, hist) -> None:
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        hist.observe(time.perf_counter() - start)


def _tail_fields(hist) -> dict:
    """``p50_ms``/``p95_ms``/``p99_ms`` record fields from a timing histogram."""
    return {
        "p50_ms": round(hist.percentile(50) * 1e3, 3),
        "p95_ms": round(hist.percentile(95) * 1e3, 3),
        "p99_ms": round(hist.percentile(99) * 1e3, 3),
    }


def _best_time(fn, repeats: int) -> float:
    return _time_histogram(fn, repeats).min


def run_depth_kernel_bench(
    n: int = 200,
    m: int = 100,
    seed: int = 7,
    repeats: int = 2,
    n_jobs: int = 1,
    quick: bool = True,
    block_bytes: int | None = None,
) -> dict:
    """Time naive vs vectorized (vs vectorized + pool) depth kernels.

    The workload mirrors the acceptance setting: ``n`` curves on ``m``
    grid points.  Each row also asserts the two paths agree (to 1e-10,
    far looser than the property tests — this is a smoke check, the
    equivalence suite is in ``tests/``), so a silently wrong kernel can
    never post a fast number.
    """
    from repro.depth.funta import funta_outlyingness
    from repro.depth.functional import pointwise_depth_profile
    from repro.depth.dirout import dirout_scores
    from repro.engine import ExecutionContext
    from repro.fda.fdata import FDataGrid, MFDataGrid

    rng = np.random.default_rng(seed)
    grid = np.linspace(0.0, 1.0, m)
    curves = FDataGrid(rng.standard_normal((n, m)).cumsum(axis=1) / 5.0, grid)
    mfd_p1 = MFDataGrid(curves.values[:, :, None], grid)
    mfd_p2 = MFDataGrid(rng.standard_normal((n, m, 2)), grid)
    context = ExecutionContext(n_jobs=n_jobs) if n_jobs > 1 else None

    cases = [
        # (kernel label, p, naive call, vectorized call factory)
        ("funta", 1,
         lambda **kw: funta_outlyingness(curves, block_bytes=block_bytes, **kw)),
        ("halfspace_p1", 1,
         lambda **kw: pointwise_depth_profile(
             mfd_p1, notion="halfspace", block_bytes=block_bytes, **kw)),
        ("halfspace_p2", 2,
         lambda **kw: pointwise_depth_profile(
             mfd_p2, notion="halfspace", random_state=seed,
             block_bytes=block_bytes, **kw)),
        ("spatial_p2", 2,
         lambda **kw: pointwise_depth_profile(
             mfd_p2, notion="spatial", block_bytes=block_bytes, **kw)),
        ("projection_p2", 2,
         lambda **kw: pointwise_depth_profile(
             mfd_p2, notion="projection", random_state=seed,
             block_bytes=block_bytes, **kw)),
        ("dirout_p2", 2,
         lambda **kw: dirout_scores(
             mfd_p2, random_state=seed, block_bytes=block_bytes, **kw)),
    ]

    results = []
    for kernel, p, call in cases:
        naive_out = call(naive=True)
        vec_out = call()
        np.testing.assert_allclose(vec_out, naive_out, rtol=1e-10, atol=1e-12)
        naive_s = _best_time(lambda: call(naive=True), repeats)
        vec_hist = _time_histogram(lambda: call(), repeats)
        vectorized_s = vec_hist.min
        pool_s = None
        if context is not None:
            pool_out = call(context=context)
            np.testing.assert_allclose(pool_out, vec_out, rtol=0, atol=0)
            pool_s = _best_time(lambda: call(context=context), repeats)
        results.append(
            {
                "kernel": kernel,
                "p": p,
                "gated": kernel in GATED_KERNELS,
                "naive_s": round(naive_s, 6),
                "vectorized_s": round(vectorized_s, 6),
                "pool_s": round(pool_s, 6) if pool_s is not None else None,
                **_tail_fields(vec_hist),
                "speedup": round(naive_s / max(vectorized_s, 1e-12), 2),
                "parallel_speedup": (
                    round(vectorized_s / max(pool_s, 1e-12), 2)
                    if pool_s is not None else None
                ),
            }
        )

    return {
        "schema_version": SCHEMA_VERSION,
        "bench": "depth_kernels",
        "git_sha": git_sha(),
        "dirty": git_dirty(),
        "created_unix": round(time.time(), 3),
        "quick": bool(quick),
        "workload": {
            "n": n, "m": m, "seed": seed, "repeats": repeats,
            "n_jobs": n_jobs, "cpu_count": os.cpu_count(),
            "gated_kernels": list(GATED_KERNELS),
        },
        "results": results,
    }


def run_scaled_depth_bench(
    n: int = 100_000,
    n_ref: int = 256,
    m: int = 48,
    seed: int = 7,
    repeats: int = 1,
    n_jobs: int = 1,
    quick: bool = False,
    block_bytes: int | None = None,
) -> dict:
    """Time the gated kernels on a scoring workload scaled to ``n`` curves.

    The shape mirrors production scoring rather than the toy acceptance
    setting: ``n`` query curves (100k by default) scored against a
    bounded reference sample of ``n_ref`` curves on ``m`` grid points.
    The naive oracles are unaffordable at this size, so rows record
    vectorized and pooled wall time only — correctness is anchored by
    asserting the pooled result bit-identical to the serial vectorized
    one (equivalence to naive is the property suite's job at small n).
    """
    from repro.depth.funta import funta_outlyingness
    from repro.depth.functional import pointwise_depth_profile
    from repro.depth.dirout import dirout_scores
    from repro.engine import ExecutionContext
    from repro.fda.fdata import FDataGrid, MFDataGrid

    rng = np.random.default_rng(seed)
    grid = np.linspace(0.0, 1.0, m)
    curves = FDataGrid(rng.standard_normal((n, m)).cumsum(axis=1) / 5.0, grid)
    ref_curves = FDataGrid(rng.standard_normal((n_ref, m)).cumsum(axis=1) / 5.0, grid)
    mfd_p2 = MFDataGrid(rng.standard_normal((n, m, 2)), grid)
    ref_p2 = MFDataGrid(rng.standard_normal((n_ref, m, 2)), grid)
    context = ExecutionContext(n_jobs=n_jobs) if n_jobs > 1 else None

    cases = [
        ("funta", 1,
         lambda **kw: funta_outlyingness(
             curves, reference=ref_curves, block_bytes=block_bytes, **kw)),
        ("halfspace_p1", 1,
         lambda **kw: pointwise_depth_profile(
             curves.to_multivariate(), ref_curves.to_multivariate(),
             notion="halfspace", block_bytes=block_bytes, **kw)),
        ("halfspace_p2", 2,
         lambda **kw: pointwise_depth_profile(
             mfd_p2, ref_p2, notion="halfspace", random_state=seed,
             block_bytes=block_bytes, **kw)),
        ("spatial_p2", 2,
         lambda **kw: pointwise_depth_profile(
             mfd_p2, ref_p2, notion="spatial", block_bytes=block_bytes, **kw)),
        ("projection_p2", 2,
         lambda **kw: pointwise_depth_profile(
             mfd_p2, ref_p2, notion="projection", random_state=seed,
             block_bytes=block_bytes, **kw)),
        ("dirout_p2", 2,
         lambda **kw: dirout_scores(
             mfd_p2, reference=ref_p2, random_state=seed,
             block_bytes=block_bytes, **kw)),
    ]

    results = []
    for kernel, p, call in cases:
        # At this scale every call is expensive, so the first (result-
        # producing) call doubles as one timing sample instead of a
        # warm-up: best-of over `repeats` samples total per path.
        out_holder = []
        vec_hist = _time_histogram(lambda: out_holder.append(call()), 1)
        vec_out = out_holder[0]
        if repeats > 1:
            _observe_times(lambda: call(), repeats - 1, vec_hist)
        vectorized_s = vec_hist.min
        pool_s = None
        if context is not None:
            start = time.perf_counter()
            pool_out = call(context=context)
            pool_s = time.perf_counter() - start
            np.testing.assert_allclose(pool_out, vec_out, rtol=0, atol=0)
            if repeats > 1:
                pool_s = min(
                    pool_s, _best_time(lambda: call(context=context), repeats - 1)
                )
        results.append(
            {
                "kernel": kernel,
                "p": p,
                "gated": kernel in GATED_KERNELS,
                "naive_s": None,
                "vectorized_s": round(vectorized_s, 6),
                "pool_s": round(pool_s, 6) if pool_s is not None else None,
                **_tail_fields(vec_hist),
                "speedup": None,
                "parallel_speedup": (
                    round(vectorized_s / max(pool_s, 1e-12), 2)
                    if pool_s is not None else None
                ),
            }
        )

    return {
        "schema_version": SCHEMA_VERSION,
        "bench": "depth_kernels_scaled",
        "git_sha": git_sha(),
        "dirty": git_dirty(),
        "created_unix": round(time.time(), 3),
        "quick": bool(quick),
        "workload": {
            "n": n, "n_ref": n_ref, "m": m, "seed": seed, "repeats": repeats,
            "n_jobs": n_jobs, "cpu_count": os.cpu_count(),
            "gated_kernels": list(GATED_KERNELS),
        },
        "results": results,
    }


def run_telemetry_overhead_bench(
    n: int = 200,
    m: int = 100,
    seed: int = 7,
    repeats: int = 3,
    quick: bool = True,
    block_bytes: int | None = None,
) -> dict:
    """Time the gated depth kernels with telemetry disabled vs enabled.

    Both sides run through an :class:`~repro.engine.ExecutionContext` —
    one holding the default :data:`~repro.telemetry.NULL_TELEMETRY`, one
    an enabled :class:`~repro.telemetry.Telemetry` — so the measured
    difference is exactly the cost of live instruments on the hot path
    (counter increments, histogram observes, span bookkeeping), not a
    context-vs-no-context framing difference.  Each row asserts the two
    outputs bit-identical: instrumentation must never perturb results.

    The CI smoke gate asserts ``overhead_paired`` (the minimum
    enabled/null ratio over back-to-back timing pairs) stays within a
    small multiplicative bound on every gated kernel; ``overhead`` is
    the conventional best-of ratio, recorded for the trajectory.
    """
    from repro.depth.funta import funta_outlyingness
    from repro.depth.functional import pointwise_depth_profile
    from repro.depth.dirout import dirout_scores
    from repro.engine import ExecutionContext
    from repro.fda.fdata import FDataGrid, MFDataGrid
    from repro.telemetry import Telemetry

    rng = np.random.default_rng(seed)
    grid = np.linspace(0.0, 1.0, m)
    curves = FDataGrid(rng.standard_normal((n, m)).cumsum(axis=1) / 5.0, grid)
    mfd_p2 = MFDataGrid(rng.standard_normal((n, m, 2)), grid)
    null_context = ExecutionContext()
    live_context = ExecutionContext(telemetry=Telemetry())

    cases = [
        ("funta", 1,
         lambda **kw: funta_outlyingness(curves, block_bytes=block_bytes, **kw)),
        ("halfspace_p1", 1,
         lambda **kw: pointwise_depth_profile(
             curves.to_multivariate(), notion="halfspace",
             block_bytes=block_bytes, **kw)),
        ("halfspace_p2", 2,
         lambda **kw: pointwise_depth_profile(
             mfd_p2, notion="halfspace", random_state=seed,
             block_bytes=block_bytes, **kw)),
        ("spatial_p2", 2,
         lambda **kw: pointwise_depth_profile(
             mfd_p2, notion="spatial", block_bytes=block_bytes, **kw)),
        ("projection_p2", 2,
         lambda **kw: pointwise_depth_profile(
             mfd_p2, notion="projection", random_state=seed,
             block_bytes=block_bytes, **kw)),
        ("dirout_p2", 2,
         lambda **kw: dirout_scores(
             mfd_p2, random_state=seed, block_bytes=block_bytes, **kw)),
    ]

    results = []
    for kernel, p, call in cases:
        null_out = call(context=null_context)
        live_out = call(context=live_context)
        np.testing.assert_allclose(live_out, null_out, rtol=0, atol=0)
        # Time back-to-back (null, enabled) pairs: machine-level drift
        # (thermal, frequency scaling, a neighbour process) then lands on
        # both halves of a pair alike.  ``overhead_paired`` is the
        # minimum per-pair ratio — a real instrument cost is systematic
        # and shows in *every* pair, while a load spike only inflates
        # some, so the min is the noise-robust gate statistic.
        null_times: list[float] = []
        live_times: list[float] = []
        for _ in range(repeats):
            start = time.perf_counter()
            call(context=null_context)
            null_times.append(time.perf_counter() - start)
            start = time.perf_counter()
            call(context=live_context)
            live_times.append(time.perf_counter() - start)
        null_s = min(null_times)
        enabled_s = min(live_times)
        results.append(
            {
                "kernel": kernel,
                "p": p,
                "gated": kernel in GATED_KERNELS,
                "null_s": round(null_s, 6),
                "enabled_s": round(enabled_s, 6),
                "overhead": round(enabled_s / max(null_s, 1e-12), 4),
                "overhead_paired": round(
                    min(l / max(n, 1e-12) for n, l in zip(null_times, live_times)),
                    4,
                ),
            }
        )

    return {
        "schema_version": SCHEMA_VERSION,
        "bench": "telemetry_overhead",
        "git_sha": git_sha(),
        "dirty": git_dirty(),
        "created_unix": round(time.time(), 3),
        "quick": bool(quick),
        "workload": {
            "n": n, "m": m, "seed": seed, "repeats": repeats,
            "gated_kernels": list(GATED_KERNELS),
        },
        "results": results,
    }


def format_telemetry_overhead_rows(record: dict) -> tuple[list[str], list[list[str]]]:
    """Table headers + rows for a telemetry-overhead bench record."""
    headers = ["kernel", "p", "gated", "null ms", "enabled ms", "overhead", "paired"]
    rows = []
    for r in record["results"]:
        paired = r.get("overhead_paired")
        rows.append(
            [
                r["kernel"],
                str(r["p"]),
                "yes" if r["gated"] else "no",
                f"{r['null_s'] * 1e3:,.1f}",
                f"{r['enabled_s'] * 1e3:,.1f}",
                f"{r['overhead']:.3f}x",
                f"{paired:.3f}x" if paired is not None else "-",
            ]
        )
    return headers, rows


def format_bench_rows(record: dict) -> tuple[list[str], list[list[str]]]:
    """Table headers + rows for a bench record (shared by CLI and bench).

    The pool columns appear only when at least one result actually has a
    pooled timing, so ``n_jobs=1`` runs print a compact table.  Reads
    via ``.get`` so schema-version-1 records (no ``parallel_speedup``,
    always-present ``naive_s``) and scaled records (null ``naive_s`` /
    ``speedup``) format without special-casing.
    """
    results = record["results"]
    with_pool = any(r.get("pool_s") is not None for r in results)
    with_tails = any(r.get("p95_ms") is not None for r in results)
    headers = ["kernel", "p", "gated", "naive ms", "vectorized ms"]
    if with_tails:
        headers += ["p50 ms", "p95 ms", "p99 ms"]
    if with_pool:
        headers.append("pool ms")
    headers.append("speedup")
    if with_pool:
        headers.append("pool speedup")
    rows = []
    for r in results:
        naive_s = r.get("naive_s")
        speedup = r.get("speedup")
        row = [
            r["kernel"],
            str(r["p"]),
            "yes" if r["gated"] else "no",
            f"{naive_s * 1e3:,.1f}" if naive_s is not None else "-",
            f"{r['vectorized_s'] * 1e3:,.1f}",
        ]
        if with_tails:
            for key in ("p50_ms", "p95_ms", "p99_ms"):
                tail = r.get(key)
                row.append(f"{tail:,.1f}" if tail is not None else "-")
        if with_pool:
            pool_s = r.get("pool_s")
            row.append(f"{pool_s * 1e3:,.1f}" if pool_s is not None else "-")
        row.append(f"{speedup:.1f}x" if speedup is not None else "-")
        if with_pool:
            par = r.get("parallel_speedup")
            row.append(f"{par:.2f}x" if par is not None else "-")
        rows.append(row)
    return headers, rows


def append_bench_record(path, record: dict) -> list:
    """Append ``record`` to the JSON trajectory at ``path``; returns it.

    The trajectory is a JSON array ordered by insertion.  Re-running on
    the same commit replaces that commit's record of the same ``quick``
    and ``dirty`` flavour instead of stacking duplicates, so the
    trajectory holds one datapoint per (commit, flavour) — and a run
    from a dirty working tree can never overwrite the clean committed
    baseline of the same sha (it is recorded separately, flagged
    ``"dirty": true``).
    """
    path = Path(path)
    trajectory: list = []
    if path.exists():
        try:
            loaded = json.loads(path.read_text())
            if isinstance(loaded, list):
                trajectory = loaded
        except (OSError, json.JSONDecodeError):
            trajectory = []
    trajectory = [
        entry
        for entry in trajectory
        if not (
            isinstance(entry, dict)
            and entry.get("git_sha") == record.get("git_sha")
            and entry.get("quick") == record.get("quick")
            and entry.get("bench") == record.get("bench")
            and entry.get("dirty") == record.get("dirty")
        )
    ]
    trajectory.append(record)
    path.write_text(json.dumps(trajectory, indent=2) + "\n")
    return trajectory


# --------------------------------------------------------------------------- streaming
STREAM_BENCH_FILENAME = "BENCH_streaming.json"

#: Streaming-record schema: v3 added the sharded tier (``shards`` on every
#: result row, ``shard_speedup`` + chunked-baseline timings on sharded rows);
#: v4 re-bases the timing loop on the telemetry histogram, adding exact
#: ``p50_ms``/``p95_ms``/``p99_ms`` tail fields per row.
#: ``format_streaming_rows`` still renders v1–v3 records (no tail fields).
STREAM_SCHEMA_VERSION = 4

#: Streaming cases whose incremental-vs-refit speedup the CI gate asserts.
GATED_STREAM_CASES = ("funta_p1", "funta_p2", "dirout_p1", "halfspace_p1")

#: Sharded cases whose sharded-vs-single-stream throughput the CI gate
#: asserts (``shard_speedup > 1`` whenever >= 2 cores are available).
GATED_SHARD_CASES = ("funta_p1_sharded", "dirout_p1_sharded", "halfspace_p1_sharded")

#: (window, chunk) of the sharded cases, whatever the bench's own window:
#: the shard thread pool only pays off on a reference and chunk this large
#: (2 cores, 2 shards: mostly 1.2-2.0x for all three cases; at W=128 with
#: 16-curve chunks 0.6-1.1x, so the speed gate failed there).
SHARD_BENCH_GEOMETRY = (512, 64)


def run_streaming_bench(
    window: int = 128,
    m: int = 100,
    arrivals: int = 200,
    seed: int = 7,
    repeats: int = 2,
    quick: bool = True,
    block_bytes: int | None = None,
    shards: int = 1,
) -> dict:
    """Time per-arrival incremental scoring vs naive refit-from-scratch.

    Each case primes a sliding window with ``window`` curves and then
    pushes ``arrivals`` single-curve batches through
    :meth:`~repro.streaming.StreamingDetector.process` — the canonical
    worst case for a streaming system, where every arrival both scores
    and mutates the reference.  The *incremental* detector refreshes its
    cached reference statistics (tangent-angle ring, sorted lanes) from
    the window update; the *naive* detector (``incremental=False``)
    rebuilds them from the full window on every arrival via the batch
    entry points.  Both paths share the window machinery and produce
    identical scores (asserted here before timing, so a wrong cache can
    never post a fast number); the record schema mirrors
    ``BENCH_depth_kernels.json`` (git sha, per-case rows).

    With ``shards > 1`` sharding is timed as well, at
    :data:`SHARD_BENCH_GEOMETRY`: the same chunked arrival stream is
    pushed once through a single-stream incremental detector and once
    through ``StreamingDetector(..., shards=shards)``, with score
    equivalence asserted (rtol ``1e-12``; exact for dirout/halfspace)
    before either side is timed.
    Sharded rows carry ``shards``/``shard_speedup`` fields
    (``schema_version`` 3).
    """
    from repro.fda.fdata import MFDataGrid
    from repro.streaming import SlidingWindow, StreamingDetector

    rng = np.random.default_rng(seed)
    grid = np.linspace(0.0, 1.0, m)

    cases = [
        ("funta_p1", 1, "funta"),
        ("funta_p2", 2, "funta"),
        ("dirout_p1", 1, "dirout"),
        ("halfspace_p1", 1, "halfspace"),
    ]

    results = []
    for label, p, kind in cases:
        prime_values = rng.standard_normal((window, m, p)).cumsum(axis=1) / 5.0
        stream_values = rng.standard_normal((arrivals, m, p)).cumsum(axis=1) / 5.0
        prime_mfd = MFDataGrid(prime_values, grid)
        chunks = [MFDataGrid(stream_values[i : i + 1], grid) for i in range(arrivals)]

        def run(incremental: bool) -> np.ndarray:
            detector = StreamingDetector(
                kind,
                SlidingWindow(window),
                min_reference=2,
                incremental=incremental,
                block_bytes=block_bytes,
            )
            detector.prime(prime_mfd)
            collected = [detector.process(chunk).scores for chunk in chunks]
            return np.concatenate(collected)

        incremental_scores = run(True)
        naive_scores = run(False)
        np.testing.assert_allclose(
            incremental_scores, naive_scores, rtol=1e-12, atol=0.0
        )
        inc_hist = _time_histogram(lambda: run(True), repeats)
        incremental_s = inc_hist.min
        naive_s = _best_time(lambda: run(False), repeats)
        results.append(
            {
                "case": label,
                "p": p,
                "kind": kind,
                "gated": label in GATED_STREAM_CASES,
                "shards": 1,
                "naive_s": round(naive_s, 6),
                "incremental_s": round(incremental_s, 6),
                **_tail_fields(inc_hist),
                "curves_per_s": round(arrivals / max(incremental_s, 1e-12), 1),
                "speedup": round(naive_s / max(incremental_s, 1e-12), 2),
            }
        )

    shard_window, chunk = SHARD_BENCH_GEOMETRY
    if shards > 1:
        if shard_window % shards:
            raise ValueError(
                f"window={shard_window} must divide evenly across shards={shards}"
            )
        n_chunks = max(1, arrivals // chunk)
        shard_cases = [
            ("funta_p1_sharded", 1, "funta"),
            ("dirout_p1_sharded", 1, "dirout"),
            ("halfspace_p1_sharded", 1, "halfspace"),
        ]
        for label, p, kind in shard_cases:
            prime_values = rng.standard_normal((shard_window, m, p)).cumsum(axis=1) / 5.0
            stream_values = (
                rng.standard_normal((n_chunks * chunk, m, p)).cumsum(axis=1) / 5.0
            )
            prime_mfd = MFDataGrid(prime_values, grid)
            chunks = [
                MFDataGrid(stream_values[i * chunk : (i + 1) * chunk], grid)
                for i in range(n_chunks)
            ]

            def run_single() -> np.ndarray:
                detector = StreamingDetector(
                    kind,
                    SlidingWindow(shard_window),
                    min_reference=2,
                    incremental=True,
                    block_bytes=block_bytes,
                )
                detector.prime(prime_mfd)
                collected = [detector.process(c).scores for c in chunks]
                return np.concatenate(collected)

            def run_sharded() -> np.ndarray:
                with StreamingDetector(
                    kind,
                    SlidingWindow(shard_window),
                    shards=shards,
                    min_reference=2,
                    block_bytes=block_bytes,
                ) as detector:
                    detector.prime(prime_mfd)
                    collected = [detector.process(c).scores for c in chunks]
                    return np.concatenate(collected)

            single_scores = run_single()
            sharded_scores = run_sharded()
            np.testing.assert_allclose(
                sharded_scores, single_scores, rtol=1e-12, atol=0.0
            )
            single_s = _best_time(run_single, repeats)
            shard_hist = _time_histogram(run_sharded, repeats)
            sharded_s = shard_hist.min
            total = n_chunks * chunk
            results.append(
                {
                    "case": label,
                    "p": p,
                    "kind": kind,
                    "gated": label in GATED_SHARD_CASES,
                    "shards": shards,
                    "arrivals": total,
                    "naive_s": round(single_s, 6),
                    "incremental_s": round(sharded_s, 6),
                    **_tail_fields(shard_hist),
                    "curves_per_s": round(total / max(sharded_s, 1e-12), 1),
                    "speedup": round(single_s / max(sharded_s, 1e-12), 2),
                    "shard_speedup": round(single_s / max(sharded_s, 1e-12), 2),
                }
            )

    return {
        "schema_version": STREAM_SCHEMA_VERSION,
        "bench": "streaming",
        "git_sha": git_sha(),
        "dirty": git_dirty(),
        "created_unix": round(time.time(), 3),
        "quick": bool(quick),
        "workload": {
            "window": window, "m": m, "arrivals": arrivals, "seed": seed,
            "repeats": repeats, "gated_cases": list(GATED_STREAM_CASES),
            "shards": shards, "shard_window": shard_window, "chunk": chunk,
            "gated_shard_cases": list(GATED_SHARD_CASES) if shards > 1 else [],
        },
        "results": results,
    }


def format_streaming_rows(record: dict) -> tuple[list[str], list[list[str]]]:
    """Table headers + rows for a streaming bench record.

    Renders every streaming schema version: v1/v2 rows predate the
    sharded tier and carry no ``shards``/``shard_speedup`` fields, so
    those columns fall back to ``1``/``-`` (mirroring the v1/v2
    tolerance of ``format_bench_rows`` for ``BENCH_depth_kernels``).
    On sharded rows (v3) the baseline column is the *single-stream*
    chunked detector rather than a refit-from-scratch one, and
    ``speedup`` is the shard speedup.  v4 rows carry per-run
    ``p50_ms``/``p95_ms``/``p99_ms`` tails; older rows render ``-``.
    """
    version = int(record.get("schema_version", 1))
    sharded_record = version >= 3 and any(
        r.get("shards", 1) > 1 for r in record["results"]
    )
    with_tails = any(r.get("p95_ms") is not None for r in record["results"])
    headers = [
        "case", "p", "gated", "refit ms/curve", "incremental ms/curve",
        "curves/s", "speedup",
    ]
    if with_tails:
        headers += ["p95 ms", "p99 ms"]
    if sharded_record:
        headers = headers + ["shards"]
    default_arrivals = record["workload"]["arrivals"]
    rows = []
    for r in record["results"]:
        arrivals = r.get("arrivals", default_arrivals)
        row = [
            r["case"],
            str(r["p"]),
            "yes" if r["gated"] else "no",
            f"{r['naive_s'] / arrivals * 1e3:,.2f}",
            f"{r['incremental_s'] / arrivals * 1e3:,.2f}",
            f"{r['curves_per_s']:,.0f}",
            f"{r['speedup']:.1f}x",
        ]
        if with_tails:
            for key in ("p95_ms", "p99_ms"):
                tail = r.get(key)
                row.append(f"{tail:,.1f}" if tail is not None else "-")
        if sharded_record:
            row.append(str(r.get("shards", 1)))
        rows.append(row)
    return headers, rows


# --------------------------------------------------------------------------
# Serving-HTTP bench: the async front door under sustained and overload rates
# --------------------------------------------------------------------------

SERVING_HTTP_BENCH_FILENAME = "BENCH_serving_http.json"


async def _http_post_json(host, port, path, doc, reader=None, writer=None):
    """Minimal asyncio HTTP/1.1 JSON POST.

    With ``reader``/``writer`` the request reuses an open keep-alive
    connection (the closed-loop sustained phase); without them a fresh
    connection is opened and closed (the open-loop overload phase, where
    every arrival is an independent client).  Returns
    ``(status, parsed_body)``.
    """
    import asyncio
    import json as _json

    own = reader is None
    if own:
        reader, writer = await asyncio.open_connection(host, port)
    try:
        payload = _json.dumps(doc).encode("utf-8")
        writer.write(
            f"POST {path} HTTP/1.1\r\nHost: {host}\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(payload)}\r\n"
            f"Connection: {'close' if own else 'keep-alive'}\r\n\r\n".encode("ascii")
            + payload
        )
        await writer.drain()
        status_line = await reader.readline()
        status = int(status_line.split(b" ", 2)[1])
        length = 0
        while True:
            line = await reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            key, _, value = line.decode("latin-1").partition(":")
            if key.strip().lower() == "content-length":
                length = int(value.strip())
        body = _json.loads(await reader.readexactly(length)) if length else {}
        return status, body
    finally:
        if own:
            writer.close()
            try:
                await writer.wait_closed()
            except (OSError, asyncio.CancelledError):
                pass


def _fit_fig3_pipeline(seed: int):
    """Fit the Fig. 3 serving pipeline: iforest over curvature features.

    This is the serving form of the paper's strongest Fig. 3 method —
    an :class:`~repro.detectors.IsolationForest` (200 trees) on the
    geometric aggregation of the square-augmented ECG substitute data.
    """
    from repro.core.pipeline import GeometricOutlierPipeline
    from repro.data import make_ecg_dataset, square_augment
    from repro.detectors import IsolationForest

    data, _, _ = make_ecg_dataset(random_state=seed)
    train = square_augment(data)
    pipeline = GeometricOutlierPipeline(
        IsolationForest(n_estimators=200, random_state=0), n_basis=20
    )
    pipeline.fit(train)
    return pipeline, train


def run_serving_http_bench(
    batch_curves: int = 32,
    sustained_requests: int = 300,
    overload_requests: int = 400,
    concurrency: int = 12,
    overload_capacity: float = 2000.0,
    overload_factor: float = 5.0,
    flush_interval: float = 0.02,
    seed: int = 7,
    quick: bool = True,
) -> dict:
    """Benchmark the HTTP front door end-to-end over localhost.

    Two phases, both against a :class:`~repro.serving.ScoringServer`
    fronting the fitted Fig. 3 pipeline loaded zero-copy
    (``mmap=True``) from an uncompressed manifest:

    * **sustained** — ``concurrency`` closed-loop keep-alive clients
      drive ``POST /submit`` as fast as responses return.  A generous
      high-water mark means nothing sheds; the phase measures real
      micro-batched scoring throughput (curves/s) and per-request
      latency percentiles.
    * **overload** — the pipeline's scorer is throttled to a *known*
      flush capacity (``overload_capacity`` curves/s) and open-loop
      arrivals are scheduled at ``overload_factor``× that capacity
      against a small high-water mark.  This phase verifies the
      backpressure contract: excess arrivals shed with 429 before
      queueing, outstanding work stays bounded by the high-water mark
      (plus the concurrent-admission race window), and every accepted
      request resolves with finite scores.

    The record mirrors the other ``BENCH_*`` trajectory schemas.
    """
    import asyncio
    import tempfile
    from pathlib import Path

    from repro.data import make_ecg_dataset, square_augment
    from repro.serving.persist import save_pipeline
    from repro.serving.server import ScoringServer, load_service
    from repro.telemetry.metrics import Histogram

    pipeline, train = _fit_fig3_pipeline(seed)

    # Client traffic: fresh curves from the same generator family.
    probe, _, _ = make_ecg_dataset(random_state=seed + 1)
    traffic = square_augment(probe)
    batch = {
        "pipeline": "fig3_iforest",
        "values": traffic.values[:batch_curves].tolist(),
        "grid": traffic.grid.tolist(),
    }

    results: dict[str, dict] = {}

    with tempfile.TemporaryDirectory() as tmp:
        bundle = Path(tmp) / "fig3_iforest"
        save_pipeline(pipeline, bundle, compressed=False)

        async def sustained_phase() -> dict:
            service = load_service(
                {"fig3_iforest": bundle}, max_pending=4 * batch_curves, mmap=True
            )
            server = ScoringServer(
                service,
                high_water=max(64 * batch_curves, concurrency * 4 * batch_curves),
                flush_interval=flush_interval,
            )
            await server.start()
            try:
                # Warm the factorization cache off the clock.
                await _http_post_json("127.0.0.1", server.port, "/score", batch)

                latencies: list[float] = []
                bad: list[str] = []
                remaining = [sustained_requests]

                async def worker() -> None:
                    reader, writer = await asyncio.open_connection(
                        "127.0.0.1", server.port
                    )
                    try:
                        while remaining[0] > 0:
                            remaining[0] -= 1
                            t0 = time.perf_counter()
                            status, body = await _http_post_json(
                                "127.0.0.1", server.port, "/submit", batch,
                                reader=reader, writer=writer,
                            )
                            latencies.append(time.perf_counter() - t0)
                            if status != 200:
                                bad.append(f"{status}: {body.get('error')}")
                            elif not np.all(np.isfinite(body["scores"])):
                                bad.append("non-finite scores")
                    finally:
                        writer.close()
                        try:
                            await writer.wait_closed()
                        except OSError:
                            pass

                t_start = time.perf_counter()
                await asyncio.gather(*(worker() for _ in range(concurrency)))
                elapsed = time.perf_counter() - t_start
            finally:
                await server.close()

            done = len(latencies)
            # Same Histogram type the serving layer exposes on /metrics;
            # its exact-sample reservoir makes these the exact order
            # statistics of the latency samples.
            lat_hist = Histogram("serving_request_seconds", {})
            for sample in latencies:
                lat_hist.observe(sample)
            return {
                "phase": "sustained",
                "requests": done,
                "accepted": done - len(bad),
                "shed": 0,
                "errors": bad[:5],
                "curves_per_s": round(done * batch_curves / max(elapsed, 1e-9), 1),
                **_tail_fields(lat_hist),
                "flushes": server.service.stats()["flushes"],
            }

        async def overload_phase() -> dict:
            service = load_service(
                {"fig3_iforest": bundle}, max_pending=4 * batch_curves, mmap=True
            )
            # Pin the flush capacity so "5x capacity" is a statement about
            # the workload, not about this machine: the scorer sleeps
            # n / overload_capacity seconds per flushed batch.
            loaded = service._pipeline("fig3_iforest")
            real_score = loaded.score_samples

            def throttled_score(mfd):
                time.sleep(mfd.n_samples / overload_capacity)
                return real_score(mfd)

            loaded.score_samples = throttled_score

            high_water = 4 * batch_curves
            server = ScoringServer(
                service, high_water=high_water, flush_interval=flush_interval
            )
            await server.start()

            target_rps = overload_factor * overload_capacity / batch_curves
            interval = 1.0 / target_rps
            statuses: list[int] = []
            bad: list[str] = []
            max_outstanding = [0]
            stop = asyncio.Event()

            async def sampler() -> None:
                while not stop.is_set():
                    max_outstanding[0] = max(
                        max_outstanding[0], service.outstanding_curves()
                    )
                    await asyncio.sleep(0.002)

            async def one_request() -> None:
                status, body = await _http_post_json(
                    "127.0.0.1", server.port, "/submit", batch
                )
                statuses.append(status)
                if status == 200 and not np.all(np.isfinite(body["scores"])):
                    bad.append("non-finite scores")
                elif status not in (200, 429):
                    bad.append(f"{status}: {body.get('error')}")

            try:
                await _http_post_json("127.0.0.1", server.port, "/score", batch)
                sampler_task = asyncio.ensure_future(sampler())
                t_start = time.perf_counter()
                tasks = []
                for i in range(overload_requests):
                    due = t_start + i * interval
                    delay = due - time.perf_counter()
                    if delay > 0:
                        await asyncio.sleep(delay)
                    tasks.append(asyncio.ensure_future(one_request()))
                # Arrival rate is a property of the schedule, so clock it
                # when the last request is *sent*, not when responses drain.
                elapsed = time.perf_counter() - t_start
                await asyncio.gather(*tasks)
                stop.set()
                await sampler_task
            finally:
                await server.close()

            accepted = sum(1 for s in statuses if s == 200)
            shed = sum(1 for s in statuses if s == 429)
            stats = service.stats()
            return {
                "phase": "overload",
                "requests": len(statuses),
                "accepted": accepted,
                "shed": shed,
                "errors": bad[:5],
                "arrival_curves_per_s": round(target_rps * batch_curves, 1),
                "capacity_curves_per_s": overload_capacity,
                "achieved_rps": round(len(statuses) / max(elapsed, 1e-9), 1),
                "high_water": high_water,
                "max_outstanding": max_outstanding[0],
                "served_requests": stats["served_requests"],
                "failed_requests": stats["failed_requests"],
            }

        results["sustained"] = asyncio.run(sustained_phase())
        results["overload"] = asyncio.run(overload_phase())

    return {
        "schema_version": SCHEMA_VERSION,
        "bench": "serving_http",
        "git_sha": git_sha(),
        "dirty": git_dirty(),
        "created_unix": round(time.time(), 3),
        "quick": bool(quick),
        "workload": {
            "batch_curves": batch_curves,
            "sustained_requests": sustained_requests,
            "overload_requests": overload_requests,
            "concurrency": concurrency,
            "overload_capacity": overload_capacity,
            "overload_factor": overload_factor,
            "flush_interval": flush_interval,
            "seed": seed,
            "pipeline": "fig3 iforest(n_estimators=200) / n_basis=20 / square_augment ECG",
        },
        "results": [results["sustained"], results["overload"]],
    }


def format_serving_http_rows(record: dict) -> tuple[list[str], list[list[str]]]:
    """Table headers + rows for a serving-HTTP bench record."""
    headers = [
        "phase", "requests", "accepted", "shed", "curves/s",
        "p50 ms", "p95 ms", "p99 ms", "max outstanding",
    ]
    rows = []
    for r in record["results"]:
        rows.append(
            [
                r["phase"],
                str(r["requests"]),
                str(r["accepted"]),
                str(r["shed"]),
                f"{r['curves_per_s']:,.0f}" if "curves_per_s" in r
                else f"(arrival {r['arrival_curves_per_s']:,.0f})",
                f"{r['p50_ms']:.1f}" if "p50_ms" in r else "-",
                f"{r['p95_ms']:.1f}" if "p95_ms" in r else "-",
                f"{r['p99_ms']:.1f}" if "p99_ms" in r else "-",
                str(r.get("max_outstanding", "-")),
            ]
        )
    return headers, rows
