"""Workload ``stream``: online FUNTA over a drifting stream.

The stream spec is that of ``examples/specs/stream_funta_sliding.json``
(FUNTA, sliding window of 128, exact window threshold at 5%
contamination, KS drift monitor), copied here so that the workload stays
fixed when the example changes.  The input is a pre-generated
``make_drifting_stream`` (bivariate, 64 grid points, one drift halfway,
a burst of isolated shift outliers every third chunk) cut into
64-curve chunks, the ``stream-score``
default, single-stream.  The sharded route (``shards=2``, thread
backend) runs in the checks and in the traced run.

Each pass compiles the spec and primes the detector on the first
window of curves (timed as set-up), then times every ``process()`` call
over the rest.  Before measuring, both routes run once: sharded scores
must equal single-stream scores (rtol 1e-12) with identical flag counts,
and each measured pass must reproduce its route's scores.
"""

from __future__ import annotations

import time
from statistics import median

import common

SPEC = {
    "spec": "stream", "kind": "funta", "window": 128, "policy": "sliding",
    "min_reference": 16, "contamination": 0.05, "threshold_mode": "window",
    "drift_baseline": 128, "drift_recent": 64, "alpha": 0.01, "seed": 7,
    "update_policy": "all", "on_drift": None, "incremental": True, "block_bytes": None,
}
CHUNK = 64
N_POINTS = 64
PRIME_CHUNKS = 2  # one window of curves
N_CHUNKS = 120  # scored chunks per pass
BURST_EVERY = 3
BURST_SIZE = 6
BURST_KIND = "shift_isolated"


def _inputs(seed: int):
    import numpy as np

    from repro.data.synthetic import make_drifting_stream
    from repro.fda.fdata import MFDataGrid

    total = PRIME_CHUNKS + N_CHUNKS
    stream = list(make_drifting_stream(
        n_chunks=total, chunk_size=CHUNK, n_points=N_POINTS,
        drift_at=PRIME_CHUNKS + N_CHUNKS // 2,
        burst_at=tuple(range(PRIME_CHUNKS + 2, total, BURST_EVERY)),
        burst_size=BURST_SIZE, burst_kind=BURST_KIND, random_state=seed,
    ))
    prime = stream[:PRIME_CHUNKS]
    reference = MFDataGrid(np.concatenate([c.values for c, _ in prime]), prime[0][0].grid)
    return reference, stream[PRIME_CHUNKS:]


def _build(shards: int, reference):
    from repro.plan import WorkloadSpec, compile_plan, spec_from_dict

    spec = spec_from_dict({**SPEC, "shards": shards, "shard_backend": "thread"})
    detector = compile_plan(spec, WorkloadSpec(mode="stream", chunk_size=CHUNK)).detector
    detector.prime(reference)
    return detector


def _install_tracing(recorder, detector, shards: int) -> None:
    if shards == 1:
        recorder.wrap(detector.window, "observe", "streaming.window")
    else:
        recorder.wrap(detector, "_ingest", "streaming.window")
    recorder.wrap(detector.threshold, "update", "streaming.threshold")
    recorder.wrap(detector.drift, "update", "streaming.drift")
    recorder.wrap(detector, "process", "streaming.process")


def one_pass(shards: int, reference, chunks, recorder=None) -> dict:
    """Set up one detector and push every chunk through ``process()``."""
    import numpy as np

    start = time.perf_counter()
    detector = _build(shards, reference)
    setup_s = time.perf_counter() - start
    try:
        if recorder is not None:
            _install_tracing(recorder, detector, shards)
        latencies, scores, flags = [], [], []
        for i, (chunk, _) in enumerate(chunks):
            if recorder is not None:
                recorder.set_request(f"chunk-{i}")
            t0 = time.perf_counter()
            result = detector.process(chunk)
            latencies.append(time.perf_counter() - t0)
            scores.append(result.scores)
            flags.append(result.flags if result.flags is not None
                         else np.zeros(chunk.n_samples, dtype=bool))
        return {"setup_s": setup_s, "latencies": latencies, "scores": scores,
                "flags": flags, "drift_events": len(detector.drift_events)}
    finally:
        if shards > 1:
            detector.close()


def _recall(flags, chunks) -> float:
    import numpy as np

    labels = np.concatenate([lab for _, lab in chunks]).astype(bool)
    flagged = np.concatenate(flags)
    return float(flagged[labels].mean())


def _mismatches(result: dict, reference: dict) -> int:
    """Chunks whose scores or flags differ from the reference pass."""
    import numpy as np

    return sum(
        not (np.allclose(s, rs, rtol=1e-12, atol=0.0) and int(f.sum()) == int(rf.sum()))
        for s, rs, f, rf in zip(result["scores"], reference["scores"],
                                result["flags"], reference["flags"])
    )


def _measure(shards, reference, chunks, expected, seconds, recorder=None) -> list[dict]:
    passes = []
    started = time.perf_counter()
    while not passes or time.perf_counter() - started < seconds:
        result = one_pass(shards, reference, chunks, recorder)
        result["failed"] = _mismatches(result, expected)
        passes.append(result)
    return passes


def _per_chunk_s(passes: list[dict]) -> float:
    return sum(sum(p["latencies"]) for p in passes) / sum(len(p["latencies"]) for p in passes)


def _traced_route(shards, reference, chunks, expected, seconds, prefix: str) -> dict:
    """Per-layer ms per chunk of one route, from a traced measurement."""
    from spans import SpanRecorder

    recorder = SpanRecorder()
    passes = _measure(shards, reference, chunks, expected, seconds, recorder)
    n = sum(len(p["latencies"]) for p in passes)
    totals = recorder.totals()

    def ms(name: str, key: str = "inclusive_s") -> float:
        return 1e3 * totals.get(name, {}).get(key, 0.0) / n

    layers = {f"{prefix}{part}_ms": ms(f"streaming.{part}")
              for part in ("window", "threshold", "drift")}
    layers[f"{prefix}score_self_ms"] = ms("streaming.process", "self_s")
    rows = [(name, 1e3 * row["inclusive_s"] / n, 1e3 * row["self_s"] / n, row["count"] // n)
            for name, row in sorted(totals.items())]
    table = {"title": f"shards={shards}", "unit": "chunk",
             "wall_ms": 1e3 * _per_chunk_s(passes), "rows": rows}
    spans = recorder.export(offset=time.time() - time.perf_counter(), source=f"shards{shards}-")
    return {"layers": layers, "table": table, "spans": spans, "per_chunk_s": _per_chunk_s(passes)}


def run(seed: int, seconds: float, trace: bool) -> dict:
    reference, chunks = _inputs(seed)
    single = one_pass(1, reference, chunks)
    sharded = one_pass(2, reference, chunks)
    problems = []
    agree = _mismatches(sharded, single)
    if agree:
        problems.append(f"sharded scores differ from single-stream on {agree} chunks")
    passes = _measure(1, reference, chunks, single, seconds / 2 if trace else seconds)
    latencies = [t for p in passes for t in p["latencies"]]
    attempted = len(latencies)
    failed = sum(p["failed"] for p in passes) + (attempted if problems else 0)
    result = {
        "attempted": attempted,
        "failed": min(failed, attempted),
        "problems": problems,
        "ops": "chunks",
        "samples": attempted,
        "passes": len(passes),
        "drift_events": {"single": single["drift_events"], "sharded": sharded["drift_events"]},
        "metrics": {
            "setup_s": median([p["setup_s"] for p in passes]),
            "throughput_per_s": median(
                [CHUNK * len(p["latencies"]) / sum(p["latencies"]) for p in passes]),
            "p50_ms": 1e3 * median(latencies),
            # Per pass, then the median: one hiccup of the host must not
            # decide the tail of the whole run.
            "tail_ms": 1e3 * median(
                [common.tail_percentile(p["latencies"])[1] for p in passes]),
            "tail_percentile": common.tail_percentile(passes[0]["latencies"])[0],
            "peak_rss_mb": common.peak_rss_mb(),
            "quality": _recall(single["flags"], chunks),
        },
    }
    if trace:
        routes = [_traced_route(1, reference, chunks, single, seconds / 4, "streaming."),
                  _traced_route(2, reference, chunks, sharded, seconds / 4,
                                "streaming.sharded_")]
        layers = {
            **routes[0]["layers"], **routes[1]["layers"],
            # The sharded route's speed, from its untraced check pass.
            "streaming.sharded_curves_per_s": CHUNK / _per_chunk_s([sharded]),
            "streaming.drift_events": float(single["drift_events"]),
            "streaming.drift_events_sharded": float(sharded["drift_events"]),
            "streaming.flagged": float(sum(int(f.sum()) for f in single["flags"])),
            "telemetry.trace_overhead": routes[0]["per_chunk_s"] / _per_chunk_s(passes),
            "_tables": [route["table"] for route in routes],
        }
        result["layers"] = layers
        result["spans"] = routes[0]["spans"] + routes[1]["spans"]
    return result
