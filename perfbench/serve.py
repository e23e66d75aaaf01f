"""Workload ``serve``: ``repro serve`` under two closed-loop keep-alive clients.

Set-up (timed, repeated, median reported): fit the Fig. 3 serving
pipeline (Isolation Forest, 200 trees, over curvature features with
``n_basis=20``), save it uncompressed, start ``python -m repro serve``
with the CLI defaults (1 worker, ``max_pending=256``,
``flush_interval=0.05``, mmap) and send the first warm request.

Measurement: two clients on two keep-alive connections of one asyncio
loop POST ``/submit`` with 128-curve JSON bodies, pre-encoded from
fresh ECG curves, in closed-loop rounds: both send, and both send again
once both answers are in.  Without the rounds the pair settles, at a
random moment of each run, into an out-of-step mode where every flush
waits out the deadline, and throughput jumps by a quarter between runs.
Every
response is checked against an in-process
``load_pipeline(...).score_samples`` of the same body (rtol 1e-12).

Run as a script, this module is the traced server: it wraps the serving
layers' public functions, runs ``repro serve`` and writes its spans to
the ``--spans`` file when it receives SIGTERM.
"""

from __future__ import annotations

import asyncio
import json
import os
import re
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

import common

CLIENTS = 2
BATCH_CURVES = 128
#: Rounds per throughput window; the run reports the median window.
WINDOW_ROUNDS = 8
BODIES = 4
#: Set-ups per run; the last server stays up for the measurement.
SETUPS = 3
PIPELINE = "fig3"
#: The pipeline is fitted on the fixed ECG-200 substitute (the CLI's
#: seed); ``--seed`` draws the traffic.
DATA_SEED = 7
STOP_TIMEOUT_S = 20


# ---------------------------------------------------------------------- server
def _install_server_tracing(recorder, stamps: dict, flush_curves: list) -> None:
    import repro.serving.server as server_mod
    from repro.detectors.base import OutlierDetector
    from repro.fda.smoothing import BasisSmoother
    from repro.geometry.base import MappingFunction
    from repro.serving.app import ServingApp
    from repro.serving.service import ScoreTicket, ScoringService

    recorder.wrap(ServingApp, "try_submit", "serving.decode")
    recorder.wrap(ServingApp, "ticket_response", "serving.encode")
    recorder.wrap(BasisSmoother, "fit_grid", "fda.smooth")
    recorder.wrap(MappingFunction, "transform", "geometry.map")
    recorder.wrap(OutlierDetector, "score_samples", "detectors.iforest_score")

    ticket_init = ScoreTicket.__init__

    def stamped_init(ticket, *args, **kwargs):
        ticket_init(ticket, *args, **kwargs)
        stamps[id(ticket)] = time.perf_counter()

    ScoreTicket.__init__ = stamped_init

    flush = ScoringService.flush

    def traced_flush(service):
        started = time.perf_counter()
        with service._lock:
            queued = [(mfd.n_samples, ticket) for _, mfd, ticket in service._queue]
        if not queued:
            return flush(service)
        for _, ticket in queued:
            created = stamps.pop(id(ticket), None)
            if created is not None:
                recorder.record("serving.queue_wait", created, started, request=id(ticket))
        flush_curves.append(sum(n for n, _ in queued))
        return recorder.call("serving.flush", flush, service)

    ScoringService.flush = traced_flush

    encode = server_mod._encode_response

    def traced_encode(response):
        body = getattr(response, "body", None)
        if isinstance(body, dict) and "scores" in body:
            return recorder.call("serving.encode_body", encode, response)
        return encode(response)

    server_mod._encode_response = traced_encode


def server_main(argv) -> None:
    """``serve.py --spans FILE <repro CLI args>``: a traced ``repro serve``."""
    spans_path = Path(argv[2])
    common.require_package()
    from spans import SpanRecorder

    recorder = SpanRecorder()
    stamps: dict = {}
    flush_curves: list = []
    _install_server_tracing(recorder, stamps, flush_curves)
    offset = time.time() - time.perf_counter()

    def stop(signum, frame):
        common.write_json(spans_path, {
            "spans": recorder.export(offset=offset, source="server-"),
            "totals": recorder.totals(),
            "flush_curves": flush_curves,
        })
        os._exit(0)

    signal.signal(signal.SIGTERM, stop)
    from repro.cli import main

    sys.exit(main(argv[3:]))


# ---------------------------------------------------------------------- client
async def _exchange(reader, writer, request: bytes) -> tuple[int, bytes]:
    writer.write(request)
    await writer.drain()
    status = int((await reader.readline()).split(b" ", 2)[1])
    length = 0
    while True:
        line = await reader.readline()
        if line in (b"\r\n", b"\n", b""):
            break
        key, _, value = line.partition(b":")
        if key.strip().lower() == b"content-length":
            length = int(value)
    return status, (await reader.readexactly(length) if length else b"")


def _post_request(path: str, body: bytes) -> bytes:
    return (f"POST {path} HTTP/1.1\r\nHost: 127.0.0.1\r\nContent-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\nConnection: keep-alive\r\n\r\n").encode() + body


def _get_request(path: str) -> bytes:
    return f"GET {path} HTTP/1.1\r\nHost: 127.0.0.1\r\nConnection: keep-alive\r\n\r\n".encode()


def _submit_seconds(metrics_text: str) -> tuple[float, float]:
    """(sum, count) of the server's ``serving_request_seconds`` for /submit."""
    total = count = 0.0
    for line in metrics_text.splitlines():
        if 'route="/submit"' not in line or line.startswith("#"):
            continue
        name, _, value = line.rpartition(" ")
        if name.startswith("serving_request_seconds_sum"):
            total += float(value)
        elif name.startswith("serving_request_seconds_count"):
            count += float(value)
    return total, count


class _Traffic:
    """Closed-loop clients against one server; latencies and output checks."""

    def __init__(self, port: int, requests: list[bytes], expected: list, recorder=None):
        self.port = port
        self.requests = requests
        self.expected = expected
        self.recorder = recorder
        self.latencies: list[float] = []
        self.rounds: list[float] = []
        self.failed = 0
        self.served: dict[int, list] = {}

    async def _get(self, path: str) -> bytes:
        reader, writer = await asyncio.open_connection("127.0.0.1", self.port)
        try:
            status, body = await _exchange(reader, writer, _get_request(path))
            if status != 200:
                raise RuntimeError(f"GET {path} answered {status}")
            return body
        finally:
            writer.close()
            await writer.wait_closed()

    async def _request(self, connection, i: int) -> None:
        import numpy as np

        b = i % len(self.requests)
        start = time.perf_counter()
        status, payload = await _exchange(*connection, self.requests[b])
        end = time.perf_counter()
        self.latencies.append(end - start)
        if self.recorder is not None:
            self.recorder.record("client.request", start, end, request=f"r{i}")
        scores = json.loads(payload).get("scores") if status == 200 else None
        if scores is None or not np.allclose(scores, self.expected[b], rtol=1e-12, atol=0.0):
            self.failed += 1
        else:
            self.served.setdefault(b, scores)

    async def run(self, seconds: float) -> dict:
        before = _submit_seconds((await self._get("/metrics")).decode())
        connections = [await asyncio.open_connection("127.0.0.1", self.port)
                       for _ in range(CLIENTS)]
        start = time.perf_counter()
        try:
            # Rounds: each client sends its next request once every client
            # of the round has its answer, so the clients cannot drift out
            # of step for good; a flush deadline firing between two
            # arrivals still splits that one round.
            i = 0
            while time.perf_counter() < start + seconds:
                round_start = time.perf_counter()
                await asyncio.gather(*(self._request(c, i + k)
                                       for k, c in enumerate(connections)))
                self.rounds.append(time.perf_counter() - round_start)
                i += CLIENTS
        finally:
            for _, writer in connections:
                writer.close()
                await writer.wait_closed()
        after = _submit_seconds((await self._get("/metrics")).decode())
        stats = json.loads(await self._get("/stats"))
        server_s = (after[0] - before[0]) / max(after[1] - before[1], 1.0)
        return {"server_latency_s": server_s, "stats": stats}

    def throughput(self) -> float:
        """Curves per second: the median over windows of ``WINDOW_ROUNDS`` rounds."""
        windows = [self.rounds[i:i + WINDOW_ROUNDS]
                   for i in range(0, len(self.rounds) - WINDOW_ROUNDS + 1, WINDOW_ROUNDS)]
        windows = windows or [self.rounds]
        return median([CLIENTS * BATCH_CURVES * len(w) / sum(w) for w in windows])


# ---------------------------------------------------------------------- workload
class _Server:
    """One ``repro serve`` process (traced or not) on a free port."""

    def __init__(self, bundle, spans_path=None):
        args = ["serve", "--pipeline", f"{PIPELINE}={bundle}", "--port", "0"]
        if spans_path is None:
            command = [sys.executable, "-m", "repro", *args]
        else:
            command = common.child_command("serve.py", "--spans", str(spans_path), *args)
        self.proc = subprocess.Popen(command, stdout=subprocess.PIPE, text=True,
                                     cwd=common.ROOT)
        line = self.proc.stdout.readline()
        match = re.search(r":(\d+) ", line)
        if match is None:
            self.stop()
            raise RuntimeError(f"repro serve did not start: {line!r}")
        self.port = int(match.group(1))

    def stop(self) -> float:
        """Stop the server; returns its peak resident memory in MB."""
        rss = 0.0
        if self.proc.poll() is None:
            rss = common.proc_peak_rss_mb(self.proc.pid)
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        return rss


def _fit_and_start(train, bundle, warm: bytes, spans_path=None) -> _Server:
    from repro.core.pipeline import GeometricOutlierPipeline
    from repro.detectors import IsolationForest
    from repro.serving import save_pipeline

    pipeline = GeometricOutlierPipeline(
        IsolationForest(n_estimators=200, random_state=0), n_basis=20
    ).fit(train)
    save_pipeline(pipeline, bundle, compressed=False)
    server = _Server(bundle, spans_path)
    try:
        async def warm_up():
            reader, writer = await asyncio.open_connection("127.0.0.1", server.port)
            try:
                status, _ = await _exchange(reader, writer, warm)
            finally:
                writer.close()
                await writer.wait_closed()
            if status != 200:
                raise RuntimeError(f"warm request answered {status}")

        asyncio.run(warm_up())
    except BaseException:
        server.stop()
        raise
    return server


def _inputs(seed: int):
    """Training set, traffic batches, their pre-encoded requests and labels."""
    import numpy as np

    from repro.data import make_ecg_dataset, square_augment
    from repro.fda.fdata import MFDataGrid

    data, _, _ = make_ecg_dataset(random_state=DATA_SEED)
    train = square_augment(data)
    n = BODIES * BATCH_CURVES
    fresh, labels, _ = make_ecg_dataset(n_normal=n * 2 // 3, n_abnormal=n - n * 2 // 3,
                                        random_state=seed + 1)
    traffic = square_augment(fresh)
    order = np.random.default_rng(seed).permutation(n)
    values, labels = traffic.values[order], np.asarray(labels)[order]
    batches = [MFDataGrid(values[i * BATCH_CURVES:(i + 1) * BATCH_CURVES], traffic.grid)
               for i in range(BODIES)]
    requests = [
        _post_request("/submit", json.dumps({"pipeline": PIPELINE, "values": b.values.tolist(),
                                     "grid": b.grid.tolist()}).encode())
        for b in batches
    ]
    return train, batches, requests, labels


def _measure(port, requests, expected, seconds, recorder=None) -> tuple[_Traffic, dict]:
    traffic = _Traffic(port, requests, expected, recorder)
    phase = asyncio.run(traffic.run(seconds))
    return traffic, phase


def run(seed: int, seconds: float, trace: bool) -> dict:
    import numpy as np

    from repro.evaluation.metrics import roc_auc
    from repro.serving import load_pipeline

    train, batches, requests, labels = _inputs(seed)
    setups = []
    server = None
    bundle = common.OUT / f"serve_{seed}"
    try:
        for _ in range(SETUPS):
            if server is not None:
                server.stop()
                shutil.rmtree(bundle)
            start = time.perf_counter()
            server = _fit_and_start(train, bundle, requests[0])
            setups.append(time.perf_counter() - start)
        # The reference: the saved pipeline scored in-process, body by body.
        reference = load_pipeline(bundle)
        expected = [reference.score_samples(b) for b in batches]
        traffic, phase = _measure(server.port, requests, expected,
                                  seconds / 2 if trace else seconds)
    finally:
        rss = server.stop() if server is not None else 0.0
        shutil.rmtree(bundle, ignore_errors=True)
    n = len(traffic.latencies)
    served = traffic.served
    quality = 0.0
    problems = []
    if len(served) == BODIES:
        quality = roc_auc(np.concatenate([served[b] for b in range(BODIES)]), labels)
    else:
        problems.append(f"only {len(served)} of {BODIES} bodies were served correctly")
    cache = phase["stats"]["cache"]
    result = {
        "attempted": n,
        "failed": traffic.failed,
        "problems": problems,
        "ops": "requests",
        "samples": n,
        "setups_s": setups,
        "metrics": {
            "setup_s": median(setups),
            "throughput_per_s": traffic.throughput(),
            "p50_ms": 1e3 * median(traffic.latencies),
            "tail_ms": 1e3 * common.tail_percentile(traffic.latencies)[1],
            "tail_percentile": common.tail_percentile(traffic.latencies)[0],
            "peak_rss_mb": rss,
            "quality": quality,
        },
    }
    if trace:
        result.update(_traced(train, requests, expected, seconds / 2, traffic, phase, cache))
    return result


def _traced(train, requests, expected, seconds, untraced, phase, cache) -> dict:
    from spans import SpanRecorder

    spans_path = common.OUT / "serve_spans.json"
    spans_path.unlink(missing_ok=True)
    bundle = common.OUT / "serve_traced"
    server = _fit_and_start(train, bundle, requests[0], spans_path)
    recorder = SpanRecorder()
    try:
        traffic, _ = _measure(server.port, requests, expected, seconds, recorder)
    finally:
        server.stop()
        shutil.rmtree(bundle, ignore_errors=True)
    dumped = json.loads(spans_path.read_text())
    spans_path.unlink()
    totals = dumped["totals"]
    flushes = max(totals.get("serving.flush", {}).get("count", 0), 1)

    def mean_ms(name: str) -> float:
        row = totals.get(name, {"inclusive_s": 0.0, "count": 1})
        return 1e3 * row["inclusive_s"] / row["count"]

    def per_flush_ms(name: str) -> float:
        return 1e3 * totals.get(name, {}).get("inclusive_s", 0.0) / flushes

    untraced_mean = sum(untraced.latencies) / len(untraced.latencies)
    latency_ms = 1e3 * sum(traffic.latencies) / len(traffic.latencies)
    # Server-side means include the warm request of the traced server.
    layers = {
        "serving.decode_ms": mean_ms("serving.decode"),
        "serving.queue_wait_ms": mean_ms("serving.queue_wait"),
        "serving.flush_ms": mean_ms("serving.flush"),
        "serving.flush_curves": sum(dumped["flush_curves"]) / flushes,
        "serving.flushes": float(totals.get("serving.flush", {}).get("count", 0)),
        "fda.smooth_ms": per_flush_ms("fda.smooth"),
        "geometry.map_ms": per_flush_ms("geometry.map"),
        "detectors.iforest_score_ms": per_flush_ms("detectors.iforest_score"),
        "serving.encode_ms": mean_ms("serving.encode") + mean_ms("serving.encode_body"),
        "serving.client_gap_ms": 1e3 * (untraced_mean - phase["server_latency_s"]),
        "engine.factorizations": float(cache["factorizations"]),
        "engine.cache_hit_ratio": _hit_ratio(cache),
        "telemetry.trace_overhead": latency_ms / (1e3 * untraced_mean),
    }
    # Latency of one request, as the request experiences it: its own
    # decode, wait and encode, plus the whole flush it waits on.
    rows = [
        ("serving.decode", layers["serving.decode_ms"], layers["serving.decode_ms"], 1),
        ("serving.queue_wait", layers["serving.queue_wait_ms"],
         layers["serving.queue_wait_ms"], 1),
        ("serving.flush", layers["serving.flush_ms"],
         layers["serving.flush_ms"] - layers["fda.smooth_ms"] - layers["geometry.map_ms"]
         - layers["detectors.iforest_score_ms"], 1),
        ("  fda.smooth", layers["fda.smooth_ms"], layers["fda.smooth_ms"], 1),
        ("  geometry.map", layers["geometry.map_ms"], layers["geometry.map_ms"], 1),
        ("  detectors.iforest_score", layers["detectors.iforest_score_ms"],
         layers["detectors.iforest_score_ms"], 1),
        ("serving.encode", layers["serving.encode_ms"], layers["serving.encode_ms"], 1),
    ]
    layers["_tables"] = [{"title": "request latency", "unit": "request",
                          "wall_ms": latency_ms, "rows": rows}]
    return {"layers": layers,
            "spans": dumped["spans"] + recorder.export(offset=time.time() - time.perf_counter(),
                                                       source="client-")}


def _hit_ratio(cache: dict) -> float:
    hits = sum(v for k, v in cache.items() if k.endswith("_hits"))
    builds = sum(v for k, v in cache.items() if not k.endswith("_hits"))
    return hits / (hits + builds) if hits + builds else 0.0


if __name__ == "__main__":
    server_main(sys.argv)
