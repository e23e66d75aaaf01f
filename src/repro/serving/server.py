"""Asyncio HTTP front door for the :class:`~repro.serving.ScoringService`.

The repo's serving layer could micro-batch and stream, but nothing
listened on a socket.  This module is that network entry point — a
stdlib-only HTTP/1.1 server on :mod:`asyncio` streams (no framework),
structured as three small pieces:

* **transport** (:class:`ScoringServer`) — parses requests off asyncio
  streams, dispatches to the :class:`~repro.serving.app.ServingApp`
  routes, frames JSON responses.  CPU-bound scoring never runs on the
  event loop: ``/score`` bodies execute in a worker thread, and
  ``/submit`` tickets are resolved by the background flush task.
* **flush loop** — one background task draining the service's
  micro-batch queue on *max-pending-or-deadline*: a submit that fills
  the queue past ``service.max_pending`` wakes it immediately, an idle
  trickle of requests is flushed after at most ``flush_interval``
  seconds.  Flushes run in a thread (one at a time), so the event loop
  keeps accepting — and shedding — while a batch scores.
* **multi-worker dispatch** (:func:`serve`) — ``workers=N`` forks N
  processes sharing one listening socket (kernel load-balanced
  ``accept``); each worker builds its *own* service and loads each
  ``format_version=2`` manifest itself with ``mmap=True``, so fitted
  arrays are zero-copy views into the page cache (one physical copy
  per host, N logical readers) and **no mutable state is shared** —
  a wedged worker cannot corrupt its siblings, and horizontal scale
  is "same manifest, more processes".

Backpressure: accepted work is bounded by the app's ``high_water``
mark; past it, ``/submit`` sheds with 429 + ``Retry-After`` (see
:meth:`ServingApp.try_submit`).  Shedding costs one JSON parse — the
queue never grows past the mark, so accepted-request latency stays
bounded under arbitrary overload.
"""

from __future__ import annotations

import asyncio
import json
import signal
import socket
import sys
import time
import urllib.error
import urllib.request
from pathlib import Path

from repro.exceptions import ReproError, ValidationError
from repro.serving.app import JsonResponse, ServingApp, TextResponse
from repro.serving.service import ScoringService

__all__ = ["ScoringServer", "serve", "load_service"]

_MAX_BODY_BYTES = 64 * 1024 * 1024  # refuse request bodies past 64 MB
_REASONS = {
    200: "OK", 400: "Bad Request", 404: "Not Found", 405: "Method Not Allowed",
    413: "Payload Too Large", 422: "Unprocessable Entity", 429: "Too Many Requests",
    500: "Internal Server Error",
}


def load_service(
    pipelines: dict[str, str | Path],
    max_pending: int = 256,
    mmap: bool = True,
) -> ScoringService:
    """Build a service and load each named manifest directory into it.

    ``mmap=True`` opens every array bundle zero-copy (stored members
    memory-map straight into the page cache; compressed members fall
    back to an eager read) — the per-worker load path of :func:`serve`.
    """
    from repro.serving.persist import load_pipeline

    service = ScoringService(max_pending=max_pending)
    for name, path in pipelines.items():
        pipeline = load_pipeline(path, context=service.context, mmap=mmap)
        service.register(name, pipeline)
    return service


def _encode_response(resp) -> bytes:
    if isinstance(resp, TextResponse):
        body = resp.body.encode("utf-8")
        content_type = resp.content_type
    else:
        body = json.dumps(resp.body).encode("utf-8")
        content_type = "application/json"
    reason = _REASONS.get(resp.status, "Unknown")
    head = [
        f"HTTP/1.1 {resp.status} {reason}",
        f"Content-Type: {content_type}",
        f"Content-Length: {len(body)}",
        "Connection: keep-alive",
    ]
    for key, value in resp.headers.items():
        head.append(f"{key}: {value}")
    return ("\r\n".join(head) + "\r\n\r\n").encode("ascii") + body


async def _read_request(reader: asyncio.StreamReader):
    """Parse one HTTP/1.1 request; returns (method, path, body) or None on EOF."""
    try:
        request_line = await reader.readline()
    except (ConnectionError, asyncio.IncompleteReadError):
        return None
    if not request_line:
        return None
    parts = request_line.decode("latin-1").split()
    if len(parts) != 3:
        raise ValidationError(f"malformed request line: {request_line!r}")
    method, target, _version = parts
    headers: dict[str, str] = {}
    while True:
        line = await reader.readline()
        if line in (b"\r\n", b"\n", b""):
            break
        name, _, value = line.decode("latin-1").partition(":")
        headers[name.strip().lower()] = value.strip()
    raw_length = headers.get("content-length", "0") or "0"
    if not (raw_length.isascii() and raw_length.isdigit()):
        raise ValidationError(
            f"Content-Length must be a non-negative decimal integer, got {raw_length!r}"
        )
    length = int(raw_length)
    if length > _MAX_BODY_BYTES:
        raise ValidationError(f"request body of {length} bytes exceeds the 64 MB cap")
    body = await reader.readexactly(length) if length else b""
    path = target.split("?", 1)[0]
    return method.upper(), path, body


class ScoringServer:
    """One event loop serving one :class:`~repro.serving.app.ServingApp`.

    Parameters
    ----------
    service:
        The scoring service (its ``max_pending`` is the micro-batch
        flush threshold).
    high_water:
        Shed bound on outstanding curves (see :class:`ServingApp`).
    flush_interval:
        Deadline (seconds) after which queued requests are flushed even
        if the batch never fills — the tail-latency bound for a trickle
        of traffic.
    host / port:
        Listen address; ``port=0`` picks a free port (see ``.port``
        after :meth:`start`).  Alternatively pass ``sock`` to adopt an
        already-bound listening socket (the multi-worker path).
    """

    def __init__(
        self,
        service: ScoringService,
        host: str = "127.0.0.1",
        port: int = 0,
        sock: socket.socket | None = None,
        high_water: int = 4096,
        flush_interval: float = 0.05,
        retry_after: float = 1.0,
    ):
        if flush_interval <= 0:
            raise ValidationError(f"flush_interval must be > 0, got {flush_interval!r}")
        self.app = ServingApp(service, high_water=high_water, retry_after=retry_after)
        self.service = service
        self.host = host
        self.port = port
        self._sock = sock
        self.flush_interval = float(flush_interval)
        self._server: asyncio.AbstractServer | None = None
        self._flush_task: asyncio.Task | None = None
        self._flush_wakeup: asyncio.Event | None = None
        self._flush_lock: asyncio.Lock | None = None
        self._waiters: list[tuple[object, asyncio.Future]] = []

    # ------------------------------------------------------------------ lifecycle
    async def start(self) -> None:
        loop = asyncio.get_running_loop()
        self._flush_wakeup = asyncio.Event()
        self._flush_lock = asyncio.Lock()
        if self._sock is not None:
            self._server = await asyncio.start_server(self._handle_connection, sock=self._sock)
        else:
            self._server = await asyncio.start_server(
                self._handle_connection, self.host, self.port
            )
        self.port = self._server.sockets[0].getsockname()[1]
        self._flush_task = loop.create_task(self._flush_loop())

    async def close(self) -> None:
        if self._flush_task is not None:
            self._flush_task.cancel()
            try:
                await self._flush_task
            except asyncio.CancelledError:
                pass
            self._flush_task = None
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        # Final drain so no accepted ticket is left pending on shutdown.
        if self.service.outstanding_curves():
            await asyncio.get_running_loop().run_in_executor(None, self.service.flush)
        self._settle_waiters()

    async def serve_forever(self) -> None:  # pragma: no cover - CLI path
        assert self._server is not None, "call start() first"
        try:
            await self._server.serve_forever()
        except asyncio.CancelledError:
            pass

    # ------------------------------------------------------------------ flushing
    def _settle_waiters(self) -> None:
        """Complete the futures of every ticket the last flush resolved."""
        still_waiting = []
        for ticket, future in self._waiters:
            if future.done():  # cancelled, or settled by the submit race guard
                continue
            if ticket.done:
                future.set_result(None)
            else:
                still_waiting.append((ticket, future))
        self._waiters = still_waiting

    async def _do_flush(self) -> None:
        """Run one service flush in a worker thread; settle resolved tickets."""
        async with self._flush_lock:
            await asyncio.get_running_loop().run_in_executor(None, self.service.flush)
        self._settle_waiters()

    async def _flush_loop(self) -> None:
        """max_pending-or-deadline drain of the micro-batch queue."""
        while True:
            try:
                await asyncio.wait_for(
                    self._flush_wakeup.wait(), timeout=self.flush_interval
                )
            except asyncio.TimeoutError:
                pass
            self._flush_wakeup.clear()
            # queue_depth() is the registry's queue gauge — the same
            # value the dispatch wakeup below and /metrics read, so the
            # three can never disagree about whether work is pending.
            if self.service.queue_depth():
                await self._do_flush()

    # ------------------------------------------------------------------ dispatch
    async def _dispatch(self, method: str, path: str, body: bytes) -> JsonResponse:
        loop = asyncio.get_running_loop()
        if path == "/healthz" and method == "GET":
            return self.app.healthz()
        if path == "/stats" and method == "GET":
            return self.app.stats()
        if path == "/metrics" and method == "GET":
            # Rendering walks every instrument — keep it off the loop.
            return await loop.run_in_executor(None, self.app.metrics)
        if path == "/score" and method == "POST":
            # CPU-bound: run the parse+score off the event loop.
            return await loop.run_in_executor(None, self.app.score, body)
        if path == "/submit" and method == "POST":
            outcome = await loop.run_in_executor(None, self.app.try_submit, body)
            if isinstance(outcome, JsonResponse):  # shed (429)
                return outcome
            ticket = outcome
            future: asyncio.Future = loop.create_future()
            self._waiters.append((ticket, future))
            # The background flusher may have drained this ticket between
            # try_submit returning and the waiter registering — settle the
            # future now or it would wait for a flush that never comes.
            if ticket.done and not future.done():
                future.set_result(None)
            if self.service.queue_depth() >= self.service.max_pending:
                self._flush_wakeup.set()
            await future
            return self.app.ticket_response(ticket)
        if path in ("/score", "/submit", "/healthz", "/stats", "/metrics"):
            return JsonResponse(405, {"error": f"{method} not allowed on {path}"})
        return JsonResponse(404, {"error": f"no route {path!r}"})

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            while True:
                try:
                    request = await _read_request(reader)
                except ValidationError as exc:
                    writer.write(_encode_response(JsonResponse(400, {"error": str(exc)})))
                    await writer.drain()
                    break
                except asyncio.IncompleteReadError:
                    break
                if request is None:
                    break
                method, path, body = request
                # A *detached* span: handler coroutines interleave on
                # the event loop, so a thread-local span stack would
                # cross-link concurrent requests' trees.
                span = self.service.telemetry.start_span(
                    "http_request", method=method, route=path
                )
                start = time.perf_counter()
                try:
                    response = await self._dispatch(method, path, body)
                except ValidationError as exc:
                    status = 404 if "no pipeline named" in str(exc) else 400
                    response = JsonResponse(status, {"error": str(exc)})
                except ReproError as exc:
                    response = JsonResponse(422, {"error": f"{type(exc).__name__}: {exc}"})
                except Exception as exc:  # pragma: no cover - defensive
                    response = JsonResponse(500, {"error": f"{type(exc).__name__}: {exc}"})
                elapsed = time.perf_counter() - start
                span.set(status=response.status)
                span.end()
                if span.trace_id is not None:
                    response.headers.setdefault("X-Trace-Id", span.trace_id)
                pipeline = (
                    response.body.get("pipeline")
                    if isinstance(response.body, dict) else None
                )
                self.app.observe_request(path, pipeline, elapsed)
                writer.write(_encode_response(response))
                await writer.drain()
        except (ConnectionError, asyncio.CancelledError):
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):  # pragma: no cover
                pass


# ---------------------------------------------------------------------- workers
def _bind_socket(host: str, port: int) -> socket.socket:
    sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
    sock.bind((host, port))
    sock.listen(512)
    sock.setblocking(False)
    return sock


async def _run_worker_async(
    pipelines: dict,
    sock: socket.socket,
    max_pending: int,
    high_water: int,
    flush_interval: float,
    mmap: bool,
    ready=None,
) -> None:
    service = load_service(pipelines, max_pending=max_pending, mmap=mmap)
    server = ScoringServer(
        service,
        sock=sock,
        high_water=high_water,
        flush_interval=flush_interval,
    )
    await server.start()
    if ready is not None:
        ready.set()
    try:
        await server.serve_forever()
    finally:
        await server.close()


def _worker_main(
    pipelines: dict,
    sock: socket.socket,
    max_pending: int,
    high_water: int,
    flush_interval: float,
    mmap: bool,
) -> None:  # pragma: no cover - exercised via subprocess in the bench/tests
    # Workers die on SIGTERM from the parent; restore default SIGINT so a
    # ^C on the foreground process group doesn't stack tracebacks.
    signal.signal(signal.SIGINT, signal.SIG_DFL)
    try:
        asyncio.run(
            _run_worker_async(
                pipelines, sock, max_pending, high_water, flush_interval, mmap
            )
        )
    except KeyboardInterrupt:
        pass


def serve(
    pipelines: dict[str, str | Path],
    host: str = "127.0.0.1",
    port: int = 8000,
    workers: int = 1,
    max_pending: int = 256,
    high_water: int = 4096,
    flush_interval: float = 0.05,
    mmap: bool = True,
) -> None:  # pragma: no cover - long-running CLI entry point
    """Serve ``pipelines`` (name → manifest dir) over HTTP until killed.

    ``workers > 1`` forks that many processes sharing one bound listening
    socket; each loads its own manifests (``mmap=True`` → one page-cache
    copy of the arrays per host) and shares no mutable state with its
    siblings.  The parent only supervises: a SIGINT/SIGTERM tears the
    fleet down.
    """
    import multiprocessing

    if workers < 1:
        raise ValidationError(f"workers must be >= 1, got {workers}")
    # SIGTERM (the polite kill) must tear the fleet down like ^C does:
    # with the default disposition the parent dies mid-join and orphans
    # its forked workers.  Raising SystemExit in the main thread instead
    # unwinds through the finally blocks below, which terminate them.
    if signal.getsignal(signal.SIGTERM) is signal.SIG_DFL:
        signal.signal(
            signal.SIGTERM,
            lambda signum, frame: sys.exit(128 + signum),
        )
    sock = _bind_socket(host, port)
    bound_port = sock.getsockname()[1]
    print(
        f"repro serve: listening on http://{host}:{bound_port} "
        f"({workers} worker{'s' if workers != 1 else ''}, "
        f"pipelines: {sorted(pipelines)})",
        flush=True,
    )
    if workers == 1:
        try:
            asyncio.run(
                _run_worker_async(
                    pipelines, sock, max_pending, high_water, flush_interval, mmap
                )
            )
        except KeyboardInterrupt:
            print("repro serve: shutting down", flush=True)
        finally:
            sock.close()
        return

    ctx = multiprocessing.get_context("fork")
    procs = [
        ctx.Process(
            target=_worker_main,
            args=(pipelines, sock, max_pending, high_water, flush_interval, mmap),
            daemon=False,
        )
        for _ in range(workers)
    ]
    for proc in procs:
        proc.start()
    sock.close()  # children hold their inherited copies
    try:
        for proc in procs:
            proc.join()
    except KeyboardInterrupt:
        print("repro serve: shutting down workers", flush=True)
    finally:
        for proc in procs:
            if proc.is_alive():
                proc.terminate()
        for proc in procs:
            proc.join(timeout=5)


def http_request_json(url: str, doc: dict | None = None, timeout: float = 30.0):
    """Tiny JSON-over-HTTP client (stdlib): returns (status, parsed body).

    Used by the CLI smoke path, the bench and the tests; POSTs ``doc``
    when given, GETs otherwise.  Non-2xx statuses are returned, not
    raised, so callers can assert on 429s.
    """
    data = None if doc is None else json.dumps(doc).encode("utf-8")
    req = urllib.request.Request(
        url, data=data,
        headers={"Content-Type": "application/json"} if data else {},
    )
    try:
        with urllib.request.urlopen(req, timeout=timeout) as resp:
            return resp.status, json.loads(resp.read().decode("utf-8"))
    except urllib.error.HTTPError as exc:
        payload = exc.read()
        try:
            body = json.loads(payload.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError):
            body = {"error": payload.decode("latin-1", "replace")}
        return exc.code, body
