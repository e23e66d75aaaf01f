"""Route handlers for the HTTP serving front door.

This module is the *application* layer of :mod:`repro.serving.server`:
pure request → response logic over a :class:`~repro.serving.ScoringService`,
with no socket or HTTP-framing code.  The transport hands each parsed
request to :meth:`ServingApp.dispatch`; everything here is testable
without opening a port.

Wire format
-----------
Requests and responses are JSON.  A scoring request body is::

    {"pipeline": "<name or spec hash>",
     "values": [[...], ...],          # (n, m) or (n, m, p) nested lists
     "grid": [...]}                   # (m,) strictly increasing

Bodies are parsed with :func:`orjson.loads`; a body orjson rejects is
parsed once more with :func:`json.loads`, so the non-standard ``NaN`` /
``Infinity`` literals that Python's ``json.dumps`` emits, overflowing
literals such as ``1e400`` and lone-surrogate escapes are still
accepted exactly as before.  For every body orjson accepts the two
parsers give bit-identical arrays.

* ``POST /score``  — score the batch immediately (bypasses the queue).
* ``POST /submit`` — enqueue into the micro-batch queue; the response
  arrives once the batch's flush resolves (``max_pending``-or-deadline,
  see the server's flush loop).  Under overload the request is shed
  **before** being queued with status ``429`` and a ``Retry-After``
  header — the queue is bounded by the high-water mark, never by
  available memory.
* ``GET /healthz`` — liveness + the registered pipeline names.
* ``GET /stats``   — service counters (queue depth, flushes, cache
  hits) plus the front door's own accept/shed/latency counters.
* ``GET /metrics`` — the service telemetry registry in the Prometheus
  text exposition format (queue depth, shed count, per-route latency
  histograms, cache hit rate, kernel timings — every metric in
  :data:`repro.telemetry.CATALOGUE` that traffic has touched).

Pipelines are addressable by their registered *name* or by their
declarative **spec hash** (:func:`repro.plan.spec_hash` of the
pipeline's :class:`~repro.plan.PipelineSpec`) — the stable routing key
that lets a load balancer target "this exact model configuration"
across a fleet of workers without coordinating name assignments.
"""

from __future__ import annotations

import json
import time

import numpy as np
import orjson

from repro.exceptions import ReproError, ValidationError
from repro.fda.fdata import MFDataGrid

__all__ = ["JsonResponse", "ServingApp", "TextResponse"]


class JsonResponse:
    """Status + JSON-able body + optional extra headers."""

    __slots__ = ("status", "body", "headers")

    def __init__(self, status: int, body: dict, headers: dict | None = None):
        self.status = status
        self.body = body
        self.headers = headers or {}


class TextResponse:
    """Status + plain-text body (the ``/metrics`` exposition format)."""

    __slots__ = ("status", "body", "headers", "content_type")

    def __init__(self, status: int, body: str, headers: dict | None = None,
                 content_type: str = "text/plain; version=0.0.4; charset=utf-8"):
        self.status = status
        self.body = body
        self.headers = headers or {}
        self.content_type = content_type


def _parse_batch(doc: dict) -> MFDataGrid:
    """Lower a request body's ``values``/``grid`` into an MFDataGrid."""
    missing = [key for key in ("values", "grid") if key not in doc]
    if missing:
        raise ValidationError(f"request body is missing keys: {missing}")
    try:
        values = np.asarray(doc["values"], dtype=np.float64)
        grid = np.asarray(doc["grid"], dtype=np.float64)
    except (TypeError, ValueError, OverflowError) as exc:
        # OverflowError: an integer literal beyond the float range.
        raise ValidationError(f"values/grid are not numeric arrays: {exc}") from exc
    if values.ndim == 2:
        values = values[:, :, None]
    if values.ndim != 3:
        raise ValidationError(
            f"values must nest to (n, m) or (n, m, p), got shape {values.shape}"
        )
    return MFDataGrid(values, grid)


class ServingApp:
    """The four routes of the front door, bound to one scoring service.

    Parameters
    ----------
    service:
        The (thread-safe) :class:`~repro.serving.ScoringService` all
        scoring routes go through.
    high_water:
        Load-shedding bound: once the service's outstanding curves
        (queued + mid-flush) reach this mark, ``POST /submit`` sheds
        with 429 instead of queueing.  This is what keeps the queue —
        and the worst-case tail latency of accepted requests — bounded
        under an arrival rate the flush capacity cannot match.
    retry_after:
        Seconds advertised in the 429 ``Retry-After`` header.
    """

    def __init__(self, service, high_water: int = 4096, retry_after: float = 1.0):
        from repro.serving.service import ScoringService

        if not isinstance(service, ScoringService):
            raise ValidationError(
                f"service must be a ScoringService, got {type(service).__name__}"
            )
        if not isinstance(high_water, (int, np.integer)) or high_water < 1:
            raise ValidationError(f"high_water must be a positive int, got {high_water!r}")
        self.service = service
        self.high_water = int(high_water)
        self.retry_after = float(retry_after)
        # The front door's own counters live in the service's telemetry
        # registry, so one /metrics scrape covers transport + service +
        # every instrumented layer beneath them.
        self.telemetry = service.telemetry
        self._c_accepted = self.telemetry.counter("serving_accepted_requests_total")
        self._c_shed = self.telemetry.counter("serving_shed_requests_total")
        self._h_decode = {
            route: self.telemetry.histogram("serving_decode_seconds", route=route)
            for route in ("/score", "/submit")
        }
        # name -> name plus spec-hash -> name aliases, rebuilt on demand.
        self._routes: dict[str, str] = {}

    @property
    def accepted_requests(self) -> int:
        return self._c_accepted.value

    @property
    def shed_requests(self) -> int:
        return self._c_shed.value

    # ------------------------------------------------------------------ routing
    def routes(self) -> dict[str, str]:
        """Current routing table: name and spec-hash keys → pipeline name."""
        from repro.plan import pipeline_to_spec, spec_hash

        table: dict[str, str] = {}
        for name in self.service.names():
            table[name] = name
            try:
                table[spec_hash(pipeline_to_spec(self.service._pipeline(name)))] = name
            except ReproError:  # pragma: no cover - unhashable config
                pass
        self._routes = table
        return table

    def resolve(self, key: str) -> str:
        """Pipeline name for a request's ``pipeline`` key (name or hash)."""
        if key in self._routes:
            return self._routes[key]
        table = self.routes()  # refresh once for late registrations
        if key in table:
            return table[key]
        raise ValidationError(
            f"no pipeline named (or spec-hashed) {key!r}; "
            f"loaded: {self.service.names()}"
        )

    def pipeline_label(self, name: str | None) -> str:
        """The metric label for a pipeline: its spec hash when it has one.

        Keying the per-route latency series by spec hash (the stable
        routing key) instead of the worker-local registration name means
        histograms from a fleet of workers serving the same model
        configuration aggregate, whatever each worker called it.
        """
        if not name:
            return "-"
        if name not in self._routes:
            self.routes()  # refresh aliases for late registrations
        for key, target in self._routes.items():
            if target == name and key != name:
                return key
        return name

    _ROUTES = ("/score", "/submit", "/healthz", "/stats", "/metrics")

    def observe_request(self, route: str, pipeline: str | None, seconds: float) -> None:
        """Record one end-to-end request into the latency histogram.

        Unknown paths collapse into one ``other`` series so a port scan
        cannot grow the label space without bound.
        """
        if route not in self._ROUTES:
            route = "other"
        self.telemetry.histogram(
            "serving_request_seconds",
            route=route, pipeline=self.pipeline_label(pipeline),
        ).observe(seconds)

    # ------------------------------------------------------------------ routes
    def healthz(self) -> JsonResponse:
        return JsonResponse(200, {"status": "ok", "pipelines": self.service.names()})

    def stats(self) -> JsonResponse:
        body = self.service.stats()
        body["http"] = {
            "accepted_requests": self._c_accepted.value,
            "shed_requests": self._c_shed.value,
            "high_water": self.high_water,
        }
        return JsonResponse(200, body)

    def metrics(self) -> TextResponse:
        """``GET /metrics``: the shared registry as Prometheus text."""
        return TextResponse(200, self.telemetry.to_prometheus())

    def _parse_scoring_request(self, body: bytes) -> tuple[str, MFDataGrid]:
        try:
            doc = orjson.loads(body)
        except orjson.JSONDecodeError:
            # NaN/Infinity literals, overflowing numbers and lone
            # surrogates: only the stdlib parser accepts these.
            try:
                doc = json.loads(body.decode("utf-8"))
            except (UnicodeDecodeError, json.JSONDecodeError) as exc:
                raise ValidationError(f"request body is not valid JSON: {exc}") from exc
        if not isinstance(doc, dict):
            raise ValidationError(
                f"request body must be a JSON object, got {type(doc).__name__}"
            )
        key = doc.get("pipeline")
        if not isinstance(key, str) or not key:
            raise ValidationError("request body needs a 'pipeline' name or spec hash")
        return self.resolve(key), _parse_batch(doc)

    def _decode(self, body: bytes, route: str) -> tuple[str, MFDataGrid]:
        """Parse a scoring body into ``serving_decode_seconds{route}``.

        Rejected bodies are timed too: a flood of malformed requests
        costs decode time like any other.
        """
        start = time.perf_counter()
        try:
            return self._parse_scoring_request(body)
        finally:
            self._h_decode[route].observe(time.perf_counter() - start)

    def score(self, body: bytes) -> JsonResponse:
        """Immediate scoring — no queue, no backpressure beyond the socket."""
        name, mfd = self._decode(body, "/score")
        scores = self.service.score(name, mfd)
        self._c_accepted.inc()
        return JsonResponse(200, {"pipeline": name, "scores": scores.tolist()})

    def try_submit(self, body: bytes):
        """Queue a scoring request, or shed it.

        Returns either the queued :class:`~repro.serving.ScoreTicket`
        (the transport awaits its resolution off the event loop) or a
        429 :class:`JsonResponse` when accepting the batch would push
        outstanding work past the high-water mark.  The shed decision is
        made *before* the curves enter the queue, so a sustained
        overload costs one JSON parse per rejected request and no queue
        growth.
        """
        name, mfd = self._decode(body, "/submit")
        if self.service.outstanding_curves() + mfd.n_samples > self.high_water:
            self._c_shed.inc()
            return JsonResponse(
                429,
                {
                    "error": "queue full — request shed",
                    "outstanding_curves": self.service.outstanding_curves(),
                    "high_water": self.high_water,
                },
                headers={"Retry-After": f"{self.retry_after:g}"},
            )
        ticket = self.service.submit(name, mfd, auto_flush=False)
        self._c_accepted.inc()
        return ticket

    def ticket_response(self, ticket) -> JsonResponse:
        """Response for a resolved ticket (scores or captured error)."""
        try:
            scores = ticket.result()
        except ReproError as exc:
            return JsonResponse(422, {"error": f"{type(exc).__name__}: {exc}"})
        except Exception as exc:  # pragma: no cover - defensive
            return JsonResponse(500, {"error": f"{type(exc).__name__}: {exc}"})
        return JsonResponse(
            200, {"pipeline": ticket.pipeline_name, "scores": scores.tolist()}
        )
