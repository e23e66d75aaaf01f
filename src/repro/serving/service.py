"""Batched scoring service over persisted pipelines.

:class:`ScoringService` is the process-level serving object: it holds
one shared :class:`~repro.engine.ExecutionContext` and any number of
named fitted pipelines (registered in-memory or loaded from disk).  All
scoring routes through the context's
:class:`~repro.engine.FactorizationCache`, so once a pipeline has scored
a single batch on some measurement grid, every later batch on that grid
skips design-matrix building and normal-equation refactorization
entirely — scoring cost degenerates to two GEMMs, the mapping
evaluation and the detector.

Two traffic shapes are supported on top of direct :meth:`~ScoringService.score`:

* **micro-batching** — many small requests are queued with
  :meth:`~ScoringService.submit` and resolved together by
  :meth:`~ScoringService.flush`, which concatenates same-(pipeline,
  grid) requests into one batch so the per-batch fixed costs (solve
  setup, mapping evaluation, detector dispatch) are paid once per group
  instead of once per request;
* **chunked streaming** — :meth:`~ScoringService.score_stream` walks a
  large dataset in bounded-size chunks, never materializing the full
  feature matrix.
"""

from __future__ import annotations

import threading
import time
from typing import Iterator

import numpy as np

from repro.core.pipeline import GeometricOutlierPipeline
from repro.engine import ExecutionContext
from repro.engine.cache import _grid_key
from repro.exceptions import NotFittedError, ValidationError
from repro.fda.fdata import MFDataGrid, as_mfd
from repro.plan.executor import iter_curve_chunks, run_chunked
from repro.serving.persist import load_pipeline
from repro.telemetry import DEFAULT_SIZE_BUCKETS, Telemetry, resolve_telemetry
from repro.utils.validation import check_int

__all__ = [
    "ScoreTicket",
    "ScoringService",
    "iter_curve_chunks",
]


def _check_scores_shape(scores, n_samples: int, name: str) -> None:
    """Reject a scorer that returned the wrong number of scores.

    Without this, splitting a merged flush group back per ticket would
    silently hand some tickets truncated (or misaligned) score slices.
    """
    scores = np.asarray(scores)
    if scores.shape != (n_samples,):
        raise ValidationError(
            f"pipeline {name!r} returned scores of shape {scores.shape} "
            f"for a batch of {n_samples} curves"
        )


class ScoreTicket:
    """Handle for one queued scoring request (see :meth:`ScoringService.submit`).

    A ticket resolves **exactly once** — with scores or with a captured
    error — on the flush that drains it.  :meth:`wait` blocks until
    resolution (the hook the HTTP front door uses to await a flush from
    another thread), and :meth:`result` returns the scores or re-raises
    the per-ticket failure.
    """

    __slots__ = ("pipeline_name", "n_samples", "_scores", "_error", "_resolved")

    def __init__(self, pipeline_name: str, n_samples: int):
        self.pipeline_name = pipeline_name
        self.n_samples = n_samples
        self._scores: np.ndarray | None = None
        self._error: BaseException | None = None
        self._resolved = threading.Event()

    @property
    def done(self) -> bool:
        return self._resolved.is_set()

    @property
    def failed(self) -> bool:
        return self._error is not None

    def wait(self, timeout: float | None = None) -> bool:
        """Block until this ticket resolves; True once it has."""
        return self._resolved.wait(timeout)

    def _resolve(self, scores: np.ndarray) -> None:
        if self._resolved.is_set():  # pragma: no cover - double-resolve guard
            raise RuntimeError(f"ticket {self!r} already resolved")
        self._scores = scores
        self._resolved.set()

    def _fail(self, error: BaseException) -> None:
        if self._resolved.is_set():  # pragma: no cover - double-resolve guard
            raise RuntimeError(f"ticket {self!r} already resolved")
        self._error = error
        self._resolved.set()

    def result(self) -> np.ndarray:
        """The scores, once the owning service has flushed this ticket.

        Re-raises the scoring error if this ticket's group failed (a bad
        batch only poisons its own group, never other tickets).
        """
        if self._error is not None:
            raise self._error
        if not self._resolved.is_set():
            raise NotFittedError(
                "ticket is still pending — call ScoringService.flush() first"
            )
        return self._scores

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        status = "failed" if self._error is not None else ("done" if self.done else "pending")
        return f"ScoreTicket({self.pipeline_name!r}, n={self.n_samples}, {status})"


class ScoringService:
    """Registry of named fitted pipelines with a micro-batching queue.

    Parameters
    ----------
    context:
        The shared :class:`~repro.engine.ExecutionContext`; every loaded
        pipeline attaches to its factorization cache.  A private context
        is created when omitted.
    max_pending:
        Auto-flush threshold: :meth:`submit` triggers a :meth:`flush` as
        soon as the queued curve count reaches this bound, keeping queue
        memory (and tail latency) bounded under sustained traffic.
    telemetry:
        A :class:`~repro.telemetry.Telemetry` handle to emit into.  The
        service's counters *are* registry instruments (``stats()`` is a
        view over them), so the service always holds an **enabled**
        handle: explicitly passed > the context's (when enabled) > a
        fresh private one.  Pass a shared handle to aggregate several
        services (or the HTTP front door) into one ``/metrics`` surface.
    """

    def __init__(self, context: ExecutionContext | None = None, max_pending: int = 1024,
                 telemetry=None):
        if context is not None and not isinstance(context, ExecutionContext):
            raise ValidationError(
                f"context must be an ExecutionContext, got {type(context).__name__}"
            )
        self.context = context if context is not None else ExecutionContext()
        self.max_pending = check_int(max_pending, "max_pending", minimum=1)
        telemetry = resolve_telemetry(None, telemetry)  # validates the type
        if not telemetry.enabled:
            context_tel = getattr(self.context, "telemetry", None)
            telemetry = (
                context_tel if context_tel is not None and context_tel.enabled
                else Telemetry()
            )
        self.telemetry = telemetry
        if not self.context.telemetry.enabled:
            self.context.attach_telemetry(telemetry)
        self._c_served_curves = telemetry.counter("serving_served_curves_total")
        self._c_served_requests = telemetry.counter("serving_served_requests_total")
        self._c_failed_requests = telemetry.counter("serving_failed_requests_total")
        self._c_flushes = telemetry.counter("serving_flushes_total")
        self._g_queue_depth = telemetry.gauge("serving_queue_depth_curves")
        self._g_inflight = telemetry.gauge("serving_inflight_curves")
        self._h_flush_curves = telemetry.histogram(
            "serving_flush_curves", buckets=DEFAULT_SIZE_BUCKETS
        )
        self._h_flush_seconds = telemetry.histogram("serving_flush_seconds")
        self._pipelines: dict[str, GeometricOutlierPipeline] = {}
        self._queue: list[tuple[tuple, MFDataGrid, ScoreTicket]] = []
        # One lock guards the queue and every counter: submit/flush are
        # called concurrently by the HTTP front door's request handlers
        # and its background flusher, and unguarded `+=`/list-swap races
        # were exactly the stats-drift and dropped-ticket bugs this
        # layer used to have.  Scoring itself runs outside the lock, so
        # a long flush never blocks enqueueing.  The registry gauges
        # mirror the lock-guarded ints, so readers (`queue_depth`,
        # `/metrics`) never have to take this lock.
        self._lock = threading.Lock()
        self._pending_curves = 0
        self._inflight_curves = 0

    # Counter attributes are registry views so external monitoring keeps
    # its pre-telemetry accessors (`service.served_curves` etc.).
    @property
    def served_curves(self) -> int:
        return self._c_served_curves.value

    @property
    def served_requests(self) -> int:
        return self._c_served_requests.value

    @property
    def failed_requests(self) -> int:
        return self._c_failed_requests.value

    @property
    def flushes(self) -> int:
        return self._c_flushes.value

    def queue_depth(self) -> int:
        """Curves in the micro-batch queue — the single queue-depth
        definition (the ``serving_queue_depth_curves`` gauge) that the
        HTTP front door's flush loop and dispatch backpressure both read.
        """
        return int(self._g_queue_depth.value)

    # ------------------------------------------------------------------ registry
    def register(self, name: str, pipeline) -> None:
        """Attach an already-fitted in-memory pipeline under ``name``."""
        if not isinstance(name, str) or not name:
            raise ValidationError(f"pipeline name must be a non-empty string, got {name!r}")
        if not isinstance(pipeline, GeometricOutlierPipeline):
            raise ValidationError(
                f"pipeline must be a GeometricOutlierPipeline, got {type(pipeline).__name__}"
            )
        if not pipeline._fitted:
            raise NotFittedError("cannot register an unfitted pipeline")
        if not pipeline.context.telemetry.enabled:
            pipeline.context.attach_telemetry(self.telemetry)
        self._pipelines[name] = pipeline

    def load(self, name: str, path) -> GeometricOutlierPipeline:
        """Load a persisted pipeline from ``path`` and register it as ``name``.

        The restored pipeline joins this service's context, so pipelines
        serving data on the same measurement grid share cached
        factorizations.
        """
        pipeline = load_pipeline(path, context=self.context)
        self.register(name, pipeline)
        return pipeline

    def names(self) -> list[str]:
        return sorted(self._pipelines)

    def _pipeline(self, name: str) -> GeometricOutlierPipeline:
        try:
            return self._pipelines[name]
        except KeyError:
            raise ValidationError(
                f"no pipeline named {name!r}; loaded: {self.names()}"
            ) from None

    # ------------------------------------------------------------------ scoring
    def score(self, name: str, data) -> np.ndarray:
        """Score one batch immediately (bypassing the queue)."""
        mfd = as_mfd(data)
        scores = self._pipeline(name).score_samples(mfd)
        self._c_served_curves.inc(mfd.n_samples)
        self._c_served_requests.inc()
        return scores

    def submit(self, name: str, data, auto_flush: bool = True) -> ScoreTicket:
        """Queue a batch for micro-batched scoring; returns its ticket.

        Tickets resolve on the next :meth:`flush` (triggered
        automatically once ``max_pending`` curves are queued, unless
        ``auto_flush=False`` — the HTTP front door disables it so the
        event loop, not the submitting request, decides when to pay the
        flush and can run it off-thread).
        """
        mfd = as_mfd(data)
        self._pipeline(name)  # fail fast on unknown names
        ticket = ScoreTicket(name, mfd.n_samples)
        group_key = (name, _grid_key(mfd.grid), mfd.n_parameters)
        with self._lock:
            self._queue.append((group_key, mfd, ticket))
            self._pending_curves += mfd.n_samples
            self._g_queue_depth.set(self._pending_curves)
            should_flush = auto_flush and self._pending_curves >= self.max_pending
        if should_flush:
            self.flush()
        return ticket

    def flush(self) -> int:
        """Resolve every queued ticket; returns the number resolved.

        Requests are grouped by (pipeline, measurement grid, parameter
        count); each group is concatenated into one batch, pushed
        through the pipeline once, and the score vector is split back
        per ticket.  Grouping preserves per-curve results (smoothing and
        detection are row-independent), so micro-batching is a pure
        throughput optimization.

        Exception safety: every ticket drained by this call resolves,
        whatever happens mid-flush.  A batch that fails to score poisons
        only its own group (the error re-raises from those tickets'
        :meth:`ScoreTicket.result`); if the flush itself is torn down by
        a non-``Exception`` failure (``KeyboardInterrupt``, worker
        ``SystemExit``), the unprocessed tickets are failed with the
        aborting cause rather than silently dropped — the queue was
        already swapped out, so nothing else would ever resolve them.
        """
        with self._lock:
            queue, self._queue = self._queue, []
            self._pending_curves = 0
            self._g_queue_depth.set(0)
            if not queue:
                return 0
            drained_curves = sum(mfd.n_samples for _, mfd, _ in queue)
            self._inflight_curves += drained_curves
            self._g_inflight.set(self._inflight_curves)
        start = time.perf_counter()
        served_curves = 0
        served_requests = 0
        failed_requests = 0
        try:
            groups: dict[tuple, list[tuple[MFDataGrid, ScoreTicket]]] = {}
            for group_key, mfd, ticket in queue:
                groups.setdefault(group_key, []).append((mfd, ticket))
            for (name, _, _), entries in groups.items():
                try:
                    if len(entries) == 1:
                        mfd, ticket = entries[0]
                        scores = self._pipeline(name).score_samples(mfd)
                        _check_scores_shape(scores, mfd.n_samples, name)
                        ticket._resolve(scores)
                    else:
                        first = entries[0][0]
                        merged = MFDataGrid(
                            np.concatenate([mfd.values for mfd, _ in entries], axis=0),
                            first.grid,
                        )
                        scores = self._pipeline(name).score_samples(merged)
                        _check_scores_shape(scores, merged.n_samples, name)
                        offset = 0
                        for mfd, ticket in entries:
                            ticket._resolve(scores[offset : offset + mfd.n_samples])
                            offset += mfd.n_samples
                except Exception as exc:
                    for _, ticket in entries:
                        if not ticket.done:
                            ticket._fail(exc)
                    failed_requests += len(entries)
                    continue
                served_curves += sum(mfd.n_samples for mfd, _ in entries)
                served_requests += len(entries)
        except BaseException as exc:
            # Torn down mid-flush: fail the stragglers, then re-raise.
            for _, _, ticket in queue:
                if not ticket.done:
                    ticket._fail(
                        RuntimeError(f"flush aborted mid-run by {type(exc).__name__}: {exc}")
                    )
                    failed_requests += 1
            raise
        finally:
            with self._lock:
                self._inflight_curves -= drained_curves
                self._g_inflight.set(self._inflight_curves)
            self._c_served_curves.inc(served_curves)
            self._c_served_requests.inc(served_requests)
            self._c_failed_requests.inc(failed_requests)
            self._c_flushes.inc()
            self._h_flush_curves.observe(drained_curves)
            self._h_flush_seconds.observe(time.perf_counter() - start)
        return len(queue)

    def _count_traffic(self, chunk, _result) -> None:
        """`run_chunked` observe hook: fold one served chunk into the stats."""
        self._c_served_curves.inc(chunk.n_samples)
        self._c_served_requests.inc()

    def score_stream(self, name: str, data, chunk_size: int = 256) -> Iterator[np.ndarray]:
        """Yield scores for ``data`` through pipeline ``name`` in bounded chunks.

        ``data`` is either a single (M)FDataGrid — scored ``chunk_size``
        curves at a time — or an iterable of (M)FDataGrid batches, each
        scored as it arrives (lazily: a true stream source is never
        materialized).  Each chunk counts as one served request.
        """
        return run_chunked(
            self._pipeline(name).score_samples, data, chunk_size=chunk_size,
            observe=self._count_traffic, telemetry=self.telemetry,
        )

    # ------------------------------------------------------------------ stats
    def stats(self) -> dict:
        """Service counters plus the shared cache's hit/build counters.

        A *view over the telemetry registry*: every counter here is read
        from the same instrument the ``/metrics`` surface exports, so
        the two can never disagree.  ``pending_curves`` counts curves
        still queued; ``inflight_curves`` counts curves swapped out by a
        flush that has not resolved yet — their sum is the service's
        outstanding work, which the HTTP front door compares against its
        high-water mark to decide load shedding.
        """
        with self._lock:
            return {
                "pipelines": len(self._pipelines),
                "served_curves": self._c_served_curves.value,
                "served_requests": self._c_served_requests.value,
                "failed_requests": self._c_failed_requests.value,
                "flushes": self._c_flushes.value,
                "pending_requests": len(self._queue),
                "pending_curves": self._pending_curves,
                "inflight_curves": self._inflight_curves,
                "cache": self.context.cache.stats.as_dict(),
            }

    def outstanding_curves(self) -> int:
        """Curves accepted but not yet resolved (queued + in-flight)."""
        with self._lock:
            return self._pending_curves + self._inflight_curves

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ScoringService(pipelines={self.names()}, "
            f"served_curves={self.served_curves})"
        )
