"""The single chunked execution path shared by every scoring surface.

``ScoringService.score_stream``, ``PipelinePlan.score_chunks`` (behind
``repro serve-score``) and ``repro stream-score`` all walk curve streams
through this module:

* :func:`iter_curve_chunks` normalizes any stream source — one
  (M)FDataGrid, or a lazy iterable of batches — into bounded-size
  MFDataGrid chunks;
* :func:`run_chunked` applies a per-chunk step function over those
  chunks, threading an optional ``observe`` callback (the hook the
  serving layer uses for its traffic counters) without materializing
  the stream.
"""

from __future__ import annotations

import time
from typing import Callable, Iterable, Iterator

import numpy as np

from repro.exceptions import ValidationError
from repro.fda.fdata import FDataGrid, MFDataGrid, as_mfd
from repro.telemetry import resolve_telemetry
from repro.utils.validation import check_int

__all__ = ["iter_curve_chunks", "run_chunked"]


def iter_curve_chunks(data, chunk_size: int = 256) -> Iterator[MFDataGrid]:
    """Normalize any stream source into bounded-size MFDataGrid chunks.

    ``data`` may be a single (M)FDataGrid (sliced ``chunk_size`` curves
    at a time) or any iterable/iterator/generator of (M)FDataGrid
    batches — true stream sources are consumed lazily, one batch at a
    time, never materialized.  The shared front door of every chunked
    scoring path (:meth:`repro.serving.ScoringService.score_stream`,
    ``repro serve-score`` / ``repro stream-score``).
    """
    chunk_size = check_int(chunk_size, "chunk_size", minimum=1)
    if isinstance(data, (FDataGrid, MFDataGrid)):
        mfd = as_mfd(data)
        for start in range(0, mfd.n_samples, chunk_size):
            yield mfd[start : start + chunk_size]
        return
    if isinstance(data, np.ndarray):
        raise ValidationError(
            "raw arrays are ambiguous stream sources; wrap them in an "
            "(M)FDataGrid (values + grid) first"
        )
    if isinstance(data, Iterable):
        for batch in data:
            yield as_mfd(batch)
        return
    raise ValidationError(
        f"data must be (M)FDataGrid or an iterable of batches, got {type(data).__name__}"
    )


def run_chunked(
    step: Callable[[MFDataGrid], object],
    data,
    chunk_size: int = 256,
    observe: Callable[[MFDataGrid, object], None] | None = None,
    telemetry=None,
) -> Iterator:
    """Apply ``step`` to every bounded-size chunk of ``data``, lazily.

    Yields each chunk's result as it is produced, so peak memory stays
    bounded by one chunk regardless of the source size.  ``observe``
    (if given) runs after each step with ``(chunk, result)`` — used by
    :class:`~repro.serving.ScoringService` to fold traffic counters in
    without duplicating the iteration logic.

    ``telemetry`` records each chunk into the ``plan_chunk_seconds``
    latency histogram and the chunk/curve counters, and wraps the step
    in a ``chunk`` span, so a caller-opened span becomes the parent of
    one child per chunk (the request's trace tree).
    """
    telemetry = resolve_telemetry(None, telemetry)
    if telemetry.enabled:
        chunk_seconds = telemetry.histogram("plan_chunk_seconds")
        chunks_total = telemetry.counter("plan_chunks_total")
        curves_total = telemetry.counter("plan_chunk_curves_total")
    for index, chunk in enumerate(iter_curve_chunks(data, chunk_size=chunk_size)):
        if telemetry.enabled:
            start = time.perf_counter()
            with telemetry.span("chunk", index=index, curves=chunk.n_samples):
                result = step(chunk)
            chunk_seconds.observe(time.perf_counter() - start)
            chunks_total.inc()
            curves_total.inc(chunk.n_samples)
        else:
            result = step(chunk)
        if observe is not None:
            observe(chunk, result)
        yield result
