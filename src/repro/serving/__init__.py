"""Serving layer: persist fitted pipelines, score traffic at scale.

The experiment stack fits a :class:`~repro.core.GeometricOutlierPipeline`
per protocol cell; production traffic inverts that shape — fit *once*,
then score arbitrary incoming curve batches fast, indefinitely, in a
process that never saw the training data.  This package provides the
pieces of that inference path:

* :mod:`repro.serving.persist` — versioned save/load of fitted
  pipelines as a NumPy ``.npz`` array bundle plus a JSON manifest
  (no pickle, no code objects; ``mmap=True`` loads array bundles
  zero-copy for multi-process serving);
* :mod:`repro.serving.service` — :class:`ScoringService`, a registry of
  named loaded pipelines with a thread-safe micro-batching queue that
  amortizes design-matrix and factorization work through the shared
  :class:`~repro.engine.FactorizationCache`, and chunked scoring of
  large datasets in bounded memory
  (:meth:`~repro.serving.service.ScoringService.score_stream`; the
  same chunked path backs ``repro serve-score``);
* :mod:`repro.serving.server` / :mod:`repro.serving.app` — the asyncio
  HTTP front door (``repro serve``): ``POST /score`` / ``POST /submit``
  routed by pipeline name or spec hash into the micro-batch queue, a
  background max-pending-or-deadline flush task, bounded-queue
  backpressure with 429 load-shedding, and ``SO_REUSEPORT``-style
  multi-worker dispatch over one listening socket.
"""

from repro.serving.persist import (
    ARRAYS_NAME,
    FORMAT_VERSION,
    MANIFEST_NAME,
    SUPPORTED_VERSIONS,
    load_pipeline,
    read_spec,
    save_pipeline,
)
from repro.serving.service import (
    ScoreTicket,
    ScoringService,
    iter_curve_chunks,
)

__all__ = [
    "ARRAYS_NAME",
    "FORMAT_VERSION",
    "MANIFEST_NAME",
    "SUPPORTED_VERSIONS",
    "ScoreTicket",
    "ScoringServer",
    "ScoringService",
    "ServingApp",
    "iter_curve_chunks",
    "load_pipeline",
    "load_service",
    "read_spec",
    "save_pipeline",
    "serve",
]


def __getattr__(name):
    # The HTTP front door imports lazily: `import repro.serving` stays
    # cheap for batch users who never open a socket.
    if name in ("ScoringServer", "serve", "load_service"):
        from repro.serving import server

        return getattr(server, name)
    if name == "ServingApp":
        from repro.serving.app import ServingApp

        return ServingApp
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
