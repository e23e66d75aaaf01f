"""Shared execution engine: factorization cache, batching, parallel fan-out.

The engine layer decouples *what* the reproduction computes (smoothing,
selection, mapping, detection — :mod:`repro.fda`, :mod:`repro.core`)
from *how fast* it runs:

* :class:`FactorizationCache` memoizes design matrices, roughness
  penalties and normal-equation factorizations keyed by
  ``(basis, grid, λ, penalty order)``;
* :class:`ExecutionContext` threads one cache, a parallel width and a
  seed-spawning scheme through the pipeline, the method registry and
  the repetition harness (``run_contamination_experiment(n_jobs=...)``).

Experiment cells fan out over a process pool and consume per-cell child
seed streams; depth-kernel blocks fan out over an in-process thread
pool and are concatenated in input order.  Either way results are
bit-identical to the serial order.
"""

from repro.engine.cache import CacheStats, FactorizationCache
from repro.engine.context import ExecutionContext

__all__ = [
    "CacheStats",
    "FactorizationCache",
    "ExecutionContext",
]
