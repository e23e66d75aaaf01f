"""Execution context: cache + worker pool + deterministic seed spawning.

An :class:`ExecutionContext` bundles the three resources the
smooth→map→detect stack shares across a whole experiment:

* a :class:`~repro.engine.cache.FactorizationCache` so every layer
  (LOO-CV sweep, pipeline fit, transform) reuses the same
  linear-algebra artifacts;
* a parallel width (``n_jobs``) for embarrassingly parallel work:
  :meth:`ExecutionContext.imap` fans the (level, repetition) cells of
  the paper's protocol out over a process pool, and
  :meth:`ExecutionContext.run_blocks` fans depth-kernel blocks out over
  a thread pool;
* seed spawning that derives statistically independent child streams
  from one master seed, so parallel schedules are *bit-identical* to
  the serial order (each unit consumes only its own stream).

Contexts are cheap; create one per experiment (or share one across
experiments to also share the cache).
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from typing import Callable, Sequence

import numpy as np

from repro.engine.cache import FactorizationCache
from repro.exceptions import ValidationError
from repro.telemetry import NULL_TELEMETRY, resolve_telemetry
from repro.utils.random import spawn_random_states

__all__ = ["ExecutionContext"]


def _resolve_n_jobs(n_jobs: int) -> int:
    if not isinstance(n_jobs, (int, np.integer)) or isinstance(n_jobs, bool):
        raise ValidationError(f"n_jobs must be a positive int or -1, got {n_jobs!r}")
    if n_jobs == -1:
        return max(os.cpu_count() or 1, 1)
    if n_jobs < 1:
        raise ValidationError(f"n_jobs must be a positive int or -1, got {n_jobs!r}")
    return int(n_jobs)


class ExecutionContext:
    """Shared resources for one experiment run.

    Parameters
    ----------
    cache:
        A :class:`FactorizationCache` to share; a fresh one is created
        when omitted.
    n_jobs:
        Default parallel width for :meth:`map` and :meth:`run_blocks`;
        ``1`` (serial) by default, ``-1`` for one worker per CPU core.
    telemetry:
        A :class:`~repro.telemetry.Telemetry` handle; every layer that
        receives this context (cache, depth kernels, chunked executor)
        emits into its registry.  Defaults to the no-op
        :data:`~repro.telemetry.NULL_TELEMETRY`.
    """

    def __init__(
        self,
        cache: FactorizationCache | None = None,
        n_jobs: int = 1,
        telemetry=None,
    ):
        if cache is not None and not isinstance(cache, FactorizationCache):
            raise ValidationError(
                f"cache must be a FactorizationCache, got {type(cache).__name__}"
            )
        self.cache = cache if cache is not None else FactorizationCache()
        self.n_jobs = _resolve_n_jobs(n_jobs)
        self.telemetry = NULL_TELEMETRY
        self.attach_telemetry(resolve_telemetry(None, telemetry))

    def attach_telemetry(self, telemetry) -> None:
        """Adopt ``telemetry`` (validated) and bind the cache's counters.

        An enabled handle propagates to the shared cache so factorization
        hits/builds emit into the same registry; attaching the null
        default never clobbers a cache that is already instrumented.
        """
        telemetry = resolve_telemetry(None, telemetry)
        self.telemetry = telemetry
        if telemetry.enabled:
            self.cache.attach_telemetry(telemetry)

    # ------------------------------------------------------------------ seeding
    def spawn_generators(self, random_state, n: int) -> list[np.random.Generator]:
        """``n`` independent child generators (one per parallel work unit)."""
        return spawn_random_states(random_state, n)

    # ------------------------------------------------------------------ fan-out
    def imap(
        self,
        fn: Callable,
        items: Sequence,
        n_jobs: int | None = None,
        initializer: Callable | None = None,
        initargs: tuple = (),
    ):
        """Lazily apply ``fn`` to every item, yielding results in order.

        Runs serially when the effective width is 1 (or there is at
        most one item); otherwise fans out across a process pool.
        ``fn``, the items and ``initargs`` must be picklable in the
        parallel case.  Results are yielded in input order as they
        complete either way, so callers can stream progress.

        ``initializer(*initargs)`` is invoked once per worker (and once
        in-process for the serial path) — use it to install bulky
        shared state once instead of shipping it with every item.
        """
        items = list(items)
        width = self.n_jobs if n_jobs is None else _resolve_n_jobs(n_jobs)
        if width <= 1 or len(items) <= 1:
            if initializer is not None:
                initializer(*initargs)
            for item in items:
                yield fn(item)
            return
        with ProcessPoolExecutor(
            max_workers=min(width, len(items)),
            initializer=initializer,
            initargs=initargs,
        ) as pool:
            yield from pool.map(fn, items)

    def map(
        self,
        fn: Callable,
        items: Sequence,
        n_jobs: int | None = None,
        initializer: Callable | None = None,
        initargs: tuple = (),
    ) -> list:
        """Eager :meth:`imap`: apply ``fn`` to every item, preserving order."""
        return list(self.imap(fn, items, n_jobs=n_jobs, initializer=initializer, initargs=initargs))

    def run_blocks(
        self,
        worker: Callable,
        blocks: Sequence,
        arrays: dict | None = None,
        n_jobs: int | None = None,
    ) -> list:
        """Apply ``worker(block, **arrays)`` to every block, in order.

        The block executor behind the depth kernels.  Each thread of a
        pool runs the worker over one contiguous group of blocks
        (:meth:`distribute`); the block workers are NumPy loops that
        release the GIL.  Every worker receives the caller's own
        ``arrays`` objects, never a copy, so identity fast paths such as
        ``values is ref_values`` hold.  Results come back in input
        order, so the pooled result is bit-identical to the serial one;
        a worker's exception propagates to the caller.

        Serial fallbacks (width 1, or fewer than two blocks) call the
        worker in the calling thread.
        """
        blocks = list(blocks)
        arrays = dict(arrays or {})
        width = self.n_jobs if n_jobs is None else _resolve_n_jobs(n_jobs)
        if width <= 1 or len(blocks) <= 1:
            return [worker(block, **arrays) for block in blocks]

        def run_group(group):
            return [worker(block, **arrays) for block in group]

        groups = self.distribute(blocks, n_jobs=width)
        with ThreadPoolExecutor(max_workers=len(groups)) as executor:
            parts = list(executor.map(run_group, groups))
        return [result for part in parts for result in part]

    def distribute(self, items: Sequence, n_jobs: int | None = None) -> list[list]:
        """Split ``items`` into at most ``n_jobs`` contiguous, ordered groups.

        Used by the blocked depth kernels to hand *whole* memory blocks
        to each worker: because every block is computed independently and
        results are concatenated in input order, the fanned-out result is
        bit-identical to the serial one.
        """
        items = list(items)
        width = self.n_jobs if n_jobs is None else _resolve_n_jobs(n_jobs)
        width = max(min(width, len(items)), 1)
        bounds = np.linspace(0, len(items), width + 1).astype(int)
        return [items[bounds[g] : bounds[g + 1]] for g in range(width) if bounds[g] < bounds[g + 1]]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ExecutionContext(n_jobs={self.n_jobs}, cache_entries={len(self.cache)})"
