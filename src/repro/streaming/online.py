"""Incremental scoring of unbounded curve streams.

:class:`StreamingDetector` turns every reference-based scorer of the
library into an online detector: each arriving curve (or micro-batch)
is scored against the *current* contents of a
:class:`~repro.streaming.window.ReferenceWindow`, the adaptive
threshold and drift monitor fold the scores in, and the window then
takes in the arrivals — so the reference population evolves with the
stream instead of being fixed at fit time.

Each kind has exactly one scoring rule.  FUNTA keeps the one streaming
cache; every other kind scores from the window contents
(``window.values``) on every call:

=============  =======================================================
kind           reference statistic and how it follows the window
=============  =======================================================
``funta``      tangent-angle ring ``arctan(diff(curve)/dt)`` — the
               slots a chunk writes (``window.extend``) get their rows
               in one ``arctan``: O(m·p) per written row vs
               O(n_ref·m·p) per refit
``dirout``     from the window: at p = 1 a closed form (spatial
               centers are the cross-sectional medians,
               ``np.median(window.values[:, :, 0], axis=0)``); at
               p > 1 the seeded batch kernel
``halfspace``  from the window: the batch
               :func:`~repro.depth.functional.functional_depth`
               profile for every p
=============  =======================================================

Every kind reproduces the one-shot batch computation over the same
window contents *bit-identically* (the ring holds the identical
elementwise ``arctan`` the batch kernel applies); the tests pin each
kind against the public batch function on ``window.values``, and
``benchmarks/bench_gates.py`` times the streams against that
per-arrival batch refit.

``StreamingDetector(..., shards=N)`` deals the reference of an
untrimmed FUNTA stream across N round-robin shard windows, each with
its own ring, and sums the single-stream scores from shard partials;
see the class docstring.
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from repro.depth import _kernels
from repro.depth._kernels import MAD_SCALE
from repro.depth.dirout import dirout_scores, summarize_outlyingness
from repro.depth.functional import functional_depth
from repro.depth.funta import check_trim
from repro.exceptions import ValidationError
from repro.fda.fdata import MFDataGrid, as_mfd
from repro.streaming.drift import DepthRankDrift, DriftEvent
from repro.streaming.window import (
    ReferenceWindow,
    ReservoirWindow,
    SlidingWindow,
)
from repro.telemetry import resolve_telemetry
from repro.utils.validation import check_int

__all__ = [
    "STREAM_KINDS",
    "StreamBatchResult",
    "StreamingDetector",
]

STREAM_KINDS = ("funta", "dirout", "halfspace")


# =====================================================================
# per-kind scorer states
# =====================================================================
class _ScorerState:
    """Scorer interface every kind implements; only FUNTA keeps a cache."""

    def ingest(self, window: ReferenceWindow, items: np.ndarray) -> None:
        """Offer ``items`` to ``window`` in arrival order, keeping the cache
        in step.  Without a cache the window takes the chunk in one call."""
        window.extend(items)

    def sync(self, window: ReferenceWindow) -> None:
        """Build the cache from a window filled before this state existed."""

    def reset(self) -> None:
        pass

    def score(self, items: np.ndarray, window: ReferenceWindow) -> np.ndarray:
        raise NotImplementedError


class _FuntaState(_ScorerState):
    """FUNTA with an incrementally maintained tangent-angle ring."""

    def __init__(self, grid, capacity, trim, context):
        self.grid = grid
        self.trim = trim
        self.context = context
        self.capacity = capacity
        self._dt = np.diff(grid)
        self._theta: np.ndarray | None = None  # (capacity, m-1, p)

    def _angles(self, values: np.ndarray) -> np.ndarray:
        """``arctan`` tangent angles, the identical elementwise op the
        batch kernel applies (``values`` is ``(..., m, p)``)."""
        return np.arctan(np.diff(values, axis=-2) / self._dt[:, None])

    def _write(self, slots: np.ndarray, rows: np.ndarray) -> None:
        if not slots.size:
            return
        if self._theta is None:
            _, m, p = rows.shape
            self._theta = np.empty((self.capacity, m - 1, p))
        self._theta[slots] = self._angles(rows)

    def ingest(self, window: ReferenceWindow, items: np.ndarray) -> None:
        # The ring only needs the rows that end up written: one arctan
        # over the chunk's surviving arrivals.
        slots = window.extend(items)
        self._write(slots, window.values[slots])

    def sync(self, window: ReferenceWindow) -> None:
        self._write(np.arange(window.size), window.values)

    def reset(self) -> None:
        self._theta = None

    def partials(self, items: np.ndarray, window: ReferenceWindow):
        """Per-query ``(count, angle-sum)`` totals vs this shard's window.

        Stacked per parameter, ``(p, n_items)`` int64 counts and float
        sums; additive across shards (untrimmed FUNTA only).
        """
        b, _, p = items.shape
        counts = np.zeros((p, b), dtype=np.int64)
        sums = np.zeros((p, b))
        if window.size == 0:
            return counts, sums
        theta_pts = self._angles(items)
        theta_ref = self._theta[: window.size]
        for k in range(p):
            counts[k], sums[k] = _kernels.funta_partials(
                items[:, :, k],
                window.values[:, :, k],
                self.grid,
                theta_pts=np.ascontiguousarray(theta_pts[:, :, k]),
                theta_ref=np.ascontiguousarray(theta_ref[:, :, k]),
            )
        return counts, sums

    @staticmethod
    def combine(parts) -> np.ndarray:
        """FUNTA outlyingness from the summed shard partials."""
        counts = np.sum([part[0] for part in parts], axis=0)  # (p, b)
        sums = np.sum([part[1] for part in parts], axis=0)
        safe = np.maximum(counts, 1)
        depth = np.where(counts > 0, 1.0 - (sums / safe) / _kernels._HALF_PI, 1.0)
        return 1.0 - np.mean(np.clip(depth, 0.0, 1.0), axis=0)

    def score(self, items: np.ndarray, window: ReferenceWindow) -> np.ndarray:
        ref = window.values  # (r, m, p), physical slot order
        theta_pts = self._angles(items)
        theta_ref = self._theta[: window.size]
        p = items.shape[2]
        per_param = [
            _kernels.funta_univariate(
                items[:, :, k],
                ref[:, :, k],
                self.grid,
                self.trim,
                same=False,
                context=self.context,
                theta_pts=np.ascontiguousarray(theta_pts[:, :, k]),
                theta_ref=np.ascontiguousarray(theta_ref[:, :, k]),
            )
            for k in range(p)
        ]
        return 1.0 - np.mean(per_param, axis=0)


class _DiroutState(_ScorerState):
    """Dir.out from the window contents: a closed form at p = 1, the
    seeded batch kernel at p > 1."""

    def __init__(self, grid, n_directions, random_state, context):
        self.grid = grid
        self.n_directions = n_directions
        self.random_state = random_state
        self.context = context

    def score(self, items: np.ndarray, window: ReferenceWindow) -> np.ndarray:
        if items.shape[2] > 1:
            return dirout_scores(
                MFDataGrid(items, self.grid),
                reference=MFDataGrid(window.values, self.grid),
                method="total",
                n_directions=self.n_directions,
                random_state=self.random_state,
                context=self.context,
            )
        ref = window.values[:, :, 0]  # (r, m)
        med = np.median(ref, axis=0)
        mad = MAD_SCALE * np.median(np.abs(ref - med), axis=0)
        degenerate = mad < 1e-12
        if degenerate.any():
            spread = np.std(ref, axis=0)
            mad = np.where(degenerate, np.where(spread > 1e-12, spread, 1.0), mad)
        sdo = np.abs(items[:, :, 0] - med) / mad
        centers = med[:, None]  # spatial median == univariate median (p=1)
        diffs = items - centers[None]
        norms = np.linalg.norm(diffs, axis=2, keepdims=True)
        units = np.divide(diffs, norms, out=np.zeros_like(diffs), where=norms > 1e-12)
        return summarize_outlyingness(sdo[:, :, None] * units, self.grid).total


class _HalfspaceState(_ScorerState):
    """Integrated halfspace depth of the arrivals within the window."""

    def __init__(self, grid, aggregation, n_directions, random_state, context):
        self.grid = grid
        self.aggregation = aggregation
        self.n_directions = n_directions
        self.random_state = random_state
        self.context = context

    def score(self, items: np.ndarray, window: ReferenceWindow) -> np.ndarray:
        depth = functional_depth(
            MFDataGrid(items, self.grid),
            MFDataGrid(window.values, self.grid),
            notion="halfspace",
            aggregation=self.aggregation,
            context=self.context,
            n_directions=self.n_directions,
            random_state=self.random_state,
        )
        return 1.0 - depth


# =====================================================================
# the detector
# =====================================================================
@dataclass(frozen=True)
class StreamBatchResult:
    """Outcome of one :meth:`StreamingDetector.process` call.

    Attributes
    ----------
    scores:
        Outlyingness per curve of the batch, or ``None`` while the
        window is still warming up (the batch was only ingested).
    flags:
        Boolean outlier flags (``scores > threshold``) when a threshold
        tracker is configured *and* ready, else ``None``.
    threshold:
        The threshold value used for ``flags`` (post-update), if any.
    drift:
        The :class:`~repro.streaming.drift.DriftEvent` emitted while
        folding this batch's scores in, if any.
    n_reference:
        Reference size *after* the batch was ingested.
    warmup:
        ``True`` when the batch was ingested without scoring.
    """

    scores: np.ndarray | None
    flags: np.ndarray | None
    threshold: float | None
    drift: DriftEvent | None
    n_reference: int
    warmup: bool


class StreamingDetector:
    """Online outlier detection against an evolving reference window.

    Parameters
    ----------
    kind:
        ``"funta"``, ``"dirout"`` or ``"halfspace"``.
    window:
        The :class:`~repro.streaming.window.ReferenceWindow` holding the
        reference curves.
    shards:
        Number of shard windows the reference is dealt across (untrimmed
        FUNTA only; see *Sharding* below).  ``1`` (default) is the
        single stream.
    threshold:
        Optional streaming threshold tracker (anything with
        ``update(scores) -> float | None`` / ``reset()`` — see
        :mod:`repro.streaming.calibrate`).  When ready, every scored
        batch gets boolean ``flags``.
    drift:
        Optional :class:`~repro.streaming.drift.DepthRankDrift` fed with
        every scored batch.
    min_reference:
        Scoring starts once the window holds this many items; earlier
        batches are ingested silently (warm-up).
    update_policy:
        Which scored arrivals enter the window: ``"all"`` (default),
        ``"inliers"`` (only unflagged arrivals — keeps confirmed
        outliers from polluting the reference; requires a threshold to
        have any effect) or ``"none"`` (frozen reference).
    on_drift:
        ``"adapt"`` (default): record the event and keep going — a
        sliding window re-references by itself.  ``"rereference"``:
        reset the window, scorer caches and threshold so the reference
        re-fills from the post-drift regime (the right policy for
        reservoir windows, which otherwise dilute drift indefinitely).
    aggregation:
        Profile aggregation for ``kind="halfspace"`` (``"integral"`` or
        ``"infimum"``).
    context:
        Optional worker-pool fan-out, passed through to the depth
        kernels.
    options:
        Kind-specific scoring options, checked here as the batch
        functions check them: ``trim`` in [0, 0.5) (funta);
        ``n_directions`` >= 1, ``random_state`` (dirout / halfspace
        p > 1 — the seed is replayed per batch so scoring stays
        deterministic).

    Each kind has one scoring rule, fixed by the kind and the data's
    dimension p: FUNTA reads its tangent-angle ring, Dir.out scores from
    the window with a closed form at p = 1 and the seeded batch kernel
    at p > 1, and halfspace runs the batch profile on the window.

    Sharding
    --------
    ``shards=N > 1`` is accepted for untrimmed FUNTA only: its
    per-shard partials (crossing counts and angle sums) add up to the
    single-stream score.  Every other kind needs the whole window at
    once (medians, rank profiles, trimmed means), so shards
    would only split the window to merge it back; they raise
    :class:`~repro.exceptions.ValidationError`.

    The window is split into N round-robin shard windows
    (``window.split(N)``; its capacity must divide evenly), each with its
    own tangent-angle ring, and arrival ``g`` goes to shard ``g mod N``.
    Scores sum the partials against every shard window, whose union for
    sliding windows *is* the single-stream window (shard reservoirs each
    sample their own share of the stream).  The threshold and drift
    monitor are the ordinary single-stream trackers, fed each whole
    score chunk in the coordinator, so on sliding windows flags, drift
    events and re-references are those of ``shards=1`` (scores agree to
    ``rtol=1e-12``; only the summation order differs).  Per-shard ingest
    and partial scoring fan out over one persistent thread pool,
    released by :meth:`close` (or a ``with`` block).
    """

    _ALLOWED_OPTIONS = {
        "funta": frozenset({"trim"}),
        "dirout": frozenset({"n_directions", "random_state"}),
        "halfspace": frozenset({"n_directions", "random_state"}),
    }

    def __init__(
        self,
        kind: str,
        window: ReferenceWindow,
        *,
        shards: int = 1,
        threshold=None,
        drift: DepthRankDrift | None = None,
        min_reference: int = 8,
        update_policy: str = "all",
        on_drift: str = "adapt",
        aggregation: str = "integral",
        context=None,
        **options,
    ):
        if kind not in STREAM_KINDS:
            raise ValidationError(f"kind must be one of {STREAM_KINDS}, got {kind!r}")
        if not isinstance(window, ReferenceWindow):
            raise ValidationError(
                f"window must be a ReferenceWindow, got {type(window).__name__}"
            )
        if update_policy not in ("all", "inliers", "none"):
            raise ValidationError(
                f"update_policy must be 'all', 'inliers' or 'none', got {update_policy!r}"
            )
        if on_drift not in ("adapt", "rereference"):
            raise ValidationError(
                f"on_drift must be 'adapt' or 'rereference', got {on_drift!r}"
            )
        if aggregation not in ("integral", "infimum"):
            raise ValidationError(
                f"aggregation must be 'integral' or 'infimum', got {aggregation!r}"
            )
        unknown = set(options) - self._ALLOWED_OPTIONS[kind]
        if unknown:
            raise ValidationError(
                f"unknown options for kind {kind!r}: {sorted(unknown)}; "
                f"allowed: {sorted(self._ALLOWED_OPTIONS[kind])}"
            )
        if "trim" in options:
            check_trim(options["trim"])
        if "n_directions" in options:
            check_int(options["n_directions"], "n_directions", minimum=1)
        if drift is not None and not isinstance(drift, DepthRankDrift):
            raise ValidationError(
                f"drift must be a DepthRankDrift, got {type(drift).__name__}"
            )
        if threshold is not None and not hasattr(threshold, "update"):
            raise ValidationError(
                "threshold must expose update(scores); see repro.streaming.calibrate"
            )
        self.n_shards = check_int(shards, "shards", minimum=1)
        if self.n_shards > 1:
            reason = _unshardable(kind, options.get("trim", 0.0))
            if reason is not None:
                raise ValidationError(reason)
            if not isinstance(window, (SlidingWindow, ReservoirWindow)):
                raise ValidationError(
                    "shards > 1 needs a SlidingWindow or ReservoirWindow, got "
                    f"{type(window).__name__}"
                )
            self._windows = window.split(self.n_shards)
        else:
            self._windows = [window]
        self.kind = kind
        self.capacity = window.capacity
        self.threshold = threshold
        self.drift = drift
        self.min_reference = check_int(min_reference, "min_reference", minimum=2)
        if self.min_reference > window.capacity:
            raise ValidationError(
                f"min_reference={self.min_reference} exceeds the window "
                f"capacity {window.capacity}"
            )
        self.update_policy = update_policy
        self.on_drift = on_drift
        self.aggregation = aggregation
        self.context = context
        self.options = options
        self.grid: np.ndarray | None = None
        self.n_parameters: int | None = None
        self._scorers: list[_ScorerState] | None = None
        self._pool: ThreadPoolExecutor | None = None
        self.n_seen = 0
        self.n_scored = 0
        self.n_flagged = 0
        self.n_rereferences = 0
        self.attach_telemetry(resolve_telemetry(context))

    def attach_telemetry(self, telemetry) -> None:
        """Bind this detector's counters/histograms into ``telemetry``.

        Called with the owning context's handle at construction.  The drift
        monitor (if any) is re-bound alongside, labelled by this
        detector's kind.  Sharded detectors add per-shard window-fill
        gauges (``streaming_shard_window_fill{shard}``) and the
        partial-sum scoring latency histogram
        (``streaming_merge_seconds{stage="partials"}``).
        """
        telemetry = resolve_telemetry(None, telemetry)
        self.telemetry = telemetry
        self._m_arrivals = telemetry.counter("streaming_arrivals_total", kind=self.kind)
        self._m_scored = telemetry.counter("streaming_scored_total", kind=self.kind)
        self._m_flagged = telemetry.counter("streaming_flagged_total", kind=self.kind)
        self._m_rereferences = telemetry.counter(
            "streaming_rereferences_total", kind=self.kind
        )
        self._m_process_seconds = telemetry.histogram(
            "streaming_process_seconds", kind=self.kind
        )
        if self.n_shards > 1:
            self._m_partials = telemetry.histogram(
                "streaming_merge_seconds", stage="partials"
            )
            self._m_shard_fill = [
                telemetry.gauge("streaming_shard_window_fill", shard=str(i))
                for i in range(self.n_shards)
            ]
        if self.drift is not None:
            self.drift.attach_telemetry(telemetry, kind=self.kind)

    # ------------------------------------------------------------------ plumbing
    @property
    def window(self) -> ReferenceWindow:
        """The reference window; with shards, a snapshot of their union."""
        if self.n_shards == 1:
            return self._windows[0]
        return _union_window(self._windows)

    @property
    def n_reference(self) -> int:
        return sum(window.size for window in self._windows)

    @property
    def ready(self) -> bool:
        """Whether the window is warm enough to score."""
        return self.n_reference >= self.min_reference

    @property
    def drift_events(self) -> list[DriftEvent]:
        return [] if self.drift is None else self.drift.events

    def _coerce(self, data) -> MFDataGrid:
        mfd = as_mfd(data)
        if self.grid is None:
            self.grid = mfd.grid.copy()
            self.n_parameters = mfd.n_parameters
        else:
            if mfd.n_points != self.grid.shape[0] or not np.allclose(mfd.grid, self.grid):
                raise ValidationError("stream batches must share the detector's grid")
            if mfd.n_parameters != self.n_parameters:
                raise ValidationError(
                    f"stream batch has {mfd.n_parameters} parameters, "
                    f"expected {self.n_parameters}"
                )
        return mfd

    def _make_scorer(self, capacity: int) -> _ScorerState:
        if self.kind == "funta":
            return _FuntaState(
                self.grid, capacity, self.options.get("trim", 0.0), self.context
            )
        if self.kind == "dirout":
            return _DiroutState(
                self.grid,
                self.options.get("n_directions", 200),
                self.options.get("random_state", 0),
                self.context,
            )
        return _HalfspaceState(
            self.grid, self.aggregation,
            self.options.get("n_directions", 500),
            self.options.get("random_state", 0),
            self.context,
        )

    def _ensure_scorers(self) -> list[_ScorerState]:
        if self._scorers is None:
            self._scorers = []
            for window in self._windows:
                scorer = self._make_scorer(window.capacity)
                # The window may have been populated before this detector
                # attached to it (a shared or externally primed window):
                # build every cache from its contents, in slot order, so
                # it starts in sync with what it will score against.
                scorer.sync(window)
                self._scorers.append(scorer)
        return self._scorers

    def _map(self, task) -> list:
        """``task(i)`` for every shard ``i`` on the pool, in shard order."""
        if self._pool is None:
            self._pool = ThreadPoolExecutor(
                max_workers=self.n_shards, thread_name_prefix="repro-shard"
            )
        futures = [self._pool.submit(task, i) for i in range(self.n_shards)]
        return [future.result() for future in futures]

    def _ingest(self, items: np.ndarray, mask: np.ndarray | None = None) -> None:
        scorers = self._ensure_scorers()
        if mask is not None:
            items = items[mask]
        if self.n_shards == 1:
            scorers[0].ingest(self._windows[0], items)
            return
        # Round-robin over the ingested items only, continuing from the
        # total dispatched so far, so the shard union stays exactly the
        # single-stream trailing window.
        n = self.n_shards
        base = sum(window.n_seen for window in self._windows)
        self._map(lambda i: scorers[i].ingest(
            self._windows[i], items[(i - base) % n :: n]
        ))
        if self.telemetry.enabled:
            for gauge, window in zip(self._m_shard_fill, self._windows):
                gauge.set(window.size)

    def _score_items(self, items: np.ndarray) -> np.ndarray:
        scorers = self._ensure_scorers()
        if self.n_shards == 1:
            return scorers[0].score(items, self._windows[0])
        start = time.perf_counter() if self.telemetry.enabled else 0.0
        parts = self._map(lambda i: scorers[i].partials(items, self._windows[i]))
        scores = _FuntaState.combine(parts)
        if self.telemetry.enabled:
            self._m_partials.observe(time.perf_counter() - start)
        return scores

    def _rereference(self) -> None:
        for window in self._windows:
            window.reset()
        for scorer in self._scorers or ():
            scorer.reset()
        if self.threshold is not None and hasattr(self.threshold, "reset"):
            self.threshold.reset()
        self.n_rereferences += 1
        self._m_rereferences.inc()
        if self.n_shards > 1 and self.telemetry.enabled:
            for gauge in self._m_shard_fill:
                gauge.set(0)

    def close(self) -> None:
        """Release the shard thread pool (a no-op for ``shards=1``)."""
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None

    def __enter__(self) -> "StreamingDetector":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------ API
    def prime(self, reference) -> "StreamingDetector":
        """Bulk-load an initial reference sample (no scoring, no drift)."""
        mfd = self._coerce(reference)
        self._ingest(mfd.values)
        self.n_seen += mfd.n_samples
        self._m_arrivals.inc(mfd.n_samples)
        return self

    def process(self, data) -> StreamBatchResult:
        """One online step: score, threshold, drift-check, ingest."""
        start = time.perf_counter() if self.telemetry.enabled else 0.0
        mfd = self._coerce(data)
        items = mfd.values
        self.n_seen += mfd.n_samples
        self._m_arrivals.inc(mfd.n_samples)
        if not self.ready:
            self._ingest(items)
            if self.telemetry.enabled:
                self._m_process_seconds.observe(time.perf_counter() - start)
            return StreamBatchResult(
                scores=None, flags=None, threshold=None, drift=None,
                n_reference=self.n_reference, warmup=True,
            )
        scores = self._score_items(items)
        self.n_scored += scores.shape[0]
        self._m_scored.inc(scores.shape[0])
        threshold_value = None
        flags = None
        if self.threshold is not None:
            threshold_value = self.threshold.update(scores)
            if threshold_value is not None:
                flags = scores > threshold_value
                flagged = int(flags.sum())
                self.n_flagged += flagged
                self._m_flagged.inc(flagged)
        # Scores are only distributionally comparable once the reference
        # has stopped growing: while the window fills, every arrival is
        # ranked against a larger sample than the last, which shifts the
        # score distribution without any drift in the data.  Feed the
        # monitor only at-capacity scores.
        event = None
        if self.drift is not None and self.n_reference == self.capacity:
            event = self.drift.update(scores)
        if event is not None and self.on_drift == "rereference":
            self._rereference()
        if self.update_policy == "none":
            mask = np.zeros(items.shape[0], dtype=bool)
        elif self.update_policy == "inliers" and flags is not None:
            mask = ~flags
        else:
            mask = None
        self._ingest(items, mask)
        if self.telemetry.enabled:
            self._m_process_seconds.observe(time.perf_counter() - start)
        return StreamBatchResult(
            scores=scores, flags=flags, threshold=threshold_value,
            drift=event, n_reference=self.n_reference, warmup=False,
        )

    def stats(self) -> dict:
        """Counters for monitoring (mirrors ``ScoringService.stats``)."""
        return {
            "kind": self.kind,
            "shards": self.n_shards,
            "n_seen": self.n_seen,
            "n_scored": self.n_scored,
            "n_flagged": self.n_flagged,
            "n_reference": self.n_reference,
            "n_rereferences": self.n_rereferences,
            "drift_events": len(self.drift_events),
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"StreamingDetector({self.kind!r}, window={self.window!r}, "
            f"shards={self.n_shards}, scored={self.n_scored})"
        )


def _unshardable(kind: str, trim) -> str | None:
    """Why ``kind`` (with FUNTA's ``trim``) cannot run on shards, else ``None``."""
    if kind == "funta" and not trim:
        return None
    what = f"trimmed FUNTA (trim={trim})" if kind == "funta" else f"kind={kind!r}"
    return (
        "shards > 1 needs untrimmed FUNTA: only its per-shard partials add up "
        f"to the single-stream score, while {what} needs the whole window at "
        "once; use shards=1"
    )


def _union_window(windows) -> ReferenceWindow:
    """A snapshot window holding the shard windows' contents, concatenated
    in shard order (the slot layout of a single-stream window is not
    kept)."""
    merged = ReferenceWindow(sum(w.capacity for w in windows))
    filled = [w.values for w in windows if w.size]
    if filled:
        values = np.concatenate(filled, axis=0)
        merged._values = np.empty((merged.capacity, *values.shape[1:]))
        merged._values[: values.shape[0]] = values
        merged.size = values.shape[0]
    merged.n_seen = sum(w.n_seen for w in windows)
    return merged
