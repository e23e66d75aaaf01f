"""Incremental scoring of unbounded curve streams.

:class:`StreamingDetector` turns every reference-based scorer of the
library into an online detector: each arriving curve (or micro-batch)
is scored against the *current* contents of a
:class:`~repro.streaming.window.ReferenceWindow`, the adaptive
threshold and drift monitor fold the scores in, and the window then
absorbs the arrivals — so the reference population evolves with the
stream instead of being fixed at fit time.

Each kind has exactly one scoring rule.  Where a cache pays, scoring
does **not** refit the reference statistics from scratch on every
arrival: the kind keeps an incremental cache, refreshed per window
insert/evict from the :class:`~repro.streaming.window.WindowUpdate`
signal.  Where it does not, the kind refits:

=============  =======================================================
kind           reference statistic and how it follows the window
=============  =======================================================
``funta``      tangent-angle ring ``arctan(diff(curve)/dt)`` — one
               O(m·p) row per insert vs O(n_ref·m·p) per refit
``dirout``     per-grid-point *sorted lanes* of the reference values
               (p = 1): the cross-sectional median/MAD and the Dir.out
               spatial centers read off the maintained order
               statistics instead of re-partitioning every column
``halfspace``  the same sorted lanes; rank counts of arrivals come
               from one broadcast comparison against the maintained
               lanes — same O(n_ref·m) asymptotics as the rebuild but
               without the per-arrival re-sort (or argsort machinery)
``pipeline``   the fitted-pipeline feature path from serving: refit
               per score — mean, scatter and ridged Cholesky factor
               of the windowed feature vectors, computed from the
               window contents on every call
=============  =======================================================

Every cached path reproduces the one-shot batch computation over the
same window contents *bit-identically* (the cached quantities are
produced by the identical elementwise operations; order statistics are
order-independent); the tests pin each kind against the public batch
function on ``window.values``, and ``benchmarks/bench_gates.py`` times
the caches against that per-arrival batch refit.

For multivariate (p > 1) ``dirout``/``halfspace``, the per-grid-point
random projection directions make caching memory-prohibitive; those
configurations score with the batch kernel and a fixed
``random_state`` (reported by :attr:`StreamingDetector.effective_incremental`).

``StreamingDetector(..., shards=N)`` deals the reference across N
round-robin shard windows, each with its own cache, and recovers the
single-stream scores from shard partials or merged shard state; see the
class docstring.
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from scipy import linalg as sla

from repro.depth import _kernels
from repro.depth._kernels import MAD_SCALE
from repro.depth.dirout import dirout_scores, summarize_outlyingness
from repro.depth.functional import aggregate_depth, functional_depth
from repro.depth.funta import check_trim
from repro.exceptions import NotFittedError, ValidationError
from repro.fda.fdata import MFDataGrid, as_mfd
from repro.streaming.drift import DepthRankDrift, DriftEvent
from repro.streaming.window import (
    ReferenceWindow,
    ReservoirWindow,
    SlidingWindow,
    WindowUpdate,
)
from repro.telemetry import resolve_telemetry
from repro.utils.validation import check_int, check_positive

__all__ = [
    "STREAM_KINDS",
    "SortedLanes",
    "StreamBatchResult",
    "StreamingDetector",
]

STREAM_KINDS = ("funta", "dirout", "halfspace", "pipeline")


# =====================================================================
# sorted lanes — maintained per-grid-point order statistics (p = 1)
# =====================================================================
class SortedLanes:
    """Per-grid-point sorted reference values, maintained incrementally.

    ``lanes[j, :size]`` is the ascending sort of the window's values at
    grid point ``j``.  Inserts and replacements are O(n·m) vectorized
    gathers (no re-sort); medians read off the maintained order
    statistics in O(m), replicating :func:`numpy.median` bit for bit.
    """

    def __init__(self, n_points: int, capacity: int):
        self.lanes = np.empty((n_points, capacity))
        self.size = 0

    def insert(self, new: np.ndarray) -> None:
        """Insert one value per lane (``new`` has shape ``(m,)``)."""
        n = self.size
        if n == 0:
            self.lanes[:, 0] = new
            self.size = 1
            return
        lanes = self.lanes[:, :n]
        pos = (lanes <= new[:, None]).sum(axis=1)  # rightmost insertion index
        t = np.arange(n + 1)[None, :]
        src = t - (t > pos[:, None])
        src = np.where(t == pos[:, None], 0, src)  # placeholder, overwritten
        grown = np.take_along_axis(lanes, src, axis=1)
        np.put_along_axis(grown, pos[:, None], new[:, None], axis=1)
        self.lanes[:, : n + 1] = grown
        self.size = n + 1

    def replace(self, old: np.ndarray, new: np.ndarray) -> None:
        """Swap the (exactly stored) ``old`` value for ``new``, per lane."""
        n = self.size
        lanes = self.lanes[:, :n]
        removed = (lanes < old[:, None]).sum(axis=1)  # leftmost slot == old
        ins = (lanes <= new[:, None]).sum(axis=1)  # index in the pre-delete lane
        target = ins - (ins > removed)  # index once old is deleted
        t = np.arange(n)[None, :]
        compact = t - (t > target[:, None])
        src = compact + (compact >= removed[:, None])
        src = np.where(t == target[:, None], 0, src)  # placeholder, overwritten
        updated = np.take_along_axis(lanes, src, axis=1)
        np.put_along_axis(updated, target[:, None], new[:, None], axis=1)
        lanes[:] = updated

    def reset(self) -> None:
        self.size = 0

    def median(self) -> np.ndarray:
        """Per-lane median, bit-identical to ``np.median(ref, axis=0)``."""
        n = self.size
        if n == 0:
            raise NotFittedError("sorted lanes are empty")
        return _kernels.sorted_median(self.lanes[:, :n])

    def rank_counts(self, queries: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``(le, lt)`` counts of each query within its lane, lane-major.

        ``queries`` is ``(n_queries, m)``; returns integer arrays of
        shape ``(m, n_queries)``: ``le[j, i] = #{ref_j <= queries[i, j]}``
        and ``lt[j, i] = #{ref_j < queries[i, j]}`` — exactly the counts
        the batch halfspace kernel derives from its stacked argsort
        (which is also lane-major; callers transpose, so downstream
        reductions see the identical memory layout and accumulate in
        the identical order).
        """
        n = self.size
        n_queries, m = queries.shape
        lanes = self.lanes[:, :n]
        queries_t = queries.T  # (m, n_queries)
        le = np.empty((m, n_queries), dtype=np.int64)
        lt = np.empty((m, n_queries), dtype=np.int64)
        # One broadcast comparison slab per query block (exact integer
        # counts, no per-lane Python loop); the block bound keeps the
        # (m, n, block) boolean scratch around ~8 MB.
        step = max(int(8 * 1024 * 1024 // max(n * m, 1)), 1)
        for q0 in range(0, n_queries, step):
            block = queries_t[:, None, q0 : q0 + step]  # (m, 1, b)
            le[:, q0 : q0 + step] = (lanes[:, :, None] <= block).sum(
                axis=1, dtype=np.int64
            )
            lt[:, q0 : q0 + step] = (lanes[:, :, None] < block).sum(
                axis=1, dtype=np.int64
            )
        return le, lt

    @classmethod
    def merged(cls, parts) -> "SortedLanes":
        """Combine shard lanes into one lane set over the union window.

        Lane content is the ascending multiset of window values per grid
        point, so the sorted concatenation of shard lanes is *bit-equal*
        to the lanes a single tracker would have built incrementally
        over the union — medians and rank counts of the merged lanes
        therefore match the single-stream cache exactly.
        """
        parts = [p for p in parts if p is not None]
        if not parts:
            raise ValidationError("merged() needs at least one SortedLanes")
        n_points = parts[0].lanes.shape[0]
        if any(p.lanes.shape[0] != n_points for p in parts):
            raise ValidationError("shard lanes must share one grid length")
        out = cls(n_points, sum(p.lanes.shape[1] for p in parts))
        filled = [p.lanes[:, : p.size] for p in parts if p.size]
        if filled:
            data = np.sort(np.concatenate(filled, axis=1), axis=1)
            out.lanes[:, : data.shape[1]] = data
            out.size = data.shape[1]
        return out


# =====================================================================
# per-kind scorer states
# =====================================================================
class _ScorerState:
    """Cache interface every kind implements (refit kinds no-op)."""

    #: Whether scores read maintained caches (a fact of the kind and p).
    incremental = False
    #: Whether shard scores combine additively (:meth:`partials` /
    #: :meth:`combine`) instead of needing the merged reference state.
    additive = False

    def apply(self, update: WindowUpdate) -> None:
        if update.skipped:
            return
        if update.evicted is None:
            self._insert(update.slot, update.inserted)
        else:
            self._replace(update.slot, update.inserted, update.evicted)

    def _insert(self, slot: int, item: np.ndarray) -> None:
        pass

    def _replace(self, slot: int, item: np.ndarray, evicted: np.ndarray) -> None:
        pass

    def reset(self) -> None:
        pass

    def absorb(self, states, windows) -> None:
        """Take over the union of shard caches (merged-state scoring)."""
        raise NotImplementedError

    def score(self, items: np.ndarray, window: ReferenceWindow) -> np.ndarray:
        raise NotImplementedError

    def _reference_mfd(self, window: ReferenceWindow, grid: np.ndarray) -> MFDataGrid:
        return MFDataGrid(window.values, grid)


class _FuntaState(_ScorerState):
    """FUNTA with an incrementally maintained tangent-angle ring."""

    incremental = True

    def __init__(self, grid, capacity, trim, block_bytes, context):
        self.grid = grid
        self.trim = trim
        self.block_bytes = block_bytes
        self.context = context
        self.capacity = capacity
        self._dt = np.diff(grid)
        self._theta: np.ndarray | None = None  # (capacity, m-1, p)

    def _angles(self, values: np.ndarray) -> np.ndarray:
        """``arctan`` tangent angles, the identical elementwise op the
        batch kernel applies (``values`` is ``(..., m, p)``)."""
        return np.arctan(np.diff(values, axis=-2) / self._dt[:, None])

    def _insert(self, slot: int, item: np.ndarray) -> None:
        if self._theta is None:
            m, p = item.shape
            self._theta = np.empty((self.capacity, m - 1, p))
        self._theta[slot] = self._angles(item)

    def _replace(self, slot: int, item: np.ndarray, evicted: np.ndarray) -> None:
        self._insert(slot, item)

    def reset(self) -> None:
        self._theta = None

    @property
    def additive(self) -> bool:
        return self.trim == 0

    def absorb(self, states, windows) -> None:
        """Union of shard tangent-angle rings, in merged-window row order.

        Rows align with :func:`_union_window` of the same shard windows —
        for sliding shards the item with global index ``g`` sits at slot
        ``g mod C``, otherwise shards are concatenated — so scoring
        against the merged reference reuses the shard-computed angles
        bit for bit instead of recomputing them.
        """
        filled = [(s, w) for s, w in zip(states, windows) if w.size]
        if not filled:
            self._theta = None
            return
        if not isinstance(windows[0], SlidingWindow):
            self._theta = np.concatenate([s._theta[: w.size] for s, w in filled])
            return
        n = len(states)
        capacity = sum(w.capacity for w in windows)
        theta = np.empty((sum(w.size for w in windows), *filled[0][0]._theta.shape[1:]))
        for i, (state, window) in enumerate(zip(states, windows)):
            for j in range(window.n_seen - window.size, window.n_seen):
                theta[(j * n + i) % capacity] = state._theta[j % window.capacity]
        self._theta = theta

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
                block_bytes=self.block_bytes,
            )
        return counts, sums

    @staticmethod
    def combine(parts, n_reference: int) -> np.ndarray:
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
                block_bytes=self.block_bytes,
                context=self.context,
                theta_pts=np.ascontiguousarray(theta_pts[:, :, k]),
                theta_ref=np.ascontiguousarray(theta_ref[:, :, k]),
            )
            for k in range(p)
        ]
        return 1.0 - np.mean(per_param, axis=0)


class _LaneState(_ScorerState):
    """Cross-sectional order statistics kept in sorted lanes (p = 1).

    Shared by Dir.out and halfspace; multivariate data (p > 1) keep no
    lanes and score with the seeded batch kernel instead.
    """

    def __init__(self, grid, capacity, n_directions, random_state, block_bytes,
                 context, p):
        self.grid = grid
        self.n_directions = n_directions
        self.random_state = random_state
        self.block_bytes = block_bytes
        self.context = context
        self.incremental = p == 1
        self._lanes = SortedLanes(grid.shape[0], capacity) if self.incremental else None

    def _insert(self, slot: int, item: np.ndarray) -> None:
        if self.incremental:
            self._lanes.insert(item[:, 0])

    def _replace(self, slot: int, item: np.ndarray, evicted: np.ndarray) -> None:
        if self.incremental:
            self._lanes.replace(evicted[:, 0], item[:, 0])

    def reset(self) -> None:
        if self._lanes is not None:
            self._lanes.reset()

    def absorb(self, states, windows) -> None:
        self._lanes = SortedLanes.merged([state._lanes for state in states])


class _DiroutState(_LaneState):
    """Dir.out with maintained cross-sectional order statistics (p=1)."""

    def score(self, items: np.ndarray, window: ReferenceWindow) -> np.ndarray:
        if not self.incremental:
            return dirout_scores(
                MFDataGrid(items, self.grid),
                reference=self._reference_mfd(window, self.grid),
                method="total",
                n_directions=self.n_directions,
                random_state=self.random_state,
                block_bytes=self.block_bytes,
                context=self.context,
            )
        ref = window.values[:, :, 0]  # (r, m)
        med = self._lanes.median()  # == np.median(ref, axis=0), bit for bit
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


class _HalfspaceState(_LaneState):
    """Integrated halfspace depth via binary searches in sorted lanes."""

    def __init__(self, grid, capacity, aggregation, n_directions, random_state,
                 block_bytes, context, p):
        super().__init__(grid, capacity, n_directions, random_state, block_bytes,
                         context, p)
        self.aggregation = aggregation

    @property
    def additive(self) -> bool:
        return self.incremental

    def partials(self, items: np.ndarray, window: ReferenceWindow):
        """``(<=, <)`` rank counts of the queries in this window's lanes.

        ``(m, n_items)`` int64 each: exact integers, so counts summed
        over shard windows equal the union window's counts bit for bit.
        """
        if window.size == 0:
            zero = np.zeros((items.shape[1], items.shape[0]), dtype=np.int64)
            return zero, zero
        return self._lanes.rank_counts(items[:, :, 0])

    def combine(self, parts, n_reference: int) -> np.ndarray:
        """Halfspace outlyingness from the summed rank counts."""
        le = np.sum([part[0] for part in parts], axis=0)
        lt = np.sum([part[1] for part in parts], axis=0)
        # Transposing the lane-major counts reproduces the batch
        # kernel's memory layout, so the aggregation reduces in the
        # identical order (bit-identical scores, not just close ones).
        profile = (np.minimum(le, n_reference - lt) / n_reference).T
        return 1.0 - aggregate_depth(profile, self.grid, self.aggregation)

    def score(self, items: np.ndarray, window: ReferenceWindow) -> np.ndarray:
        if not self.incremental:
            depth = functional_depth(
                MFDataGrid(items, self.grid),
                self._reference_mfd(window, self.grid),
                notion="halfspace",
                aggregation=self.aggregation,
                block_bytes=self.block_bytes,
                context=self.context,
                n_directions=self.n_directions,
                random_state=self.random_state,
            )
            return 1.0 - depth
        return self.combine([self.partials(items, window)], window.size)


class _PipelineState(_ScorerState):
    """Windowed Mahalanobis scoring over fitted-pipeline features.

    Every score refits the mean, scatter ``S`` and ridged Cholesky
    factor from the window contents; nothing is carried between calls.
    Scores are robust distances ``sqrt((x-μ)ᵀ Σ⁻¹ (x-μ))`` with
    ``Σ = (S + ridge·I) / (n-1)``, ``ridge = ridge_eps·tr(S)/d``.
    """

    def __init__(self, ridge_eps):
        self.ridge_eps = ridge_eps

    def score(self, items: np.ndarray, window: ReferenceWindow) -> np.ndarray:
        n = window.size
        if n < 3:
            raise NotFittedError(
                "pipeline streaming scoring needs at least 3 reference curves"
            )
        features = window.values
        mean = features.mean(axis=0)
        centered = features - mean
        scatter = centered.T @ centered
        d = scatter.shape[0]
        ridge = self.ridge_eps * np.trace(scatter) / d
        if ridge <= 0.0:
            ridge = self.ridge_eps
        chol = np.linalg.cholesky(scatter + ridge * np.eye(d))
        z = sla.solve_triangular(chol, (items - mean).T, lower=True)
        d_sq = (n - 1) * np.sum(z * z, axis=0)
        return np.sqrt(np.maximum(d_sq, 0.0))


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
        ``"funta"``, ``"dirout"``, ``"halfspace"`` or ``"pipeline"``.
    window:
        The :class:`~repro.streaming.window.ReferenceWindow` holding the
        reference sample (curves, or feature vectors for
        ``kind="pipeline"``).
    shards:
        Number of shard windows the reference is dealt across (see
        *Sharding* below).  ``1`` (default) is the single stream.
    pipeline:
        Fitted :class:`~repro.core.pipeline.GeometricOutlierPipeline`
        providing the smooth→map feature path (``kind="pipeline"``
        only): arrivals are featurized once and both scored and stored
        as feature vectors.
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
    block_bytes, context:
        Kernel scratch budget / optional worker-pool fan-out, passed
        through to the depth kernels.
    options:
        Kind-specific scoring options, checked here as the batch
        functions check them: ``trim`` in [0, 0.5) (funta);
        ``n_directions`` >= 1, ``random_state`` (dirout / halfspace
        p > 1 — the seed is replayed per batch so scoring stays
        deterministic); ``ridge_eps`` > 0 (pipeline).

    Each kind has one scoring rule, fixed by the kind and the data's
    dimension p (see :attr:`effective_incremental`): FUNTA reads its
    tangent-angle ring, Dir.out and halfspace read sorted lanes at
    p = 1 and run the seeded batch kernel at p > 1, and ``pipeline``
    refits its moments on every score.

    Sharding
    --------
    With ``shards=N > 1`` the window is split into N round-robin shard
    windows (``window.split(N)``; its capacity must divide evenly), each
    with its own cache, and arrival ``g`` goes to shard
    ``g mod N``.  Scores are still computed against the union of the
    shard windows, which for sliding windows *is* the single-stream
    window (shard reservoirs each sample their own share of the stream):

    * untrimmed FUNTA and univariate halfspace sum per-shard partials
      (crossing counts/angle sums, rank counts);
    * every other configuration scores against the merged state
      (:func:`_union_window`, merged tangent-angle rings, merged sorted
      lanes) with the single-stream scorer code.

    The threshold and drift monitor are the ordinary single-stream
    trackers, fed each whole score chunk in the coordinator, so on
    sliding windows flags, drift events and re-references are those of
    ``shards=1`` (scores agree to ``rtol=1e-12`` for FUNTA partials,
    bit for bit otherwise).
    Per-shard ingest and partial scoring fan out over one persistent
    thread pool, released by :meth:`close` (or a ``with`` block).  The
    ``pipeline`` kind is single-stream only.
    """

    _ALLOWED_OPTIONS = {
        "funta": frozenset({"trim"}),
        "dirout": frozenset({"n_directions", "random_state"}),
        "halfspace": frozenset({"n_directions", "random_state"}),
        "pipeline": frozenset({"ridge_eps"}),
    }

    def __init__(
        self,
        kind: str,
        window: ReferenceWindow,
        *,
        shards: int = 1,
        pipeline=None,
        threshold=None,
        drift: DepthRankDrift | None = None,
        min_reference: int = 8,
        update_policy: str = "all",
        on_drift: str = "adapt",
        aggregation: str = "integral",
        block_bytes: int | None = None,
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
        if "ridge_eps" in options:
            check_positive(options["ridge_eps"], "ridge_eps")
        if kind == "pipeline":
            from repro.core.pipeline import GeometricOutlierPipeline

            if not isinstance(pipeline, GeometricOutlierPipeline) or not pipeline._fitted:
                raise ValidationError(
                    "kind='pipeline' needs a fitted GeometricOutlierPipeline"
                )
        elif pipeline is not None:
            raise ValidationError("pipeline is only accepted for kind='pipeline'")
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
            if kind == "pipeline":
                raise ValidationError("kind='pipeline' is single-stream only (shards=1)")
            if not isinstance(window, (SlidingWindow, ReservoirWindow)):
                raise ValidationError(
                    "shards > 1 needs a SlidingWindow or ReservoirWindow, got "
                    f"{type(window).__name__}"
                )
            self._windows = window.split(self.n_shards)
        else:
            self._windows = [window]
        floor = 3 if kind == "pipeline" else 2
        self.kind = kind
        self.capacity = window.capacity
        self.pipeline = pipeline
        self.threshold = threshold
        self.drift = drift
        self.min_reference = check_int(min_reference, "min_reference", minimum=floor)
        if self.min_reference > window.capacity:
            raise ValidationError(
                f"min_reference={self.min_reference} exceeds the window "
                f"capacity {window.capacity}"
            )
        self.update_policy = update_policy
        self.on_drift = on_drift
        self.aggregation = aggregation
        self.block_bytes = block_bytes
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

        Called with the owning context's handle at construction and
        again by :meth:`ScoringService.register`, so a detector served
        through a service emits into the service's registry.  The drift
        monitor (if any) is re-bound alongside, labelled by this
        detector's kind.  Sharded detectors add per-shard window-fill
        gauges (``streaming_shard_window_fill{shard}``) and the
        partial/merged scoring latency histograms
        (``streaming_merge_seconds{stage}``).
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
            self._m_merge = {
                stage: telemetry.histogram("streaming_merge_seconds", stage=stage)
                for stage in ("partials", "merged")
            }
            self._m_shard_fill = [
                telemetry.gauge("streaming_shard_window_fill", shard=str(i))
                for i in range(self.n_shards)
            ]
        if self.drift is not None:
            self.drift.attach_telemetry(telemetry, kind=self.kind)

    # ------------------------------------------------------------------ specs
    @classmethod
    def from_spec(cls, spec, context=None) -> "StreamingDetector":
        """Construct a detector (window + threshold + drift) from a spec.

        ``spec`` is a :class:`~repro.plan.StreamSpec` (or its tagged
        dict form); construction delegates to the plan compiler — the
        same path ``repro stream-score`` uses.
        """
        from repro.plan import compile_plan

        return compile_plan(spec, context=context).build()

    # ------------------------------------------------------------------ plumbing
    @property
    def window(self) -> ReferenceWindow:
        """The reference window; with shards, a merged snapshot of the union."""
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
    def effective_incremental(self) -> bool:
        """Whether scoring runs on maintained caches — a report, not a switch.

        True for FUNTA and for ``dirout``/``halfspace`` at p = 1; those
        two use the seeded batch kernel at p > 1 (their random-direction
        statistics cannot be cached within reasonable memory), and
        ``pipeline`` refits its moments per score.  Until the first
        batch fixes p, p = 1 is assumed.
        """
        if self._scorers is None:
            return self.kind != "pipeline"
        return self._scorers[0].incremental

    @property
    def _scorer(self) -> _ScorerState | None:
        return None if self._scorers is None else self._scorers[0]

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
                self.grid, capacity, self.options.get("trim", 0.0),
                self.block_bytes, self.context,
            )
        if self.kind == "dirout":
            return _DiroutState(
                self.grid, capacity,
                self.options.get("n_directions", 200),
                self.options.get("random_state", 0),
                self.block_bytes, self.context, self.n_parameters,
            )
        if self.kind == "halfspace":
            return _HalfspaceState(
                self.grid, capacity, self.aggregation,
                self.options.get("n_directions", 500),
                self.options.get("random_state", 0),
                self.block_bytes, self.context, self.n_parameters,
            )
        return _PipelineState(self.options.get("ridge_eps", 1e-9))

    def _featurize(self, mfd: MFDataGrid) -> np.ndarray:
        """Batch → the items actually scored and stored (curves or features)."""
        if self.kind == "pipeline":
            return self.pipeline.transform(mfd)
        return mfd.values

    def _ensure_scorers(self) -> list[_ScorerState]:
        if self._scorers is None:
            self._scorers = []
            for window in self._windows:
                scorer = self._make_scorer(window.capacity)
                # The window may have been populated before this detector
                # attached to it (a shared or externally primed window):
                # replay its contents in slot order so every cache
                # starts in sync with what it will score against.
                for slot in range(window.size):
                    scorer._insert(slot, window.values[slot])
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
        if self.n_shards == 1:
            _observe(self._windows[0], scorers[0], items, mask)
            return
        # Round-robin over the ingested items only, continuing from the
        # total dispatched so far, so the shard union stays exactly the
        # single-stream trailing window.
        n = self.n_shards
        kept = np.arange(items.shape[0]) if mask is None else np.flatnonzero(mask)
        base = sum(window.n_seen for window in self._windows)
        self._map(lambda i: _observe(
            self._windows[i], scorers[i], items[kept[(i - base) % n :: n]]
        ))
        if self.telemetry.enabled:
            for gauge, window in zip(self._m_shard_fill, self._windows):
                gauge.set(window.size)

    def _score_items(self, items: np.ndarray) -> np.ndarray:
        scorers = self._ensure_scorers()
        if self.n_shards == 1:
            return scorers[0].score(items, self._windows[0])
        start = time.perf_counter() if self.telemetry.enabled else 0.0
        if scorers[0].additive:
            stage = "partials"
            parts = self._map(lambda i: scorers[i].partials(items, self._windows[i]))
            scores = scorers[0].combine(parts, self.n_reference)
        else:
            stage = "merged"
            merged = self._make_scorer(self.capacity)
            if merged.incremental:
                merged.absorb(scorers, self._windows)
            scores = merged.score(items, self.window)
        if self.telemetry.enabled:
            self._m_merge[stage].observe(time.perf_counter() - start)
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
        self._ingest(self._featurize(mfd))
        self.n_seen += mfd.n_samples
        self._m_arrivals.inc(mfd.n_samples)
        return self

    def score(self, data) -> np.ndarray:
        """Score a batch against the current reference — stateless.

        Neither the window nor the threshold/drift trackers are
        touched; use :meth:`process` for the full online step.
        """
        mfd = self._coerce(data)
        if not self.ready:
            raise NotFittedError(
                f"streaming reference holds {self.n_reference} curves but "
                f"min_reference={self.min_reference}; prime() or process() more data"
            )
        return self._score_items(self._featurize(mfd))

    # Stateless scoring under the common scorer surface, so a streaming
    # detector can be registered with a ScoringService and serve direct
    # score() traffic next to pipelines and DepthScorers.
    score_samples = score

    def process(self, data) -> StreamBatchResult:
        """One online step: score, threshold, drift-check, ingest."""
        start = time.perf_counter() if self.telemetry.enabled else 0.0
        mfd = self._coerce(data)
        items = self._featurize(mfd)
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
            "incremental": self.effective_incremental,
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"StreamingDetector({self.kind!r}, window={self.window!r}, "
            f"shards={self.n_shards}, scored={self.n_scored})"
        )


def _observe(window, scorer, items: np.ndarray, mask=None):
    """Offer ``items`` (the rows where ``mask`` holds) to one window + cache."""
    for i in range(items.shape[0]):
        if mask is not None and not mask[i]:
            continue
        scorer.apply(window.observe(items[i]))


def _union_window(windows) -> ReferenceWindow:
    """One window holding the union of round-robin shard windows.

    Sliding shards merge into the single-stream ring, slot layout
    included (:meth:`SlidingWindow.merged`); reservoir shards, which
    keep no arrival order, are concatenated in shard order.
    """
    if isinstance(windows[0], SlidingWindow):
        return SlidingWindow.merged(windows)
    merged = ReferenceWindow(sum(w.capacity for w in windows))
    filled = [w.values for w in windows if w.size]
    if filled:
        values = np.concatenate(filled, axis=0)
        merged._values = np.empty((merged.capacity, *values.shape[1:]))
        merged._values[: values.shape[0]] = values
        merged.size = values.shape[0]
    merged.n_seen = sum(w.n_seen for w in windows)
    return merged
