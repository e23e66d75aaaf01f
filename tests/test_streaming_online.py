"""Unit tests for StreamingDetector and its FUNTA tangent-angle cache."""

import numpy as np
import pytest
from scipy import linalg as sla

from repro.core.pipeline import GeometricOutlierPipeline
from repro.data import make_drifting_stream, make_taxonomy_dataset
from repro.depth.dirout import dirout_scores
from repro.depth.functional import functional_depth
from repro.depth.funta import funta_outlyingness
from repro.detectors import IsolationForest
from repro.exceptions import NotFittedError, ValidationError
from repro.fda.fdata import MFDataGrid
from repro.serving import ScoringService
from repro.streaming import (
    DepthRankDrift,
    ReservoirWindow,
    SlidingWindow,
    StreamingDetector,
    StreamingQuantileThreshold,
)

GRID = np.linspace(0.0, 1.0, 36)
M = GRID.shape[0]


def _curves(n, p=1, seed=0):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((n, M, p)).cumsum(axis=1) / 5.0


def _mfd(values):
    return MFDataGrid(values, GRID)


def _batch_score(kind, items, reference):
    """The public batch function a ``kind`` stream must reproduce, with
    the detector's default options (p = 1 for dirout / halfspace)."""
    if kind == "funta":
        return funta_outlyingness(items, reference=reference)
    if kind == "dirout":
        return dirout_scores(
            items, reference=reference, method="total", n_directions=200,
            random_state=0,
        )
    return 1.0 - functional_depth(items, reference, notion="halfspace")


def _batch_per_arrival(kind, stream, capacity, min_reference):
    """Batch scores of each single-curve arrival against a plain sliding
    window (``None`` while it warms up), then the arrival is observed."""
    window = SlidingWindow(capacity)
    scores = []
    for curve in stream:
        scores.append(
            _batch_score(kind, _mfd(curve[None]), _mfd(window.values))
            if window.size >= min_reference else None
        )
        window.observe(curve)
    return scores


class TestStreamingEqualsBatch:
    """The acceptance pins: online full window == one-shot batch."""

    @pytest.mark.parametrize("p", [1, 2])
    def test_funta_full_window_matches_batch(self, p):
        reference = _curves(20, p=p, seed=3)
        queries = _mfd(_curves(6, p=p, seed=4))
        detector = StreamingDetector("funta", SlidingWindow(32), min_reference=4)
        detector.prime(_mfd(reference))
        online = detector.score(queries)
        batch = funta_outlyingness(queries, reference=_mfd(reference))
        np.testing.assert_array_equal(online, batch)

    def test_funta_after_evictions_matches_batch_on_window(self, subtests=None):
        stream = _curves(50, p=2, seed=5)
        detector = StreamingDetector("funta", SlidingWindow(16), min_reference=4)
        detector.prime(_mfd(stream))  # 50 curves through a 16-slot ring
        queries = _mfd(_curves(5, p=2, seed=6))
        online = detector.score(queries)
        physical = funta_outlyingness(
            queries, reference=_mfd(detector.window.values.copy())
        )
        np.testing.assert_array_equal(online, physical)
        logical = funta_outlyingness(
            queries, reference=_mfd(detector.window.ordered_values())
        )
        np.testing.assert_allclose(online, logical, rtol=1e-12, atol=0.0)

    def test_dirout_p1_full_window_matches_batch(self):
        reference = _curves(20, seed=7)
        queries = _mfd(_curves(6, seed=8))
        detector = StreamingDetector("dirout", SlidingWindow(32), min_reference=4)
        detector.prime(_mfd(reference))
        online = detector.score(queries)
        batch = dirout_scores(queries, reference=_mfd(reference), method="total")
        np.testing.assert_array_equal(online, batch)

    def test_dirout_p1_after_evictions_matches_batch_on_window(self):
        detector = StreamingDetector("dirout", SlidingWindow(12), min_reference=4)
        detector.prime(_mfd(_curves(40, seed=9)))
        queries = _mfd(_curves(5, seed=10))
        online = detector.score(queries)
        batch = dirout_scores(
            queries, reference=_mfd(detector.window.values.copy()), method="total"
        )
        np.testing.assert_array_equal(online, batch)

    def test_halfspace_p1_matches_batch(self):
        detector = StreamingDetector("halfspace", SlidingWindow(12), min_reference=4)
        detector.prime(_mfd(_curves(30, seed=11)))
        queries = _mfd(_curves(5, seed=12))
        online = detector.score(queries)
        depth = functional_depth(
            queries, _mfd(detector.window.values.copy()), notion="halfspace"
        )
        np.testing.assert_array_equal(online, 1.0 - depth)

    @pytest.mark.parametrize("kind", ["funta", "dirout", "halfspace"])
    def test_incremental_equals_refit_oracle_per_arrival(self, kind):
        stream = _curves(40, seed=13)
        incremental = StreamingDetector(kind, SlidingWindow(10), min_reference=4)
        oracle = _batch_per_arrival(kind, stream, 10, 4)
        for i in range(40):
            a = incremental.process(_mfd(stream[i : i + 1]))
            assert (a.scores is None) == (oracle[i] is None)
            if a.scores is not None:
                np.testing.assert_array_equal(a.scores, oracle[i])

    def test_incremental_funta_p2_equals_refit_oracle(self):
        stream = _curves(30, p=2, seed=16)
        incremental = StreamingDetector("funta", SlidingWindow(10), min_reference=4)
        oracle = _batch_per_arrival("funta", stream, 10, 4)
        for i in range(30):
            a = incremental.process(_mfd(stream[i : i + 1]))
            assert (a.scores is None) == (oracle[i] is None)
            if a.scores is not None:
                np.testing.assert_array_equal(a.scores, oracle[i])
        assert incremental.effective_incremental is True

    @pytest.mark.parametrize("kind", ["dirout", "halfspace"])
    def test_p2_falls_back_to_seeded_refit(self, kind):
        detector = StreamingDetector(kind, SlidingWindow(16), min_reference=4)
        detector.prime(_mfd(_curves(16, p=2, seed=14)))
        assert detector.effective_incremental is False
        queries = _mfd(_curves(3, p=2, seed=15))
        np.testing.assert_array_equal(detector.score(queries), detector.score(queries))


class TestPipelineKind:
    @pytest.fixture(scope="class")
    def pipeline(self):
        curves = _curves(30, p=2, seed=16)
        # Few eval points keep the feature dimension (8) below the
        # window sizes used here, so the windowed scatter is full rank.
        pipeline = GeometricOutlierPipeline(
            IsolationForest(n_estimators=20, random_state=0), n_basis=8,
            eval_points=8,
        )
        pipeline.fit(_mfd(curves))
        return pipeline

    def test_features_are_windowed_and_scored(self, pipeline):
        detector = StreamingDetector(
            "pipeline", SlidingWindow(16), pipeline=pipeline, min_reference=8
        )
        detector.prime(_mfd(_curves(16, p=2, seed=17)))
        scores = detector.score(_mfd(_curves(4, p=2, seed=18)))
        assert scores.shape == (4,)
        assert np.all(np.isfinite(scores)) and np.all(scores >= 0.0)

    def test_scores_equal_batch_refit_at_85_features(self):
        # 85 curvature features against a 128-slot window: the scatter
        # is near-singular, so any carried-over factor drifts from the
        # refit; every score must be the batch refit over the window.
        train, _ = make_taxonomy_dataset(
            "correlation", n_inliers=120, n_outliers=1, random_state=0
        )
        pipeline = GeometricOutlierPipeline(
            IsolationForest(n_estimators=50, random_state=0), n_basis=15
        ).fit(train)
        stream, _ = make_taxonomy_dataset(
            "correlation", n_inliers=277, n_outliers=1, random_state=1
        )
        detector = StreamingDetector(
            "pipeline", SlidingWindow(128), pipeline=pipeline, min_reference=8
        )
        detector.prime(MFDataGrid(stream.values[:128], stream.grid))
        for i in range(128, 278):
            chunk = MFDataGrid(stream.values[i : i + 1], stream.grid)
            features = pipeline.transform(chunk)
            assert features.shape == (1, 85)
            reference = detector.window.values.copy()
            n, d = reference.shape
            mean = reference.mean(axis=0)
            centered = reference - mean
            scatter = centered.T @ centered
            ridge = 1e-9 * np.trace(scatter) / d
            chol = np.linalg.cholesky(scatter + ridge * np.eye(d))
            z = sla.solve_triangular(chol, (features - mean).T, lower=True)
            expected = np.sqrt(np.maximum((n - 1) * np.sum(z * z, axis=0), 0.0))
            np.testing.assert_array_equal(detector.process(chunk).scores, expected)

    def test_requires_fitted_pipeline(self):
        unfitted = GeometricOutlierPipeline(IsolationForest(), n_basis=8)
        with pytest.raises(ValidationError, match="fitted"):
            StreamingDetector("pipeline", SlidingWindow(8), pipeline=unfitted)

    def test_pipeline_argument_rejected_for_other_kinds(self, pipeline):
        with pytest.raises(ValidationError, match="only accepted"):
            StreamingDetector("funta", SlidingWindow(8), pipeline=pipeline)


class TestProcessFlow:
    def test_warmup_then_scores(self):
        detector = StreamingDetector("funta", SlidingWindow(16), min_reference=8)
        first = detector.process(_mfd(_curves(5, seed=22)))
        assert first.warmup and first.scores is None and first.n_reference == 5
        second = detector.process(_mfd(_curves(5, seed=23)))
        assert second.warmup  # 5 < 8 still
        third = detector.process(_mfd(_curves(5, seed=24)))
        assert not third.warmup and third.scores.shape == (5,)
        assert detector.n_seen == 15 and detector.n_scored == 5

    def test_threshold_flags_and_counts(self):
        detector = StreamingDetector(
            "funta", SlidingWindow(32), min_reference=8,
            threshold=StreamingQuantileThreshold(0.2, capacity=64),
        )
        detector.prime(_mfd(_curves(16, seed=25)))
        result = detector.process(_mfd(_curves(10, seed=26)))
        assert result.flags is not None and result.threshold is not None
        np.testing.assert_array_equal(result.flags, result.scores > result.threshold)
        assert detector.n_flagged == int(result.flags.sum())

    def test_update_policy_none_freezes_reference(self):
        detector = StreamingDetector(
            "funta", SlidingWindow(16), min_reference=8, update_policy="none"
        )
        detector.prime(_mfd(_curves(10, seed=27)))
        frozen = detector.window.values.copy()
        detector.process(_mfd(_curves(5, seed=28)))
        np.testing.assert_array_equal(detector.window.values, frozen)

    def test_update_policy_inliers_keeps_flagged_out(self):
        detector = StreamingDetector(
            "funta", SlidingWindow(64), min_reference=8,
            threshold=StreamingQuantileThreshold(0.3, capacity=64),
            update_policy="inliers",
        )
        detector.prime(_mfd(_curves(16, seed=29)))
        result = detector.process(_mfd(_curves(12, seed=30)))
        expected = 16 + int((~result.flags).sum())
        assert detector.window.size == expected

    def test_on_drift_rereference_resets_window(self):
        detector = StreamingDetector(
            "funta",
            ReservoirWindow(32, random_state=0),
            min_reference=8,
            threshold=StreamingQuantileThreshold(0.1, capacity=64),
            drift=DepthRankDrift(
                baseline_size=16, recent_size=8, alpha=0.2, patience=1, min_gap=1
            ),
            on_drift="rereference",
        )
        detector.prime(_mfd(_curves(32, seed=31)))
        rng = np.random.default_rng(32)
        fired = False
        for i in range(40):
            shifted = rng.standard_normal((4, M, 1)).cumsum(axis=1) / 5.0 + 5.0
            result = detector.process(_mfd(shifted))
            if result.drift is not None:
                fired = True
                assert detector.n_rereferences == 1
                assert result.n_reference <= 4  # refilled from this batch only
                break
        assert fired

    @pytest.mark.parametrize("kind", ["funta", "dirout", "halfspace"])
    def test_externally_prefilled_window_syncs_caches(self, kind):
        # A window populated before the detector attaches (shared or
        # hand-primed through observe()) must still score correctly:
        # the incremental caches replay its contents on first use.
        window = SlidingWindow(24)
        for curve in _curves(20, seed=45):
            window.observe(curve)
        detector = StreamingDetector(kind, window, min_reference=8)
        queries = _mfd(_curves(4, seed=46))
        np.testing.assert_array_equal(
            detector.score(queries),
            _batch_score(kind, queries, _mfd(_curves(20, seed=45))),
        )
        # process() on the prefilled window works too (scorer exists).
        result = detector.process(queries)
        assert not result.warmup and result.scores.shape == (4,)

    def test_score_before_ready_raises(self):
        detector = StreamingDetector("funta", SlidingWindow(16), min_reference=8)
        with pytest.raises(NotFittedError, match="min_reference"):
            detector.score(_mfd(_curves(3, seed=33)))

    def test_grid_and_parameter_mismatches_rejected(self):
        detector = StreamingDetector("funta", SlidingWindow(16), min_reference=8)
        detector.prime(_mfd(_curves(8, seed=34)))
        other_grid = MFDataGrid(_curves(2, seed=35), np.linspace(0.0, 2.0, M))
        with pytest.raises(ValidationError, match="grid"):
            detector.process(other_grid)
        with pytest.raises(ValidationError, match="parameters"):
            detector.process(_mfd(_curves(2, p=2, seed=36)))

    def test_constructor_validation(self):
        with pytest.raises(ValidationError, match="kind"):
            StreamingDetector("knn", SlidingWindow(8))
        with pytest.raises(ValidationError, match="ReferenceWindow"):
            StreamingDetector("funta", object())
        with pytest.raises(ValidationError, match="update_policy"):
            StreamingDetector("funta", SlidingWindow(8), update_policy="some")
        with pytest.raises(ValidationError, match="on_drift"):
            StreamingDetector("funta", SlidingWindow(8), on_drift="panic")
        with pytest.raises(ValidationError, match="unknown options"):
            StreamingDetector("funta", SlidingWindow(8), n_directions=5)
        with pytest.raises(ValidationError, match="allowed: \\['ridge_eps'\\]"):
            StreamingDetector("pipeline", SlidingWindow(8), resync_every=64)
        for trim in (0.7, -1.0):
            with pytest.raises(ValidationError, match="trim"):
                StreamingDetector("funta", SlidingWindow(8), trim=trim)
        with pytest.raises(ValidationError, match="aggregation"):
            StreamingDetector("halfspace", SlidingWindow(8), aggregation="bogus")
        for kind in ("dirout", "halfspace"):
            with pytest.raises(ValidationError, match="n_directions"):
                StreamingDetector(kind, SlidingWindow(8), n_directions=0)
        for ridge_eps in (0.0, -1e-9):
            with pytest.raises(ValidationError, match="ridge_eps"):
                StreamingDetector("pipeline", SlidingWindow(8), ridge_eps=ridge_eps)
        with pytest.raises(ValidationError, match="exceeds"):
            StreamingDetector("funta", SlidingWindow(8), min_reference=9)
        with pytest.raises(ValidationError, match="update"):
            StreamingDetector("funta", SlidingWindow(8), threshold=object())
        with pytest.raises(ValidationError, match="DepthRankDrift"):
            StreamingDetector("funta", SlidingWindow(8), drift=object())

    @pytest.mark.parametrize("p", [1, 2])
    def test_only_funta_reports_a_cache(self, p):
        for kind in ("funta", "dirout", "halfspace"):
            detector = StreamingDetector(kind, SlidingWindow(16), min_reference=4)
            detector.prime(_mfd(_curves(8, p=p, seed=39)))
            detector.process(_mfd(_curves(4, p=p, seed=40)))
            assert detector.effective_incremental is (kind == "funta")
            assert detector.stats()["incremental"] is (kind == "funta")

    def test_stats_surface(self):
        detector = StreamingDetector("funta", SlidingWindow(16), min_reference=8)
        detector.prime(_mfd(_curves(8, seed=37)))
        detector.process(_mfd(_curves(4, seed=38)))
        stats = detector.stats()
        assert stats["kind"] == "funta"
        assert stats["n_seen"] == 12 and stats["n_scored"] == 4
        assert stats["incremental"] is True


class _ItemByItem:
    """The per-arrival ingest a chunk must reproduce: ``observe`` each
    curve in turn and ``arctan`` the row of every slot it writes."""

    def __init__(self, window):
        self.window = window
        self.theta = {}

    def ingest(self, curves):
        dt = np.diff(GRID)
        for curve in curves:
            update = self.window.observe(curve)
            if not update.skipped:
                self.theta[update.slot] = np.arctan(np.diff(curve, axis=0) / dt[:, None])

    def assert_matches(self, window, scorer):
        assert window.size == self.window.size
        assert window.n_seen == self.window.n_seen
        np.testing.assert_array_equal(window.values, self.window.values)
        np.testing.assert_array_equal(window.ordered_values(), self.window.ordered_values())
        if window.size:
            expected = np.stack([self.theta[slot] for slot in range(window.size)])
            np.testing.assert_array_equal(scorer._theta[: window.size], expected)


def _drive(detector, models, chunks):
    """``process`` every chunk, replaying on the item-by-item models what
    the detector should have ingested, and compare after each chunk."""
    n = len(models)
    for chunk in chunks:
        result = detector.process(_mfd(chunk))
        if result.drift is not None and detector.on_drift == "rereference":
            for model in models:
                model.window.reset()
        kept = chunk
        if detector.update_policy == "inliers" and result.flags is not None:
            kept = chunk[~result.flags]
        base = sum(model.window.n_seen for model in models)
        for i, model in enumerate(models):
            model.ingest(kept[(i - base) % n :: n])
        for model, window, scorer in zip(models, detector._windows, detector._scorers):
            model.assert_matches(window, scorer)


def _chunks(n_chunks, size, seed, p=2, shift_every=0):
    rng = np.random.default_rng(seed)
    out = []
    for c in range(n_chunks):
        curves = rng.standard_normal((size, M, p)).cumsum(axis=1) / 5.0
        if shift_every and c % shift_every == 0:
            curves[:2] += 3.0  # a few clear outliers to flag
        out.append(curves)
    return out


class TestChunkIngest:
    """Chunk-wide ingest leaves the windows and the FUNTA angle rings
    exactly as per-arrival ``observe`` + one ``arctan`` per row would."""

    @pytest.mark.parametrize("size", [1, 5, 16, 40])
    def test_sliding_chunks_below_at_and_above_capacity(self, size):
        detector = StreamingDetector("funta", SlidingWindow(16), min_reference=2)
        _drive(detector, [_ItemByItem(SlidingWindow(16))], _chunks(6, size, seed=size))

    def test_inliers_mask_applied_before_the_write(self):
        detector = StreamingDetector(
            "funta", SlidingWindow(24), min_reference=8,
            threshold=StreamingQuantileThreshold(0.2, capacity=64),
            update_policy="inliers",
        )
        _drive(detector, [_ItemByItem(SlidingWindow(24))],
               _chunks(8, 10, seed=61, shift_every=2))
        assert detector.n_flagged > 0

    def test_ingest_after_rereference(self):
        detector = StreamingDetector(
            "funta", SlidingWindow(16), min_reference=4,
            drift=DepthRankDrift(
                baseline_size=16, recent_size=8, alpha=0.2, patience=1, min_gap=1
            ),
            on_drift="rereference",
        )
        chunks = _chunks(4, 8, seed=62) + [c + 5.0 for c in _chunks(10, 8, seed=63)]
        _drive(detector, [_ItemByItem(SlidingWindow(16))], chunks)
        assert detector.n_rereferences > 0

    def test_reservoir_makes_the_same_draws(self):
        detector = StreamingDetector(
            "funta", ReservoirWindow(16, random_state=4), min_reference=2
        )
        _drive(detector, [_ItemByItem(ReservoirWindow(16, random_state=4))],
               _chunks(8, 12, seed=64))

    @pytest.mark.parametrize("size", [3, 16, 40])
    def test_two_shards_round_robin(self, size):
        detector = StreamingDetector(
            "funta", SlidingWindow(16), shards=2, min_reference=2
        )
        try:
            models = [_ItemByItem(SlidingWindow(8)) for _ in range(2)]
            _drive(detector, models, _chunks(5, size, seed=65))
        finally:
            detector.close()


class TestDriftingStreamIntegration:
    def test_drift_monitor_fires_after_injected_regime_change(self):
        stream = make_drifting_stream(
            n_chunks=30, chunk_size=16, n_points=48, drift_at=15,
            drift_phase=1.0, drift_scale=1.4, random_state=0,
        )
        detector = StreamingDetector(
            "funta", SlidingWindow(96), min_reference=32,
            drift=DepthRankDrift(
                baseline_size=96, recent_size=64, alpha=0.01,
                patience=1, min_gap=32,
            ),
        )
        fired_at = None
        for chunk_idx, (chunk, _) in enumerate(stream):
            result = detector.process(chunk)
            if result.drift is not None and fired_at is None:
                fired_at = chunk_idx
        assert fired_at is not None and fired_at >= 14

    def test_stream_generator_is_reproducible_and_labelled(self):
        make = lambda: make_drifting_stream(
            n_chunks=4, chunk_size=6, n_points=32, burst_at=(2,),
            burst_size=2, random_state=5,
        )
        first = [(chunk.values, labels) for chunk, labels in make()]
        second = [(chunk.values, labels) for chunk, labels in make()]
        for (va, la), (vb, lb) in zip(first, second):
            np.testing.assert_array_equal(va, vb)
            np.testing.assert_array_equal(la, lb)
        labels = np.concatenate([l for _, l in first])
        assert labels.sum() == 2  # exactly the injected burst
        assert first[0][0].shape == (6, 32, 2)


class TestServiceIntegration:
    def test_streaming_detector_serves_through_service(self):
        service = ScoringService()
        detector = StreamingDetector("funta", SlidingWindow(32), min_reference=8)
        service.register("stream", detector)
        assert detector.context is service.context
        warm = _mfd(_curves(16, seed=40))
        list(service.stream("stream", warm, chunk_size=8))
        scores = service.score("stream", _mfd(_curves(3, seed=41)))
        assert scores.shape == (3,)
        assert service.served_curves == 19

    def test_score_stream_pads_warmup_with_nan(self):
        service = ScoringService()
        detector = StreamingDetector("funta", SlidingWindow(32), min_reference=16)
        service.register("stream", detector)
        data = _mfd(_curves(32, seed=42))
        chunks = list(service.score_stream("stream", data, chunk_size=8))
        flat = np.concatenate(chunks)
        assert flat.shape == (32,)
        assert np.isnan(flat[:16]).all() and np.isfinite(flat[16:]).all()

    def test_submit_rejects_streaming_detectors(self):
        service = ScoringService()
        service.register("stream", StreamingDetector("funta", SlidingWindow(8)))
        with pytest.raises(ValidationError, match="micro-batching"):
            service.submit("stream", _mfd(_curves(2, seed=43)))

    def test_stream_route_rejects_batch_pipelines(self):
        service = ScoringService()
        curves = _curves(10, p=2, seed=44)
        pipeline = GeometricOutlierPipeline(
            IsolationForest(n_estimators=10, random_state=0), n_basis=8
        )
        pipeline.fit(_mfd(curves))
        service.register("batch", pipeline)
        with pytest.raises(ValidationError, match="not a StreamingDetector"):
            list(service.stream("batch", _mfd(curves)))
