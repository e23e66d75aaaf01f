"""Sharded streaming: ``StreamingDetector(shards=N)`` must reproduce ``shards=1``.

The acceptance pins for sharding:

* on :func:`repro.data.make_drifting_stream`, the sharded FUNTA
  detector must reproduce the single-stream scores (``rtol=1e-12`` —
  the only difference is floating summation order over shard
  partials), the exact flag sequence, and the exact drift/re-reference
  chunk indices, for every shard count in {1, 2, 3, 7} **through a
  re-reference barrier**.  Two geometries: checks landing on chunk
  boundaries (window 84 = 2²·3·7, chunk 21, ``min_gap`` 21) and checks
  landing inside chunks (the streaming benchmark's chunk 64 with
  ``min_gap`` 16 and a 128-score drift baseline);
* shards are accepted only for untrimmed FUNTA, whose shard partials
  add up: Dir.out, halfspace and trimmed FUNTA are rejected by the
  detector, the spec and the CLI;
* the shard window capacity must divide evenly;
* the plan layer compiles ``StreamSpec(shards=N)`` and still loads
  legacy ``shard_backend`` documents;
* the serving layer streams through a registered sharded detector.
"""

import functools

import numpy as np
import pytest

from repro.cli import main
from repro.data import make_drifting_stream
from repro.depth.funta import funta_outlyingness
from repro.engine import ExecutionContext
from repro.exceptions import ConfigurationError, ValidationError
from repro.fda.fdata import MFDataGrid
from repro.plan import StreamSpec, compile_plan, spec_from_dict
from repro.serving import ScoringService
from repro.streaming import (
    DepthRankDrift,
    ReservoirWindow,
    SlidingWindow,
    StreamingDetector,
    make_threshold,
)
from repro.telemetry import Telemetry

RTOL = 1e-12

# 84 = 2^2 * 3 * 7: the reference window divides evenly for every
# tested shard count.
WINDOW = 84
CONTAMINATION = 0.1
ALPHA = 0.05
SHARD_COUNTS = (1, 2, 3, 7)

# name -> (chunk, min_gap, drift baseline, drift recent)
GEOMETRIES = {
    "chunk_aligned": (21, 21, WINDOW, WINDOW),
    "min_gap_below_chunk": (64, 16, 128, 64),
}
#: The configurations whose scores need the whole window (rejected).
UNSHARDABLE = [("dirout", {}), ("halfspace", {}), ("funta", {"trim": 0.1})]


def _stream(chunk):
    return make_drifting_stream(
        n_chunks=20, chunk_size=chunk, n_points=40, drift_at=8, drift_ramp=2,
        drift_phase=1.2, drift_scale=1.8, random_state=3,
    )


@functools.lru_cache(maxsize=None)
def _run(n_shards, geometry):
    chunk, min_gap, baseline, recent = GEOMETRIES[geometry]
    detector = StreamingDetector(
        "funta", SlidingWindow(WINDOW), shards=n_shards, min_reference=2,
        threshold=make_threshold(CONTAMINATION, "window", capacity=WINDOW),
        drift=DepthRankDrift(
            baseline_size=baseline, recent_size=recent, alpha=ALPHA,
            patience=1, min_gap=min_gap,
        ),
        on_drift="rereference",
    )
    scores, flags, events = [], [], []
    with detector:
        for chunk_idx, (batch, _) in enumerate(_stream(chunk)):
            result = detector.process(batch)
            if result.scores is not None:
                scores.append(result.scores)
            if result.flags is not None:
                flags.append(result.flags)
            if result.drift is not None:
                events.append(chunk_idx)
    return (
        np.concatenate(scores),
        np.concatenate(flags),
        events,
        detector.n_rereferences,
    )


def _assert_matches_single(n_shards, geometry):
    scores, flags, events, rereferences = _run(1, geometry)
    assert events, "stream parameters must provoke a drift event"
    assert rereferences >= 1, "re-reference barrier must actually fire"
    sh_scores, sh_flags, sh_events, sh_rereferences = _run(n_shards, geometry)
    np.testing.assert_allclose(sh_scores, scores, rtol=RTOL, atol=0.0)
    np.testing.assert_array_equal(sh_flags, flags)
    assert sh_events == events
    assert sh_rereferences == rereferences


class TestShardedEqualsSingleStream:
    @pytest.mark.parametrize("n_shards", SHARD_COUNTS)
    def test_funta_scores_flags_and_rereference_match(self, n_shards):
        _assert_matches_single(n_shards, "chunk_aligned")

    @pytest.mark.parametrize("n_shards", SHARD_COUNTS)
    def test_drift_matches_when_min_gap_below_chunk(self, n_shards):
        # Drift checks fall inside chunks here; the coordinator's single
        # monitor must still take exactly the single stream's decisions.
        _assert_matches_single(n_shards, "min_gap_below_chunk")


class TestShardedReservoir:
    def test_scores_against_union_of_shard_reservoirs(self):
        rng = np.random.default_rng(9)
        grid = np.linspace(0.0, 1.0, 20)
        window = ReservoirWindow(16, random_state=4)
        with StreamingDetector(
            "funta", window, shards=2, min_reference=4, trim=0
        ) as detector:
            for _ in range(5):
                detector.process(MFDataGrid(rng.standard_normal((8, 20, 1)), grid))
            queries = MFDataGrid(rng.standard_normal((6, 20, 1)), grid)
            union = detector.window
            assert union.size == 16
            expected = funta_outlyingness(
                queries, reference=MFDataGrid(union.values, grid), trim=0
            )
            np.testing.assert_allclose(
                detector.score(queries), expected, rtol=RTOL, atol=0.0
            )


class TestValidation:
    @pytest.mark.parametrize("kind, options", UNSHARDABLE)
    def test_detector_rejects_kinds_needing_the_whole_window(self, kind, options):
        with pytest.raises(ValidationError, match="untrimmed FUNTA"):
            StreamingDetector(kind, SlidingWindow(16), shards=2, **options)
        # The same configurations stay valid on one stream.
        StreamingDetector(kind, SlidingWindow(16), shards=1, **options)

    @pytest.mark.parametrize("kind, options", UNSHARDABLE)
    def test_spec_rejects_kinds_needing_the_whole_window(self, kind, options):
        with pytest.raises(ConfigurationError, match="untrimmed FUNTA"):
            StreamSpec(kind=kind, window=WINDOW, shards=2, params=options)
        StreamSpec(kind=kind, window=WINDOW, shards=1, params=options)

    def test_cli_rejects_sharded_dirout(self, tmp_path, capsys):
        path = tmp_path / "stream.npz"
        rng = np.random.default_rng(3)
        np.savez(path, values=rng.standard_normal((40, 16)).cumsum(axis=1),
                 grid=np.linspace(0.0, 1.0, 16))
        rc = main(["stream-score", "--data", str(path), "--kind", "dirout",
                   "--window", "32", "--shards", "2"])
        assert rc != 0
        err = capsys.readouterr().err
        assert "untrimmed FUNTA" in err and "kind='dirout'" in err

    def test_capacity_must_divide_across_shards(self):
        with pytest.raises(ValidationError, match="divide"):
            StreamingDetector("funta", SlidingWindow(16), shards=3)

    def test_close_releases_the_pool_and_is_idempotent(self):
        rng = np.random.default_rng(2)
        grid = np.linspace(0.0, 1.0, 16)
        detector = StreamingDetector("funta", SlidingWindow(8), shards=2, min_reference=2)
        detector.process(MFDataGrid(rng.standard_normal((8, 16, 1)), grid))
        assert detector._pool is not None
        detector.close()
        detector.close()
        assert detector._pool is None


class TestPlanIntegration:
    def test_stream_spec_compiles_to_sharded_detector(self):
        spec = StreamSpec(
            kind="funta", window=WINDOW, shards=2,
            drift_baseline=WINDOW, drift_recent=WINDOW,
        )
        plan = compile_plan(spec)
        with plan.build() as detector:
            assert isinstance(detector, StreamingDetector)
            assert detector.n_shards == 2
            assert isinstance(detector.drift, DepthRankDrift)
            assert plan.describe()["shards"] == 2

    def test_round_trip_keeps_shard_fields(self):
        spec = StreamSpec(
            kind="funta", window=WINDOW, shards=3,
            drift_baseline=128, drift_recent=64,
        )
        again = StreamSpec.from_dict(spec.to_dict())
        assert again == spec and again.shards == 3

    def test_legacy_shard_backend_documents(self):
        doc = {"spec": "stream", "kind": "funta", "window": WINDOW, "shards": 2}
        for backend in ("thread", "serial"):
            spec = spec_from_dict({**doc, "shard_backend": backend})
            assert spec == StreamSpec(kind="funta", window=WINDOW, shards=2)
            assert "shard_backend" not in spec.to_dict()
        with pytest.raises(ConfigurationError, match="process"):
            spec_from_dict({**doc, "shard_backend": "process"})

    def test_sharded_spec_rejects_p2_threshold(self):
        with pytest.raises(ConfigurationError, match="sketch"):
            StreamSpec(kind="funta", window=WINDOW, shards=2, threshold_mode="p2")

    def test_sharded_spec_rejects_indivisible_window(self):
        with pytest.raises(ConfigurationError, match="divide"):
            StreamSpec(
                kind="funta", window=100, shards=3,
                drift_baseline=84, drift_recent=84,
            )


class TestServingIntegration:
    def test_sharded_detector_streams_through_service(self):
        rng = np.random.default_rng(21)
        m = 32
        grid = np.linspace(0.0, 1.0, m)
        service = ScoringService()
        with StreamingDetector(
            "funta", SlidingWindow(16), shards=2, min_reference=4
        ) as detector:
            service.register("sharded", detector)
            data = MFDataGrid(rng.standard_normal((24, m, 1)), grid)
            batches = list(service.stream("sharded", data, chunk_size=8))
            assert len(batches) == 3
            scored = [b for b in batches if b.scores is not None]
            assert scored and all(b.scores.ndim == 1 for b in scored)
            with pytest.raises(ValidationError, match="streaming"):
                service.submit("sharded", data)


class TestTelemetry:
    def test_sharded_scoring_times_the_partials_stage_only(self):
        telemetry = Telemetry()
        rng = np.random.default_rng(4)
        grid = np.linspace(0.0, 1.0, 16)
        with StreamingDetector(
            "funta", SlidingWindow(16), shards=2, min_reference=4,
            context=ExecutionContext(telemetry=telemetry),
        ) as detector:
            for _ in range(3):
                detector.process(MFDataGrid(rng.standard_normal((8, 16, 1)), grid))
        assert telemetry.histogram("streaming_merge_seconds", stage="partials").count == 2
        assert 'stage="merged"' not in telemetry.to_prometheus()
