"""Tests for the serving layer: persistence, scoring service, streaming."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

from repro.core.pipeline import GeometricOutlierPipeline
from repro.data.synthetic import make_taxonomy_dataset
from repro.detectors import DETECTOR_REGISTRY, detector_from_state, make_detector
from repro.engine import ExecutionContext
from repro.exceptions import NotFittedError, PersistenceError, ValidationError
from repro.fda.fdata import MFDataGrid
from repro.geometry.mappings import (
    CompositeMapping,
    CurvatureMapping,
    SpeedMapping,
    mapping_from_config,
)
from repro.serving import (
    ARRAYS_NAME,
    FORMAT_VERSION,
    MANIFEST_NAME,
    ScoringService,
    load_pipeline,
    save_pipeline,
    score_stream,
)

#: Constructor kwargs keeping every registered detector happy on tiny data.
DETECTOR_KWARGS = {
    "iforest": {"random_state": 0, "n_estimators": 25},
    "ocsvm": {},
    "knn": {"n_neighbors": 3},
    "lof": {"n_neighbors": 5},
    "mahalanobis": {},
}


@pytest.fixture(scope="module")
def dataset():
    data, labels = make_taxonomy_dataset(
        "correlation", n_inliers=40, n_outliers=6, random_state=0
    )
    return data, labels


def _fitted_pipeline(data, detector_name="iforest", **pipeline_kwargs):
    detector = make_detector(detector_name, **DETECTOR_KWARGS[detector_name])
    pipeline_kwargs.setdefault("n_basis", 12)
    return GeometricOutlierPipeline(detector, **pipeline_kwargs).fit(data)


class TestDetectorState:
    @pytest.mark.parametrize("name", sorted(DETECTOR_REGISTRY))
    def test_export_import_bit_identical(self, name, gaussian_cloud):
        X, _ = gaussian_cloud
        detector = make_detector(name, **DETECTOR_KWARGS[name]).fit(X)
        restored = detector_from_state(detector.export_state())
        assert np.array_equal(restored.score_samples(X), detector.score_samples(X))
        assert restored.threshold_ == detector.threshold_
        assert restored.n_features_ == detector.n_features_

    def test_export_requires_fit(self):
        with pytest.raises(NotFittedError):
            make_detector("iforest").export_state()

    def test_state_contains_no_objects(self, gaussian_cloud):
        X, _ = gaussian_cloud
        state = make_detector("ocsvm").fit(X).export_state()
        for value in state["fitted"].values():
            assert isinstance(value, (np.ndarray, int, float, str, bool))

    def test_type_mismatch_rejected(self, gaussian_cloud):
        X, _ = gaussian_cloud
        state = make_detector("knn", n_neighbors=3).fit(X).export_state()
        state["type"] = "LocalOutlierFactor"
        with pytest.raises(ValidationError):
            from repro.detectors import KNNDetector

            KNNDetector.from_state(state)

    def test_unknown_type_rejected(self):
        with pytest.raises(ValidationError):
            detector_from_state({"type": "NoSuchDetector", "config": {}, "fitted": {}})


class TestPersistenceRoundTrip:
    @pytest.mark.parametrize("name", sorted(DETECTOR_REGISTRY))
    def test_save_load_score_identical(self, name, dataset, tmp_path):
        data, _ = dataset
        pipeline = _fitted_pipeline(data, name)
        reference = pipeline.score_samples(data)
        save_pipeline(pipeline, tmp_path / "model")
        loaded = load_pipeline(tmp_path / "model")
        np.testing.assert_allclose(loaded.score_samples(data), reference, atol=1e-12)

    def test_composite_mapping_round_trip(self, dataset, tmp_path):
        data, _ = dataset
        mapping = CompositeMapping([CurvatureMapping(), SpeedMapping()])
        pipeline = GeometricOutlierPipeline(
            make_detector("iforest", random_state=1), mapping=mapping, n_basis=12
        ).fit(data)
        save_pipeline(pipeline, tmp_path / "model")
        loaded = load_pipeline(tmp_path / "model")
        assert loaded.mapping.name == mapping.name
        np.testing.assert_allclose(
            loaded.score_samples(data), pipeline.score_samples(data), atol=1e-12
        )

    def test_loaded_pipeline_selected_sizes_preserved(self, dataset, tmp_path):
        data, _ = dataset
        pipeline = _fitted_pipeline(data, n_basis=(8, 12, 16))
        save_pipeline(pipeline, tmp_path / "model")
        loaded = load_pipeline(tmp_path / "model")
        assert loaded.selected_n_basis_ == pipeline.selected_n_basis_

    def test_fresh_process_scores_identical(self, dataset, tmp_path):
        """The acceptance criterion: save, reload in a *new* process, score."""
        data, _ = dataset
        pipeline = _fitted_pipeline(data)
        reference = pipeline.score_samples(data)
        save_pipeline(pipeline, tmp_path / "model")
        np.savez(tmp_path / "batch.npz", values=data.values, grid=data.grid)
        script = (
            "import numpy as np\n"
            "from repro.serving import load_pipeline\n"
            "from repro.fda.fdata import MFDataGrid\n"
            f"pipeline = load_pipeline({str(tmp_path / 'model')!r})\n"
            f"bundle = np.load({str(tmp_path / 'batch.npz')!r})\n"
            "data = MFDataGrid(bundle['values'], bundle['grid'])\n"
            f"np.save({str(tmp_path / 'scores.npy')!r}, pipeline.score_samples(data))\n"
        )
        env = dict(os.environ)
        src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        subprocess.run([sys.executable, "-c", script], check=True, env=env)
        fresh = np.load(tmp_path / "scores.npy")
        np.testing.assert_allclose(fresh, reference, atol=1e-12)

    def test_save_requires_fitted(self, tmp_path):
        pipeline = GeometricOutlierPipeline(make_detector("iforest"))
        with pytest.raises(NotFittedError):
            save_pipeline(pipeline, tmp_path / "model")

    def test_save_rejects_non_pipeline(self, tmp_path):
        with pytest.raises(PersistenceError):
            save_pipeline(object(), tmp_path / "model")


class TestPersistenceErrors:
    def test_missing_directory(self, tmp_path):
        with pytest.raises(PersistenceError, match="no saved pipeline"):
            load_pipeline(tmp_path / "nope")

    def test_missing_manifest(self, tmp_path):
        (tmp_path / "model").mkdir()
        with pytest.raises(PersistenceError, match="manifest"):
            load_pipeline(tmp_path / "model")

    def test_corrupt_manifest_json(self, dataset, tmp_path):
        data, _ = dataset
        save_pipeline(_fitted_pipeline(data), tmp_path / "model")
        (tmp_path / "model" / MANIFEST_NAME).write_text("{not json", encoding="utf-8")
        with pytest.raises(PersistenceError, match="cannot read"):
            load_pipeline(tmp_path / "model")

    def test_wrong_format_version(self, dataset, tmp_path):
        data, _ = dataset
        save_pipeline(_fitted_pipeline(data), tmp_path / "model")
        manifest_path = tmp_path / "model" / MANIFEST_NAME
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
        manifest["format_version"] = FORMAT_VERSION + 1
        manifest_path.write_text(json.dumps(manifest), encoding="utf-8")
        with pytest.raises(PersistenceError, match="format version"):
            load_pipeline(tmp_path / "model")

    def test_not_a_repro_manifest(self, dataset, tmp_path):
        data, _ = dataset
        save_pipeline(_fitted_pipeline(data), tmp_path / "model")
        (tmp_path / "model" / MANIFEST_NAME).write_text(
            json.dumps({"format": "something-else"}), encoding="utf-8"
        )
        with pytest.raises(PersistenceError, match="not a repro pipeline"):
            load_pipeline(tmp_path / "model")

    def test_missing_array_bundle(self, dataset, tmp_path):
        data, _ = dataset
        save_pipeline(_fitted_pipeline(data), tmp_path / "model")
        (tmp_path / "model" / ARRAYS_NAME).unlink()
        with pytest.raises(PersistenceError, match="array bundle"):
            load_pipeline(tmp_path / "model")

    def test_corrupt_array_bundle(self, dataset, tmp_path):
        data, _ = dataset
        save_pipeline(_fitted_pipeline(data), tmp_path / "model")
        (tmp_path / "model" / ARRAYS_NAME).write_bytes(b"garbage")
        with pytest.raises(PersistenceError, match="cannot read"):
            load_pipeline(tmp_path / "model")

    @pytest.mark.parametrize("dropped", ["eval_grid", "smoothers", "detector"])
    def test_truncated_state_raises_persistence_error(self, dataset, tmp_path, dropped):
        """Missing state sections surface as PersistenceError, not KeyError."""
        data, _ = dataset
        save_pipeline(_fitted_pipeline(data), tmp_path / "model")
        manifest_path = tmp_path / "model" / MANIFEST_NAME
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
        del manifest["state"][dropped]
        manifest_path.write_text(json.dumps(manifest), encoding="utf-8")
        with pytest.raises(PersistenceError):
            load_pipeline(tmp_path / "model")

    @pytest.mark.parametrize("section", ["spec", "state"])
    def test_missing_manifest_section_raises(self, dataset, tmp_path, section):
        """A v2 manifest without its spec/state section fails loudly."""
        data, _ = dataset
        save_pipeline(_fitted_pipeline(data), tmp_path / "model")
        manifest_path = tmp_path / "model" / MANIFEST_NAME
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
        del manifest[section]
        manifest_path.write_text(json.dumps(manifest), encoding="utf-8")
        with pytest.raises(PersistenceError, match=section):
            load_pipeline(tmp_path / "model")

    def test_invalid_spec_section_raises(self, dataset, tmp_path):
        """A corrupted spec section surfaces the validator's message."""
        data, _ = dataset
        save_pipeline(_fitted_pipeline(data), tmp_path / "model")
        manifest_path = tmp_path / "model" / MANIFEST_NAME
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
        manifest["spec"]["detector"] = {"name": "not-a-detector"}
        manifest_path.write_text(json.dumps(manifest), encoding="utf-8")
        with pytest.raises(PersistenceError, match="unknown detector"):
            load_pipeline(tmp_path / "model")


class TestScoringService:
    def test_register_and_score(self, dataset):
        data, _ = dataset
        pipeline = _fitted_pipeline(data)
        service = ScoringService()
        service.register("main", pipeline)
        assert service.names() == ["main"]
        np.testing.assert_array_equal(
            service.score("main", data), pipeline.score_samples(data)
        )

    def test_register_rejects_unfitted(self):
        service = ScoringService()
        with pytest.raises(NotFittedError):
            service.register("main", GeometricOutlierPipeline(make_detector("iforest")))

    def test_unknown_pipeline_name(self, dataset):
        data, _ = dataset
        with pytest.raises(ValidationError, match="no pipeline named"):
            ScoringService().score("nope", data)

    def test_load_joins_service_context(self, dataset, tmp_path):
        data, _ = dataset
        save_pipeline(_fitted_pipeline(data), tmp_path / "model")
        context = ExecutionContext()
        service = ScoringService(context=context)
        loaded = service.load("main", tmp_path / "model")
        assert loaded.context is context

    def test_micro_batching_matches_direct(self, dataset, tmp_path):
        data, _ = dataset
        save_pipeline(_fitted_pipeline(data), tmp_path / "model")
        service = ScoringService()
        service.load("main", tmp_path / "model")
        direct = service.score("main", data)
        tickets = [
            service.submit("main", data[np.arange(start, min(start + 7, data.n_samples))])
            for start in range(0, data.n_samples, 7)
        ]
        assert not tickets[0].done
        assert service.flush() == len(tickets)
        merged = np.concatenate([t.result() for t in tickets])
        np.testing.assert_allclose(merged, direct, atol=1e-12)

    def test_auto_flush_at_max_pending(self, dataset):
        data, _ = dataset
        service = ScoringService(max_pending=10)
        service.register("main", _fitted_pipeline(data))
        first = service.submit("main", data[np.arange(6)])
        assert not first.done
        second = service.submit("main", data[np.arange(6, 12)])
        # 12 curves >= max_pending=10 -> flushed automatically.
        assert first.done and second.done

    def test_pending_ticket_raises(self, dataset):
        data, _ = dataset
        service = ScoringService()
        service.register("main", _fitted_pipeline(data))
        ticket = service.submit("main", data[np.arange(3)])
        with pytest.raises(NotFittedError, match="pending"):
            ticket.result()

    def test_flush_empty_queue(self):
        assert ScoringService().flush() == 0

    def test_bad_group_does_not_strand_other_tickets(self, dataset):
        """A failing batch poisons only its own group on flush."""
        data, _ = dataset
        service = ScoringService()
        service.register("main", _fitted_pipeline(data))
        good = service.submit("main", data[np.arange(5)])
        # Same grid but p=1 while the pipeline was fitted on p=2 curves:
        # that group fails inside the pipeline when flushed.
        bad = service.submit("main", MFDataGrid(data.values[:3, :, :1], data.grid))
        service.flush()
        assert good.done and bad.done
        np.testing.assert_allclose(
            good.result(), service.score("main", data[np.arange(5)]), atol=1e-12
        )
        with pytest.raises(Exception):
            bad.result()

    def test_same_grid_different_p_not_merged(self, dataset):
        """Grouping keys include the parameter count, not just the grid."""
        data, _ = dataset
        service = ScoringService()
        service.register("main", _fitted_pipeline(data))
        a = service.submit("main", data[np.arange(4)])
        b = service.submit("main", data[np.arange(4, 8)])
        univariate = MFDataGrid(data.values[:3, :, :1], data.grid)
        c = service.submit("main", univariate)
        service.flush()
        # The matching-p groups resolve fine despite c's group failing.
        merged = np.concatenate([a.result(), b.result()])
        np.testing.assert_allclose(
            merged, service.score("main", data[np.arange(8)]), atol=1e-12
        )
        with pytest.raises(Exception):
            c.result()

    def test_warm_grid_skips_refactorization(self, dataset, tmp_path):
        data, _ = dataset
        save_pipeline(_fitted_pipeline(data), tmp_path / "model")
        service = ScoringService()
        service.load("main", tmp_path / "model")
        service.score("main", data[np.arange(5)])  # cold: builds artifacts
        before = service.context.cache.stats.copy()
        for start in range(5, 25, 5):
            service.score("main", data[np.arange(start, start + 5)])
        delta = service.context.cache.stats - before
        assert delta.factorizations == 0
        assert delta.design_builds == 0
        assert delta.factorization_hits > 0

    def test_serving_regimes_and_plan_dispatch_agree(self, dataset, tmp_path):
        """Cache cleared per batch, one shared context, micro-batched
        submit/flush and plan-layer dispatch all score the same traffic
        alike."""
        from repro.plan import WorkloadSpec, plan_for_pipeline

        data, _ = dataset
        save_pipeline(_fitted_pipeline(data), tmp_path / "model")
        rng = np.random.default_rng(1)
        batches = []
        for _ in range(8):
            base = data.values[rng.integers(0, data.n_samples, size=5)]
            batches.append(
                MFDataGrid(base + 0.02 * rng.standard_normal(base.shape), data.grid)
            )

        cleared = ScoringService()
        cleared.load("m", tmp_path / "model")
        cleared_scores = []
        for batch in batches:
            cleared.context.cache.clear()
            cleared_scores.append(cleared.score("m", batch))
        expected = np.concatenate(cleared_scores)

        shared = ScoringService()
        shared.load("m", tmp_path / "model")
        shared_scores = [shared.score("m", batches[0])]
        warm = shared.context.cache.stats.copy()
        shared_scores += [shared.score("m", batch) for batch in batches[1:]]
        delta = shared.context.cache.stats - warm
        assert delta.factorizations == 0
        assert delta.design_builds == 0
        assert delta.factorization_hits >= len(batches) - 1
        np.testing.assert_allclose(np.concatenate(shared_scores), expected, atol=1e-12)

        micro = ScoringService(max_pending=1000)
        micro.load("m", tmp_path / "model")
        tickets = [micro.submit("m", batch) for batch in batches]
        micro.flush()
        micro_scores = np.concatenate([t.result() for t in tickets])
        np.testing.assert_allclose(micro_scores, expected, atol=1e-12)

        pipeline = load_pipeline(tmp_path / "model")
        plan = plan_for_pipeline(pipeline, WorkloadSpec(mode="batch"))
        for batch in batches:
            np.testing.assert_array_equal(
                plan.score(batch), pipeline.score_samples(batch)
            )

    def test_stats_counters(self, dataset):
        data, _ = dataset
        service = ScoringService()
        service.register("main", _fitted_pipeline(data))
        service.score("main", data[np.arange(4)])
        stats = service.stats()
        assert stats["pipelines"] == 1
        assert stats["served_curves"] == 4
        assert stats["served_requests"] == 1
        assert "cache" in stats


class TestScoreStream:
    def test_chunked_equals_full(self, dataset):
        data, _ = dataset
        pipeline = _fitted_pipeline(data)
        full = pipeline.score_samples(data)
        chunks = list(score_stream(pipeline, data, chunk_size=7))
        assert all(chunk.shape[0] <= 7 for chunk in chunks)
        np.testing.assert_allclose(np.concatenate(chunks), full, atol=1e-12)

    def test_iterable_of_batches(self, dataset):
        data, _ = dataset
        pipeline = _fitted_pipeline(data)
        batches = [data[np.arange(0, 10)], data[np.arange(10, 25)]]
        chunks = list(score_stream(pipeline, iter(batches), chunk_size=100))
        np.testing.assert_allclose(
            np.concatenate(chunks),
            pipeline.score_samples(data[np.arange(25)]),
            atol=1e-12,
        )

    def test_service_stream_counts(self, dataset):
        data, _ = dataset
        service = ScoringService()
        service.register("main", _fitted_pipeline(data))
        list(service.score_stream("main", data, chunk_size=10))
        assert service.served_curves == data.n_samples

    def test_generator_source_is_consumed_lazily(self, dataset):
        data, _ = dataset
        pipeline = _fitted_pipeline(data)
        pulled = []

        def generate():
            for start in (0, 10):
                pulled.append(start)
                yield data[np.arange(start, start + 10)]

        stream = score_stream(pipeline, generate(), chunk_size=100)
        assert pulled == []  # nothing consumed before iteration
        first = next(stream)
        assert pulled == [0]  # one batch pulled per yielded score array
        rest = list(stream)
        assert pulled == [0, 10]
        np.testing.assert_allclose(
            np.concatenate([first, *rest]),
            pipeline.score_samples(data[np.arange(20)]),
            atol=1e-12,
        )

    def test_rejects_bad_input(self, dataset):
        data, _ = dataset
        pipeline = _fitted_pipeline(data)
        with pytest.raises(ValidationError):
            list(score_stream(pipeline, 42))

    def test_rejects_raw_arrays(self, dataset):
        data, _ = dataset
        pipeline = _fitted_pipeline(data)
        with pytest.raises(ValidationError, match="ambiguous"):
            list(score_stream(pipeline, data.values))

    def test_rejects_bad_chunk_size(self, dataset):
        data, _ = dataset
        pipeline = _fitted_pipeline(data)
        with pytest.raises(ValidationError):
            list(score_stream(pipeline, data, chunk_size=0))


class TestFlushHardening:
    """Exception safety + counter integrity of the micro-batch queue."""

    def test_failed_ticket_reraises_captured_error(self, dataset):
        data, _ = dataset
        service = ScoringService()
        service.register("main", _fitted_pipeline(data))
        bad = service.submit("main", MFDataGrid(data.values[:3, :, :1], data.grid))
        service.flush()
        assert bad.done and bad.failed
        with pytest.raises(Exception) as first:
            bad.result()
        with pytest.raises(Exception) as second:
            bad.result()  # re-raises the same captured error every time
        assert first.value is second.value

    def test_base_exception_mid_flush_fails_stragglers(self, dataset):
        """A KeyboardInterrupt-style teardown strands no ticket."""

        class Teardown(BaseException):
            pass

        data, _ = dataset
        service = ScoringService()
        pipeline = _fitted_pipeline(data)

        def exploding_score(mfd):
            raise Teardown("worker torn down")

        pipeline.score_samples = exploding_score
        service.register("main", pipeline)
        tickets = [service.submit("main", data[np.arange(3)]) for _ in range(3)]
        with pytest.raises(Teardown):
            service.flush()
        for ticket in tickets:
            assert ticket.done and ticket.failed
            with pytest.raises(RuntimeError, match="flush aborted mid-run"):
                ticket.result()
        # The finally-block bookkeeping still ran exactly once.
        stats = service.stats()
        assert stats["pending_requests"] == 0
        assert stats["pending_curves"] == 0
        assert stats["inflight_curves"] == 0
        assert stats["flushes"] == 1
        assert stats["failed_requests"] == 3

    def test_wrong_score_shape_fails_only_that_group(self, dataset):
        data, _ = dataset
        service = ScoringService()
        good_pipeline = _fitted_pipeline(data)
        bad_pipeline = _fitted_pipeline(data)
        bad_pipeline.score_samples = lambda mfd: np.zeros(mfd.n_samples + 1)
        service.register("good", good_pipeline)
        service.register("bad", bad_pipeline)
        good = service.submit("good", data[np.arange(4)])
        bad = service.submit("bad", data[np.arange(4)])
        assert service.flush() == 2
        np.testing.assert_allclose(
            good.result(), good_pipeline.score_samples(data[np.arange(4)]), atol=1e-12
        )
        with pytest.raises(ValidationError, match="returned scores of shape"):
            bad.result()

    def test_ticket_resolves_exactly_once(self):
        from repro.serving import ScoreTicket

        ticket = ScoreTicket("main", 2)
        ticket._resolve(np.zeros(2))
        with pytest.raises(RuntimeError, match="already resolved"):
            ticket._resolve(np.zeros(2))
        with pytest.raises(RuntimeError, match="already resolved"):
            ticket._fail(ValueError("late"))
        np.testing.assert_array_equal(ticket.result(), np.zeros(2))

    def test_stats_no_drift_across_interleaved_traffic(self, dataset):
        """flushes/pending/served/failed stay consistent through a messy mix."""
        data, _ = dataset
        service = ScoringService(max_pending=1_000_000)
        service.register("main", _fitted_pipeline(data))

        def assert_invariants():
            stats = service.stats()
            assert stats["pending_requests"] >= 0
            assert stats["pending_curves"] >= 0
            assert stats["inflight_curves"] == 0  # single-threaded here
            return stats

        submitted = 0
        service.flush()  # empty: must not count as a flush
        assert assert_invariants()["flushes"] == 0

        for round_no in range(3):
            service.submit("main", data[np.arange(3)])
            service.submit("main", MFDataGrid(data.values[:2, :, :1], data.grid))
            submitted += 2
            assert assert_invariants()["pending_requests"] == 2
            service.flush()
            stats = assert_invariants()
            assert stats["flushes"] == round_no + 1
            assert stats["pending_requests"] == 0
            assert stats["served_requests"] + stats["failed_requests"] == submitted
        # Direct scoring and empty flushes do not disturb request accounting.
        service.score("main", data[np.arange(2)])
        service.flush()
        stats = assert_invariants()
        assert stats["flushes"] == 3
        assert stats["served_requests"] + stats["failed_requests"] == submitted + 1

    def test_threaded_submits_resolve_exactly_once(self, dataset):
        """Every ticket resolves under racing auto-flushes (satellite 5)."""
        import threading

        data, _ = dataset
        service = ScoringService(max_pending=12)
        service.register("main", _fitted_pipeline(data))

        per_thread, n_threads, batch = 15, 6, 3
        tickets: list = []
        tickets_lock = threading.Lock()
        start = threading.Barrier(n_threads + 1)

        def submitter():
            start.wait()
            for _ in range(per_thread):
                ticket = service.submit("main", data[np.arange(batch)])
                with tickets_lock:
                    tickets.append(ticket)

        def flusher():
            start.wait()
            for _ in range(10):
                service.flush()

        threads = [threading.Thread(target=submitter) for _ in range(n_threads)]
        threads.append(threading.Thread(target=flusher))
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        service.flush()  # drain whatever the races left behind

        assert len(tickets) == per_thread * n_threads
        expected = service.score("main", data[np.arange(batch)])
        for ticket in tickets:
            assert ticket.done and not ticket.failed
            np.testing.assert_allclose(ticket.result(), expected, atol=1e-12)
        stats = service.stats()
        assert stats["pending_requests"] == 0
        assert stats["inflight_curves"] == 0
        assert stats["served_requests"] == len(tickets) + 1  # + direct score
        assert stats["failed_requests"] == 0
        assert stats["served_curves"] == (len(tickets) + 1) * batch


class TestMmapPersistence:
    def test_uncompressed_mmap_roundtrip_identical(self, dataset, tmp_path):
        data, _ = dataset
        pipeline = _fitted_pipeline(data)
        save_pipeline(pipeline, tmp_path / "model", compressed=False)
        loaded = load_pipeline(tmp_path / "model", mmap=True)
        np.testing.assert_array_equal(
            loaded.score_samples(data), pipeline.score_samples(data)
        )

    def test_uncompressed_bundle_actually_memory_maps(self, dataset, tmp_path):
        from repro.serving.persist import _read_arrays

        data, _ = dataset
        save_pipeline(_fitted_pipeline(data), tmp_path / "model", compressed=False)
        arrays = _read_arrays(tmp_path / "model", mmap=True)
        mapped = [k for k, v in arrays.items() if isinstance(v, np.memmap)]
        assert mapped, "no array member was memory-mapped from the stored bundle"

    def test_compressed_bundle_mmap_falls_back_to_eager(self, dataset, tmp_path):
        data, _ = dataset
        pipeline = _fitted_pipeline(data)
        save_pipeline(pipeline, tmp_path / "model")  # compressed (deflated members)
        loaded = load_pipeline(tmp_path / "model", mmap=True)
        np.testing.assert_array_equal(
            loaded.score_samples(data), pipeline.score_samples(data)
        )

    def test_state_type_corruption_raises_persistence_error(self, dataset, tmp_path):
        """A malformed manifest must never leak a raw TypeError/ValueError."""
        data, _ = dataset
        save_pipeline(_fitted_pipeline(data), tmp_path / "model")
        manifest_path = tmp_path / "model" / MANIFEST_NAME
        manifest = json.loads(manifest_path.read_text())
        manifest["state"]["eval_grid"] = "hello"
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(PersistenceError, match="cannot restore pipeline"):
            load_pipeline(tmp_path / "model")
