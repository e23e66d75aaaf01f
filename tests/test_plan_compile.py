"""Tests for the plan compiler/executor (`repro.plan.compile`)."""

import json

import numpy as np
import pytest

from repro.core.methods import (
    DirOutMethod,
    FuntaMethod,
    MappedDetectorMethod,
)
from repro.core.pipeline import GeometricOutlierPipeline
from repro.data.synthetic import make_taxonomy_dataset
from repro.detectors import IsolationForest
from repro.engine import ExecutionContext
from repro.exceptions import ConfigurationError, NotFittedError
from repro.plan import (
    DetectorSpec,
    MethodSpec,
    PipelineSpec,
    SmootherSpec,
    StreamSpec,
    WorkloadSpec,
    compile_plan,
    pipeline_to_spec,
    plan_for_pipeline,
    run_chunked,
)
from repro.serving import MANIFEST_NAME, load_pipeline, save_pipeline
from repro.streaming import ReservoirWindow, SlidingWindow, StreamingDetector


@pytest.fixture(scope="module")
def dataset():
    data, labels = make_taxonomy_dataset(
        "correlation", n_inliers=30, n_outliers=4, random_state=3
    )
    return data, labels


PIPELINE_SPEC = PipelineSpec(
    detector=DetectorSpec("iforest", {"n_estimators": 25, "random_state": 0}),
    smoother=SmootherSpec(n_basis=10),
)


class TestPipelinePlan:
    def test_compiled_pipeline_matches_direct_construction(self, dataset):
        data, _ = dataset
        plan = compile_plan(PIPELINE_SPEC)
        plan.fit(data)
        direct = GeometricOutlierPipeline(
            IsolationForest(n_estimators=25, random_state=0), n_basis=10
        ).fit(data)
        np.testing.assert_array_equal(plan.score(data), direct.score_samples(data))

    def test_score_chunks_concatenates_to_batch_scores(self, dataset):
        data, _ = dataset
        plan = compile_plan(PIPELINE_SPEC, WorkloadSpec(mode="stream", chunk_size=7))
        plan.fit(data)
        chunked = np.concatenate(list(plan.score_chunks(data)))
        np.testing.assert_array_equal(chunked, plan.score(data))

    def test_unfitted_plan_refuses_to_score(self, dataset):
        data, _ = dataset
        plan = compile_plan(PIPELINE_SPEC)
        with pytest.raises(NotFittedError):
            plan.score(data)

    def test_plan_for_pipeline_binds_existing_instance(self, dataset):
        data, _ = dataset
        pipeline = GeometricOutlierPipeline(
            IsolationForest(n_estimators=25, random_state=0), n_basis=10
        ).fit(data)
        plan = plan_for_pipeline(pipeline)
        assert plan.pipeline is pipeline
        np.testing.assert_array_equal(plan.score(data), pipeline.score_samples(data))

    def test_pipeline_to_spec_round_trips_configuration(self, dataset):
        data, _ = dataset
        pipeline = GeometricOutlierPipeline(
            IsolationForest(n_estimators=25, random_state=0),
            n_basis=10,
            smoothing=1e-3,
            eval_points=40,
        )
        spec = pipeline_to_spec(pipeline)
        rebuilt = compile_plan(spec).build()
        assert rebuilt.n_basis == pipeline.n_basis
        assert rebuilt.smoothing == pipeline.smoothing
        assert rebuilt.eval_points == pipeline.eval_points
        assert type(rebuilt.detector) is type(pipeline.detector)

    def test_compile_accepts_tagged_dict(self):
        plan = compile_plan({"spec": "pipeline", "detector": "iforest"})
        assert plan.kind == "pipeline"

    def test_compile_rejects_uncompilable(self):
        with pytest.raises(ConfigurationError, match="compilable"):
            compile_plan(WorkloadSpec())

    def test_context_threading(self):
        ctx = ExecutionContext(n_jobs=1)
        plan = compile_plan(PIPELINE_SPEC, context=ctx)
        assert plan.build().context is ctx


class TestMethodPlan:
    @pytest.mark.parametrize("kind, cls", [
        ("funta", FuntaMethod),
        ("dirout", DirOutMethod),
        ("iforest", MappedDetectorMethod),
        ("ocsvm", MappedDetectorMethod),
    ])
    def test_builds_expected_classes(self, kind, cls):
        method = compile_plan(MethodSpec(kind)).build()
        assert isinstance(method, cls)

    def test_figure3_names_preserved(self):
        names = [
            compile_plan(spec).build().name
            for spec in (MethodSpec("dirout"), MethodSpec("funta"),
                         MethodSpec("iforest"), MethodSpec("ocsvm"))
        ]
        assert names == ["Dir.out", "FUNTA", "iFor(Curvmap)", "OCSVM(Curvmap)"]

    def test_json_mapping_param_resolves(self, dataset):
        data, _ = dataset
        spec = MethodSpec(
            "iforest",
            {"mapping": {"type": "SpeedMapping"}, "n_basis": 8,
             "n_estimators": 10, "max_samples": 32},
        )
        method = compile_plan(spec).build()
        from repro.geometry.mappings import SpeedMapping

        assert isinstance(method.mapping, SpeedMapping)

    def test_score_dataset_matches_direct_method(self, dataset):
        data, _ = dataset
        idx = np.arange(data.n_samples)
        plan = compile_plan(
            MethodSpec("iforest", {"n_basis": 8, "n_estimators": 10}))
        direct = MappedDetectorMethod("iforest", n_basis=8, n_estimators=10)
        np.testing.assert_array_equal(
            plan.build().score_dataset(
                data, idx, idx, random_state=0, context=plan.context
            ),
            direct.score_dataset(data, idx, idx, random_state=0),
        )


class TestStreamPlan:
    def test_builds_configured_detector(self):
        plan = compile_plan(StreamSpec(
            kind="funta", window=32, policy="sliding", min_reference=8,
            params={"trim": 0.1},
        ))
        detector = plan.build()
        assert isinstance(detector, StreamingDetector)
        assert detector.kind == "funta"
        assert isinstance(detector.window, SlidingWindow)
        assert detector.window.capacity == 32
        assert detector.min_reference == 8
        assert detector.on_drift == "adapt"
        assert detector.options == {"trim": 0.1}
        assert detector.threshold is not None
        assert detector.drift is not None

    def test_reservoir_policy_defaults_to_rereference(self):
        detector = compile_plan(
            StreamSpec(kind="halfspace", policy="reservoir", window=16,
                       min_reference=4)
        ).build()
        assert isinstance(detector.window, ReservoirWindow)
        assert detector.on_drift == "rereference"

    def test_explicit_on_drift_wins(self):
        detector = compile_plan(
            StreamSpec(policy="reservoir", on_drift="adapt", window=16,
                       min_reference=4)
        ).build()
        assert detector.on_drift == "adapt"

    def test_process_chunks_runs_online_detection(self, dataset):
        data, _ = dataset
        plan = compile_plan(
            StreamSpec(kind="funta", window=16, min_reference=8),
            WorkloadSpec(mode="stream", chunk_size=8),
        )
        results = list(run_chunked(
            plan.detector.process, data, chunk_size=plan.workload.chunk_size
        ))
        assert results[0].warmup  # first chunk fills the window
        assert any(r.scores is not None for r in results)


class TestV1ManifestReader:
    def _downgrade_to_v1(self, model_dir):
        """Rewrite a saved v2 manifest into the historical v1 layout."""
        manifest_path = model_dir / MANIFEST_NAME
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
        assert manifest["format_version"] == 2
        spec = manifest.pop("spec")
        state = manifest["state"]
        smoother = spec["smoother"]
        state["config"] = {
            "smoothing": smoother["smoothing"],
            "penalty_order": smoother["penalty_order"],
            "spline_order": smoother["spline_order"],
        }
        mapping = spec["mapping"]
        state["mapping"] = {
            "type": mapping["type"],
            "params": mapping.get("params", {}),
        }
        manifest["format_version"] = 1
        manifest_path.write_text(json.dumps(manifest), encoding="utf-8")

    def test_v1_manifest_loads_bit_identically(self, dataset, tmp_path):
        data, _ = dataset
        pipeline = GeometricOutlierPipeline(
            IsolationForest(n_estimators=25, random_state=0), n_basis=10
        ).fit(data)
        reference = pipeline.score_samples(data)
        save_pipeline(pipeline, tmp_path / "model")
        self._downgrade_to_v1(tmp_path / "model")
        restored = load_pipeline(tmp_path / "model")
        np.testing.assert_array_equal(restored.score_samples(data), reference)


class TestServiceChunkDedup:
    """The service's chunked route shares the executor's chunk path."""

    def test_score_stream_counts_traffic(self, dataset):
        from repro.serving import ScoringService

        data, _ = dataset
        pipeline = GeometricOutlierPipeline(
            IsolationForest(n_estimators=25, random_state=0), n_basis=10
        ).fit(data)
        service = ScoringService()
        service.register("m", pipeline)
        chunks = list(service.score_stream("m", data, chunk_size=7))
        np.testing.assert_array_equal(
            np.concatenate(chunks), pipeline.score_samples(data)
        )
        assert service.served_curves == data.n_samples
        assert service.served_requests == len(chunks)


class TestExperimentSpecEntries:
    def test_method_specs_match_method_objects(self, dataset):
        from repro.evaluation.experiment import run_contamination_experiment

        data, labels = dataset
        kwargs = dict(
            contamination_levels=(0.1,),
            n_repetitions=2,
            random_state=11,
        )
        by_spec = run_contamination_experiment(
            data, labels,
            [MethodSpec("funta"), MethodSpec("iforest", {"n_basis": 8, "n_estimators": 10})],
            **kwargs,
        )
        by_object = run_contamination_experiment(
            data, labels,
            [FuntaMethod(), MappedDetectorMethod("iforest", n_basis=8, n_estimators=10)],
            **kwargs,
        )
        assert by_spec.to_text() == by_object.to_text()

    def test_label_strings_accepted(self, dataset):
        from repro.evaluation.experiment import run_contamination_experiment

        data, labels = dataset
        table = run_contamination_experiment(
            data, labels, ["FUNTA"],
            contamination_levels=(0.1,), n_repetitions=1, random_state=5,
        )
        assert "FUNTA" in table.to_text()


class TestPlanValidateCli:
    def test_validates_spec_files_and_manifests(self, dataset, tmp_path, capsys):
        from repro.cli import main
        from repro.plan import dump_spec

        data, _ = dataset
        spec_path = dump_spec(PIPELINE_SPEC, tmp_path / "pipeline.json")
        stream_path = dump_spec(StreamSpec(window=16, min_reference=4),
                                tmp_path / "stream.json")
        pipeline = GeometricOutlierPipeline(
            IsolationForest(n_estimators=10, random_state=0), n_basis=8
        ).fit(data)
        model_dir = tmp_path / "model"
        save_pipeline(pipeline, model_dir)
        rc = main(["plan", "validate", str(spec_path), str(stream_path),
                   str(model_dir), str(model_dir / MANIFEST_NAME)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "plan validate" in out
        assert out.count(" ok") >= 4

    def test_unbuildable_spec_exits_nonzero(self, tmp_path, capsys):
        """The spec builds its pipeline on parsing, so value errors the
        signature check cannot see (nu outside (0, 1]) fail the gate."""
        from repro.cli import main

        spec_path = tmp_path / "bad_nu.json"
        spec_path.write_text(json.dumps({
            "spec": "pipeline", "detector": {"name": "ocsvm", "params": {"nu": 1.5}},
        }), encoding="utf-8")
        assert main(["plan", "validate", str(spec_path)]) == 2
        assert "nu" in capsys.readouterr().err

    def test_invalid_baseline_param_exits_nonzero(self, tmp_path, capsys):
        from repro.cli import main

        bad = tmp_path / "funta_trim.json"
        bad.write_text(json.dumps({"spec": "method", "kind": "funta",
                                   "params": {"trim": 0.7}}),
                       encoding="utf-8")
        assert main(["plan", "validate", str(bad)]) == 2
        assert "trim" in capsys.readouterr().err

    def test_invalid_spec_exits_nonzero(self, tmp_path, capsys):
        from repro.cli import main

        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"spec": "pipeline",
                                   "detector": {"name": "lstm"}}),
                       encoding="utf-8")
        assert main(["plan", "validate", str(bad)]) == 2
        assert "unknown detector" in capsys.readouterr().err

    def test_missing_file_exits_nonzero(self, tmp_path, capsys):
        from repro.cli import main

        assert main(["plan", "validate", str(tmp_path / "nope.json")]) == 2
        assert "error:" in capsys.readouterr().err
