"""Unit tests for the declarative spec layer (`repro.plan.specs`)."""

import ast
import json
from pathlib import Path

import numpy as np
import pytest

from repro.data.synthetic import make_drifting_stream
from repro.detectors import DETECTOR_REGISTRY
from repro.exceptions import ConfigurationError, ValidationError
from repro.geometry.mappings import MAPPING_REGISTRY
from repro.plan import (
    DEFAULT_METHOD_SPECS,
    DetectorSpec,
    MappingSpec,
    MethodSpec,
    PipelineSpec,
    SmootherSpec,
    StreamSpec,
    WorkloadSpec,
    compile_plan,
    dump_spec,
    load_spec,
    pipeline_to_spec,
    spec_from_dict,
    spec_from_json,
    spec_hash,
    spec_to_json,
)
from repro.streaming import STREAM_KINDS

PERFBENCH_STREAM = Path(__file__).resolve().parent.parent / "perfbench" / "stream.py"


def _perfbench_stream_spec() -> dict:
    """The ``SPEC`` literal of the benchmark's ``stream`` workload, read
    without importing the benchmark (its import pins the BLAS threads)."""
    for node in ast.parse(PERFBENCH_STREAM.read_text()).body:
        if isinstance(node, ast.Assign) and [
            target.id for target in node.targets if isinstance(target, ast.Name)
        ] == ["SPEC"]:
            return ast.literal_eval(node.value)
    raise AssertionError(f"no SPEC literal in {PERFBENCH_STREAM}")


class TestJsonRoundTrips:
    @pytest.mark.parametrize("spec", [
        PipelineSpec(),
        PipelineSpec(
            detector=DetectorSpec("ocsvm", {"nu": 0.2, "gamma": 0.05}),
            mapping=MappingSpec("SpeedMapping"),
            smoother=SmootherSpec(n_basis=(8, 12), smoothing=1e-3, spline_order=5),
            eval_points=50,
        ),
        PipelineSpec(mapping=MappingSpec(
            "CompositeMapping",
            mappings=(MappingSpec("CurvatureMapping"), MappingSpec("SpeedMapping")),
        )),
        MethodSpec("funta", {"trim": 0.1}),
        MethodSpec("ocsvm", {"gamma": 0.05, "tune": False}),
        StreamSpec(kind="dirout", policy="reservoir", window=64,
                   params={"n_directions": 50}),
        WorkloadSpec(mode="microbatch", n_jobs=2, chunk_size=64),
    ])
    def test_spec_json_identity(self, spec):
        assert spec_from_json(spec_to_json(spec)) == spec

    def test_load_dump_file_round_trip(self, tmp_path):
        spec = PipelineSpec(detector=DetectorSpec("knn", {"n_neighbors": 3}))
        path = dump_spec(spec, tmp_path / "spec.json")
        assert load_spec(path) == spec

    def test_n_basis_list_normalizes_to_tuple(self):
        spec = SmootherSpec(n_basis=[8, 12, 16])
        assert spec.n_basis == (8, 12, 16)
        assert SmootherSpec.from_dict(spec.to_dict()) == spec

    def test_default_method_specs_round_trip(self):
        for spec in DEFAULT_METHOD_SPECS:
            assert spec_from_json(spec_to_json(spec)) == spec


EXAMPLE_SPECS = Path(__file__).resolve().parent.parent / "examples" / "specs"
IFOREST_V2 = Path(__file__).resolve().parent / "data" / "iforest_v2"


class TestPinnedHashes:
    """The serving tier routes deployed pipelines by ``spec_hash``: the
    canonical documents and digests of every committed spec are pinned
    literally, so no refactor of the spec layer can move a route."""

    STREAM_DOC = {
        "alpha": 0.01, "contamination": 0.05, "drift_baseline": 128, "drift_recent": 64,
        "kind": "funta", "min_reference": 16, "on_drift": None, "policy": "sliding",
        "seed": 7, "shards": 1, "spec": "stream", "threshold_mode": "window",
        "update_policy": "all", "window": 128,
    }

    EXAMPLES = {
        "method_funta.json": (
            "60119509d87ff70e870b4c9af9081ee4955eaf00a9efcba3035854a09b87122b",
            {"kind": "funta", "params": {"trim": 0.1}, "spec": "method"}),
        "pipeline_iforest.json": (
            "45e6ac93a6393e334a897b46a4078e26cfd6f4dbe6958e4bcf300502b69ce544",
            {"detector": {"name": "iforest",
                          "params": {"n_estimators": 200, "random_state": 0}},
             "eval_points": None, "mapping": {"type": "CurvatureMapping"},
             "smoother": {"n_basis": None, "penalty_order": 2, "smoothing": 0.0001,
                          "spline_order": 4},
             "spec": "pipeline"}),
        "pipeline_ocsvm_composite.json": (
            "c4607a5fc9db85b925bdb575f3f90ffda8d562aa5f40ed6746478635d82bad49",
            {"detector": {"name": "ocsvm",
                          "params": {"gamma": 0.05, "kernel": "rbf", "nu": 0.1}},
             "eval_points": None,
             "mapping": {"mappings": [{"type": "CurvatureMapping"}, {"type": "SpeedMapping"}],
                         "type": "CompositeMapping"},
             "smoother": {"n_basis": [8, 12, 16, 20], "penalty_order": 2,
                          "smoothing": 0.0001, "spline_order": 4},
             "spec": "pipeline"}),
        "stream_funta_sliding.json": (
            "9302b290b348342a7765a74113c29813a61503d2f25665a7b4b1da3a76fe97d7",
            STREAM_DOC),
        "workload_serving.json": (
            "bc1eb0ce8a33d52069db0c410081d4e37f0488c45a9cdde200706d7c6de9908f",
            {"chunk_size": 256, "mode": "microbatch", "n_jobs": 1, "spec": "workload"}),
    }

    @pytest.mark.parametrize("name", sorted(EXAMPLES))
    def test_example_specs(self, name):
        digest, doc = self.EXAMPLES[name]
        spec = load_spec(EXAMPLE_SPECS / name)
        assert spec.to_dict() == doc
        assert spec_hash(spec) == digest

    def test_every_example_is_pinned(self):
        assert set(self.EXAMPLES) == {p.name for p in EXAMPLE_SPECS.glob("*.json")}

    @pytest.mark.parametrize("shards, digest", [
        (1, "9302b290b348342a7765a74113c29813a61503d2f25665a7b4b1da3a76fe97d7"),
        (2, "ecae7580c38e70fcbebb7cdeaf459c7ab90e3b76240c7b8caffdf61548046b55"),
    ])
    def test_benchmark_stream_spec(self, shards, digest):
        # The document exactly as the benchmark's stream workload parses it.
        spec = spec_from_dict(
            {**_perfbench_stream_spec(), "shards": shards, "shard_backend": "thread"}
        )
        assert spec.to_dict() == {**self.STREAM_DOC, "shards": shards}
        assert spec_hash(spec) == digest

    def test_committed_v2_manifest_spec(self):
        from repro.serving.persist import read_spec

        spec = read_spec(IFOREST_V2)
        assert spec.to_dict() == {
            "detector": {"name": "iforest", "params": {
                "contamination": None, "max_samples": 256, "n_estimators": 25,
                "random_state": 0}},
            "eval_points": None,
            "mapping": {"params": {"regularization": 0.1}, "type": "CurvatureMapping"},
            "smoother": {"n_basis": 12, "penalty_order": 2, "smoothing": 0.0001,
                         "spline_order": 4},
            "spec": "pipeline",
        }
        assert spec_hash(spec) == (
            "c400eec9aab0cab4694478b3efe5b50446d96528afdde9e28d647a377fc3ccb9"
        )

    def test_default_method_specs(self):
        assert [spec_hash(spec) for spec in DEFAULT_METHOD_SPECS] == [
            "1605e4881d31966fa7c00fe43e5fc8a72a0fc523680eaa6371faec11a4037d89",
            "dfb0a41cb8e3604fcdf3f4e3b55f7361b754afb10d0ee83a9e704f49fa42c883",
            "1f093bd57589f488b0bdd99082f9dfa4f86e8e427b18a6b50bf55cac24f07a79",
            "e8b434b8d269d41b536a59b6ce96d61bf87ed0eacc04a436736a2d3d3ec3f180",
        ]


class TestAliases:
    @pytest.mark.parametrize("label, kind", [
        ("Dir.out", "dirout"), ("FUNTA", "funta"), ("iFor(Curvmap)", "iforest"),
        ("OCSVM(Curvmap)", "ocsvm"), ("ifor", "iforest"), ("dirout", "dirout"),
    ])
    def test_method_labels_canonicalize(self, label, kind):
        assert MethodSpec(label).kind == kind

    def test_detector_class_name_canonicalizes(self):
        assert DetectorSpec("IsolationForest").name == "iforest"

    @pytest.mark.parametrize("alias, cls_name", [
        ("curvature", "CurvatureMapping"), ("speed", "SpeedMapping"),
        ("composite", "CompositeMapping"), ("NormMapping", "NormMapping"),
    ])
    def test_mapping_aliases(self, alias, cls_name):
        if cls_name == "CompositeMapping":
            spec = MappingSpec(alias, mappings=(MappingSpec(), MappingSpec("speed")))
        else:
            spec = MappingSpec(alias)
        assert spec.type == cls_name


class TestValidationErrors:
    def test_unknown_detector_lists_registry(self):
        with pytest.raises(ConfigurationError, match="known:") as err:
            DetectorSpec("lstm")
        for name in DETECTOR_REGISTRY:
            assert name in str(err.value)

    def test_unknown_detector_param_lists_valid_keys(self):
        with pytest.raises(ConfigurationError, match="n_estimators"):
            DetectorSpec("iforest", {"n_estimatorz": 5})

    def test_unknown_mapping_type_lists_registry(self):
        with pytest.raises(ConfigurationError) as err:
            MappingSpec("wavelet")
        for name in MAPPING_REGISTRY:
            assert name in str(err.value)

    def test_unknown_mapping_param(self):
        with pytest.raises(ConfigurationError, match="regularization"):
            MappingSpec("curvature", {"regularisation": 0.0})

    def test_composite_requires_submappings(self):
        with pytest.raises(ConfigurationError, match="mappings"):
            MappingSpec("CompositeMapping")

    def test_composite_does_not_nest(self):
        inner = MappingSpec("CompositeMapping", mappings=(MappingSpec(),))
        with pytest.raises(ConfigurationError, match="nest"):
            MappingSpec("CompositeMapping", mappings=(inner,))

    def test_unknown_method_kind(self):
        with pytest.raises(ConfigurationError, match="known kinds"):
            MethodSpec("LSTM")

    @pytest.mark.parametrize(
        "kind, params, valid_key",
        [
            ("funta", {"trims": 0.1}, "trim"),
            ("funta", {"naive": True}, "trim"),
            ("Dir.out", {"naive": True}, "n_directions"),
        ],
        ids=["funta-typo", "funta-naive", "dirout-naive"],
    )
    def test_unknown_method_param_lists_valid_keys(self, kind, params, valid_key):
        with pytest.raises(ConfigurationError) as err:
            MethodSpec(kind, params)
        assert valid_key in str(err.value)
        assert "valid:" in str(err.value)

    def test_method_param_keys_include_detector_keys(self):
        # iforest method kwargs merge the wrapper's and the detector's.
        spec = MethodSpec("iforest", {"n_estimators": 50, "standardize": False})
        assert spec.params["n_estimators"] == 50

    def test_iforest_method_seed_is_not_a_param(self):
        # The method seeds each split's forest itself; a detector seed
        # would collide with it at the first prepare().
        with pytest.raises(ConfigurationError) as err:
            MethodSpec("iforest", {"random_state": 0})
        assert "random_state" in str(err.value)
        assert "valid:" in str(err.value)
        assert "n_estimators" in str(err.value)

    def test_stream_pipeline_kind_rejected_with_hint(self):
        # The hint is the list of stream kinds, which has no "pipeline".
        with pytest.raises(ConfigurationError) as err:
            StreamSpec(kind="pipeline")
        assert f"kind must be one of {STREAM_KINDS}" in str(err.value)

    def test_stream_unknown_option(self):
        with pytest.raises(ConfigurationError, match="trim"):
            StreamSpec(kind="funta", params={"trin": 0.1})

    @pytest.mark.parametrize("kind, params, match", [
        ("funta", {"trim": 0.7}, "trim"),
        ("funta", {"trim": -1.0}, "trim"),
        ("dirout", {"n_directions": 0}, "n_directions"),
        ("halfspace", {"n_directions": 0}, "n_directions"),
    ])
    def test_stream_option_values_rejected_at_build(self, kind, params, match):
        # The spec builds its detector on construction, so the
        # detector's own option check rejects the document there.
        with pytest.raises(ConfigurationError, match=match):
            spec_from_dict({"spec": "stream", "kind": kind, "params": params})

    def test_stream_legacy_incremental_key(self):
        doc = {"spec": "stream", "kind": "funta", "window": 64}
        spec = spec_from_dict({**doc, "incremental": True})
        assert spec == StreamSpec(kind="funta", window=64)
        assert "incremental" not in spec.to_dict()
        with pytest.raises(ConfigurationError, match="one scoring rule"):
            spec_from_dict({**doc, "incremental": False})

    def test_stream_legacy_block_bytes_key(self):
        """The benchmark's stream document still carries the removed
        kernel budget as null: it loads, and scores like the document
        without its legacy keys."""
        doc = _perfbench_stream_spec()
        assert doc["block_bytes"] is None
        spec = StreamSpec.from_dict(doc)
        bare = {k: v for k, v in doc.items() if k not in ("block_bytes", "incremental")}
        assert spec == StreamSpec.from_dict(bare)
        assert "block_bytes" not in spec.to_dict()

        chunks = [c for c, _ in make_drifting_stream(
            n_chunks=3, chunk_size=16, n_points=24, random_state=5
        )]
        results = []
        for source in (doc, bare):
            detector = compile_plan(StreamSpec.from_dict(source)).build()
            detector.prime(chunks[0])
            results.append([detector.process(chunk) for chunk in chunks[1:]])
        for legacy, plain in zip(*results):
            assert np.array_equal(legacy.scores, plain.scores)
            assert np.array_equal(legacy.flags, plain.flags)
            assert legacy.threshold == plain.threshold

        with pytest.raises(ConfigurationError, match="block_bytes was removed"):
            StreamSpec.from_dict({**doc, "block_bytes": 4096})

    def test_stream_min_reference_bounded_by_window(self):
        with pytest.raises(ConfigurationError, match="min_reference"):
            StreamSpec(window=8, min_reference=9)

    def test_n_basis_below_spline_order_rejected(self):
        with pytest.raises(ConfigurationError, match="spline_order"):
            PipelineSpec(smoother=SmootherSpec(n_basis=3))
        with pytest.raises(ConfigurationError, match="spline_order"):
            PipelineSpec(smoother=SmootherSpec(n_basis=[8, 3], spline_order=4))

    def test_spline_order_must_support_mapping_derivatives(self):
        # Curvature consumes two derivatives: a quadratic spline cannot.
        with pytest.raises(ConfigurationError, match="spline_order >= 3"):
            PipelineSpec(smoother=SmootherSpec(spline_order=2))
        # The composite takes the max over its members (torsion needs 3).
        with pytest.raises(ConfigurationError, match="spline_order >= 4"):
            PipelineSpec(
                mapping=MappingSpec("CompositeMapping", mappings=(
                    MappingSpec("speed"), MappingSpec("TorsionMapping"),
                )),
                smoother=SmootherSpec(n_basis=8, spline_order=3),
            )
        # GeneralizedCurvatureMapping's need depends on its order param.
        with pytest.raises(ConfigurationError, match="spline_order >= 4"):
            PipelineSpec(
                mapping=MappingSpec("GeneralizedCurvatureMapping", {"order": 2}),
                smoother=SmootherSpec(n_basis=8, spline_order=3),
            )

    def test_stream_min_reference_floor(self):
        with pytest.raises(ConfigurationError, match="min_reference"):
            StreamSpec(min_reference=1)

    def test_stream_drift_window_floors(self):
        with pytest.raises(ConfigurationError, match="recent_size"):
            StreamSpec(drift_recent=4)
        with pytest.raises(ConfigurationError, match="baseline_size"):
            StreamSpec(drift_baseline=4)

    @pytest.mark.parametrize("doc, match", [
        ({"spec": "pipeline", "smoother": {"smoothing": float("nan")}}, "smoothing"),
        ({"spec": "stream", "kind": "funta", "params": {"trim": 0.7}}, "trim"),
        ({"spec": "pipeline", "detector": {"name": "iforest", "params": {"n_estimators": 0}}},
         "n_estimators"),
        ({"spec": "pipeline", "mapping": {"type": "curvature",
                                          "params": {"regularization": -1}}},
         "regularization"),
        ({"spec": "method", "kind": "dirout", "params": {"n_directions": 0}}, "n_directions"),
        ({"spec": "method", "kind": "iforest", "params": {"n_estimators": 0}}, "n_estimators"),
        ({"spec": "stream", "contamination": 0.7}, "contamination"),
        ({"spec": "workload", "n_jobs": 0}, "n_jobs"),
        ({"spec": "method", "kind": "funta", "params": {"dtype": "int8"}}, "dtype"),
        ({"spec": "method", "kind": "dirout", "params": {"dtype": "no-such-type"}}, "dtype"),
    ], ids=["nan-smoothing", "stream-trim", "iforest-estimators", "negative-regularization",
            "dirout-directions", "method-estimators", "stream-contamination", "workload-jobs",
            "funta-dtype", "dirout-dtype"])
    def test_constructor_bounds_reject_at_spec_construction(self, doc, match):
        """Each value is checked once, by the constructor that owns it; the
        spec builds that constructor, so the document fails on parsing,
        before it can be hashed, persisted or routed."""
        with pytest.raises(ConfigurationError, match=match) as err:
            spec_from_dict(doc)
        # Prefixed with the spec that built (a component fails first).
        assert str(err.value).split(":")[0].split()[1] == "spec"
        assert isinstance(err.value.__cause__, ValidationError)

    def test_standalone_component_specs_build(self):
        with pytest.raises(ConfigurationError, match="detector spec 'iforest'"):
            DetectorSpec("iforest", {"n_estimators": 0})
        with pytest.raises(ConfigurationError, match="mapping spec 'CurvatureMapping'"):
            MappingSpec("curvature", {"regularization": -1})
        with pytest.raises(ConfigurationError, match="order"):
            MappingSpec("GeneralizedCurvatureMapping", {"order": 0})

    @pytest.mark.parametrize("doc, match", [
        ({"spec": "pipeline", "smoother": {"smoothing": True}}, "smoother smoothing"),
        ({"spec": "pipeline", "detector": {"name": "ocsvm", "params": {"nu": True}}}, "nu"),
        ({"spec": "stream", "seed": True}, "stream seed"),
        ({"spec": "workload", "chunk_size": True}, "chunk_size"),
    ], ids=["smoothing", "detector-nu", "stream-seed", "workload-chunk"])
    def test_json_booleans_are_not_numbers(self, doc, match):
        with pytest.raises(ConfigurationError, match=match):
            spec_from_dict(doc)

    def test_validation_starts_no_thread_and_emits_nothing(self):
        import threading

        from repro.telemetry import Telemetry

        doc = {"spec": "stream", "kind": "funta", "window": 64, "shards": 2,
               "drift_baseline": 64, "drift_recent": 64}
        telemetry = Telemetry()
        with compile_plan(spec_from_dict(doc), telemetry=telemetry).build():
            pass
        threads, series = threading.active_count(), telemetry.snapshot()
        spec_from_dict(doc)
        StreamSpec(kind="funta", window=64, shards=2, policy="reservoir")
        assert threading.active_count() == threads
        assert telemetry.snapshot() == series

    def test_workload_rejects_unknown_mode(self):
        with pytest.raises(ConfigurationError, match="mode"):
            WorkloadSpec(mode="warp")

    def test_pipeline_doc_unknown_key(self):
        with pytest.raises(ConfigurationError, match="valid:"):
            PipelineSpec.from_dict({"spec": "pipeline", "detektor": {}})

    def test_untagged_document_rejected(self):
        with pytest.raises(ConfigurationError, match="'spec' tag"):
            spec_from_dict({"detector": {"name": "iforest"}})

    def test_unknown_tag_rejected(self):
        with pytest.raises(ConfigurationError, match="known tags"):
            spec_from_dict({"spec": "warp-drive"})

    def test_invalid_json_text(self):
        with pytest.raises(ConfigurationError, match="not valid JSON"):
            spec_from_json("{broken")

    def test_configuration_error_is_validation_error(self):
        # Callers catching the broad validation family keep working.
        assert issubclass(ConfigurationError, ValidationError)


class TestMakeMethodRegression:
    """The historical string path must keep working — and fail loudly."""

    def test_string_path_still_constructs(self):
        from repro.core.methods import (
            DirOutMethod,
            FuntaMethod,
            MappedDetectorMethod,
            make_method,
        )

        assert isinstance(make_method("Dir.out"), DirOutMethod)
        assert isinstance(make_method("FUNTA"), FuntaMethod)
        method = make_method("iFor(Curvmap)", n_estimators=50)
        assert isinstance(method, MappedDetectorMethod)
        assert method.detector_kwargs["n_estimators"] == 50
        assert method.name == "iFor(Curvmap)"

    def test_unknown_spec_still_raises_validation_error(self):
        from repro.core.methods import make_method

        with pytest.raises(ValidationError):
            make_method("LSTM")

    def test_unknown_kwarg_no_longer_silent(self):
        """Regression: unrecognized kwargs used to flow silently into
        detector_kwargs and explode (or worse, be ignored) much later;
        the spec validator now rejects them at the call site with the
        valid-key list."""
        from repro.core.methods import make_method

        with pytest.raises(ConfigurationError) as err:
            make_method("iforest", n_estimatorz=50)
        message = str(err.value)
        assert "n_estimatorz" in message
        assert "n_estimators" in message  # the valid-key list names the fix

    def test_unknown_kwarg_funta(self):
        from repro.core.methods import make_method

        with pytest.raises(ConfigurationError, match="valid:"):
            make_method("funta", window=3)


class TestManifestSpecSection:
    def test_saved_manifest_carries_validated_spec(self, tmp_path):
        from repro.core.pipeline import GeometricOutlierPipeline
        from repro.data.synthetic import make_taxonomy_dataset
        from repro.detectors import IsolationForest
        from repro.serving import MANIFEST_NAME, read_spec, save_pipeline

        data, _ = make_taxonomy_dataset(
            "correlation", n_inliers=20, n_outliers=3, random_state=0
        )
        pipeline = GeometricOutlierPipeline(
            IsolationForest(n_estimators=10, random_state=0), n_basis=8
        ).fit(data)
        save_pipeline(pipeline, tmp_path / "model")
        manifest = json.loads(
            (tmp_path / "model" / MANIFEST_NAME).read_text(encoding="utf-8")
        )
        assert manifest["format_version"] == 2
        assert manifest["spec"]["spec"] == "pipeline"
        # The declarative parts moved out of the fitted state entirely.
        assert "config" not in manifest["state"]
        assert "mapping" not in manifest["state"]
        spec = read_spec(tmp_path / "model")
        assert spec == PipelineSpec.from_dict(manifest["spec"])
        assert spec == pipeline_to_spec(pipeline)
        # The detector's constructor config lives in the spec only.
        assert "config" not in manifest["state"]["detector"]

    def test_edited_spec_section_governs_restored_detector(self, tmp_path):
        """The spec section is authoritative: editing a hyperparameter in
        the manifest changes the restored detector (no silently ignored
        duplicate inside the fitted state)."""
        from repro.core.pipeline import GeometricOutlierPipeline
        from repro.data.synthetic import make_taxonomy_dataset
        from repro.detectors import IsolationForest
        from repro.serving import MANIFEST_NAME, load_pipeline, save_pipeline

        data, _ = make_taxonomy_dataset(
            "correlation", n_inliers=20, n_outliers=3, random_state=0
        )
        pipeline = GeometricOutlierPipeline(
            IsolationForest(n_estimators=10, random_state=0), n_basis=8
        ).fit(data)
        save_pipeline(pipeline, tmp_path / "model")
        manifest_path = tmp_path / "model" / MANIFEST_NAME
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
        manifest["spec"]["detector"]["params"]["contamination"] = 0.25
        manifest_path.write_text(json.dumps(manifest), encoding="utf-8")
        restored = load_pipeline(tmp_path / "model")
        assert restored.detector.contamination == 0.25
