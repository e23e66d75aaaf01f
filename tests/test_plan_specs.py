"""Unit tests for the declarative spec layer (`repro.plan.specs`)."""

import json

import pytest

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
    spec_from_dict,
    spec_from_json,
    spec_to_json,
)


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
        WorkloadSpec(mode="microbatch", n_jobs=2, chunk_size=64, max_pending=16),
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

    def test_stream_pipeline_kind_rejected_with_hint(self):
        with pytest.raises(ConfigurationError, match="fitted pipeline"):
            StreamSpec(kind="pipeline")

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
        # What `repro plan validate` does: compile AND build.
        plan = compile_plan({"spec": "stream", "kind": kind, "params": params})
        with pytest.raises(ValidationError, match=match):
            plan.build()

    def test_stream_legacy_incremental_key(self):
        doc = {"spec": "stream", "kind": "funta", "window": 64}
        spec = spec_from_dict({**doc, "incremental": True})
        assert spec == StreamSpec(kind="funta", window=64)
        assert "incremental" not in spec.to_dict()
        assert compile_plan(spec).build().effective_incremental is True
        with pytest.raises(ConfigurationError, match="one scoring rule"):
            spec_from_dict({**doc, "incremental": False})

    def test_stream_min_reference_bounded_by_window(self):
        with pytest.raises(ConfigurationError, match="min_reference"):
            StreamSpec(window=8, min_reference=9)

    def test_n_basis_below_spline_order_rejected(self):
        with pytest.raises(ConfigurationError, match="spline_order"):
            SmootherSpec(n_basis=3)
        with pytest.raises(ConfigurationError, match="spline_order"):
            SmootherSpec(n_basis=[8, 3], spline_order=4)

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
        with pytest.raises(ConfigurationError, match="drift_recent"):
            StreamSpec(drift_recent=4)
        with pytest.raises(ConfigurationError, match="drift_baseline"):
            StreamSpec(drift_baseline=4)

    def test_workload_accepts_float32_rejects_unknown_dtype(self):
        assert WorkloadSpec(dtype="float32").dtype == "float32"
        with pytest.raises(ConfigurationError, match="dtype"):
            WorkloadSpec(dtype="float16")

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
        assert spec == pipeline.to_spec()
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
