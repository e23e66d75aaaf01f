"""Unit tests for the GeometricOutlierPipeline (the paper's method)."""

import numpy as np
import pytest

from repro.core.pipeline import GeometricOutlierPipeline
from repro.detectors import IsolationForest, KNNDetector, OneClassSVM
from repro.evaluation.metrics import roc_auc
from repro.exceptions import NotFittedError, ValidationError
from repro.fda.fdata import MFDataGrid
from repro.geometry.mappings import CompositeMapping, CurvatureMapping, SpeedMapping


@pytest.fixture
def pipeline():
    return GeometricOutlierPipeline(IsolationForest(random_state=0), n_basis=15)


class TestConstruction:
    def test_default_mapping_is_curvature(self, pipeline):
        assert isinstance(pipeline.mapping, CurvatureMapping)

    def test_rejects_non_detector(self):
        with pytest.raises(ValidationError):
            GeometricOutlierPipeline(detector="iforest")

    def test_rejects_non_mapping(self):
        with pytest.raises(ValidationError):
            GeometricOutlierPipeline(IsolationForest(), mapping="curvature")

    def test_spline_order_must_support_mapping(self):
        # Curvature needs 2 derivatives; order-2 splines only provide 1.
        with pytest.raises(ValidationError, match="spline_order"):
            GeometricOutlierPipeline(IsolationForest(), spline_order=2)

    def test_empty_candidates_rejected(self):
        with pytest.raises(ValidationError):
            GeometricOutlierPipeline(IsolationForest(), n_basis=[])

    def test_candidate_below_order_rejected(self):
        with pytest.raises(ValidationError):
            GeometricOutlierPipeline(IsolationForest(), n_basis=[3])


class TestFit:
    def test_fixed_basis_size(self, correlation_mfd):
        data, _ = correlation_mfd
        pipe = GeometricOutlierPipeline(IsolationForest(random_state=0), n_basis=12)
        pipe.fit(data)
        assert pipe.selected_n_basis_ == [12, 12]

    def test_loocv_selection_runs(self, correlation_mfd):
        data, _ = correlation_mfd
        pipe = GeometricOutlierPipeline(
            IsolationForest(random_state=0), n_basis=[8, 16, 24]
        )
        pipe.fit(data)
        assert all(size in (8, 16, 24) for size in pipe.selected_n_basis_)

    def test_eval_grid_defaults_to_data_grid(self, correlation_mfd, pipeline):
        data, _ = correlation_mfd
        pipeline.fit(data)
        np.testing.assert_array_equal(pipeline.eval_grid_, data.grid)

    def test_custom_eval_points(self, correlation_mfd):
        data, _ = correlation_mfd
        pipe = GeometricOutlierPipeline(
            IsolationForest(random_state=0), n_basis=12, eval_points=40
        )
        pipe.fit(data)
        assert pipe.eval_grid_.shape == (40,)

    def test_ufd_input_promoted(self, sine_curves):
        pipe = GeometricOutlierPipeline(
            IsolationForest(random_state=0), mapping=SpeedMapping(), n_basis=10
        )
        pipe.fit(sine_curves)
        assert pipe.selected_n_basis_ == [10]

    def test_rejects_arrays(self, pipeline):
        with pytest.raises(ValidationError):
            pipeline.fit(np.zeros((3, 10, 2)))


class TestScoring:
    def test_detects_correlation_outliers(self, correlation_mfd):
        """The headline property: correlation-breaking outliers invisible
        to marginal analysis are caught by the curvature pipeline."""
        data, labels = correlation_mfd
        pipe = GeometricOutlierPipeline(KNNDetector(5), n_basis=20)
        scores = pipe.fit(data).score_samples(data)
        assert roc_auc(scores, labels) > 0.9

    def test_transform_shape(self, correlation_mfd, pipeline):
        data, _ = correlation_mfd
        pipeline.fit(data)
        features = pipeline.transform(data)
        assert features.shape == (data.n_samples, data.n_points)

    @pytest.mark.parametrize("eval_points", [None, 50])
    @pytest.mark.parametrize(
        "mapping",
        [CurvatureMapping(), CompositeMapping([CurvatureMapping(), SpeedMapping()])],
        ids=["curvature", "composite"],
    )
    def test_transform_reuses_eval_designs(self, correlation_mfd, mapping, eval_points):
        data, _ = correlation_mfd
        pipe = GeometricOutlierPipeline(
            IsolationForest(random_state=0), mapping=mapping, n_basis=12,
            eval_points=eval_points,
        ).fit(data)
        stats = pipe.context.cache.stats
        first = pipe.transform(data)
        builds = stats.design_builds
        second = pipe.transform(data)
        assert stats.design_builds == builds
        uncached = mapping.transform(pipe._smooth(data), pipe.eval_grid_).values
        assert np.array_equal(first, uncached)
        assert np.array_equal(second, uncached)

    @pytest.mark.parametrize("p", [1, 3])
    def test_parameter_count_mismatch_rejected(self, correlation_mfd, pipeline, p):
        data, _ = correlation_mfd
        pipeline.fit(data)
        values = np.repeat(data.values[:, :, :1], p, axis=2)
        with pytest.raises(ValidationError, match=f"fitted on 2 parameters.*with {p}"):
            pipeline.score_samples(MFDataGrid(values, data.grid))

    def test_composite_mapping_widens_features(self, correlation_mfd):
        data, _ = correlation_mfd
        pipe = GeometricOutlierPipeline(
            IsolationForest(random_state=0),
            mapping=CompositeMapping([CurvatureMapping(), SpeedMapping()]),
            n_basis=12,
        )
        pipe.fit(data)
        assert pipe.transform(data).shape[1] == 2 * data.n_points

    def test_score_before_fit(self, correlation_mfd, pipeline):
        data, _ = correlation_mfd
        with pytest.raises(NotFittedError):
            pipeline.score_samples(data)

    def test_out_of_sample_scoring(self, correlation_mfd):
        data, labels = correlation_mfd
        pipe = GeometricOutlierPipeline(KNNDetector(5), n_basis=16)
        pipe.fit(data[:30])
        scores = pipe.score_samples(data[30:])
        assert scores.shape == (data.n_samples - 30,)

    def test_ocsvm_head(self, correlation_mfd):
        data, labels = correlation_mfd
        pipe = GeometricOutlierPipeline(OneClassSVM(nu=0.15), n_basis=16)
        scores = pipe.fit(data).score_samples(data)
        assert roc_auc(scores, labels) > 0.7
