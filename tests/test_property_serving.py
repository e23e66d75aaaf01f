"""Property-based round-trip tests for pipeline persistence.

Mirrors the existing ``test_property_*`` style: hypothesis draws the
configuration space (basis types, mapping configs, every detector in
the registry) and the invariant is exact save→load→score equality.
"""

import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.pipeline import GeometricOutlierPipeline
from repro.data.synthetic import make_taxonomy_dataset
from repro.detectors import DETECTOR_REGISTRY, make_detector
from repro.fda.basis import BSplineBasis, basis_from_config
from repro.fda.fdata import FDataGrid
from repro.fda.smoothing import BasisSmoother
from repro.geometry.mappings import (
    ArcLengthMapping,
    ComponentMapping,
    CompositeMapping,
    CurvatureMapping,
    NormMapping,
    SpeedMapping,
    mapping_from_config,
)
from repro.serving import load_pipeline, save_pipeline

COMMON = settings(max_examples=10, deadline=None)

#: Constructor kwargs keeping every registered detector happy on tiny data.
DETECTOR_KWARGS = {
    "iforest": {"random_state": 0, "n_estimators": 20},
    "ocsvm": {},
    "knn": {"n_neighbors": 3},
    "lof": {"n_neighbors": 5},
    "mahalanobis": {},
}

MAPPING_FACTORIES = [
    lambda: CurvatureMapping(),
    lambda: CurvatureMapping(regularization=0.0),
    lambda: SpeedMapping(),
    lambda: ArcLengthMapping(),
    lambda: NormMapping(),
    lambda: ComponentMapping(0),
    lambda: CompositeMapping([CurvatureMapping(), SpeedMapping()]),
]


@pytest.fixture(scope="module")
def mfd_dataset():
    data, _ = make_taxonomy_dataset(
        "correlation", n_inliers=30, n_outliers=4, random_state=5
    )
    return data


class TestBasisConfigRoundTrip:
    @COMMON
    @given(
        st.integers(min_value=5, max_value=20),
        st.integers(min_value=0, max_value=10_000),
    )
    def test_design_matrices_bit_identical(self, n_basis, seed):
        rng = np.random.default_rng(seed)
        low = float(rng.uniform(-2.0, 0.0))
        high = low + float(rng.uniform(0.5, 3.0))
        basis = BSplineBasis((low, high), n_basis)
        restored = basis_from_config(basis.to_config())
        assert restored.cache_key == basis.cache_key
        points = np.linspace(low, high, 40)
        assert np.array_equal(restored.evaluate(points), basis.evaluate(points))

    @COMMON
    @given(
        st.integers(min_value=4, max_value=20),
        st.integers(min_value=2, max_value=4),
    )
    def test_bspline_order_and_knots_survive(self, n_basis, order):
        n_basis = max(n_basis, order)
        basis = BSplineBasis((0.0, 1.0), n_basis, order=order)
        restored = basis_from_config(basis.to_config())
        assert restored.cache_key == basis.cache_key


class TestSmootherConfigRoundTrip:
    @COMMON
    @given(
        st.integers(min_value=5, max_value=15),
        st.sampled_from([0.0, 1e-6, 1e-4, 1e-2]),
        st.integers(min_value=0, max_value=2),
        st.integers(min_value=0, max_value=10_000),
    )
    def test_coefficients_bit_identical(self, n_basis, lam, order, seed):
        rng = np.random.default_rng(seed)
        grid = np.linspace(0.0, 1.0, 40)
        data = FDataGrid(rng.standard_normal((6, 40)), grid)
        smoother = BasisSmoother(
            BSplineBasis((0.0, 1.0), n_basis),
            smoothing=lam,
            penalty_order=order,
        )
        restored = BasisSmoother.from_config(smoother.to_config())
        assert np.array_equal(
            restored.fit_grid(data).coefficients,
            smoother.fit_grid(data).coefficients,
        )


class TestMappingConfigRoundTrip:
    @COMMON
    @given(
        st.integers(min_value=0, max_value=len(MAPPING_FACTORIES) - 1),
        st.integers(min_value=0, max_value=10_000),
    )
    def test_mapped_curves_bit_identical(self, mapping_index, seed):
        rng = np.random.default_rng(seed)
        grid = np.linspace(0.0, 1.0, 30)
        from repro.fda.fdata import BasisFData, MultivariateBasisFData

        basis = BSplineBasis((0.0, 1.0), 8)
        fdata = MultivariateBasisFData(
            [BasisFData(basis, rng.standard_normal((5, 8))) for _ in range(2)]
        )
        mapping = MAPPING_FACTORIES[mapping_index]()
        restored = mapping_from_config(mapping.to_config())
        assert np.array_equal(
            restored.transform(fdata, grid).values,
            mapping.transform(fdata, grid).values,
        )


class TestPipelineSaveLoadScore:
    @COMMON
    @given(
        st.sampled_from(sorted(DETECTOR_REGISTRY)),
        st.integers(min_value=0, max_value=len(MAPPING_FACTORIES) - 1),
        st.sampled_from([8, 12, (8, 12, 16)]),
    )
    def test_round_trip_scores_identical(
        self, mfd_dataset, detector_name, mapping_index, n_basis
    ):
        pipeline = GeometricOutlierPipeline(
            make_detector(detector_name, **DETECTOR_KWARGS[detector_name]),
            mapping=MAPPING_FACTORIES[mapping_index](),
            n_basis=n_basis,
        ).fit(mfd_dataset)
        reference = pipeline.score_samples(mfd_dataset)
        with tempfile.TemporaryDirectory() as tmp:
            save_pipeline(pipeline, tmp)
            loaded = load_pipeline(tmp)
        np.testing.assert_allclose(
            loaded.score_samples(mfd_dataset), reference, atol=1e-12
        )
        assert loaded.selected_n_basis_ == pipeline.selected_n_basis_
