"""Unit tests for the method registry (Figure 3 methods)."""

import numpy as np
import pytest

from repro.core.methods import (
    DirOutMethod,
    FuntaMethod,
    MappedDetectorMethod,
    _robust_standardize,
    default_methods,
    make_method,
    smooth_dataset,
)
from repro.data import square_augment
from repro.evaluation.metrics import roc_auc
from repro.exceptions import ValidationError
from repro.geometry.mappings import SpeedMapping


@pytest.fixture(scope="module")
def ecg_mfd():
    from repro.data import make_ecg_dataset

    data, labels, _ = make_ecg_dataset(n_normal=40, n_abnormal=20, random_state=3)
    return square_augment(data), labels


@pytest.fixture
def split_indices(ecg_mfd):
    _, labels = ecg_mfd
    rng = np.random.default_rng(0)
    train = np.concatenate(
        [
            rng.choice(np.nonzero(labels == 0)[0], 25, replace=False),
            rng.choice(np.nonzero(labels == 1)[0], 4, replace=False),
        ]
    )
    test = np.setdiff1d(np.arange(labels.shape[0]), train)
    return train, test


class TestRobustStandardize:
    def test_clipping(self, rng):
        train = rng.standard_normal((50, 3))
        test = train.copy()
        test[0, 0] = 1e9
        tr, te = _robust_standardize(train, test)
        assert te.max() <= 10.0
        assert tr.max() <= 10.0

    def test_constant_feature_guard(self):
        train = np.ones((10, 2))
        tr, te = _robust_standardize(train, train)
        assert np.isfinite(tr).all()


class TestSmoothDataset:
    def test_reduces_noise(self, ecg_mfd):
        data, _ = ecg_mfd
        smoothed = smooth_dataset(data)
        assert smoothed.values.shape == data.values.shape
        # Smoothing removes high-frequency energy.
        raw_roughness = np.abs(np.diff(data.values, 2, axis=1)).mean()
        smooth_roughness = np.abs(np.diff(smoothed.values, 2, axis=1)).mean()
        assert smooth_roughness < raw_roughness


class TestMappedDetectorMethod:
    def test_name_convention(self):
        assert MappedDetectorMethod("iforest").name == "iFor(Curvmap)"
        assert MappedDetectorMethod("ocsvm").name == "OCSVM(Curvmap)"

    def test_custom_mapping_name(self):
        method = MappedDetectorMethod("iforest", mapping=SpeedMapping())
        assert "Speed" in method.name

    def test_invalid_detector(self):
        with pytest.raises(ValidationError):
            MappedDetectorMethod("svm")

    def test_invalid_transform(self):
        with pytest.raises(ValidationError):
            MappedDetectorMethod("iforest", feature_transform="sqrt")

    def test_detector_seed_rejected_at_construction(self):
        # Each split's forest is seeded from prepare()/fit_score()'s
        # random_state; a second seed used to fail only at prepare().
        with pytest.raises(ValidationError, match="random_state"):
            MappedDetectorMethod("iforest", random_state=0)

    def test_prepare_returns_features(self, ecg_mfd):
        data, _ = ecg_mfd
        state = MappedDetectorMethod("iforest", n_basis=12).prepare(data, random_state=0)
        assert state["features"].shape == (data.n_samples, data.n_points)
        assert state["sizes"] == [12, 12]

    def test_fit_score_detects(self, ecg_mfd, split_indices):
        data, labels = ecg_mfd
        train, test = split_indices
        method = MappedDetectorMethod("iforest", n_basis=20)
        state = method.prepare(data, random_state=0)
        scores = method.fit_score(state, train, test, random_state=1)
        assert roc_auc(scores, labels[test]) > 0.7

    def test_ocsvm_with_tuning(self, ecg_mfd, split_indices):
        data, labels = ecg_mfd
        train, test = split_indices
        method = MappedDetectorMethod(
            "ocsvm", n_basis=16, tune=True, nu_candidates=(0.05, 0.15), gamma=0.05
        )
        state = method.prepare(data, random_state=0)
        scores = method.fit_score(state, train, test, random_state=1)
        assert roc_auc(scores, labels[test]) > 0.7

    def test_score_dataset_one_shot(self, ecg_mfd, split_indices):
        data, labels = ecg_mfd
        train, test = split_indices
        scores = MappedDetectorMethod("iforest", n_basis=12).score_dataset(
            data, train, test, random_state=2
        )
        assert scores.shape == (len(test),)


class TestBaselineMethods:
    def test_funta_reference_scoring(self, ecg_mfd, split_indices):
        data, labels = ecg_mfd
        train, test = split_indices
        method = FuntaMethod()
        state = method.prepare(data)
        scores = method.fit_score(state, train, test)
        assert scores.shape == (len(test),)
        assert ((scores >= 0) & (scores <= 1)).all()

    def test_dirout_detects(self, ecg_mfd, split_indices):
        data, labels = ecg_mfd
        train, test = split_indices
        method = DirOutMethod()
        state = method.prepare(data)
        scores = method.fit_score(state, train, test, random_state=0)
        assert roc_auc(scores, labels[test]) > 0.6

    def test_smoothing_can_be_disabled(self, ecg_mfd):
        data, _ = ecg_mfd
        raw_state = DirOutMethod(smooth=False).prepare(data)
        np.testing.assert_array_equal(raw_state["data"].values, data.values)

    @pytest.mark.parametrize(
        "kind, params",
        [
            ("funta", {"trim": 0.7}),
            ("dirout", {"method": "bogus"}),
            ("dirout", {"n_directions": 0}),
        ],
    )
    def test_invalid_params_fail_at_build(self, kind, params):
        """Bad baseline options fail when the method is built (what
        ``repro plan validate`` runs), not at the first ``fit_score``."""
        from repro.plan import MethodSpec, compile_plan

        cls = FuntaMethod if kind == "funta" else DirOutMethod
        with pytest.raises(ValidationError):
            cls(**params)
        with pytest.raises(ValidationError):
            compile_plan(MethodSpec(kind=kind, params=params)).build()


class TestRegistry:
    def test_default_methods_are_figure3(self):
        names = [m.name for m in default_methods()]
        assert names == ["Dir.out", "FUNTA", "iFor(Curvmap)", "OCSVM(Curvmap)"]

    @pytest.mark.parametrize(
        "spec, expected",
        [
            ("Dir.out", DirOutMethod),
            ("FUNTA", FuntaMethod),
            ("iFor(Curvmap)", MappedDetectorMethod),
            ("ocsvm", MappedDetectorMethod),
        ],
    )
    def test_make_method(self, spec, expected):
        assert isinstance(make_method(spec), expected)

    def test_unknown_spec(self):
        with pytest.raises(ValidationError):
            make_method("LSTM")
