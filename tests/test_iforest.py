"""Unit tests for the from-scratch Isolation Forest."""

import numpy as np
import pytest

from repro.detectors.iforest import IsolationForest, average_path_length
from repro.evaluation.metrics import roc_auc
from repro.exceptions import NotFittedError, ValidationError


class TestAveragePathLength:
    def test_known_values(self):
        assert average_path_length(1) == 0.0
        assert average_path_length(2) == 1.0
        # c(n) = 2 H(n-1) - 2(n-1)/n
        n = 256
        expected = 2 * (np.log(n - 1) + 0.5772156649015329) - 2 * (n - 1) / n
        assert average_path_length(n) == pytest.approx(expected)

    def test_monotone(self):
        values = average_path_length(np.arange(2, 100))
        assert (np.diff(values) > 0).all()

    def test_vectorized(self):
        out = average_path_length(np.array([1, 2, 10]))
        assert out.shape == (3,)


class TestIsolationForest:
    def test_separates_gaussian_outliers(self, gaussian_cloud):
        X, y = gaussian_cloud
        forest = IsolationForest(random_state=0).fit(X)
        assert roc_auc(forest.score_samples(X), y) > 0.95

    def test_scores_in_unit_interval(self, gaussian_cloud):
        X, _ = gaussian_cloud
        scores = IsolationForest(random_state=0).fit(X).score_samples(X)
        assert ((scores > 0) & (scores < 1)).all()

    def test_center_scores_below_half(self, rng):
        X = rng.standard_normal((500, 2))
        forest = IsolationForest(random_state=1).fit(X)
        center_score = forest.score_samples(np.zeros((1, 2)))[0]
        far_score = forest.score_samples(np.array([[8.0, 8.0]]))[0]
        assert center_score < 0.5 < far_score

    def test_reproducible_with_seed(self, gaussian_cloud):
        X, _ = gaussian_cloud
        s1 = IsolationForest(random_state=5).fit(X).score_samples(X)
        s2 = IsolationForest(random_state=5).fit(X).score_samples(X)
        np.testing.assert_array_equal(s1, s2)

    def test_different_seeds_differ(self, gaussian_cloud):
        X, _ = gaussian_cloud
        s1 = IsolationForest(random_state=1).fit(X).score_samples(X)
        s2 = IsolationForest(random_state=2).fit(X).score_samples(X)
        assert not np.array_equal(s1, s2)

    def test_subsample_capped_at_n(self, rng):
        X = rng.standard_normal((20, 2))
        forest = IsolationForest(max_samples=256, random_state=0).fit(X)
        assert forest._psi == 20

    def test_score_before_fit_raises(self):
        with pytest.raises(NotFittedError):
            IsolationForest().score_samples(np.zeros((2, 2)))

    def test_feature_mismatch_after_fit(self, gaussian_cloud):
        X, _ = gaussian_cloud
        forest = IsolationForest(random_state=0).fit(X)
        with pytest.raises(ValidationError):
            forest.score_samples(np.zeros((2, 5)))

    def test_predict_with_contamination(self, gaussian_cloud):
        X, y = gaussian_cloud
        forest = IsolationForest(random_state=0, contamination=0.05).fit(X)
        labels = forest.predict(X)
        assert set(np.unique(labels)) <= {-1, 1}
        # Roughly the contamination fraction flagged on the training set.
        assert np.mean(labels == -1) == pytest.approx(0.05, abs=0.03)

    def test_natural_threshold_half(self, gaussian_cloud):
        X, _ = gaussian_cloud
        forest = IsolationForest(random_state=0).fit(X)
        assert forest.threshold_ == 0.5

    def test_constant_features_handled(self):
        X = np.ones((50, 3))
        forest = IsolationForest(random_state=0).fit(X)
        scores = forest.score_samples(X)
        assert np.isfinite(scores).all()
        # All-identical points cannot be isolated: every score equal.
        assert np.allclose(scores, scores[0])

    def test_single_informative_feature(self, rng):
        """Outliers separated on one of many noise features still found."""
        X = rng.standard_normal((300, 10)) * 0.01
        X[:, 3] = rng.standard_normal(300)
        X_out = X[:5].copy()
        X_out[:, 3] = 6.0
        forest = IsolationForest(random_state=0).fit(np.vstack([X, X_out]))
        scores = forest.score_samples(np.vstack([X, X_out]))
        y = np.r_[np.zeros(300), np.ones(5)]
        assert roc_auc(scores, y) > 0.9

    def test_invalid_params(self):
        with pytest.raises(ValidationError):
            IsolationForest(n_estimators=0)
        with pytest.raises(ValidationError):
            IsolationForest(max_samples=1)
        with pytest.raises(ValidationError):
            IsolationForest(contamination=0.7)

    def test_scores_match_per_curve_reference_walk(self, rng):
        """The lane walk equals a plain per-curve, per-tree walk of the table."""
        X = rng.standard_normal((90, 3))
        forest = IsolationForest(n_estimators=15, max_samples=40, random_state=4).fit(X)
        t = forest.export_state()["fitted"]
        Q = np.vstack([X[:7], rng.standard_normal((5, 3)) * 3])
        expected = []
        for x in Q:
            total = 0.0
            for start in t["node_offsets"][:-1]:
                node = start
                while t["node_feature"][node] >= 0:
                    go_left = x[t["node_feature"][node]] < t["node_split"][node]
                    node = start + t["node_left" if go_left else "node_right"][node]
                total += t["node_depth"][node] + average_path_length(t["node_size"][node])
            mean_depth = total / (t["node_offsets"].size - 1)
            expected.append(2.0 ** (-mean_depth / average_path_length(t["psi"])))
        assert np.array_equal(forest.score_samples(Q), np.array(expected))

    def test_fit_predict(self, gaussian_cloud):
        X, _ = gaussian_cloud
        labels = IsolationForest(random_state=0, contamination=0.1).fit_predict(X)
        assert labels.shape == (X.shape[0],)


class TestNodeTableValidation:
    """A corrupt persisted node table is rejected on import, never walked."""

    @pytest.fixture
    def state(self, rng):
        X = rng.standard_normal((60, 2))
        return IsolationForest(n_estimators=4, max_samples=32, random_state=0).fit(X).export_state()

    @staticmethod
    def _corrupt(state, **changes):
        fitted = {k: (v.copy() if isinstance(v, np.ndarray) else v)
                  for k, v in state["fitted"].items()}
        for key, edit in changes.items():
            fitted[key] = edit(fitted[key])
        return {**state, "fitted": fitted}

    @staticmethod
    def _set(index, value):
        def edit(array):
            array[index] = value
            return array
        return edit

    def test_valid_table_loads(self, state):
        IsolationForest.from_state(state)

    def test_offsets_not_starting_at_zero(self, state):
        with pytest.raises(ValidationError, match="node_offsets"):
            IsolationForest.from_state(self._corrupt(state, node_offsets=self._set(0, 1)))

    def test_offsets_decreasing(self, state):
        def swap(offsets):
            offsets[[1, 2]] = offsets[[2, 1]]
            return offsets
        with pytest.raises(ValidationError, match="node_offsets"):
            IsolationForest.from_state(self._corrupt(state, node_offsets=swap))

    def test_offsets_not_ending_at_node_count(self, state):
        with pytest.raises(ValidationError, match="node_offsets"):
            IsolationForest.from_state(
                self._corrupt(state, node_offsets=lambda o: np.append(o[:-1], o[-1] + 3))
            )

    def test_node_arrays_of_different_lengths(self, state):
        with pytest.raises(ValidationError, match="equal length"):
            IsolationForest.from_state(self._corrupt(state, node_size=lambda a: a[:-1]))

    def test_child_pointing_at_itself(self, state):
        with pytest.raises(ValidationError, match="child"):
            IsolationForest.from_state(self._corrupt(state, node_left=self._set(0, 0)))

    def test_child_outside_its_tree(self, state):
        tree_size = int(state["fitted"]["node_offsets"][1])
        with pytest.raises(ValidationError, match="child"):
            IsolationForest.from_state(
                self._corrupt(state, node_right=self._set(0, tree_size))
            )

    def test_psi_below_two(self, state):
        with pytest.raises(ValidationError, match="psi"):
            IsolationForest.from_state(self._corrupt(state, psi=lambda _: 1))

    def test_node_size_above_psi(self, state):
        with pytest.raises(ValidationError, match="node_size"):
            IsolationForest.from_state(self._corrupt(state, psi=lambda _: 2))

    def test_tree_deeper_than_psi_allows(self, state):
        # psi=2 allows one split; this tree splits twice on the left.
        chain = {
            "psi": 2,
            "node_offsets": np.array([0, 5]),
            "node_feature": np.array([0, 1, -1, -1, -1]),
            "node_split": np.zeros(5),
            "node_left": np.array([1, 3, -1, -1, -1]),
            "node_right": np.array([2, 4, -1, -1, -1]),
            "node_size": np.array([2, 2, 1, 1, 1]),
            "node_depth": np.array([0, 1, 1, 2, 2]),
        }
        with pytest.raises(ValidationError, match="deep"):
            IsolationForest.from_state({**state, "fitted": chain})

    def test_manifest_with_cyclic_tree_raises_persistence_error(self, tmp_path):
        import shutil
        from pathlib import Path

        from repro.exceptions import PersistenceError
        from repro.serving import ARRAYS_NAME, load_pipeline

        model = tmp_path / "model"
        shutil.copytree(Path(__file__).parent / "data" / "iforest_v2", model)
        with np.load(model / ARRAYS_NAME) as bundle:
            arrays = {key: bundle[key] for key in bundle.files}
        arrays["detector.fitted.node_left"][0] = 0
        np.savez_compressed(model / ARRAYS_NAME, **arrays)
        with pytest.raises(PersistenceError, match="child"):
            load_pipeline(model)

    def test_feature_index_beyond_fitted_features(self, state):
        with pytest.raises(ValidationError, match="n_features"):
            IsolationForest.from_state(self._corrupt(state, node_feature=self._set(0, 2)))
