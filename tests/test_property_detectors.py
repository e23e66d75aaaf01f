"""Property-based tests for the detectors and depth notions."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.detectors.iforest import IsolationForest
from repro.detectors.kernels import rbf_kernel
from repro.detectors.ocsvm import OneClassSVM, smo_solve

COMMON = settings(max_examples=20, deadline=None)


class TestSmoProperties:
    @COMMON
    @given(
        st.integers(min_value=5, max_value=60),
        st.floats(min_value=0.05, max_value=1.0),
        st.integers(min_value=0, max_value=10_000),
    )
    def test_feasibility_and_optimal_value(self, n, nu, seed):
        rng = np.random.default_rng(seed)
        X = rng.standard_normal((n, 3))
        Q = rbf_kernel(X, X, 0.5)
        C = 1.0 / (nu * n)
        alpha, rho, _ = smo_solve(Q, C)
        assert abs(alpha.sum() - 1.0) < 1e-9
        assert (alpha >= -1e-10).all()
        assert (alpha <= C + 1e-10).all()
        # The uniform vector is always feasible; the optimum cannot be worse.
        uniform = np.full(n, 1.0 / n)
        assert 0.5 * alpha @ Q @ alpha <= 0.5 * uniform @ Q @ uniform + 1e-8


class TestOcsvmNuProperty:
    @COMMON
    @given(
        st.sampled_from([0.1, 0.2, 0.3, 0.5]),
        st.integers(min_value=0, max_value=10_000),
    )
    def test_nu_bounds_outlier_and_sv_fractions(self, nu, seed):
        rng = np.random.default_rng(seed)
        X = rng.standard_normal((150, 2))
        model = OneClassSVM(nu=nu).fit(X)
        frac_out = float(np.mean(model.raw_decision(X) < -1e-8))
        frac_sv = len(model.support_) / X.shape[0]
        assert frac_out <= nu + 0.05
        assert frac_sv >= nu - 0.05


class TestIsolationForestProperties:
    @COMMON
    @given(st.integers(min_value=0, max_value=10_000))
    def test_scores_bounded(self, seed):
        rng = np.random.default_rng(seed)
        X = rng.standard_normal((100, 3))
        forest = IsolationForest(n_estimators=30, random_state=seed).fit(X)
        scores = forest.score_samples(X)
        assert ((scores > 0) & (scores < 1)).all()

    @COMMON
    @given(st.integers(min_value=0, max_value=10_000))
    def test_extreme_point_scores_higher_than_median_point(self, seed):
        rng = np.random.default_rng(seed)
        X = rng.standard_normal((150, 2))
        forest = IsolationForest(n_estimators=50, random_state=seed).fit(X)
        probe = np.vstack([np.median(X, axis=0), X.max(axis=0) * 3 + 1])
        scores = forest.score_samples(probe)
        assert scores[1] > scores[0]

    @COMMON
    @given(
        st.integers(min_value=0, max_value=10_000),
        st.integers(min_value=1, max_value=120),
        st.integers(min_value=1, max_value=40),
        st.data(),
    )
    def test_scores_do_not_depend_on_batch(self, seed, n_estimators, n_queries, data):
        """The serving queue batches different clients' curves into one call."""
        rng = np.random.default_rng(seed)
        n_features = data.draw(st.integers(min_value=1, max_value=5))
        X = rng.standard_normal((data.draw(st.integers(min_value=2, max_value=150)), n_features))
        forest = IsolationForest(n_estimators=n_estimators, random_state=seed).fit(X)
        Q = rng.standard_normal((n_queries, n_features)) * 2
        scores = forest.score_samples(Q)
        for i in range(n_queries):
            assert np.array_equal(forest.score_samples(Q[i : i + 1]), scores[i : i + 1])
        cuts = sorted(data.draw(st.lists(st.integers(0, n_queries), max_size=4)))
        parts = [forest.score_samples(part) for part in np.split(Q, cuts) if part.shape[0]]
        assert np.array_equal(np.concatenate(parts), scores)


class TestDepthProperties:
    @COMMON
    @given(st.integers(min_value=0, max_value=10_000))
    def test_depths_in_unit_interval(self, cloud_depth, seed):
        rng = np.random.default_rng(seed)
        cloud = rng.standard_normal((80, 2))
        pts = rng.standard_normal((10, 2)) * 2
        for notion, kwargs in [
            ("projection", {"random_state": 0}),
            ("halfspace", {"random_state": 0}),
            ("spatial", {}),
        ]:
            d = cloud_depth(notion, pts, cloud, **kwargs)
            assert (d >= 0).all() and (d <= 1).all()

    @COMMON
    @given(st.integers(min_value=0, max_value=10_000))
    def test_vanishing_at_infinity(self, cloud_depth, seed):
        """Depth must vanish as the point moves to infinity (Zuo-Serfling
        axiom D4)."""
        rng = np.random.default_rng(seed)
        cloud = rng.standard_normal((80, 3))
        far = np.array([[1e4, 1e4, 1e4]])
        assert cloud_depth("projection", far, cloud, random_state=0)[0] < 1e-2
        assert cloud_depth("halfspace", far, cloud, random_state=0)[0] == 0.0
        assert cloud_depth("spatial", far, cloud)[0] < 1e-2
