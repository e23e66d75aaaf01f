"""Unit tests for the from-scratch One-Class SVM (SMO solver)."""

import numpy as np
import pytest
from scipy.optimize import minimize

from repro.detectors.kernels import rbf_kernel
from repro.detectors.ocsvm import OneClassSVM, smo_solve
from repro.evaluation.metrics import roc_auc
from repro.exceptions import NotFittedError, ValidationError


class TestSmoSolve:
    def test_constraints_satisfied(self, rng):
        X = rng.standard_normal((40, 2))
        Q = rbf_kernel(X, X, 0.5)
        C = 1.0 / (0.2 * 40)
        alpha, rho, n_iter = smo_solve(Q, C)
        assert alpha.sum() == pytest.approx(1.0, abs=1e-10)
        assert (alpha >= -1e-12).all() and (alpha <= C + 1e-12).all()
        assert n_iter >= 1

    def test_matches_slsqp(self, rng):
        """The SMO optimum must match a general-purpose QP solver."""
        X = rng.standard_normal((25, 2))
        Q = rbf_kernel(X, X, 0.8)
        C = 1.0 / (0.3 * 25)
        alpha, _, _ = smo_solve(Q, C, tol=1e-8)
        ours = 0.5 * alpha @ Q @ alpha
        res = minimize(
            lambda a: 0.5 * a @ Q @ a,
            np.full(25, 1 / 25),
            jac=lambda a: Q @ a,
            bounds=[(0, C)] * 25,
            constraints={"type": "eq", "fun": lambda a: a.sum() - 1},
            method="SLSQP",
            options={"maxiter": 500, "ftol": 1e-14},
        )
        assert ours <= res.fun + 1e-8

    def test_kkt_at_optimum(self, rng):
        X = rng.standard_normal((30, 3))
        Q = rbf_kernel(X, X, 0.5)
        C = 1.0 / (0.25 * 30)
        alpha, rho, _ = smo_solve(Q, C, tol=1e-10)
        grad = Q @ alpha
        free = (alpha > 1e-9) & (alpha < C - 1e-9)
        if free.any():
            np.testing.assert_allclose(grad[free], rho, atol=1e-6)
        at_zero = alpha <= 1e-9
        at_bound = alpha >= C - 1e-9
        assert (grad[at_zero] >= rho - 1e-6).all()
        assert (grad[at_bound] <= rho + 1e-6).all()

    def test_infeasible_rejected(self):
        Q = np.eye(3)
        with pytest.raises(ValidationError, match="infeasible"):
            smo_solve(Q, 0.1)  # 3 * 0.1 < 1

    def test_nu_one_forces_uniform(self, rng):
        """nu = 1 -> C = 1/n: the only feasible point is alpha_i = 1/n."""
        X = rng.standard_normal((10, 2))
        Q = rbf_kernel(X, X, 1.0)
        alpha, _, _ = smo_solve(Q, 1.0 / 10)
        np.testing.assert_allclose(alpha, 0.1, atol=1e-10)

    def test_nonsquare_rejected(self):
        with pytest.raises(ValidationError):
            smo_solve(np.ones((2, 3)), 1.0)


class TestOneClassSVM:
    def test_nu_property(self, rng):
        """nu upper-bounds the training outlier fraction and lower-bounds
        the support-vector fraction (Scholkopf Proposition 3)."""
        X = rng.standard_normal((300, 2))
        for nu in (0.1, 0.25, 0.4):
            model = OneClassSVM(nu=nu).fit(X)
            frac_outliers = np.mean(model.raw_decision(X) < -1e-8)
            frac_sv = len(model.support_) / 300
            assert frac_outliers <= nu + 0.02
            assert frac_sv >= nu - 0.02

    def test_separates_outliers(self, gaussian_cloud):
        X, y = gaussian_cloud
        model = OneClassSVM(nu=0.1).fit(X)
        assert roc_auc(model.score_samples(X), y) > 0.9

    def test_score_orientation(self, rng):
        """Far points must score higher (more anomalous) than the center."""
        X = rng.standard_normal((200, 2))
        model = OneClassSVM(nu=0.1).fit(X)
        scores = model.score_samples(np.array([[0.0, 0.0], [10.0, 10.0]]))
        assert scores[1] > scores[0]

    def test_raw_decision_negates_score(self, gaussian_cloud):
        X, _ = gaussian_cloud
        model = OneClassSVM(nu=0.1).fit(X)
        np.testing.assert_allclose(
            model.raw_decision(X), -model.score_samples(X), atol=1e-12
        )

    def test_linear_kernel(self, gaussian_cloud):
        X, y = gaussian_cloud
        model = OneClassSVM(nu=0.2, kernel="linear").fit(X)
        assert model.support_vectors_.shape[1] == 2

    def test_poly_kernel_runs(self, gaussian_cloud):
        X, y = gaussian_cloud
        model = OneClassSVM(nu=0.2, kernel="poly", degree=2).fit(X)
        assert np.isfinite(model.score_samples(X)).all()

    def test_sparse_dual(self, rng):
        """Most multipliers vanish: support vectors are a minority for
        small nu on clean data."""
        X = rng.standard_normal((200, 2))
        model = OneClassSVM(nu=0.05).fit(X)
        assert len(model.support_) < 100

    def test_predict_threshold(self, gaussian_cloud):
        X, y = gaussian_cloud
        model = OneClassSVM(nu=0.1).fit(X)
        predictions = model.predict(X)
        # Natural threshold f(x) = 0: flagged fraction ~ nu on train.
        assert np.mean(predictions == -1) <= 0.15

    def test_not_fitted(self):
        with pytest.raises(NotFittedError):
            OneClassSVM().score_samples(np.zeros((2, 2)))

    def test_invalid_nu(self):
        with pytest.raises(ValidationError):
            OneClassSVM(nu=0.0)
        with pytest.raises(ValidationError):
            OneClassSVM(nu=1.5)

    @pytest.mark.parametrize(
        "options", [{"kernel": "rbff"}, {"gamma": -1.0}, {"gamma": "wide"}]
    )
    def test_invalid_kernel_or_gamma_at_construction(self, options):
        with pytest.raises(ValidationError):
            OneClassSVM(**options)

    def test_needs_two_rows(self):
        with pytest.raises(ValidationError):
            OneClassSVM().fit(np.ones((1, 2)))

    def test_reproducible(self, gaussian_cloud):
        """The solver is deterministic: same data, same model."""
        X, _ = gaussian_cloud
        s1 = OneClassSVM(nu=0.1).fit(X).score_samples(X)
        s2 = OneClassSVM(nu=0.1).fit(X).score_samples(X)
        np.testing.assert_array_equal(s1, s2)
