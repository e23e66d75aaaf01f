"""Unit tests for penalized least-squares smoothing (paper Eq. 3-4)."""

import numpy as np
import pytest

from repro.exceptions import ValidationError
from repro.fda.basis import BSplineBasis
from repro.fda.fdata import FDataGrid, IrregularFData, MFDataGrid
from repro.fda.smoothing import BasisSmoother, smooth_mfd


@pytest.fixture
def basis():
    return BSplineBasis((0.0, 1.0), n_basis=12)


class TestFitSample:
    def test_exact_recovery_of_representable_function(self, unit_grid):
        """An unpenalized fit recovers a function inside the span exactly."""
        basis = BSplineBasis((0.0, 1.0), n_basis=6)
        smoother = BasisSmoother(basis)
        truth = 2.0 - 3.0 * unit_grid + unit_grid**2
        coeffs = smoother.fit_sample(unit_grid, truth)
        # The quadratic lies in the cubic spline span, and B-splines
        # reproduce it everywhere, not only on the fitting grid.
        dense = np.linspace(0.0, 1.0, 201)
        np.testing.assert_allclose(
            basis.evaluate(dense) @ coeffs, 2.0 - 3.0 * dense + dense**2, atol=1e-9
        )

    def test_denoising(self, basis, unit_grid, rng):
        truth = np.sin(2 * np.pi * unit_grid)
        noisy = truth + 0.1 * rng.standard_normal(85)
        smoother = BasisSmoother(basis, smoothing=1e-4)
        coeffs = smoother.fit_sample(unit_grid, noisy)
        fitted = basis.evaluate(unit_grid) @ coeffs
        assert np.sqrt(np.mean((fitted - truth) ** 2)) < 0.08

    def test_ridge_solution_formula(self, basis, unit_grid, rng):
        """The fit must match Eq. 4 computed by hand."""
        values = rng.standard_normal(85)
        lam = 0.01
        smoother = BasisSmoother(basis, smoothing=lam, penalty_order=2)
        coeffs = smoother.fit_sample(unit_grid, values)
        design = basis.evaluate(unit_grid)
        manual = np.linalg.solve(
            design.T @ design + lam * smoother.penalty, design.T @ values
        )
        np.testing.assert_allclose(coeffs, manual, atol=1e-8)

    def test_underdetermined_unpenalized_rejected(self, basis):
        smoother = BasisSmoother(basis)
        points = np.linspace(0, 1, 5)  # fewer than 12 basis functions
        with pytest.raises(ValidationError, match="at least"):
            smoother.fit_sample(points, np.zeros(5))

    def test_underdetermined_penalized_allowed(self, basis):
        smoother = BasisSmoother(basis, smoothing=1e-2)
        points = np.linspace(0, 1, 5)
        coeffs = smoother.fit_sample(points, np.ones(5))
        assert np.isfinite(coeffs).all()

    def test_shape_mismatch(self, basis, unit_grid):
        smoother = BasisSmoother(basis)
        with pytest.raises(ValidationError):
            smoother.fit_sample(unit_grid, np.zeros(10))


class TestFitGrid:
    def test_matches_per_sample_fits(self, basis, sine_curves):
        smoother = BasisSmoother(basis, smoothing=1e-5)
        batch = smoother.fit_grid(sine_curves)
        single = smoother.fit_sample(sine_curves.grid, sine_curves.values[3])
        np.testing.assert_allclose(batch.coefficients[3], single, atol=1e-10)


class TestFitIrregular:
    def test_irregular_samples(self, basis, rng):
        points = [np.sort(rng.uniform(0, 1, 40)) for _ in range(3)]
        for p in points:
            p[0], p[-1] = 0.0, 1.0
        values = [np.sin(2 * np.pi * p) + 0.02 * rng.standard_normal(40) for p in points]
        data = IrregularFData(points, values)
        smoother = BasisSmoother(basis, smoothing=1e-5)
        fit = smoother.fit_irregular(data)
        grid = np.linspace(0, 1, 50)
        recon = fit.evaluate(grid)
        truth = np.sin(2 * np.pi * grid)
        assert np.abs(recon - truth).mean() < 0.1


class TestHatMatrix:
    def test_projection_when_unpenalized(self, unit_grid):
        """With lambda = 0 the hat matrix is an orthogonal projection:
        idempotent with trace = n_basis."""
        basis = BSplineBasis((0.0, 1.0), n_basis=9)
        smoother = BasisSmoother(basis)
        hat = smoother.hat_matrix(unit_grid)
        np.testing.assert_allclose(hat @ hat, hat, atol=1e-8)
        assert np.trace(hat) == pytest.approx(9.0, abs=1e-8)

    def test_penalty_shrinks_df(self, basis, unit_grid):
        df_unpenalized = np.trace(BasisSmoother(basis).hat_matrix(unit_grid))
        df_penalized = np.trace(BasisSmoother(basis, smoothing=1.0).hat_matrix(unit_grid))
        assert df_penalized < df_unpenalized
        # The q=2 penalty never shrinks below its 2-dim nullspace.
        assert df_penalized >= 2.0 - 1e-6

    def test_fitted_values_via_hat(self, basis, sine_curves):
        smoother = BasisSmoother(basis, smoothing=1e-4)
        hat = smoother.hat_matrix(sine_curves.grid)
        fit = smoother.fit_grid(sine_curves)
        direct = fit.evaluate(sine_curves.grid)
        via_hat = sine_curves.values @ hat.T
        np.testing.assert_allclose(direct, via_hat, atol=1e-8)


class TestSmoothMfd:
    def test_returns_components_per_parameter(self, circle_mfd):
        fit, smoothers = smooth_mfd(
            circle_mfd, lambda dom: BSplineBasis(dom, 15), smoothing=1e-5
        )
        assert fit.n_parameters == 2
        assert len(smoothers) == 2

    def test_per_parameter_settings(self, circle_mfd):
        factories = [lambda dom: BSplineBasis(dom, 10), lambda dom: BSplineBasis(dom, 20)]
        fit, smoothers = smooth_mfd(circle_mfd, factories, smoothing=[1e-6, 1e-3])
        assert smoothers[0].basis.n_basis == 10
        assert smoothers[1].basis.n_basis == 20
        assert smoothers[1].smoothing == 1e-3

    def test_wrong_factory_count(self, circle_mfd):
        with pytest.raises(ValidationError):
            smooth_mfd(circle_mfd, [lambda dom: BSplineBasis(dom, 10)])

    def test_rejects_ufd(self, sine_curves):
        with pytest.raises(ValidationError):
            smooth_mfd(sine_curves, lambda dom: BSplineBasis(dom, 10))
