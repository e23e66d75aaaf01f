"""Unit tests for LOO-CV basis-size selection."""

import numpy as np
import pytest

from repro.exceptions import ValidationError
from repro.fda.basis import BSplineBasis
from repro.fda.selection import loocv_score, select_n_basis
from repro.fda.smoothing import BasisSmoother


class TestLoocvScore:
    def test_matches_explicit_leave_one_out(self, rng):
        """The hat-matrix shortcut must equal literal refit-without-point CV."""
        grid = np.linspace(0, 1, 25)
        values = np.sin(2 * np.pi * grid) + 0.1 * rng.standard_normal(25)
        basis = BSplineBasis((0.0, 1.0), n_basis=6)
        smoother = BasisSmoother(basis, smoothing=1e-3)
        fast = loocv_score(smoother, grid, values)

        errors = []
        for j in range(25):
            keep = np.arange(25) != j
            coeffs = smoother.fit_sample(grid[keep], values[keep])
            pred = basis.evaluate(grid[j : j + 1]) @ coeffs
            errors.append((values[j] - pred[0]) ** 2)
        np.testing.assert_allclose(fast, np.mean(errors), rtol=1e-6)

    def test_penalizes_overfitting(self, sine_curves):
        """LOO-CV must increase when the basis badly overfits the noise."""
        small = BasisSmoother(BSplineBasis((0.0, 1.0), n_basis=10), smoothing=0.0)
        huge = BasisSmoother(BSplineBasis((0.0, 1.0), n_basis=80), smoothing=0.0)
        score_small = loocv_score(small, sine_curves.grid, sine_curves.values)
        score_huge = loocv_score(huge, sine_curves.grid, sine_curves.values)
        assert score_small < score_huge

    def test_multiple_curves_averaged(self, sine_curves):
        smoother = BasisSmoother(BSplineBasis((0.0, 1.0), n_basis=8))
        all_curves = loocv_score(smoother, sine_curves.grid, sine_curves.values)
        first = loocv_score(smoother, sine_curves.grid, sine_curves.values[0])
        assert all_curves != pytest.approx(first)


class TestSelectNBasis:
    def test_picks_reasonable_size(self, sine_curves):
        result = select_n_basis(
            sine_curves,
            lambda dom, L: BSplineBasis(dom, L),
            candidates=[4, 8, 16, 40, 70],
        )
        # A single sine needs few basis functions; huge bases overfit noise.
        assert result.best in (4, 8, 16)
        assert set(result.scores) == {4, 8, 16, 40, 70}

    def test_empty_candidates_rejected(self, sine_curves):
        with pytest.raises(ValidationError):
            select_n_basis(sine_curves, lambda dom, L: BSplineBasis(dom, L), [])
