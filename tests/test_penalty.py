"""Unit tests for roughness penalty matrices (paper Eq. 3's R matrix)."""

import numpy as np
import pytest

from repro.exceptions import BasisError
from repro.fda.basis import BSplineBasis
from repro.fda.penalty import penalty_matrix


class TestPenaltyMatrix:
    def test_symmetric_psd(self):
        basis = BSplineBasis((0.0, 1.0), n_basis=10)
        R = penalty_matrix(basis, derivative=2)
        np.testing.assert_allclose(R, R.T, atol=1e-12)
        eigenvalues = np.linalg.eigvalsh(R)
        assert eigenvalues.min() > -1e-8

    def test_nullspace_dimension(self):
        """The q = 2 penalty annihilates exactly the linear functions:
        nullspace dimension 2 for a cubic spline basis."""
        basis = BSplineBasis((0.0, 1.0), n_basis=8)
        R = penalty_matrix(basis, derivative=2)
        eigenvalues = np.sort(np.linalg.eigvalsh(R))
        scale = eigenvalues[-1]
        assert (np.abs(eigenvalues[:2]) < 1e-8 * scale).all()
        assert eigenvalues[2] > 1e-6 * scale

    @staticmethod
    def _spline_coefficients(basis, func):
        """Coefficients of ``func`` in ``basis`` (exact when it lies in the span)."""
        t = np.linspace(*basis.domain, 41)
        coeffs, *_ = np.linalg.lstsq(basis.evaluate(t), func(t), rcond=None)
        return coeffs

    def test_quadratic_closed_form(self):
        """t^2 lies in the cubic spline span; its q = 2 penalty is the
        integral of D^2 t^2 = 2 squared over [0, 2]: 4 * 2 = 8."""
        basis = BSplineBasis((0.0, 2.0), n_basis=8)
        c = self._spline_coefficients(basis, lambda t: t**2)
        R = penalty_matrix(basis, derivative=2)
        assert c @ R @ c == pytest.approx(8.0, rel=1e-9)

    def test_cubic_closed_form(self):
        """t^3 has D^2 = 6t, so its q = 2 penalty over [0, 1] is
        the integral of 36 t^2: 12.  A line's penalty is zero."""
        basis = BSplineBasis((0.0, 1.0), n_basis=7)
        R = penalty_matrix(basis, derivative=2)
        cubic = self._spline_coefficients(basis, lambda t: t**3)
        line = self._spline_coefficients(basis, lambda t: 3.0 * t - 1.0)
        assert cubic @ R @ cubic == pytest.approx(12.0, rel=1e-9)
        assert abs(line @ R @ line) < 1e-9

    def test_derivative_beyond_max_rejected(self):
        basis = BSplineBasis((0.0, 1.0), n_basis=5, order=3)
        with pytest.raises(BasisError):
            penalty_matrix(basis, derivative=5)

    def test_q0_equals_gram(self):
        """q = 0 gives the L2 Gram matrix, here summed span by span with
        a 6-point Gauss rule (exact for the degree-6 products)."""
        basis = BSplineBasis((0.0, 1.0), n_basis=6)
        nodes, weights = np.polynomial.legendre.leggauss(6)
        breaks = np.concatenate(([0.0], basis.interior_breakpoints, [1.0]))
        gram = np.zeros((6, 6))
        for low, high in zip(breaks[:-1], breaks[1:]):
            design = basis.evaluate(low + (high - low) * (nodes + 1.0) / 2.0)
            gram += (high - low) / 2.0 * (design.T * weights) @ design
        np.testing.assert_allclose(penalty_matrix(basis, derivative=0), gram, atol=1e-12)


class TestGramMatrix:
    def test_bspline_rows_integrate_to_knot_spans(self):
        """Row sums of the Gram matrix equal the integrals of each basis
        function (partition of unity integrates to the domain length)."""
        basis = BSplineBasis((0.0, 2.0), n_basis=7)
        gram = penalty_matrix(basis, derivative=0)
        assert gram.sum() == pytest.approx(2.0, abs=1e-10)

    def test_positive_definite(self):
        basis = BSplineBasis((0.0, 1.0), n_basis=8)
        eigenvalues = np.linalg.eigvalsh(penalty_matrix(basis, derivative=0))
        assert eigenvalues.min() > 0
