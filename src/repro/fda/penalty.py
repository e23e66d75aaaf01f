"""Roughness penalty matrices (the ``R`` matrix of paper Eq. 3).

``R[j, m] = integral over T of  D^q phi_j(t) * D^q phi_m(t) dt``

is the Gram matrix of the q-th derivatives of the basis functions.  The
penalized least-squares criterion adds ``lambda * alpha' R alpha`` to
the residual sum of squares, shrinking the fit toward functions with a
small q-th derivative, i.e. smooth fits (paper Sec. 2.2; q=2 penalizes
acceleration, the common default).
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import BasisError
from repro.fda.basis.bspline import BSplineBasis
from repro.fda.quadrature import integrate_function
from repro.utils.linalg import symmetrize
from repro.utils.validation import check_int

__all__ = ["penalty_matrix"]


def penalty_matrix(basis: BSplineBasis, derivative: int = 2, n_nodes: int = 32) -> np.ndarray:
    """Compute the roughness penalty matrix for a basis.

    Parameters
    ----------
    basis:
        A :class:`~repro.fda.basis.BSplineBasis`.
    derivative:
        Penalized derivative order ``q`` (paper recommends 1 or 2).
    n_nodes:
        Gauss–Legendre nodes per smooth piece.  B-spline derivative
        products are piecewise polynomials, so with the basis's interior
        knots as breakpoints the quadrature is exact for practical sizes.

    Returns
    -------
    numpy.ndarray of shape ``(n_basis, n_basis)``
        Symmetric positive semi-definite matrix ``R``.
    """
    derivative = check_int(derivative, "derivative", minimum=0)
    if derivative > basis.max_derivative:
        raise BasisError(
            f"basis supports derivatives up to {basis.max_derivative}, got q={derivative}"
        )
    low, high = basis.domain

    def integrand(points: np.ndarray) -> np.ndarray:
        design = basis.evaluate(points, derivative=derivative)
        # Outer products per point: result has point axis first.
        return design[:, :, None] * design[:, None, :]

    matrix = integrate_function(
        integrand, low, high, n_nodes=n_nodes, breakpoints=basis.interior_breakpoints
    )
    return symmetrize(np.asarray(matrix))

