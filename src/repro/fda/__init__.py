"""Functional-data substrate: bases, smoothing, selection, containers.

This subpackage implements Section 2 of the paper — representing noisy
discrete measurements as smooth functions in a basis (Eq. 1), fitting
coefficients by penalized least squares (Eq. 3–4), and evaluating
derivative functions by linearity (Eq. 2).
"""

from repro.fda.basis import BSplineBasis
from repro.fda.fdata import (
    BasisFData,
    FDataGrid,
    IrregularFData,
    MFDataGrid,
    MultivariateBasisFData,
)
from repro.fda.penalty import penalty_matrix
from repro.fda.registration import ShiftRegistrationResult, shift_register
from repro.fda.quadrature import gauss_legendre_nodes, integrate_function, trapezoid_weights
from repro.fda.selection import FittedSelection, loocv_score, select_n_basis
from repro.fda.smoothing import BasisSmoother, smooth_mfd

__all__ = [
    "BasisFData",
    "BasisSmoother",
    "BSplineBasis",
    "FDataGrid",
    "FittedSelection",
    "IrregularFData",
    "MFDataGrid",
    "MultivariateBasisFData",
    "ShiftRegistrationResult",
    "gauss_legendre_nodes",
    "integrate_function",
    "loocv_score",
    "penalty_matrix",
    "select_n_basis",
    "shift_register",
    "smooth_mfd",
    "trapezoid_weights",
]
