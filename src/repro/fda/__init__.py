"""Functional-data substrate: bases, smoothing, selection, containers.

This subpackage implements Section 2 of the paper — representing noisy
discrete measurements as smooth functions in a basis (Eq. 1), fitting
coefficients by penalized least squares (Eq. 3–4), and evaluating
derivative functions by linearity (Eq. 2).
"""

from repro.fda.basis import Basis, BSplineBasis
from repro.fda.fdata import (
    BasisFData,
    FDataGrid,
    IrregularFData,
    MFDataGrid,
    MultivariateBasisFData,
)
from repro.fda.penalty import gram_matrix, penalty_matrix
from repro.fda.registration import ShiftRegistrationResult, shift_register
from repro.fda.quadrature import gauss_legendre_nodes, integrate_function, trapezoid_weights
from repro.fda.selection import (
    FittedSelection,
    SelectionResult,
    gcv_score,
    loocv_score,
    select_n_basis,
    select_smoothing,
)
from repro.fda.smoothing import BasisSmoother, smooth_mfd

__all__ = [
    "Basis",
    "BasisFData",
    "BasisSmoother",
    "BSplineBasis",
    "FDataGrid",
    "FittedSelection",
    "IrregularFData",
    "MFDataGrid",
    "MultivariateBasisFData",
    "SelectionResult",
    "ShiftRegistrationResult",
    "gauss_legendre_nodes",
    "gcv_score",
    "gram_matrix",
    "integrate_function",
    "loocv_score",
    "penalty_matrix",
    "select_n_basis",
    "select_smoothing",
    "shift_register",
    "smooth_mfd",
    "trapezoid_weights",
]
