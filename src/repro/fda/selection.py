"""Basis-size selection for the smoothing step.

The paper selects the basis sizes ``L_ik`` by leave-one-out
cross-validation (Sec. 4.1).  For a *linear* smoother with hat matrix
``S`` the leave-one-out residuals have the closed form

    e_i^{loo} = (y_i - yhat_i) / (1 - S_ii)

so LOO-CV costs one fit instead of ``m`` fits.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from repro.exceptions import ValidationError
from repro.fda.basis.bspline import BSplineBasis
from repro.fda.fdata import BasisFData, FDataGrid
from repro.fda.smoothing import BasisSmoother
from repro.utils.validation import as_float_array, check_grid

__all__ = [
    "loocv_score",
    "FittedSelection",
    "select_n_basis",
]


def loocv_score(smoother: BasisSmoother, points, values) -> float:
    """Leave-one-out CV mean squared error via the hat-matrix identity.

    ``values`` may hold several curves (rows); the score averages over
    curves and points, matching the paper's per-parameter selection in
    which all samples share the candidate basis.
    """
    points = check_grid(points, "points")
    values = as_float_array(values, "values")
    if values.ndim == 1:
        values = values[None, :]
    if values.shape[1] != points.shape[0]:
        raise ValidationError(
            f"values have {values.shape[1]} columns but points has {points.shape[0]} entries"
        )
    hat = smoother.hat_matrix(points)
    leverage = np.clip(np.diag(hat), 0.0, 1.0 - 1e-8)
    residuals = values - values @ hat.T
    loo = residuals / (1.0 - leverage)[None, :]
    return float(np.mean(loo**2))


@dataclass(frozen=True)
class FittedSelection:
    """A basis-size sweep that also carries the fitted winner.

    :func:`select_n_basis` scores every candidate against cached
    factorizations and then fits the winning smoother with one extra
    back-substitution — so callers (the pipeline, the method registry)
    never refit from scratch.
    """

    best: float | int
    scores: dict
    smoother: BasisSmoother
    fit: BasisFData

    def __post_init__(self):
        if not self.scores:
            raise ValidationError("FittedSelection needs at least one candidate score")


def select_n_basis(
    data: FDataGrid,
    basis_factory: Callable[[tuple[float, float], int], BSplineBasis],
    candidates: Sequence[int],
    smoothing: float = 0.0,
    penalty_order: int = 2,
    cache=None,
) -> FittedSelection:
    """Choose the basis size by leave-one-out cross-validation.

    Parameters
    ----------
    data:
        UFD samples of one parameter on a common grid.
    basis_factory:
        Callable ``(domain, n_basis) -> BSplineBasis``.
    candidates:
        Candidate basis sizes (the paper's ``L_ik`` sweep).
    smoothing, penalty_order:
        Passed through to the smoother for each candidate.
    cache:
        Optional shared :class:`~repro.engine.FactorizationCache`; each
        candidate's design matrix and normal-equation factorization are
        then computed at most once across the sweep, the winner's fit
        and any later pipeline work on the same configuration.

    Returns
    -------
    FittedSelection
        The LOO-CV score per candidate and the winning smoother, already
        fitted to ``data`` (the fit reuses the sweep's cached
        factorization, so it costs one back-substitution).
    """
    candidates = list(candidates)
    if not candidates:
        raise ValidationError("no candidates supplied")
    scores = {}
    smoothers = {}
    for n_basis in candidates:
        basis = basis_factory(data.domain, int(n_basis))
        smoother = BasisSmoother(
            basis, smoothing=smoothing, penalty_order=penalty_order, cache=cache
        )
        smoothers[n_basis] = smoother
        scores[n_basis] = loocv_score(smoother, data.grid, data.values)
    best = min(scores, key=scores.get)
    winner = smoothers[best]
    return FittedSelection(best=best, scores=scores, smoother=winner, fit=winner.fit_grid(data))
