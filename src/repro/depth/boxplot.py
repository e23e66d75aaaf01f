"""Functional boxplot (Sun & Genton 2011) — a classical depth-based rule.

A further baseline of the depth family the paper reviews: order the
curves by modified band depth, take the band spanned by the deepest 50%
(the *central region*), inflate it by the factor 1.5 (the functional
analogue of the boxplot whiskers), and flag every curve that exits the
inflated fence anywhere.

Included for completeness of the depth substrate and for the taxonomy
benches; the rule is binary by nature, so for AUC-style evaluation we
also expose a continuous score: the maximal relative fence violation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.depth.functional import modified_band_depth
from repro.exceptions import ValidationError
from repro.fda.fdata import FDataGrid
from repro.utils.validation import check_in_range, check_positive

__all__ = ["FunctionalBoxplot", "functional_boxplot"]


@dataclass(frozen=True)
class FunctionalBoxplot:
    """The fitted functional boxplot.

    Attributes
    ----------
    median:
        The deepest curve, shape ``(n_points,)``.
    lower, upper:
        Envelope of the central region.
    fence_lower, fence_upper:
        Inflated whisker envelopes.
    outlier_mask:
        Boolean flags per input curve.
    scores:
        Continuous outlyingness: max relative fence violation (0 inside).
    """

    median: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    fence_lower: np.ndarray
    fence_upper: np.ndarray
    outlier_mask: np.ndarray
    scores: np.ndarray


def functional_boxplot(
    data: FDataGrid,
    central_fraction: float = 0.5,
    inflation: float = 1.5,
) -> FunctionalBoxplot:
    """Fit the functional boxplot of a sample of curves.

    Parameters
    ----------
    data:
        Univariate functional data on a common grid.
    central_fraction:
        Fraction of deepest curves forming the central region (0.5 in
        the original proposal).
    inflation:
        Whisker inflation factor (1.5 in the original proposal).
    """
    if not isinstance(data, FDataGrid):
        raise ValidationError(f"data must be FDataGrid, got {type(data).__name__}")
    if data.n_samples < 4:
        raise ValidationError("functional_boxplot needs at least 4 curves")
    central_fraction = check_in_range(
        central_fraction, 0.0, 1.0, "central_fraction", inclusive=(False, False)
    )
    inflation = check_positive(inflation, "inflation")

    depth = modified_band_depth(data)
    order = np.argsort(-depth)
    n_central = max(int(np.ceil(central_fraction * data.n_samples)), 2)
    central = data.values[order[:n_central]]

    median = data.values[order[0]]
    lower = central.min(axis=0)
    upper = central.max(axis=0)
    spread = upper - lower
    fence_lower = lower - inflation * spread
    fence_upper = upper + inflation * spread

    below = fence_lower[None, :] - data.values
    above = data.values - fence_upper[None, :]
    violation = np.maximum(np.maximum(below, above), 0.0)
    scale = np.maximum(spread, 1e-12)[None, :]
    scores = (violation / scale).max(axis=1)
    outlier_mask = scores > 0.0
    return FunctionalBoxplot(
        median=median,
        lower=lower,
        upper=upper,
        fence_lower=fence_lower,
        fence_upper=fence_upper,
        outlier_mask=outlier_mask,
        scores=scores,
    )
