"""Curve registration (alignment) — separating phase from amplitude.

Functional data often mix *amplitude* variation (what the curves do)
with *phase* variation (when they do it).  Our ECG substitute has
beat-to-beat phase jitter by construction, and the reproduction showed
that phase variation is precisely what degrades pointwise methods.
This module provides the classical shift registration so that the
interaction can be studied (ablation A4): find, per curve, the time
shift maximizing its inner product with a template (iterated
Procrustes-style against the cross-sectional mean), with periodic or
clamped boundary handling.  It operates on
:class:`~repro.fda.fdata.FDataGrid` and returns aligned data on the
same grid plus the estimated shifts.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.exceptions import ValidationError
from repro.fda.fdata import FDataGrid
from repro.utils.validation import as_float_array, check_int, check_positive

__all__ = ["ShiftRegistrationResult", "shift_register"]


@dataclass(frozen=True)
class ShiftRegistrationResult:
    """Aligned curves plus the per-sample shifts that were applied."""

    aligned: FDataGrid
    shifts: np.ndarray

    def __post_init__(self):
        if self.shifts.shape[0] != self.aligned.n_samples:
            raise ValidationError("one shift per sample required")


def _interp_shifted(values: np.ndarray, grid: np.ndarray, shift: float, periodic: bool) -> np.ndarray:
    """Evaluate a sampled curve at ``grid + shift`` by linear interpolation."""
    query = grid + shift
    if periodic:
        period = grid[-1] - grid[0]
        query = grid[0] + np.mod(query - grid[0], period)
        return np.interp(query, grid, values, period=period)
    return np.interp(query, grid, values, left=values[0], right=values[-1])


def shift_register(
    data: FDataGrid,
    max_shift: float | None = None,
    n_iterations: int = 3,
    n_candidates: int = 81,
    periodic: bool = False,
    template: np.ndarray | None = None,
) -> ShiftRegistrationResult:
    """Align curves by per-sample time shifts against a common template.

    Parameters
    ----------
    data:
        Curves on a common grid.
    max_shift:
        Largest |shift| explored (default: 10% of the domain length).
    n_iterations:
        Template re-estimation rounds (the template is the mean of the
        currently aligned curves; one round = classic pairwise
        registration to the raw mean).
    n_candidates:
        Grid resolution of the shift search (exhaustive 1-D search is
        robust and cheap at these sizes).
    periodic:
        Wrap around the domain instead of clamping at the boundaries.
    template:
        Optional fixed template; skips template re-estimation.

    Returns
    -------
    ShiftRegistrationResult
    """
    if not isinstance(data, FDataGrid):
        raise ValidationError(f"data must be FDataGrid, got {type(data).__name__}")
    n_iterations = check_int(n_iterations, "n_iterations", minimum=1)
    n_candidates = check_int(n_candidates, "n_candidates", minimum=3)
    grid = data.grid
    span = grid[-1] - grid[0]
    if max_shift is None:
        max_shift = 0.1 * span
    max_shift = check_positive(max_shift, "max_shift")
    candidates = np.linspace(-max_shift, max_shift, n_candidates)

    values = data.values
    shifts = np.zeros(data.n_samples)
    fixed_template = None
    if template is not None:
        fixed_template = as_float_array(template, "template")
        if fixed_template.shape != grid.shape:
            raise ValidationError("template must match the grid length")

    aligned = values.copy()
    for _ in range(n_iterations):
        target = fixed_template if fixed_template is not None else aligned.mean(axis=0)
        target_centered = target - target.mean()
        for i in range(data.n_samples):
            best_shift, best_score = 0.0, -np.inf
            for shift in candidates:
                moved = _interp_shifted(values[i], grid, shift, periodic)
                moved_centered = moved - moved.mean()
                score = float(moved_centered @ target_centered)
                if score > best_score:
                    best_score, best_shift = score, float(shift)
            shifts[i] = best_shift
            aligned[i] = _interp_shifted(values[i], grid, best_shift, periodic)
        if fixed_template is not None:
            break
    return ShiftRegistrationResult(aligned=FDataGrid(aligned, grid), shifts=shifts)
