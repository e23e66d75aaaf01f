"""Directional outlyingness for MFD (Dai & Genton, CSDA 2019) — "Dir.out".

The second baseline of the paper.  Pointwise, the *directional
outlyingness* of ``X_i(t)`` w.r.t. the cross-sectional distribution is

    O(X_i(t)) = ( 1 / d(X_i(t)) - 1 ) * v(t)

where ``d`` is a depth — Dai & Genton use projection depth, for which
``1/d - 1`` is exactly the Stahel–Donoho outlyingness — and ``v`` is the
unit vector from the cross-sectional (spatial) median toward ``X_i(t)``.
The functional summary decomposes the integrated outlyingness into:

* **MO** (mean directional outlyingness, a vector in R^p): the average
  of ``O`` over ``t`` — captures level/magnitude outlyingness;
* **VO** (variation of directional outlyingness, a scalar): the average
  of ``|O - MO|^2`` over ``t`` — captures shape outlyingness;
* **FO** = ``|MO|^2 + VO`` — total functional outlyingness (by the
  variance decomposition this equals the integrated ``|O|^2``).

The score used in the paper's experiments is the total outlyingness;
``method="mahalanobis"`` instead scores the robust distance on the
``(MO, VO)`` representation, mirroring Dai & Genton's detection rule.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.depth import _kernels
from repro.exceptions import ValidationError
from repro.fda.fdata import FDataGrid, MFDataGrid
from repro.fda.quadrature import trapezoid_weights
from repro.utils.validation import check_int

__all__ = [
    "DirectionalOutlyingness",
    "summarize_outlyingness",
    "directional_outlyingness",
    "dirout_scores",
]


@dataclass(frozen=True)
class DirectionalOutlyingness:
    """The (MO, VO, FO) decomposition for a set of MFD samples.

    Attributes
    ----------
    mean:
        ``MO`` — array ``(n_samples, p)``.
    variation:
        ``VO`` — array ``(n_samples,)``.
    total:
        ``FO = |MO|^2 + VO`` — array ``(n_samples,)``.
    """

    mean: np.ndarray
    variation: np.ndarray
    total: np.ndarray

    @property
    def mean_magnitude(self) -> np.ndarray:
        """``|MO|`` per sample — the magnitude (isolated-type) component."""
        return np.linalg.norm(self.mean, axis=1)


def summarize_outlyingness(out_vectors: np.ndarray, grid: np.ndarray) -> DirectionalOutlyingness:
    """Integrate pointwise outlyingness vectors into (MO, VO, FO).

    ``out_vectors`` is the ``(n, m, p)`` field ``O(X_i(t))``; the
    quadrature is the shared trapezoid rule normalized by the domain
    length.  Factored out so the batch path and the streaming scorer
    (which rebuilds ``O`` from incrementally maintained reference
    statistics) aggregate through one bit-identical code path.
    """
    weights = trapezoid_weights(grid) / (grid[-1] - grid[0])
    mean = np.tensordot(out_vectors, weights, axes=(1, 0))  # (n, p)
    centered = out_vectors - mean[:, None, :]
    variation = np.tensordot(np.sum(centered**2, axis=2), weights, axes=(1, 0))
    total = np.sum(mean**2, axis=1) + variation
    return DirectionalOutlyingness(mean=mean, variation=variation, total=total)


def directional_outlyingness(
    data: MFDataGrid | FDataGrid,
    reference: MFDataGrid | FDataGrid | None = None,
    n_directions: int = 200,
    random_state=None,
    context=None,
    dtype=None,
) -> DirectionalOutlyingness:
    """Compute the Dai–Genton (MO, VO, FO) decomposition.

    The Stahel–Donoho sweep and the Weiszfeld medians run batched over
    all grid points at once.

    Parameters
    ----------
    data:
        Samples to score (UFD is promoted to p = 1 MFD).
    reference:
        Cross-sectional clouds defining "typical" (default: the data).
    n_directions, random_state:
        Controls for the projection-depth approximation (exact when p=1).
    context:
        Optional worker-pool fan-out of the kernel blocks (see
        :mod:`repro.depth._kernels`).
    dtype:
        Kernel compute precision (float64 default, float32 fast path).
    """
    if isinstance(data, FDataGrid):
        data = data.to_multivariate()
    if isinstance(reference, FDataGrid):
        reference = reference.to_multivariate()
    if not isinstance(data, MFDataGrid):
        raise ValidationError(f"data must be MFDataGrid, got {type(data).__name__}")
    if reference is None:
        reference = data
    if reference.n_points != data.n_points or not np.allclose(reference.grid, data.grid):
        raise ValidationError("data and reference must share a grid")
    if reference.n_parameters != data.n_parameters:
        raise ValidationError(
            f"data has {data.n_parameters} parameters but reference has "
            f"{reference.n_parameters}"
        )
    if reference.n_samples < 2:
        raise ValidationError("reference must contain at least 2 samples")
    check_int(n_directions, "n_directions", minimum=1)

    out_vectors = _kernels.batched_outlyingness_vectors(
        data.values,
        reference.values,
        n_directions=n_directions,
        random_state=random_state,
        context=context,
        dtype=dtype,
    )
    return summarize_outlyingness(out_vectors, data.grid)


def check_dirout_method(method: str) -> str:
    """Validate a :func:`dirout_scores` method: ``total`` or ``mahalanobis``."""
    if method not in ("total", "mahalanobis"):
        raise ValidationError(f"unknown method {method!r}; use 'total' or 'mahalanobis'")
    return method


def dirout_scores(
    data,
    reference=None,
    method: str = "total",
    n_directions: int = 200,
    random_state=None,
    context=None,
    dtype=None,
) -> np.ndarray:
    """Dir.out outlyingness scores (higher = more anomalous).

    ``method="total"`` returns FO (the aggregate score used for AUC);
    ``method="mahalanobis"`` returns the robust Mahalanobis distance of
    each sample's ``(MO, VO)`` point w.r.t. the reference samples'
    ``(MO, VO)`` cloud, following Dai & Genton's detection rule.
    """
    check_dirout_method(method)
    decomposition = directional_outlyingness(
        data, reference, n_directions=n_directions, random_state=random_state,
        context=context, dtype=dtype,
    )
    if method == "total":
        return decomposition.total
    features = np.column_stack([decomposition.mean, decomposition.variation])
    location = np.median(features, axis=0)
    centered = features - location
    cov = np.atleast_2d(np.cov(features, rowvar=False))
    cov = cov + 1e-8 * np.trace(cov) / cov.shape[0] * np.eye(cov.shape[0])
    precision = np.linalg.pinv(cov)
    return np.sqrt(np.maximum(np.sum((centered @ precision) * centered, axis=1), 0.0))
