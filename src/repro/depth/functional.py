"""Functional depth: pointwise depths aggregated over ``t``.

This module implements the depth-based MFD machinery the paper reviews
(Sec. 1.2) — and whose failure modes (issues (1)–(3)) motivate the
geometric alternative:

* the **integrated** aggregation (Fraiman–Muniz 2001 for UFD; Claeskens
  et al. 2014 for MFD): the sample depth is the integral over ``t`` of
  the pointwise depth — an *average* that can mask isolated outliers
  (issue (2));
* the **infimum** aggregation, the remedy the paper mentions for
  issue (2);
* the **modified band depth** (López-Pintado & Romo 2009), a popular
  UFD depth included for completeness and for the taxonomy benches.
"""

from __future__ import annotations

import numpy as np

from repro.depth import _kernels
from repro.exceptions import ValidationError
from repro.fda.fdata import FDataGrid, MFDataGrid
from repro.fda.quadrature import trapezoid_weights
from repro.utils.validation import check_grid, check_int

__all__ = [
    "pointwise_depth_profile",
    "aggregate_depth",
    "functional_depth",
    "univariate_integrated_depth",
    "modified_band_depth",
]

_NOTIONS = ("projection", "halfspace", "mahalanobis", "spatial", "simplicial")


def pointwise_depth_profile(
    data: MFDataGrid,
    reference: MFDataGrid | None = None,
    notion: str = "projection",
    block_bytes: int | None = None,
    context=None,
    dtype=None,
    **depth_kwargs,
) -> np.ndarray:
    """Depth of every sample at every grid point → ``(n_samples, n_points)``.

    At each ``t`` the cross-section ``{X_i(t)}`` of ``reference``
    (default: the data themselves) forms a cloud in R^p and the chosen
    pointwise depth is evaluated on it.  The whole
    ``(n_samples × n_points)`` computation runs on the blocked kernels
    of :mod:`repro.depth._kernels` (scratch bounded by ``block_bytes``;
    ``context`` optionally fans blocks out across its worker pool with
    bit-identical results; ``dtype`` selects the kernel compute
    precision — float64 default, float32 fast path).
    """
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
    if notion not in _NOTIONS:
        raise ValidationError(
            f"unknown depth notion {notion!r}; choose from {sorted(_NOTIONS)}"
        )
    if "n_directions" in depth_kwargs:
        check_int(depth_kwargs["n_directions"], "n_directions", minimum=1)
    return _kernels.pointwise_profile(
        data.values,
        reference.values,
        notion,
        block_bytes=block_bytes,
        context=context,
        dtype=dtype,
        **depth_kwargs,
    )


def aggregate_depth(profile: np.ndarray, grid, aggregation: str = "integral") -> np.ndarray:
    """Aggregate pointwise depths to sample depths.

    ``"integral"``: normalized integral over T (average depth — the
    classical extension); ``"infimum"``: worst pointwise depth (robust
    to isolated masking, paper issue (2)).
    """
    grid = check_grid(grid, "grid")
    profile = np.asarray(profile, dtype=np.float64)
    if profile.ndim != 2 or profile.shape[1] != grid.shape[0]:
        raise ValidationError(
            f"profile shape {profile.shape} incompatible with grid length {grid.shape[0]}"
        )
    if aggregation == "integral":
        weights = trapezoid_weights(grid)
        return (profile @ weights) / (grid[-1] - grid[0])
    if aggregation == "infimum":
        return profile.min(axis=1)
    raise ValidationError(
        f"unknown aggregation {aggregation!r}; use 'integral' or 'infimum'"
    )


def functional_depth(
    data: MFDataGrid,
    reference: MFDataGrid | None = None,
    notion: str = "projection",
    aggregation: str = "integral",
    block_bytes: int | None = None,
    context=None,
    **depth_kwargs,
) -> np.ndarray:
    """Sample-level functional depth of MFD (higher = more central)."""
    profile = pointwise_depth_profile(
        data, reference, notion, block_bytes=block_bytes,
        context=context, **depth_kwargs,
    )
    ref = data if reference is None else reference
    return aggregate_depth(profile, ref.grid, aggregation)


def univariate_integrated_depth(
    data: FDataGrid,
    reference: FDataGrid | None = None,
    aggregation: str = "integral",
    block_bytes: int | None = None,
    context=None,
) -> np.ndarray:
    """Fraiman–Muniz depth of UFD: integrated univariate halfspace depth."""
    if not isinstance(data, FDataGrid):
        raise ValidationError(f"data must be FDataGrid, got {type(data).__name__}")
    mfd = data.to_multivariate()
    ref = reference.to_multivariate() if reference is not None else None
    return functional_depth(
        mfd, ref, notion="halfspace", aggregation=aggregation,
        block_bytes=block_bytes, context=context,
    )


def _check_mbd_inputs(data: FDataGrid, reference: FDataGrid | None) -> np.ndarray:
    if not isinstance(data, FDataGrid):
        raise ValidationError(f"data must be FDataGrid, got {type(data).__name__}")
    if reference is None:
        reference = data
    if reference.n_points != data.n_points or not np.allclose(reference.grid, data.grid):
        raise ValidationError("data and reference must share a grid")
    ref = reference.values
    if ref.shape[0] < 2:
        raise ValidationError("modified_band_depth needs at least 2 reference curves")
    return ref


def modified_band_depth(data: FDataGrid, reference: FDataGrid | None = None) -> np.ndarray:
    """Modified band depth (J = 2) of univariate functional data.

    ``MBD_i`` is the average, over reference-curve pairs ``{j, k}`` and
    grid points ``t``, of the indicator that ``x_i(t)`` lies inside the
    band ``[min(x_j, x_k)(t), max(x_j, x_k)(t)]``.

    Computed by the rank-count identity rather than the explicit pair
    loop: at each ``t`` the pairs whose band *misses* ``x`` are exactly
    those drawn entirely from the references strictly below ``x`` or
    entirely from those strictly above, so with ``b`` references below
    and ``a`` above the covering count is
    ``C(n,2) - C(b,2) - C(a,2)`` — an O(n·m·log n) computation instead
    of the O(n²·m) pair sweep.
    """
    ref = _check_mbd_inputs(data, reference)
    n_ref = ref.shape[0]
    values = data.values
    sorted_ref = np.sort(ref, axis=0)
    below = np.empty(values.shape, dtype=np.int64)
    above = np.empty(values.shape, dtype=np.int64)
    for j in range(values.shape[1]):
        column = np.ascontiguousarray(sorted_ref[:, j])
        below[:, j] = np.searchsorted(column, values[:, j], side="left")
        above[:, j] = n_ref - np.searchsorted(column, values[:, j], side="right")
    n_pairs = n_ref * (n_ref - 1) // 2
    missing = below * (below - 1) // 2 + above * (above - 1) // 2
    covering = n_pairs - missing
    return covering.mean(axis=1) / n_pairs

