"""FUNTA — functional tangential angle pseudo-depth (Kuhnt & Rehage 2016).

The baseline the paper compares against for *shape* outliers.  The idea:
a curve that is shaped like the bulk of the data crosses other curves at
shallow angles; a shape outlier crosses them steeply.  For each ordered
pair of curves, every crossing contributes the (acute) angle between the
two tangent lines at the crossing; a curve's pseudo-depth is

    FUNTA(x_i) = 1 - mean over all crossings with reference curves of
                 gamma / (pi/2)          in [0, 1]

so central curves get depth near 1.  Following the original definition
we also provide the *robustified* variant (``trim``) that discards the
largest angles before averaging, and the multivariate extension of the
paper (Sec. 1.2): compute the angle statistic per parameter and average
over the p parameters.

Design choices documented for reproducibility:

* tangent slopes at a crossing are the finite-difference slopes of the
  two curves on the crossing interval;
* a pair of curves that never crosses contributes a single maximal
  angle (pi/2) — a curve isolated in level is maximally atypical for
  this notion, which keeps the score defined for every sample;
* the returned *outlyingness* used in experiments is ``1 - FUNTA``;
* out-of-sample scoring passes a ``reference`` set: test curves are
  compared against the training curves only.

Known limitation (inherent to the angle notion, not this
implementation): for curves whose slopes are large relative to the
``t`` scale, ``arctan`` saturates near ±pi/2 and steep-vs-steep
crossings yield *small* line angles regardless of shape, so FUNTA's
discrimination degrades on fast oscillations — it targets gentle-slope
shape outliers (trend changes), cf. the original paper's examples.
"""

from __future__ import annotations

import numpy as np

from repro.depth import _kernels
from repro.exceptions import ValidationError
from repro.fda.fdata import FDataGrid, MFDataGrid
from repro.utils.validation import check_in_range

__all__ = ["funta_depth", "funta_outlyingness"]


def _resolve_pair(data, reference):
    if reference is None:
        return data, True
    if type(reference) is not type(data):
        raise ValidationError("data and reference must be the same container type")
    if reference.n_points != data.n_points or not np.allclose(reference.grid, data.grid):
        raise ValidationError("data and reference must share a grid")
    return reference, False


def check_trim(trim) -> float:
    """Validate the robustified variant's trimmed fraction, in [0, 0.5)."""
    return check_in_range(trim, 0.0, 0.5, "trim", inclusive=(True, False))


def funta_depth(
    data,
    reference=None,
    trim: float = 0.0,
    context=None,
    dtype=None,
) -> np.ndarray:
    """FUNTA pseudo-depth per sample (higher = more central).

    Parameters
    ----------
    data:
        :class:`FDataGrid` (univariate) or :class:`MFDataGrid`
        (angles averaged over the p parameters, as the paper describes).
    reference:
        Curves defining "typical" (default: the data themselves, with
        self-pairs excluded).
    trim:
        Robustification: fraction of the *largest* angles discarded per
        sample before averaging (0 = original FUNTA).
    context:
        Optional :class:`~repro.engine.ExecutionContext` whose worker
        pool fans out sample blocks (bit-identical to serial).
    dtype:
        Kernel compute precision (float64 default, float32 fast path).
    """
    trim = check_trim(trim)

    def univariate(values, ref_values, grid, same):
        return _kernels.funta_univariate(
            values, ref_values, grid, trim, same,
            context=context, dtype=dtype,
        )

    if isinstance(data, FDataGrid):
        ref, same = _resolve_pair(data, reference)
        if ref.n_samples < 2:
            raise ValidationError("funta_depth needs at least 2 reference curves")
        return univariate(data.values, ref.values, data.grid, same)
    if isinstance(data, MFDataGrid):
        ref, same = _resolve_pair(data, reference)
        if ref.n_samples < 2:
            raise ValidationError("funta_depth needs at least 2 reference curves")
        per_param = [
            univariate(data.values[:, :, k], ref.values[:, :, k], data.grid, same)
            for k in range(data.n_parameters)
        ]
        return np.mean(per_param, axis=0)
    raise ValidationError(
        f"data must be FDataGrid or MFDataGrid, got {type(data).__name__}"
    )


def funta_outlyingness(
    data,
    reference=None,
    trim: float = 0.0,
    context=None,
    dtype=None,
) -> np.ndarray:
    """Outlyingness score ``1 - FUNTA`` (higher = more anomalous)."""
    return 1.0 - funta_depth(
        data, reference=reference, trim=trim, context=context, dtype=dtype
    )
