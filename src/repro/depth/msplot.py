"""Magnitude–shape (MS) plot analysis (Dai & Genton, JCGS 2018).

The companion tool to the Dir.out baseline: each sample is summarized by
the point ``(|MO|, VO)`` — mean directional outlyingness magnitude vs.
its variation.  Magnitude outliers sit far right, shape outliers far up,
mixed outliers in the upper-right corner.  Dai & Genton flag outliers by
the robust Mahalanobis distance of ``(MO, VO)`` exceeding an F/chi-square
cutoff; we implement the chi-square approximation on a trimmed
location/scatter estimate (shrinkage-regularized, as elsewhere in this
library) plus a simple quadrant rule that names the outlier type — the
interpretability output the paper's conclusion asks for.

``scipy.stats`` is imported inside :func:`ms_plot`, the one function
that needs it (for the chi-square quantile).  The rule for the whole
package: optional heavy dependencies are imported inside the function
that uses them, so importing an entry point loads only the code it
runs.  ``tests/test_import_budget.py`` enforces it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.depth.dirout import directional_outlyingness
from repro.exceptions import ValidationError
from repro.utils.validation import check_in_range

__all__ = ["MSPlotResult", "ms_plot"]

_TYPES = ("inlier", "magnitude", "shape", "mixed")


@dataclass(frozen=True)
class MSPlotResult:
    """The MS-plot coordinates, flags and type labels.

    Attributes
    ----------
    magnitude:
        ``|MO|`` per sample (x axis of the plot).
    shape:
        ``VO`` per sample (y axis of the plot).
    distance:
        Robust Mahalanobis distance of each ``(MO, VO)`` point.
    cutoff:
        The applied chi-square cutoff.
    outlier_mask:
        ``distance > cutoff``.
    types:
        One of ``"inlier"``, ``"magnitude"``, ``"shape"``, ``"mixed"``
        per sample (flagged samples classified by which coordinate
        exceeds its own robust quantile).
    """

    magnitude: np.ndarray
    shape: np.ndarray
    distance: np.ndarray
    cutoff: float
    outlier_mask: np.ndarray
    types: list


def ms_plot(
    data,
    reference=None,
    alpha: float = 0.993,
    n_directions: int = 200,
    random_state=None,
    context=None,
) -> MSPlotResult:
    """Compute MS-plot coordinates, outlier flags and type labels.

    Parameters
    ----------
    data, reference:
        As in :func:`repro.depth.directional_outlyingness`.
    alpha:
        Coverage probability of the chi-square cutoff (Dai & Genton use
        high coverage, e.g. 99.3%).
    n_directions, random_state:
        Projection-depth approximation controls.
    context:
        Passed through to the batched Dir.out kernels.
    """
    alpha = check_in_range(alpha, 0.5, 1.0, "alpha", inclusive=(False, False))
    decomposition = directional_outlyingness(
        data, reference, n_directions=n_directions, random_state=random_state,
        context=context,
    )
    features = np.column_stack([decomposition.mean, decomposition.variation])
    n, d = features.shape
    if n < d + 2:
        raise ValidationError("too few samples for the MS-plot scatter estimate")

    # Trimmed, shrinkage-regularized location/scatter (robust to the
    # outliers we are trying to find).
    center = np.median(features, axis=0)
    spread = features - center
    cov = np.atleast_2d(np.cov(features, rowvar=False))
    cov += 1e-8 * np.trace(cov) / d * np.eye(d)
    precision = np.linalg.pinv(cov)
    dist0 = np.sqrt(np.maximum(np.sum((spread @ precision) * spread, axis=1), 0.0))
    keep = dist0 <= np.quantile(dist0, 0.75)
    if keep.sum() >= d + 2:
        center = features[keep].mean(axis=0)
        cov = np.atleast_2d(np.cov(features[keep], rowvar=False))
        cov += 1e-8 * np.trace(cov) / d * np.eye(d)
        precision = np.linalg.pinv(cov)
    spread = features - center
    distance = np.sqrt(np.maximum(np.sum((spread @ precision) * spread, axis=1), 0.0))

    from scipy import stats

    cutoff = float(np.sqrt(stats.chi2.ppf(alpha, df=d)))
    outlier_mask = distance > cutoff

    magnitude = decomposition.mean_magnitude
    shape = decomposition.variation
    mag_cut = np.quantile(magnitude[~outlier_mask], 0.9) if (~outlier_mask).any() else 0.0
    shape_cut = np.quantile(shape[~outlier_mask], 0.9) if (~outlier_mask).any() else 0.0
    # Quadrant rule, batched: flagged samples exceeding only the
    # magnitude (resp. shape) quantile get that label; both or neither
    # (distance-flagged without a dominant axis) are "mixed".
    is_mag = magnitude > mag_cut
    is_shape = shape > shape_cut
    labels = np.select(
        [~outlier_mask, is_mag & ~is_shape, is_shape & ~is_mag],
        ["inlier", "magnitude", "shape"],
        default="mixed",
    )
    types = labels.tolist()
    return MSPlotResult(
        magnitude=magnitude,
        shape=shape,
        distance=distance,
        cutoff=cutoff,
        outlier_mask=outlier_mask,
        types=types,
    )
