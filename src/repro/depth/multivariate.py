"""Pointwise statistical depth functions on R^p point clouds.

A depth function ranks points of a cloud from the centre outward
(Zuo & Serfling 2000): depth near 1 = deeply central, near 0 =
peripheral.  These are the building blocks that the functional
extensions (paper Sec. 1.2) apply at every ``t`` and then aggregate.

Implemented notions:

* **Mahalanobis depth** ``1 / (1 + d_M(x)^2)`` — moment-based, fast,
  not robust;
* **projection depth** (Zuo 2003) ``1 / (1 + SDO(x))`` with the
  Stahel–Donoho outlyingness ``SDO(x) = sup_u |u'x - med(u'X)| / MAD(u'X)``,
  exact in one dimension and approximated by random directions for
  p > 1 — this is the depth inside the Dir.out baseline;
* **halfspace (Tukey) depth** — exact in one dimension, random-direction
  approximation (upper bound, converging from above) for p > 1;
* **spatial depth** ``1 - |mean of unit vectors toward the cloud|``;
* **simplicial depth** (Liu 1990) — exact O(n^3) count for p = 2.
"""

from __future__ import annotations

import numpy as np

from repro.depth import _kernels
from repro.depth._kernels import MAD_SCALE as _MAD_SCALE
from repro.exceptions import ValidationError
from repro.utils.validation import check_int, check_matrix

__all__ = [
    "mahalanobis_depth",
    "stahel_donoho_outlyingness",
    "projection_depth",
    "halfspace_depth",
    "spatial_depth",
    "simplicial_depth",
]


def _check_cloud(points, reference) -> tuple[np.ndarray, np.ndarray]:
    points = check_matrix(points, "points")
    reference = check_matrix(reference, "reference", min_rows=2)
    if points.shape[1] != reference.shape[1]:
        raise ValidationError(
            f"points have {points.shape[1]} coordinates but reference has "
            f"{reference.shape[1]}"
        )
    return points, reference


def mahalanobis_depth(points, reference) -> np.ndarray:
    """Mahalanobis depth of ``points`` w.r.t. the cloud ``reference``."""
    points, reference = _check_cloud(points, reference)
    location = reference.mean(axis=0)
    cov = np.atleast_2d(np.cov(reference, rowvar=False))
    cov = cov + 1e-10 * np.trace(cov) / cov.shape[0] * np.eye(cov.shape[0])
    precision = np.linalg.pinv(cov)
    centered = points - location
    d_sq = np.maximum(np.sum((centered @ precision) * centered, axis=1), 0.0)
    return 1.0 / (1.0 + d_sq)


def _directional_outlyingness_1d(proj_points: np.ndarray, proj_ref: np.ndarray) -> np.ndarray:
    """|x - med| / MAD along one projection, with degenerate-MAD guard."""
    med = np.median(proj_ref)
    mad = _MAD_SCALE * np.median(np.abs(proj_ref - med))
    if mad < 1e-12:
        spread = np.std(proj_ref)
        mad = spread if spread > 1e-12 else 1.0
    return np.abs(proj_points - med) / mad


def stahel_donoho_outlyingness(
    points, reference, n_directions: int = 200, random_state=None
) -> np.ndarray:
    """Stahel–Donoho outlyingness ``sup_u |u'x - med| / MAD``.

    Exact for univariate clouds; for p > 1 the supremum is taken over
    ``n_directions`` random unit vectors (plus the coordinate axes,
    which stabilizes low-dimensional behaviour), with every direction's
    median/MAD evaluated in one batched sweep.
    """
    points, reference = _check_cloud(points, reference)
    p = reference.shape[1]
    if p == 1:
        return _directional_outlyingness_1d(points[:, 0], reference[:, 0])
    n_directions = check_int(n_directions, "n_directions", minimum=1)
    directions = _kernels.draw_directions(random_state, n_directions, p)
    proj_ref = reference @ directions.T        # (n_ref, n_dir)
    proj_pts = points @ directions.T           # (n_pts, n_dir)
    med = np.median(proj_ref, axis=0)
    mad = _MAD_SCALE * np.median(np.abs(proj_ref - med), axis=0)
    degenerate = mad < 1e-12
    if degenerate.any():
        std = np.std(proj_ref, axis=0)
        mad = np.where(degenerate, np.where(std > 1e-12, std, 1.0), mad)
    out = np.abs(proj_pts - med) / mad
    return out.max(axis=1)


def projection_depth(
    points, reference, n_directions: int = 200, random_state=None
) -> np.ndarray:
    """Projection depth ``1 / (1 + SDO)`` (Zuo 2003)."""
    sdo = stahel_donoho_outlyingness(points, reference, n_directions, random_state)
    return 1.0 / (1.0 + sdo)


def halfspace_depth(
    points,
    reference,
    n_directions: int = 500,
    random_state=None,
) -> np.ndarray:
    """Tukey halfspace depth, normalized to [0, 1/2].

    Exact in one dimension (minimum of the two empirical tail
    fractions); approximated by minimizing over random directions for
    p > 1 (the approximation can only overestimate the true depth),
    all directions at once via exact rank counting in memory-bounded
    blocks.
    """
    points, reference = _check_cloud(points, reference)
    n_ref, p = reference.shape
    if p == 1:
        below = (reference[:, 0][None, :] <= points[:, 0][:, None]).mean(axis=1)
        above = (reference[:, 0][None, :] >= points[:, 0][:, None]).mean(axis=1)
        return np.minimum(below, above)
    n_directions = check_int(n_directions, "n_directions", minimum=1)
    directions = _kernels.draw_directions(random_state, n_directions, p)
    return _kernels.halfspace_depth_cloud(points, reference, directions)


def spatial_depth(points, reference) -> np.ndarray:
    """Spatial (L1) depth: ``1 - |E[(x - X)/|x - X|]|``.

    Vectorized over all query points in memory-bounded blocks.
    """
    points, reference = _check_cloud(points, reference)
    return _kernels.spatial_depth_cloud(points, reference)


def simplicial_depth(points, reference) -> np.ndarray:
    """Simplicial depth for p = 2: fraction of triangles containing the point.

    Exact enumeration over all ``C(n, 3)`` reference triangles via a
    sign test; intended for modest cloud sizes (the functional
    aggregation calls it once per grid point).  Orientation signs are
    counted for whole (query-block × triangle-block) slabs at once.
    """
    points, reference = _check_cloud(points, reference)
    if reference.shape[1] != 2:
        raise ValidationError("simplicial_depth is implemented for p = 2 only")
    if reference.shape[0] < 3:
        raise ValidationError("simplicial_depth needs at least 3 reference points")
    return _kernels.simplicial_depth_cloud(points, reference)
