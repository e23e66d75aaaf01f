"""Loop oracles for the vectorized depth kernels.

These are the original per-pair, per-grid-point, per-point and
per-direction Python loops of :mod:`repro.depth`.  The package computes
every depth through the blocked kernels of :mod:`repro.depth._kernels`;
the tier-1 property suites pin those kernels to the loops here at
``rtol=1e-12``, and ``benchmarks/bench_gates.py`` times the kernels
against them.

The oracles draw random directions through the same
:func:`repro.depth._kernels.draw_directions` calls, in the same order,
as the kernels; they always compute in float64.  The package scores
no single point cloud, so the cloud input check and the p = 1
Stahel–Donoho helper of the loops live here.

The Isolation Forest section holds the depth-first grower that took a
min and max over every feature at each node to find the features it may
draw; a property test pins the production grower's node table, and the
draws it consumes, to it.

The serving section holds the stdlib-``json`` parse of a scoring
request body, which the HTTP front door used before it parsed with
orjson; a property test pins the production parse to it bit for bit.

Tier-1 tests import this module as ``oracles`` (pytest puts ``tests/``
on the path); the bench gates import ``tests.oracles``.
"""

import json

import numpy as np

from repro.depth import _kernels
from repro.depth._kernels import MAD_SCALE as _MAD_SCALE
from repro.depth.dirout import summarize_outlyingness
from repro.depth.funta import _resolve_pair
from repro.detectors.iforest import _NODE_KEYS
from repro.exceptions import ValidationError
from repro.fda.fdata import FDataGrid
from repro.serving.app import _parse_batch
from repro.utils.random import check_random_state
from repro.utils.validation import check_in_range, check_int, check_matrix

_HALF_PI = np.pi / 2.0


# --------------------------------------------------------------------------- FUNTA
def _crossing_angles(curve_a: np.ndarray, curve_b: np.ndarray, grid: np.ndarray) -> np.ndarray:
    """Acute tangent angles at the crossings of two sampled curves."""
    diff = curve_a - curve_b
    sign = np.sign(diff)
    # A crossing happens in interval j when the sign changes (or hits 0).
    change = np.nonzero((sign[:-1] * sign[1:]) < 0)[0]
    touch = np.nonzero(diff == 0.0)[0]
    intervals = set(change.tolist())
    for j in touch:
        intervals.add(min(int(j), len(grid) - 2))
    if not intervals:
        return np.empty(0)
    idx = np.fromiter(sorted(intervals), dtype=np.int64)
    dt = grid[idx + 1] - grid[idx]
    slope_a = (curve_a[idx + 1] - curve_a[idx]) / dt
    slope_b = (curve_b[idx + 1] - curve_b[idx]) / dt
    angles = np.abs(np.arctan(slope_a) - np.arctan(slope_b))
    # Fold to the acute angle in [0, pi/2].
    return np.minimum(angles, np.pi - angles)


def _funta_univariate(
    values: np.ndarray, ref_values: np.ndarray, grid: np.ndarray, trim: float, same: bool
) -> np.ndarray:
    n = values.shape[0]
    depth = np.empty(n)
    for i in range(n):
        collected = []
        for j in range(ref_values.shape[0]):
            if same and j == i:
                continue
            angles = _crossing_angles(values[i], ref_values[j], grid)
            if angles.size == 0:
                collected.append(np.array([_HALF_PI]))
            else:
                collected.append(angles)
        angles = np.concatenate(collected) if collected else np.empty(0)
        if angles.size == 0:
            depth[i] = 1.0
            continue
        if trim > 0:
            cutoff = np.quantile(angles, 1.0 - trim)
            kept = angles[angles <= cutoff]
            if kept.size:
                angles = kept
        depth[i] = 1.0 - float(np.mean(angles)) / _HALF_PI
    return np.clip(depth, 0.0, 1.0)


def funta_depth(data, reference=None, trim: float = 0.0) -> np.ndarray:
    """FUNTA pseudo-depth by the O(n²·m) pair loop (angles averaged over
    the p parameters of an :class:`MFDataGrid`)."""
    trim = check_in_range(trim, 0.0, 0.5, "trim", inclusive=(True, False))
    ref, same = _resolve_pair(data, reference)
    if isinstance(data, FDataGrid):
        return _funta_univariate(data.values, ref.values, data.grid, trim, same)
    per_param = [
        _funta_univariate(data.values[:, :, k], ref.values[:, :, k], data.grid, trim, same)
        for k in range(data.n_parameters)
    ]
    return np.mean(per_param, axis=0)


# --------------------------------------------------------------------------- point clouds
def _check_cloud(points, reference) -> tuple[np.ndarray, np.ndarray]:
    points = check_matrix(points, "points")
    reference = check_matrix(reference, "reference", min_rows=2)
    if points.shape[1] != reference.shape[1]:
        raise ValidationError(
            f"points have {points.shape[1]} coordinates but reference has "
            f"{reference.shape[1]}"
        )
    return points, reference


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
    """Stahel–Donoho outlyingness, one random direction at a time."""
    points, reference = _check_cloud(points, reference)
    p = reference.shape[1]
    if p == 1:
        return _directional_outlyingness_1d(points[:, 0], reference[:, 0])
    n_directions = check_int(n_directions, "n_directions", minimum=1)
    directions = _kernels.draw_directions(random_state, n_directions, p)
    proj_ref = reference @ directions.T        # (n_ref, n_dir)
    proj_pts = points @ directions.T           # (n_pts, n_dir)
    out = np.zeros(points.shape[0])
    for d in range(directions.shape[0]):
        out = np.maximum(
            out, _directional_outlyingness_1d(proj_pts[:, d], proj_ref[:, d])
        )
    return out


def projection_depth(
    points, reference, n_directions: int = 200, random_state=None
) -> np.ndarray:
    """Projection depth ``1 / (1 + SDO)`` over the per-direction loop."""
    return 1.0 / (1.0 + stahel_donoho_outlyingness(
        points, reference, n_directions, random_state
    ))


def halfspace_depth(
    points, reference, n_directions: int = 500, random_state=None
) -> np.ndarray:
    """Tukey halfspace depth, one random direction at a time for p > 1."""
    points, reference = _check_cloud(points, reference)
    p = reference.shape[1]
    if p == 1:
        below = (reference[:, 0][None, :] <= points[:, 0][:, None]).mean(axis=1)
        above = (reference[:, 0][None, :] >= points[:, 0][:, None]).mean(axis=1)
        return np.minimum(below, above)
    n_directions = check_int(n_directions, "n_directions", minimum=1)
    directions = _kernels.draw_directions(random_state, n_directions, p)
    proj_ref = reference @ directions.T
    proj_pts = points @ directions.T
    depth = np.full(points.shape[0], np.inf)
    for d in range(proj_ref.shape[1]):
        tail = (proj_ref[:, d][None, :] >= proj_pts[:, d][:, None]).mean(axis=1)
        other = (proj_ref[:, d][None, :] <= proj_pts[:, d][:, None]).mean(axis=1)
        depth = np.minimum(depth, np.minimum(tail, other))
    return depth


def spatial_depth(points, reference) -> np.ndarray:
    """Spatial (L1) depth, one query point at a time."""
    points, reference = _check_cloud(points, reference)
    depth = np.empty(points.shape[0])
    for i, x in enumerate(points):
        diffs = x[None, :] - reference
        norms = np.linalg.norm(diffs, axis=1)
        keep = norms > 1e-12
        if not keep.any():
            depth[i] = 1.0
            continue
        units = diffs[keep] / norms[keep, None]
        depth[i] = 1.0 - np.linalg.norm(units.mean(axis=0))
    return np.clip(depth, 0.0, 1.0)


# --------------------------------------------------------------------------- functional
_POINTWISE = {
    "projection": projection_depth,
    "halfspace": halfspace_depth,
    "spatial": spatial_depth,
}


def pointwise_depth_profile(
    data, reference=None, notion: str = "projection", **depth_kwargs
) -> np.ndarray:
    """Depth of every sample at every grid point, one grid point at a time."""
    if reference is None:
        reference = data
    depth_fn = _POINTWISE[notion]
    profile = np.empty((data.n_samples, data.n_points))
    for j in range(data.n_points):
        cloud = reference.values[:, j, :]
        pts = data.values[:, j, :]
        profile[:, j] = depth_fn(pts, cloud, **depth_kwargs)
    return profile


# --------------------------------------------------------------------------- Dir.out
def _spatial_median(cloud: np.ndarray, max_iter: int = 128, tol: float = 1e-9) -> np.ndarray:
    """Weiszfeld's algorithm for the geometric median of a point cloud.

    Converges (and exits early) once the update step drops below the
    scale-aware tolerance ``tol * (1 + |median|)`` — an absolute ``tol``
    alone never triggers on large-magnitude clouds, silently degrading
    to the full ``max_iter`` sweep.  The batched kernel
    (:func:`repro.depth._kernels.batched_spatial_median`) applies the
    same criterion per grid point.
    """
    median = cloud.mean(axis=0)
    for _ in range(max_iter):
        diffs = cloud - median
        norms = np.linalg.norm(diffs, axis=1)
        keep = norms > 1e-12
        if not keep.any():
            return median
        weights = 1.0 / norms[keep]
        new = (cloud[keep] * weights[:, None]).sum(axis=0) / weights.sum()
        if np.linalg.norm(new - median) < tol * (1.0 + np.linalg.norm(median)):
            return new
        median = new
    return median


def directional_outlyingness(data, reference=None, n_directions: int = 200, random_state=None):
    """The Dai–Genton (MO, VO, FO) decomposition, one grid point and one
    direction at a time."""
    if isinstance(data, FDataGrid):
        data = data.to_multivariate()
    if isinstance(reference, FDataGrid):
        reference = reference.to_multivariate()
    if reference is None:
        reference = data
    n, m, p = data.values.shape
    out_vectors = np.empty((n, m, p))
    for j in range(m):
        cloud = reference.values[:, j, :]
        pts = data.values[:, j, :]
        sdo = stahel_donoho_outlyingness(
            pts, cloud, n_directions=n_directions, random_state=random_state,
        )
        center = _spatial_median(cloud) if p > 1 else np.array([np.median(cloud[:, 0])])
        diffs = pts - center
        norms = np.linalg.norm(diffs, axis=1, keepdims=True)
        units = np.divide(diffs, norms, out=np.zeros_like(diffs), where=norms > 1e-12)
        out_vectors[:, j, :] = sdo[:, None] * units
    return summarize_outlyingness(out_vectors, data.grid)


# --------------------------------------------------------------------------- Isolation Forest
def _grow(sample, rows, level, height_limit, rng, ints, split, node=0) -> int:
    """Grow the subtree on ``rows`` depth-first from index ``node``; return the next free one.

    ``ints`` rows are feature, left, right (preset to -1), size and depth;
    ``split`` is preset to 0.  A left child always directly follows its parent.
    """
    ints[3, node], ints[4, node] = rows.size, level
    if level >= height_limit or rows.size <= 1:
        return node + 1
    sub = sample[rows]
    lo = sub.min(axis=0)
    hi = sub.max(axis=0)
    candidates = np.nonzero(hi > lo)[0]
    if candidates.size == 0:
        return node + 1  # all points identical
    feat = candidates[rng.integers(candidates.size)]
    threshold = rng.uniform(lo[feat], hi[feat])
    mask = sub[:, feat] < threshold
    if not 0 < np.count_nonzero(mask) < rows.size:
        return node + 1  # degenerate draw at the boundary
    right = _grow(sample, rows[mask], level + 1, height_limit, rng, ints, split, node + 1)
    ints[:3, node] = feat, node + 1, right
    split[node] = threshold
    return _grow(sample, rows[~mask], level + 1, height_limit, rng, ints, split, right)


def iforest_node_table(X, n_estimators, max_samples, random_state):
    """The node table ``IsolationForest(n_estimators, max_samples,
    random_state=random_state).fit(X)`` grows, as its exported ``fitted``
    dict: ``psi`` and the seven ``node_*`` arrays."""
    X = check_matrix(X, "X")
    rng = check_random_state(random_state)
    n = X.shape[0]
    psi = min(max_samples, n)
    if psi < 2:
        raise ValidationError("IsolationForest needs at least 2 training rows")
    height_limit = int(np.ceil(np.log2(psi)))
    ints, split = np.empty((5, 2 * psi - 1), dtype=np.int64), np.empty(2 * psi - 1)
    trees = []
    for _ in range(n_estimators):
        ints[:3], split[:] = -1, 0.0
        sample = X[rng.choice(n, size=psi, replace=False)]
        used = _grow(sample, np.arange(psi), 0, height_limit, rng, ints, split)
        trees.append((ints[:, :used].copy(), split[:used].copy()))
    feature, left, right, size, depth = np.concatenate([t[0] for t in trees], axis=1)
    offsets = np.cumsum([0] + [t[1].size for t in trees], dtype=np.int64)
    return {"psi": psi, **dict(zip(_NODE_KEYS, (
        offsets, feature, np.concatenate([t[1] for t in trees]), left, right, size, depth)))}


# --------------------------------------------------------------------------- serving
def parse_scoring_request(body: bytes, resolve):
    """``ServingApp._parse_scoring_request`` with the stdlib ``json`` parser
    only; ``resolve`` stands in for the app's pipeline-key lookup."""
    try:
        doc = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ValidationError(f"request body is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ValidationError(
            f"request body must be a JSON object, got {type(doc).__name__}"
        )
    key = doc.get("pipeline")
    if not isinstance(key, str) or not key:
        raise ValidationError("request body needs a 'pipeline' name or spec hash")
    return resolve(key), _parse_batch(doc)
