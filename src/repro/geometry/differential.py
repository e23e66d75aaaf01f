"""Differential geometry of paths in R^p evaluated on grids.

A multivariate functional datum is a path ``X : T -> R^p``.  Given its
velocity ``v = D^1 X`` and acceleration ``a = D^2 X`` sampled on a grid,
these functions compute the classical differential invariants used by
the mapping functions:

* **speed** ``|v|`` and **arc length** (its integral),
* **curvature** (paper Eq. 5) via the Lagrange-identity form::

      kappa = sqrt(|v|^2 |a|^2 - (v . a)^2) / |v|^3

  (evaluated as ``|v| |a_perp| / |v|^3`` with ``a_perp`` the part of
  ``a`` normal to ``v``, which avoids the subtraction), which equals ``|D(v/|v|)| / |v|`` wherever ``|v| > 0`` — exactly the
  paper's definition — while avoiding differentiating a quotient
  numerically,
* **torsion** (p = 3) from the scalar triple product with the jerk,
* **tangent angle** (p = 2), the turning angle of the velocity.

All functions are vectorized over samples: inputs have shape
``(n_samples, n_points, p)``.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import ValidationError
from repro.fda.quadrature import trapezoid_weights
from repro.utils.validation import as_float_array, check_grid

__all__ = [
    "speed",
    "arc_length",
    "cumulative_arc_length",
    "curvature",
    "torsion",
    "tangent_angle",
    "turning_rate",
]

#: Floor applied to speed denominators; paths with |v| below this are
#: treated as momentarily stationary and the invariant is damped to 0
#: rather than exploding.
SPEED_FLOOR = 1e-10


def _check_path_array(values, name: str, min_dim: int = 1) -> np.ndarray:
    array = as_float_array(values, name)
    if array.ndim == 2:
        array = array[None, :, :]
    if array.ndim != 3:
        raise ValidationError(
            f"{name} must have shape (n_samples, n_points, p), got {array.shape}"
        )
    if array.shape[2] < min_dim:
        raise ValidationError(
            f"{name} needs at least p={min_dim} coordinates, got p={array.shape[2]}"
        )
    return array


def speed(velocity) -> np.ndarray:
    """Pointwise speed ``|D^1 X(t)|`` → shape ``(n_samples, n_points)``."""
    velocity = _check_path_array(velocity, "velocity")
    return np.linalg.norm(velocity, axis=2)


def arc_length(velocity, grid) -> np.ndarray:
    """Total arc length of each path: the integral of the speed over T."""
    grid = check_grid(grid, "grid")
    spd = speed(velocity)
    if spd.shape[1] != grid.shape[0]:
        raise ValidationError(
            f"velocity has {spd.shape[1]} points but grid has {grid.shape[0]}"
        )
    return spd @ trapezoid_weights(grid)


def cumulative_arc_length(velocity, grid) -> np.ndarray:
    """Running arc length ``s(t)`` per sample → ``(n_samples, n_points)``.

    ``s(t_0) = 0`` and ``s`` is nondecreasing; used for arc-length
    reparameterization features.
    """
    grid = check_grid(grid, "grid")
    spd = speed(velocity)
    if spd.shape[1] != grid.shape[0]:
        raise ValidationError(
            f"velocity has {spd.shape[1]} points but grid has {grid.shape[0]}"
        )
    steps = np.diff(grid)
    segments = 0.5 * (spd[:, :-1] + spd[:, 1:]) * steps[None, :]
    result = np.zeros_like(spd)
    np.cumsum(segments, axis=1, out=result[:, 1:])
    return result


def curvature(velocity, acceleration, regularization: float = 0.0) -> np.ndarray:
    """Curvature of each path at each point (paper Eq. 5).

    Parameters
    ----------
    velocity, acceleration:
        Arrays of shape ``(n_samples, n_points, p)`` holding ``D^1 X``
        and ``D^2 X`` evaluated on a common grid.
    regularization:
        Optional relative Tikhonov damping of the denominator:
        ``kappa_reg = |v ∧ a| / (|v|^2 + (reg * s_i)^2)^{3/2}`` where
        ``s_i`` is sample i's RMS speed.  Paths whose parametrization
        momentarily stalls (``|v| -> 0`` — e.g. the paper's (x, x^2)
        augmentation at every critical point of x) have an unstable 0/0
        curvature there; the damping sends the regularized curvature to
        0 at such points instead of amplifying fitting noise by
        ``1/|v|^3``.  ``0`` (default) recovers the textbook definition.

    Returns
    -------
    numpy.ndarray of shape ``(n_samples, n_points)``

    Notes
    -----
    Uses ``|v ∧ a| = |v| |a_perp|`` with ``a_perp = a - (v.a / |v|^2) v``
    the acceleration's component normal to the velocity, valid in any
    dimension ``p >= 1``; for ``p = 1`` ``a_perp`` vanishes so
    straight-line motion correctly has zero curvature.  The equivalent
    Lagrange form ``|v|^2 |a|^2 - (v.a)^2`` subtracts two nearly equal
    squares where the path is almost straight, losing about half the
    significant digits of a small curvature; the projection keeps them.
    """
    velocity = _check_path_array(velocity, "velocity")
    acceleration = _check_path_array(acceleration, "acceleration")
    if velocity.shape != acceleration.shape:
        raise ValidationError(
            f"velocity shape {velocity.shape} != acceleration shape {acceleration.shape}"
        )
    if regularization < 0:
        raise ValidationError(f"regularization must be >= 0, got {regularization}")
    v_sq = np.sum(velocity**2, axis=2)
    va = np.sum(velocity * acceleration, axis=2)
    along = np.divide(va, v_sq, out=np.zeros_like(va), where=v_sq > 0)
    normal = acceleration - along[:, :, None] * velocity
    wedge_sq = v_sq * np.sum(normal**2, axis=2)
    if regularization > 0:
        rms_speed_sq = np.mean(v_sq, axis=1, keepdims=True)
        damping = (regularization**2) * rms_speed_sq
        denom = (v_sq + np.maximum(damping, SPEED_FLOOR)) ** 1.5
    else:
        denom = np.maximum(v_sq, SPEED_FLOOR) ** 1.5
    return np.sqrt(wedge_sq) / denom


def torsion(velocity, acceleration, jerk) -> np.ndarray:
    """Torsion of 3-D paths: ``det(v, a, j) / |v x a|^2``.

    Only defined for ``p = 3``.  Points where the path is locally planar
    (``|v x a| ~ 0``) get torsion 0 rather than an unstable quotient.
    """
    velocity = _check_path_array(velocity, "velocity", min_dim=3)
    acceleration = _check_path_array(acceleration, "acceleration", min_dim=3)
    jerk = _check_path_array(jerk, "jerk", min_dim=3)
    if velocity.shape[2] != 3:
        raise ValidationError(f"torsion requires p=3 paths, got p={velocity.shape[2]}")
    if not (velocity.shape == acceleration.shape == jerk.shape):
        raise ValidationError("velocity, acceleration and jerk must share a shape")
    cross = np.cross(velocity, acceleration)
    cross_sq = np.sum(cross**2, axis=2)
    det = np.sum(cross * jerk, axis=2)
    out = np.zeros_like(det)
    ok = cross_sq > SPEED_FLOOR
    out[ok] = det[ok] / cross_sq[ok]
    return out


def tangent_angle(velocity) -> np.ndarray:
    """Unwrapped angle of the 2-D tangent vector along each path.

    Only defined for ``p = 2``.  The angle is unwrapped along ``t`` so
    that full turns accumulate; its derivative w.r.t. arc length is the
    signed curvature.
    """
    velocity = _check_path_array(velocity, "velocity", min_dim=2)
    if velocity.shape[2] != 2:
        raise ValidationError(f"tangent_angle requires p=2 paths, got p={velocity.shape[2]}")
    angles = np.arctan2(velocity[:, :, 1], velocity[:, :, 0])
    return np.unwrap(angles, axis=1)


def turning_rate(velocity, acceleration) -> np.ndarray:
    """Signed curvature for 2-D paths: ``(v_x a_y - v_y a_x) / |v|^3``.

    The absolute value of this equals :func:`curvature` for ``p = 2``;
    the sign encodes turning direction (left/right), which the unsigned
    curvature discards.
    """
    velocity = _check_path_array(velocity, "velocity", min_dim=2)
    acceleration = _check_path_array(acceleration, "acceleration", min_dim=2)
    if velocity.shape[2] != 2:
        raise ValidationError(f"turning_rate requires p=2 paths, got p={velocity.shape[2]}")
    if velocity.shape != acceleration.shape:
        raise ValidationError("velocity and acceleration must share a shape")
    numer = velocity[:, :, 0] * acceleration[:, :, 1] - velocity[:, :, 1] * acceleration[:, :, 0]
    v_sq = np.sum(velocity**2, axis=2)
    denom = np.maximum(v_sq, SPEED_FLOOR) ** 1.5
    return numer / denom
