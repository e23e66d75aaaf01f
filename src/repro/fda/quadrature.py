"""Numerical quadrature over an interval or a sampled grid.

Functional-data pipelines integrate constantly: roughness penalties are
integrals of products of basis derivatives, functional depths integrate
pointwise depths over ``t``, and arc length integrates the path speed.
This module centralizes the quadrature rules so every component uses
the same, tested numerics.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Callable

import numpy as np

from repro.exceptions import ValidationError
from repro.utils.validation import check_grid, check_int, check_vector

__all__ = [
    "trapezoid_weights",
    "gauss_legendre_nodes",
    "integrate_function",
]


def trapezoid_weights(grid: np.ndarray) -> np.ndarray:
    """Composite trapezoid weights for a (possibly irregular) grid.

    ``w @ f(grid)`` approximates the integral of ``f`` over
    ``[grid[0], grid[-1]]``.
    """
    grid = check_grid(grid, "grid")
    steps = np.diff(grid)
    weights = np.zeros_like(grid)
    weights[:-1] += steps / 2.0
    weights[1:] += steps / 2.0
    return weights


@lru_cache(maxsize=8)
def _leggauss(n_nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """The ``n_nodes``-point rule on [-1, 1], computed once and read-only.

    Every penalty matrix integrates piecewise over each knot interval
    with the same rule, and ``leggauss`` solves an eigenproblem per call.
    """
    rule = np.polynomial.legendre.leggauss(n_nodes)
    for array in rule:
        array.flags.writeable = False
    return rule


def gauss_legendre_nodes(low: float, high: float, n_nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss–Legendre nodes and weights mapped to the interval [low, high].

    The arrays are new on every call; the caller may modify them.
    """
    n_nodes = check_int(n_nodes, "n_nodes", minimum=1)
    if not (np.isfinite(low) and np.isfinite(high)) or high <= low:
        raise ValidationError(f"invalid interval [{low}, {high}]")
    nodes, weights = _leggauss(n_nodes)
    half = 0.5 * (high - low)
    mid = 0.5 * (high + low)
    return mid + half * nodes, half * weights


def integrate_function(
    func: Callable[[np.ndarray], np.ndarray],
    low: float,
    high: float,
    n_nodes: int = 64,
    breakpoints: np.ndarray | None = None,
) -> float | np.ndarray:
    """Integrate a vectorized function with Gauss–Legendre quadrature.

    When ``breakpoints`` is given (e.g. the interior knots of a spline
    basis, across which derivatives are discontinuous), the rule is
    applied piecewise between consecutive breakpoints, which restores
    spectral accuracy for piecewise-smooth integrands.

    ``func`` must accept an array of points and return either an array of
    the same shape (scalar integrand) or an array with the point axis
    *first* and arbitrary trailing axes (vector/matrix integrand).
    """
    if breakpoints is None or np.size(breakpoints) == 0:
        pieces = np.array([low, high], dtype=np.float64)
    else:
        inner = check_vector(breakpoints, "breakpoints", min_length=1)
        inner = inner[(inner > low) & (inner < high)]
        pieces = np.unique(np.concatenate(([low], inner, [high])))
    total = None
    for left, right in zip(pieces[:-1], pieces[1:]):
        nodes, weights = gauss_legendre_nodes(left, right, n_nodes)
        values = np.asarray(func(nodes), dtype=np.float64)
        contribution = np.tensordot(weights, values, axes=(0, 0))
        total = contribution if total is None else total + contribution
    if np.ndim(total) == 0:
        return float(total)
    return total
