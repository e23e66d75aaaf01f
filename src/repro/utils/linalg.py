"""Small linear-algebra helpers used by the smoothing and detector code."""

from __future__ import annotations

import numpy as np
from scipy import linalg as sla

from repro.exceptions import ValidationError

__all__ = [
    "PSDSolver",
    "symmetrize",
    "pairwise_sq_dists",
    "row_blocks",
]


def symmetrize(matrix: np.ndarray) -> np.ndarray:
    """Return the symmetric part ``(A + A.T) / 2`` of a square matrix."""
    matrix = np.asarray(matrix, dtype=np.float64)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise ValidationError(f"matrix must be square, got shape {matrix.shape}")
    return 0.5 * (matrix + matrix.T)


class PSDSolver:
    """Reusable factorization of a (nearly) positive semi-definite matrix.

    Performs the robust factorization exactly once — Cholesky first; on
    failure a diagonal ridge of ``jitter * trace/n`` (escalating
    geometrically), and the pseudo-inverse as the last resort — and then
    solves any number of right-hand sides by cheap triangular
    back-substitution.  This is the standard robust path for penalized
    least-squares normal equations whose penalty matrix is singular
    (roughness penalties annihilate polynomials of low degree).  The engine
    cache (:mod:`repro.engine`) memoizes these objects so the smoothing
    stack pays for each normal-equation factorization at most once.
    """

    def __init__(self, matrix: np.ndarray, jitter: float = 1e-10):
        matrix = symmetrize(matrix)
        self.n = matrix.shape[0]
        scale = max(np.trace(matrix) / matrix.shape[0], 1.0)
        bump = jitter * scale
        self._chol = None
        self._pinv = None
        for _ in range(8):
            try:
                self._chol = sla.cho_factor(matrix, lower=True, check_finite=False)
                break
            except sla.LinAlgError:
                matrix = matrix + bump * np.eye(matrix.shape[0])
                bump *= 10.0
        else:
            self._pinv = np.linalg.pinv(matrix)

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """Solve ``matrix @ x = rhs`` using the stored factorization."""
        rhs = np.asarray(rhs, dtype=np.float64)
        if self._chol is not None:
            return sla.cho_solve(self._chol, rhs, check_finite=False)
        return self._pinv @ rhs


def row_blocks(
    n_rows: int, bytes_per_row: float, block_bytes: int, minimum: int = 1
) -> list[tuple[int, int]]:
    """Partition ``range(n_rows)`` into contiguous ``(start, stop)`` blocks.

    Each block's scratch footprint, ``rows * bytes_per_row``, stays at or
    below ``block_bytes`` (but never fewer than ``minimum`` rows per
    block, so a single huge row still gets processed).  The memory
    governor of the blocked depth kernels (:mod:`repro.depth._kernels`).
    """
    if n_rows <= 0:
        return []
    if block_bytes <= 0:
        raise ValidationError(f"block_bytes must be positive, got {block_bytes}")
    rows = int(block_bytes // max(bytes_per_row, 1.0))
    rows = max(rows, minimum)
    return [(start, min(start + rows, n_rows)) for start in range(0, n_rows, rows)]


def pairwise_sq_dists(a: np.ndarray, b: np.ndarray | None = None) -> np.ndarray:
    """Squared Euclidean distances between rows of ``a`` and rows of ``b``.

    Uses the expanded form ``|x|^2 + |y|^2 - 2 x.y`` and clips tiny
    negative values arising from floating-point cancellation.
    """
    a = np.asarray(a, dtype=np.float64)
    b = a if b is None else np.asarray(b, dtype=np.float64)
    if a.ndim != 2 or b.ndim != 2:
        raise ValidationError("pairwise_sq_dists expects 2-D arrays")
    if a.shape[1] != b.shape[1]:
        raise ValidationError(
            f"feature dimensions differ: {a.shape[1]} vs {b.shape[1]}"
        )
    a_sq = np.sum(a * a, axis=1)[:, None]
    b_sq = np.sum(b * b, axis=1)[None, :]
    dists = a_sq + b_sq - 2.0 * (a @ b.T)
    np.maximum(dists, 0.0, out=dists)
    return dists

