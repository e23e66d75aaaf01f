"""Memoization of the smoothing stack's linear-algebra artifacts.

Everything the penalized least-squares machinery computes is a pure
function of a small configuration tuple: the design matrix ``Phi``
(and each derivative design ``D^q Phi`` a mapping evaluates on its
grid) depends on (basis, grid, q); the roughness penalty ``R`` on (basis,
penalty order); the normal-equation factorization ``(Phi'Phi + λR)``
and the hat matrix ``S`` on (basis, grid, λ, penalty order).  The
experiment protocol (paper Sec. 4.1: 50 repetitions × 5 contamination
levels × 4 methods) re-derives those artifacts thousands of times for
a handful of distinct configurations.

:class:`FactorizationCache` memoizes all four artifact kinds behind
one bounded store so that each configuration is factorized at most
once per process.  Hit/miss counters (:class:`CacheStats`) make the
"at most once" claim testable.
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict
from dataclasses import dataclass, field

import numpy as np

from repro.exceptions import ValidationError
from repro.fda.basis.bspline import BSplineBasis
from repro.fda.penalty import penalty_matrix
from repro.telemetry import NULL_TELEMETRY
from repro.utils.linalg import PSDSolver

__all__ = ["CacheStats", "FactorizationCache"]


@dataclass
class CacheStats:
    """Build (miss) and hit counters per artifact kind."""

    design_builds: int = 0
    design_hits: int = 0
    penalty_builds: int = 0
    penalty_hits: int = 0
    factorizations: int = 0
    factorization_hits: int = 0
    hat_builds: int = 0
    hat_hits: int = 0

    @property
    def hits(self) -> int:
        return self.design_hits + self.penalty_hits + self.factorization_hits + self.hat_hits

    @property
    def builds(self) -> int:
        return self.design_builds + self.penalty_builds + self.factorizations + self.hat_builds

    def as_dict(self) -> dict:
        return {
            "design_builds": self.design_builds,
            "design_hits": self.design_hits,
            "penalty_builds": self.penalty_builds,
            "penalty_hits": self.penalty_hits,
            "factorizations": self.factorizations,
            "factorization_hits": self.factorization_hits,
            "hat_builds": self.hat_builds,
            "hat_hits": self.hat_hits,
        }

    def copy(self) -> "CacheStats":
        """An independent snapshot of the current counters."""
        return CacheStats(**self.as_dict())

    def __sub__(self, other: "CacheStats") -> "CacheStats":
        """Counter delta ``self - other`` — activity since a snapshot.

        Long-running services take a :meth:`copy` before handling a
        request and subtract it afterwards to attribute cache work (and
        verify "zero factorizations on the warm path") per request.
        """
        if not isinstance(other, CacheStats):
            return NotImplemented
        mine, theirs = self.as_dict(), other.as_dict()
        return CacheStats(**{key: mine[key] - theirs[key] for key in mine})


def _grid_key(points: np.ndarray) -> tuple:
    """Hashable identity of an evaluation grid (digest, not the bytes)."""
    points = np.ascontiguousarray(points, dtype=np.float64)
    digest = hashlib.blake2b(points.tobytes(), digest_size=16).digest()
    return (points.shape[0], digest)


class _BoundedStore:
    """A tiny LRU map: at most ``maxsize`` entries, oldest use evicted."""

    def __init__(self, maxsize: int):
        self.maxsize = maxsize
        self._data: OrderedDict = OrderedDict()

    def get(self, key):
        try:
            value = self._data[key]
        except KeyError:
            return None
        self._data.move_to_end(key)
        return value

    def put(self, key, value) -> None:
        self._data[key] = value
        self._data.move_to_end(key)
        while len(self._data) > self.maxsize:
            self._data.popitem(last=False)

    def __len__(self) -> int:
        return len(self._data)

    def clear(self) -> None:
        self._data.clear()


class FactorizationCache:
    """Shared memo of design/penalty matrices and normal-equation factors.

    Keys
    ----
    * design matrix: ``(basis.cache_key, grid, derivative)``
    * penalty matrix: ``(basis.cache_key, penalty_order)``
    * factorization / hat matrix: ``(basis.cache_key, grid, λ, penalty_order)``

    The cache is bounded (LRU per artifact kind) so long-running
    services with many transient configurations cannot grow it without
    limit.  All artifacts are computed through the exact same code path
    as the uncached smoother (``Phi' Phi + λ R`` then
    :class:`~repro.utils.linalg.PSDSolver`), so cached and uncached
    results are bit-identical.

    Parameters
    ----------
    maxsize:
        Maximum number of entries kept *per artifact kind*.
    """

    _KINDS = ("design", "penalty", "factorization", "hat")

    def __init__(self, maxsize: int = 256):
        if maxsize < 1:
            raise ValidationError(f"maxsize must be >= 1, got {maxsize}")
        self.maxsize = int(maxsize)
        self._designs = _BoundedStore(self.maxsize)
        self._penalties = _BoundedStore(self.maxsize)
        self._solvers = _BoundedStore(self.maxsize)
        self._hats = _BoundedStore(self.maxsize)
        self.stats = CacheStats()
        self.attach_telemetry(NULL_TELEMETRY)

    def attach_telemetry(self, telemetry) -> None:
        """Bind per-kind hit/build counters into ``telemetry``'s registry.

        The counters double the :class:`CacheStats` bookkeeping into
        ``engine_cache_hits_total{kind}`` / ``engine_cache_builds_total{kind}``
        so a scraped registry exposes the cache hit rate; with the null
        default every bound counter is a shared no-op.
        """
        self._tel_hits = {
            kind: telemetry.counter("engine_cache_hits_total", kind=kind)
            for kind in self._KINDS
        }
        self._tel_builds = {
            kind: telemetry.counter("engine_cache_builds_total", kind=kind)
            for kind in self._KINDS
        }

    # ------------------------------------------------------------------ artifacts
    def design(
        self, basis: BSplineBasis, points: np.ndarray, derivative: int = 0
    ) -> np.ndarray:
        """The design matrix ``D^q Phi`` of ``basis`` on ``points`` (``q = derivative``)."""
        key = (basis.cache_key, _grid_key(points), int(derivative))
        cached = self._designs.get(key)
        if cached is not None:
            self.stats.design_hits += 1
            self._tel_hits["design"].inc()
            return cached
        self.stats.design_builds += 1
        self._tel_builds["design"].inc()
        design = basis.evaluate(points, derivative=derivative)
        self._designs.put(key, design)
        return design

    def penalty(self, basis: BSplineBasis, penalty_order: int) -> np.ndarray:
        """The roughness penalty matrix ``R`` for ``basis``."""
        key = (basis.cache_key, int(penalty_order))
        cached = self._penalties.get(key)
        if cached is not None:
            self.stats.penalty_hits += 1
            self._tel_hits["penalty"].inc()
            return cached
        self.stats.penalty_builds += 1
        self._tel_builds["penalty"].inc()
        matrix = penalty_matrix(basis, derivative=penalty_order)
        self._penalties.put(key, matrix)
        return matrix

    def solver(
        self, basis: BSplineBasis, points: np.ndarray, smoothing: float, penalty_order: int
    ) -> PSDSolver:
        """Factorization of the normal matrix ``Phi'Phi + λ R`` (paper Eq. 4)."""
        key = (basis.cache_key, _grid_key(points), float(smoothing), int(penalty_order))
        cached = self._solvers.get(key)
        if cached is not None:
            self.stats.factorization_hits += 1
            self._tel_hits["factorization"].inc()
            return cached
        design = self.design(basis, points)
        normal = design.T @ design
        if smoothing > 0:
            normal = normal + smoothing * self.penalty(basis, penalty_order)
        self.stats.factorizations += 1
        self._tel_builds["factorization"].inc()
        solver = PSDSolver(normal)
        self._solvers.put(key, solver)
        return solver

    def hat(
        self, basis: BSplineBasis, points: np.ndarray, smoothing: float, penalty_order: int
    ) -> np.ndarray:
        """The hat matrix ``S = Phi (Phi'Phi + λR)^{-1} Phi'`` on ``points``."""
        key = (basis.cache_key, _grid_key(points), float(smoothing), int(penalty_order))
        cached = self._hats.get(key)
        if cached is not None:
            self.stats.hat_hits += 1
            self._tel_hits["hat"].inc()
            return cached
        design = self.design(basis, points)
        solver = self.solver(basis, points, smoothing, penalty_order)
        self.stats.hat_builds += 1
        self._tel_builds["hat"].inc()
        hat = design @ solver.solve(design.T)
        self._hats.put(key, hat)
        return hat

    # ------------------------------------------------------------------ admin
    def __len__(self) -> int:
        return len(self._designs) + len(self._penalties) + len(self._solvers) + len(self._hats)

    def clear(self) -> None:
        """Drop every cached artifact and reset the statistics."""
        self._designs.clear()
        self._penalties.clear()
        self._solvers.clear()
        self._hats.clear()
        self.stats = CacheStats()
