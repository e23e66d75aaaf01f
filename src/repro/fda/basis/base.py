"""Abstract basis system for functional approximation (paper Eq. 1).

A basis system is a finite family of functions ``phi_1 .. phi_L`` on a
closed interval ``T = [t_min, t_max]``.  A functional datum is
represented by its coefficient vector ``alpha`` via
``x~(t) = sum_l alpha_l * phi_l(t)`` and, by linearity (paper Eq. 2),
its q-th derivative by applying ``D^q`` to each basis function.
"""

from __future__ import annotations

import abc

import numpy as np

from repro.exceptions import BasisError
from repro.utils.validation import as_float_array, check_int

__all__ = ["Basis"]


class Basis(abc.ABC):
    """A finite basis of real functions on a closed interval.

    Parameters
    ----------
    domain:
        Tuple ``(t_min, t_max)`` with ``t_min < t_max``.
    n_basis:
        Number of basis functions ``L`` (the *basis size*).
    """

    def __init__(self, domain: tuple[float, float], n_basis: int):
        low, high = float(domain[0]), float(domain[1])
        if not (np.isfinite(low) and np.isfinite(high)) or high <= low:
            raise BasisError(f"domain must be a finite interval (low < high), got {domain!r}")
        self.domain = (low, high)
        self.n_basis = check_int(n_basis, "n_basis", minimum=1)

    # ------------------------------------------------------------------ API
    @abc.abstractmethod
    def _evaluate(self, points: np.ndarray, derivative: int) -> np.ndarray:
        """Return the (n_points, n_basis) design matrix of ``D^q phi_l``."""

    def _cache_key_extras(self) -> tuple:
        """Subclass hook: extra hashables that pin down the basis functions.

        The default covers bases fully determined by ``(type, domain,
        n_basis)``; bases with further shape parameters (e.g. B-spline
        order and knots) must extend it.
        """
        return ()

    def _config_extras(self) -> dict:
        """Subclass hook: extra JSON-able constructor arguments.

        Must mirror :meth:`to_config`: every key returned here is passed
        back to the constructor by
        :func:`repro.fda.basis.basis_from_config`.
        """
        return {}

    def to_config(self) -> dict:
        """JSON-able description that reconstructs this basis exactly.

        The config contains only plain Python scalars/lists (no arrays,
        no callables) so it can live in a persisted pipeline manifest;
        :func:`repro.fda.basis.basis_from_config` inverts it.  Two bases
        whose configs are equal have equal :attr:`cache_key`, hence
        bit-identical design matrices.
        """
        return {
            "type": type(self).__name__,
            "domain": [float(self.domain[0]), float(self.domain[1])],
            "n_basis": int(self.n_basis),
            **self._config_extras(),
        }

    @property
    def cache_key(self) -> tuple:
        """Hashable identity of the basis *functions* (not the instance).

        Two basis objects with equal keys evaluate to bit-identical
        design matrices, so engine caches may share artifacts between
        them (:class:`repro.engine.FactorizationCache`).
        """
        return (type(self).__name__, self.domain, self.n_basis, *self._cache_key_extras())

    @property
    def max_derivative(self) -> int:
        """Highest derivative order this basis can evaluate (inf-like default)."""
        return 16

    @property
    def interior_breakpoints(self) -> np.ndarray:
        """Points where derivatives may be discontinuous (used by quadrature).

        The default is none; B-splines return their interior knots.
        """
        return np.empty(0)

    def evaluate(self, points, derivative: int = 0) -> np.ndarray:
        """Evaluate all basis functions (or a derivative) at the given points.

        Parameters
        ----------
        points:
            1-D array of evaluation points inside the closed domain.
        derivative:
            Derivative order ``q >= 0``.

        Returns
        -------
        numpy.ndarray of shape ``(len(points), n_basis)``
            The design matrix ``Phi`` with ``Phi[j, l] = D^q phi_l(points[j])``.
        """
        derivative = check_int(derivative, "derivative", minimum=0)
        if derivative > self.max_derivative:
            raise BasisError(
                f"{type(self).__name__} supports derivatives up to order "
                f"{self.max_derivative}, got {derivative}"
            )
        pts = as_float_array(points, "points")
        if pts.ndim == 0:
            pts = pts[None]
        if pts.ndim != 1:
            raise BasisError(f"points must be scalar or 1-D, got shape {pts.shape}")
        low, high = self.domain
        eps = 1e-10 * max(1.0, abs(high - low))
        if pts.size and (pts.min() < low - eps or pts.max() > high + eps):
            raise BasisError(
                f"points must lie in the domain [{low}, {high}], "
                f"got range [{pts.min()}, {pts.max()}]"
            )
        pts = np.clip(pts, low, high)
        design = self._evaluate(pts, derivative)
        if design.shape != (pts.shape[0], self.n_basis):
            raise BasisError(
                f"basis evaluation returned shape {design.shape}, expected "
                f"{(pts.shape[0], self.n_basis)}"
            )
        return design

    def design_matrix(self, points) -> np.ndarray:
        """Alias of :meth:`evaluate` with ``derivative=0`` (paper's ``Phi_ik``)."""
        return self.evaluate(points, derivative=0)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(domain={self.domain}, n_basis={self.n_basis})"
