"""B-spline basis implemented with the Cox–de Boor recursion (paper Eq. 1).

A basis system is a finite family of functions ``phi_1 .. phi_L`` on a
closed interval ``T = [t_min, t_max]``.  A functional datum is
represented by its coefficient vector ``alpha`` via
``x~(t) = sum_l alpha_l * phi_l(t)`` and, by linearity (paper Eq. 2),
its q-th derivative by applying ``D^q`` to each basis function.

The paper (Sec. 2.1) represents smooth functional data in a B-spline
basis — piecewise polynomials of a given order glued smoothly at knots.
This implementation builds the basis from first principles:

* knot vector: *open uniform* (clamped) — the boundary knots are repeated
  ``order`` times so the basis spans polynomials on the closed domain and
  interpolation at the boundaries is possible;
* evaluation: Cox–de Boor recursion, vectorized over evaluation points;
* derivatives: the classical derivative formula expressing ``D B_{l,k}``
  as a difference of order ``k-1`` B-splines, applied recursively.

The unit tests validate every value against :class:`scipy.interpolate.BSpline`.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import BasisError
from repro.utils.validation import as_float_array, check_int, check_vector

__all__ = ["BSplineBasis"]


class BSplineBasis:
    """Clamped B-spline basis on a closed interval.

    Parameters
    ----------
    domain:
        Closed interval ``(t_min, t_max)``.
    n_basis:
        Number of basis functions ``L``; must satisfy ``L >= order``.
    order:
        Spline order ``k`` (polynomial degree ``k - 1``).  The default
        ``order=4`` gives cubic splines, the standard choice when second
        derivatives are needed (as for the curvature mapping, Eq. 5).
    knots:
        Optional explicit *interior* knots (strictly increasing, inside
        the open domain).  When omitted, ``n_basis - order`` interior
        knots are placed uniformly.
    """

    def __init__(
        self,
        domain: tuple[float, float],
        n_basis: int,
        order: int = 4,
        knots=None,
    ):
        low, high = float(domain[0]), float(domain[1])
        if not (np.isfinite(low) and np.isfinite(high)) or high <= low:
            raise BasisError(f"domain must be a finite interval (low < high), got {domain!r}")
        self.domain = (low, high)
        self.n_basis = check_int(n_basis, "n_basis", minimum=1)
        self.order = check_int(order, "order", minimum=1)
        if self.n_basis < self.order:
            raise BasisError(
                f"n_basis ({self.n_basis}) must be >= order ({self.order})"
            )
        n_interior = self.n_basis - self.order
        if knots is None:
            if n_interior > 0:
                interior = np.linspace(low, high, n_interior + 2)[1:-1]
            else:
                interior = np.empty(0)
        else:
            interior = check_vector(knots, "knots", min_length=0) if len(knots) else np.empty(0)
            if interior.size:
                if np.any(np.diff(interior) <= 0):
                    raise BasisError("interior knots must be strictly increasing")
                if interior.min() <= low or interior.max() >= high:
                    raise BasisError("interior knots must lie strictly inside the domain")
            if interior.size != n_interior:
                raise BasisError(
                    f"need exactly n_basis - order = {n_interior} interior knots, "
                    f"got {interior.size}"
                )
        self._interior = interior
        self.knot_vector = np.concatenate(
            (np.full(self.order, low), interior, np.full(self.order, high))
        )

    # ------------------------------------------------------------------ info
    def to_config(self) -> dict:
        """JSON-able description that reconstructs this basis exactly.

        The config contains only plain Python scalars/lists (no arrays,
        no callables) so it can live in a persisted pipeline manifest;
        :func:`repro.fda.basis.basis_from_config` inverts it.  Two bases
        whose configs are equal have equal :attr:`cache_key`, hence
        bit-identical design matrices.
        """
        return {
            "type": "BSplineBasis",
            "domain": [float(self.domain[0]), float(self.domain[1])],
            "n_basis": int(self.n_basis),
            "order": int(self.order),
            "knots": [float(t) for t in self._interior],
        }

    @property
    def cache_key(self) -> tuple:
        """Hashable identity of the basis *functions* (not the instance).

        Two basis objects with equal keys evaluate to bit-identical
        design matrices, so engine caches may share artifacts between
        them (:class:`repro.engine.FactorizationCache`).
        """
        return ("BSplineBasis", self.domain, self.n_basis, self.order, self._interior.tobytes())

    @property
    def degree(self) -> int:
        """Polynomial degree of the spline pieces (``order - 1``)."""
        return self.order - 1

    @property
    def max_derivative(self) -> int:
        """Highest derivative order this basis can evaluate (the degree)."""
        return self.degree

    @property
    def interior_breakpoints(self) -> np.ndarray:
        """Interior knots: where derivatives may jump (used by quadrature)."""
        return self._interior.copy()

    # ------------------------------------------------------------ evaluation
    def _zeroth_order(self, points: np.ndarray) -> np.ndarray:
        """Order-1 (piecewise constant) B-splines: indicator of the knot span.

        Returns an ``(n_points, len(knot_vector) - 1)`` matrix.  The last
        span is closed on the right so the basis sums to one on the whole
        closed domain, including the right endpoint.
        """
        knots = self.knot_vector
        n_spans = knots.shape[0] - 1
        design = np.zeros((points.shape[0], n_spans))
        # Index of the last knot strictly <= point, capped to the final
        # *non-degenerate* span for points at the right boundary.
        last_real = np.max(np.nonzero(np.diff(knots) > 0)[0])
        span = np.searchsorted(knots, points, side="right") - 1
        span = np.clip(span, 0, last_real)
        at_right = points >= knots[-1]
        span[at_right] = last_real
        design[np.arange(points.shape[0]), span] = 1.0
        return design

    def _raise_order(self, design: np.ndarray, points: np.ndarray, target_order: int) -> np.ndarray:
        """Apply the Cox–de Boor recursion up to ``target_order``."""
        knots = self.knot_vector
        for k in range(2, target_order + 1):
            n_funcs = knots.shape[0] - k
            new = np.zeros((points.shape[0], n_funcs))
            for l in range(n_funcs):
                left_den = knots[l + k - 1] - knots[l]
                right_den = knots[l + k] - knots[l + 1]
                term = 0.0
                if left_den > 0:
                    term = term + ((points - knots[l]) / left_den) * design[:, l]
                if right_den > 0:
                    term = term + ((knots[l + k] - points) / right_den) * design[:, l + 1]
                new[:, l] = term
            design = new
        return design

    def _evaluate_order(self, points: np.ndarray, order: int) -> np.ndarray:
        """Evaluate all B-splines of the given order on the shared knot vector."""
        design = self._zeroth_order(points)
        if order > 1:
            design = self._raise_order(design, points, order)
        return design

    def evaluate(self, points, derivative: int = 0) -> np.ndarray:
        """Evaluate all basis functions (or a derivative) at the given points.

        Parameters
        ----------
        points:
            1-D array of evaluation points inside the closed domain.
        derivative:
            Derivative order ``0 <= q <= degree``.

        Returns
        -------
        numpy.ndarray of shape ``(len(points), n_basis)``
            The design matrix ``Phi`` with ``Phi[j, l] = D^q phi_l(points[j])``.
        """
        derivative = check_int(derivative, "derivative", minimum=0)
        if derivative > self.max_derivative:
            raise BasisError(
                f"BSplineBasis supports derivatives up to order "
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
        if derivative == 0:
            return self._evaluate_order(pts, self.order)
        # Differentiate via the B-spline derivative recursion:
        # D B_{l,k}(t) = (k-1) * [ B_{l,k-1}/(u_{l+k-1}-u_l) - B_{l+1,k-1}/(u_{l+k}-u_{l+1}) ]
        # Implemented as a banded linear map applied `derivative` times.
        knots = self.knot_vector
        lower = self._evaluate_order(pts, self.order - derivative)
        # Build up the coefficient transformation from order k-q to order k.
        design = lower
        for step in range(derivative, 0, -1):
            k = self.order - step + 1  # target order of this step
            n_funcs_target = knots.shape[0] - k
            new = np.zeros((pts.shape[0], n_funcs_target))
            for l in range(n_funcs_target):
                left_den = knots[l + k - 1] - knots[l]
                right_den = knots[l + k] - knots[l + 1]
                term = 0.0
                if left_den > 0:
                    term = term + design[:, l] / left_den
                if right_den > 0:
                    term = term - design[:, l + 1] / right_den
                new[:, l] = (k - 1) * term
            design = new
        return design

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"BSplineBasis(domain={self.domain}, n_basis={self.n_basis})"
