"""Penalized least-squares smoothing (paper Eq. 3–4).

Given noisy observations ``y_j = x(t_j) + eps_j`` and a basis, the
coefficient vector minimizes

    J_lambda(alpha) = || y - Phi alpha ||^2 + lambda * alpha' R alpha

whose closed-form minimizer is the ridge-type solution

    alpha* = (Phi' Phi + lambda R)^{-1} Phi' y          (paper Eq. 4)

The fit is a *linear smoother*: fitted values are ``S y`` with hat
matrix ``S = Phi (Phi' Phi + lambda R)^{-1} Phi'``, which gives the
leave-one-out shortcut used by :mod:`repro.fda.selection`.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import ValidationError
from repro.fda.basis.bspline import BSplineBasis
from repro.fda.fdata import BasisFData, FDataGrid, IrregularFData, MFDataGrid, MultivariateBasisFData
from repro.utils.validation import as_float_array, check_grid, check_int, check_positive

__all__ = ["BasisSmoother", "smooth_mfd"]


class BasisSmoother:
    """Fit basis coefficients to noisy curves by penalized least squares.

    Parameters
    ----------
    basis:
        Basis system shared by all samples of one parameter.
    smoothing:
        The penalty weight ``lambda >= 0`` (paper's ``lambda_k``); 0
        disables the penalty (plain least squares).
    penalty_order:
        Derivative order ``q`` in the roughness penalty; the paper
        recommends 1 (velocity) or 2 (acceleration, default).
    cache:
        A shared :class:`~repro.engine.FactorizationCache`.  When
        omitted, the smoother uses a private cache, so repeated fits on
        the same grid still pay for one factorization only.  Passing
        the cache of an :class:`~repro.engine.ExecutionContext` shares
        artifacts across smoothers, the LOO-CV sweep and the pipeline.
    """

    def __init__(
        self,
        basis: BSplineBasis,
        smoothing: float = 0.0,
        penalty_order: int = 2,
        cache=None,
    ):
        if not isinstance(basis, BSplineBasis):
            raise ValidationError(
                f"basis must be a BSplineBasis instance, got {type(basis).__name__}"
            )
        from repro.engine.cache import FactorizationCache

        if cache is not None and not isinstance(cache, FactorizationCache):
            raise ValidationError(
                f"cache must be a FactorizationCache, got {type(cache).__name__}"
            )
        self.basis = basis
        self.smoothing = check_positive(smoothing, "smoothing", strict=False)
        self.penalty_order = check_int(penalty_order, "penalty_order", minimum=0)
        self.cache = cache if cache is not None else FactorizationCache()

    # ---------------------------------------------------------------- internals
    @property
    def penalty(self) -> np.ndarray:
        """The roughness penalty matrix ``R`` (cached in the engine cache)."""
        if self.smoothing > 0:
            return self.cache.penalty(self.basis, self.penalty_order)
        return np.zeros((self.basis.n_basis, self.basis.n_basis))

    def _solver(self, points: np.ndarray):
        """Cached factorization of the normal equations on ``points``."""
        return self.cache.solver(self.basis, points, self.smoothing, self.penalty_order)

    # ---------------------------------------------------------------- fitting
    def fit_sample(self, points, values) -> np.ndarray:
        """Fit one curve observed at ``points`` and return its coefficients."""
        points = check_grid(points, "points")
        values = as_float_array(values, "values")
        if values.shape != points.shape:
            raise ValidationError(
                f"values shape {values.shape} does not match points shape {points.shape}"
            )
        if points.shape[0] < self.basis.n_basis and self.smoothing == 0:
            raise ValidationError(
                f"unpenalized fit needs at least n_basis={self.basis.n_basis} points, "
                f"got {points.shape[0]} (set smoothing > 0 to regularize)"
            )
        design = self.cache.design(self.basis, points)
        return self._solver(points).solve(design.T @ values)

    def fit_grid(self, data: FDataGrid) -> BasisFData:
        """Fit all curves sharing a common grid (single cached factorization)."""
        design = self.cache.design(self.basis, data.grid)
        rhs = design.T @ data.values.T  # (L, n)
        coeffs = self._solver(data.grid).solve(rhs)
        return BasisFData(self.basis, coeffs.T)

    def fit_irregular(self, data: IrregularFData) -> BasisFData:
        """Fit curves with sample-specific measurement points."""
        coeffs = np.empty((data.n_samples, self.basis.n_basis))
        for i, (points, values) in enumerate(zip(data.points, data.values)):
            coeffs[i] = self.fit_sample(points, values)
        return BasisFData(self.basis, coeffs)

    def to_config(self) -> dict:
        """JSON-able description reconstructing this smoother exactly.

        Inverted by :meth:`from_config`; contains the basis config plus
        the penalty settings, which fully determine the projection.
        """
        return {
            "basis": self.basis.to_config(),
            "smoothing": float(self.smoothing),
            "penalty_order": int(self.penalty_order),
        }

    @classmethod
    def from_config(cls, config: dict, cache=None) -> "BasisSmoother":
        """Rebuild a smoother from :meth:`to_config` output.

        ``cache`` optionally attaches a shared
        :class:`~repro.engine.FactorizationCache` so restored smoothers
        join an existing serving context's memoized factorizations.
        """
        from repro.fda.basis import basis_from_config

        if not isinstance(config, dict) or "basis" not in config:
            raise ValidationError(
                f"smoother config must be a dict with a 'basis' key, got {config!r}"
            )
        return cls(
            basis_from_config(config["basis"]),
            smoothing=float(config.get("smoothing", 0.0)),
            penalty_order=int(config.get("penalty_order", 2)),
            cache=cache,
        )

    # ---------------------------------------------------------------- hat matrix
    def hat_matrix(self, points) -> np.ndarray:
        """Hat (smoother) matrix ``S`` mapping observations to fitted values."""
        points = check_grid(points, "points")
        return self.cache.hat(self.basis, points, self.smoothing, self.penalty_order)


def smooth_mfd(
    data: MFDataGrid,
    basis_factory,
    smoothing: float | list[float] = 0.0,
    penalty_order: int = 2,
    cache=None,
) -> tuple[MultivariateBasisFData, list[BasisSmoother]]:
    """Smooth every parameter of an MFD data set.

    Parameters
    ----------
    data:
        The raw MFD measurements.
    basis_factory:
        Callable ``(domain) -> BSplineBasis`` or a list of ``p`` such callables
        (the paper selects a basis size per parameter).
    smoothing:
        A single ``lambda`` or one per parameter.
    penalty_order:
        Roughness penalty order shared by all parameters.
    cache:
        Optional shared :class:`~repro.engine.FactorizationCache`
        threaded into every per-parameter smoother.

    Returns
    -------
    tuple
        ``(MultivariateBasisFData, list[BasisSmoother])``: the fit and
        the per-parameter smoothers.
    """
    if not isinstance(data, MFDataGrid):
        raise ValidationError(f"data must be MFDataGrid, got {type(data).__name__}")
    p = data.n_parameters
    factories = basis_factory if isinstance(basis_factory, (list, tuple)) else [basis_factory] * p
    if len(factories) != p:
        raise ValidationError(f"need {p} basis factories, got {len(factories)}")
    lams = smoothing if isinstance(smoothing, (list, tuple)) else [smoothing] * p
    if len(lams) != p:
        raise ValidationError(f"need {p} smoothing values, got {len(lams)}")
    components = []
    smoothers = []
    for k in range(p):
        basis = factories[k](data.domain)
        smoother = BasisSmoother(
            basis, smoothing=lams[k], penalty_order=penalty_order, cache=cache
        )
        components.append(smoother.fit_grid(data.parameter(k)))
        smoothers.append(smoother)
    return MultivariateBasisFData(components), smoothers
