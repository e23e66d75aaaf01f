"""Mapping-function abstraction (paper Sec. 3).

A *mapping function* is a geometric aggregation ``R^p``-path → scalar
function of ``t``: it compresses a multivariate functional datum into a
univariate one that exposes the geometry of the path (how the relation
between parameters evolves with ``t``).  The paper's flagship example is
the curvature; this module defines the shared interface and the
evaluation plumbing from basis-represented MFD.
"""

from __future__ import annotations

import abc

import numpy as np

from repro.exceptions import ValidationError
from repro.fda.fdata import FDataGrid, MFDataGrid, MultivariateBasisFData
from repro.utils.validation import check_grid

__all__ = ["MappingFunction"]


class MappingFunction(abc.ABC):
    """Geometric aggregation of an R^p path into a univariate function.

    Subclasses declare how many derivatives they consume via
    ``required_derivatives`` and implement :meth:`_map` on raw arrays;
    :meth:`transform` handles evaluation of a basis-represented MFD on a
    grid (using exact basis derivatives, paper Eq. 2).
    """

    #: Highest derivative order consumed by :meth:`_map` (0 = values only).
    required_derivatives: int = 1

    #: Minimum path dimension p this mapping is defined for.
    min_dimension: int = 1

    @property
    def name(self) -> str:
        """Short identifier used in experiment result tables."""
        return type(self).__name__.removesuffix("Mapping").lower()

    # ------------------------------------------------------------------ hooks
    @abc.abstractmethod
    def _map(self, derivatives: list[np.ndarray], grid: np.ndarray) -> np.ndarray:
        """Map derivative arrays to the univariate representation.

        Parameters
        ----------
        derivatives:
            ``[X, D^1 X, ..., D^q X]`` — each of shape
            ``(n_samples, n_points, p)`` — with ``q = required_derivatives``.
        grid:
            The evaluation grid, shape ``(n_points,)``.

        Returns
        -------
        numpy.ndarray of shape ``(n_samples, n_points)``
        """

    # ------------------------------------------------------------------ API
    def transform(self, fdata: MultivariateBasisFData, grid, cache=None) -> FDataGrid:
        """Apply the mapping to basis-represented MFD, evaluated on ``grid``.

        ``cache`` (a :class:`~repro.engine.FactorizationCache`) memoizes
        the derivative designs on ``grid``; the output is bit-identical
        to the uncached evaluation.
        """
        if not isinstance(fdata, MultivariateBasisFData):
            raise ValidationError(
                f"fdata must be MultivariateBasisFData, got {type(fdata).__name__}"
            )
        grid = check_grid(grid, "grid")
        self._check_dimension(fdata.n_parameters)
        derivatives = [
            fdata.evaluate(grid, derivative=q, cache=cache)
            for q in range(self.required_derivatives + 1)
        ]
        return FDataGrid(self._map(derivatives, grid), grid)

    def transform_grid(self, data: MFDataGrid) -> FDataGrid:
        """Apply the mapping to raw gridded MFD using finite differences.

        This bypasses the smoothing step — provided for the smoothing
        ablation; on noisy data the basis route of :meth:`transform` is
        strongly preferred (the paper's point about accurate derivative
        evaluation, Sec. 2).
        """
        if not isinstance(data, MFDataGrid):
            raise ValidationError(f"data must be MFDataGrid, got {type(data).__name__}")
        self._check_dimension(data.n_parameters)
        derivatives = [data.values]
        current = data.values
        for _ in range(self.required_derivatives):
            current = np.gradient(current, data.grid, axis=1)
            derivatives.append(current)
        return FDataGrid(self._map(derivatives, data.grid), data.grid)

    def _config_params(self) -> dict:
        """Subclass hook: JSON-able constructor kwargs (see :meth:`to_config`)."""
        return {}

    def to_config(self) -> dict:
        """JSON-able description reconstructing this mapping exactly.

        Inverted by :func:`repro.geometry.mappings.mapping_from_config`;
        used by the serving layer to persist a pipeline's mapping without
        pickling code objects.
        """
        return {"type": type(self).__name__, "params": self._config_params()}

    def _check_dimension(self, p: int) -> None:
        if p < self.min_dimension:
            raise ValidationError(
                f"{type(self).__name__} requires paths in R^p with p >= "
                f"{self.min_dimension}, got p={p}"
            )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}()"
