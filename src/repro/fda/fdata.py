"""Containers for discrete and basis-represented functional data.

Two families of objects:

* **Discrete** containers hold raw, possibly noisy measurements —
  :class:`FDataGrid` for univariate functional data (UFD) on a common
  grid, :class:`MFDataGrid` for multivariate functional data (MFD,
  the ``(n, m, p)`` cube), and :class:`IrregularFData` for
  sample-specific measurement points (the paper's ``t_{i·}``).
* **Basis** containers (:class:`BasisFData`, :class:`MultivariateBasisFData`)
  hold fitted coefficient vectors and evaluate the smooth
  reconstruction ``x~`` and its derivatives anywhere (paper Eq. 1–2).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.exceptions import ValidationError
from repro.fda.basis.bspline import BSplineBasis
from repro.utils.validation import as_float_array, check_grid, check_int

__all__ = [
    "FDataGrid",
    "MFDataGrid",
    "IrregularFData",
    "BasisFData",
    "MultivariateBasisFData",
    "as_mfd",
]


def as_mfd(data) -> "MFDataGrid":
    """Coerce (M)FDataGrid input to :class:`MFDataGrid`, rejecting the rest.

    The shared input-normalization step of every consumer that accepts
    both univariate and multivariate gridded data (pipeline, methods,
    serving).
    """
    if isinstance(data, FDataGrid):
        return data.to_multivariate()
    if not isinstance(data, MFDataGrid):
        raise ValidationError(
            f"data must be MFDataGrid or FDataGrid, got {type(data).__name__}"
        )
    return data


@dataclass(frozen=True)
class FDataGrid:
    """Univariate functional data sampled on a common grid.

    Attributes
    ----------
    values:
        Array of shape ``(n_samples, n_points)``.
    grid:
        Strictly increasing array of shape ``(n_points,)``.
    """

    values: np.ndarray
    grid: np.ndarray

    def __post_init__(self):
        grid = check_grid(self.grid, "grid")
        values = as_float_array(self.values, "values")
        if values.ndim == 1:
            values = values[None, :]
        if values.ndim != 2:
            raise ValidationError(f"values must be 2-D (n, m), got shape {values.shape}")
        if values.shape[1] != grid.shape[0]:
            raise ValidationError(
                f"values have {values.shape[1]} points but grid has {grid.shape[0]}"
            )
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "grid", grid)

    @property
    def n_samples(self) -> int:
        return self.values.shape[0]

    @property
    def n_points(self) -> int:
        return self.grid.shape[0]

    @property
    def domain(self) -> tuple[float, float]:
        return float(self.grid[0]), float(self.grid[-1])

    def __len__(self) -> int:
        return self.n_samples

    def __getitem__(self, index) -> "FDataGrid":
        picked = np.atleast_2d(self.values[index])
        return FDataGrid(picked, self.grid)

    def to_multivariate(self) -> "MFDataGrid":
        """View as single-parameter MFD (p = 1)."""
        return MFDataGrid(self.values[:, :, None], self.grid)


@dataclass(frozen=True)
class MFDataGrid:
    """Multivariate functional data sampled on a common grid.

    Attributes
    ----------
    values:
        Array of shape ``(n_samples, n_points, n_parameters)`` — sample
        ``i`` is the path ``t -> values[i, :, :]`` in ``R^p``.
    grid:
        Strictly increasing array of shape ``(n_points,)``.
    """

    values: np.ndarray
    grid: np.ndarray

    def __post_init__(self):
        grid = check_grid(self.grid, "grid")
        values = as_float_array(self.values, "values")
        if values.ndim != 3:
            raise ValidationError(f"values must be 3-D (n, m, p), got shape {values.shape}")
        if values.shape[1] != grid.shape[0]:
            raise ValidationError(
                f"values have {values.shape[1]} points but grid has {grid.shape[0]}"
            )
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "grid", grid)

    @property
    def n_samples(self) -> int:
        return self.values.shape[0]

    @property
    def n_points(self) -> int:
        return self.grid.shape[0]

    @property
    def n_parameters(self) -> int:
        return self.values.shape[2]

    @property
    def domain(self) -> tuple[float, float]:
        return float(self.grid[0]), float(self.grid[-1])

    def __len__(self) -> int:
        return self.n_samples

    def __getitem__(self, index) -> "MFDataGrid":
        picked = self.values[index]
        if picked.ndim == 2:
            picked = picked[None, :, :]
        return MFDataGrid(picked, self.grid)

    def parameter(self, k: int) -> FDataGrid:
        """Extract parameter ``k`` as univariate functional data."""
        k = check_int(k, "k", minimum=0)
        if k >= self.n_parameters:
            raise ValidationError(f"parameter index {k} out of range (p={self.n_parameters})")
        return FDataGrid(self.values[:, :, k], self.grid)

    def concat_parameters(self, other: "MFDataGrid") -> "MFDataGrid":
        """Stack the parameters of ``other`` after those of ``self``."""
        if other.n_samples != self.n_samples or other.n_points != self.n_points:
            raise ValidationError("cannot concatenate MFD with mismatched shapes")
        if not np.allclose(other.grid, self.grid):
            raise ValidationError("cannot concatenate MFD with different grids")
        return MFDataGrid(np.concatenate((self.values, other.values), axis=2), self.grid)


class IrregularFData:
    """Univariate functional data with sample-specific measurement points.

    The paper's formulation (Sec. 2) makes no assumption on the
    distribution of the measurement points ``t_{i·}``; this container
    holds one ``(t_i, y_i)`` pair per sample.
    """

    def __init__(self, points: list, values: list):
        if len(points) != len(values):
            raise ValidationError(
                f"points and values must have the same length, got {len(points)} and {len(values)}"
            )
        if not points:
            raise ValidationError("IrregularFData needs at least one sample")
        self.points = [check_grid(t, f"points[{i}]") for i, t in enumerate(points)]
        self.values = []
        for i, (t, y) in enumerate(zip(self.points, values)):
            y = as_float_array(y, f"values[{i}]")
            if y.shape != t.shape:
                raise ValidationError(
                    f"sample {i}: values shape {y.shape} does not match points shape {t.shape}"
                )
            self.values.append(y)

    @property
    def n_samples(self) -> int:
        return len(self.points)

    @property
    def domain(self) -> tuple[float, float]:
        low = min(float(t[0]) for t in self.points)
        high = max(float(t[-1]) for t in self.points)
        return low, high

    def __len__(self) -> int:
        return self.n_samples

    @classmethod
    def from_grid(cls, data: FDataGrid) -> "IrregularFData":
        """Wrap common-grid data as irregular data (shared points per sample)."""
        return cls([data.grid] * data.n_samples, [row for row in data.values])


@dataclass(frozen=True)
class BasisFData:
    """Univariate functional data in basis representation (paper Eq. 1).

    Attributes
    ----------
    basis:
        The shared basis system.
    coefficients:
        Array of shape ``(n_samples, n_basis)`` — row ``i`` is the
        paper's ``alpha_{ik}`` for one parameter ``k``.
    """

    basis: BSplineBasis
    coefficients: np.ndarray

    def __post_init__(self):
        coeffs = as_float_array(self.coefficients, "coefficients")
        if coeffs.ndim == 1:
            coeffs = coeffs[None, :]
        if coeffs.ndim != 2:
            raise ValidationError(f"coefficients must be 2-D, got shape {coeffs.shape}")
        if coeffs.shape[1] != self.basis.n_basis:
            raise ValidationError(
                f"coefficients have {coeffs.shape[1]} columns but basis has "
                f"{self.basis.n_basis} functions"
            )
        object.__setattr__(self, "coefficients", coeffs)

    @property
    def n_samples(self) -> int:
        return self.coefficients.shape[0]

    @property
    def domain(self) -> tuple[float, float]:
        return self.basis.domain

    def __len__(self) -> int:
        return self.n_samples

    def evaluate(self, grid, derivative: int = 0, cache=None) -> np.ndarray:
        """Evaluate ``D^q x~_i`` for all samples on a grid → ``(n, len(grid))``.

        With a :class:`~repro.engine.FactorizationCache` as ``cache`` the
        design ``D^q Phi`` on ``grid`` is built once and reused.
        """
        if cache is None:
            design = self.basis.evaluate(grid, derivative=derivative)
        else:
            design = cache.design(self.basis, grid, derivative)
        return self.coefficients @ design.T

    def to_grid(self, grid) -> FDataGrid:
        """Materialize the smooth reconstructions on a grid."""
        grid = check_grid(grid, "grid")
        return FDataGrid(self.evaluate(grid), grid)


@dataclass(frozen=True)
class MultivariateBasisFData:
    """Multivariate functional data with one basis representation per parameter.

    Attributes
    ----------
    components:
        List of ``p`` :class:`BasisFData`, all with the same number of
        samples and the same domain (bases may differ in size per the
        paper's per-parameter basis selection).
    """

    components: list = field(default_factory=list)

    def __post_init__(self):
        if not self.components:
            raise ValidationError("MultivariateBasisFData needs at least one component")
        n = self.components[0].n_samples
        domain = self.components[0].domain
        for k, comp in enumerate(self.components):
            if not isinstance(comp, BasisFData):
                raise ValidationError(f"component {k} is not a BasisFData")
            if comp.n_samples != n:
                raise ValidationError(
                    f"component {k} has {comp.n_samples} samples, expected {n}"
                )
            if not np.allclose(comp.domain, domain):
                raise ValidationError(f"component {k} has a different domain")

    @property
    def n_samples(self) -> int:
        return self.components[0].n_samples

    @property
    def n_parameters(self) -> int:
        return len(self.components)

    @property
    def domain(self) -> tuple[float, float]:
        return self.components[0].domain

    def __len__(self) -> int:
        return self.n_samples

    def evaluate(self, grid, derivative: int = 0, cache=None) -> np.ndarray:
        """Evaluate all parameters on a grid → ``(n, len(grid), p)``."""
        layers = [
            comp.evaluate(grid, derivative=derivative, cache=cache) for comp in self.components
        ]
        return np.stack(layers, axis=2)

    def to_grid(self, grid) -> MFDataGrid:
        grid = check_grid(grid, "grid")
        return MFDataGrid(self.evaluate(grid), grid)
