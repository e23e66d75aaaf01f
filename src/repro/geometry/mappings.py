"""Concrete mapping functions (geometric aggregations).

:class:`CurvatureMapping` is the paper's example (Eq. 5).  The others
are natural members of the same family — each is an interpretable
differential invariant of the path — provided both as extensions and as
ablation points (DESIGN.md §6): if curvature is the right feature for
mixed-type ECG outliers, speed or raw values should do measurably worse.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import ValidationError
from repro.fda.fdata import FDataGrid, MultivariateBasisFData
from repro.geometry import differential
from repro.geometry.base import MappingFunction
from repro.geometry.frenet import generalized_curvature
from repro.utils.validation import check_grid, check_int, check_positive

__all__ = [
    "CurvatureMapping",
    "SpeedMapping",
    "ArcLengthMapping",
    "TangentAngleMapping",
    "SignedCurvatureMapping",
    "TorsionMapping",
    "GeneralizedCurvatureMapping",
    "NormMapping",
    "ComponentMapping",
    "CompositeMapping",
    "MAPPING_REGISTRY",
    "mapping_from_config",
]


class CurvatureMapping(MappingFunction):
    """The paper's curvature mapping ``kappa(t)`` (Eq. 5).

    Combines the first and second derivative functions of the fitted
    MFD; constant for straight-line paths (linearly correlated
    parameters) and large wherever the path bends sharply — hence
    sensitive to changes in the *relationship* between parameters.

    Parameters
    ----------
    regularization:
        Relative damping of near-stationary points (see
        :func:`repro.geometry.curvature`).  The default ``0.1`` keeps
        the mapped curves finite for paths with singular
        parametrizations such as the paper's (x, x^2) augmentation,
        where the velocity vanishes at every critical point of x;
        set to 0 for the unregularized textbook definition.
    """

    required_derivatives = 2

    def __init__(self, regularization: float = 0.1):
        self.regularization = check_positive(regularization, "regularization", strict=False)

    def _map(self, derivatives, grid):
        return differential.curvature(
            derivatives[1], derivatives[2], regularization=self.regularization
        )

    def _config_params(self) -> dict:
        return {"regularization": self.regularization}


class SpeedMapping(MappingFunction):
    """Pointwise speed ``|D^1 X(t)|`` — first-order geometry only."""

    required_derivatives = 1

    def _map(self, derivatives, grid):
        return differential.speed(derivatives[1])


class ArcLengthMapping(MappingFunction):
    """Cumulative arc length ``s(t)`` — a monotone summary of traversal."""

    required_derivatives = 1

    def _map(self, derivatives, grid):
        return differential.cumulative_arc_length(derivatives[1], grid)


class TangentAngleMapping(MappingFunction):
    """Unwrapped tangent direction angle (p = 2 only)."""

    required_derivatives = 1
    min_dimension = 2

    def _map(self, derivatives, grid):
        if derivatives[1].shape[2] != 2:
            raise ValidationError("TangentAngleMapping requires p = 2")
        return differential.tangent_angle(derivatives[1])


class SignedCurvatureMapping(MappingFunction):
    """Signed curvature (p = 2 only) — keeps the turning direction."""

    required_derivatives = 2
    min_dimension = 2

    def _map(self, derivatives, grid):
        if derivatives[1].shape[2] != 2:
            raise ValidationError("SignedCurvatureMapping requires p = 2")
        return differential.turning_rate(derivatives[1], derivatives[2])


class TorsionMapping(MappingFunction):
    """Torsion (p = 3 only) — out-of-plane bending of space curves."""

    required_derivatives = 3
    min_dimension = 3

    def _map(self, derivatives, grid):
        if derivatives[1].shape[2] != 3:
            raise ValidationError("TorsionMapping requires p = 3")
        return differential.torsion(derivatives[1], derivatives[2], derivatives[3])


class GeneralizedCurvatureMapping(MappingFunction):
    """The j-th Frenet generalized curvature ``chi_j`` (any p > j)."""

    def __init__(self, order: int = 1):
        self.order = check_int(order, "order", minimum=1)
        self.required_derivatives = self.order + 1
        self.min_dimension = self.order + 1

    @property
    def name(self) -> str:
        return f"chi{self.order}"

    def _config_params(self) -> dict:
        return {"order": self.order}

    def _map(self, derivatives, grid):
        n_samples = derivatives[0].shape[0]
        out = np.empty((n_samples, grid.shape[0]))
        for i in range(n_samples):
            per_sample = [d[i] for d in derivatives[1:]]
            out[i] = generalized_curvature(per_sample, grid, order=self.order)
        return out


class NormMapping(MappingFunction):
    """Euclidean norm of the path position ``|X(t)|`` (zeroth-order)."""

    required_derivatives = 0

    def _map(self, derivatives, grid):
        return np.linalg.norm(derivatives[0], axis=2)


class ComponentMapping(MappingFunction):
    """Projection onto one parameter ``x_{ik}(t)`` — ablation baseline.

    Reduces the method to univariate functional analysis of a single
    parameter, discarding all cross-parameter geometry.
    """

    required_derivatives = 0

    def __init__(self, component: int = 0):
        self.component = check_int(component, "component", minimum=0)

    @property
    def name(self) -> str:
        return f"component{self.component}"

    def _config_params(self) -> dict:
        return {"component": self.component}

    def _map(self, derivatives, grid):
        values = derivatives[0]
        if self.component >= values.shape[2]:
            raise ValidationError(
                f"component {self.component} out of range for p={values.shape[2]}"
            )
        return values[:, :, self.component]


class CompositeMapping:
    """Concatenate the outputs of several mapping functions.

    Not itself a :class:`MappingFunction` (its output is a feature
    matrix, not a single UFD): each constituent mapping contributes its
    evaluated curve, and the blocks are concatenated along the feature
    axis.  Supports the paper's future-work direction of combining
    multiple geometric features.
    """

    def __init__(self, mappings: list[MappingFunction]):
        if not mappings:
            raise ValidationError("CompositeMapping needs at least one mapping")
        for m in mappings:
            if not isinstance(m, MappingFunction):
                raise ValidationError(f"{m!r} is not a MappingFunction")
        self.mappings = list(mappings)

    @property
    def name(self) -> str:
        return "+".join(m.name for m in self.mappings)

    @property
    def required_derivatives(self) -> int:
        return max(m.required_derivatives for m in self.mappings)

    def transform(self, fdata: MultivariateBasisFData, grid, cache=None) -> FDataGrid:
        """Evaluate every mapping and stack curves horizontally.

        The result is returned as an :class:`FDataGrid` over a synthetic
        index grid (block ``b`` occupies ``[b, b+1)``), which keeps the
        downstream vectorization identical to single mappings.
        """
        grid = check_grid(grid, "grid")
        blocks = [m.transform(fdata, grid, cache=cache).values for m in self.mappings]
        stacked = np.concatenate(blocks, axis=1)
        m = grid.shape[0]
        index_grid = np.concatenate(
            [b + (grid - grid[0]) / (grid[-1] - grid[0]) for b in range(len(blocks))]
        )
        # Guard against duplicated junction points between blocks.
        index_grid = index_grid + np.arange(index_grid.shape[0]) * 1e-12
        assert stacked.shape[1] == index_grid.shape[0] == m * len(blocks)
        return FDataGrid(stacked, index_grid)

    def to_config(self) -> dict:
        """JSON-able description (see :meth:`MappingFunction.to_config`)."""
        return {
            "type": "CompositeMapping",
            "mappings": [m.to_config() for m in self.mappings],
        }


#: Mapping classes addressable from persisted configs, keyed by class
#: name (the ``"type"`` field of :meth:`MappingFunction.to_config`).
MAPPING_REGISTRY: dict[str, type[MappingFunction]] = {
    cls.__name__: cls
    for cls in (
        CurvatureMapping,
        SpeedMapping,
        ArcLengthMapping,
        TangentAngleMapping,
        SignedCurvatureMapping,
        TorsionMapping,
        GeneralizedCurvatureMapping,
        NormMapping,
        ComponentMapping,
    )
}


def mapping_from_config(config: dict) -> MappingFunction | CompositeMapping:
    """Rebuild a mapping from a ``to_config`` dictionary.

    The inverse of :meth:`MappingFunction.to_config` /
    :meth:`CompositeMapping.to_config`.
    """
    if not isinstance(config, dict) or "type" not in config:
        raise ValidationError(
            f"mapping config must be a dict with a 'type' key, got {config!r}"
        )
    name = config["type"]
    if name == "CompositeMapping":
        return CompositeMapping([mapping_from_config(c) for c in config.get("mappings", [])])
    cls = MAPPING_REGISTRY.get(name)
    if cls is None:
        raise ValidationError(
            f"unknown mapping type {name!r}; known: {sorted(MAPPING_REGISTRY)}"
        )
    return cls(**config.get("params", {}))
