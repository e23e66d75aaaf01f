"""The paper's method end-to-end: smooth → map → detect.

:class:`GeometricOutlierPipeline` implements the contribution of the
paper (Sec. 1.3 / 3): multivariate functional data are (1) smoothed into
a B-spline basis with per-parameter basis-size selection by LOO-CV
(Sec. 4.1), (2) aggregated into a univariate geometric representation by
a mapping function — curvature by default (Eq. 5) — evaluated on a
common grid, and (3) fed to a multivariate outlier detector
(Isolation Forest or One-Class SVM).

The pipeline is unsupervised: ``fit`` accepts a contaminated training
set; ``score_samples`` returns outlyingness scores (higher = more
anomalous), ready for ROC/AUC evaluation or thresholding.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.detectors.base import OutlierDetector
from repro.engine import ExecutionContext
from repro.exceptions import NotFittedError, ValidationError
from repro.fda.basis.bspline import BSplineBasis
from repro.fda.fdata import MFDataGrid, MultivariateBasisFData, as_mfd
from repro.fda.fdata import BasisFData
from repro.fda.selection import select_n_basis
from repro.fda.smoothing import BasisSmoother
from repro.geometry.base import MappingFunction
from repro.geometry.mappings import CompositeMapping, CurvatureMapping
from repro.utils.validation import check_int, check_positive

__all__ = ["GeometricOutlierPipeline"]

#: Default basis-size candidates swept by LOO-CV (clipped to the number
#: of measurement points at fit time).
DEFAULT_BASIS_CANDIDATES = (8, 12, 16, 20, 25, 30, 35, 40)


class GeometricOutlierPipeline:
    """Geometric-aggregation outlier detection for MFD (the paper's method).

    Parameters
    ----------
    detector:
        Any :class:`~repro.detectors.OutlierDetector` (unfitted); it is
        fitted on the mapped training curves.
    mapping:
        The geometric aggregation; defaults to the paper's
        :class:`~repro.geometry.CurvatureMapping`.
    n_basis:
        Either an int (fixed basis size for every parameter), a sequence
        of candidate sizes selected per parameter by LOO-CV (the paper's
        procedure), or ``None`` for the default candidate sweep.
    smoothing:
        Roughness-penalty weight ``lambda`` (shared by all parameters).
    penalty_order:
        Derivative order of the roughness penalty (default 2).
    spline_order:
        B-spline order; the default 4 (cubic) supports the two
        derivatives the curvature mapping needs.
    eval_points:
        Number of evaluation points of the common grid on which mapped
        curves are vectorized (paper: the measurement grid length, 85).
        ``None`` reuses the training grid.
    context:
        A shared :class:`~repro.engine.ExecutionContext`.  Its
        factorization cache backs every smoothing/selection solve, so
        pipelines sharing a context never factorize the same
        (basis, grid, λ, penalty order) configuration twice.  A private
        context is created when omitted.
    """

    def __init__(
        self,
        detector: OutlierDetector,
        mapping: MappingFunction | CompositeMapping | None = None,
        n_basis: int | Sequence[int] | None = None,
        smoothing: float = 1e-4,
        penalty_order: int = 2,
        spline_order: int = 4,
        eval_points: int | None = None,
        context: ExecutionContext | None = None,
    ):
        if context is not None and not isinstance(context, ExecutionContext):
            raise ValidationError(
                f"context must be an ExecutionContext, got {type(context).__name__}"
            )
        self.context = context if context is not None else ExecutionContext()
        if not isinstance(detector, OutlierDetector):
            raise ValidationError(
                f"detector must be an OutlierDetector, got {type(detector).__name__}"
            )
        self.detector = detector
        self.mapping = mapping if mapping is not None else CurvatureMapping()
        if not isinstance(self.mapping, (MappingFunction, CompositeMapping)):
            raise ValidationError(
                f"mapping must be a MappingFunction, got {type(mapping).__name__}"
            )
        self.spline_order = check_int(spline_order, "spline_order", minimum=2)
        if n_basis is None:
            self.n_basis = tuple(DEFAULT_BASIS_CANDIDATES)
        elif isinstance(n_basis, (int, np.integer)):
            self.n_basis = check_int(int(n_basis), "n_basis")
        else:
            self.n_basis = tuple(check_int(int(v), "n_basis candidate") for v in n_basis)
            if not self.n_basis:
                raise ValidationError("n_basis candidate list must not be empty")
        # A spline of order k needs at least k basis functions.
        sizes = self.n_basis if isinstance(self.n_basis, tuple) else (self.n_basis,)
        if min(sizes) < self.spline_order:
            raise ValidationError(
                f"n_basis must be >= spline_order={self.spline_order}, got {n_basis!r}"
            )
        self.smoothing = check_positive(smoothing, "smoothing", strict=False)
        self.penalty_order = check_int(penalty_order, "penalty_order", minimum=0)
        min_deriv = getattr(self.mapping, "required_derivatives", 2)
        if self.spline_order - 1 < min_deriv:
            raise ValidationError(
                f"spline_order={self.spline_order} supports derivatives up to "
                f"{self.spline_order - 1} but the mapping needs {min_deriv}; "
                f"set spline_order >= {min_deriv + 1}"
            )
        self.eval_points = None if eval_points is None else check_int(eval_points, "eval_points", minimum=4)
        # Fitted state.
        self.selected_n_basis_: list[int] | None = None
        self.smoothers_: list[BasisSmoother] | None = None
        self.eval_grid_: np.ndarray | None = None
        self._fitted = False

    # ------------------------------------------------------------------ internals
    def _select_and_fit(
        self, data: MFDataGrid
    ) -> tuple[list[int], list[BasisSmoother], list[BasisFData]]:
        """Batched selection: sizes, smoothers and *fitted* components.

        Every candidate is scored against the shared factorization
        cache, and the winner's fit reuses the cached factor — no
        refit after selection (the engine's batched LOO-CV path).
        """
        max_size = data.n_points  # unpenalized LS needs n_basis <= m
        if isinstance(self.n_basis, int):
            sizes = [min(self.n_basis, max_size)] * data.n_parameters
            smoothers = self._make_smoothers(data, sizes)
            components = [
                smoother.fit_grid(data.parameter(k))
                for k, smoother in enumerate(smoothers)
            ]
            return sizes, smoothers, components
        candidates = [c for c in self.n_basis if c <= max_size]
        if not candidates:
            candidates = [min(min(self.n_basis), max_size)]
        sizes: list[int] = []
        smoothers: list[BasisSmoother] = []
        components: list[BasisFData] = []
        for k in range(data.n_parameters):
            selection = select_n_basis(
                data.parameter(k),
                lambda dom, L: BSplineBasis(dom, L, order=self.spline_order),
                candidates,
                smoothing=self.smoothing,
                penalty_order=self.penalty_order,
                cache=self.context.cache,
            )
            sizes.append(int(selection.best))
            smoothers.append(selection.smoother)
            components.append(selection.fit)
        return sizes, smoothers, components

    def _make_smoothers(self, data: MFDataGrid, sizes: list[int]) -> list[BasisSmoother]:
        return [
            BasisSmoother(
                BSplineBasis(data.domain, sizes[k], order=self.spline_order),
                smoothing=self.smoothing,
                penalty_order=self.penalty_order,
                cache=self.context.cache,
            )
            for k in range(data.n_parameters)
        ]

    def _smooth(self, data: MFDataGrid) -> MultivariateBasisFData:
        if self.smoothers_ is None:
            raise NotFittedError("pipeline is not fitted")
        if data.n_parameters != len(self.smoothers_):
            raise ValidationError(
                f"pipeline was fitted on {len(self.smoothers_)} parameters, "
                f"got curves with {data.n_parameters}"
            )
        components = [
            smoother.fit_grid(data.parameter(k))
            for k, smoother in enumerate(self.smoothers_)
        ]
        return MultivariateBasisFData(components)

    # ------------------------------------------------------------------ API
    def transform(self, data) -> np.ndarray:
        """Smooth + map ``data`` and return the feature matrix ``(n, m)``."""
        data = as_mfd(data)
        if not self._fitted:
            raise NotFittedError("pipeline is not fitted")
        fdata = self._smooth(data)
        mapped = self.mapping.transform(fdata, self.eval_grid_, cache=self.context.cache)
        return mapped.values

    def prepare(self, data) -> np.ndarray:
        """Select bases, smooth and map ``data``; return training features.

        This is the split-independent half of :meth:`fit`: it installs
        the fitted smoothing state (``selected_n_basis_``,
        ``smoothers_``, ``eval_grid_``) and returns the mapped feature
        matrix without touching the detector.  The winning smoothers
        come out of the batched selection already fitted, so no curve
        is smoothed twice.
        """
        data = as_mfd(data)
        sizes, smoothers, components = self._select_and_fit(data)
        self.selected_n_basis_ = sizes
        self.smoothers_ = smoothers
        if self.eval_points is None:
            self.eval_grid_ = data.grid.copy()
        else:
            low, high = data.domain
            self.eval_grid_ = np.linspace(low, high, self.eval_points)
        self._fitted = True
        mapped = self.mapping.transform(
            MultivariateBasisFData(components), self.eval_grid_, cache=self.context.cache
        )
        return mapped.values

    def fit(self, data) -> "GeometricOutlierPipeline":
        """Select bases, smooth, map and fit the detector on training MFD."""
        features = self.prepare(data)
        self.detector.fit(features)
        return self

    def score_samples(self, data) -> np.ndarray:
        """Outlyingness score per sample (higher = more anomalous)."""
        features = self.transform(data)
        return self.detector.score_samples(features)

    # ------------------------------------------------------------------ state
    def export_fitted_state(self) -> dict:
        """Everything a fresh process needs to score new batches.

        Returns a nested dict of JSON-able scalars and NumPy arrays (no
        pickled code): the per-parameter smoother configs, the selected
        basis sizes, the evaluation grid, the mapping config and the
        fitted detector state.  :func:`repro.serving.save_pipeline`
        writes it to disk as ``.npz`` + JSON manifest, and
        :func:`repro.plan.restore_pipeline` inverts it with bit-identical
        scoring.
        """
        if not self._fitted or self.smoothers_ is None:
            raise NotFittedError("pipeline is not fitted")
        return {
            "config": {
                "smoothing": float(self.smoothing),
                "penalty_order": int(self.penalty_order),
                "spline_order": int(self.spline_order),
            },
            "selected_n_basis": [int(v) for v in (self.selected_n_basis_ or [])],
            "smoothers": [smoother.to_config() for smoother in self.smoothers_],
            "eval_grid": self.eval_grid_.copy(),
            "mapping": self.mapping.to_config(),
            "detector": self.detector.export_state(),
        }

    def inject_fitted_state(self, state: dict) -> None:
        """Install exported smoothing state, marking the pipeline fitted.

        Restored smoothers attach to this pipeline's context cache, so
        scoring new curves on a grid the cache has seen skips design
        building and refactorization entirely.  The detector is restored
        separately (see :func:`repro.plan.restore_pipeline`).
        """
        if "eval_grid" not in state:
            raise ValidationError("fitted state has no 'eval_grid'")
        smoother_configs = state.get("smoothers")
        if not smoother_configs:
            raise ValidationError("fitted state has no smoother configs")
        self.smoothers_ = [
            BasisSmoother.from_config(cfg, cache=self.context.cache)
            for cfg in smoother_configs
        ]
        self.selected_n_basis_ = [int(v) for v in state.get("selected_n_basis", [])]
        self.eval_grid_ = np.asarray(state["eval_grid"], dtype=np.float64)
        self._fitted = True
