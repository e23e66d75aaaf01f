"""Method registry for the experiments.

Every curve in the paper's Figure 3 is a *method*: a procedure that
takes a contaminated MFD training set and an MFD test set and returns
test outlyingness scores.  This module wraps the pipeline (our method,
with iFor and OCSVM heads) and the depth baselines (FUNTA, Dir.out)
behind one interface so the experiment harness can sweep them uniformly.

To keep 50-repetition sweeps fast, methods split the work into
``prepare`` — anything that does not depend on the train/test split,
e.g. per-parameter basis selection and the smooth-and-map feature
computation, both of which the paper performs per sample — and
``fit_score`` — the split-dependent part (detector fitting, ν tuning,
reference-based depth scoring).
"""

from __future__ import annotations

import abc
from typing import Sequence

import numpy as np

from repro.core.pipeline import GeometricOutlierPipeline
from repro.depth._kernels import resolve_dtype
from repro.depth.dirout import check_dirout_method, dirout_scores
from repro.engine import ExecutionContext
from repro.depth.funta import check_trim, funta_outlyingness
from repro.detectors.iforest import IsolationForest
from repro.detectors.ocsvm import OneClassSVM
from repro.evaluation.tuning import tune_nu
from repro.exceptions import ValidationError
from repro.fda.basis.bspline import BSplineBasis
from repro.fda.fdata import MFDataGrid, as_mfd
from repro.fda.smoothing import BasisSmoother
from repro.geometry.base import MappingFunction
from repro.geometry.mappings import CompositeMapping, CurvatureMapping
from repro.utils.random import check_random_state
from repro.utils.validation import check_int

__all__ = [
    "Method",
    "smooth_dataset",
    "MappedDetectorMethod",
    "FuntaMethod",
    "DirOutMethod",
    "default_methods",
    "make_method",
]


class Method(abc.ABC):
    """A scoring procedure evaluated by the experiment harness."""

    name: str = "method"

    @abc.abstractmethod
    def prepare(self, data: MFDataGrid, random_state=None, context=None):
        """Precompute everything split-independent; returns an opaque state.

        ``context`` is an optional shared
        :class:`~repro.engine.ExecutionContext`; methods that smooth
        route their factorizations through its cache so that methods
        sharing a context also share linear-algebra artifacts.
        """

    @abc.abstractmethod
    def fit_score(self, state, train_idx, test_idx, random_state=None) -> np.ndarray:
        """Fit on ``train_idx`` rows of the prepared state, score ``test_idx``."""

    def score_dataset(
        self, data: MFDataGrid, train_idx, test_idx, random_state=None, context=None
    ) -> np.ndarray:
        """One-shot convenience combining prepare + fit_score."""
        state = self.prepare(data, random_state=random_state, context=context)
        return self.fit_score(state, train_idx, test_idx, random_state=random_state)


def _robust_standardize(
    train: np.ndarray, test: np.ndarray, clip: float = 10.0
) -> tuple[np.ndarray, np.ndarray]:
    """Median/IQR feature scaling with symmetric clipping.

    Mapped curves can span orders of magnitude along ``t`` (curvature is
    tiny on fast path segments and large near stalls); median/IQR
    scaling plus clipping keeps single coordinates from dominating the
    detectors' distance computations while preserving rank information.
    """
    center = np.median(train, axis=0)
    q75, q25 = np.percentile(train, [75, 25], axis=0)
    scale = q75 - q25
    fallback = np.std(train, axis=0)
    scale = np.where(scale > 1e-12, scale, np.where(fallback > 1e-12, fallback, 1.0))
    train_z = np.clip((train - center) / scale, -clip, clip)
    test_z = np.clip((test - center) / scale, -clip, clip)
    return train_z, test_z


def smooth_dataset(
    data: MFDataGrid,
    n_basis: int | None = None,
    smoothing: float = 1e-4,
    spline_order: int = 4,
    cache=None,
) -> MFDataGrid:
    """Replace raw curves by their B-spline reconstructions on the grid.

    Used to hand the *functional approximations* (paper Sec. 2) to the
    depth baselines, which — like every functional-data method — operate
    on the reconstructed functions rather than the raw noisy samples.
    ``n_basis=None`` uses a size of roughly a third of the measurement
    count, a conservative default for denoising.  ``cache`` optionally
    shares a :class:`~repro.engine.FactorizationCache` across calls.
    """
    data = as_mfd(data)
    if n_basis is None:
        n_basis = max(spline_order + 2, min(30, data.n_points // 3))
    smoothers = [
        BasisSmoother(
            BSplineBasis(data.domain, n_basis, order=spline_order),
            smoothing=smoothing,
            cache=cache,
        )
        for _ in range(data.n_parameters)
    ]
    layers = [
        smoothers[k].fit_grid(data.parameter(k)).evaluate(data.grid)
        for k in range(data.n_parameters)
    ]
    return MFDataGrid(np.stack(layers, axis=2), data.grid)


class MappedDetectorMethod(Method):
    """The paper's method: geometric mapping + multivariate detector.

    Parameters
    ----------
    detector_name:
        ``"iforest"`` or ``"ocsvm"``.
    mapping:
        Mapping function (default: curvature — the paper's choice).
    n_basis:
        Passed to :class:`GeometricOutlierPipeline` (default LOO-CV sweep).
    tune:
        For OCSVM, tune ν by 5-fold CV on each training set (paper
        Sec. 4.3).  Ignored for iForest.
    nu_candidates:
        Candidate grid when tuning ν.
    standardize:
        Z-score the mapped features using training statistics before
        the detector (recommended: curvature values span orders of
        magnitude along ``t``, which otherwise dominates RBF distances).
    feature_transform:
        Optional pointwise transform of the mapped curves before
        scaling: ``"log1p"`` (default — compresses the heavy right tail
        of non-negative invariants such as the curvature) or ``None``.
    detector_kwargs:
        Extra constructor arguments for the detector.
    """

    def __init__(
        self,
        detector_name: str,
        mapping: MappingFunction | CompositeMapping | None = None,
        n_basis=None,
        smoothing: float = 1e-4,
        tune: bool = True,
        nu_candidates: Sequence[float] = (0.02, 0.05, 0.10, 0.15, 0.20, 0.25),
        standardize: bool = True,
        feature_transform: str | None = "log1p",
        name: str | None = None,
        **detector_kwargs,
    ):
        if detector_name not in ("iforest", "ocsvm"):
            raise ValidationError(
                f"detector_name must be 'iforest' or 'ocsvm', got {detector_name!r}"
            )
        self.detector_name = detector_name
        self.mapping = mapping if mapping is not None else CurvatureMapping()
        self.n_basis = n_basis
        self.smoothing = smoothing
        self.tune = bool(tune)
        self.nu_candidates = tuple(nu_candidates)
        self.standardize = bool(standardize)
        if feature_transform not in (None, "log1p"):
            raise ValidationError(
                f"feature_transform must be None or 'log1p', got {feature_transform!r}"
            )
        self.feature_transform = feature_transform
        if "random_state" in detector_kwargs:
            raise ValidationError(
                "random_state is not a detector keyword of a method: the method "
                "seeds each split's detector from the random_state given to "
                "prepare() / fit_score()"
            )
        self.detector_kwargs = detector_kwargs
        # fit_score builds one detector per split; building one here
        # checks the keyword values before the first prepare().
        (IsolationForest if detector_name == "iforest" else OneClassSVM)(**detector_kwargs)
        if name is not None:
            self.name = name
        else:
            label = "iFor" if detector_name == "iforest" else "OCSVM"
            map_label = getattr(self.mapping, "name", "map").capitalize()
            # The paper's Figure-3 label abbreviates "Curvature" to "Curvmap".
            suffix = "Curvmap" if map_label == "Curvature" else map_label
            self.name = f"{label}({suffix})"

    def _make_detector(self, nu: float | None, random_state):
        if self.detector_name == "iforest":
            kwargs = dict(self.detector_kwargs)
            kwargs.setdefault("n_estimators", 100)
            seed = check_random_state(random_state).integers(0, 2**31 - 1)
            return IsolationForest(random_state=int(seed), **kwargs)
        kwargs = dict(self.detector_kwargs)
        if nu is not None:
            kwargs["nu"] = nu
        kwargs.setdefault("nu", 0.1)
        kwargs.setdefault("kernel", "rbf")
        return OneClassSVM(**kwargs)

    def prepare(self, data, random_state=None, context=None):
        data = as_mfd(data)
        # The split-independent part: basis selection + smoothing + mapping
        # for every sample (per-sample operations, as in the paper).  The
        # shared context's cache guarantees one factorization per distinct
        # (basis, grid, λ, penalty order) configuration across the sweep.
        pipeline = GeometricOutlierPipeline(
            detector=self._make_detector(None, random_state or 0),
            mapping=self.mapping,
            n_basis=self.n_basis,
            smoothing=self.smoothing,
            context=context,
        )
        features = pipeline.prepare(data)
        if self.feature_transform == "log1p":
            # log1p(|f|)*sign(f): monotone, sign-preserving tail compression.
            features = np.sign(features) * np.log1p(np.abs(features))
        return {"features": features, "sizes": pipeline.selected_n_basis_}

    def fit_score(self, state, train_idx, test_idx, random_state=None) -> np.ndarray:
        features = state["features"]
        train = features[np.asarray(train_idx)]
        test = features[np.asarray(test_idx)]
        if self.standardize:
            train, test = _robust_standardize(train, test)
        rng = check_random_state(random_state)
        nu = None
        if self.detector_name == "ocsvm" and self.tune:
            nu = tune_nu(train, candidates=self.nu_candidates, random_state=rng).best
        detector = self._make_detector(nu, rng)
        detector.fit(train)
        return detector.score_samples(test)


class FuntaMethod(Method):
    """FUNTA baseline (Kuhnt & Rehage 2016), reference-based scoring.

    Takes the functional approximations as input (``smooth=True``,
    default): crossing-angle statistics on raw noisy samples are
    dominated by the measurement noise's slopes, which is not what the
    baseline's authors intended.

    Scoring runs through the blocked vectorized kernel layer
    (:mod:`repro.depth._kernels`), which owns the scratch budget.  The
    original pair loop is the equivalence oracle in
    ``tests/oracles.py``.
    """

    def __init__(
        self,
        trim: float = 0.0,
        smooth: bool = True,
        name: str = "FUNTA",
        dtype=None,
    ):
        self.trim = check_trim(trim)
        self.smooth = bool(smooth)
        self.name = name
        resolve_dtype(dtype)
        self.dtype = dtype

    def prepare(self, data, random_state=None, context=None):
        data = as_mfd(data)
        if self.smooth:
            cache = context.cache if isinstance(context, ExecutionContext) else None
            data = smooth_dataset(data, cache=cache)
        return {"data": data}

    def fit_score(self, state, train_idx, test_idx, random_state=None) -> np.ndarray:
        data = state["data"]
        train = data[np.asarray(train_idx)]
        test = data[np.asarray(test_idx)]
        return funta_outlyingness(test, reference=train, trim=self.trim, dtype=self.dtype)


class DirOutMethod(Method):
    """Directional outlyingness baseline (Dai & Genton 2019).

    Scoring runs through the batched Dir.out kernels of
    :mod:`repro.depth._kernels`, which owns the scratch budget.  The
    original per-grid-point loop is the equivalence oracle in
    ``tests/oracles.py``.
    """

    def __init__(
        self,
        method: str = "total",
        n_directions: int = 200,
        smooth: bool = True,
        name: str = "Dir.out",
        dtype=None,
    ):
        self.method = check_dirout_method(method)
        self.n_directions = check_int(n_directions, "n_directions", minimum=1)
        self.smooth = bool(smooth)
        self.name = name
        resolve_dtype(dtype)
        self.dtype = dtype

    def prepare(self, data, random_state=None, context=None):
        data = as_mfd(data)
        if self.smooth:
            cache = context.cache if isinstance(context, ExecutionContext) else None
            data = smooth_dataset(data, cache=cache)
        return {"data": data}

    def fit_score(self, state, train_idx, test_idx, random_state=None) -> np.ndarray:
        data = state["data"]
        train = data[np.asarray(train_idx)]
        test = data[np.asarray(test_idx)]
        return dirout_scores(
            test,
            reference=train,
            method=self.method,
            n_directions=self.n_directions,
            random_state=random_state,
            dtype=self.dtype,
        )


def default_methods() -> list[Method]:
    """The four methods of the paper's Figure 3.

    Thin wrapper over :data:`repro.plan.DEFAULT_METHOD_SPECS` compiled
    through the plan layer — the specs are the source of truth (the
    OCSVM kernel width is fixed at ``gamma = 0.05`` on the standardized
    mapped features; see the gamma ablation bench for why ``"scale"``
    under-localizes there).
    """
    from repro.plan import DEFAULT_METHOD_SPECS, compile_plan

    return [compile_plan(spec).build() for spec in DEFAULT_METHOD_SPECS]


def make_method(spec: str, **kwargs) -> Method:
    """Factory from a Figure-3-style label (thin wrapper over ``repro.plan``).

    Accepted specs (case-insensitive): ``"Dir.out"``, ``"FUNTA"``,
    ``"iFor(Curvmap)"``, ``"OCSVM(Curvmap)"``, plus ``"iforest"`` /
    ``"ocsvm"`` aliases.  The label and keyword arguments are parsed
    into a :class:`~repro.plan.MethodSpec` and compiled, so an unknown
    label or keyword raises
    :class:`~repro.exceptions.ConfigurationError` naming the valid
    alternatives instead of failing silently deep inside ``prepare``.
    """
    from repro.plan import MethodSpec, compile_plan

    return compile_plan(MethodSpec(kind=spec, params=kwargs)).build()
