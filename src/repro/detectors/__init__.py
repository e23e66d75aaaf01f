"""Multivariate outlier detection algorithms (paper Sec. 3–4).

The paper applies Isolation Forest and One-Class SVM to the mapped
curves; both are implemented here from their original papers (no
scikit-learn dependency), alongside extension detectors used in the
ablation benches.
"""

from repro.detectors.base import OutlierDetector
from repro.detectors.iforest import IsolationForest, average_path_length
from repro.detectors.kernels import (
    linear_kernel,
    make_kernel,
    polynomial_kernel,
    rbf_kernel,
    resolve_gamma,
    sigmoid_kernel,
)
from repro.detectors.knn import KNNDetector
from repro.detectors.lof import LocalOutlierFactor
from repro.detectors.mahalanobis import MahalanobisDetector
from repro.detectors.ocsvm import OneClassSVM, smo_solve
from repro.detectors.threshold import LearnedThreshold, threshold_from_quantile

#: Concrete detector classes addressable by short name (CLI, serving
#: manifests) or by class name (the ``"type"`` field of
#: :meth:`OutlierDetector.export_state`).
DETECTOR_REGISTRY: dict[str, type[OutlierDetector]] = {
    "iforest": IsolationForest,
    "ocsvm": OneClassSVM,
    "knn": KNNDetector,
    "lof": LocalOutlierFactor,
    "mahalanobis": MahalanobisDetector,
}


def make_detector(name: str, **kwargs) -> OutlierDetector:
    """Instantiate an unfitted detector by registry name."""
    from repro.exceptions import ValidationError

    cls = DETECTOR_REGISTRY.get(name)
    if cls is None:
        raise ValidationError(
            f"unknown detector {name!r}; known: {sorted(DETECTOR_REGISTRY)}"
        )
    return cls(**kwargs)


def detector_from_state(state: dict) -> OutlierDetector:
    """Rebuild a fitted detector from :meth:`OutlierDetector.export_state`.

    Dispatches on ``state["type"]`` (a class name) and delegates to the
    class's :meth:`~OutlierDetector.from_state`.
    """
    from repro.exceptions import ValidationError

    if not isinstance(state, dict) or "type" not in state:
        raise ValidationError(
            f"detector state must be a dict with a 'type' key, got {type(state).__name__}"
        )
    by_class = {cls.__name__: cls for cls in DETECTOR_REGISTRY.values()}
    cls = by_class.get(state["type"])
    if cls is None:
        raise ValidationError(
            f"unknown detector type {state['type']!r}; known: {sorted(by_class)}"
        )
    return cls.from_state(state)


__all__ = [
    "DETECTOR_REGISTRY",
    "detector_from_state",
    "make_detector",
    "IsolationForest",
    "LearnedThreshold",
    "threshold_from_quantile",
    "KNNDetector",
    "LocalOutlierFactor",
    "MahalanobisDetector",
    "OneClassSVM",
    "OutlierDetector",
    "average_path_length",
    "linear_kernel",
    "make_kernel",
    "polynomial_kernel",
    "rbf_kernel",
    "resolve_gamma",
    "sigmoid_kernel",
    "smo_solve",
]
