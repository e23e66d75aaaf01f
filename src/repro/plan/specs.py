"""Typed declarative specs for every scoring configuration.

A *spec* is a frozen dataclass describing **what** to score with —
which smoother, mapping, detector, Figure-3 method or streaming setup —
with no reference to **how** it will run (that is the
:class:`WorkloadSpec`) and no live objects inside.  Specs are pure
data: they round-trip losslessly through JSON and are lowered into
executable objects by :mod:`repro.plan.compile`.

Specs validate by building.  A spec checks only what a document alone
has — JSON field types, known keys (an unknown one fails with the
valid-key list), canonical names and aliases, the structure of
composite mappings, the legacy readers — and then builds its unfitted
object through the same lowering :mod:`repro.plan.compile` runs.  Each
bound on a value is checked once, by the constructor that owns it; a
:class:`~repro.exceptions.ValidationError` from that build surfaces as
a :class:`~repro.exceptions.ConfigurationError` prefixed with the
spec's name.  Building needs no data and no fit, starts no thread and
emits no telemetry.  :class:`SmootherSpec` has no detector, so it
cannot build alone: its values are checked by the
:class:`PipelineSpec` that holds it.

The flow mirrors a compiler front end::

    JSON / kwargs --parse+validate--> Spec --compile--> ScoringPlan --execute

Every entry point of the library (``make_method``, the serving
manifests, the streaming CLI, the experiment harness) parses into this
one spec vocabulary, so a new backend, dtype or workload shape lands
here once instead of once per entry point.

JSON envelope
-------------
Top-level documents carry a ``"spec"`` discriminator tag::

    {"spec": "pipeline", "detector": {"name": "iforest", "params": {...}},
     "mapping": {"type": "CurvatureMapping"}, "smoother": {"n_basis": 15}}

``spec_from_dict`` / ``spec_from_json`` / ``load_spec`` dispatch on the
tag via :data:`SPEC_TYPES`; each spec's ``to_dict`` emits it.
"""

from __future__ import annotations

import hashlib
import inspect
import json
from dataclasses import dataclass, field, fields
from functools import cache, partial
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from repro.detectors import DETECTOR_REGISTRY, make_detector
from repro.engine.context import _resolve_n_jobs
from repro.exceptions import ConfigurationError, ValidationError
from repro.geometry.mappings import MAPPING_REGISTRY, mapping_from_config

__all__ = [
    "DEFAULT_METHOD_SPECS",
    "DetectorSpec",
    "MappingSpec",
    "MethodSpec",
    "METHOD_KINDS",
    "PipelineSpec",
    "SmootherSpec",
    "SPEC_TYPES",
    "StreamSpec",
    "WorkloadSpec",
    "dump_spec",
    "load_spec",
    "spec_from_dict",
    "spec_from_json",
    "spec_hash",
    "spec_to_json",
]


# =====================================================================
# validation helpers
# =====================================================================
@cache
def _callable_params(fn) -> frozenset[str]:
    """Named parameters accepted by ``fn`` (excluding self / *args / **kwargs)."""
    sig = inspect.signature(fn)
    return frozenset(
        name
        for name, p in sig.parameters.items()
        if name != "self"
        and p.kind not in (p.VAR_POSITIONAL, p.VAR_KEYWORD)
    )


def _check_keys(given, valid: frozenset[str], what: str) -> None:
    """Reject unknown keys with the full valid-key list in the message."""
    unknown = sorted(set(given) - valid)
    if unknown:
        raise ConfigurationError(
            f"unknown parameter(s) for {what}: {unknown}; "
            f"valid: {sorted(valid)}"
        )


def _check_type(value, types, what: str):
    types = types if isinstance(types, tuple) else (types,)
    # JSON booleans are not numbers, though bool subclasses int.
    if not isinstance(value, types) or (isinstance(value, bool) and bool not in types):
        names = "/".join(t.__name__ for t in types)
        raise ConfigurationError(
            f"{what} must be {names}, got {type(value).__name__} ({value!r})"
        )
    return value


def _check_choice(value, choices: Sequence, what: str):
    if value not in choices:
        raise ConfigurationError(
            f"{what} must be one of {sorted(str(c) for c in choices)}, got {value!r}"
        )
    return value


def _check_built(build, what: str) -> None:
    """Validate a spec by running ``build``: its lowering to the unfitted
    object, or the one check the object's constructor runs."""
    try:
        build()
    except ValidationError as exc:
        raise ConfigurationError(f"{what}: {exc}") from exc


def _as_params(value, what: str) -> dict:
    if value is None:
        return {}
    if not isinstance(value, Mapping):
        raise ConfigurationError(
            f"{what} params must be a mapping of keyword arguments, "
            f"got {type(value).__name__}"
        )
    params = dict(value)
    for key in params:
        if not isinstance(key, str):
            raise ConfigurationError(
                f"{what} params keys must be strings, got {key!r}"
            )
    return params


def _jsonable(value):
    """Lower a spec field value into plain-JSON types (lossy only for objects
    that provide ``to_config`` — mappings — which lower to their config dict)."""
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    if isinstance(value, np.bool_):
        return bool(value)
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, Mapping):
        return {k: _jsonable(v) for k, v in value.items()}
    if hasattr(value, "to_config") and callable(value.to_config):
        return _jsonable(value.to_config())
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    raise ConfigurationError(
        f"value {value!r} of type {type(value).__name__} is not JSON-serializable; "
        "specs may only hold scalars, lists, dicts and mapping configs"
    )


def _doc_keys(doc: Mapping, valid: set[str], what: str) -> None:
    _check_keys([k for k in doc if k != "spec"], valid, what)


# =====================================================================
# component specs
# =====================================================================
@dataclass(frozen=True)
class SmootherSpec:
    """Declarative smoothing stage: penalized B-spline reconstruction.

    ``n_basis`` follows the pipeline convention: an ``int`` fixes the
    basis size, a sequence gives the LOO-CV candidate sweep, ``None``
    uses the default candidate sweep.  The values are checked by the
    pipeline constructor, when the :class:`PipelineSpec` holding this
    spec builds.
    """

    n_basis: int | tuple | None = None
    smoothing: float = 1e-4
    penalty_order: int = 2
    spline_order: int = 4

    def __post_init__(self):
        n_basis = self.n_basis
        if isinstance(n_basis, (list, tuple)):
            n_basis = tuple(
                int(_check_type(v, (int, np.integer), "smoother n_basis candidate"))
                for v in n_basis
            )
        elif n_basis is not None:
            n_basis = int(_check_type(
                n_basis, (int, np.integer), "smoother n_basis (an int, a list or null)"
            ))
        object.__setattr__(self, "n_basis", n_basis)
        smoothing = _check_type(self.smoothing, (int, float), "smoother smoothing")
        object.__setattr__(self, "smoothing", float(smoothing))
        _check_type(self.penalty_order, int, "smoother penalty_order")
        _check_type(self.spline_order, int, "smoother spline_order")

    def to_dict(self) -> dict:
        return {
            "n_basis": _jsonable(self.n_basis),
            "smoothing": self.smoothing,
            "penalty_order": self.penalty_order,
            "spline_order": self.spline_order,
        }

    @classmethod
    def from_dict(cls, doc: Mapping) -> "SmootherSpec":
        _check_type(doc, Mapping, "smoother spec")
        _doc_keys(doc, {f.name for f in fields(cls)}, "smoother spec")
        return cls(**{k: v for k, v in doc.items() if k != "spec"})


@dataclass(frozen=True)
class MappingSpec:
    """Declarative geometric aggregation (one mapping, or a composite).

    ``type`` is a :data:`~repro.geometry.mappings.MAPPING_REGISTRY`
    class name (``"CurvatureMapping"``) or its short alias
    (``"curvature"``); ``"CompositeMapping"`` / ``"composite"`` takes
    the sub-specs in ``mappings`` instead of ``params``.
    """

    type: str = "CurvatureMapping"
    params: dict = field(default_factory=dict)
    mappings: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "type", self._canonical_type(self.type))
        object.__setattr__(self, "params", _as_params(self.params, "mapping"))
        object.__setattr__(self, "mappings", tuple(self.mappings or ()))
        if self.type == "CompositeMapping":
            if not self.mappings:
                raise ConfigurationError(
                    "CompositeMapping spec needs a non-empty 'mappings' list"
                )
            if self.params:
                raise ConfigurationError(
                    "CompositeMapping takes sub-specs in 'mappings', not 'params'"
                )
            for sub in self.mappings:
                _check_type(sub, MappingSpec, "composite sub-mapping")
                if sub.type == "CompositeMapping":
                    raise ConfigurationError("composite mappings do not nest")
        elif self.mappings:
            raise ConfigurationError(
                f"'mappings' is only valid for CompositeMapping, not {self.type}"
            )
        else:
            _check_keys(
                self.params,
                _callable_params(MAPPING_REGISTRY[self.type].__init__),
                f"mapping {self.type!r}",
            )
        _check_built(self._build, f"mapping spec {self.type!r}")

    def _build(self):
        return mapping_from_config(self.to_config())

    @staticmethod
    def _canonical_type(name) -> str:
        _check_type(name, str, "mapping type")
        if name in MAPPING_REGISTRY or name == "CompositeMapping":
            return name
        low = name.strip().lower()
        if low in ("composite", "compositemapping"):
            return "CompositeMapping"
        for cls_name in MAPPING_REGISTRY:
            if low in (cls_name.lower(), cls_name.removesuffix("Mapping").lower()):
                return cls_name
        raise ConfigurationError(
            f"unknown mapping type {name!r}; "
            f"known: {sorted(MAPPING_REGISTRY) + ['CompositeMapping']}"
        )

    def to_config(self) -> dict:
        """The :meth:`MappingFunction.to_config` wire format (persistence)."""
        if self.type == "CompositeMapping":
            return {
                "type": "CompositeMapping",
                "mappings": [sub.to_config() for sub in self.mappings],
            }
        return {"type": self.type, "params": _jsonable(self.params)}

    @classmethod
    def from_config(cls, config: Mapping) -> "MappingSpec":
        """Inverse of :meth:`to_config` (also reads v1 manifest configs)."""
        _check_type(config, Mapping, "mapping config")
        if "type" not in config:
            raise ConfigurationError(
                f"mapping config needs a 'type' key, got keys {sorted(config)}"
            )
        if config["type"] == "CompositeMapping":
            return cls(
                type="CompositeMapping",
                mappings=tuple(
                    cls.from_config(sub) for sub in config.get("mappings", [])
                ),
            )
        return cls(type=config["type"], params=config.get("params", {}))

    def to_dict(self) -> dict:
        doc: dict = {"type": self.type}
        if self.type == "CompositeMapping":
            doc["mappings"] = [sub.to_dict() for sub in self.mappings]
        elif self.params:
            doc["params"] = _jsonable(self.params)
        return doc

    @classmethod
    def from_dict(cls, doc) -> "MappingSpec":
        if isinstance(doc, str):  # shorthand: "curvature"
            return cls(type=doc)
        _check_type(doc, Mapping, "mapping spec")
        _doc_keys(doc, {"type", "params", "mappings"}, "mapping spec")
        subs = tuple(cls.from_dict(sub) for sub in doc.get("mappings", ()))
        return cls(
            type=doc.get("type", "CurvatureMapping"),
            params=doc.get("params", {}),
            mappings=subs,
        )


@dataclass(frozen=True)
class DetectorSpec:
    """Declarative multivariate detector: registry name + constructor kwargs."""

    name: str = "iforest"
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "name", self._canonical_name(self.name))
        object.__setattr__(self, "params", _as_params(self.params, "detector"))
        _check_keys(
            self.params,
            _callable_params(DETECTOR_REGISTRY[self.name].__init__),
            f"detector {self.name!r}",
        )
        _check_built(self._build, f"detector spec {self.name!r}")

    def _build(self):
        return make_detector(self.name, **self.params)

    @staticmethod
    def _canonical_name(name) -> str:
        _check_type(name, str, "detector name")
        if name in DETECTOR_REGISTRY:
            return name
        by_class = {cls.__name__: key for key, cls in DETECTOR_REGISTRY.items()}
        if name in by_class:
            return by_class[name]
        low = name.strip().lower()
        if low in DETECTOR_REGISTRY:
            return low
        raise ConfigurationError(
            f"unknown detector {name!r}; known: {sorted(DETECTOR_REGISTRY)}"
        )

    def to_dict(self) -> dict:
        doc: dict = {"name": self.name}
        if self.params:
            doc["params"] = _jsonable(self.params)
        return doc

    @classmethod
    def from_dict(cls, doc) -> "DetectorSpec":
        if isinstance(doc, str):  # shorthand: "iforest"
            return cls(name=doc)
        _check_type(doc, Mapping, "detector spec")
        _doc_keys(doc, {"name", "params"}, "detector spec")
        return cls(name=doc.get("name", "iforest"), params=doc.get("params", {}))


# =====================================================================
# top-level specs
# =====================================================================
@dataclass(frozen=True)
class PipelineSpec:
    """The paper's smooth → map → detect pipeline, declaratively."""

    detector: DetectorSpec = field(default_factory=DetectorSpec)
    mapping: MappingSpec = field(default_factory=MappingSpec)
    smoother: SmootherSpec = field(default_factory=SmootherSpec)
    eval_points: int | None = None

    def __post_init__(self):
        _check_type(self.detector, DetectorSpec, "pipeline detector")
        _check_type(self.mapping, MappingSpec, "pipeline mapping")
        _check_type(self.smoother, SmootherSpec, "pipeline smoother")
        if self.eval_points is not None:
            _check_type(self.eval_points, int, "pipeline eval_points")
        _check_built(self._build, "pipeline spec")

    def _build(self, context=None):
        """The unfitted pipeline (``context`` as in the constructor)."""
        from repro.core.pipeline import GeometricOutlierPipeline

        smoother = self.smoother
        return GeometricOutlierPipeline(
            detector=self.detector._build(),
            mapping=self.mapping._build(),
            n_basis=smoother.n_basis,
            smoothing=smoother.smoothing,
            penalty_order=smoother.penalty_order,
            spline_order=smoother.spline_order,
            eval_points=self.eval_points,
            context=context,
        )

    def to_dict(self) -> dict:
        return {
            "spec": "pipeline",
            "detector": self.detector.to_dict(),
            "mapping": self.mapping.to_dict(),
            "smoother": self.smoother.to_dict(),
            "eval_points": self.eval_points,
        }

    @classmethod
    def from_dict(cls, doc: Mapping) -> "PipelineSpec":
        _check_type(doc, Mapping, "pipeline spec")
        _doc_keys(doc, {"detector", "mapping", "smoother", "eval_points"}, "pipeline spec")
        return cls(
            detector=DetectorSpec.from_dict(doc.get("detector", "iforest")),
            mapping=MappingSpec.from_dict(doc.get("mapping", {})),
            smoother=SmootherSpec.from_dict(doc.get("smoother", {})),
            eval_points=doc.get("eval_points"),
        )


#: Canonical Figure-3 method kinds and the label aliases accepted from
#: the historical ``make_method`` string path (case-insensitive).
METHOD_KINDS = ("dirout", "funta", "iforest", "ocsvm")

_METHOD_ALIASES = {
    "dir.out": "dirout",
    "dirout": "dirout",
    "funta": "funta",
    "ifor": "iforest",
    "ifor(curvmap)": "iforest",
    "iforest": "iforest",
    "ocsvm": "ocsvm",
    "ocsvm(curvmap)": "ocsvm",
}


def _method_valid_keys(kind: str) -> frozenset[str]:
    # Lazy import: repro.core.methods imports back into the evaluation
    # stack; signatures are only needed at validation time.
    from repro.core import methods as core_methods

    if kind == "funta":
        return _callable_params(core_methods.FuntaMethod.__init__)
    if kind == "dirout":
        return _callable_params(core_methods.DirOutMethod.__init__)
    wrapper = _callable_params(core_methods.MappedDetectorMethod.__init__)
    # The method seeds its detector per split from the harness's
    # random_state, so the detector's own seed is not a method parameter.
    detector = _callable_params(DETECTOR_REGISTRY[kind].__init__) - {"random_state"}
    return (wrapper - {"detector_name"}) | detector


@dataclass(frozen=True)
class MethodSpec:
    """One Figure-3 experiment method (pipeline variant or depth baseline).

    ``kind`` accepts the canonical names (:data:`METHOD_KINDS`) and the
    Figure-3 label aliases the old ``make_method`` string path took
    (``"Dir.out"``, ``"iFor(Curvmap)"``, ...).  ``params`` is validated
    against the method constructor *and* — for the detector-backed
    kinds — the detector constructor, so a typo'd keyword fails here
    with the valid-key list instead of deep inside ``prepare``; its
    values are checked by building the method.
    """

    kind: str = "iforest"
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        _check_type(self.kind, str, "method kind")
        canonical = _METHOD_ALIASES.get(self.kind.strip().lower())
        if canonical is None:
            raise ConfigurationError(
                f"unknown method spec {self.kind!r}; known kinds: "
                f"{list(METHOD_KINDS)} (plus Figure-3 labels "
                "'Dir.out', 'FUNTA', 'iFor(Curvmap)', 'OCSVM(Curvmap)')"
            )
        object.__setattr__(self, "kind", canonical)
        object.__setattr__(self, "params", _as_params(self.params, "method"))
        _check_keys(self.params, _method_valid_keys(canonical), f"method {canonical!r}")
        _check_built(self._build, f"method spec {canonical!r}")

    def _build(self):
        """The method object (the ``make_method`` dispatch)."""
        from repro.core import methods as core_methods

        params = dict(self.params)
        if self.kind == "funta":
            return core_methods.FuntaMethod(**params)
        if self.kind == "dirout":
            return core_methods.DirOutMethod(**params)
        mapping = params.get("mapping")
        if isinstance(mapping, Mapping):
            # JSON-authored specs carry the mapping as a config dict.
            params["mapping"] = MappingSpec.from_dict(mapping)._build()
        return core_methods.MappedDetectorMethod(self.kind, **params)

    def to_dict(self) -> dict:
        doc: dict = {"spec": "method", "kind": self.kind}
        if self.params:
            doc["params"] = _jsonable(self.params)
        return doc

    @classmethod
    def from_dict(cls, doc: Mapping) -> "MethodSpec":
        _check_type(doc, Mapping, "method spec")
        _doc_keys(doc, {"kind", "params"}, "method spec")
        return cls(kind=doc.get("kind", "iforest"), params=doc.get("params", {}))


#: The four methods of the paper's Figure 3, as data.  The OCSVM kernel
#: width is fixed at ``gamma = 0.05`` on the standardized mapped
#: features (see the gamma ablation bench).
DEFAULT_METHOD_SPECS = (
    MethodSpec("dirout"),
    MethodSpec("funta"),
    MethodSpec("iforest", params={"n_estimators": 200}),
    MethodSpec("ocsvm", params={"gamma": 0.05}),
)


@dataclass(frozen=True)
class StreamSpec:
    """Online detection setup: reference window + scorer + calibration.

    Mirrors the ``repro stream-score`` CLI surface.  ``on_drift=None``
    resolves by policy: reservoir windows re-reference on drift (they
    dilute regime changes indefinitely otherwise), sliding windows
    adapt on their own.
    """

    kind: str = "funta"
    window: int = 128
    policy: str = "sliding"
    min_reference: int = 16
    contamination: float = 0.05
    threshold_mode: str = "window"
    drift_baseline: int = 128
    drift_recent: int = 64
    alpha: float = 0.01
    seed: int = 7
    update_policy: str = "all"
    on_drift: str | None = None
    shards: int = 1
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        _check_type(self.kind, str, "stream kind")
        for name in ("window", "min_reference", "drift_baseline", "drift_recent",
                     "seed", "shards"):
            _check_type(getattr(self, name), int, f"stream {name}")
        for name in ("contamination", "alpha"):
            value = _check_type(getattr(self, name), (int, float), f"stream {name}")
            object.__setattr__(self, name, float(value))
        _check_choice(self.policy, ("sliding", "reservoir"), "stream policy")
        object.__setattr__(self, "params", _as_params(self.params, "stream"))
        _check_built(self._build, "stream spec")

    def _build(self, context=None):
        """Window + threshold + drift monitor + detector (``context`` as
        in :class:`~repro.streaming.StreamingDetector`)."""
        from repro.streaming import (
            DepthRankDrift,
            ReservoirWindow,
            SlidingWindow,
            StreamingDetector,
            make_threshold,
        )

        if self.policy == "sliding":
            window = SlidingWindow(self.window)
        else:
            window = ReservoirWindow(self.window, random_state=self.seed)
        return StreamingDetector(
            self.kind,
            window,
            shards=self.shards,
            threshold=make_threshold(
                self.contamination, mode=self.threshold_mode, capacity=self.window
            ),
            drift=DepthRankDrift(
                baseline_size=self.drift_baseline,
                recent_size=self.drift_recent,
                alpha=self.alpha,
            ),
            min_reference=self.min_reference,
            update_policy=self.update_policy,
            on_drift=self.effective_on_drift,
            context=context,
            **self.params,
        )

    @property
    def effective_on_drift(self) -> str:
        if self.on_drift is not None:
            return self.on_drift
        return "rereference" if self.policy == "reservoir" else "adapt"

    def to_dict(self) -> dict:
        doc: dict = {"spec": "stream"}
        for f in fields(self):
            doc[f.name] = _jsonable(getattr(self, f.name))
        if not doc["params"]:
            del doc["params"]
        return doc

    @classmethod
    def from_dict(cls, doc: Mapping) -> "StreamSpec":
        _check_type(doc, Mapping, "stream spec")
        doc = dict(doc)
        # Legacy documents name the shard executor; "thread" and "serial"
        # gave identical outputs and are both what shards now run on.
        legacy_backend = doc.pop("shard_backend", "thread")
        if legacy_backend == "process":
            raise ConfigurationError(
                "stream shard_backend 'process' was removed; shards run on "
                "one thread pool (drop the key)"
            )
        _check_choice(legacy_backend, ("serial", "thread"), "stream shard_backend")
        # Legacy documents also name the scoring path; true is the only
        # path there is (each kind has one scoring rule).
        legacy_incremental = doc.pop("incremental", True)
        if legacy_incremental is not True:
            raise ConfigurationError(
                "stream 'incremental' must be true or absent: each kind has "
                "one scoring rule, so the refit switch was removed (drop the "
                f"key), got {legacy_incremental!r}"
            )
        # Legacy documents carry the kernel scratch budget, now a
        # constant of repro.depth._kernels; null was the only value in use.
        legacy_budget = doc.pop("block_bytes", None)
        if legacy_budget is not None:
            raise ConfigurationError(
                "stream block_bytes was removed; the depth kernels own their "
                f"scratch budget (drop the key), got {legacy_budget!r}"
            )
        _doc_keys(doc, {f.name for f in fields(cls)}, "stream spec")
        return cls(**{k: v for k, v in doc.items() if k != "spec"})


@dataclass(frozen=True)
class WorkloadSpec:
    """How a spec will be executed: traffic shape + pool size.

    ``mode`` is the traffic shape (``"batch"`` one-shot matrices,
    ``"microbatch"`` the submit/flush queue, ``"stream"`` bounded-memory
    chunking); ``chunk_size`` bounds the chunked paths; ``n_jobs`` sizes
    the :class:`~repro.engine.ExecutionContext` pool.  The depth
    kernels' scratch budget is a constant of
    :mod:`repro.depth._kernels`, and a depth method's compute dtype is
    its own ``dtype`` parameter (``MethodSpec(params={"dtype": ...})``).
    """

    mode: str = "batch"
    n_jobs: int = 1
    chunk_size: int = 256

    def __post_init__(self):
        _check_choice(self.mode, ("batch", "microbatch", "stream"), "workload mode")
        _check_type(self.n_jobs, int, "workload n_jobs")
        _check_type(self.chunk_size, int, "workload chunk_size")
        if self.chunk_size < 1:
            raise ConfigurationError(
                f"workload chunk_size must be >= 1, got {self.chunk_size}"
            )
        # ExecutionContext's own bound, without building its cache.
        _check_built(partial(_resolve_n_jobs, self.n_jobs), "workload spec")

    def to_dict(self) -> dict:
        return {"spec": "workload", **{f.name: getattr(self, f.name) for f in fields(self)}}

    @classmethod
    def from_dict(cls, doc: Mapping) -> "WorkloadSpec":
        _check_type(doc, Mapping, "workload spec")
        _doc_keys(doc, {f.name for f in fields(cls)}, "workload spec")
        return cls(**{k: v for k, v in doc.items() if k != "spec"})


# =====================================================================
# JSON envelope
# =====================================================================
#: Top-level spec classes addressable from JSON, keyed by the ``"spec"`` tag.
SPEC_TYPES: dict[str, type] = {
    "pipeline": PipelineSpec,
    "method": MethodSpec,
    "stream": StreamSpec,
    "workload": WorkloadSpec,
}


def spec_from_dict(doc: Mapping):
    """Parse a tagged spec document (see the module docstring)."""
    _check_type(doc, Mapping, "spec document")
    tag = doc.get("spec")
    if tag is None:
        raise ConfigurationError(
            f"spec document needs a 'spec' tag naming its type; "
            f"known tags: {sorted(SPEC_TYPES)}"
        )
    cls = SPEC_TYPES.get(tag)
    if cls is None:
        raise ConfigurationError(
            f"unknown spec tag {tag!r}; known tags: {sorted(SPEC_TYPES)}"
        )
    return cls.from_dict(doc)


def spec_from_json(text: str):
    """Parse a spec from its JSON text."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"spec is not valid JSON: {exc}") from exc
    return spec_from_dict(doc)


def spec_to_json(spec, indent: int | None = 2) -> str:
    """Serialize any spec to JSON text (inverse of :func:`spec_from_json`)."""
    if not isinstance(spec, tuple(SPEC_TYPES.values())):
        raise ConfigurationError(
            f"cannot serialize {type(spec).__name__}; top-level specs are "
            f"{sorted(cls.__name__ for cls in SPEC_TYPES.values())}"
        )
    return json.dumps(spec.to_dict(), indent=indent, sort_keys=True)


def spec_hash(spec) -> str:
    """Content hash of a spec: sha256 over its canonical JSON, hex digest.

    Canonical means sorted keys and compact separators, so the hash is
    stable across processes, Python versions and dict insertion orders
    — two specs hash equal iff their JSON round-trips are equal.  The
    serving tier uses it as the routing key for deployed pipelines: a
    request may address a model by the hash of its declarative spec
    instead of a deployment-local name, and every worker process
    derives the same key from the same manifest with no coordination.
    """
    if not isinstance(spec, tuple(SPEC_TYPES.values())):
        raise ConfigurationError(
            f"cannot hash {type(spec).__name__}; top-level specs are "
            f"{sorted(cls.__name__ for cls in SPEC_TYPES.values())}"
        )
    canonical = json.dumps(spec.to_dict(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def load_spec(path):
    """Read and validate a spec JSON file."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigurationError(f"cannot read spec file {path}: {exc}") from exc
    return spec_from_json(text)


def dump_spec(spec, path) -> Path:
    """Write a spec to ``path`` as JSON; returns the path."""
    path = Path(path)
    path.write_text(spec_to_json(spec) + "\n", encoding="utf-8")
    return path
