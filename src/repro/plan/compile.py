"""Lower validated specs into executable scoring plans.

``compile_plan(spec, workload, context)`` is the single construction
path of the library: every entry point — ``make_method``, the serving
manifests, the streaming CLI, the experiment harness — funnels through
it.
Resolving a spec into live smoother/mapping/detector objects happens in
one lowering per spec, which the spec also runs on construction to
validate itself (see :mod:`repro.plan.specs`); a plan's ``build`` runs
the same lowering against the plan's context.

A :class:`ScoringPlan` bundles the spec, the
:class:`~repro.plan.specs.WorkloadSpec` describing how it will run, and
the resolved :class:`~repro.engine.ExecutionContext`; its subclasses
expose the execution surface for each spec family:

===================  ================================================
spec                 plan / executable
===================  ================================================
:class:`PipelineSpec` :class:`PipelinePlan` → fitted
                      :class:`~repro.core.pipeline.GeometricOutlierPipeline`
:class:`MethodSpec`   :class:`MethodPlan` → a Figure-3
                      :class:`~repro.core.methods.Method`
:class:`StreamSpec`   :class:`StreamPlan` → a primed
                      :class:`~repro.streaming.StreamingDetector`
===================  ================================================
"""

from __future__ import annotations

from typing import Iterator, Mapping

from repro.detectors import DETECTOR_REGISTRY
from repro.engine import ExecutionContext
from repro.exceptions import ConfigurationError, NotFittedError
from repro.plan.executor import run_chunked
from repro.plan.specs import (
    DetectorSpec,
    MappingSpec,
    MethodSpec,
    PipelineSpec,
    SmootherSpec,
    StreamSpec,
    WorkloadSpec,
    spec_from_dict,
)

__all__ = [
    "MethodPlan",
    "PipelinePlan",
    "ScoringPlan",
    "StreamPlan",
    "compile_plan",
    "pipeline_to_spec",
    "plan_for_pipeline",
    "restore_pipeline",
]

_DETECTOR_NAME_BY_CLASS = {cls.__name__: name for name, cls in DETECTOR_REGISTRY.items()}


# =====================================================================
# plans
# =====================================================================
class ScoringPlan:
    """A compiled spec: resolved context + workload, ready to execute."""

    kind: str = "plan"

    def __init__(self, spec, workload: WorkloadSpec, context: ExecutionContext):
        self.spec = spec
        self.workload = workload
        self.context = context

    def build(self):
        """Construct a fresh executable object from the spec."""
        raise NotImplementedError

    def describe(self) -> dict:
        """One-line-able summary used by ``repro plan validate``."""
        return {"kind": self.kind, "workload": self.workload.mode}

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}({self.spec!r}, mode={self.workload.mode!r})"


class PipelinePlan(ScoringPlan):
    """Executable plan for the smooth → map → detect pipeline."""

    kind = "pipeline"

    def __init__(self, spec: PipelineSpec, workload, context):
        super().__init__(spec, workload, context)
        self._pipeline = None

    def build(self):
        """A fresh (unfitted) pipeline resolved from the spec."""
        return self.spec._build(self.context)

    # ------------------------------------------------------------------ execution
    @property
    def pipeline(self):
        """The bound executable (set by :meth:`fit` or :meth:`bind`)."""
        if self._pipeline is None:
            raise NotFittedError(
                "plan has no fitted pipeline yet — call fit(train) or bind one"
            )
        return self._pipeline

    def bind(self, pipeline) -> "PipelinePlan":
        """Adopt an already-fitted pipeline as this plan's executable."""
        from repro.core.pipeline import GeometricOutlierPipeline

        if not isinstance(pipeline, GeometricOutlierPipeline) or not pipeline._fitted:
            raise ConfigurationError(
                "bind() needs a fitted GeometricOutlierPipeline"
            )
        self._pipeline = pipeline
        return self

    def fit(self, train):
        """Build from the spec and fit on ``train``; returns the pipeline."""
        self._pipeline = self.build().fit(train)
        return self._pipeline

    def score(self, data):
        """Batch-mode scoring through the bound pipeline."""
        return self.pipeline.score_samples(data)

    def score_chunks(self, data, chunk_size: int | None = None) -> Iterator:
        """Stream-mode scoring: bounded-memory chunks of scores."""
        size = self.workload.chunk_size if chunk_size is None else chunk_size
        return run_chunked(self.pipeline.score_samples, data, chunk_size=size)

    def fit_score(self, train, test):
        """Convenience: fit on ``train``, score ``test``."""
        self.fit(train)
        return self.score(test)

    def describe(self) -> dict:
        return {
            **super().describe(),
            "detector": self.spec.detector.name,
            "mapping": self.spec.mapping.type,
            "n_basis": self.spec.smoother.n_basis,
        }


class MethodPlan(ScoringPlan):
    """Executable plan for one Figure-3 experiment method."""

    kind = "method"

    def build(self):
        """Resolve the method object (the old ``make_method`` dispatch)."""
        return self.spec._build()

    def describe(self) -> dict:
        return {**super().describe(), "method": self.spec.kind}


class StreamPlan(ScoringPlan):
    """Executable plan for online detection over an unbounded stream."""

    kind = "stream"

    def __init__(self, spec: StreamSpec, workload, context):
        super().__init__(spec, workload, context)
        self._detector = None

    def build(self):
        """Window + threshold + drift monitor + detector, from the spec."""
        return self.spec._build(self.context)

    @property
    def detector(self):
        if self._detector is None:
            self._detector = self.build()
        return self._detector

    def describe(self) -> dict:
        return {
            **super().describe(),
            "stream_kind": self.spec.kind,
            "policy": self.spec.policy,
            "window": self.spec.window,
            "shards": self.spec.shards,
        }


_PLAN_BY_SPEC = {
    PipelineSpec: PipelinePlan,
    MethodSpec: MethodPlan,
    StreamSpec: StreamPlan,
}


# =====================================================================
# compilation entry points
# =====================================================================
def compile_plan(
    spec,
    workload: WorkloadSpec | None = None,
    context: ExecutionContext | None = None,
    telemetry=None,
) -> ScoringPlan:
    """Lower ``spec`` (+ optional workload descriptor) into a ScoringPlan.

    ``spec`` may be a spec object or a tagged dict (see
    :func:`~repro.plan.specs.spec_from_dict`).  ``workload`` defaults to
    batch mode for pipeline/method specs and stream mode for stream
    specs.  ``context`` attaches the plan to a shared execution context;
    a private one sized by ``workload.n_jobs`` is created when omitted.
    ``telemetry`` threads a :class:`~repro.telemetry.Telemetry` handle
    through that context, so everything the plan executes — cache,
    kernels, chunked runs, streaming detectors — emits into one
    registry; attaching to a caller-provided context only upgrades it
    (an already-enabled handle is never replaced by this argument).
    """
    if isinstance(spec, Mapping):
        spec = spec_from_dict(spec)
    plan_cls = _PLAN_BY_SPEC.get(type(spec))
    if plan_cls is None:
        raise ConfigurationError(
            f"cannot compile {type(spec).__name__}; compilable specs: "
            f"{sorted(cls.__name__ for cls in _PLAN_BY_SPEC)}"
        )
    if workload is None:
        workload = WorkloadSpec(mode="stream" if isinstance(spec, StreamSpec) else "batch")
    elif not isinstance(workload, WorkloadSpec):
        if isinstance(workload, Mapping):
            workload = WorkloadSpec.from_dict(workload)
        else:
            raise ConfigurationError(
                f"workload must be a WorkloadSpec or dict, got {type(workload).__name__}"
            )
    if context is None:
        context = ExecutionContext(n_jobs=workload.n_jobs, telemetry=telemetry)
    elif not isinstance(context, ExecutionContext):
        raise ConfigurationError(
            f"context must be an ExecutionContext, got {type(context).__name__}"
        )
    elif telemetry is not None and not context.telemetry.enabled:
        context.attach_telemetry(telemetry)
    return plan_cls(spec, workload, context)


def pipeline_to_spec(pipeline) -> PipelineSpec:
    """Derive the declarative spec of a (possibly fitted) pipeline.

    The inverse direction of :meth:`PipelinePlan.build`: used by the
    serving layer to write the v2 manifest's ``spec`` section.
    """
    detector = pipeline.detector
    name = _DETECTOR_NAME_BY_CLASS.get(type(detector).__name__)
    if name is None:
        raise ConfigurationError(
            f"detector {type(detector).__name__} is not in DETECTOR_REGISTRY; "
            f"registered: {sorted(DETECTOR_REGISTRY)}"
        )
    return PipelineSpec(
        detector=DetectorSpec(name, dict(detector._export_config())),
        mapping=MappingSpec.from_config(pipeline.mapping.to_config()),
        smoother=SmootherSpec(
            n_basis=pipeline.n_basis,
            smoothing=pipeline.smoothing,
            penalty_order=pipeline.penalty_order,
            spline_order=pipeline.spline_order,
        ),
        eval_points=pipeline.eval_points,
    )


def restore_pipeline(
    spec: PipelineSpec,
    state: dict,
    context: ExecutionContext | None = None,
):
    """Rebuild a fitted pipeline from its spec + exported fitted state.

    The loading half of the v2 persistence format: the *declarative*
    configuration comes from ``spec`` (validated by the spec layer), the
    *fitted* artifacts (smoothers, evaluation grid, detector state) come
    from ``state``.  Scores are bit-identical to the pipeline that was
    saved.
    """
    from repro.detectors import detector_from_state

    plan = compile_plan(spec, context=context)
    pipeline = plan.build()
    # The spec is the single source of truth for constructor config:
    # v2 manifests do not persist the detector's config inside the
    # fitted state at all, and for v1 (whose spec was derived from that
    # very config) the override is a no-op — so an edited spec section
    # genuinely governs the restored detector.
    detector_state = dict(state["detector"])
    detector_state["config"] = dict(spec.detector.params)
    pipeline.detector = detector_from_state(detector_state)
    pipeline.inject_fitted_state(state)
    plan.bind(pipeline)
    return pipeline


def plan_for_pipeline(
    pipeline,
    workload: WorkloadSpec | None = None,
    context: ExecutionContext | None = None,
) -> PipelinePlan:
    """Wrap an already-fitted pipeline in an executable plan.

    Derives the spec from the pipeline and binds the instance, so
    callers holding a fitted pipeline (e.g. one restored from disk) get
    the same chunked execution surface as spec-compiled plans.
    """
    spec = pipeline_to_spec(pipeline)
    plan = compile_plan(spec, workload=workload, context=context or pipeline.context)
    plan.bind(pipeline)
    return plan
