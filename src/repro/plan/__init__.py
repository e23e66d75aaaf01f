"""Unified scoring-plan layer: declarative specs, one execution path.

Four PRs of growth left the repo with four parallel ways to turn curves
into outlier scores, each with its own construction idiom (string specs
in ``make_method``, kwargs in the pipeline, JSON manifests in serving).
This package replaces them with a compiler-shaped pipeline::

    JSON / kwargs ──parse──▶ Spec ──compile──▶ ScoringPlan ──execute──▶ scores

* :mod:`repro.plan.specs` — frozen dataclass specs (smoother, mapping,
  detector, method, pipeline, stream, workload) with a registry, JSON
  (de)serialization and validation whose errors name the valid
  alternatives (:class:`~repro.exceptions.ConfigurationError`);
* :mod:`repro.plan.compile` — ``compile_plan`` lowers a spec plus a
  :class:`WorkloadSpec` (batch / micro-batch / stream, ``n_jobs``,
  ``chunk_size``) into an executable :class:`ScoringPlan`
  holding the resolved objects and an
  :class:`~repro.engine.ExecutionContext`;
* :mod:`repro.plan.executor` — the single chunked execution path
  (:func:`iter_curve_chunks` / :func:`run_chunked`) shared by serving,
  streaming and the CLI.

Every public entry point (``make_method``, ``default_methods``, the
serving manifests, ``ScoringService.score_stream``, the experiment
harness, the CLI) constructs through this layer; a new backend, dtype
or workload shape lands here once instead of once per entry point.
"""

from repro.plan.compile import (
    MethodPlan,
    PipelinePlan,
    ScoringPlan,
    StreamPlan,
    compile_plan,
    pipeline_to_spec,
    plan_for_pipeline,
    restore_pipeline,
)
from repro.plan.executor import iter_curve_chunks, run_chunked
from repro.plan.specs import (
    DEFAULT_METHOD_SPECS,
    METHOD_KINDS,
    SPEC_TYPES,
    DetectorSpec,
    MappingSpec,
    MethodSpec,
    PipelineSpec,
    SmootherSpec,
    StreamSpec,
    WorkloadSpec,
    dump_spec,
    load_spec,
    spec_from_dict,
    spec_from_json,
    spec_hash,
    spec_to_json,
)

__all__ = [
    "DEFAULT_METHOD_SPECS",
    "DetectorSpec",
    "MappingSpec",
    "METHOD_KINDS",
    "MethodPlan",
    "MethodSpec",
    "PipelinePlan",
    "PipelineSpec",
    "SPEC_TYPES",
    "ScoringPlan",
    "SmootherSpec",
    "StreamPlan",
    "StreamSpec",
    "WorkloadSpec",
    "compile_plan",
    "dump_spec",
    "iter_curve_chunks",
    "load_spec",
    "pipeline_to_spec",
    "plan_for_pipeline",
    "restore_pipeline",
    "run_chunked",
    "spec_from_dict",
    "spec_from_json",
    "spec_to_json",
]
