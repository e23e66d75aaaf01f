"""Command-line interface: regenerate figures, serve saved pipelines.

Usage::

    python -m repro fig1
    python -m repro fig2
    python -m repro fig3 --reps 50 --n-jobs 4
    python -m repro taxonomy
    python -m repro all --reps 15
    python -m repro serve-score --pipeline model_dir --data batch.npz
    python -m repro serve --pipeline ecg=model_dir --port 8000 --workers 4
    python -m repro stream-score --data stream.npz --kind funta --window 128
    python -m repro telemetry dump --pipeline model_dir --data batch.npz
    python -m repro telemetry trace --pipeline model_dir --data batch.npz
    python -m repro plan validate examples/specs/*.json model_dir

Each figure subcommand prints the same rows/series as the corresponding
bench in ``benchmarks/`` (the benches additionally assert the expected
shape and time the computation).  ``serve-score`` is the inference
entry point: it loads a pipeline persisted by
:func:`repro.serving.save_pipeline` and scores a curve batch stored as
an ``.npz`` with ``values`` (n, m) or (n, m, p) and ``grid`` (m,)
arrays, streaming in bounded-memory chunks.  ``stream-score`` is the
*online* counterpart: curves are treated as an unbounded stream, scored
chunk by chunk against an evolving reference window with an adaptive
threshold and drift monitoring (curves consumed during warm-up get NaN
scores).

The CLI records no timings: ``perfbench/run.py`` is the repository
benchmark, and ``benchmarks/bench_gates.py`` holds the CI speed gates.

``main`` returns 0 on success and 2 on operational errors (missing or
corrupt files, invalid data), printing the reason to stderr.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np


def _print_table(title: str, headers: list[str], rows: list[list]) -> None:
    widths = [
        max(len(str(headers[j])), max((len(str(r[j])) for r in rows), default=0))
        for j in range(len(headers))
    ]
    line = "  ".join(str(h).ljust(widths[j]) for j, h in enumerate(headers))
    print(f"\n=== {title} ===")
    print(line)
    print("-" * len(line))
    for row in rows:
        print("  ".join(str(cell).ljust(widths[j]) for j, cell in enumerate(row)))


def run_fig1(args) -> None:
    """Figure 1: the motivating shape outlier, marginally invisible."""
    from repro.core.methods import MappedDetectorMethod
    from repro.data import make_fig1_dataset
    from repro.evaluation.metrics import roc_auc

    data, labels = make_fig1_dataset(random_state=args.seed)
    method = MappedDetectorMethod("iforest", n_basis=20)
    idx = np.arange(data.n_samples)
    scores = method.score_dataset(data, idx, idx, random_state=0)
    rank = int(np.argsort(-scores).tolist().index(20)) + 1
    _print_table(
        "Figure 1",
        ["quantity", "value"],
        [
            ["samples (n, m, p)", str(data.values.shape)],
            ["inlier |x| max", f"{np.abs(data.values[:20]).max():.2f}"],
            ["outlier |x| max", f"{np.abs(data.values[20]).max():.2f}"],
            ["curvature-pipeline AUC", f"{roc_auc(scores, labels):.3f}"],
            ["outlier rank", f"{rank} / 21"],
        ],
    )


def run_fig2(args) -> None:
    """Figure 2: curvature = 1 / tangent-circle radius on analytic curves."""
    from repro.fda import BSplineBasis, MFDataGrid
    from repro.fda.smoothing import smooth_mfd
    from repro.geometry import CurvatureMapping

    grid = np.linspace(0.0, 2.0 * np.pi, 201)
    rows = []
    for radius in (0.5, 1.0, 2.0, 4.0):
        x = radius * np.cos(grid)
        y = radius * np.sin(grid)
        mfd = MFDataGrid(np.stack([x, y], axis=1)[None], grid)
        fit, _ = smooth_mfd(mfd, lambda dom: BSplineBasis(dom, 25), smoothing=1e-6)
        kappa = CurvatureMapping(regularization=0.0).transform(fit, grid)
        rows.append(
            [f"circle r={radius}", f"{1 / radius:.3f}", f"{kappa.values[:, 10:-10].mean():.3f}"]
        )
    _print_table("Figure 2", ["curve", "analytic kappa", "measured kappa"], rows)


def run_fig3(args) -> None:
    """Figure 3: AUC vs. contamination level (the headline result).

    The four methods are handed to the harness as declarative
    :class:`~repro.plan.MethodSpec` entries and compiled against the
    run's execution context — the same construction path as
    ``make_method`` and the serving manifests.
    """
    from repro.data import make_ecg_dataset, square_augment
    from repro.evaluation.experiment import run_contamination_experiment
    from repro.plan import DEFAULT_METHOD_SPECS

    data, labels, _ = make_ecg_dataset(n_normal=133, n_abnormal=67, random_state=args.seed)
    mfd = square_augment(data)
    table = run_contamination_experiment(
        mfd,
        labels,
        list(DEFAULT_METHOD_SPECS),
        n_repetitions=args.reps,
        train_fraction=0.7,
        random_state=args.seed,
        verbose=args.verbose,
        n_jobs=args.n_jobs,
    )
    print()
    print(table.to_text(f"Figure 3: AUC vs contamination ({args.reps} repetitions)"))


def run_taxonomy(args) -> None:
    """Per-outlier-class AUC table (grounds the paper's Sec. 4.3)."""
    from repro.core.methods import DirOutMethod, FuntaMethod, MappedDetectorMethod
    from repro.data import OUTLIER_CLASSES, make_taxonomy_dataset
    from repro.evaluation.metrics import roc_auc

    methods = [
        DirOutMethod(),
        FuntaMethod(),
        MappedDetectorMethod("iforest", n_estimators=200),
        MappedDetectorMethod("ocsvm"),
    ]
    rows = []
    for kind in OUTLIER_CLASSES:
        data, labels = make_taxonomy_dataset(kind, 60, 8, random_state=args.seed)
        idx = np.arange(data.n_samples)
        cells = [kind]
        for method in methods:
            scores = method.score_dataset(data, idx, idx, random_state=3)
            cells.append(f"{roc_auc(scores, labels):.3f}")
        rows.append(cells)
    _print_table(
        "Per-class detection AUC",
        ["outlier class"] + [m.name for m in methods],
        rows,
    )


def _load_batch_npz(path):
    """Read a curve batch (``values`` + ``grid`` arrays) from an ``.npz``."""
    from repro.exceptions import PersistenceError
    from repro.fda.fdata import MFDataGrid
    from zipfile import BadZipFile

    try:
        with np.load(path, allow_pickle=False) as bundle:
            missing = {"values", "grid"} - set(bundle.files)
            if missing:
                raise PersistenceError(
                    f"data file {path} is missing arrays: {sorted(missing)}"
                )
            values = bundle["values"]
            grid = bundle["grid"]
    except (OSError, ValueError, BadZipFile) as exc:
        raise PersistenceError(f"cannot read data file {path}: {exc}") from exc
    if values.ndim == 2:
        values = values[:, :, None]
    if values.shape[0] == 0:
        raise PersistenceError(f"data file {path} contains no curves")
    return MFDataGrid(values, grid)


def _parse_pipeline_args(entries) -> dict:
    """Parse ``name=dir`` pipeline bindings for ``repro serve``."""
    from repro.exceptions import ValidationError

    pipelines = {}
    for entry in entries:
        name, sep, path = entry.partition("=")
        if not sep or not name or not path:
            raise ValidationError(
                f"--pipeline expects NAME=DIR (a deployment name bound to a "
                f"saved-pipeline directory), got {entry!r}"
            )
        if name in pipelines:
            raise ValidationError(f"duplicate pipeline name {name!r} in --pipeline")
        pipelines[name] = path
    return pipelines


def run_serve(args) -> None:
    """serve: the asyncio HTTP front door over one or more saved pipelines.

    Each worker process loads every manifest itself (``mmap`` →
    zero-copy page-cache arrays) and shares no mutable state; requests
    route by pipeline name or spec hash into the micro-batching queue,
    and the queue is bounded by ``--high-water`` (beyond it, POST
    /submit sheds with 429 + Retry-After).
    """
    from repro.serving.server import load_service, serve

    pipelines = _parse_pipeline_args(args.pipeline)
    # Validate every manifest before binding the port (and before
    # forking workers): a typo'd path should fail in one line, not N
    # tracebacks later from inside a worker fleet.
    load_service(pipelines, max_pending=args.max_pending, mmap=not args.no_mmap)
    serve(
        pipelines,
        host=args.host,
        port=args.port,
        workers=args.workers,
        max_pending=args.max_pending,
        high_water=args.high_water,
        flush_interval=args.flush_interval,
        mmap=not args.no_mmap,
    )


def run_serve_score(args) -> None:
    """serve-score: stream a persisted pipeline over an ``.npz`` curve batch.

    The manifest's declarative spec is validated and lowered by the
    plan compiler during :func:`~repro.serving.load_pipeline`; the
    restored pipeline is then wrapped in a stream-mode plan whose
    executor walks the batch in bounded-memory chunks.
    """
    from repro.plan import WorkloadSpec, plan_for_pipeline
    from repro.serving import load_pipeline

    pipeline = load_pipeline(args.pipeline)
    plan = plan_for_pipeline(
        pipeline, WorkloadSpec(mode="stream", chunk_size=args.chunk_size)
    )
    data = _load_batch_npz(args.data)
    chunks = list(plan.score_chunks(data))
    scores = np.concatenate(chunks)
    if args.output:
        np.savez_compressed(args.output, scores=scores)
    top = np.argsort(-scores)[: min(5, scores.shape[0])]
    _print_table(
        "serve-score",
        ["quantity", "value"],
        [
            ["pipeline", str(args.pipeline)],
            ["curves scored", str(scores.shape[0])],
            ["chunks", str(len(chunks))],
            ["score min/mean/max",
             f"{scores.min():.4f} / {scores.mean():.4f} / {scores.max():.4f}"],
            ["top outlier indices", " ".join(str(i) for i in top)],
            ["output", str(args.output) if args.output else "(stdout only)"],
        ],
    )


def run_stream_score(args) -> None:
    """stream-score: online detection over a chunked curve stream.

    The CLI arguments parse into a declarative
    :class:`~repro.plan.StreamSpec`; the plan compiler builds the
    window/threshold/drift stack and the plan executor drives the
    chunked online steps.
    """
    from repro.plan import StreamSpec, WorkloadSpec, compile_plan, run_chunked

    data = _load_batch_npz(args.data)
    spec = StreamSpec(
        kind=args.kind,
        window=args.window,
        policy=args.policy,
        min_reference=args.min_reference,
        contamination=args.contamination,
        threshold_mode=args.threshold_mode,
        drift_baseline=args.drift_baseline,
        drift_recent=args.drift_recent,
        alpha=args.alpha,
        seed=args.seed,
        shards=args.shards,
    )
    plan = compile_plan(spec, WorkloadSpec(mode="stream", chunk_size=args.chunk_size))
    detector = plan.detector

    def online_step(chunk):
        """One chunk through the detector; NaN scores during warm-up."""
        result = detector.process(chunk)
        if result.scores is None:
            return (
                np.full(chunk.n_samples, np.nan),
                np.zeros(chunk.n_samples, dtype=bool),
            )
        chunk_flags = (
            result.flags
            if result.flags is not None
            else np.zeros(chunk.n_samples, dtype=bool)
        )
        return result.scores, chunk_flags

    # Warm-up padding and flag back-fill need each chunk's size, which
    # StreamBatchResult does not carry; the chunk size is threaded once,
    # through the plan's workload.
    scores = []
    flags = []
    with detector:
        for chunk_scores, chunk_flags in run_chunked(
            online_step, data, chunk_size=plan.workload.chunk_size
        ):
            scores.append(chunk_scores)
            flags.append(chunk_flags)
    scores = np.concatenate(scores)
    flags = np.concatenate(flags)
    if args.output:
        np.savez_compressed(args.output, scores=scores, flags=flags)
    stats = detector.stats()
    events = detector.drift_events
    scored = scores[~np.isnan(scores)]
    _print_table(
        "stream-score",
        ["quantity", "value"],
        [
            ["kind / policy", f"{args.kind} / {args.policy}"
             + (f" / {args.shards} shards" if args.shards > 1 else "")],
            ["curves seen", str(stats["n_seen"])],
            ["curves scored", str(stats["n_scored"])],
            ["flagged outliers", str(stats["n_flagged"])],
            ["reference size", str(stats["n_reference"])],
            ["drift events", " ".join(str(e.n_seen) for e in events) or "none"],
            ["score min/mean/max",
             f"{scored.min():.4f} / {scored.mean():.4f} / {scored.max():.4f}"
             if scored.size else "(all warm-up)"],
            ["output", str(args.output) if args.output else "(stdout only)"],
        ],
    )


def run_telemetry(args) -> None:
    """telemetry: one instrumented scoring pass, exported as metrics or traces.

    Loads a persisted pipeline into a telemetry-enabled execution
    context, streams the ``.npz`` batch through the chunked executor
    under a root span, then emits what the run recorded:

    * ``dump``  — the metrics registry as JSON (default) or Prometheus
      text (``--format prometheus``): cache hits, kernel timings,
      per-chunk latency histograms with p50/p95/p99;
    * ``trace`` — the completed trace trees as JSON Lines, one root
      (the run) per line with per-chunk child spans.
    """
    import json

    from repro.engine import ExecutionContext
    from repro.plan.executor import run_chunked
    from repro.serving.persist import load_pipeline
    from repro.telemetry import Telemetry

    telemetry = Telemetry()
    context = ExecutionContext(telemetry=telemetry)
    pipeline = load_pipeline(args.pipeline, context=context)
    data = _load_batch_npz(args.data)
    n_chunks = 0
    with telemetry.span("telemetry_run", pipeline=str(args.pipeline),
                        curves=data.n_samples):
        for _ in run_chunked(pipeline.score_samples, data,
                             chunk_size=args.chunk_size, telemetry=telemetry):
            n_chunks += 1
    if args.telemetry_command == "dump":
        if args.format == "prometheus":
            text = telemetry.to_prometheus()
        else:
            text = json.dumps(telemetry.snapshot(), indent=2, sort_keys=True) + "\n"
        if args.output:
            with open(args.output, "w", encoding="utf-8") as fh:
                fh.write(text)
            print(f"telemetry dump: {args.output} "
                  f"({data.n_samples} curves, {n_chunks} chunks)")
        else:
            print(text, end="")
    else:
        if args.output:
            count = telemetry.tracer.export_jsonl(args.output)
            print(f"telemetry trace: {args.output} ({count} trace trees)")
        else:
            telemetry.tracer.export_jsonl(sys.stdout)


def run_plan_validate(args) -> None:
    """plan validate: parse, validate and compile declarative specs.

    Accepts spec ``.json`` files (tagged documents — see
    :mod:`repro.plan.specs`) and saved-pipeline directories or
    ``manifest.json`` files (their embedded spec section is validated,
    including v1 manifests via the translation reader).  Parsing a spec
    builds its unfitted object, so every constructor bound is checked.
    Exits non-zero on the first invalid spec, printing the actionable
    validation message.
    """
    from pathlib import Path

    from repro.plan import WorkloadSpec, compile_plan, load_spec
    from repro.serving.persist import MANIFEST_NAME, read_spec

    rows = []
    for raw in args.paths:
        path = Path(raw)
        if path.is_dir():
            spec = read_spec(path)
        elif path.name == MANIFEST_NAME:
            spec = read_spec(path.parent)
        else:
            spec = load_spec(path)
        if isinstance(spec, WorkloadSpec):
            summary = {"kind": "workload", "mode": spec.mode}
        else:
            summary = compile_plan(spec).describe()
        rows.append([str(raw), summary.pop("kind"),
                     " ".join(f"{k}={v}" for k, v in sorted(summary.items())), "ok"])
    _print_table("plan validate", ["spec", "kind", "summary", "status"], rows)


COMMANDS = {
    "fig1": run_fig1,
    "fig2": run_fig2,
    "fig3": run_fig3,
    "taxonomy": run_taxonomy,
}


def build_parser() -> argparse.ArgumentParser:
    from repro.streaming.online import STREAM_KINDS

    parser = argparse.ArgumentParser(
        prog="repro",
        description="Regenerate the figures of Lejeune et al., EDBT 2020, "
                    "and serve persisted pipelines.",
    )
    seed_option = argparse.ArgumentParser(add_help=False)
    seed_option.add_argument("--seed", type=int, default=7, help="master random seed")
    repetition_options = argparse.ArgumentParser(add_help=False)
    repetition_options.add_argument(
        "--reps", type=int, default=15,
        help="repetitions per contamination level (paper: 50)")
    repetition_options.add_argument(
        "--n-jobs", type=int, default=1,
        help="parallel workers for the repetition fan-out "
             "(-1 = one per core; results are identical to the serial run)")
    repetition_options.add_argument("--verbose", action="store_true",
                                    help="print per-repetition progress")
    # Each figure command takes only the options its runner reads.
    figure_parents = {
        "fig1": [seed_option],
        "fig2": [],
        "fig3": [seed_option, repetition_options],
        "taxonomy": [seed_option],
        "all": [seed_option, repetition_options],
    }
    subparsers = parser.add_subparsers(dest="command", required=True)
    for name, parents in figure_parents.items():
        subparsers.add_parser(name, parents=parents,
                              help=f"regenerate {name}" if name != "all"
                              else "regenerate every figure")
    stream = subparsers.add_parser(
        "stream-score",
        help="online detection over a curve stream (evolving reference, "
             "adaptive threshold, drift monitor)")
    stream.add_argument("--data", required=True,
                        help=".npz with 'values' (n, m[, p]) and 'grid' (m,) arrays, "
                             "consumed in stream order")
    stream.add_argument("--kind", default="funta",
                        choices=STREAM_KINDS,
                        help="streaming scorer kind")
    stream.add_argument("--window", type=int, default=128,
                        help="reference window capacity")
    stream.add_argument("--policy", default="sliding",
                        choices=("sliding", "reservoir"),
                        help="reference maintenance policy")
    stream.add_argument("--chunk-size", type=int, default=64,
                        help="curves per processed chunk")
    stream.add_argument("--min-reference", type=int, default=16,
                        help="warm-up size before scoring starts")
    stream.add_argument("--contamination", type=float, default=0.05,
                        help="expected outlier fraction (threshold quantile)")
    stream.add_argument("--threshold-mode", default="window",
                        help="'window' (exact trailing-window quantile) or "
                             "'sketch' (whole-stream quantile sketch)")
    stream.add_argument("--drift-baseline", type=int, default=128,
                        help="baseline scores for the KS drift monitor")
    stream.add_argument("--drift-recent", type=int, default=64,
                        help="rolling recent scores compared against the baseline")
    stream.add_argument("--alpha", type=float, default=0.01,
                        help="KS test level for drift checks")
    stream.add_argument("--shards", type=int, default=1,
                        help="deal the reference window across N shard windows "
                             "scored on a thread pool (same answers as 1); "
                             "funta only, whose shard partials add up")
    stream.add_argument("--seed", type=int, default=7,
                        help="reservoir eviction seed")
    stream.add_argument("--output", default=None,
                        help="optional .npz path for scores + flags")
    telemetry_parser = subparsers.add_parser(
        "telemetry",
        help="run one instrumented scoring pass over a saved pipeline and "
             "export its metrics registry or trace trees")
    telemetry_sub = telemetry_parser.add_subparsers(
        dest="telemetry_command", required=True)
    tel_common = argparse.ArgumentParser(add_help=False)
    tel_common.add_argument("--pipeline", required=True,
                            help="directory written by repro.serving.save_pipeline")
    tel_common.add_argument("--data", required=True,
                            help=".npz with 'values' (n, m[, p]) and 'grid' (m,) arrays")
    tel_common.add_argument("--chunk-size", type=int, default=256,
                            help="curves per streamed scoring chunk")
    tel_dump = telemetry_sub.add_parser(
        "dump", parents=[tel_common],
        help="emit the run's metrics registry (JSON or Prometheus text)")
    tel_dump.add_argument("--format", default="json",
                          choices=("json", "prometheus"),
                          help="snapshot format (default json)")
    tel_dump.add_argument("--output", default=None,
                          help="file to write instead of stdout")
    tel_trace = telemetry_sub.add_parser(
        "trace", parents=[tel_common],
        help="emit the run's trace trees as JSON Lines (one root per line)")
    tel_trace.add_argument("--output", default=None,
                           help="JSONL file to write instead of stdout")
    plan_parser = subparsers.add_parser(
        "plan", help="inspect and validate declarative scoring specs")
    plan_sub = plan_parser.add_subparsers(dest="plan_command", required=True)
    plan_validate = plan_sub.add_parser(
        "validate",
        help="parse, validate and compile spec JSON files / pipeline manifests")
    plan_validate.add_argument(
        "paths", nargs="+",
        help="spec .json files, saved-pipeline directories, or manifest.json paths")
    serve = subparsers.add_parser(
        "serve-score", help="score a curve batch with a persisted pipeline")
    serve.add_argument("--pipeline", required=True,
                       help="directory written by repro.serving.save_pipeline")
    serve.add_argument("--data", required=True,
                       help=".npz with 'values' (n, m[, p]) and 'grid' (m,) arrays")
    serve.add_argument("--chunk-size", type=int, default=256,
                       help="curves per streamed scoring chunk (bounds memory)")
    serve.add_argument("--output", default=None,
                       help="optional .npz path for the scores")
    http = subparsers.add_parser(
        "serve",
        help="HTTP serving front door: POST /score and /submit route curve "
             "batches into the micro-batching queue; GET /healthz and /stats")
    http.add_argument("--pipeline", action="append", required=True,
                      metavar="NAME=DIR",
                      help="deployment name bound to a saved-pipeline directory "
                           "(repeatable; requests address NAME or the spec hash)")
    http.add_argument("--host", default="127.0.0.1", help="listen address")
    http.add_argument("--port", type=int, default=8000,
                      help="listen port (0 = pick a free port)")
    http.add_argument("--workers", type=int, default=1,
                      help="worker processes sharing the listening socket; "
                           "each loads its own manifests and shares no "
                           "mutable state")
    http.add_argument("--max-pending", type=int, default=256,
                      help="micro-batch flush threshold in queued curves")
    http.add_argument("--high-water", type=int, default=4096,
                      help="backpressure bound on outstanding curves — past "
                           "it, POST /submit sheds with 429 + Retry-After")
    http.add_argument("--flush-interval", type=float, default=0.05,
                      help="deadline (s) after which a partial batch flushes")
    http.add_argument("--no-mmap", action="store_true",
                      help="load array bundles eagerly instead of zero-copy "
                           "memory-mapping (mmap is the default)")
    return parser


def main(argv=None) -> int:
    from repro.exceptions import ReproError

    args = build_parser().parse_args(argv)
    try:
        if args.command == "all":
            for name in COMMANDS:
                COMMANDS[name](args)
        elif args.command == "plan":
            run_plan_validate(args)
        elif args.command == "serve":
            run_serve(args)
        elif args.command == "serve-score":
            run_serve_score(args)
        elif args.command == "stream-score":
            run_stream_score(args)
        elif args.command == "telemetry":
            run_telemetry(args)
        else:
            COMMANDS[args.command](args)
    except (ReproError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
