"""Workload ``fig3``: the paper's Fig. 3 experiment, one cold process each.

Each experiment runs in a fresh interpreter, as ``repro fig3`` does:
``run_contamination_experiment`` with the four ``DEFAULT_METHOD_SPECS``
on the ECG-200-sized substitute (``make_ecg_dataset(133, 67)`` +
``square_augment``), the paper's five contamination levels,
``train_fraction=0.7`` and ``n_jobs=1``.  As in the paper, which
evaluates on the one ECG200 set, the data set is fixed (the CLI's
default seed); ``--seed`` draws the random splits of each experiment.
The run makes at least ``MIN_EXPERIMENTS`` experiments, and more while
measuring time is left.

Operations are cells (one contamination level x one repetition, all
four methods).  Cell latencies come from the harness's own per-cell
progress lines (``verbose=True``), timestamped as they are printed.

Run as a script, this module is the cold child process of one experiment.
"""

from __future__ import annotations

import argparse
import json
import math
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

import common

#: Seed of the fixed ECG-200 substitute (the ``repro fig3`` default).
DATA_SEED = 7
#: Repetitions per contamination level in one experiment.
REPS = 3
#: Experiments always made per run: the Fig. 3 shape check needs about
#: a dozen repetitions per level pooled over the run to hold on every seed.
MIN_EXPERIMENTS = 4
CHILD_TIMEOUT_S = 120

METHOD_KEYS = {"Dir.out": "dirout", "FUNTA": "funta",
               "iFor(Curvmap)": "ifor", "OCSVM(Curvmap)": "ocsvm"}
DETECTOR_KEYS = {"IsolationForest": "iforest", "OneClassSVM": "ocsvm"}


def _method_key(method) -> str:
    return METHOD_KEYS.get(method.name, method.name)


def _detector_key(detector) -> str:
    return DETECTOR_KEYS.get(type(detector).__name__, type(detector).__name__)


def install_tracing(recorder) -> None:
    """Wrap the public functions of every layer the experiment crosses."""
    import repro.core.methods as methods
    import repro.core.pipeline as pipeline
    from repro.detectors.base import OutlierDetector
    from repro.fda.smoothing import BasisSmoother
    from repro.geometry.base import MappingFunction

    for cls in (methods.MappedDetectorMethod, methods.FuntaMethod, methods.DirOutMethod):
        recorder.wrap(cls, "prepare",
                      lambda m, *a, **k: f"core.prepare.{_method_key(m)}")
        recorder.wrap(cls, "fit_score",
                      lambda m, *a, **k: f"core.fit_score.{_method_key(m)}")
    recorder.wrap(OutlierDetector, "fit",
                  lambda d, *a, **k: f"detectors.{_detector_key(d)}_fit")
    recorder.wrap(OutlierDetector, "score_samples",
                  lambda d, *a, **k: f"detectors.{_detector_key(d)}_score")
    recorder.wrap(methods, "tune_nu", "evaluation.tune_nu")
    recorder.wrap(methods, "funta_outlyingness", "depth.funta")
    recorder.wrap(methods, "dirout_scores", "depth.dirout")
    recorder.wrap(pipeline, "select_n_basis", "fda.select")
    recorder.wrap(BasisSmoother, "fit_grid", "fda.smooth")
    recorder.wrap(MappingFunction, "transform", "geometry.map")


class _CellClock:
    """stdout stand-in that timestamps the harness's per-cell progress lines."""

    def __init__(self):
        self.stamps: list[float] = []

    def write(self, text: str) -> int:
        if text.startswith("[c="):
            self.stamps.append(time.perf_counter())
        return len(text)

    def flush(self) -> None:
        pass


def child_main(argv) -> None:
    """One cold experiment; writes its measurements as JSON to ``--out``."""
    parser = argparse.ArgumentParser()
    parser.add_argument("--spawned", type=float, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--exp-seed", type=int, required=True)
    parser.add_argument("--reps", type=int, required=True)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    common.require_package()

    import contextlib

    from repro.data import make_ecg_dataset, square_augment
    from repro.engine import ExecutionContext
    from repro.evaluation.experiment import (
        PAPER_CONTAMINATION_LEVELS,
        run_contamination_experiment,
    )
    from repro.plan import DEFAULT_METHOD_SPECS

    imported = time.time()
    recorder = None
    if args.trace:
        from spans import SpanRecorder

        recorder = SpanRecorder()
        recorder.set_request(f"experiment-{args.exp_seed}")
        install_tracing(recorder)
    # Input generation is not set-up: it stands for the user's data on disk.
    data, labels, _ = make_ecg_dataset(n_normal=133, n_abnormal=67, random_state=args.seed)
    handoff = time.perf_counter()
    mfd = square_augment(data)
    methods = list(DEFAULT_METHOD_SPECS)
    setup_s = (imported - args.spawned) + (time.perf_counter() - handoff)

    context = ExecutionContext()
    clock = _CellClock()
    start = time.perf_counter()
    with contextlib.redirect_stdout(clock):
        table = run_contamination_experiment(
            mfd, labels, methods,
            contamination_levels=PAPER_CONTAMINATION_LEVELS,
            n_repetitions=args.reps, train_fraction=0.7,
            random_state=args.exp_seed, verbose=True, n_jobs=1, context=context,
        )
    end = time.perf_counter()

    stats = context.cache.stats
    lookups = stats.hits + stats.builds
    result = {
        "setup_s": setup_s,
        "wall_s": end - start,
        "cell_s": [b - a for a, b in zip(clock.stamps, clock.stamps[1:])],
        "cells": len(clock.stamps),
        "records": [[r.method, r.contamination, r.repetition, r.auc] for r in table.records],
        "peak_rss_mb": common.peak_rss_mb(),
        "factorizations": stats.factorizations,
        "cache_hit_ratio": stats.hits / lookups if lookups else 0.0,
    }
    if recorder is not None:
        result["totals"] = recorder.totals()
        result["root_s"] = recorder.root_seconds()
        result["spans"] = recorder.export(offset=time.time() - time.perf_counter(),
                                          source=f"fig3-{args.exp_seed}-")
    common.write_json(Path(args.out), result)


def run_experiment(exp_seed: int, trace: bool) -> dict:
    """Launch one cold experiment process and return its measurements."""
    out = common.OUT / f"fig3_{exp_seed}.json"
    out.unlink(missing_ok=True)
    command = common.child_command(
        "fig3.py", "--spawned", repr(time.time()), "--seed", str(DATA_SEED),
        "--exp-seed", str(exp_seed), "--reps", str(REPS), "--trace", str(int(trace)),
        "--out", str(out),
    )
    subprocess.run(command, check=True, timeout=CHILD_TIMEOUT_S, cwd=common.ROOT)
    result = json.loads(out.read_text())
    out.unlink()
    return result


def check_tables(records) -> list[str]:
    """Output checks: every AUC finite and in [0, 1]; the paper's Fig. 3 shape.

    The shape assertions are those of
    ``benchmarks/bench_fig3_auc_vs_contamination.py``, applied to the
    repetitions pooled over the run's experiments.
    """
    problems = [f"AUC {auc!r} of {m} at c={c}" for m, c, _, auc in records
                if not (math.isfinite(auc) and 0.0 <= auc <= 1.0)]
    if problems:
        return problems
    pooled: dict[tuple[str, float], list[float]] = {}
    for method, c, _, auc in records:
        pooled.setdefault((method, c), []).append(auc)

    def mean(method, c):
        values = pooled[(method, c)]
        return sum(values) / len(values)

    levels = sorted({c for _, c in pooled})
    for c in levels:
        baseline = max(mean("Dir.out", c), mean("FUNTA", c))
        geometric = max(mean("iFor(Curvmap)", c), mean("OCSVM(Curvmap)", c))
        if not geometric > baseline - 0.02:
            problems.append(f"geometric methods do not lead at c={c}")
    if not mean("OCSVM(Curvmap)", levels[0]) > mean("OCSVM(Curvmap)", levels[-1]):
        problems.append("OCSVM(Curvmap) does not degrade as c grows")
    dirout = [mean("Dir.out", c) for c in levels]
    if not max(dirout) - min(dirout) < 0.08:
        problems.append("Dir.out is not flat in c")
    for method in METHOD_KEYS:
        for c in levels:
            if not 0.55 < mean(method, c) <= 1.0:
                problems.append(f"{method} at c={c} leaves the paper's band")
    return problems


def _measure(seconds: float, trace: bool, first_exp: int, minimum: int) -> list[dict]:
    runs = []
    started = time.perf_counter()
    while len(runs) < minimum or time.perf_counter() - started < seconds:
        runs.append(run_experiment(first_exp + len(runs), trace))
    return runs


def run(seed: int, seconds: float, trace: bool) -> dict:
    exp_base = seed * 1000
    untraced = _measure(seconds / 2 if trace else seconds, False, exp_base, MIN_EXPERIMENTS)
    records = [rec for r in untraced for rec in r["records"]]
    problems = check_tables(records)
    cells = [c for r in untraced for c in r["cell_s"]]
    n_cells = sum(r["cells"] for r in untraced)
    walls = [r["wall_s"] for r in untraced]
    result = {
        "attempted": n_cells,
        "failed": n_cells if problems else 0,
        "problems": problems,
        "ops": "cells",
        "samples": len(cells),
        "experiments": len(untraced),
        "wall_s": walls,
        "metrics": {
            "setup_s": median([r["setup_s"] for r in untraced]),
            "throughput_per_s": median([r["cells"] / r["wall_s"] for r in untraced]),
            "p50_ms": 1e3 * median(cells),
            "tail_ms": 1e3 * common.tail_percentile(cells)[1],
            "tail_percentile": common.tail_percentile(cells)[0],
            "peak_rss_mb": median([r["peak_rss_mb"] for r in untraced]),
            "quality": sum(rec[3] for rec in records) / len(records),
        },
    }
    if trace:
        # The traced experiments feed no output check, so two suffice.
        traced = _measure(seconds / 2, True, exp_base + len(untraced), 2)
        result["layers"] = _layers(traced, median(walls))
        result["spans"] = [s for r in traced for s in r["spans"]]
    return result


def _layers(traced: list[dict], untraced_wall: float) -> dict:
    """Per-layer metrics, in ms per experiment (counts per experiment)."""
    n = len(traced)
    totals: dict[str, dict] = {}
    for r in traced:
        for name, row in r["totals"].items():
            acc = totals.setdefault(name, {"count": 0, "inclusive_s": 0.0, "self_s": 0.0})
            for key in acc:
                acc[key] += row[key]
    wall = sum(r["wall_s"] for r in traced) / n
    root = sum(r["root_s"] for r in traced) / n

    def ms(name: str) -> float:
        return 1e3 * totals.get(name, {}).get("inclusive_s", 0.0) / n

    layers = {
        "evaluation.harness_self_ms": 1e3 * (wall - root),
        "engine.factorizations": sum(r["factorizations"] for r in traced) / n,
        "engine.cache_hit_ratio": sum(r["cache_hit_ratio"] for r in traced) / n,
        "telemetry.trace_overhead": median([r["wall_s"] for r in traced]) / untraced_wall,
    }
    for key in METHOD_KEYS.values():
        layers[f"core.prepare_ms.{key}"] = ms(f"core.prepare.{key}")
        layers[f"core.fit_score_ms.{key}"] = ms(f"core.fit_score.{key}")
    for name in ("detectors.iforest_fit", "detectors.iforest_score", "detectors.ocsvm_fit",
                 "evaluation.tune_nu", "depth.dirout", "depth.funta", "fda.select",
                 "fda.smooth", "geometry.map"):
        layers[f"{name}_ms"] = ms(name)
    rows = [(name, 1e3 * row["inclusive_s"] / n, 1e3 * row["self_s"] / n, row["count"] // n)
            for name, row in sorted(totals.items())]
    layers["_tables"] = [{"title": "experiment", "unit": "experiment",
                          "wall_ms": 1e3 * wall, "rows": rows}]
    return layers


if __name__ == "__main__":
    child_main(sys.argv[1:])
