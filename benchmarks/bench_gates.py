"""Speed gates: every CI performance claim, as paired timings that can fail.

Each gate times a baseline and a candidate back to back for a number of
pairs, alternating which side runs first, and takes the per-pair ratio
candidate / baseline.  It fails only when the seeded bootstrap 95%
interval of the median ratio lies wholly above the gate's bound:

* 1.0 for the "beats" claims: vectorized depth kernels vs their loop
  oracles in ``tests/oracles.py``, the FUNTA ring and Dir.out's p = 1
  closed form vs the batch kernel refit on the window at each arrival,
  ``shards=2`` vs one FUNTA stream, the 2-worker block thread pool vs serial, float32 vs float64
  kernels, cached vs cache-cleared serving, warm vs cold method
  preparation;
* 1.02 for enabled telemetry vs ``NULL_TELEMETRY``;
* 1.05 for plan-layer dispatch vs direct pipeline calls;
* 0.8 for the front door's orjson request parse vs the json-only parse
  oracle, so a tie fails;
* 0.9 for the tie-free FUNTA crossing mask vs the same call with one
  planted query/reference tie, so a tie fails;
* 0.4 for the Isolation Forest fit vs its full min/max grower oracle on
  a Fig. 3 curvature training matrix with 200 trees, so a tie fails, and
  so does the grower that drew through ``Generator.integers`` and
  ``Generator.uniform`` at every node (it read 0.53).

The HTTP front door's sustained rate is gated the same way against an
absolute floor: it fails only when the interval of the median curves/s
over repeated runs lies wholly below 400.

Correctness (vectorized == oracle, pooled == serial, telemetry on == off,
incremental == batch refit, sharded == single, the serving regimes
agree) is asserted by the tier-1 suite; this file only times.  It writes
nothing into the tree.  Run it from the repository root::

    PYTHONPATH=src python -m pytest benchmarks/bench_gates.py -q -s
"""

import asyncio
import json
import os
import tempfile
import time
from pathlib import Path

import numpy as np
import pytest

from repro.core.methods import MappedDetectorMethod
from repro.core.pipeline import GeometricOutlierPipeline
from repro.data import make_ecg_dataset, make_taxonomy_dataset, square_augment
from repro.depth import _kernels
from repro.depth.dirout import dirout_scores
from repro.depth.functional import pointwise_depth_profile
from repro.depth.funta import funta_outlyingness
from repro.detectors import IsolationForest
from repro.engine import ExecutionContext
from repro.fda.fdata import FDataGrid, MFDataGrid
from repro.plan import WorkloadSpec, plan_for_pipeline
from repro.serving import ScoringService, load_pipeline, save_pipeline
from repro.serving.app import ServingApp
from repro.serving.server import ScoringServer, load_service
from repro.streaming import SlidingWindow, StreamingDetector
from repro.telemetry import Telemetry

from benchmarks.conftest import print_table
from tests.http_client import post_json
from tests.oracles import directional_outlyingness as dirout_oracle
from tests.oracles import funta_depth as funta_oracle
from tests.oracles import iforest_node_table as iforest_oracle
from tests.oracles import parse_scoring_request as parse_oracle
from tests.oracles import pointwise_depth_profile as profile_oracle

SEED = 7
RESAMPLES = 4000
MULTI_CORE = (os.cpu_count() or 1) >= 2


# --------------------------------------------------------------------------- statistic
def paired_ratios(baseline, candidate, pairs, min_seconds=0.0):
    """candidate / baseline wall time over ``pairs`` back-to-back pairs.

    Within a pair the two sides run in rounds of one call each, every
    round starting with the side that ran second in the round before,
    until both sides have run for ``min_seconds`` (at least one round).
    Drift on a shared machine then lands on both sides of a pair alike.
    """
    ratios, first = [], 0
    for _ in range(pairs):
        spent = [0.0, 0.0]
        while True:
            for side in (first, 1 - first):
                start = time.perf_counter()
                (baseline, candidate)[side]()
                spent[side] += time.perf_counter() - start
            first = 1 - first
            if min(spent) >= min_seconds:
                break
        ratios.append(spent[1] / spent[0])
    return np.array(ratios)


def median_interval(samples, seed=0):
    """Median of ``samples`` and the seeded bootstrap 95% interval of it."""
    samples = np.asarray(samples, dtype=float)
    rng = np.random.default_rng(seed)
    resampled = samples[rng.integers(0, len(samples), (RESAMPLES, len(samples)))]
    lo, hi = np.percentile(np.median(resampled, axis=1), [2.5, 97.5])
    return float(np.median(samples)), float(lo), float(hi)


def check_gates(title, cases, bound, above=False):
    """Print one row per case; return the names of the failing cases.

    A case fails when its interval lies wholly above ``bound`` (or,
    with ``above=True``, wholly below it).
    """
    rows, failed = [], []
    for name, samples in cases.items():
        median, lo, hi = median_interval(samples)
        fails = hi < bound if above else lo > bound
        if fails:
            failed.append(name)
        rows.append([
            name, str(len(samples)), f"{median:.3f}", f"[{lo:.3f}, {hi:.3f}]",
            f"{'>=' if above else '<='} {bound:g}", "FAIL" if fails else "ok",
        ])
    print_table(title, ["case", "n", "median", "95% interval", "bound", "gate"], rows)
    return failed


# --------------------------------------------------------------------------- depth kernels
@pytest.fixture(scope="module")
def kernels():
    """The six gated kernels on n=200 curves, m=100 grid points, each as a
    ``(kernel, oracle)`` pair; kernels take keyword options, oracles none."""
    rng = np.random.default_rng(SEED)
    grid = np.linspace(0.0, 1.0, 100)
    curves = FDataGrid(rng.standard_normal((200, 100)).cumsum(axis=1) / 5.0, grid)
    mfd_p1 = curves.to_multivariate()
    mfd_p2 = MFDataGrid(rng.standard_normal((200, 100, 2)), grid)
    return {
        "funta": (
            lambda **kw: funta_outlyingness(curves, **kw),
            lambda: 1.0 - funta_oracle(curves),
        ),
        "halfspace_p1": (
            lambda **kw: pointwise_depth_profile(mfd_p1, notion="halfspace", **kw),
            lambda: profile_oracle(mfd_p1, notion="halfspace"),
        ),
        "halfspace_p2": (
            lambda **kw: pointwise_depth_profile(
                mfd_p2, notion="halfspace", random_state=SEED, **kw),
            lambda: profile_oracle(mfd_p2, notion="halfspace", random_state=SEED),
        ),
        "spatial_p2": (
            lambda **kw: pointwise_depth_profile(mfd_p2, notion="spatial", **kw),
            lambda: profile_oracle(mfd_p2, notion="spatial"),
        ),
        "projection_p2": (
            lambda **kw: pointwise_depth_profile(
                mfd_p2, notion="projection", random_state=SEED, **kw),
            lambda: profile_oracle(mfd_p2, notion="projection", random_state=SEED),
        ),
        "dirout_p2": (
            lambda **kw: dirout_scores(mfd_p2, random_state=SEED, **kw),
            lambda: dirout_oracle(mfd_p2, random_state=SEED).total,
        ),
    }


def test_vectorized_beats_naive(kernels):
    cases = {
        name: paired_ratios(oracle, kernel, pairs=5)
        for name, (kernel, oracle) in kernels.items()
    }
    failed = check_gates("vectorized / loop oracle, n=200 m=100", cases, 1.0)
    assert not failed, f"vectorized path not faster than its loop oracle: {failed}"


def test_telemetry_overhead(kernels):
    # halfspace p=1 has no instrumented block loop: its row times the
    # same code on both sides and shows the gate's noise floor.
    null_ctx, live_ctx = ExecutionContext(), ExecutionContext(telemetry=Telemetry())
    cases = {
        name: paired_ratios(
            lambda: kernel(context=null_ctx), lambda: kernel(context=live_ctx),
            pairs=15, min_seconds=0.2,
        )
        for name, (kernel, _) in kernels.items()
    }
    failed = check_gates("enabled telemetry / NULL_TELEMETRY, n=200 m=100", cases, 1.02)
    assert not failed, f"enabled telemetry costs more than 2%: {failed}"


@pytest.mark.skipif(not MULTI_CORE, reason="a pool cannot beat serial on one core")
def test_pool_beats_serial():
    """FUNTA, 20k query curves against 256 reference curves, 2 workers.

    The claim is that the thread pool wins on some kernel. FUNTA is the
    cheapest pooled kernel at this size: halfspace p=1 never enters the
    pool, and spatial and halfspace p=2 take 5-50x longer per call.
    FUNTA is also the kernel the pool helps least at n=20k.
    """
    rng = np.random.default_rng(SEED)
    grid = np.linspace(0.0, 1.0, 48)
    curves = FDataGrid(rng.standard_normal((20_000, 48)).cumsum(axis=1) / 5.0, grid)
    reference = FDataGrid(rng.standard_normal((256, 48)).cumsum(axis=1) / 5.0, grid)
    pool = ExecutionContext(n_jobs=2)
    cases = {
        "funta": paired_ratios(
            lambda: funta_outlyingness(curves, reference=reference),
            lambda: funta_outlyingness(curves, reference=reference, context=pool),
            pairs=5,
        )
    }
    failed = check_gates("n_jobs=2 pool / serial, n=20k n_ref=256 m=48", cases, 1.0)
    assert not failed, "the 2-worker pool is not faster than serial"


def test_float32_beats_float64():
    """Dir.out at p=2 and univariate FUNTA, 200 curves on the Fig. 3
    grid of 85 points, in the float32 and the float64 kernel dtype."""
    rng = np.random.default_rng(SEED)
    grid = np.linspace(0.0, 1.0, 85)
    curves = FDataGrid(rng.standard_normal((200, 85)).cumsum(axis=1) / 5.0, grid)
    mfd_p2 = MFDataGrid(rng.standard_normal((200, 85, 2)).cumsum(axis=1) / 5.0, grid)
    kernels = {
        "dirout_p2": lambda dtype: dirout_scores(mfd_p2, random_state=SEED, dtype=dtype),
        "funta": lambda dtype: funta_outlyingness(curves, dtype=dtype),
    }
    cases = {
        name: paired_ratios(
            lambda: kernel("float64"), lambda: kernel("float32"), pairs=5, min_seconds=0.2
        )
        for name, kernel in kernels.items()
    }
    failed = check_gates("float32 / float64 kernels, n=200 m=85", cases, 1.0)
    assert not failed, f"float32 kernels not faster than float64: {failed}"


def test_untied_funta_beats_tied_path():
    """One stream-shaped FUNTA call (64 queries x 128 references x 64
    points, injected angles) on continuous walks, against the same call
    with one query value set equal to a reference value, which sends
    every block down the exact four-mask path."""
    rng = np.random.default_rng(SEED)
    grid = np.linspace(0.0, 1.0, 64)
    items, window = (rng.standard_normal((n, 64)).cumsum(axis=1) / 5.0 for n in (64, 128))
    tied_items = items.copy()
    tied_items[0, 10] = window[0, 10]
    dt = np.diff(grid)
    angles = {
        "theta_pts": np.arctan(np.diff(items, axis=1) / dt),
        "theta_ref": np.arctan(np.diff(window, axis=1) / dt),
    }
    cases = {
        "64 x 128 x 64": paired_ratios(
            lambda: _kernels.funta_univariate(tied_items, window, grid, 0.0, False, **angles),
            lambda: _kernels.funta_univariate(items, window, grid, 0.0, False, **angles),
            pairs=15, min_seconds=0.2,
        )
    }
    failed = check_gates("untied / one planted tie, FUNTA stream call", cases, 0.9)
    assert not failed, "the tie-free FUNTA mask is not clearly faster than the tied path"


# --------------------------------------------------------------------------- streaming
def _stream_cases(rng, prime_n, chunk, n_chunks, kinds):
    """``label -> (kind, prime curves, arrival chunks)`` on m=100 points."""
    grid = np.linspace(0.0, 1.0, 100)
    cases = {}
    for label, p, kind in kinds:
        walks = rng.standard_normal((prime_n + chunk * n_chunks, 100, p))
        walks = walks.cumsum(axis=1) / 5.0
        prime, values = MFDataGrid(walks[:prime_n], grid), walks[prime_n:]
        chunks = [
            MFDataGrid(values[i * chunk : (i + 1) * chunk], grid) for i in range(n_chunks)
        ]
        cases[label] = (kind, prime, chunks)
    return cases


def _run_stream(kind, window, prime, chunks, **options):
    with StreamingDetector(kind, SlidingWindow(window), min_reference=2, **options) as d:
        d.prime(prime)
        for c in chunks:
            d.process(c)


#: The batch kernel each timed stream kind is measured against, with
#: the detector's default options (Dir.out's closed form is p = 1 only).
_BATCH_KERNELS = {
    "funta": lambda items, ref: funta_outlyingness(items, reference=ref),
    "dirout": lambda items, ref: dirout_scores(
        items, reference=ref, method="total", n_directions=200, random_state=0),
}


def _refit_stream(kind, window, prime, chunks):
    """Per-arrival refit without a detector: the batch kernel on the
    window contents, then ``SlidingWindow.observe`` for each arrival."""
    ref = SlidingWindow(window)
    for curve in prime.values:
        ref.observe(curve)
    for c in chunks:
        _BATCH_KERNELS[kind](c, MFDataGrid(ref.values, c.grid))
        for curve in c.values:
            ref.observe(curve)


def test_incremental_beats_refit():
    """window=128, m=100, 150 single-curve arrivals."""
    streams = _stream_cases(
        np.random.default_rng(SEED), 128, 1, 150,
        [("funta_p1", 1, "funta"), ("funta_p2", 2, "funta"),
         ("dirout_p1", 1, "dirout")],
    )
    cases = {
        label: paired_ratios(
            lambda: _refit_stream(kind, 128, prime, chunks),
            lambda: _run_stream(kind, 128, prime, chunks),
            pairs=7,
        )
        for label, (kind, prime, chunks) in streams.items()
    }
    failed = check_gates("incremental / refit, window=128 m=100", cases, 1.0)
    assert not failed, f"incremental caches not faster than refit: {failed}"


@pytest.mark.skipif(not MULTI_CORE, reason="shards cannot beat one stream on one core")
def test_two_shards_beat_single_stream():
    """W=512, two 64-curve chunks (the 150-arrival stream, chunked)."""
    streams = _stream_cases(
        np.random.default_rng(SEED), 512, 64, 150 // 64,
        [("funta_p1_sharded", 1, "funta")],
    )
    cases = {
        label: paired_ratios(
            lambda: _run_stream(kind, 512, prime, chunks),
            lambda: _run_stream(kind, 512, prime, chunks, shards=2),
            pairs=7,
        )
        for label, (kind, prime, chunks) in streams.items()
    }
    failed = check_gates("shards=2 / single stream, W=512 chunk=64", cases, 1.0)
    assert not failed, f"two shards not faster than one stream: {failed}"


# --------------------------------------------------------------------------- serving
@pytest.fixture(scope="module")
def traffic(tmp_path_factory):
    """A saved iForest pipeline and 40 batches of 5 curves on its grid."""
    train, _ = make_taxonomy_dataset(
        "correlation", n_inliers=60, n_outliers=6, random_state=0
    )
    pipeline = GeometricOutlierPipeline(
        IsolationForest(n_estimators=100, random_state=0), n_basis=15
    ).fit(train)
    model_dir = tmp_path_factory.mktemp("gates") / "model"
    save_pipeline(pipeline, model_dir)
    rng = np.random.default_rng(1)
    batches = []
    for _ in range(40):
        base = train.values[rng.integers(0, train.n_samples, size=5)]
        batches.append(MFDataGrid(base + 0.02 * rng.standard_normal(base.shape), train.grid))
    return model_dir, batches


def test_cached_serving_beats_cache_cleared(traffic):
    model_dir, batches = traffic
    cleared, cached = ScoringService(), ScoringService()
    cleared.load("m", model_dir)
    cached.load("m", model_dir)
    cached.score("m", batches[0])

    def score_cleared():
        for batch in batches:
            cleared.context.cache.clear()
            cleared.score("m", batch)

    def score_cached():
        for batch in batches:
            cached.score("m", batch)

    cases = {"40 batches x 5 curves": paired_ratios(score_cleared, score_cached, pairs=7)}
    failed = check_gates("shared context / cache cleared per batch", cases, 1.0)
    assert not failed, "cache reuse no faster than refactorizing every batch"


def test_plan_dispatch_overhead(traffic):
    model_dir, batches = traffic
    pipeline = load_pipeline(model_dir)
    plan = plan_for_pipeline(pipeline, WorkloadSpec(mode="batch"))
    pipeline.score_samples(batches[0])
    cases = {
        "40 batches x 5 curves": paired_ratios(
            lambda: [pipeline.score_samples(b) for b in batches],
            lambda: [plan.score(b) for b in batches],
            pairs=9, min_seconds=0.3,
        )
    }
    failed = check_gates("plan dispatch / direct calls", cases, 1.05)
    assert not failed, "plan-layer dispatch costs more than 5%"


def test_orjson_parse_beats_json_oracle(traffic):
    """One serve-shaped body: 128 ECG curves x 85 points x 2, about 480 KB."""
    model_dir, _ = traffic
    service = ScoringService()
    service.load("m", model_dir)
    app = ServingApp(service)
    data, _, _ = make_ecg_dataset(n_normal=85, n_abnormal=43, random_state=SEED)
    curves = square_augment(data)
    body = json.dumps(
        {"pipeline": "m", "values": curves.values.tolist(), "grid": curves.grid.tolist()}
    ).encode()
    cases = {
        "128 x 85 x 2 body": paired_ratios(
            lambda: parse_oracle(body, app.resolve),
            lambda: app._parse_scoring_request(body),
            pairs=15, min_seconds=0.3,
        )
    }
    failed = check_gates("orjson parse / json-only oracle", cases, 0.8)
    assert not failed, "the orjson request parse is not clearly faster than json"


def test_warm_prepare_beats_cold():
    """The n_basis sweep (8, 12, 16) against a fresh vs a warmed cache."""
    data, _, _ = make_ecg_dataset(n_normal=60, n_abnormal=20, random_state=1)
    mfd = square_augment(data)
    method = MappedDetectorMethod("iforest", n_basis=(8, 12, 16))
    warm = ExecutionContext()
    method.prepare(mfd, random_state=0, context=warm)
    cases = {
        "iforest prepare": paired_ratios(
            lambda: method.prepare(mfd, random_state=0, context=ExecutionContext()),
            lambda: method.prepare(mfd, random_state=0, context=warm),
            pairs=5,
        )
    }
    failed = check_gates("warm / cold factorization cache", cases, 1.0)
    assert not failed, "a warm cache does not speed up preparation"


# --------------------------------------------------------------------------- detectors
def test_iforest_fit_beats_oracle():
    """200 trees on a Fig. 3 curvature training matrix (103 x 85, two
    features repeat a value), as the Fig. 3 experiment fits them."""
    golden = Path(__file__).resolve().parents[1] / "tests" / "data" / "iforest_grow_golden.npz"
    with np.load(golden, allow_pickle=False) as bundle:
        X = bundle["fig3_curvature__X"]
    cases = {
        "fig3 curvature, 200 trees": paired_ratios(
            lambda: iforest_oracle(X, 200, 256, 0),
            lambda: IsolationForest(n_estimators=200, random_state=0).fit(X),
            pairs=15,
        )
    }
    failed = check_gates("IsolationForest fit / full min-max grower oracle", cases, 0.4)
    assert not failed, "the Isolation Forest fit is not clearly faster than its oracle"


# --------------------------------------------------------------------------- HTTP
def _fig3_bundle(directory):
    """Save the Fig. 3 serving pipeline (200-tree iForest on curvature)."""
    data, _, _ = make_ecg_dataset(random_state=SEED)
    pipeline = GeometricOutlierPipeline(
        IsolationForest(n_estimators=200, random_state=0), n_basis=20
    ).fit(square_augment(data))
    bundle = Path(directory) / "fig3_iforest"
    save_pipeline(pipeline, bundle, compressed=False)
    return bundle


def test_http_sustained_floor():
    """8 keep-alive clients post 60 batches of 32 curves, 5 runs."""
    batch_curves, requests, clients, runs = 32, 60, 8, 5
    probe, _, _ = make_ecg_dataset(random_state=SEED + 1)
    traffic = square_augment(probe)
    doc = {
        "pipeline": "fig3_iforest",
        "values": traffic.values[:batch_curves].tolist(),
        "grid": traffic.grid.tolist(),
    }

    async def sustained(port):
        remaining, answered = [requests], [0]

        async def client():
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            try:
                while remaining[0] > 0:
                    remaining[0] -= 1
                    status, body = await post_json(
                        "127.0.0.1", port, "/submit", doc, reader=reader, writer=writer
                    )
                    if status == 200 and np.all(np.isfinite(body["scores"])):
                        answered[0] += 1
            finally:
                writer.close()
                try:
                    await writer.wait_closed()
                except OSError:
                    pass

        start = time.perf_counter()
        await asyncio.gather(*(client() for _ in range(clients)))
        return answered[0] * batch_curves / (time.perf_counter() - start)

    async def drive(bundle):
        service = load_service(
            {"fig3_iforest": bundle}, max_pending=4 * batch_curves, mmap=True
        )
        server = ScoringServer(
            service, high_water=64 * batch_curves, flush_interval=0.02
        )
        await server.start()
        try:
            await post_json("127.0.0.1", server.port, "/score", doc)
            return [await sustained(server.port) for _ in range(runs)]
        finally:
            await server.close()

    with tempfile.TemporaryDirectory() as tmp:
        rates = asyncio.run(drive(_fig3_bundle(tmp)))
    failed = check_gates(
        "HTTP sustained curves/s (median of runs)",
        {"/submit, 8 clients x 32 curves": rates}, 400.0, above=True,
    )
    assert not failed, f"front door sustained below 400 curves/s: {rates}"
