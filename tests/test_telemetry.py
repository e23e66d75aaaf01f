"""Tests for the unified telemetry layer: metrics, traces, registry views.

Covers the correctness claims the observability layer makes:

* histogram bucket boundaries follow the Prometheus ``le`` (inclusive
  upper bound) convention and the snapshot matches the observations
  (property-based);
* exact-reservoir percentiles match NumPy's linear interpolation;
* concurrent increments lose no updates — across threads on one
  counter, and around a depth kernel fanned out over a 2-worker pool;
* a caller-opened span becomes the parent of ``run_chunked``'s chunk
  spans, sharing one trace ID;
* enabled telemetry leaves every gated depth kernel's output
  bit-identical to :data:`~repro.telemetry.NULL_TELEMETRY`;
* :meth:`~repro.serving.ScoringService.stats` stays a bit-compatible
  view over the registry (same keys and values as before the registry
  existed), and the queue-depth gauge is the single definition both the
  flush loop and backpressure read.
"""

import io
import json
import math
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.pipeline import GeometricOutlierPipeline
from repro.data.synthetic import make_taxonomy_dataset
from repro.depth import _kernels
from repro.depth.dirout import dirout_scores
from repro.depth.functional import pointwise_depth_profile
from repro.depth.funta import funta_outlyingness
from repro.detectors import make_detector
from repro.engine import ExecutionContext
from repro.exceptions import ValidationError
from repro.fda.fdata import FDataGrid, MFDataGrid
from repro.plan import run_chunked
from repro.serving import ScoringService
from repro.telemetry import (
    CATALOGUE,
    NULL_TELEMETRY,
    NullTelemetry,
    Telemetry,
    resolve_telemetry,
)
from repro.telemetry.metrics import (
    DEFAULT_SIZE_BUCKETS,
    Histogram,
    MetricsRegistry,
    _RESERVOIR,
)

BOUNDS = (0.1, 0.5, 1.0, 2.5)

finite_samples = st.lists(
    st.floats(min_value=-1.0, max_value=5.0, allow_nan=False, allow_infinity=False),
    min_size=1,
    max_size=60,
)


# --------------------------------------------------------------------------- metrics
class TestCounterGauge:
    def test_counter_monotonic(self):
        reg = MetricsRegistry()
        c = reg.counter("x_total")
        c.inc()
        c.inc(5)
        assert c.value == 6
        with pytest.raises(ValidationError):
            c.inc(-1)

    def test_gauge_set_inc_dec(self):
        g = MetricsRegistry().gauge("x")
        g.set(3.5)
        g.inc(2)
        g.dec(0.5)
        assert g.value == 5.0

    def test_registry_get_or_create_identity(self):
        reg = MetricsRegistry()
        a = reg.counter("hits_total", kind="design")
        b = reg.counter("hits_total", kind="design")
        other = reg.counter("hits_total", kind="penalty")
        assert a is b
        assert a is not other

    def test_registry_type_conflict_raises(self):
        reg = MetricsRegistry()
        reg.counter("x_total")
        with pytest.raises(ValidationError, match="is a counter"):
            reg.gauge("x_total")
        reg.histogram("lat_seconds", buckets=BOUNDS)
        with pytest.raises(ValidationError, match="different buckets"):
            reg.histogram("lat_seconds", buckets=(1.0, 2.0))


class TestHistogram:
    @given(samples=finite_samples)
    @settings(max_examples=100, deadline=None)
    def test_bucket_boundaries_le_convention(self, samples):
        """Cumulative bucket counts == brute-force ``sum(v <= bound)``."""
        hist = Histogram("h", {}, buckets=BOUNDS)
        for v in samples:
            hist.observe(v)
        snap = hist.snapshot()
        for (bound, cum), b in zip(snap["buckets"], BOUNDS):
            assert bound == b
            assert cum == sum(1 for v in samples if v <= b)
        assert snap["buckets"][-1] == ["+Inf", len(samples)]
        assert snap["count"] == len(samples)
        assert math.isclose(snap["sum"], math.fsum(samples), abs_tol=1e-12)
        assert snap["min"] == min(samples)
        assert snap["max"] == max(samples)

    def test_exact_percentiles_match_numpy(self):
        rng = np.random.default_rng(0)
        samples = rng.lognormal(mean=-3.0, sigma=1.0, size=500)
        hist = Histogram("h", {})
        for v in samples:
            hist.observe(v)
        for q in (0, 10, 50, 95, 99, 100):
            assert hist.percentile(q) == pytest.approx(
                float(np.percentile(samples, q)), rel=1e-12
            )

    def test_bucket_fallback_after_reservoir_overflow(self):
        """Past the reservoir, quantiles become in-bucket interpolations:
        still bracketed by the true percentile's bucket bounds."""
        rng = np.random.default_rng(1)
        samples = rng.uniform(0.0, 3.0, size=_RESERVOIR + 500)
        hist = Histogram("h", {}, buckets=BOUNDS)
        for v in samples:
            hist.observe(v)
        assert not hist._exact
        for q in (50, 95):
            true = float(np.percentile(samples, q))
            est = hist.percentile(q)
            lo = max([b for b in BOUNDS if b < true], default=0.0)
            hi = min([b for b in BOUNDS if b >= true], default=samples.max())
            assert lo <= est <= max(hi, samples.max())

    def test_empty_histogram(self):
        hist = Histogram("h", {})
        assert math.isnan(hist.percentile(50))
        assert math.isnan(hist.min) and math.isnan(hist.max)
        assert hist.count == 0


class TestConcurrency:
    def test_concurrent_counter_increments_no_lost_updates(self):
        reg = MetricsRegistry()
        n_threads, per_thread = 8, 5_000
        barrier = threading.Barrier(n_threads)

        def hammer():
            # get-or-create from every thread: same instrument must come back
            counter = reg.counter("hammer_total", kind="shared")
            hist = reg.histogram("hammer_seconds")
            barrier.wait()
            for i in range(per_thread):
                counter.inc()
                hist.observe(i * 1e-6)

        threads = [threading.Thread(target=hammer) for _ in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert reg.counter("hammer_total", kind="shared").value == n_threads * per_thread
        assert reg.histogram("hammer_seconds").count == n_threads * per_thread

    def test_pool_counters_survive_worker_fanout(self, monkeypatch):
        """A kernel fanned out over 2 workers counts one invocation and
        every one of its blocks, and returns the serial scores."""
        monkeypatch.setattr(_kernels, "_FUNTA_BLOCK_CAP", 4096)
        telemetry = Telemetry()
        context = ExecutionContext(n_jobs=2, telemetry=telemetry)
        rng = np.random.default_rng(0)
        curves = FDataGrid(
            rng.standard_normal((64, 32)).cumsum(axis=1), np.linspace(0.0, 1.0, 32)
        )
        blocks = _kernels._funta_blocks(64, 64, 32)
        assert len(blocks) > 2

        pooled = funta_outlyingness(curves, context=context)
        np.testing.assert_array_equal(pooled, funta_outlyingness(curves))
        assert telemetry.counter(
            "depth_kernel_invocations_total", kernel="funta").value == 1
        assert telemetry.counter(
            "depth_kernel_blocks_total", kernel="funta").value == len(blocks)


# --------------------------------------------------------------------------- tracing
class TestTracing:
    def test_run_chunked_nests_under_caller_span(self):
        telemetry = Telemetry()
        rng = np.random.default_rng(0)
        mfd = MFDataGrid(rng.standard_normal((20, 8, 1)), np.linspace(0.0, 1.0, 8))

        with telemetry.span("request", curves=20) as root:
            results = list(
                run_chunked(lambda c: c.n_samples, mfd, chunk_size=6,
                            telemetry=telemetry)
            )
            trace_id = root.trace_id
        assert results == [6, 6, 6, 2]

        trees = telemetry.tracer.traces()
        assert len(trees) == 1
        tree = trees[0]
        assert tree["name"] == "request"
        assert tree["parent_id"] is None
        assert tree["trace_id"] == trace_id
        children = tree["children"]
        assert [c["name"] for c in children] == ["chunk"] * 4
        assert [c["attrs"]["index"] for c in children] == [0, 1, 2, 3]
        assert [c["attrs"]["curves"] for c in children] == [6, 6, 6, 2]
        for child in children:
            assert child["trace_id"] == trace_id
            assert child["parent_id"] == tree["span_id"]
            assert child["duration_s"] >= 0

        assert telemetry.counter("plan_chunks_total").value == 4
        assert telemetry.counter("plan_chunk_curves_total").value == 20
        assert telemetry.histogram("plan_chunk_seconds").count == 4

    def test_detached_spans_do_not_cross_link(self):
        telemetry = Telemetry()
        a = telemetry.start_span("req", route="/a")
        b = telemetry.start_span("req", route="/b")
        assert a.trace_id != b.trace_id
        assert telemetry.current_trace_id() is None  # detached: no stack entry
        b.end()
        a.end()
        ids = {t["trace_id"] for t in telemetry.tracer.traces()}
        assert ids == {a.trace_id, b.trace_id}

    def test_export_jsonl_roundtrip(self):
        telemetry = Telemetry()
        with telemetry.span("outer"):
            with telemetry.span("inner"):
                pass
        buf = io.StringIO()
        assert telemetry.tracer.export_jsonl(buf) == 1
        (line,) = buf.getvalue().strip().splitlines()
        tree = json.loads(line)
        assert tree["name"] == "outer"
        assert tree["children"][0]["name"] == "inner"


# --------------------------------------------------------------------------- exposition
class TestExposition:
    def test_prometheus_text_format(self):
        telemetry = Telemetry()
        telemetry.counter("engine_cache_hits_total", kind="design").inc(3)
        telemetry.gauge("serving_queue_depth_curves").set(7)
        hist = telemetry.histogram("lat_seconds", buckets=(0.1, 1.0))
        hist.observe(0.05)
        hist.observe(0.5)
        text = telemetry.to_prometheus()
        assert "# TYPE engine_cache_hits_total counter" in text
        assert 'engine_cache_hits_total{kind="design"} 3' in text
        # CATALOGUE supplies the HELP text so call sites never repeat it.
        assert (
            f"# HELP engine_cache_hits_total {CATALOGUE['engine_cache_hits_total'][2]}"
            in text
        )
        assert "serving_queue_depth_curves 7" in text
        assert 'lat_seconds_bucket{le="0.1"} 1' in text
        assert 'lat_seconds_bucket{le="1"} 2' in text
        assert 'lat_seconds_bucket{le="+Inf"} 2' in text
        assert "lat_seconds_count 2" in text

    def test_label_escaping(self):
        telemetry = Telemetry()
        telemetry.counter("x_total", path='a"b\\c\nd').inc()
        text = telemetry.to_prometheus()
        assert r'x_total{path="a\"b\\c\nd"} 1' in text

    def test_snapshot_is_json_able(self):
        telemetry = Telemetry()
        telemetry.counter("c_total").inc()
        telemetry.histogram("h_seconds").observe(0.1)
        snap = json.loads(json.dumps(telemetry.snapshot()))
        assert snap["counters"][0]["name"] == "c_total"
        assert snap["histograms"][0]["count"] == 1


# --------------------------------------------------------------------------- defaults
class TestNullAndResolve:
    def test_null_telemetry_is_shared_noop(self):
        assert NULL_TELEMETRY.counter("a") is NULL_TELEMETRY.counter("b")
        NULL_TELEMETRY.counter("a").inc(100)
        assert NULL_TELEMETRY.counter("a").value == 0
        assert math.isnan(NULL_TELEMETRY.histogram("h").percentile(50))
        with NULL_TELEMETRY.span("x") as span:
            assert span.trace_id is None
        assert NULL_TELEMETRY.snapshot() == {}
        assert NULL_TELEMETRY.to_prometheus() == ""

    def test_resolve_telemetry_precedence(self):
        explicit = Telemetry()
        context = ExecutionContext(telemetry=Telemetry())
        assert resolve_telemetry(context, explicit) is explicit
        assert resolve_telemetry(context) is context.telemetry
        assert resolve_telemetry(None) is NULL_TELEMETRY
        with pytest.raises(ValidationError, match="Telemetry"):
            resolve_telemetry(None, "prometheus")

    def test_context_default_is_null(self):
        assert isinstance(ExecutionContext().telemetry, NullTelemetry)

    @pytest.mark.parametrize("kernel", [
        "funta", "halfspace_p1", "halfspace_p2", "spatial_p2",
        "projection_p2", "dirout_p2",
    ])
    def test_enabled_telemetry_leaves_kernel_outputs_unchanged(self, kernel):
        rng = np.random.default_rng(7)
        grid = np.linspace(0.0, 1.0, 20)
        curves = FDataGrid(rng.standard_normal((30, 20)).cumsum(axis=1) / 5.0, grid)
        p1 = curves.to_multivariate()
        p2 = MFDataGrid(rng.standard_normal((30, 20, 2)), grid)
        calls = {
            "funta": lambda ctx: funta_outlyingness(curves, context=ctx),
            "halfspace_p1": lambda ctx: pointwise_depth_profile(
                p1, notion="halfspace", context=ctx),
            "halfspace_p2": lambda ctx: pointwise_depth_profile(
                p2, notion="halfspace", random_state=7, context=ctx),
            "spatial_p2": lambda ctx: pointwise_depth_profile(
                p2, notion="spatial", context=ctx),
            "projection_p2": lambda ctx: pointwise_depth_profile(
                p2, notion="projection", random_state=7, context=ctx),
            "dirout_p2": lambda ctx: dirout_scores(p2, random_state=7, context=ctx),
        }
        live = calls[kernel](ExecutionContext(telemetry=Telemetry()))
        null = calls[kernel](ExecutionContext())
        np.testing.assert_array_equal(live, null)


# --------------------------------------------------------------------------- service view
@pytest.fixture(scope="module")
def fitted_pipeline():
    data, _ = make_taxonomy_dataset(
        "correlation", n_inliers=40, n_outliers=6, random_state=0
    )
    detector = make_detector("iforest", random_state=0, n_estimators=25)
    return GeometricOutlierPipeline(detector, n_basis=12).fit(data), data


class TestServiceRegistryView:
    def test_stats_backward_compat_keys(self, fitted_pipeline):
        pipeline, data = fitted_pipeline
        service = ScoringService()
        service.register("demo", pipeline)
        service.score("demo", data)
        stats = service.stats()
        assert set(stats) == {
            "pipelines", "served_curves", "served_requests", "failed_requests",
            "flushes", "pending_requests", "pending_curves", "inflight_curves",
            "cache",
        }
        assert stats["served_curves"] == data.n_samples
        assert stats["served_requests"] == 1
        # Bit-compatible with the registry: the same instruments back both.
        assert stats["served_curves"] == (
            service.telemetry.counter("serving_served_curves_total").value
        )

    def test_queue_depth_gauge_is_single_definition(self, fitted_pipeline):
        pipeline, data = fitted_pipeline
        service = ScoringService(max_pending=10_000)
        service.register("demo", pipeline)
        ticket = service.submit("demo", data, auto_flush=False)
        gauge = service.telemetry.gauge("serving_queue_depth_curves")
        assert service.queue_depth() == data.n_samples == int(gauge.value)
        assert service.stats()["pending_curves"] == service.queue_depth()
        service.flush()
        assert service.queue_depth() == 0 == int(gauge.value)
        assert np.all(np.isfinite(ticket.result()))
        assert service.telemetry.histogram("serving_flush_curves").count == 1

    def test_flush_metrics_recorded(self, fitted_pipeline):
        pipeline, data = fitted_pipeline
        service = ScoringService(max_pending=10_000)
        service.register("demo", pipeline)
        for _ in range(3):
            service.submit("demo", data, auto_flush=False)
        service.flush()
        assert service.flushes == 1
        hist = service.telemetry.histogram("serving_flush_curves")
        assert hist.count == 1
        assert hist.sum == 3 * data.n_samples
        assert service.telemetry.histogram("serving_flush_seconds").count == 1

    def test_catalogue_covers_emitted_metrics(self, fitted_pipeline):
        """Everything the service emits under load is documented."""
        pipeline, data = fitted_pipeline
        service = ScoringService()
        service.register("demo", pipeline)
        service.submit("demo", data, auto_flush=False)
        service.flush()
        for _ in service.score_stream("demo", data, chunk_size=16):
            pass
        families = service.telemetry.registry.families()
        undocumented = [name for name in families if name not in CATALOGUE]
        assert not undocumented, f"metrics missing from CATALOGUE: {undocumented}"
