"""Tests for the async HTTP front door: server, app routes, backpressure."""

import asyncio
import json
import re
import subprocess
import sys
import time

import numpy as np
import pytest

from repro.core.pipeline import GeometricOutlierPipeline
from repro.data.synthetic import make_taxonomy_dataset
from repro.detectors import make_detector
from repro.exceptions import ValidationError
from repro.plan import pipeline_to_spec, spec_hash
from repro.serving import ScoringService, save_pipeline
from repro.serving.app import JsonResponse, ServingApp
from repro.serving.server import ScoringServer, http_request_json, load_service

from http_client import get_text, post_json


@pytest.fixture(scope="module")
def dataset():
    data, labels = make_taxonomy_dataset(
        "correlation", n_inliers=40, n_outliers=6, random_state=0
    )
    return data, labels


@pytest.fixture(scope="module")
def fitted(dataset):
    data, _ = dataset
    detector = make_detector("iforest", random_state=0, n_estimators=25)
    return GeometricOutlierPipeline(detector, n_basis=12).fit(data)


@pytest.fixture(scope="module")
def bundle(fitted, tmp_path_factory):
    path = tmp_path_factory.mktemp("bundles") / "model"
    save_pipeline(fitted, path, compressed=False)
    return path


def _batch_doc(data, n=4, pipeline="main"):
    return {
        "pipeline": pipeline,
        "values": data.values[:n].tolist(),
        "grid": data.grid.tolist(),
    }


def _run(bundle, scenario, **server_kwargs):
    """Start a server around ``scenario(server)`` and always close it."""

    async def main():
        service = load_service({"main": bundle}, mmap=True, **{
            k: server_kwargs.pop(k) for k in ("max_pending",) if k in server_kwargs
        })
        server = ScoringServer(service, **server_kwargs)
        await server.start()
        try:
            return await scenario(server)
        finally:
            await server.close()

    return asyncio.run(main())


async def _post(server, path, doc):
    return await post_json("127.0.0.1", server.port, path, doc)


class TestServerRoutes:
    def test_score_roundtrip(self, bundle, fitted, dataset):
        data, _ = dataset

        async def scenario(server):
            return await _post(server, "/score", _batch_doc(data))

        status, body = _run(bundle, scenario)
        assert status == 200
        assert body["pipeline"] == "main"
        np.testing.assert_allclose(
            body["scores"], fitted.score_samples(data[np.arange(4)]), atol=1e-9
        )

    def test_submit_resolves_via_deadline_flush(self, bundle, dataset):
        data, _ = dataset

        async def scenario(server):
            # One small request, far below max_pending: only the
            # background deadline flush can resolve it.
            return await _post(server, "/submit", _batch_doc(data, n=3))

        status, body = _run(bundle, scenario, max_pending=1000, flush_interval=0.02)
        assert status == 200
        assert len(body["scores"]) == 3
        assert np.all(np.isfinite(body["scores"]))

    def test_submit_resolves_via_max_pending_flush(self, bundle, dataset):
        data, _ = dataset

        async def scenario(server):
            posts = [_post(server, "/submit", _batch_doc(data, n=4)) for _ in range(4)]
            return await asyncio.gather(*posts)

        # max_pending=8 with a glacial deadline: only the queue-depth
        # trigger can resolve these within the test timeout.
        results = _run(bundle, scenario, max_pending=8, flush_interval=30.0)
        assert [status for status, _ in results] == [200] * 4
        for _, body in results:
            assert len(body["scores"]) == 4

    def test_routing_by_spec_hash(self, bundle, fitted, dataset):
        data, _ = dataset
        hashed = spec_hash(pipeline_to_spec(fitted))

        async def scenario(server):
            return await _post(server, "/score", _batch_doc(data, pipeline=hashed))

        status, body = _run(bundle, scenario)
        assert status == 200
        assert body["pipeline"] == "main"

    def test_healthz_and_stats(self, bundle, dataset):
        data, _ = dataset

        async def scenario(server):
            loop = asyncio.get_running_loop()
            health = await loop.run_in_executor(
                None,
                http_request_json,
                f"http://127.0.0.1:{server.port}/healthz",
            )
            await _post(server, "/score", _batch_doc(data))
            stats = await loop.run_in_executor(
                None,
                http_request_json,
                f"http://127.0.0.1:{server.port}/stats",
            )
            return health, stats

        (h_status, health), (s_status, stats) = _run(bundle, scenario)
        assert (h_status, s_status) == (200, 200)
        assert health == {"status": "ok", "pipelines": ["main"]}
        assert stats["served_curves"] == 4
        assert stats["http"]["accepted_requests"] == 1
        assert stats["http"]["shed_requests"] == 0

    def test_error_statuses(self, bundle, dataset):
        data, _ = dataset
        bad_lengths = ("abc", "-5", "1e3")

        async def bad_length(server, content_length):
            # A malformed Content-Length is answered with 400, then closed.
            reader, writer = await asyncio.open_connection("127.0.0.1", server.port)
            try:
                writer.write(
                    f"POST /score HTTP/1.1\r\nHost: 127.0.0.1\r\n"
                    f"Content-Length: {content_length}\r\n\r\n{{}}".encode("ascii")
                )
                await writer.drain()
                head, _, body = (await asyncio.wait_for(reader.read(), 5)).partition(
                    b"\r\n\r\n"
                )
                return int(head.split(b" ", 2)[1]), json.loads(body)
            finally:
                writer.close()
                await writer.wait_closed()

        async def scenario(server):
            unknown = await _post(server, "/score", _batch_doc(data, pipeline="nope"))
            missing_keys = await _post(server, "/score", {"pipeline": "main"})
            not_json = await post_json(
                "127.0.0.1", server.port, "/score", "not json"
            )
            bad_path = await _post(server, "/nothing-here", {})
            malformed = [await bad_length(server, value) for value in bad_lengths]
            return unknown, missing_keys, not_json, bad_path, malformed

        unknown, missing_keys, not_json, bad_path, malformed = _run(bundle, scenario)
        assert unknown[0] == 404 and "no pipeline named" in unknown[1]["error"]
        assert missing_keys[0] == 400 and "missing keys" in missing_keys[1]["error"]
        assert not_json[0] == 400
        assert bad_path[0] == 404
        assert malformed == [
            (400, {"error": "Content-Length must be a non-negative decimal "
                            f"integer, got {value!r}"})
            for value in bad_lengths
        ]

    def test_oversized_integer_literal_is_a_400(self, bundle, dataset):
        # A 400-digit integer parses (json) to a Python int that no float
        # holds; both scoring routes answer 400, not 500.
        data, _ = dataset
        doc = _batch_doc(data)
        doc["values"][1][2][0] = 10**400

        async def scenario(server):
            return [await _post(server, route, doc) for route in ("/score", "/submit")]

        for status, body in _run(bundle, scenario):
            assert status == 400
            assert body["error"].startswith("values/grid are not numeric arrays")

    def test_clean_shutdown_settles_outstanding(self, bundle, dataset):
        data, _ = dataset

        async def scenario(server):
            # Park a submit on a glacial flush deadline, then close the
            # server while it is still pending: close() must drain the
            # queue and answer the request rather than hang it.
            task = asyncio.ensure_future(_post(server, "/submit", _batch_doc(data, n=2)))
            while not server.service.stats()["pending_requests"]:
                await asyncio.sleep(0.005)
            await server.close()
            status, body = await asyncio.wait_for(task, timeout=5)
            assert status == 200 and len(body["scores"]) == 2
            assert server.service.outstanding_curves() == 0

        _run(bundle, scenario, max_pending=1000, flush_interval=30.0)


class TestBackpressure:
    def test_429_sheds_before_queueing(self, bundle, dataset):
        data, _ = dataset

        async def scenario(server):
            first = asyncio.ensure_future(
                _post(server, "/submit", _batch_doc(data, n=6))
            )
            while not server.service.stats()["pending_requests"]:
                await asyncio.sleep(0.005)
            # 6 outstanding + 6 new > high_water=8 -> shed immediately.
            shed_status, shed_body = await _post(
                server, "/submit", _batch_doc(data, n=6)
            )
            first_status, first_body = await asyncio.wait_for(first, timeout=5)
            return shed_status, shed_body, first_status, first_body, server.app.stats().body

        shed_status, shed_body, first_status, first_body, stats = _run(
            bundle, scenario,
            max_pending=1000, flush_interval=0.2, high_water=8,
        )
        assert shed_status == 429
        assert "shed" in shed_body["error"]
        assert shed_body["high_water"] == 8
        # The accepted request still resolves with scores.
        assert first_status == 200 and len(first_body["scores"]) == 6
        # The shed request never touched the queue.
        assert stats["served_curves"] == 6
        assert stats["http"] == {
            "accepted_requests": 1, "shed_requests": 1, "high_water": 8,
        }

    def test_retry_after_header_at_app_layer(self, dataset, fitted):
        data, _ = dataset
        service = ScoringService()
        service.register("main", fitted)
        app = ServingApp(service, high_water=2, retry_after=1.5)
        body = json.dumps(_batch_doc(data, n=4)).encode()
        shed = app.try_submit(body)
        assert isinstance(shed, JsonResponse)
        assert shed.status == 429
        assert shed.headers["Retry-After"] == "1.5"
        assert app.shed_requests == 1 and app.accepted_requests == 0

    def test_nan_curves_are_named_and_reject_the_request(self, dataset, fitted):
        data, _ = dataset
        service = ScoringService()
        service.register("main", fitted)
        app = ServingApp(service)
        doc = _batch_doc(data, n=8)
        doc["values"][2][3][0] = float("nan")
        doc["values"][5][0][1] = float("nan")
        body = json.dumps(doc).encode()
        expected = "values contains NaN or infinite values in 2 of 8 samples: [2, 5]"
        with pytest.raises(ValidationError, match=re.escape(expected)):
            app.score(body)
        with pytest.raises(ValidationError, match=re.escape(expected)):
            app.try_submit(body)
        # The whole request is rejected before it reaches the queue.
        assert service.outstanding_curves() == 0
        assert app.accepted_requests == 0

    def test_app_rejects_bad_high_water(self, fitted):
        service = ScoringService()
        service.register("main", fitted)
        with pytest.raises(ValidationError, match="high_water"):
            ServingApp(service, high_water=0)

    def test_open_loop_arrivals_at_5x_capacity(self, bundle, dataset):
        """The overload contract: with the scorer throttled to a known
        capacity and arrivals scheduled at 5x it, excess requests shed
        with 429 instead of growing the queue, and every accepted one
        resolves with finite scores."""
        data, _ = dataset
        batch, capacity, n_requests = 8, 400.0, 40
        high_water = 4 * batch
        # try_submit runs on executor threads, so a few admissions can
        # pass the high-water check together.
        admission_window = 8 * batch

        async def scenario(server):
            service = server.service
            loaded = service._pipeline("main")
            real_score = loaded.score_samples

            def throttled_score(mfd):
                time.sleep(mfd.n_samples / capacity)
                return real_score(mfd)

            loaded.score_samples = throttled_score
            doc = _batch_doc(data, n=batch)
            outcomes, max_outstanding = [], [0]
            stop = asyncio.Event()

            async def sampler():
                while not stop.is_set():
                    max_outstanding[0] = max(
                        max_outstanding[0], service.outstanding_curves()
                    )
                    await asyncio.sleep(0.002)

            async def one_request():
                outcomes.append(await _post(server, "/submit", doc))

            sampling = asyncio.ensure_future(sampler())
            interval = batch / (5.0 * capacity)
            start = time.perf_counter()
            tasks = []
            for i in range(n_requests):
                delay = start + i * interval - time.perf_counter()
                if delay > 0:
                    await asyncio.sleep(delay)
                tasks.append(asyncio.ensure_future(one_request()))
            await asyncio.gather(*tasks)
            stop.set()
            await sampling
            return outcomes, max_outstanding[0], service.stats()

        outcomes, max_outstanding, stats = _run(
            bundle, scenario, high_water=high_water, flush_interval=0.02
        )
        statuses = [status for status, _ in outcomes]
        accepted = statuses.count(200)
        shed = statuses.count(429)
        assert accepted + shed == n_requests == len(outcomes)
        assert shed > 0, "no 429s under 5x-capacity arrivals"
        for status, body in outcomes:
            if status == 200:
                assert len(body["scores"]) == batch
                assert np.all(np.isfinite(body["scores"]))
        assert max_outstanding <= high_water + admission_window
        assert stats["failed_requests"] == 0
        assert stats["served_requests"] == accepted


def _parse_prometheus(text):
    """Exposition text -> {sample name with labels: value}."""
    samples = {}
    for line in text.splitlines():
        if line and not line.startswith("#"):
            name, _, value = line.rpartition(" ")
            samples[name] = float(value)
    return samples


class TestMetricsScrape:
    def test_scrape_under_live_traffic(self, bundle, dataset):
        """One /metrics scrape, taken while a request is still queued,
        exposes queue depth, sheds, per-route latency and cache hits
        that agree with ``stats()``."""
        data, _ = dataset

        async def scenario(server):
            for _ in range(2):  # the second /score hits the factorization cache
                status, body = await _post(server, "/score", _batch_doc(data))
                assert status == 200, body
            parked = asyncio.ensure_future(
                _post(server, "/submit", _batch_doc(data, n=4))
            )
            while not server.service.stats()["pending_requests"]:
                await asyncio.sleep(0.005)
            # 4 queued + 4 new > high_water=6: shed.
            status, body = await _post(server, "/submit", _batch_doc(data, n=4))
            assert status == 429, body
            scrape = await get_text("127.0.0.1", server.port, "/metrics")
            stats = server.service.stats()
            await server.close()
            parked_status, _ = await asyncio.wait_for(parked, timeout=5)
            assert parked_status == 200
            return scrape, stats

        (status, headers, text), stats = _run(
            bundle, scenario, max_pending=1000, flush_interval=30.0, high_water=6
        )
        assert status == 200
        assert headers["content-type"].startswith("text/plain; version=0.0.4")
        assert headers.get("x-trace-id"), "no X-Trace-Id on the /metrics response"
        samples = _parse_prometheus(text)
        assert samples["serving_queue_depth_curves"] == stats["pending_curves"] == 4
        assert samples["serving_shed_requests_total"] == 1
        score_counts = [
            value for name, value in samples.items()
            if name.startswith("serving_request_seconds_count")
            and 'route="/score"' in name
        ]
        assert sum(score_counts) == 2
        # Every scoring body is decoded once: two /score, the parked
        # /submit and the shed one.
        decode_counts = {
            route: sum(
                value for name, value in samples.items()
                if name.startswith("serving_decode_seconds_count")
                and f'route="{route}"' in name
            )
            for route in ("/score", "/submit")
        }
        assert decode_counts == {"/score": 2, "/submit": 2}
        hits = sum(
            value for name, value in samples.items()
            if name.startswith("engine_cache_hits_total")
        )
        stats_hits = sum(
            value for key, value in stats["cache"].items() if key.endswith("_hits")
        )
        assert hits >= 1, "no engine cache hits recorded while serving traffic"
        assert hits == stats_hits, "stats() and /metrics disagree on cache hits"


class TestMultiWorkerServe:
    def test_forked_workers_share_one_socket(self, bundle, dataset):
        """`repro serve --workers 2` answers on one port from two processes."""
        data, _ = dataset
        proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve",
                "--pipeline", f"main={bundle}",
                "--host", "127.0.0.1", "--port", "0", "--workers", "2",
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
        )
        try:
            line = proc.stdout.readline()
            match = re.search(r"http://127\.0\.0\.1:(\d+)", line)
            assert match, f"no listening banner in {line!r}"
            port = int(match.group(1))
            deadline = time.monotonic() + 15
            doc = _batch_doc(data, n=3)
            statuses = []
            while len(statuses) < 6 and time.monotonic() < deadline:
                try:
                    status, body = http_request_json(
                        f"http://127.0.0.1:{port}/score", doc, timeout=5
                    )
                except OSError:
                    time.sleep(0.1)
                    continue
                assert status == 200 and len(body["scores"]) == 3
                statuses.append(status)
            assert statuses == [200] * 6
        finally:
            proc.terminate()
            proc.wait(timeout=10)
        # SIGTERM on the supervisor must also reap the forked workers —
        # they share its command line, so pgrep finds any orphans.
        deadline = time.monotonic() + 10
        while time.monotonic() < deadline:
            leftovers = subprocess.run(
                ["pgrep", "-f", f"main={bundle}"], capture_output=True, text=True
            ).stdout.split()
            if not leftovers:
                break
            time.sleep(0.1)
        else:
            subprocess.run(["pkill", "-9", "-f", f"main={bundle}"])
            pytest.fail(f"serve workers survived parent SIGTERM: {leftovers}")
