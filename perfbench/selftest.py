"""The benchmark's own test: ``python3 -m pytest perfbench/selftest.py -q``.

Run from the repository root.  Each workload runs at a tiny size, untraced
and traced; every metric declared in ``BENCHMARK.json`` must be emitted
with its unit, and a corrupted output must raise the error rate.
"""

from __future__ import annotations

import json

import pytest

import common
import fig3
import run
import serve
import stream

DECLARED = json.loads((common.ROOT / "BENCHMARK.json").read_text())


@pytest.fixture
def tiny(monkeypatch):
    monkeypatch.setattr(fig3, "REPS", 1)
    monkeypatch.setattr(fig3, "MIN_EXPERIMENTS", 1)
    monkeypatch.setattr(serve, "SETUPS", 1)
    monkeypatch.setattr(stream, "N_CHUNKS", 12)


def _run(capsys, workload: str, trace: int = 0) -> tuple[int, dict]:
    code = run.main(["--workload", workload, "--seed", "3", "--seconds", "0.5",
                     "--trace", str(trace)])
    return code, json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def _record(workload: str, trace: int = 0) -> dict:
    return json.loads((common.OUT / f"record-{workload}-seed3-trace{trace}.json").read_text())


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_every_declared_metric_is_emitted(tiny, capsys, workload, trace):
    code, result = _run(capsys, workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    declared = DECLARED["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: metric["unit"] for name, metric in result["metrics"].items()
    }
    if workload == "fig3":
        # One repetition per level is too few for the pooled Fig. 3 shape
        # check, but every AUC must still be finite and in [0, 1].
        assert not [p for p in _record(workload, trace)["problems"] if p.startswith("AUC")]
    else:
        assert code == 0 and result["correct"] and result["failed"] == 0
    if not trace:
        assert all(metric["value"] > 0 for metric in result["metrics"].values())


def test_every_layer_metric_is_measured_somewhere(tiny, capsys):
    """A per-layer name no workload fills would read 0 forever."""
    measured = set()
    for workload in run.WORKLOADS:
        _, result = _run(capsys, workload, trace=1)
        measured |= {name for name, m in result["metrics"].items() if m["value"] != 0}
    # Counts that are legitimately 0 on a tiny stream.
    quiet = {"streaming.drift_events", "streaming.drift_events_sharded"}
    assert {m["name"] for m in DECLARED["per_layer"]} - quiet <= measured


def test_wrong_served_score_raises_error_rate(tiny, capsys, monkeypatch):
    exchange = serve._exchange
    submits = []

    async def corrupting_exchange(reader, writer, request):
        status, payload = await exchange(reader, writer, request)
        if request.startswith(b"POST /submit"):
            submits.append(status)
            if len(submits) == 2:  # the first measured request, after the warm one
                body = json.loads(payload)
                body["scores"][0] *= 1.0 + 1e-9
                payload = json.dumps(body).encode()
        return status, payload

    monkeypatch.setattr(serve, "_exchange", corrupting_exchange)
    code, result = _run(capsys, "serve")
    assert len(submits) >= 2 and code == 1
    assert not result["correct"] and result["failed"] >= 1
    assert _record("serve")["error_rate"] > 0


def test_wrong_stream_score_raises_error_rate(tiny, capsys, monkeypatch):
    one_pass = stream.one_pass
    calls = []

    def corrupting_pass(*args, **kwargs):
        result = one_pass(*args, **kwargs)
        calls.append(True)
        if len(calls) == 3:  # the first measured pass, after the two check passes
            result["scores"][0] = result["scores"][0] * (1.0 + 1e-9)
        return result

    monkeypatch.setattr(stream, "one_pass", corrupting_pass)
    code, result = _run(capsys, "stream")
    assert code == 1 and not result["correct"] and result["failed"] >= 1


def test_fig3_check_rejects_an_impossible_auc():
    records = [[m, c, 0, 0.9] for m in fig3.METHOD_KEYS for c in (0.05, 0.25)]
    records[0][3] = float("nan")
    assert fig3.check_tables(records)


def test_tail_percentile_keeps_ten_samples_beyond():
    assert common.tail_percentile(range(200))[0] == 95.0
    assert common.tail_percentile(range(100))[0] == 90.0
    assert common.tail_percentile(range(40))[0] == 75.0
    assert common.tail_percentile(range(30))[0] == 50.0
