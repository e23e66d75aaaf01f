"""The repository benchmark: ``python3 perfbench/run.py --workload NAME ...``.

Runs one workload (see ``BENCHMARK.json`` and ``perfbench/README.md``)
from the repository root, checks the program's outputs, writes a record
stamped with a machine and code fingerprint to ``.bench_out/`` and
prints, as its last line, one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end metrics of
``BENCHMARK.json``; with ``--trace 1`` they are the per-layer metrics,
and a per-layer table plus a span file are written as well.  Exits 1
when an output check fails and 2 when the package sources are missing.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

import common  # pins BLAS to one thread before numpy is imported

WORKLOADS = ("fig3", "serve", "stream")


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    if name == "fig3":
        import fig3

        return fig3.run(seed, seconds, trace)
    if name == "serve":
        import serve

        return serve.run(seed, seconds, trace)
    import stream

    return stream.run(seed, seconds, trace)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    common.require_package()
    declared = json.loads((common.ROOT / "BENCHMARK.json").read_text())
    section = declared["per_layer"] if args.trace else declared["end_to_end"]

    common.OUT.mkdir(exist_ok=True)
    started = time.time()
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    metrics = {}
    for metric in section:
        # A layer the workload does not run reads 0; every end-to-end
        # metric must be measured.
        value = (result["layers"].get(metric["name"], 0.0) if args.trace
                 else result["metrics"][metric["name"]])
        metrics[metric["name"]] = {"value": float(value), "unit": metric["unit"]}
    correct = result["failed"] == 0 and not result["problems"]

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "started_unix": started, "fingerprint": common.fingerprint(),
        "correct": correct, "error_rate": result["failed"] / max(result["attempted"], 1),
        **{k: v for k, v in result.items() if k not in ("spans", "layers", "metrics")},
        "measured": result["metrics"],
        "metrics": metrics,
    }
    if args.trace:
        from spans import print_layer_table

        tables = result["layers"]["_tables"]
        for table in tables:
            print_layer_table(f"{args.workload}, {table['title']}", table["rows"],
                              table["unit"], table["wall_ms"])
        record["layer_tables"] = tables
        spans_path = common.OUT / f"spans-{tag}.json"
        common.write_json(spans_path, result["spans"])
        print(f"spans: {spans_path.relative_to(common.ROOT)} ({len(result['spans'])})")
    common.write_json(common.OUT / f"record-{tag}.json", record)

    print(f"\n=== {args.workload}: {result['attempted']} {result['ops']}, "
          f"{result['failed']} failed (error rate {record['error_rate']:.4f}) ===")
    for problem in result["problems"]:
        print(f"check failed: {problem}")
    for name, metric in metrics.items():
        print(f"{name:40s} {metric['value']:14.6g} {metric['unit']}")
    print(json.dumps({"correct": correct, "attempted": int(result["attempted"]),
                      "failed": int(result["failed"]), "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
