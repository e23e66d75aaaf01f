"""Function census: which ``src/repro`` functions the entry points reach.

Usage (from anywhere inside the repository)::

    python benchmarks/census.py REV [--keep FILE]

The script extracts the committed tree ``REV`` with ``git archive`` into
a temporary directory and runs every surface of :func:`surfaces` there:
the CLI figures, ``plan validate``, ``serve-score`` and ``telemetry`` on
three saved models, ``stream-score`` over a grid of kinds, policies,
shard counts and threshold modes, ``repro serve --workers 2`` under a
few local requests, the three ``perfbench`` workloads at ``--trace 0``
and ``--trace 1``, every example, every bench body and the speed gates.
Each Python process those start imports a ``sitecustomize.py`` whose
``sys.setprofile`` + ``threading.setprofile`` hook appends each package
function to a per-process file the first time it is called.

It then prints the per-package table (functions, reached, unreached and
their lines, and how many of those the keep list names) and every
unreached function the keep list does not name, and exits 1 if there is
one or if a keep-list entry names no function.  A surface that fails
(the gates can, under the hook's overhead) is reported, and what it
reached still counts.  Timings under the hook are distorted.

The keep list (``benchmarks/census_keep.txt`` by default) has one entry
per line, ``module:qualname`` (``fnmatch`` patterns allowed) followed
by a one-line reason; ``#`` starts a comment line.

The script writes nothing into the repository, and needs no network:
the HTTP server it starts listens on 127.0.0.1.
"""

from __future__ import annotations

import argparse
import ast
import fnmatch
import io
import os
import re
import signal
import subprocess
import sys
import tarfile
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
DEFAULT_KEEP = Path(__file__).resolve().parent / "census_keep.txt"

#: ``sitecustomize.py`` template; ``{root!r}`` is the package directory
#: (with a trailing separator) and ``{out!r}`` the directory receiving
#: one ``reach-<pid>.txt`` per process.
HOOK_SOURCE = '''\
import os
import sys
import threading

_ROOT = {root!r}
_OUT = {out!r}
_seen = {{}}  # id -> code: code objects compare by value, so key by identity
_lock = threading.Lock()
_file = {{"pid": None, "handle": None}}


def _record(code, filename):
    with _lock:
        pid = os.getpid()
        if _file["pid"] != pid:  # first record of this (possibly forked) process
            _file["pid"] = pid
            _file["handle"] = open(
                os.path.join(_OUT, "reach-%d.txt" % pid), "a", buffering=1
            )
        _file["handle"].write(
            "%s\\t%d\\t%s\\n" % (filename, code.co_firstlineno, code.co_name)
        )


def _hook(frame, event, arg):
    if event != "call":
        return
    code = frame.f_code
    if id(code) in _seen:
        return
    _seen[id(code)] = code  # the reference keeps the id from being reused
    filename = os.path.abspath(code.co_filename)
    if filename.startswith(_ROOT):
        _record(code, filename)


sys.setprofile(_hook)
threading.setprofile(_hook)
'''


# ---------------------------------------------------------------------- hook
def write_hook(hook_dir: Path, package_dir: Path, out_dir: Path) -> Path:
    """Write the census ``sitecustomize.py`` into ``hook_dir``.

    Put ``hook_dir`` first on ``PYTHONPATH`` of every process to census;
    functions defined under ``package_dir`` are recorded into
    ``out_dir``.
    """
    hook_dir.mkdir(parents=True, exist_ok=True)
    out_dir.mkdir(parents=True, exist_ok=True)
    root = os.path.join(os.path.abspath(package_dir), "")
    path = hook_dir / "sitecustomize.py"
    path.write_text(HOOK_SOURCE.format(root=root, out=os.path.abspath(out_dir)))
    return path


def read_reach(out_dir: Path, package_dir: Path) -> set:
    """Union of every process's records: ``(relative path, first line, name)``.

    The relative path starts with the package name
    (``repro/streaming/online.py``).
    """
    base = Path(os.path.abspath(package_dir)).parent
    reached = set()
    for path in sorted(Path(out_dir).glob("reach-*.txt")):
        for line in path.read_text().splitlines():
            parts = line.split("\t")
            if len(parts) != 3:  # a line cut short by a killed process
                continue
            filename, first, name = parts
            rel = Path(filename).relative_to(base).as_posix()
            reached.add((rel, int(first), name))
    return reached


# ---------------------------------------------------------------------- census
@dataclass(frozen=True)
class Function:
    """One ``def`` of the package, keyed as the hook records its code."""

    path: str  # relative, starting with the package name
    line: int  # first line of the code object: the first decorator, if any
    name: str
    qualname: str
    n_lines: int

    @property
    def key(self) -> tuple:
        return (self.path, self.line, self.name)

    @property
    def module(self) -> str:
        module = self.path[: -len(".py")].replace("/", ".")
        return module[: -len(".__init__")] if module.endswith(".__init__") else module

    @property
    def package(self) -> str:
        """The subpackage (``streaming``), or the package itself for its
        top-level modules."""
        parts = self.path.split("/")
        return parts[1] if len(parts) > 2 else parts[0]

    @property
    def label(self) -> str:
        return f"{self.module}:{self.qualname}"


def find_functions(package_dir: Path) -> list:
    """Every function and method defined in the package's source files."""
    package_dir = Path(package_dir)
    found = []

    def visit(body, rel, prefix):
        for node in body:
            if isinstance(node, ast.ClassDef):
                visit(node.body, rel, f"{prefix}{node.name}.")
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([node.lineno] + [d.lineno for d in node.decorator_list])
                qualname = f"{prefix}{node.name}"
                found.append(Function(rel, first, node.name, qualname,
                                      node.end_lineno - first + 1))
                visit(node.body, rel, f"{qualname}.<locals>.")
            else:
                # Definitions nested in if/try/with blocks keep the prefix.
                for field in ("body", "orelse", "finalbody", "handlers"):
                    inner = getattr(node, field, None)
                    if isinstance(inner, list):
                        visit(inner, rel, prefix)

    for path in sorted(package_dir.rglob("*.py")):
        rel = path.relative_to(package_dir.parent).as_posix()
        visit(ast.parse(path.read_text(encoding="utf-8")).body, rel, "")
    return found


def read_keep(path: Path) -> dict:
    """``pattern -> reason`` from a keep-list file; every entry needs a reason."""
    keep = {}
    for number, raw in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        pattern, _, reason = line.partition(" ")
        if not reason.strip():
            raise ValueError(f"{path}:{number}: keep entry {pattern!r} has no reason")
        keep[pattern] = reason.strip()
    return keep


def is_kept(function: Function, keep: dict) -> bool:
    """Whether a keep pattern names ``function``."""
    return any(fnmatch.fnmatchcase(function.label, p) for p in keep)


def package_table(functions, reached, keep=None) -> list:
    """Rows ``[package, functions, reached, unreached, unreached lines,
    kept]`` sorted by package, then a ``total`` row."""
    keep = keep or {}
    rows = {}
    for function in functions:
        row = rows.setdefault(function.package, [function.package, 0, 0, 0, 0, 0])
        row[1] += 1
        if function.key in reached:
            row[2] += 1
            continue
        row[3] += 1
        row[4] += function.n_lines
        if is_kept(function, keep):
            row[5] += 1
    table = [rows[name] for name in sorted(rows)]
    total = ["total"] + [sum(row[j] for row in table) for j in range(1, 6)]
    return table + [total]


def unreached(functions, reached, keep=None) -> list:
    """Unreached functions the keep list does not name, in source order."""
    keep = keep or {}
    return [f for f in functions if f.key not in reached and not is_kept(f, keep)]


def stale_keep(functions, keep) -> list:
    """Keep patterns that name no function of the tree."""
    return [p for p in keep
            if not any(fnmatch.fnmatchcase(f.label, p) for f in functions)]


def format_table(rows) -> str:
    headers = ["package", "functions", "reached", "unreached",
               "unreached lines", "kept"]
    widths = [max(len(str(r[j])) for r in [headers, *rows]) for j in range(6)]
    lines = ["  ".join(str(h).ljust(widths[j]) for j, h in enumerate(headers))]
    lines.append("-" * len(lines[0]))
    for row in rows:
        lines.append("  ".join(str(c).ljust(widths[j]) for j, c in enumerate(row)))
    return "\n".join(lines)


# ---------------------------------------------------------------------- surfaces
SETUP = '''
import sys
from pathlib import Path

import numpy as np

from repro.data import make_drifting_stream, make_taxonomy_dataset
from repro.plan import compile_plan, load_spec
from repro.serving import save_pipeline

work = Path(sys.argv[1])
train, _ = make_taxonomy_dataset("correlation", n_inliers=40, n_outliers=4,
                                 random_state=0)
for name in ("pipeline_iforest", "pipeline_ocsvm_composite"):
    plan = compile_plan(load_spec(f"examples/specs/{name}.json"))
    save_pipeline(plan.fit(train), work / name)
batch, _ = make_taxonomy_dataset("correlation", n_inliers=12, n_outliers=2,
                                 random_state=1)
np.savez(work / "batch.npz", values=batch.values, grid=batch.grid)
chunks = [chunk for chunk, _ in make_drifting_stream(
    n_chunks=12, chunk_size=16, n_points=32, drift_at=6, burst_at=(3,),
    random_state=2)]
values = np.concatenate([chunk.values for chunk in chunks])
np.savez(work / "stream2.npz", values=values, grid=chunks[0].grid)
np.savez(work / "stream1.npz", values=values[:, :, 0], grid=chunks[0].grid)
'''

SERVE_CLIENT = '''
import json
import sys

import numpy as np

from repro.serving.server import http_request_json

base, batch_path = sys.argv[1], sys.argv[2]
with np.load(batch_path) as bundle:
    body = {"values": bundle["values"][:4].tolist(), "grid": bundle["grid"].tolist()}
for _ in range(4):  # the kernel deals connections across the workers
    for route in ("/healthz", "/stats"):
        http_request_json(base + route)
    for name in ("iforest", "ocsvm"):
        status, _ = http_request_json(base + "/score", {**body, "pipeline": name})
        assert status == 200, status
        status, _ = http_request_json(base + "/submit", {**body, "pipeline": name})
        assert status == 200, status
    http_request_json(base + "/score", {"pipeline": "nope", **body})
'''


def surfaces(work: Path) -> list:
    """``(name, argv)`` of every surface, run from the tree's root."""
    py = sys.executable
    repro = [py, "-m", "repro"]
    models = [work / "pipeline_iforest", work / "pipeline_ocsvm_composite",
              Path("tests/data/iforest_v2")]
    batch = str(work / "batch.npz")
    runs = [("setup: fit and save two pipelines", [py, "-c", SETUP, str(work)])]
    runs += [
        ("fig1", repro + ["fig1"]),
        ("fig2", repro + ["fig2"]),
        ("fig3 --reps 2 --n-jobs 2 --verbose",
         repro + ["fig3", "--reps", "2", "--n-jobs", "2", "--verbose"]),
        ("taxonomy", repro + ["taxonomy"]),
        ("plan validate", repro + ["plan", "validate",
                                   *sorted(str(p) for p in Path("examples/specs").glob("*.json")),
                                   *map(str, models),
                                   str(models[2] / "manifest.json")]),
    ]
    for model in models:
        runs += [
            (f"serve-score {model.name}",
             repro + ["serve-score", "--pipeline", str(model), "--data", batch,
                      "--chunk-size", "5", "--output", str(work / f"{model.name}.npz")]),
            (f"telemetry dump json {model.name}",
             repro + ["telemetry", "dump", "--pipeline", str(model), "--data", batch]),
            (f"telemetry dump prometheus {model.name}",
             repro + ["telemetry", "dump", "--pipeline", str(model), "--data", batch,
                      "--format", "prometheus", "--output", str(work / "metrics.txt")]),
            (f"telemetry trace {model.name}",
             repro + ["telemetry", "trace", "--pipeline", str(model), "--data", batch,
                      "--output", str(work / "trace.jsonl")]),
        ]
    for p in (1, 2):
        for kind in ("funta", "dirout", "halfspace"):
            for policy in ("sliding", "reservoir"):
                for mode in ("window", "sketch"):
                    runs.append((
                        f"stream-score p={p} {kind} {policy} {mode}",
                        repro + ["stream-score", "--data", str(work / f"stream{p}.npz"),
                                 "--kind", kind, "--policy", policy,
                                 "--threshold-mode", mode, "--window", "48",
                                 "--chunk-size", "16", "--drift-baseline", "48",
                                 "--drift-recent", "32", "--alpha", "0.2",
                                 "--output", str(work / "stream_out.npz")]))
        for policy in ("sliding", "reservoir"):
            for shards in (2, 3):
                runs.append((
                    f"stream-score p={p} funta {policy} --shards {shards}",
                    repro + ["stream-score", "--data", str(work / f"stream{p}.npz"),
                             "--policy", policy, "--shards", str(shards),
                             "--window", "48", "--chunk-size", "16",
                             "--drift-baseline", "48", "--drift-recent", "32",
                             "--alpha", "0.2"]))
    runs.append(("serve --workers 2", "serve"))
    for workload in ("fig3", "serve", "stream"):
        for trace in ("0", "1"):
            runs.append((f"perfbench {workload} --trace {trace}",
                         [py, "perfbench/run.py", "--workload", workload, "--seed", "3",
                          "--seconds", "10", "--trace", trace]))
    runs += [(f"example {path.name}", [py, str(path)])
             for path in sorted(Path("examples").glob("*.py"))]
    benches = sorted(str(path) for path in Path("benchmarks").glob("bench_*.py")
                     if path.name != "bench_gates.py")
    runs.append(("bench bodies", [py, "-m", "pytest", *benches, "-q",
                                  "-p", "no:cacheprovider", "--benchmark-disable"]))
    runs.append(("gates", [py, "-m", "pytest", "benchmarks/bench_gates.py", "-q",
                           "-p", "no:cacheprovider"]))
    return runs


def run_serve(tree: Path, work: Path, env: dict, log) -> int:
    """``repro serve --workers 2`` on a free local port, a few requests, SIGTERM."""
    command = [sys.executable, "-m", "repro", "serve", "--workers", "2", "--port", "0",
               "--pipeline", f"iforest={work / 'pipeline_iforest'}",
               "--pipeline", f"ocsvm={work / 'pipeline_ocsvm_composite'}"]
    server = subprocess.Popen(command, cwd=tree, env=env, stdout=subprocess.PIPE,
                              stderr=log, text=True)
    try:
        line = server.stdout.readline()
        log.write(line)
        match = re.search(r"http://([\d.]+):(\d+)", line)
        if match is None:
            return 1
        client = subprocess.run(
            [sys.executable, "-c", SERVE_CLIENT, f"http://{match[1]}:{match[2]}",
             str(work / "batch.npz")],
            cwd=tree, env=env, stdout=log, stderr=log, timeout=600,
        )
        return client.returncode
    finally:
        server.send_signal(signal.SIGTERM)
        try:
            server.wait(timeout=60)
        except subprocess.TimeoutExpired:
            server.kill()
            server.wait()
        server.stdout.close()


def extract(rev: str, dest: Path) -> None:
    archive = subprocess.run(["git", "-C", str(REPO), "archive", rev],
                             check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("rev", help="git revision to census (e.g. HEAD)")
    parser.add_argument("--keep", default=str(DEFAULT_KEEP),
                        help="keep-list file (default: %(default)s)")
    args = parser.parse_args(argv)
    keep = read_keep(Path(args.keep))
    with tempfile.TemporaryDirectory(prefix="repro-census-") as scratch:
        scratch = Path(scratch)
        tree, work, out, hook = (scratch / name for name in ("tree", "work", "reach", "hook"))
        tree.mkdir()
        work.mkdir()
        extract(args.rev, tree)
        package_dir = tree / "src" / "repro"
        write_hook(hook, package_dir, out)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join([str(hook), str(tree / "src")])
        env["REPRO_FIG3_REPS"] = "2"
        failed = []
        for name, command in surfaces(work):
            start = time.perf_counter()
            with open(scratch / "log.txt", "w") as log:
                try:
                    if command == "serve":
                        code = run_serve(tree, work, env, log)
                    else:
                        code = subprocess.run(command, cwd=tree, env=env, stdout=log,
                                              stderr=subprocess.STDOUT,
                                              timeout=3600).returncode
                except subprocess.TimeoutExpired:
                    code = "timeout"
            status = "ok" if code == 0 else f"FAILED ({code}); reach still recorded"
            print(f"{time.perf_counter() - start:7.1f} s  {name}: {status}", flush=True)
            if code != 0:
                failed.append(name)
                tail = (scratch / "log.txt").read_text().splitlines()[-5:]
                print("".join(f"           | {line}\n" for line in tail), end="")
        functions = find_functions(package_dir)
        reached = read_reach(out, package_dir)
    rows = package_table(functions, reached, keep)
    missing = unreached(functions, reached, keep)
    stale = stale_keep(functions, keep)
    print(f"\n=== census of {args.rev}: {rows[-1][2]} of {rows[-1][1]} functions "
          f"reached ===")
    print(format_table(rows))
    if failed:
        print(f"\nsurfaces that failed (their reach is counted): {', '.join(failed)}")
    print(f"\nunreached and not on the keep list: {len(missing)}")
    for function in missing:
        print(f"  {function.path}:{function.line}  {function.qualname}"
              f"  ({function.n_lines} lines)")
    if stale:
        print(f"\nkeep entries naming no function: {', '.join(stale)}")
    return 1 if missing or stale else 0


if __name__ == "__main__":
    sys.exit(main())
