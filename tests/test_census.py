"""The function census (``benchmarks/census.py``) on a stub package.

A two-module package is written to ``tmp_path``; one process imports it
under the census hook and calls some of its functions, one of them on a
second thread.  The reached and unreached lists, the per-package table
and the keep-list handling must come out exactly.
"""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

CENSUS = Path(__file__).resolve().parents[1] / "benchmarks" / "census.py"

STUB = {
    "stub/__init__.py": "",
    "stub/top.py": (
        "def used():\n"
        "    return helper()\n"
        "\n"
        "\n"
        "def helper():\n"
        "    def inner():\n"
        "        return 1\n"
        "    return inner()\n"
        "\n"
        "\n"
        "def unused():\n"
        "    return 2\n"
    ),
    "stub/sub/__init__.py": "",
    "stub/sub/mod.py": (
        "import functools\n"
        "\n"
        "\n"
        "class Thing:\n"
        "    @functools.lru_cache(maxsize=None)\n"
        "    def cached(self):\n"
        "        return 3\n"
        "\n"
        "    @property\n"
        "    def never(self):\n"
        "        return 4\n"
        "\n"
        "    if True:\n"
        "        def guarded(self):\n"
        "            return 5\n"
    ),
}

DRIVER = (
    "import threading\n"
    "import stub.top\n"
    "from stub.sub.mod import Thing\n"
    "stub.top.used()\n"
    "thread = threading.Thread(target=Thing().cached)\n"
    "thread.start()\n"
    "thread.join()\n"
)


@pytest.fixture(scope="module")
def census():
    spec = importlib.util.spec_from_file_location("census", CENSUS)
    module = importlib.util.module_from_spec(spec)
    sys.modules["census"] = module  # dataclasses resolve their module
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules["census"]


@pytest.fixture()
def stub_run(census, tmp_path):
    src = tmp_path / "src"
    for rel, text in STUB.items():
        path = src / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    package_dir = src / "stub"
    out = tmp_path / "reach"
    census.write_hook(tmp_path / "hook", package_dir, out)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(tmp_path / "hook"), str(src)])
    subprocess.run([sys.executable, "-c", DRIVER], check=True, env=env, cwd=tmp_path)
    return census.find_functions(package_dir), census.read_reach(out, package_dir)


def _labels(functions):
    return [function.label for function in functions]


def test_functions_are_keyed_like_code_objects(stub_run):
    functions, _ = stub_run
    assert [(f.label, f.line, f.n_lines) for f in functions] == [
        ("stub.sub.mod:Thing.cached", 5, 3),
        ("stub.sub.mod:Thing.never", 9, 3),
        ("stub.sub.mod:Thing.guarded", 14, 2),
        ("stub.top:used", 1, 2),
        ("stub.top:helper", 5, 4),
        ("stub.top:helper.<locals>.inner", 6, 2),
        ("stub.top:unused", 11, 2),
    ]


def test_reached_and_unreached_lists(census, stub_run):
    functions, reached = stub_run
    # Module and class bodies are recorded too; they key no function.
    assert sorted(reached) == [
        ("stub/__init__.py", 1, "<module>"),
        ("stub/sub/__init__.py", 1, "<module>"),
        ("stub/sub/mod.py", 1, "<module>"),
        ("stub/sub/mod.py", 4, "Thing"),
        ("stub/sub/mod.py", 5, "cached"),  # called on a second thread
        ("stub/top.py", 1, "<module>"),
        ("stub/top.py", 1, "used"),
        ("stub/top.py", 5, "helper"),
        ("stub/top.py", 6, "inner"),
    ]
    assert _labels(f for f in functions if f.key in reached) == [
        "stub.sub.mod:Thing.cached",
        "stub.top:used",
        "stub.top:helper",
        "stub.top:helper.<locals>.inner",
    ]
    assert _labels(census.unreached(functions, reached)) == [
        "stub.sub.mod:Thing.never",
        "stub.sub.mod:Thing.guarded",
        "stub.top:unused",
    ]


def test_package_table_counts(census, stub_run):
    functions, reached = stub_run
    keep = {"stub.sub.mod:Thing.g*": "test reference", "stub.top:used": "reached anyway"}
    assert census.package_table(functions, reached, keep) == [
        ["stub", 4, 3, 1, 2, 0],
        ["sub", 3, 1, 2, 5, 1],
        ["total", 7, 4, 3, 7, 1],
    ]
    assert _labels(census.unreached(functions, reached, keep)) == [
        "stub.sub.mod:Thing.never",
        "stub.top:unused",
    ]
    assert census.stale_keep(functions, {**keep, "stub.gone:f": "deleted"}) == [
        "stub.gone:f"
    ]
    table = census.format_table(census.package_table(functions, reached, keep))
    assert table.splitlines()[0].split() == [
        "package", "functions", "reached", "unreached", "unreached", "lines", "kept"
    ]


def test_keep_list_entries_need_a_reason(census, tmp_path):
    keep = tmp_path / "keep.txt"
    keep.write_text("# comment\n\nstub.top:unused   a test reference\n")
    assert census.read_keep(keep) == {"stub.top:unused": "a test reference"}
    keep.write_text("stub.top:unused\n")
    with pytest.raises(ValueError, match="no reason"):
        census.read_keep(keep)


def test_committed_keep_list_names_only_existing_functions(census):
    keep = census.read_keep(census.DEFAULT_KEEP)
    package_dir = CENSUS.parents[1] / "src" / "repro"
    assert keep
    assert census.stale_keep(census.find_functions(package_dir), keep) == []
