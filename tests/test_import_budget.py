"""Import budget: no entry point loads SciPy beyond ``scipy.linalg``, and
only the HTTP front door loads orjson.

``scipy.stats`` alone (with the optimize/spatial/special stack it pulls
in) more than doubles the import time and adds about 40 MB of RSS to
every process: each Fig. 3 child, ``repro serve`` and its workers, every
CLI call, and pool workers under a spawn or forkserver start method.
An optional heavy dependency must therefore be imported inside the
function that uses it.  orjson parses
request bodies in :mod:`repro.serving.app`, so ``import repro``, the
CLI, Fig. 3 children and streaming never load it.  Each entry point is
imported once, in a fresh interpreter, since this test process has long
since imported the modules under test.
"""

import functools
import json
import os
import subprocess
import sys

import pytest

ENTRY_POINTS = (
    "repro",
    "repro.cli",
    "repro.serving.server",
    "repro.evaluation.experiment",
    "repro.plan",
    "repro.streaming",
)

#: ``scipy.linalg`` and the private modules it imports.
ALLOWED_SCIPY = (
    "scipy.linalg",
    "scipy._lib",
    "scipy._cyutility",
    "scipy.version",
    "scipy.__config__",
    "scipy._distributor_init",
)


@functools.lru_cache(maxsize=None)
def _imported_modules(module: str) -> tuple:
    script = (
        "import json, sys\n"
        f"import {module}\n"
        "print(json.dumps(sorted(sys.modules)))\n"
    )
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    out = subprocess.run(
        [sys.executable, "-c", script], check=True, env=env,
        capture_output=True, text=True,
    ).stdout
    return tuple(json.loads(out.splitlines()[-1]))


def _allowed(name: str) -> bool:
    return any(name == root or name.startswith(root + ".") for root in ALLOWED_SCIPY)


@pytest.mark.parametrize("module", ENTRY_POINTS)
def test_entry_point_imports_only_scipy_linalg(module):
    loaded = [name for name in _imported_modules(module) if name.startswith("scipy.")]
    assert [name for name in loaded if not _allowed(name)] == []


@pytest.mark.parametrize(
    "module", [name for name in ENTRY_POINTS if name != "repro.serving.server"]
)
def test_entry_point_does_not_load_orjson(module):
    assert "orjson" not in _imported_modules(module)
