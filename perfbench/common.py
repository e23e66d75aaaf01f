"""Shared plumbing of the benchmark: environment, fingerprint, statistics.

Importing this module pins BLAS to one thread for this process and for
every process the benchmark starts (the variables are inherited), so it
must be imported before numpy.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import resource
import subprocess
import sys
from pathlib import Path

BLAS_THREAD_VARS = (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

#: The checkout the benchmark runs in (its working directory).
ROOT = Path.cwd()
SRC = ROOT / "src"
#: Scratch space for records, span files and saved pipelines.
OUT = ROOT / ".bench_out"
BENCH_DIR = Path(__file__).resolve().parent


def require_package() -> None:
    """Exit non-zero (no result line) unless the package sources are present."""
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no package sources at {SRC / 'repro'}; run from the "
              "repository root", file=sys.stderr)
        sys.exit(2)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    paths = os.environ.get("PYTHONPATH", "")
    if str(SRC) not in paths.split(os.pathsep):
        os.environ["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), paths) if p)


def child_command(script: str, *args: str) -> list[str]:
    """Command line running one of the benchmark's own scripts."""
    return [sys.executable, str(BENCH_DIR / script), *args]


def peak_rss_mb() -> float:
    """Peak resident memory of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def proc_peak_rss_mb(pid: int) -> float:
    """Peak resident memory (VmHWM) of a live process, from /proc."""
    with open(f"/proc/{pid}/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def tail_percentile(samples) -> tuple[float, float]:
    """(percentile, value): the highest of p95/p90/p75/p50 with at least
    ten samples beyond it, interpolated linearly between order statistics."""
    ordered = sorted(samples)
    n = len(ordered)
    q = next((q for q in (95, 90, 75) if n * (100 - q) >= 10 * 100), 50)
    pos = (n - 1) * q / 100.0
    low = int(pos)
    high = min(low + 1, n - 1)
    return float(q), ordered[low] + (ordered[high] - ordered[low]) * (pos - low)


def _git(*args: str) -> bytes | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        return subprocess.run(
            ["git", *args], cwd=ROOT, capture_output=True, check=True, timeout=30
        ).stdout
    except (OSError, subprocess.SubprocessError):
        return None


def source_hash() -> str:
    """sha256 over every package source file (path + bytes), in path order."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "repro").rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def fingerprint() -> dict:
    """Machine and code identity stamped on every record.

    The code is named by the parent commit plus a hash of ``git diff HEAD``
    when the checkout is a git repository, and always by a hash of the
    package sources, which holds outside git too.
    """
    import numpy as np
    import scipy

    blas = {}
    try:
        config = np.show_config(mode="dicts")
        blas = config["Build Dependencies"]["blas"]
    except Exception:  # show_config's layout differs across numpy versions
        pass
    sha = _git("rev-parse", "HEAD")
    diff = _git("diff", "HEAD")
    return {
        "nproc": os.cpu_count(),
        "blas": {
            "name": blas.get("name"),
            "version": blas.get("version"),
            "threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS[:2]},
        },
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "parent_sha": sha.decode().strip() if sha else None,
        "diff_sha256": hashlib.sha256(diff).hexdigest()[:16] if diff is not None else None,
        "source_sha256": source_hash(),
    }


def write_json(path: Path, doc) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(doc, indent=1, sort_keys=True, default=float) + "\n")
