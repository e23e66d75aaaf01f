"""Unit tests for the in-process block executor.

Covers :meth:`~repro.engine.ExecutionContext.run_blocks`: pooled
results equal the serial loop bit for bit, workers see the caller's own
array objects (no copies, no child processes), the serial fallbacks,
worker exceptions reaching the caller, and that a pooled kernel call
leaves process-global signal handlers alone.
"""

import multiprocessing
import os
import subprocess
import sys

import numpy as np
import pytest

from repro.engine import ExecutionContext


def _sum_block(block, values):
    lo, hi = block
    return values[lo:hi].sum(axis=1)


def _identity_probe(block, values, ref_values):
    return values is ref_values


def _boom(block, values):
    raise RuntimeError("boom")


def _return_inputs(block, values, ref_values):
    return values, ref_values


class TestRunBlocks:
    def test_pooled_matches_serial_bitwise(self):
        rng = np.random.default_rng(3)
        values = rng.standard_normal((40, 9))
        blocks = [(0, 11), (11, 25), (25, 40)]
        serial = [_sum_block(b, values) for b in blocks]
        pooled = ExecutionContext(n_jobs=2).run_blocks(
            _sum_block, blocks, arrays={"values": values}
        )
        assert len(pooled) == len(serial)
        for s, p in zip(serial, pooled):
            np.testing.assert_array_equal(s, p)

    def test_identity_fast_path_survives_workers(self):
        values = np.random.default_rng(4).standard_normal((16, 4))
        flags = ExecutionContext(n_jobs=2).run_blocks(
            _identity_probe,
            [(0, 8), (8, 16)],
            arrays={"values": values, "ref_values": values},
        )
        assert flags == [True, True]

    def test_serial_fallback_single_block(self):
        values = np.arange(12.0).reshape(4, 3)
        out = ExecutionContext(n_jobs=4).run_blocks(
            _sum_block, [(0, 4)], arrays={"values": values}
        )
        np.testing.assert_array_equal(out[0], values.sum(axis=1))

    def test_serial_fallback_n_jobs_one(self):
        values = np.arange(12.0).reshape(4, 3)
        out = ExecutionContext(n_jobs=1).run_blocks(
            _sum_block, [(0, 2), (2, 4)], arrays={"values": values}
        )
        assert len(out) == 2

    def test_worker_failure_unlinks_segments(self):
        values = np.random.default_rng(5).standard_normal((8, 3))
        context = ExecutionContext(n_jobs=2)
        with pytest.raises(RuntimeError, match="boom"):
            context.run_blocks(_boom, [(0, 4), (4, 8)], arrays={"values": values})


class TestInProcessPool:
    def test_workers_receive_caller_arrays_without_child_processes(self):
        rng = np.random.default_rng(6)
        values = rng.standard_normal((12, 5))
        ref_values = rng.standard_normal((7, 5))
        seen = ExecutionContext(n_jobs=2).run_blocks(
            _return_inputs,
            [(0, 4), (4, 8), (8, 12)],
            arrays={"values": values, "ref_values": ref_values},
        )
        assert len(seen) == 3
        assert all(v is values and r is ref_values for v, r in seen)
        assert multiprocessing.active_children() == []

    def test_pooled_kernel_leaves_sigterm_handler_alone(self):
        # A fresh interpreter, so no earlier test has touched the handler.
        script = (
            "import signal\n"
            "import numpy as np\n"
            "from repro.depth import _kernels\n"
            "from repro.depth.funta import funta_outlyingness\n"
            "from repro.engine import ExecutionContext\n"
            "from repro.fda.fdata import FDataGrid\n"
            "before = signal.getsignal(signal.SIGTERM)\n"
            "rng = np.random.default_rng(0)\n"
            "curves = FDataGrid(rng.standard_normal((40, 16)).cumsum(axis=1),\n"
            "                   np.linspace(0.0, 1.0, 16))\n"
            "_kernels._FUNTA_BLOCK_CAP = 512\n"
            "funta_outlyingness(curves, context=ExecutionContext(n_jobs=2))\n"
            "print(signal.getsignal(signal.SIGTERM) is before)\n"
        )
        env = dict(os.environ)
        src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        out = subprocess.run(
            [sys.executable, "-c", script], check=True, env=env,
            capture_output=True, text=True, timeout=120,
        ).stdout
        assert out.splitlines()[-1] == "True"
