"""Property tests: the pooled block executor is invisible to results.

For arbitrary block splits and worker counts, fanning blocks out over
:meth:`~repro.engine.ExecutionContext.run_blocks` must return results
bit-identical to the serial loop — the blocks run identical code on
identical float64 inputs and are concatenated in input order, so there
is no legitimate source of drift.  The same holds one level up, through
a real depth kernel driven by a tiny patched scratch budget.
"""

from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.depth import _kernels
from repro.depth.funta import funta_outlyingness
from repro.engine import ExecutionContext
from repro.fda.fdata import FDataGrid

# Each example starts a thread pool; keep the budget tight.
COMMON = settings(max_examples=8, deadline=None)


def _block_stats(block, values):
    lo, hi = block
    rows = values[lo:hi]
    return np.stack([rows.sum(axis=1), rows.min(axis=1), rows.max(axis=1)])


@st.composite
def _split_cases(draw):
    n = draw(st.integers(min_value=1, max_value=24))
    m = draw(st.integers(min_value=2, max_value=10))
    n_jobs = draw(st.integers(min_value=2, max_value=4))
    # Arbitrary ordered cut points -> contiguous blocks covering [0, n).
    n_cuts = draw(st.integers(min_value=0, max_value=min(n - 1, 5)))
    cuts = draw(
        st.lists(
            st.integers(min_value=1, max_value=max(n - 1, 1)),
            min_size=n_cuts, max_size=n_cuts, unique=True,
        )
    )
    bounds = [0, *sorted(cuts), n]
    blocks = [(bounds[i], bounds[i + 1]) for i in range(len(bounds) - 1)]
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    return n, m, n_jobs, blocks, seed


@COMMON
@given(_split_cases())
def test_arbitrary_splits_bit_identical_to_serial(case):
    n, m, n_jobs, blocks, seed = case
    values = np.random.default_rng(seed).standard_normal((n, m))
    serial = [_block_stats(b, values) for b in blocks]
    pooled = ExecutionContext(n_jobs=n_jobs).run_blocks(
        _block_stats, blocks, arrays={"values": values}
    )
    assert len(pooled) == len(serial)
    for s, p in zip(serial, pooled):
        assert s.dtype == p.dtype == np.float64
        np.testing.assert_array_equal(s, p)


@COMMON
@given(
    n=st.integers(min_value=2, max_value=30),
    m=st.integers(min_value=4, max_value=12),
    n_jobs=st.integers(min_value=2, max_value=4),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_kernel_through_pool_bit_identical(n, m, n_jobs, seed):
    rng = np.random.default_rng(seed)
    curves = FDataGrid(rng.standard_normal((n, m)).cumsum(axis=1), np.linspace(0, 1, m))
    # A tiny budget forces many row blocks regardless of n.
    with mock.patch.object(_kernels, "_FUNTA_BLOCK_CAP", 512):
        serial = funta_outlyingness(curves)
        pooled = funta_outlyingness(curves, context=ExecutionContext(n_jobs=n_jobs))
    np.testing.assert_array_equal(serial, pooled)


def test_fewer_blocks_than_workers():
    values = np.random.default_rng(7).standard_normal((6, 5))
    blocks = [(0, 3), (3, 6)]
    serial = [_block_stats(b, values) for b in blocks]
    pooled = ExecutionContext(n_jobs=8).run_blocks(
        _block_stats, blocks, arrays={"values": values}
    )
    for s, p in zip(serial, pooled):
        np.testing.assert_array_equal(s, p)


def test_single_curve_workload(monkeypatch):
    monkeypatch.setattr(_kernels, "_FUNTA_BLOCK_CAP", 256)
    grid = np.linspace(0.0, 1.0, 8)
    one = FDataGrid(np.random.default_rng(8).standard_normal((1, 8)), grid)
    ref = FDataGrid(np.random.default_rng(9).standard_normal((12, 8)), grid)
    serial = funta_outlyingness(one, reference=ref)
    pooled = funta_outlyingness(one, reference=ref, context=ExecutionContext(n_jobs=3))
    assert serial.shape == (1,)
    np.testing.assert_array_equal(serial, pooled)
