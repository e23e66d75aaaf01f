"""The blocked FUNTA crossing kernel: golden outputs, block invariance, scratch memory.

``tests/data/funta_golden.npz`` holds inputs and the outputs the FUNTA
kernels produced for them before the crossing kernel compared lanes
instead of subtracting them:

* ``Q`` (10 × 24 × 2) and ``R`` (14 × 24 × 2) on ``grid``: random walks
  rounded to one decimal, so ties are frequent, with exact touches at
  the last grid point, at one interior point and over a 3-point run,
  and one query equal to a reference curve.  ``univariate_*`` are
  ``funta_univariate`` of the strided ``[:, :, k]`` lanes for every
  dtype (float64, float32), ``trim`` (0, 0.15) and ``same`` (``R``
  against itself); ``partials_*`` are ``funta_partials`` counts and
  sums of ``Q`` against ``R``.
* ``stream_items`` (64 × 64 × 2) and ``stream_window`` (128 × 64 × 2) on
  ``stream_grid``, rounded to two decimals: the streaming scorer's
  calls, strided lanes with injected tangent angles (``stream_trim*``,
  ``stream_partials_*``), and self-scoring of the window lanes
  (``stream_self_*``).  This shape spans several default-budget blocks.

The file is never regenerated: a mismatch means FUNTA scores changed,
which needs a deliberate decision, not a new fixture.
"""

from pathlib import Path

import numpy as np
import pytest

from repro.depth import _kernels

DATA = Path(__file__).parent / "data"


@pytest.fixture(scope="module")
def golden():
    with np.load(DATA / "funta_golden.npz", allow_pickle=False) as bundle:
        return {key: bundle[key] for key in bundle.files}


def _stream_angles(golden):
    dt = np.diff(golden["stream_grid"])
    return [
        np.arctan(np.diff(golden[name], axis=-2) / dt[:, None])
        for name in ("stream_items", "stream_window")
    ]


@pytest.mark.parametrize("dtype", ["float64", "float32"])
@pytest.mark.parametrize("trim", [0.0, 0.15])
@pytest.mark.parametrize("same", [False, True])
@pytest.mark.parametrize("k", [0, 1])
def test_funta_univariate_matches_golden(golden, dtype, trim, same, k):
    ref = golden["R"][:, :, k]
    values = ref if same else golden["Q"][:, :, k]
    depth = _kernels.funta_univariate(values, ref, golden["grid"], trim, same, dtype=dtype)
    expected = golden[f"univariate_{dtype}_trim{trim}_same{int(same)}_p{k}"]
    assert depth.dtype == expected.dtype
    assert np.array_equal(depth, expected)


@pytest.mark.parametrize("dtype", ["float64", "float32"])
@pytest.mark.parametrize("k", [0, 1])
def test_funta_partials_match_golden(golden, dtype, k):
    counts, sums = _kernels.funta_partials(
        golden["Q"][:, :, k], golden["R"][:, :, k], golden["grid"], dtype=dtype
    )
    assert counts.dtype == np.int64
    assert np.array_equal(counts, golden[f"partials_counts_{dtype}_p{k}"])
    assert np.array_equal(sums, golden[f"partials_sums_{dtype}_p{k}"])


@pytest.mark.parametrize("k", [0, 1])
def test_streaming_calls_match_golden(golden, k):
    items, window, grid = golden["stream_items"], golden["stream_window"], golden["stream_grid"]
    theta_items, theta_window = _stream_angles(golden)
    angles = {
        "theta_pts": np.ascontiguousarray(theta_items[:, :, k]),
        "theta_ref": np.ascontiguousarray(theta_window[:, :, k]),
    }
    for trim in (0.0, 0.15):
        depth = _kernels.funta_univariate(
            items[:, :, k], window[:, :, k], grid, trim, same=False, **angles
        )
        assert np.array_equal(depth, golden[f"stream_trim{trim}_p{k}"])
        lane = window[:, :, k]
        self_depth = _kernels.funta_univariate(lane, lane, grid, trim, same=True)
        assert np.array_equal(self_depth, golden[f"stream_self_trim{trim}_p{k}"])
    counts, sums = _kernels.funta_partials(items[:, :, k], window[:, :, k], grid, **angles)
    assert counts.dtype == np.int64
    assert np.array_equal(counts, golden[f"stream_partials_counts_p{k}"])
    assert np.array_equal(sums, golden[f"stream_partials_sums_p{k}"])


def _rows_budget(rows, n_ref, m):
    """A ``block_bytes`` that cuts FUNTA calls into ``rows``-row blocks."""
    return rows * _kernels._funta_row_bytes(n_ref, m)


@pytest.mark.parametrize("rows", [1, 3, None])
@pytest.mark.parametrize("trim", [0.0, 0.15])
def test_funta_block_invariance(golden, monkeypatch, rows, trim):
    """Scores do not depend on how the query rows are cut into blocks,
    including self-scoring, whose diagonal exclusion crosses block edges."""
    grid = golden["stream_grid"]
    items, window = golden["stream_items"][:, :, 0], golden["stream_window"][:, :, 0]
    n_ref, m = window.shape
    if rows is None:  # one block holding every row
        monkeypatch.setattr(_kernels, "_FUNTA_BLOCK_CAP", _kernels.DEFAULT_BLOCK_BYTES)
        budget = None
        assert len(_kernels._funta_blocks(n_ref, n_ref, m, _kernels.DEFAULT_BLOCK_BYTES)) == 1
    else:
        budget = _rows_budget(rows, n_ref, m)
        blocks = _kernels._funta_blocks(n_ref, n_ref, m, budget)
        assert {stop - start for start, stop in blocks[:-1]} == {rows}

    depth = _kernels.funta_univariate(items, window, grid, trim, False, block_bytes=budget)
    assert np.array_equal(depth, golden[f"stream_trim{trim}_p0"])
    self_depth = _kernels.funta_univariate(window, window, grid, trim, True, block_bytes=budget)
    assert np.array_equal(self_depth, golden[f"stream_self_trim{trim}_p0"])
    if trim == 0.0:
        counts, sums = _kernels.funta_partials(items, window, grid, block_bytes=budget)
        assert np.array_equal(counts, golden["stream_partials_counts_p0"])
        assert np.array_equal(sums, golden["stream_partials_sums_p0"])


@pytest.mark.parametrize("trim", [0.0, 0.15])
def test_funta_scratch_stays_cache_sized(golden, trim):
    """64 queries x 128 references x 64 points at the default budget peak
    below 1 MB of scratch: no dense float slab, no whole-input block."""
    import tracemalloc

    grid = golden["stream_grid"]
    items, window = golden["stream_items"][:, :, 0], golden["stream_window"][:, :, 0]
    tracemalloc.start()
    try:
        _kernels.funta_univariate(items, window, grid, trim, False)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000
