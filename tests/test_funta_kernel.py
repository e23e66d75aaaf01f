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

``tests/data/funta_untied_golden.npz`` holds the same calls on
*continuous* random walks (``standard_normal(...).cumsum(axis=1) / 5``,
unrounded), so no query value equals a reference value at any grid
point: ``stream_Q`` (64 × 64 × 2) against ``stream_R`` (128 × 64 × 2),
the streaming scorer's shape, and ``fig3_Q`` (67 × 85 × 2) against
``fig3_R`` (133 × 85 × 2), a Fig. 3 test/train split.  For each shape
``<shape>_<dtype>_trim<trim>_p<k>`` is ``funta_univariate`` of the
strided lanes with injected tangent angles, ``<shape>_self_*`` the
self-scoring of the ``R`` lanes and ``<shape>_partials_*`` the
``funta_partials`` counts and sums, for float64 and float32 and
``trim`` 0 and 0.15.

Neither file is ever regenerated: a mismatch means FUNTA scores
changed, which needs a deliberate decision, not a new fixture.
"""

from pathlib import Path

import numpy as np
import pytest

from repro.depth import _kernels

DATA = Path(__file__).parent / "data"


def _load(name):
    with np.load(DATA / name, allow_pickle=False) as bundle:
        return {key: bundle[key] for key in bundle.files}


@pytest.fixture(scope="module")
def golden():
    return _load("funta_golden.npz")


@pytest.fixture(scope="module")
def untied():
    return _load("funta_untied_golden.npz")


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


@pytest.mark.parametrize("shape", ["stream", "fig3"])
@pytest.mark.parametrize("dtype", ["float64", "float32"])
@pytest.mark.parametrize("k", [0, 1])
def test_untied_calls_match_golden(untied, shape, dtype, k):
    Q, R, grid = (untied[f"{shape}_{name}"] for name in ("Q", "R", "grid"))
    dt = np.diff(grid)
    angles = {
        key: np.ascontiguousarray(np.arctan(np.diff(x, axis=-2) / dt[:, None])[:, :, k])
        for key, x in (("theta_pts", Q), ("theta_ref", R))
    }
    for trim in (0.0, 0.15):
        depth = _kernels.funta_univariate(
            Q[:, :, k], R[:, :, k], grid, trim, same=False, dtype=dtype, **angles
        )
        assert np.array_equal(depth, untied[f"{shape}_{dtype}_trim{trim}_p{k}"])
        lane = R[:, :, k]
        self_depth = _kernels.funta_univariate(lane, lane, grid, trim, same=True, dtype=dtype)
        assert np.array_equal(self_depth, untied[f"{shape}_self_{dtype}_trim{trim}_p{k}"])
    counts, sums = _kernels.funta_partials(Q[:, :, k], R[:, :, k], grid, dtype=dtype, **angles)
    assert np.array_equal(counts, untied[f"{shape}_partials_counts_{dtype}_p{k}"])
    assert np.array_equal(sums, untied[f"{shape}_partials_sums_{dtype}_p{k}"])


# --------------------------------------------------------------------------- tie dispatch
def _lanes(bundle, shape, k):
    return (np.ascontiguousarray(bundle[f"{shape}_{name}"][:, :, k]) for name in ("Q", "R"))


@pytest.fixture
def mask_paths(monkeypatch):
    """Records the ``tied`` flag of every crossing mask a call builds."""
    seen = []
    real = _kernels._crossing_mask

    def spy(q, r, tied):
        seen.append(tied)
        return real(q, r, tied)

    monkeypatch.setattr(_kernels, "_crossing_mask", spy)
    return seen


def _all_calls(values, ref, grid, **kw):
    """Every FUNTA kernel entry on one lane pair, as a flat list of arrays."""
    out = []
    for trim in (0.0, 0.15):
        out.append(_kernels.funta_univariate(values, ref, grid, trim, False, **kw))
        out.append(_kernels.funta_univariate(ref, ref, grid, trim, True, **kw))
    out.extend(_kernels.funta_partials(values, ref, grid, **kw))
    return out


@pytest.mark.parametrize("shape", ["stream", "fig3"])
@pytest.mark.parametrize("dtype", ["float64", "float32"])
def test_tie_free_path_equals_tied_path(untied, monkeypatch, mask_paths, shape, dtype):
    """On untied lanes the one-compare mask gives the same scores, bit
    for bit, as the four-mask path forced on the same calls."""
    values, ref = _lanes(untied, shape, 0)
    grid = untied[f"{shape}_grid"]
    fast = _all_calls(values, ref, grid, dtype=dtype)
    assert mask_paths and not any(mask_paths)
    mask_paths.clear()
    monkeypatch.setattr(_kernels, "_funta_tied", lambda *args, **kwargs: True)
    exact = _all_calls(values, ref, grid, dtype=dtype)
    assert mask_paths and all(mask_paths)
    for a, b in zip(fast, exact):
        assert a.dtype == b.dtype
        assert np.array_equal(a, b)


@pytest.mark.parametrize("n_queries", [1, 3, 9, 40, 64])
def test_tie_test_equals_brute_force(n_queries):
    """The sort-based tie test agrees with the broadcast equality it
    stands for, from a single query up, on rounded and continuous
    lanes."""
    rng = np.random.default_rng(n_queries)
    for decimals in (None, 1, 2, 3):
        values = rng.standard_normal((n_queries, 20)).cumsum(axis=1)
        ref = rng.standard_normal((48, 20)).cumsum(axis=1)
        if decimals is not None:
            values, ref = np.round(values, decimals), np.round(ref, decimals)
        expected = bool((values[:, None, :] == ref[None, :, :]).any())
        assert _kernels._funta_tied(values, ref, same=False) == expected
        pairs = ref[:, None, :] == ref[None, :, :]
        pairs[np.arange(48), np.arange(48)] = False
        assert _kernels._funta_tied(ref, ref, same=True) == bool(pairs.any())


def test_golden_lanes_take_the_tied_path(golden):
    """Every lane of funta_golden.npz is rounded, so it pins the exact path."""
    for k in (0, 1):
        q, r = (np.ascontiguousarray(golden[name][:, :, k]) for name in ("Q", "R"))
        assert _kernels._funta_tied(q, r, same=False)
        assert _kernels._funta_tied(r, r, same=True)


def _touching_pair(values, ref):
    """A query row, reference row and interior grid point where the query
    lies strictly above the reference at both neighbours."""
    above = (values[:, None, :] > ref[None, :, :])
    both = above[:, :, :-2] & above[:, :, 2:]
    i, j, t = np.argwhere(both)[0]
    return i, j, t + 1


@pytest.mark.parametrize("dtype", ["float64", "float32"])
def test_planted_tie_falls_back_to_exact_path(untied, monkeypatch, mask_paths, dtype):
    """One query value equal to one reference value (a touch without a
    sign flip) sends the call down the exact path, which counts the
    touch; the one-compare mask would miss it."""
    values, ref = _lanes(untied, "stream", 0)
    grid = untied["stream_grid"]
    values = values.astype(dtype)
    ref = ref.astype(dtype)
    i, j, t = _touching_pair(values, ref)
    values[i, t] = ref[j, t]
    assert _kernels._funta_tied(values, ref, same=False)

    auto = _kernels.funta_univariate(values, ref, grid, 0.0, False, dtype=dtype)
    assert mask_paths and all(mask_paths)
    counts, _ = _kernels.funta_partials(values, ref, grid, dtype=dtype)
    monkeypatch.setattr(_kernels, "_funta_tied", lambda *args, **kwargs: False)
    wrong = _kernels.funta_univariate(values, ref, grid, 0.0, False, dtype=dtype)
    wrong_counts, _ = _kernels.funta_partials(values, ref, grid, dtype=dtype)
    assert counts[i] == wrong_counts[i] + 1
    assert not np.array_equal(auto, wrong)


def test_planted_tie_matches_loop_oracle(untied):
    from oracles import _funta_univariate as funta_oracle

    values, ref = _lanes(untied, "stream", 1)
    grid = untied["stream_grid"]
    i, j, t = _touching_pair(values, ref)
    values[i, t] = ref[j, t]
    for trim in (0.0, 0.15):
        np.testing.assert_allclose(
            _kernels.funta_univariate(values, ref, grid, trim, False),
            funta_oracle(values, ref, grid, trim, False),
            rtol=1e-12, atol=1e-12,
        )


def test_signed_zeros_and_nan_count_as_ties(monkeypatch, mask_paths):
    """``+0.0 == -0.0``, and a NaN compares false both ways: either one
    makes ``q >= r`` disagree with ``not (q < r)``, so both count as ties."""
    grid = np.linspace(0.0, 1.0, 5)
    ref = np.array([[1.0, -0.0, 1.0, 2.0, 3.0], [0.5, -1.0, -2.0, -3.0, -4.0]])
    values = np.array([[2.0, 0.0, 2.0, 4.0, 5.0], [0.7, 2.0, 1.5, 0.5, -1.0]])
    assert _kernels._funta_tied(values, ref, same=False)
    with_nan = values.copy()
    with_nan[1, 1] = np.nan
    assert _kernels._funta_tied(with_nan, ref, same=False)
    assert _kernels._funta_tied(ref, ref * np.array([1, 1, 1, np.inf, 1]), same=False)
    lanes = np.array([[1.0, 0.0, 1.0], [2.0, -0.0, 3.0]])
    assert _kernels._funta_tied(lanes, lanes, same=True)

    # The first query touches the first reference at +0.0 / -0.0 without
    # a sign flip: the exact path counts that touch as a crossing, the
    # one-compare mask would score the pair as never crossing (pi/2).
    depth = _kernels.funta_univariate(values, ref, grid, 0.0, False)
    assert mask_paths == [True]
    monkeypatch.setattr(_kernels, "_funta_tied", lambda *args, **kwargs: False)
    missed = _kernels.funta_univariate(values, ref, grid, 0.0, False)
    assert depth[0] > missed[0]
    assert depth[1] == missed[1]


def test_ties_within_one_group_keep_the_fast_path(untied, mask_paths):
    """Equal values among the references only (or the queries only) never
    meet in a comparison, so they do not force the exact path."""
    values, ref = _lanes(untied, "stream", 0)
    grid = untied["stream_grid"]
    ref[5] = ref[3]  # a duplicated reference curve
    ref[7, 10:20] = ref[9, 10:20]
    values[1, :] = values[0, :]
    assert not _kernels._funta_tied(values, ref, same=False)
    _kernels.funta_univariate(values, ref, grid, 0.0, False)
    _kernels.funta_partials(values, ref, grid)
    assert mask_paths and not any(mask_paths)
    # Self-scoring is different: the duplicated reference is a second
    # curve equal to a query, so it is a tie.
    assert _kernels._funta_tied(ref, ref, same=True)


def _rows_budget(rows, n_ref, m):
    """A FUNTA block cap that cuts calls into ``rows``-row blocks."""
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
        assert len(_kernels._funta_blocks(n_ref, n_ref, m)) == 1
    else:
        monkeypatch.setattr(_kernels, "_FUNTA_BLOCK_CAP", _rows_budget(rows, n_ref, m))
        blocks = _kernels._funta_blocks(n_ref, n_ref, m)
        assert {stop - start for start, stop in blocks[:-1]} == {rows}

    depth = _kernels.funta_univariate(items, window, grid, trim, False)
    assert np.array_equal(depth, golden[f"stream_trim{trim}_p0"])
    self_depth = _kernels.funta_univariate(window, window, grid, trim, True)
    assert np.array_equal(self_depth, golden[f"stream_self_trim{trim}_p0"])
    if trim == 0.0:
        counts, sums = _kernels.funta_partials(items, window, grid)
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
