"""Property tests: blocked vectorized depth kernels ≡ loop oracles.

The original loop implementation of every depth notion lives in
``tests/oracles.py``; these tests pin the vectorized kernels to that
oracle at ``rtol=1e-12`` across depth notions, parameter counts
p ∈ {1, 2, 3}, block sizes (including blocks smaller than the sample
count), and degenerate inputs (ties, duplicated curves, constant
curves, curves that never cross).
"""

import contextlib
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.depth import _kernels
from repro.depth._kernels import rank_counts
from repro.depth.dirout import directional_outlyingness
from repro.depth.functional import pointwise_depth_profile
from repro.depth.funta import funta_depth
from repro.fda.fdata import FDataGrid, MFDataGrid

import oracles

COMMON = settings(max_examples=12, deadline=None)

RTOL = 1e-12
ATOL = 1e-12

#: Tiny scratch budgets force several blocks even on tiny inputs
#: (including blocks smaller than the sample count).
BLOCK_SIZES = (None, 40_000, 3_000)


def _budget(name: str, budget):
    """Patch the kernels' scratch budget ``name`` (``DEFAULT_BLOCK_BYTES``
    or FUNTA's ``_FUNTA_BLOCK_CAP``) to ``budget``; ``None`` keeps it.
    A context manager, since hypothesis bodies cannot use ``monkeypatch``."""
    if budget is None:
        return contextlib.nullcontext()
    return mock.patch.object(_kernels, name, budget)


def _cube(seed: int, n: int, m: int, p: int, degenerate: int) -> np.ndarray:
    """Random (n, m, p) cube; ``degenerate`` selects a pathology."""
    rng = np.random.default_rng(seed)
    cube = rng.standard_normal((n, m, p))
    if degenerate == 1:  # heavy value ties
        cube = np.round(cube, 0)
    elif degenerate == 2:  # duplicated samples
        cube[n // 2 :] = cube[: n - n // 2]
    elif degenerate == 3:  # constant curves (zero spread cross-sections)
        cube[:] = 1.5
    return cube


class TestRankCounts:
    @COMMON
    @given(
        st.integers(min_value=0, max_value=10_000),
        st.integers(min_value=1, max_value=6),
        st.integers(min_value=2, max_value=25),
        st.integers(min_value=1, max_value=20),
        st.integers(min_value=0, max_value=2),
    )
    def test_matches_searchsorted(self, seed, lanes, n_ref, n_pts, round_to):
        """Integer-exact per-lane order statistics, any tie structure."""
        rng = np.random.default_rng(seed)
        ref = np.round(rng.standard_normal((lanes, n_ref)), round_to)
        pts = np.round(rng.standard_normal((lanes, n_pts)), round_to)
        if seed % 3 == 0:  # force cross ties
            pts[:, : min(n_pts, n_ref)] = ref[:, : min(n_pts, n_ref)]
        le, lt = rank_counts(ref, pts)
        for j in range(lanes):
            lane = np.sort(ref[j])
            np.testing.assert_array_equal(le[j], lane.searchsorted(pts[j], "right"))
            np.testing.assert_array_equal(lt[j], lane.searchsorted(pts[j], "left"))

    @COMMON
    @given(
        st.integers(min_value=0, max_value=10_000),
        st.integers(min_value=1, max_value=5),
        st.integers(min_value=2, max_value=25),
    )
    def test_self_path(self, seed, lanes, n_ref):
        """The identity fast path equals scoring the lanes as queries."""
        rng = np.random.default_rng(seed)
        ref = np.round(rng.standard_normal((lanes, n_ref)), 1)
        le_self, lt_self = rank_counts(ref, ref)
        le, lt = rank_counts(ref, ref.copy())  # distinct object → general path
        np.testing.assert_array_equal(le_self, le)
        np.testing.assert_array_equal(lt_self, lt)


class TestFuntaEquivalence:
    @COMMON
    @given(
        st.integers(min_value=0, max_value=10_000),
        st.integers(min_value=3, max_value=15),
        st.integers(min_value=5, max_value=30),
        st.sampled_from([0.0, 0.1, 0.3]),
        st.integers(min_value=0, max_value=3),
    )
    def test_self_scoring(self, seed, n, m, trim, degenerate):
        values = _cube(seed, n, m, 1, degenerate)[:, :, 0]
        data = FDataGrid(values, np.linspace(0.0, 1.0, m))
        expected = oracles.funta_depth(data, trim=trim)
        for budget in BLOCK_SIZES:
            with _budget("_FUNTA_BLOCK_CAP", budget):
                got = funta_depth(data, trim=trim)
            np.testing.assert_allclose(got, expected, rtol=RTOL, atol=ATOL)

    @COMMON
    @given(
        st.integers(min_value=0, max_value=10_000),
        st.integers(min_value=1, max_value=3),
        st.integers(min_value=0, max_value=3),
    )
    def test_reference_scoring_multivariate(self, seed, p, degenerate):
        grid = np.linspace(0.0, 1.0, 20)
        data = MFDataGrid(_cube(seed, 6, 20, p, degenerate), grid)
        ref = MFDataGrid(_cube(seed + 1, 8, 20, p, degenerate), grid)
        expected = oracles.funta_depth(data, reference=ref)
        with _budget("_FUNTA_BLOCK_CAP", 2_000):
            got = funta_depth(data, reference=ref)
        np.testing.assert_allclose(got, expected, rtol=RTOL, atol=ATOL)

    def test_never_crossing_curves(self):
        """Isolated-level curves hit the pi/2 no-crossing contribution."""
        grid = np.linspace(0.0, 1.0, 25)
        values = np.vstack(
            [grid - 0.5, 1.02 * (grid - 0.5), np.full(25, 50.0), np.full(25, -50.0)]
        )
        data = FDataGrid(values, grid)
        np.testing.assert_allclose(
            funta_depth(data), oracles.funta_depth(data), rtol=RTOL, atol=ATOL
        )


class TestProfileEquivalence:
    @COMMON
    @given(
        st.integers(min_value=0, max_value=10_000),
        st.integers(min_value=1, max_value=3),
        st.sampled_from(["projection", "halfspace", "spatial"]),
        st.integers(min_value=0, max_value=3),
        st.booleans(),
    )
    def test_all_notions(self, seed, p, notion, degenerate, with_reference):
        grid = np.linspace(0.0, 1.0, 12)
        data = MFDataGrid(_cube(seed, 8, 12, p, degenerate), grid)
        reference = (
            MFDataGrid(_cube(seed + 7, 9, 12, p, degenerate), grid)
            if with_reference
            else None
        )
        kwargs = (
            {"random_state": seed % 100}
            if notion in ("projection", "halfspace")
            else {}
        )
        expected = oracles.pointwise_depth_profile(
            data, reference=reference, notion=notion, **kwargs
        )
        for budget in BLOCK_SIZES:
            with _budget("DEFAULT_BLOCK_BYTES", budget):
                got = pointwise_depth_profile(
                    data, reference=reference, notion=notion, **kwargs
                )
            np.testing.assert_allclose(got, expected, rtol=RTOL, atol=ATOL)


class TestDiroutAndBandDepth:
    @COMMON
    @given(
        st.integers(min_value=0, max_value=10_000),
        st.integers(min_value=1, max_value=3),
        st.integers(min_value=0, max_value=2),
    )
    def test_dirout_decomposition(self, seed, p, degenerate):
        grid = np.linspace(0.0, 1.0, 15)
        data = MFDataGrid(_cube(seed, 9, 15, p, degenerate), grid)
        oracle = oracles.directional_outlyingness(data, random_state=seed % 100)
        batched = directional_outlyingness(data, random_state=seed % 100)
        np.testing.assert_allclose(batched.mean, oracle.mean, rtol=RTOL, atol=ATOL)
        np.testing.assert_allclose(
            batched.variation, oracle.variation, rtol=RTOL, atol=ATOL
        )
        np.testing.assert_allclose(batched.total, oracle.total, rtol=RTOL, atol=ATOL)
