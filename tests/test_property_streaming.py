"""Property tests: streaming scoring ≡ one-shot batch scoring.

The streaming acceptance pins, hypothesis-driven:

* a full window scored online must equal the one-shot batch score of
  the same reference — exactly in physical window order, and at
  ``rtol=1e-12`` in insertion order (the only difference is floating
  summation order over reference curves);
* the reservoir policy must be seed-reproducible;
* eviction + insert must leave the FUNTA tangent-angle ring identical
  to a rebuild from scratch over the surviving window contents.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.depth.dirout import dirout_scores
from repro.depth.functional import functional_depth
from repro.depth.funta import funta_outlyingness
from repro.fda.fdata import MFDataGrid
from repro.streaming import ReservoirWindow, SlidingWindow, StreamingDetector

COMMON = settings(max_examples=10, deadline=None)

RTOL = 1e-12


def _stream(seed: int, n: int, m: int, p: int, degenerate: bool) -> np.ndarray:
    rng = np.random.default_rng(seed)
    curves = rng.standard_normal((n, m, p)).cumsum(axis=1) / 5.0
    if degenerate:  # value ties and duplicated curves
        curves = np.round(curves, 1)
        curves[n // 2] = curves[0]
    return curves


class TestStreamingEqualsBatch:
    @COMMON
    @given(
        st.integers(min_value=0, max_value=10_000),
        st.integers(min_value=6, max_value=24),
        st.integers(min_value=8, max_value=30),
        st.integers(min_value=1, max_value=2),
        st.booleans(),
    )
    def test_funta_full_window_online_equals_batch(self, seed, capacity, m, p, degenerate):
        curves = _stream(seed, capacity + 7, m, p, degenerate)
        grid = np.linspace(0.0, 1.0, m)
        detector = StreamingDetector(
            "funta", SlidingWindow(capacity), min_reference=2, update_policy="none"
        )
        detector.prime(MFDataGrid(curves, grid))  # forces 7 evictions
        queries = MFDataGrid(_stream(seed + 1, 4, m, p, False), grid)
        online = detector.process(queries).scores
        physical = funta_outlyingness(
            queries, reference=MFDataGrid(detector.window.values.copy(), grid)
        )
        np.testing.assert_array_equal(online, physical)
        insertion_order = funta_outlyingness(
            queries, reference=MFDataGrid(detector.window.ordered_values(), grid)
        )
        np.testing.assert_allclose(online, insertion_order, rtol=RTOL, atol=0.0)

    @COMMON
    @given(
        st.integers(min_value=0, max_value=10_000),
        st.integers(min_value=6, max_value=24),
        st.integers(min_value=8, max_value=30),
        st.booleans(),
    )
    def test_dirout_p1_full_window_online_equals_batch(self, seed, capacity, m, degenerate):
        curves = _stream(seed, capacity + 5, m, 1, degenerate)
        grid = np.linspace(0.0, 1.0, m)
        detector = StreamingDetector(
            "dirout", SlidingWindow(capacity), min_reference=2, update_policy="none"
        )
        detector.prime(MFDataGrid(curves, grid))
        queries = MFDataGrid(_stream(seed + 1, 4, m, 1, False), grid)
        online = detector.process(queries).scores
        batch = dirout_scores(
            queries,
            reference=MFDataGrid(detector.window.values.copy(), grid),
            method="total",
        )
        np.testing.assert_array_equal(online, batch)
        insertion_order = dirout_scores(
            queries,
            reference=MFDataGrid(detector.window.ordered_values(), grid),
            method="total",
        )
        np.testing.assert_allclose(online, insertion_order, rtol=RTOL, atol=0.0)

    @COMMON
    @given(
        st.integers(min_value=0, max_value=10_000),
        st.integers(min_value=6, max_value=20),
        st.integers(min_value=8, max_value=24),
        st.booleans(),
    )
    def test_halfspace_p1_full_window_online_equals_batch(self, seed, capacity, m, degenerate):
        curves = _stream(seed, capacity + 5, m, 1, degenerate)
        grid = np.linspace(0.0, 1.0, m)
        detector = StreamingDetector(
            "halfspace", SlidingWindow(capacity), min_reference=2, update_policy="none"
        )
        detector.prime(MFDataGrid(curves, grid))
        # Mix fresh queries with exact members of the reference (ties).
        fresh = _stream(seed + 1, 3, m, 1, False)
        queries_values = np.concatenate([fresh, detector.window.values[:2].copy()])
        queries = MFDataGrid(queries_values, grid)
        online = detector.process(queries).scores
        depth = functional_depth(
            queries, MFDataGrid(detector.window.values.copy(), grid), notion="halfspace"
        )
        np.testing.assert_array_equal(online, 1.0 - depth)


class TestReservoirReproducibility:
    @COMMON
    @given(
        st.integers(min_value=0, max_value=10_000),
        st.integers(min_value=2, max_value=16),
        st.integers(min_value=1, max_value=120),
    )
    def test_same_seed_same_reservoir(self, seed, capacity, n_items):
        rng = np.random.default_rng(seed)
        items = rng.standard_normal((n_items, 5))
        first = ReservoirWindow(capacity, random_state=seed)
        second = ReservoirWindow(capacity, random_state=seed)
        for item in items:
            update_a = first.observe(item)
            update_b = second.observe(item)
            assert update_a.slot == update_b.slot
        np.testing.assert_array_equal(first.values, second.values)
        assert first.size == min(capacity, n_items)


class TestEvictInsertEqualsRebuild:
    @COMMON
    @given(
        st.integers(min_value=0, max_value=10_000),
        st.integers(min_value=4, max_value=12),
        st.integers(min_value=0, max_value=40),
    )
    def test_funta_theta_cache_matches_recompute(self, seed, capacity, churn):
        m, p = 12, 2
        grid = np.linspace(0.0, 1.0, m)
        curves = _stream(seed, capacity + churn, m, p, False)
        detector = StreamingDetector("funta", SlidingWindow(capacity), min_reference=2)
        detector.prime(MFDataGrid(curves, grid))
        theta = detector._scorers[0]._theta[: detector.window.size]
        dt = np.diff(grid)
        recomputed = np.arctan(
            np.diff(detector.window.values, axis=1) / dt[:, None]
        )
        np.testing.assert_array_equal(theta, recomputed)
