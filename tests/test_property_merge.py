"""Property tests: sharded reference state combines like the single stream.

``StreamingDetector(shards=N)`` scores against the union of its shard
windows, so the merge operations it relies on must behave like set
union on the underlying observations.  Hypothesis-driven pins:

* ``SlidingWindow.split`` → ``SlidingWindow.merged`` round-trips the
  window **bit-exactly** (values, slot order, ``n_seen``) across shard
  counts and fill levels, and permuting equally-filled shards leaves
  the merged value multiset unchanged.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.streaming import SlidingWindow

COMMON = settings(max_examples=20, deadline=None)


class TestSlidingWindowMerge:
    @COMMON
    @given(
        seed=st.integers(0, 2**31 - 1),
        n_shards=st.integers(1, 4),
        slots_per_shard=st.integers(2, 6),
        total=st.integers(0, 80),
    )
    def test_split_merge_round_trip_bit_exact(
        self, seed, n_shards, slots_per_shard, total
    ):
        capacity = n_shards * slots_per_shard
        rng = np.random.default_rng(seed)
        window = SlidingWindow(capacity)
        for value in rng.standard_normal((total, 3, 1)):
            window.observe(value)
        shards = window.split(n_shards)
        assert sum(s.n_seen for s in shards) == total
        merged = SlidingWindow.merged(shards)
        assert merged.n_seen == window.n_seen
        assert merged.size == window.size
        np.testing.assert_array_equal(merged.values, window.values)

    @COMMON
    @given(
        seed=st.integers(0, 2**31 - 1),
        n_shards=st.integers(1, 4),
        rounds=st.integers(0, 12),
    )
    def test_merge_value_multiset_order_insensitive(self, seed, n_shards, rounds):
        # With equally-filled shards (total divisible by the shard
        # count) any shard ordering is a valid round-robin phase, and
        # the merged window must hold the same value multiset.
        rng = np.random.default_rng(seed)
        window = SlidingWindow(n_shards * 4)
        for value in rng.standard_normal((rounds * n_shards, 2, 1)):
            window.observe(value)
        shards = window.split(n_shards)
        forward = SlidingWindow.merged(shards)
        backward = SlidingWindow.merged(shards[::-1])
        np.testing.assert_array_equal(
            np.sort(forward.values, axis=None),
            np.sort(backward.values, axis=None),
        )
