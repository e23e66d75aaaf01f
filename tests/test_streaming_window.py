"""Unit tests for the ring-buffer reference maintainers."""

import numpy as np
import pytest

from repro.engine import ExecutionContext
from repro.exceptions import ValidationError
from repro.streaming import ReservoirWindow, SlidingWindow


def _items(n, shape=(4,), seed=0):
    return np.random.default_rng(seed).standard_normal((n, *shape))


class TestSlidingWindow:
    def test_grows_then_tracks_last_capacity_items(self):
        window = SlidingWindow(5)
        items = _items(13)
        for item in items:
            window.observe(item)
        assert window.size == 5
        assert window.n_seen == 13
        np.testing.assert_array_equal(window.ordered_values(), items[-5:])

    def test_updates_report_slot_insert_and_eviction(self):
        window = SlidingWindow(3)
        items = _items(5)
        updates = [window.observe(item) for item in items]
        assert [u.slot for u in updates] == [0, 1, 2, 0, 1]
        assert all(u.evicted is None for u in updates[:3])
        np.testing.assert_array_equal(updates[3].evicted, items[0])
        np.testing.assert_array_equal(updates[4].evicted, items[1])
        np.testing.assert_array_equal(updates[4].inserted, items[4])
        assert not updates[4].skipped

    def test_values_is_a_view_ordered_values_a_copy(self):
        window = SlidingWindow(4)
        for item in _items(4):
            window.observe(item)
        assert window.values.base is not None
        ordered = window.ordered_values()
        ordered[:] = 0.0
        assert not np.allclose(window.values, 0.0)

    def test_multi_axis_items(self):
        window = SlidingWindow(3)
        items = np.random.default_rng(1).standard_normal((7, 6, 2))
        for item in items:
            window.observe(item)
        np.testing.assert_array_equal(window.ordered_values(), items[-3:])

    def test_reset_empties_but_keeps_buffer(self):
        window = SlidingWindow(3)
        for item in _items(3):
            window.observe(item)
        window.reset()
        assert window.size == 0 and window.n_seen == 0
        item = _items(1)[0]
        update = window.observe(item)
        assert update.slot == 0 and update.evicted is None

    def test_item_shape_mismatch_rejected(self):
        window = SlidingWindow(3)
        window.observe(np.zeros(4))
        with pytest.raises(ValidationError, match="item shape"):
            window.observe(np.zeros(5))

    def test_capacity_validated(self):
        with pytest.raises(ValidationError):
            SlidingWindow(1)

    def test_scalar_item_rejected(self):
        with pytest.raises(ValidationError, match="arrays"):
            SlidingWindow(3).observe(np.float64(1.0))


class TestReservoirWindow:
    def test_seeded_eviction_is_reproducible(self):
        items = _items(200, seed=3)
        first = ReservoirWindow(16, random_state=11)
        second = ReservoirWindow(16, random_state=11)
        for item in items:
            first.observe(item)
            second.observe(item)
        np.testing.assert_array_equal(first.values, second.values)

    def test_context_spawned_seed_is_reproducible(self):
        items = _items(100, seed=4)
        context = ExecutionContext()
        first = ReservoirWindow(8, random_state=5, context=context)
        second = ReservoirWindow(8, random_state=5, context=ExecutionContext())
        for item in items:
            first.observe(item)
            second.observe(item)
        np.testing.assert_array_equal(first.values, second.values)

    def test_skipped_arrivals_report_none_slot(self):
        window = ReservoirWindow(4, random_state=0)
        skipped = 0
        for item in _items(300, seed=5):
            update = window.observe(item)
            if update.skipped:
                skipped += 1
                assert update.inserted is None and update.evicted is None
        assert skipped > 0  # a full reservoir must reject most arrivals
        assert window.size == 4 and window.n_seen == 300

    def test_reservoir_contents_come_from_the_stream(self):
        items = _items(50, shape=(3,), seed=6)
        window = ReservoirWindow(8, random_state=1)
        for item in items:
            window.observe(item)
        for row in window.values:
            assert any(np.array_equal(row, item) for item in items)

    def test_uniformity_over_many_runs(self):
        # Each of 20 scalar items should land in a capacity-5 reservoir
        # with probability 1/4; check the empirical rate over seeds.
        hits = np.zeros(20)
        n_runs = 300
        for seed in range(n_runs):
            window = ReservoirWindow(5, random_state=seed)
            for i in range(20):
                window.observe(np.array([float(i)]))
            kept = window.values[:, 0].astype(int)
            hits[kept] += 1
        rates = hits / n_runs
        assert np.all(np.abs(rates - 0.25) < 0.08)


def _same_state(chunked, sequential):
    assert chunked.size == sequential.size
    assert chunked.n_seen == sequential.n_seen
    np.testing.assert_array_equal(chunked.values, sequential.values)
    np.testing.assert_array_equal(chunked.ordered_values(), sequential.ordered_values())


def _feed(chunked, sequential, items, chunk):
    """Offer ``items`` in ``chunk``-sized pieces to one window and one at a
    time to the other; each ``extend`` must report exactly the slots the
    item-by-item ``observe`` calls wrote."""
    for start in range(0, items.shape[0], chunk):
        piece = items[start : start + chunk]
        slots = chunked.extend(piece)
        written = {u.slot for u in map(sequential.observe, piece) if not u.skipped}
        assert slots.dtype == np.intp
        assert len(set(slots.tolist())) == slots.size
        assert set(slots.tolist()) == written
        _same_state(chunked, sequential)


class TestChunkExtend:
    """``extend`` leaves every window in the state item-by-item ``observe``
    leaves it in."""

    @pytest.mark.parametrize("chunk", [1, 3, 5, 12])
    def test_sliding_chunks_of_every_size_wrap_like_observe(self, chunk):
        # capacity 5: chunks below, at and above capacity; 23 items wrap
        # the ring several times.
        chunked, sequential = SlidingWindow(5), SlidingWindow(5)
        _feed(chunked, sequential, _items(23, shape=(4, 2), seed=chunk), chunk)

    @pytest.mark.parametrize("chunk", [1, 4, 9])
    def test_ingest_after_reset(self, chunk):
        chunked, sequential = SlidingWindow(4), SlidingWindow(4)
        _feed(chunked, sequential, _items(7, seed=1), chunk)
        chunked.reset()
        sequential.reset()
        _same_state(chunked, sequential)
        _feed(chunked, sequential, _items(10, seed=2), chunk)

    @pytest.mark.parametrize("chunk", [1, 6, 16, 40])
    def test_reservoir_chunks_make_the_same_draws(self, chunk):
        chunked = ReservoirWindow(16, random_state=9)
        sequential = ReservoirWindow(16, random_state=9)
        _feed(chunked, sequential, _items(150, seed=7), chunk)
        # Both eviction streams stand at the same draw.
        assert chunked._rng.integers(2**32) == sequential._rng.integers(2**32)

    def test_empty_chunk_changes_nothing(self):
        window = SlidingWindow(3)
        assert window.extend(np.empty((0, 4))).size == 0
        assert window.size == 0 and window.n_seen == 0
        window.extend(_items(2))
        before = window.values.copy()
        assert window.extend(np.empty((0, 4))).size == 0
        np.testing.assert_array_equal(window.values, before)
        assert window.size == 2 and window.n_seen == 2

    def test_chunk_shape_checked(self):
        window = SlidingWindow(3)
        with pytest.raises(ValidationError, match="one per row"):
            window.extend(np.zeros(4))
        window.extend(np.zeros((2, 4)))
        with pytest.raises(ValidationError, match="item shape"):
            window.extend(np.zeros((2, 5)))

    def test_split_shards_extend_like_the_merged_window(self):
        """Round-robin chunks into split shards keep shard ``i`` holding
        exactly the trailing arrivals ``g`` with ``g mod 2 == i``."""
        window = SlidingWindow(8)
        history = _items(11, seed=3)
        window.extend(history)
        shards = window.split(2)
        items = _items(13, seed=4)
        window.extend(items)
        base = 11
        for i, shard in enumerate(shards):
            shard.extend(items[(i - base) % 2 :: 2])
        arrivals = np.concatenate([history, items])
        total = arrivals.shape[0]
        for i, shard in enumerate(shards):
            assert shard.n_seen == (total - i + 1) // 2
            expected = [g for g in range(total - 8, total) if g % 2 == i]
            np.testing.assert_array_equal(shard.ordered_values(), arrivals[expected])
