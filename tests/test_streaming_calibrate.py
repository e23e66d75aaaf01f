"""Unit tests for the streaming quantile thresholds (exact ring + sketch)."""

import numpy as np
import pytest

from repro.detectors.threshold import (
    StreamingQuantileThreshold,
    threshold_from_quantile,
)
from repro.exceptions import ConfigurationError, ValidationError
from repro.streaming import QuantileSketch, SketchQuantileThreshold, make_threshold


class TestStreamingQuantileThreshold:
    def test_batch_delegation_is_bit_identical(self):
        rng = np.random.default_rng(0)
        for size in (2, 17, 256):
            scores = rng.standard_normal(size)
            for contamination in (0.01, 0.1, 0.49):
                learned = threshold_from_quantile(scores, contamination)
                assert learned.value == float(
                    np.quantile(scores, 1.0 - contamination)
                )
                assert learned.criterion == "quantile"
                assert learned.objective == contamination

    def test_streaming_updates_match_trailing_window_quantile(self):
        rng = np.random.default_rng(1)
        scores = rng.standard_normal(300)
        tracker = StreamingQuantileThreshold(0.1, capacity=64)
        for start in range(0, 300, 10):
            tracker.update(scores[start : start + 10])
        # Quantile is order-independent: compare against the last 64.
        assert tracker.value == float(np.quantile(scores[-64:], 0.9))
        assert tracker.n_seen == 300 and tracker.size == 64

    def test_update_larger_than_capacity_keeps_tail(self):
        tracker = StreamingQuantileThreshold(0.25, capacity=4)
        tracker.update(np.arange(10.0))
        assert tracker.size == 4
        assert tracker.value == float(np.quantile(np.arange(6.0, 10.0), 0.75))

    def test_not_ready_until_two_scores(self):
        tracker = StreamingQuantileThreshold(0.1, capacity=8)
        assert tracker.update(np.array([1.0])) is None
        assert not tracker.ready
        with pytest.raises(ValidationError):
            tracker.value
        assert tracker.update(np.array([2.0])) is not None
        assert tracker.ready

    def test_reset_forgets_scores(self):
        tracker = StreamingQuantileThreshold(0.1, capacity=8)
        tracker.update(np.arange(8.0))
        tracker.reset()
        assert not tracker.ready and tracker.n_seen == 0

    def test_adapts_to_distribution_shift(self):
        rng = np.random.default_rng(2)
        tracker = StreamingQuantileThreshold(0.05, capacity=128)
        tracker.update(rng.standard_normal(128))
        before = tracker.value
        tracker.update(rng.standard_normal(128) + 10.0)
        assert tracker.value > before + 5.0

    def test_contamination_validated(self):
        with pytest.raises(ValidationError):
            StreamingQuantileThreshold(0.0)
        with pytest.raises(ValidationError):
            StreamingQuantileThreshold(0.5)
        with pytest.raises(ValidationError):
            StreamingQuantileThreshold(0.1, capacity=1)


class TestQuantileSketch:
    def test_exact_until_compressed(self):
        sketch = QuantileSketch(compression=16)
        seen = []
        rng = np.random.default_rng(3)
        for x in rng.standard_normal(16):
            seen.append(x)
            sketch.update(np.array([x]))
            assert sketch.quantile(0.9) == float(np.quantile(seen, 0.9))

    @pytest.mark.parametrize("q", [0.1, 0.5, 0.9, 0.95])
    def test_converges_on_gaussian_stream(self, q):
        rng = np.random.default_rng(4)
        sample = rng.standard_normal(20_000)
        sketch = QuantileSketch()
        for chunk in np.array_split(sample, 200):
            sketch.update(chunk)
        assert sketch.quantile(q) == pytest.approx(
            float(np.quantile(sample, q)), abs=0.02
        )

    def test_handles_new_extremes(self):
        sketch = QuantileSketch(compression=8)
        sketch.update(np.arange(10.0))
        sketch.update(np.array([-100.0, 100.0]))
        assert -100.0 <= sketch.quantile(0.5) <= 100.0
        assert sketch.quantile(0.0) >= -100.0 and sketch.quantile(1.0) <= 100.0

    def test_validation_and_empty_state(self):
        with pytest.raises(ValidationError):
            QuantileSketch(compression=4)
        with pytest.raises(ValidationError):
            QuantileSketch().quantile(0.5)
        with pytest.raises(ValidationError):
            QuantileSketch().quantile(1.5)


class TestSketchQuantileThreshold:
    def test_tracks_quantile_with_constant_memory(self):
        rng = np.random.default_rng(5)
        tracker = SketchQuantileThreshold(0.05)
        for _ in range(50):
            tracker.update(rng.standard_normal(100))
        assert tracker.sketch._means.size <= tracker.sketch.compression
        assert tracker.value == pytest.approx(
            float(np.quantile(rng.standard_normal(100_000), 0.95)), abs=0.1
        )
        learned = tracker.learned()
        assert learned.criterion == "quantile-sketch"

    def test_reset(self):
        tracker = SketchQuantileThreshold(0.1)
        tracker.update(np.arange(10.0))
        tracker.reset()
        assert not tracker.ready


class TestMakeThreshold:
    def test_builds_both_flavours(self):
        assert isinstance(make_threshold(0.1, "window", 32), StreamingQuantileThreshold)
        assert isinstance(make_threshold(0.1, "sketch"), SketchQuantileThreshold)

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValidationError, match="window"):
            make_threshold(0.1, "exact")

    def test_removed_p2_mode_names_sketch(self):
        with pytest.raises(ConfigurationError, match="sketch"):
            make_threshold(0.1, "p2")
