"""Float32 fast-path accuracy: pinned ULP tolerances + rank preservation.

The vectorized kernels accept ``dtype="float32"`` (a depth method's
``dtype`` parameter, ``MethodSpec(params={"dtype": ...})`` in the plan
layer); the loop oracles in
``tests/oracles.py`` are float64 only.  These tests pin how far the
float32 path may drift from the float64 result, measured in units of
float32 machine epsilon (one "ULP" here = ``eps32 * max(|x|, 1)``), and
assert that the drift never reorders scores on the Figure-3 workload —
the property detection actually relies on.

Tolerances are pinned per kernel from their numerics, with headroom
over observed error (seeded workload, BLAS-order dependent):

* funta — counts and aggregation stay float64, only the tangent-angle
  slabs are float32: observed ~1 ULP, pinned at 16.
* dirout — float32 projections, float64 Weiszfeld/statistics:
  observed ~3 ULP, pinned at 64.
* projection (SDO) — fully float32 including the medians: observed
  ~12 ULP, pinned at 128.
* spatial — unit-vector cancellation amplifies rounding: observed
  ~750 ULP, pinned at 8192 (~1e-3 relative).
* halfspace — rank *counts*: float32 rounding can flip points across a
  projection threshold, shifting a count by an integer, so the honest
  tolerance is absolute: at most 4 rank flips out of ``n_ref``.
"""

import numpy as np
import pytest

from repro.data import make_ecg_dataset, square_augment
from repro.depth._kernels import resolve_dtype
from repro.depth.dirout import dirout_scores
from repro.depth.functional import pointwise_depth_profile
from repro.depth.funta import funta_outlyingness
from repro.exceptions import ValidationError
from repro.plan import MethodSpec, WorkloadSpec, compile_plan

EPS32 = float(np.finfo(np.float32).eps)


@pytest.fixture(scope="module")
def fig3_workload():
    """The Figure-3 curve family: ECG beats + squared augmentation."""
    data, labels, _ = make_ecg_dataset(n_normal=60, n_abnormal=30, random_state=3)
    return data, square_augment(data), labels


def _max_ulp(f64, f32):
    f64 = np.asarray(f64, dtype=np.float64)
    f32 = np.asarray(f32, dtype=np.float64)
    scale = np.maximum(np.abs(f64), 1.0)
    return float(np.max(np.abs(f64 - f32) / (scale * EPS32)))


class TestPinnedUlpTolerances:
    def test_funta(self, fig3_workload):
        data, _, _ = fig3_workload
        ref = funta_outlyingness(data)
        fast = funta_outlyingness(data, dtype="float32")
        assert fast.dtype == np.float64  # counts/aggregation stay f64
        assert _max_ulp(ref, fast) <= 16

    def test_dirout(self, fig3_workload):
        _, mfd, _ = fig3_workload
        ref = dirout_scores(mfd, random_state=5)
        fast = dirout_scores(mfd, random_state=5, dtype="float32")
        assert fast.dtype == np.float64
        assert _max_ulp(ref, fast) <= 64

    def test_projection(self, fig3_workload):
        _, mfd, _ = fig3_workload
        ref = pointwise_depth_profile(mfd, notion="projection", random_state=5)
        fast = pointwise_depth_profile(
            mfd, notion="projection", random_state=5, dtype="float32"
        )
        assert fast.dtype == np.float32  # the pure-slab kernel stays f32
        assert _max_ulp(ref, fast) <= 128

    def test_spatial(self, fig3_workload):
        _, mfd, _ = fig3_workload
        ref = pointwise_depth_profile(mfd, notion="spatial")
        fast = pointwise_depth_profile(mfd, notion="spatial", dtype="float32")
        assert _max_ulp(ref, fast) <= 8192

    def test_halfspace_counts_absolute(self, fig3_workload):
        _, mfd, _ = fig3_workload
        ref = pointwise_depth_profile(mfd, notion="halfspace", random_state=5)
        fast = pointwise_depth_profile(
            mfd, notion="halfspace", random_state=5, dtype="float32"
        )
        # depth quantum is 1/n per flipped rank
        assert np.max(np.abs(ref - fast)) * mfd.n_samples <= 4.0


class TestRankPreservation:
    """Detection consumes score *order*; float32 must not perturb it."""

    def test_funta_ranks(self, fig3_workload):
        data, _, _ = fig3_workload
        ref = funta_outlyingness(data)
        fast = funta_outlyingness(data, dtype="float32")
        np.testing.assert_array_equal(
            np.argsort(ref, kind="stable"), np.argsort(fast, kind="stable")
        )

    def test_dirout_ranks(self, fig3_workload):
        _, mfd, _ = fig3_workload
        ref = dirout_scores(mfd, random_state=5)
        fast = dirout_scores(mfd, random_state=5, dtype="float32")
        np.testing.assert_array_equal(
            np.argsort(ref, kind="stable"), np.argsort(fast, kind="stable")
        )

    def test_projection_curve_ranks(self, fig3_workload):
        _, mfd, _ = fig3_workload
        ref = pointwise_depth_profile(mfd, notion="projection", random_state=5)
        fast = pointwise_depth_profile(
            mfd, notion="projection", random_state=5, dtype="float32"
        )
        np.testing.assert_array_equal(
            np.argsort(ref.mean(axis=1)), np.argsort(np.float64(fast).mean(axis=1))
        )


class TestDtypePlumbing:
    def test_resolve_dtype(self):
        assert resolve_dtype(None) == np.float64
        assert resolve_dtype("float32") == np.float32
        assert resolve_dtype(np.float64) == np.float64
        with pytest.raises(ValidationError, match="dtype"):
            resolve_dtype("float16")

    def test_default_workload_leaves_dtype_unset(self):
        method = compile_plan(MethodSpec("funta"), WorkloadSpec()).build()
        assert method.dtype is None

    def test_explicit_method_dtype_wins_over_workload(self):
        method = compile_plan(MethodSpec("funta", {"dtype": "float32"})).build()
        assert method.dtype == "float32"

    def test_method_scores_with_dtype(self, fig3_workload):
        from repro.core.methods import FuntaMethod

        data, _, _ = fig3_workload
        idx = np.arange(data.n_samples)
        ref = FuntaMethod().score_dataset(data, idx, idx, random_state=3)
        fast = FuntaMethod(dtype="float32").score_dataset(data, idx, idx, random_state=3)
        assert _max_ulp(ref, fast) <= 64
        np.testing.assert_array_equal(
            np.argsort(ref, kind="stable"), np.argsort(fast, kind="stable")
        )
