"""Unit tests for the blocked depth-kernel layer and its integrations.

Covers what the property suite doesn't: block/budget plumbing, the
ExecutionContext fan-out (pooled results bit-identical to serial), the
batched Weiszfeld early exit, the serving ``DepthScorer`` and the
partition-select detectors.
"""

import numpy as np
import pytest

from repro.depth import _kernels
from repro.depth.dirout import _spatial_median, dirout_scores
from repro.depth.funta import funta_depth
from repro.depth.functional import pointwise_depth_profile
from repro.depth.msplot import ms_plot
from repro.detectors.knn import KNNDetector
from repro.detectors.lof import LocalOutlierFactor
from repro.engine import ExecutionContext
from repro.exceptions import ValidationError
from repro.fda.fdata import FDataGrid, MFDataGrid
from repro.serving import DepthScorer, ScoringService
from repro.utils.linalg import row_blocks


@pytest.fixture
def curves():
    rng = np.random.default_rng(3)
    grid = np.linspace(0.0, 1.0, 30)
    return FDataGrid(rng.standard_normal((20, 30)).cumsum(axis=1) / 5, grid)


@pytest.fixture
def cube2(curves):
    rng = np.random.default_rng(4)
    return MFDataGrid(rng.standard_normal((20, 30, 2)), curves.grid)


class TestBlockPlumbing:
    def test_row_blocks_cover_range(self):
        blocks = row_blocks(10, bytes_per_row=100.0, block_bytes=250)
        assert blocks[0] == (0, 2)
        assert blocks[-1][1] == 10
        covered = [i for a, b in blocks for i in range(a, b)]
        assert covered == list(range(10))

    def test_row_blocks_minimum_one_row(self):
        assert row_blocks(3, bytes_per_row=1e12, block_bytes=64)[0] == (0, 1)

    def test_row_blocks_rejects_bad_budget(self):
        with pytest.raises(ValidationError):
            row_blocks(5, 10.0, 0)

    def test_resolve_block_bytes(self):
        assert _kernels.resolve_block_bytes(None) == _kernels.DEFAULT_BLOCK_BYTES
        assert _kernels.resolve_block_bytes(1024) == 1024
        for bad in (0, -5, 1.5, True, "64MB"):
            with pytest.raises(ValidationError):
                _kernels.resolve_block_bytes(bad)

    def test_invalid_block_bytes_surfaces_from_public_api(self, curves):
        with pytest.raises(ValidationError):
            funta_depth(curves, block_bytes=-1)

    def test_profile_rejects_parameter_mismatch(self, cube2):
        bad_ref = MFDataGrid(np.zeros((5, cube2.n_points, 3)), cube2.grid)
        for naive in (False, True):
            with pytest.raises(ValidationError):
                pointwise_depth_profile(
                    cube2, reference=bad_ref, notion="spatial", naive=naive
                )

    def test_profile_rejects_tiny_reference(self, cube2):
        tiny = cube2[np.arange(1)]
        with pytest.raises(ValidationError):
            pointwise_depth_profile(cube2, reference=tiny, notion="spatial")

    def test_dirout_rejects_parameter_mismatch(self, cube2):
        from repro.depth.dirout import directional_outlyingness

        bad_ref = MFDataGrid(np.zeros((5, cube2.n_points, 3)), cube2.grid)
        with pytest.raises(ValidationError):
            directional_outlyingness(cube2, reference=bad_ref)


class TestContextFanOut:
    def test_distribute_preserves_order(self):
        ctx = ExecutionContext(n_jobs=3)
        groups = ctx.distribute(list(range(7)))
        assert [x for g in groups for x in g] == list(range(7))
        assert len(groups) <= 3

    def test_funta_pool_bit_identical(self, curves):
        serial = funta_depth(curves, block_bytes=20_000)
        pooled = funta_depth(
            curves, block_bytes=20_000, context=ExecutionContext(n_jobs=2)
        )
        np.testing.assert_array_equal(pooled, serial)

    @pytest.mark.parametrize("notion", ["halfspace", "spatial", "projection"])
    def test_profile_pool_bit_identical(self, cube2, notion):
        kwargs = {"random_state": 0} if notion in ("halfspace", "projection") else {}
        serial = pointwise_depth_profile(
            cube2, notion=notion, block_bytes=50_000, **kwargs
        )
        pooled = pointwise_depth_profile(
            cube2, notion=notion, block_bytes=50_000,
            context=ExecutionContext(n_jobs=2), **kwargs,
        )
        np.testing.assert_array_equal(pooled, serial)

    def test_dirout_pool_bit_identical(self, cube2):
        serial = dirout_scores(cube2, random_state=0, block_bytes=20_000)
        pooled = dirout_scores(
            cube2, random_state=0, block_bytes=20_000,
            context=ExecutionContext(n_jobs=2),
        )
        np.testing.assert_array_equal(pooled, serial)


class TestBatchedWeiszfeld:
    def test_matches_per_cloud_loop(self):
        rng = np.random.default_rng(11)
        clouds = rng.standard_normal((25, 8, 3))
        batched = _kernels.batched_spatial_median(clouds)
        for j in range(8):
            np.testing.assert_allclose(
                batched[j], _spatial_median(clouds[:, j, :]), rtol=1e-9, atol=1e-9
            )

    def test_early_exit_on_degenerate_cloud(self):
        # All points identical: the mean IS the median; the loop must
        # freeze immediately rather than iterating to max_iter.
        clouds = np.ones((10, 4, 2))
        np.testing.assert_allclose(
            _kernels.batched_spatial_median(clouds, max_iter=1_000_000),
            np.ones((4, 2)),
        )

    def test_scale_aware_tolerance_converges_fast_on_large_offsets(self):
        rng = np.random.default_rng(5)
        cloud = rng.standard_normal((50, 2)) + 1e9  # huge magnitude
        median = _spatial_median(cloud, max_iter=200)
        assert np.linalg.norm(median - cloud.mean(axis=0)) < 1.0

    def test_per_column_early_exit_iteration_counts(self):
        # Regression pin for the per-column early exit: converged columns
        # must drop out of the active set individually.  Before the fix,
        # every column iterated until the slowest one converged, so all
        # counts came out equal; these pinned counts (including the
        # 1-iteration degenerate column) can only be produced by
        # genuinely per-column termination.
        rng = np.random.default_rng(0)
        clouds = rng.standard_normal((9, 15, 2))
        clouds[:, 3, :] = 0.25  # all points identical -> immediate freeze
        median, iterations = _kernels.batched_spatial_median(
            clouds, return_iterations=True
        )
        expected = [50, 52, 32, 1, 52, 56, 41, 49, 32, 43, 34, 56, 41, 25, 41]
        np.testing.assert_array_equal(iterations, expected)
        # Dropping out early must not change the answer: each column run
        # alone (its own active set throughout) lands on the same median
        # after the same number of iterations.
        for j in (0, 3, 5, 13):
            alone, alone_iters = _kernels.batched_spatial_median(
                clouds[:, j : j + 1, :], return_iterations=True
            )
            assert alone_iters[0] == expected[j]
            np.testing.assert_array_equal(alone[0], median[j])


class TestMsPlotTypes:
    def test_vectorized_labels_match_reference_rule(self, cube2):
        result = ms_plot(cube2, random_state=0)
        assert len(result.types) == cube2.n_samples
        assert set(result.types) <= {"inlier", "magnitude", "shape", "mixed"}
        for i, label in enumerate(result.types):
            if not result.outlier_mask[i]:
                assert label == "inlier"


class TestDepthScorerServing:
    def test_funta_scorer_matches_direct_call(self, curves):
        ref = curves[np.arange(12)]
        batch = curves[np.arange(12, 20)]
        scorer = DepthScorer("funta", ref)
        direct = 1.0 - funta_depth(batch.to_multivariate(), reference=ref.to_multivariate())
        np.testing.assert_allclose(scorer.score_samples(batch), direct, atol=1e-12)

    def test_registered_scorer_serves_and_micro_batches(self, curves):
        ref = curves[np.arange(12)]
        service = ScoringService()
        service.register("funta", DepthScorer("funta", ref))
        assert service._pipelines["funta"].context is service.context
        batch_a = curves[np.arange(12, 16)]
        batch_b = curves[np.arange(16, 20)]
        direct = np.concatenate(
            [service.score("funta", batch_a), service.score("funta", batch_b)]
        )
        tickets = [service.submit("funta", batch_a), service.submit("funta", batch_b)]
        service.flush()
        micro = np.concatenate([t.result() for t in tickets])
        np.testing.assert_allclose(micro, direct, atol=1e-12)

    def test_dirout_scorer_deterministic(self, curves):
        scorer = DepthScorer("dirout", curves, random_state=3)
        a = scorer.score_samples(curves[np.arange(5)])
        b = scorer.score_samples(curves[np.arange(5)])
        np.testing.assert_array_equal(a, b)

    def test_rejects_unknown_kind_and_tiny_reference(self, curves):
        with pytest.raises(ValidationError):
            DepthScorer("mbd", curves)
        with pytest.raises(ValidationError):
            DepthScorer("funta", curves[np.arange(1)])

    def test_rejects_typoed_or_mismatched_options(self, curves):
        with pytest.raises(ValidationError):
            DepthScorer("funta", curves, trm=0.1)  # typo
        with pytest.raises(ValidationError):
            DepthScorer("funta", curves, n_directions=500)  # dirout-only
        with pytest.raises(ValidationError):
            DepthScorer("dirout", curves, method="totl")  # bad value
        with pytest.raises(ValidationError):
            # Batch-dependent rule: would break the micro-batching
            # invariant (scores must not depend on flush grouping).
            DepthScorer("dirout", curves, method="mahalanobis")
        DepthScorer("dirout", curves, method="total")  # valid

    def test_register_still_rejects_junk(self):
        service = ScoringService()
        with pytest.raises(ValidationError):
            service.register("x", object())


class TestPartitionSelectDetectors:
    def test_knn_bit_identical_to_full_sort(self):
        rng = np.random.default_rng(9)
        X = rng.standard_normal((40, 6))
        batch = rng.standard_normal((15, 6))
        for aggregation in ("kth", "mean"):
            det = KNNDetector(n_neighbors=5, aggregation=aggregation).fit(X)
            from repro.utils.linalg import pairwise_sq_dists

            dists = np.sqrt(pairwise_sq_dists(batch, X))
            reference = np.sort(dists, axis=1)[:, :5]
            expected = reference[:, -1] if aggregation == "kth" else reference.mean(axis=1)
            np.testing.assert_array_equal(det.score_samples(batch), expected)
            # Self-scoring drops the zero distance.
            self_dists = np.sort(np.sqrt(pairwise_sq_dists(X, X)), axis=1)[:, 1:6]
            expected_self = (
                self_dists[:, -1] if aggregation == "kth" else self_dists.mean(axis=1)
            )
            np.testing.assert_array_equal(det.score_samples(X), expected_self)

    def test_lof_scores_unchanged_semantics(self):
        rng = np.random.default_rng(10)
        X = np.vstack([rng.standard_normal((60, 2)), [[8.0, 8.0]]])
        det = LocalOutlierFactor(n_neighbors=10).fit(X)
        scores = det.score_samples(X)
        assert scores.argmax() == 60  # the planted outlier
        assert np.abs(scores[:60] - 1.0).max() < 1.0
