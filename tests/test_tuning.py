"""Unit tests for unsupervised hyper-parameter tuning."""

import pytest

from repro.evaluation.tuning import TuningResult, tune_nu
from repro.exceptions import ValidationError


class TestTuneNu:
    def test_returns_candidate(self, rng):
        X = rng.standard_normal((80, 3))
        result = tune_nu(X, candidates=(0.05, 0.1, 0.2), random_state=0)
        assert result.best in (0.05, 0.1, 0.2)
        assert set(result.scores) == {0.05, 0.1, 0.2}

    def test_scores_are_gaps(self, rng):
        X = rng.standard_normal((60, 2))
        result = tune_nu(X, candidates=(0.1,), random_state=0)
        assert 0.0 <= result.scores[0.1] <= 1.0

    def test_reproducible(self, rng):
        X = rng.standard_normal((60, 2))
        r1 = tune_nu(X, candidates=(0.05, 0.2), random_state=5)
        r2 = tune_nu(X, candidates=(0.05, 0.2), random_state=5)
        assert r1.best == r2.best
        assert r1.scores == r2.scores

    def test_empty_candidates(self, rng):
        with pytest.raises(ValidationError):
            tune_nu(rng.standard_normal((20, 2)), candidates=())

    @pytest.mark.parametrize(
        "options", [{"kernel": "rbff"}, {"gamma": -1.0}, {"candidates": (0.0, 0.1)}]
    )
    def test_bad_configuration_raises(self, rng, options):
        """A bad kernel, gamma or nu is an error, not a gap of 1 per fold."""
        with pytest.raises(ValidationError):
            tune_nu(rng.standard_normal((40, 3)), random_state=0, **options)

    def test_fold_too_small_to_fit_scores_full_gap(self, rng):
        # Two rows in two folds leave one training row per fold.
        result = tune_nu(rng.standard_normal((2, 3)), candidates=(0.1, 0.2), n_folds=2)
        assert result.scores == {0.1: 1.0, 0.2: 1.0}

    def test_result_requires_scores(self):
        with pytest.raises(ValidationError):
            TuningResult(best=0.1, scores={})
