"""Tests for the shared execution engine (cache, context, parallel harness)."""

import numpy as np
import pytest

from repro.core.methods import MappedDetectorMethod
from repro.data import make_ecg_dataset, square_augment
from repro.engine import CacheStats, ExecutionContext, FactorizationCache
from repro.evaluation import experiment as experiment_module
from repro.evaluation.experiment import (
    MAX_SPLIT_RETRIES,
    _draw_valid_split,
    run_contamination_experiment,
)
from repro.evaluation.splits import Split
from repro.exceptions import ValidationError
from repro.fda.basis import BSplineBasis
from repro.fda.fdata import FDataGrid
from repro.fda.selection import select_n_basis
from repro.fda.smoothing import BasisSmoother


@pytest.fixture(scope="module")
def small_dataset():
    data, labels, _ = make_ecg_dataset(n_normal=40, n_abnormal=20, random_state=3)
    return square_augment(data), labels


@pytest.fixture()
def noisy_sines():
    rng = np.random.default_rng(0)
    grid = np.linspace(0.0, 1.0, 60)
    values = np.sin(2 * np.pi * grid)[None, :] + 0.05 * rng.standard_normal((8, 60))
    return FDataGrid(values, grid)


class TestFactorizationCache:
    def test_design_cached_by_basis_and_grid(self, noisy_sines):
        cache = FactorizationCache()
        basis = BSplineBasis((0.0, 1.0), 10)
        d1 = cache.design(basis, noisy_sines.grid)
        # An *equal but distinct* basis object must hit the same entry.
        d2 = cache.design(BSplineBasis((0.0, 1.0), 10), noisy_sines.grid)
        assert d1 is d2
        assert cache.stats.design_builds == 1
        assert cache.stats.design_hits == 1

    def test_distinct_configurations_do_not_collide(self, noisy_sines):
        cache = FactorizationCache()
        grid = noisy_sines.grid
        cache.solver(BSplineBasis((0.0, 1.0), 10), grid, 1e-4, 2)
        cache.solver(BSplineBasis((0.0, 1.0), 12), grid, 1e-4, 2)
        cache.solver(BSplineBasis((0.0, 1.0), 10), grid, 1e-3, 2)
        cache.solver(BSplineBasis((0.0, 1.0), 10), grid[:-1], 1e-4, 2)
        cache.solver(BSplineBasis((0.0, 1.0), 10, order=5), grid, 1e-4, 2)
        assert cache.stats.factorizations == 5
        assert cache.stats.factorization_hits == 0

    def test_bspline_order_distinguishes_keys(self):
        a = BSplineBasis((0.0, 1.0), 10, order=4)
        b = BSplineBasis((0.0, 1.0), 10, order=5)
        assert a.cache_key != b.cache_key

    def test_lru_bound(self, noisy_sines):
        cache = FactorizationCache(maxsize=2)
        for n in (8, 9, 10, 11):
            cache.design(BSplineBasis((0.0, 1.0), n), noisy_sines.grid)
        # Only the two most recent entries survive.
        cache.design(BSplineBasis((0.0, 1.0), 11), noisy_sines.grid)
        assert cache.stats.design_hits == 1
        cache.design(BSplineBasis((0.0, 1.0), 8), noisy_sines.grid)
        assert cache.stats.design_builds == 5

    def test_clear_resets(self, noisy_sines):
        cache = FactorizationCache()
        cache.design(BSplineBasis((0.0, 1.0), 10), noisy_sines.grid)
        cache.clear()
        assert len(cache) == 0
        assert cache.stats == CacheStats()

    def test_rejects_bad_maxsize(self):
        with pytest.raises(ValidationError):
            FactorizationCache(maxsize=0)


class TestCachedSmoothingEquivalence:
    def test_cached_and_private_coefficients_identical(self, noisy_sines):
        shared = FactorizationCache()
        basis = BSplineBasis((0.0, 1.0), 12)
        warm = BasisSmoother(basis, smoothing=1e-4, cache=shared)
        warm.fit_grid(noisy_sines)  # populate the shared cache
        cached = BasisSmoother(BSplineBasis((0.0, 1.0), 12), smoothing=1e-4, cache=shared)
        fresh = BasisSmoother(BSplineBasis((0.0, 1.0), 12), smoothing=1e-4)
        c1 = cached.fit_grid(noisy_sines).coefficients
        c2 = fresh.fit_grid(noisy_sines).coefficients
        assert np.array_equal(c1, c2)
        assert shared.stats.factorizations == 1

    def test_hat_matrix_identical(self, noisy_sines):
        shared = FactorizationCache()
        basis = BSplineBasis((0.0, 1.0), 12)
        cached = BasisSmoother(basis, smoothing=1e-4, cache=shared)
        h1 = cached.hat_matrix(noisy_sines.grid)
        h2 = cached.hat_matrix(noisy_sines.grid)
        assert h1 is h2  # second call is a pure cache hit
        fresh = BasisSmoother(BSplineBasis((0.0, 1.0), 12), smoothing=1e-4)
        assert np.array_equal(h1, fresh.hat_matrix(noisy_sines.grid))

    def test_selection_cached_vs_uncached_identical(self, noisy_sines):
        factory = lambda dom, L: BSplineBasis(dom, L)
        candidates = (6, 8, 10, 12)
        plain = select_n_basis(noisy_sines, factory, candidates, smoothing=1e-4)
        cache = FactorizationCache()
        fitted = select_n_basis(
            noisy_sines, factory, candidates, smoothing=1e-4, cache=cache
        )
        assert fitted.best == plain.best
        for cand in candidates:
            assert fitted.scores[cand] == plain.scores[cand]
        # The returned fit equals an explicit fit of the winner.
        direct = BasisSmoother(factory((0.0, 1.0), plain.best), smoothing=1e-4)
        assert np.array_equal(
            fitted.fit.coefficients, direct.fit_grid(noisy_sines).coefficients
        )
        # One factorization per candidate, none for the winner's refit.
        assert cache.stats.factorizations == len(candidates)


class TestPrepareFactorizationCount:
    def test_one_factorization_per_candidate_configuration(self, small_dataset):
        data, _ = small_dataset
        candidates = (8, 12, 16)
        ctx = ExecutionContext()
        method = MappedDetectorMethod("iforest", n_basis=candidates)
        method.prepare(data, random_state=0, context=ctx)
        # The p parameters share grid/λ/order, so the distinct normal-equation
        # configurations are exactly the candidate sizes: one factorization
        # each, every other (parameter, candidate) evaluation is a cache hit.
        assert ctx.cache.stats.factorizations == len(candidates)
        assert ctx.cache.stats.factorization_hits > 0
        method.prepare(data, random_state=0, context=ctx)
        assert ctx.cache.stats.factorizations == len(candidates)


class TestExecutionContext:
    def test_map_serial_and_parallel_agree(self):
        ctx = ExecutionContext(n_jobs=2)
        items = list(range(7))
        assert ctx.map(_square, items) == [i * i for i in items]
        assert ctx.map(_square, items, n_jobs=1) == [i * i for i in items]

    def test_rejects_bad_n_jobs(self):
        for bad in (-3, 0, 1.5, "2", True):
            with pytest.raises(ValidationError):
                ExecutionContext(n_jobs=bad)

    def test_negative_one_resolves_to_cores(self):
        assert ExecutionContext(n_jobs=-1).n_jobs >= 1

    def test_rejects_bad_cache(self):
        with pytest.raises(ValidationError):
            ExecutionContext(cache="nope")


def _square(x):
    return x * x


class TestParallelExperiment:
    def test_parallel_records_bit_identical_to_serial(self, small_dataset):
        data, labels = small_dataset
        def run(n_jobs):
            return run_contamination_experiment(
                data, labels,
                [MappedDetectorMethod("iforest", n_basis=10)],
                contamination_levels=(0.1, 0.2),
                n_repetitions=2,
                random_state=11,
                n_jobs=n_jobs,
            )
        serial, parallel = run(1), run(2)
        assert serial.to_records() == parallel.to_records()

    def test_n_jobs_two_bit_identical_golden_path(self, small_dataset):
        """Regression guard for the engine's seed-spawning contract.

        The serving/production story leans on parallel experiment runs
        being *bit-identical* to serial ones; this pins the full
        golden path (two mapped methods, shared context, OCSVM with ν
        tuning) on a small grid so any scheduler- or seed-ordering
        regression fails loudly.
        """
        data, labels = small_dataset

        def run(n_jobs):
            table = run_contamination_experiment(
                data, labels,
                [MappedDetectorMethod("iforest", n_basis=10, n_estimators=25),
                 MappedDetectorMethod("ocsvm", n_basis=10)],
                contamination_levels=(0.05, 0.2),
                n_repetitions=3,
                train_fraction=0.7,
                random_state=123,
                n_jobs=n_jobs,
                context=ExecutionContext(),
            )
            return table.to_records()

        serial, parallel = run(1), run(2)
        assert serial == parallel  # exact float equality, not approximate

    def test_shared_context_caches_across_methods(self, small_dataset):
        data, labels = small_dataset
        ctx = ExecutionContext()
        run_contamination_experiment(
            data, labels,
            [MappedDetectorMethod("iforest", n_basis=10),
             MappedDetectorMethod("ocsvm", n_basis=10)],
            contamination_levels=(0.1,),
            n_repetitions=1,
            random_state=0,
            context=ctx,
        )
        # Both methods smooth the same (basis, grid, λ) configuration.
        assert ctx.cache.stats.factorizations == 1
        assert ctx.cache.stats.factorization_hits >= 1


class TestDegenerateSplitRetry:
    def test_retries_until_two_class_test_set(self, small_dataset, monkeypatch):
        _, labels = small_dataset
        real_split = experiment_module.contaminated_split
        calls = {"n": 0}

        def flaky(labels_, c, train_fraction, random_state):
            calls["n"] += 1
            if calls["n"] <= 3:
                inliers = np.nonzero(np.asarray(labels_) == 0)[0]
                return Split(train=inliers[:2], test=inliers[2:4])
            return real_split(labels_, c, train_fraction=train_fraction,
                              random_state=random_state)

        monkeypatch.setattr(experiment_module, "contaminated_split", flaky)
        rng = np.random.default_rng(0)
        split, test_labels = _draw_valid_split(labels, 0.2, 0.5, rng)
        assert calls["n"] == 4
        assert test_labels.min() != test_labels.max()

    def test_raises_after_bounded_attempts(self, small_dataset, monkeypatch):
        _, labels = small_dataset
        inliers = np.nonzero(np.asarray(labels) == 0)[0]
        calls = {"n": 0}

        def always_degenerate(labels_, c, train_fraction, random_state):
            calls["n"] += 1
            return Split(train=inliers[:2], test=inliers[2:4])

        monkeypatch.setattr(experiment_module, "contaminated_split", always_degenerate)
        rng = np.random.default_rng(0)
        with pytest.raises(ValidationError, match="both classes"):
            _draw_valid_split(labels, 0.2, 0.5, rng)
        assert calls["n"] == MAX_SPLIT_RETRIES
