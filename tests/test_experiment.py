"""Unit tests for the repetition harness."""

import numpy as np
import pytest

from repro.core.methods import DirOutMethod, MappedDetectorMethod, default_methods
from repro.data import make_ecg_dataset, square_augment
from repro.evaluation.experiment import (
    PAPER_CONTAMINATION_LEVELS,
    run_contamination_experiment,
)
from repro.exceptions import ValidationError


@pytest.fixture(scope="module")
def small_dataset():
    data, labels, _ = make_ecg_dataset(n_normal=40, n_abnormal=20, random_state=3)
    return square_augment(data), labels


class TestRunContaminationExperiment:
    def test_record_count(self, small_dataset):
        data, labels = small_dataset
        methods = [MappedDetectorMethod("iforest", n_basis=12)]
        table = run_contamination_experiment(
            data, labels, methods,
            contamination_levels=(0.1, 0.2),
            n_repetitions=3,
            random_state=0,
        )
        assert len(table.records) == 2 * 3

    def test_paper_levels_constant(self):
        assert PAPER_CONTAMINATION_LEVELS == (0.05, 0.10, 0.15, 0.20, 0.25)

    def test_reproducible_with_seed(self, small_dataset):
        data, labels = small_dataset
        def run():
            return run_contamination_experiment(
                data, labels,
                [MappedDetectorMethod("iforest", n_basis=12)],
                contamination_levels=(0.15,),
                n_repetitions=2,
                random_state=11,
            )
        t1, t2 = run(), run()
        np.testing.assert_allclose(
            t1.values("iFor(Curvmap)", 0.15), t2.values("iFor(Curvmap)", 0.15)
        )

    def test_multiple_methods_same_splits(self, small_dataset):
        """Both methods must be evaluated on identical splits: record
        counts match per (level, repetition)."""
        data, labels = small_dataset
        methods = [MappedDetectorMethod("iforest", n_basis=12), DirOutMethod()]
        table = run_contamination_experiment(
            data, labels, methods,
            contamination_levels=(0.1,),
            n_repetitions=2,
            random_state=0,
        )
        assert len(table.values("iFor(Curvmap)", 0.1)) == 2
        assert len(table.values("Dir.out", 0.1)) == 2

    def test_aucs_in_unit_interval(self, small_dataset):
        data, labels = small_dataset
        table = run_contamination_experiment(
            data, labels,
            [MappedDetectorMethod("iforest", n_basis=12)],
            contamination_levels=(0.2,),
            n_repetitions=3,
            random_state=1,
        )
        values = table.values("iFor(Curvmap)", 0.2)
        assert ((values >= 0) & (values <= 1)).all()

    def test_n_jobs_two_records_equal_serial(self, small_dataset):
        """The Fig. 3 fan-out over all four paper methods, depth
        baselines included, reproduces the serial records exactly."""
        data, labels = small_dataset

        def run(n_jobs):
            return run_contamination_experiment(
                data, labels, default_methods(),
                contamination_levels=(0.1, 0.2),
                n_repetitions=2,
                random_state=7,
                n_jobs=n_jobs,
            ).to_records()

        assert run(2) == run(1)

    def test_label_length_mismatch(self, small_dataset):
        data, labels = small_dataset
        with pytest.raises(ValidationError):
            run_contamination_experiment(
                data, labels[:-1], [DirOutMethod()], n_repetitions=1
            )

    def test_no_methods_rejected(self, small_dataset):
        data, labels = small_dataset
        with pytest.raises(ValidationError):
            run_contamination_experiment(data, labels, [], n_repetitions=1)

    def test_no_levels_rejected(self, small_dataset):
        data, labels = small_dataset
        with pytest.raises(ValidationError):
            run_contamination_experiment(
                data, labels, [DirOutMethod()], contamination_levels=(), n_repetitions=1
            )
