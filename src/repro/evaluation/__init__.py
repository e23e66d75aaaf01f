"""Evaluation: metrics, contaminated splits, tuning, experiment harness."""

from repro.evaluation.experiment import PAPER_CONTAMINATION_LEVELS, run_contamination_experiment
from repro.evaluation.metrics import roc_auc
from repro.evaluation.results import ResultRecord, ResultTable
from repro.evaluation.splits import Split, contaminated_split, kfold_indices
from repro.evaluation.tuning import TuningResult, tune_nu

__all__ = [
    "PAPER_CONTAMINATION_LEVELS",
    "ResultRecord",
    "ResultTable",
    "Split",
    "TuningResult",
    "contaminated_split",
    "kfold_indices",
    "roc_auc",
    "run_contamination_experiment",
    "tune_nu",
]
