"""Data generators: ECG substitute, outlier-taxonomy MFD, augmentation, noise."""

from repro.data.augment import power_augment, square_augment
from repro.data.ecg import ECGGenerator, ECGWave, make_ecg_dataset
from repro.data.noise import smooth_gaussian_process, white_noise
from repro.data.synthetic import (
    OUTLIER_CLASSES,
    SyntheticMFD,
    make_drifting_stream,
    make_fig1_dataset,
    make_taxonomy_dataset,
)

__all__ = [
    "ECGGenerator",
    "ECGWave",
    "OUTLIER_CLASSES",
    "SyntheticMFD",
    "make_drifting_stream",
    "make_ecg_dataset",
    "make_fig1_dataset",
    "make_taxonomy_dataset",
    "power_augment",
    "smooth_gaussian_process",
    "square_augment",
    "white_noise",
]
