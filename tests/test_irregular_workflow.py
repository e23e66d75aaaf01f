"""Integration test: the sparse/irregular measurement path (paper Sec. 2).

"No assumption is made on the distribution of the measurement points,
thus the functional data representation can deal with sparse
measurements as well as uniform ones."  This exercises that claim end
to end: every sample is observed at its own random measurement points,
yet smoothing, derivative evaluation and the curvature mapping still
separate the planted outlier.
"""

import numpy as np
import pytest

from repro.detectors import KNNDetector
from repro.evaluation.metrics import roc_auc
from repro.fda import (
    BasisFData,
    BasisSmoother,
    BSplineBasis,
    IrregularFData,
    MultivariateBasisFData,
)
from repro.geometry import CurvatureMapping


@pytest.fixture
def irregular_population(rng):
    """30 near-circle paths + 3 ellipse-collapsed outliers, each sample
    observed at its own 40–60 random points."""
    def sample_one(outlier: bool):
        m = int(rng.integers(40, 61))
        points = np.sort(rng.uniform(0.0, 1.0, m))
        points[0], points[-1] = 0.0, 1.0
        phase = rng.uniform(-0.1, 0.1)
        arg = 2 * np.pi * points + phase
        delta = rng.uniform(0.9, 1.1) if outlier else 0.0
        x1 = 2 * np.sin(arg) + 0.02 * rng.standard_normal(m)
        x2 = 2 * np.cos(arg + delta) + 0.02 * rng.standard_normal(m)
        return points, x1, x2

    samples = [sample_one(False) for _ in range(30)] + [sample_one(True) for _ in range(3)]
    labels = np.r_[np.zeros(30, int), np.ones(3, int)]
    return samples, labels


def test_irregular_curvature_detection(irregular_population):
    samples, labels = irregular_population
    points = [s[0] for s in samples]
    x1_data = IrregularFData(points, [s[1] for s in samples])
    x2_data = IrregularFData(points, [s[2] for s in samples])

    basis = BSplineBasis((0.0, 1.0), n_basis=14)
    smoother = BasisSmoother(basis, smoothing=1e-4)
    fit = MultivariateBasisFData(
        [smoother.fit_irregular(x1_data), smoother.fit_irregular(x2_data)]
    )

    eval_grid = np.linspace(0.0, 1.0, 85)
    mapped = CurvatureMapping().transform(fit, eval_grid)

    features = np.sign(mapped.values) * np.log1p(np.abs(mapped.values))
    detector = KNNDetector(5).fit(features[labels == 0])
    scores = detector.score_samples(features)
    assert roc_auc(scores, labels) > 0.95


def test_irregular_and_grid_fits_agree(rng):
    """Fitting the same curve from irregular vs gridded observations must
    give nearly identical reconstructions."""
    grid = np.linspace(0.0, 1.0, 60)
    truth = np.sin(2 * np.pi * grid)
    basis = BSplineBasis((0.0, 1.0), n_basis=12)
    smoother = BasisSmoother(basis, smoothing=1e-6)

    from repro.fda import FDataGrid

    grid_fit = smoother.fit_grid(FDataGrid(truth[None, :], grid))
    irregular_fit = smoother.fit_irregular(IrregularFData([grid], [truth]))
    probe = np.linspace(0.0, 1.0, 100)
    np.testing.assert_allclose(
        grid_fit.evaluate(probe), irregular_fit.evaluate(probe), atol=1e-8
    )
