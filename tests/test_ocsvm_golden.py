"""OCSVM ν tuning and the SMO solver against golden outputs.

``tests/data/ocsvm_golden.npz`` holds three feature matrices and what
``tune_nu``, ``OneClassSVM`` and ``smo_solve`` produced for them while
every tuning fit still built its own Gram matrix:

* ``X_gauss`` (60 × 4): Gaussian rows, the first four shifted by 4;
* ``X_dup`` (48 × 3): 12 rounded rows, each repeated four times (the
  last three shifted).  Identical rows keep identical gradients, so SMO
  never pairs them; the flat-curvature step comes from the sigmoid
  kernel, which is not positive semi-definite: ``dup_sigmoid`` takes
  that step 20 times in ``tune_nu`` and 5 times in ``smo_solve``;
* ``X_fig`` (56 × 85): robust-standardized curvature features of an
  ECG-200 substitute (``make_ecg_dataset(n_normal=50, n_abnormal=10,
  random_state=4)``, squared-augmented, ``n_basis=12``), the shape
  ``tune_nu`` sees in the Fig. 3 experiment.

``tune_<case>_{nus,scores,best}`` are the ``tune_nu`` score dict and
winner for the options in :data:`TUNE_CASES`; ``fit_<case>_*`` are the
``alpha``, ``rho``, ``n_iter`` and ``raw_decision`` of a
``OneClassSVM(nu=best)`` refitted on the whole matrix.
``smo_<case>_*`` are ``smo_solve`` outputs for the Gram matrices and
box bounds in :data:`SMO_CASES`.

The file is never regenerated: a mismatch means the OCSVM fit changed,
which needs a deliberate decision, not a new fixture.
"""

from pathlib import Path

import numpy as np
import pytest

from repro.detectors.kernels import linear_kernel, rbf_kernel, sigmoid_kernel
from repro.detectors.ocsvm import OneClassSVM, smo_solve
from repro.evaluation.tuning import tune_nu

DATA = Path(__file__).parent / "data"
FIG_NUS = (0.02, 0.05, 0.10, 0.15, 0.20, 0.25)
TUNE_CASES = {
    "gauss_default": ("X_gauss", dict(random_state=0)),
    "gauss_linear": ("X_gauss", dict(candidates=(0.05, 0.2, 0.5), kernel="linear", random_state=1)),
    "gauss_poly": ("X_gauss", dict(candidates=(0.1, 0.3), kernel="poly", gamma="auto", random_state=2)),
    "dup_scale": ("X_dup", dict(candidates=(0.05, 0.1, 0.25, 1.0), random_state=3)),
    "dup_gamma": ("X_dup", dict(candidates=(0.1, 0.2), gamma=0.7, n_folds=3, random_state=4)),
    "dup_sigmoid": ("X_dup", dict(candidates=(0.05, 0.1, 0.25), kernel="sigmoid", gamma=0.3, random_state=3)),
    "fig_scale": ("X_fig", dict(candidates=FIG_NUS, random_state=5)),
    "fig_gamma": ("X_fig", dict(candidates=FIG_NUS, gamma=0.05, random_state=6)),
}
SMO_CASES = {
    "gauss_rbf": ("X_gauss", lambda X: rbf_kernel(X, X, 0.5)),
    "gauss_linear": ("X_gauss", lambda X: linear_kernel(X, X)),
    "dup_rbf": ("X_dup", lambda X: rbf_kernel(X, X, 0.3)),
    "dup_uniform": ("X_dup", lambda X: rbf_kernel(X, X, 1.0)),
    "dup_sigmoid": ("X_dup", lambda X: sigmoid_kernel(X, X, 0.3)),
    "fig_rbf": ("X_fig", lambda X: rbf_kernel(X, X, 0.05)),
}


@pytest.fixture(scope="module")
def golden():
    with np.load(DATA / "ocsvm_golden.npz", allow_pickle=False) as bundle:
        return {key: bundle[key] for key in bundle.files}


@pytest.mark.parametrize("case", sorted(TUNE_CASES))
def test_tune_nu_matches_golden(golden, case):
    xkey, options = TUNE_CASES[case]
    X = golden[xkey]
    result = tune_nu(X, **options)
    nus = np.array(sorted(result.scores))
    assert np.array_equal(nus, golden[f"tune_{case}_nus"])
    assert np.array_equal([result.scores[nu] for nu in nus], golden[f"tune_{case}_scores"])
    assert result.best == golden[f"tune_{case}_best"]

    model = OneClassSVM(
        nu=result.best, kernel=options.get("kernel", "rbf"), gamma=options.get("gamma", "scale")
    ).fit(X)
    assert np.array_equal(model.alpha_, golden[f"fit_{case}_alpha"])
    assert model.rho_ == golden[f"fit_{case}_rho"]
    assert model.n_iter_ == golden[f"fit_{case}_n_iter"]
    assert np.array_equal(model.raw_decision(X), golden[f"fit_{case}_decision"])


@pytest.mark.parametrize("case", sorted(SMO_CASES))
def test_smo_solve_matches_golden(golden, case):
    xkey, gram = SMO_CASES[case]
    alpha, rho, n_iter = smo_solve(gram(golden[xkey]), float(golden[f"smo_{case}_C"]))
    assert np.array_equal(alpha, golden[f"smo_{case}_alpha"])
    assert rho == golden[f"smo_{case}_rho"]
    assert n_iter == golden[f"smo_{case}_n_iter"]
