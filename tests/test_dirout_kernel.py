"""The batched Dir.out kernels against golden outputs.

``tests/data/dirout_golden.npz`` holds inputs and the outputs the
Dir.out kernels produced for them while the Stahel–Donoho step still
took its medians with ``np.median`` partitions:

* ``Q_p{2,3}`` (9 × 24 × p) queries and ``R_p{2,3}`` (21 × 24 × p)
  reference curves on ``grid``: random walks rounded to one decimal, so
  ties are frequent, with a duplicated reference curve, a query equal
  to a reference curve, a constant cross-section at grid point 5 (every
  lane degenerate, the MAD guard falls back to 1) and, at grid point 11,
  more than half of the reference tied with the rest spread out (the
  guard falls back to the lane's standard deviation).  Cases ``odd`` use
  all 21 reference curves and ``even`` the first 20.  Every call used
  ``n_directions=7``, ``random_state=11`` and a 30 000-byte scratch
  budget, so each call ran several grid-point blocks; the replay patches
  ``_kernels.DEFAULT_BLOCK_BYTES`` to that budget.
* ``fig_Q`` (12 × 16 × 2) and ``fig_R`` (140 × 16 × 2) on ``fig_grid``:
  the Fig. 3 reference width (140 curves, even lanes), built the same
  way and run at the default block budget.

For each case, dtype (float64, float32) and mode (``ref``: the queries
against the reference; ``self``: the reference against itself, the
same object passed twice) the file holds ``batched_stahel_donoho``
(``*_sdo``), ``batched_outlyingness_vectors`` (``*_vectors``) and
``dirout_scores`` for ``method="total"`` and ``"mahalanobis"``.

The file is never regenerated: a mismatch means Dir.out scores changed,
which needs a deliberate decision, not a new fixture.
"""

from pathlib import Path

import numpy as np
import pytest

from repro.depth import _kernels
from repro.depth.dirout import dirout_scores
from repro.fda.fdata import MFDataGrid

DATA = Path(__file__).parent / "data"
CASES = ["p2_odd", "p2_even", "p3_odd", "p3_even", "fig"]
OPTIONS = {"n_directions": 7, "random_state": 11}


@pytest.fixture(scope="module")
def golden():
    with np.load(DATA / "dirout_golden.npz", allow_pickle=False) as bundle:
        return {key: bundle[key] for key in bundle.files}


def _case(golden, case):
    """``(queries, reference, grid, scratch budget)`` of one golden case
    (``None``: the default budget)."""
    if case == "fig":
        return golden["fig_Q"], golden["fig_R"], golden["fig_grid"], None
    p, parity = case.split("_")
    ref = golden[f"R_{p}"]
    if parity == "even":
        ref = ref[:-1]
    return golden[f"Q_{p}"], ref, golden["grid"], 30_000


@pytest.mark.parametrize("mode", ["ref", "self"])
@pytest.mark.parametrize("dtype", ["float64", "float32"])
@pytest.mark.parametrize("case", CASES)
def test_kernels_match_golden(golden, monkeypatch, case, dtype, mode):
    queries, ref, _, budget = _case(golden, case)
    if budget is not None:
        monkeypatch.setattr(_kernels, "DEFAULT_BLOCK_BYTES", budget)
    values = ref if mode == "self" else queries
    key = f"{case}_{dtype}_{mode}"
    options = dict(OPTIONS, dtype=dtype)
    sdo = _kernels.batched_stahel_donoho(values, ref, **options)
    vectors = _kernels.batched_outlyingness_vectors(values, ref, **options)
    assert sdo.dtype == golden[f"{key}_sdo"].dtype
    assert np.array_equal(sdo, golden[f"{key}_sdo"])
    assert np.array_equal(vectors, golden[f"{key}_vectors"])


@pytest.mark.parametrize("method", ["total", "mahalanobis"])
@pytest.mark.parametrize("mode", ["ref", "self"])
@pytest.mark.parametrize("dtype", ["float64", "float32"])
@pytest.mark.parametrize("case", CASES)
def test_scores_match_golden(golden, monkeypatch, case, dtype, mode, method):
    queries, ref, grid, budget = _case(golden, case)
    if budget is not None:
        monkeypatch.setattr(_kernels, "DEFAULT_BLOCK_BYTES", budget)
    reference = MFDataGrid(ref, grid)
    data = reference if mode == "self" else MFDataGrid(queries, grid)
    scores = dirout_scores(
        data, reference=None if mode == "self" else reference, method=method,
        dtype=dtype, **OPTIONS,
    )
    assert np.array_equal(scores, golden[f"{case}_{dtype}_{mode}_scores_{method}"])


def test_golden_covers_both_degenerate_guards(golden):
    """Grid point 5 is constant and grid point 11 more than half tied, so
    both branches of the MAD guard run in every small case."""
    for p in ("p2", "p3"):
        ref = golden[f"R_{p}"]
        assert (ref[:, 5] == ref[0, 5]).all()
        tied = (ref[:, 11] == ref[0, 11]).all(axis=1)
        # More than half of the odd (21) and the even (20) reference, not all.
        assert 2 * tied[:-1].sum() > ref.shape[0] and not tied.all()
