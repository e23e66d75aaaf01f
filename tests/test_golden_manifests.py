"""Golden artifacts: committed manifests must keep loading and scoring bit-identically.

``tests/data/iforest_v2`` is a format-v2 iforest pipeline (25 trees,
``n_basis=12``) fitted on ``make_taxonomy_dataset("correlation",
n_inliers=40, n_outliers=6, random_state=0)`` and saved compressed.
``tests/data/iforest_golden.npz`` holds what that code produced:

* ``scores`` for the 8-curve ``batch`` and ``single_scores`` for the
  1-curve ``single`` batch, both on ``grid``;
* the node table of ``IsolationForest(n_estimators=20, max_samples=32,
  random_state=3).fit(forest_X)`` as ``forest_psi`` and
  ``forest_node_*``.

The files are never regenerated: a mismatch means the scores or the
fitted forest changed, which needs a deliberate format decision.
"""

from pathlib import Path

import numpy as np
import pytest

from repro.detectors.iforest import IsolationForest
from repro.fda.fdata import MFDataGrid
from repro.serving import load_pipeline

DATA = Path(__file__).parent / "data"


@pytest.fixture(scope="module")
def golden():
    with np.load(DATA / "iforest_golden.npz", allow_pickle=False) as bundle:
        return {key: bundle[key] for key in bundle.files}


@pytest.mark.parametrize("mmap", [False, True])
def test_iforest_manifest_scores_bit_identical(golden, mmap):
    pipeline = load_pipeline(DATA / "iforest_v2", mmap=mmap)
    batch = MFDataGrid(golden["batch"], golden["grid"])
    single = MFDataGrid(golden["single"], golden["grid"])
    assert np.array_equal(pipeline.score_samples(batch), golden["scores"])
    assert np.array_equal(pipeline.score_samples(single), golden["single_scores"])


def test_iforest_refit_node_table_bit_identical(golden):
    forest = IsolationForest(n_estimators=20, max_samples=32, random_state=3)
    table = forest.fit(golden["forest_X"]).export_state()["fitted"]
    assert table["psi"] == golden["forest_psi"]
    expected = {key[len("forest_"):] for key in golden if key.startswith("forest_node_")}
    assert set(table) - {"psi"} == expected
    for key in expected:
        assert table[key].dtype == golden[f"forest_{key}"].dtype, key
        assert np.array_equal(table[key], golden[f"forest_{key}"]), key


def test_iforest_node_table_loads_zero_copy(golden, tmp_path):
    """An uncompressed manifest loaded with mmap scores straight from the file."""
    from repro.serving import save_pipeline

    save_pipeline(load_pipeline(DATA / "iforest_v2"), tmp_path / "model", compressed=False)
    pipeline = load_pipeline(tmp_path / "model", mmap=True)
    for key, array in pipeline.detector.export_state()["fitted"].items():
        if key == "psi":
            continue
        base = array
        while base is not None and not isinstance(base, np.memmap):
            base = base.base
        assert base is not None, f"{key} was copied off the memory map"
    batch = MFDataGrid(golden["batch"], golden["grid"])
    assert np.array_equal(pipeline.score_samples(batch), golden["scores"])
