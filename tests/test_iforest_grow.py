"""The Isolation Forest grower: its node tables are pinned bit for bit.

``tests/data/iforest_grow_golden.npz`` holds, per case, the training
matrix ``<case>__X``, ``<case>__params`` = (``n_estimators``,
``max_samples``, integer ``random_state``, fitted ``psi``) and the seven
arrays of the node table ``IsolationForest`` grew from them.  The cases
are chosen for the features the grower may draw at a node (those not
constant on its rows):

* ``rounded``: normals rounded to one decimal, so every feature repeats values;
* ``duplicated_rows``: 20 of 50 rows repeat earlier rows;
* ``constant_column``: one of 5 features holds a single value;
* ``all_constant``: every feature is constant, so each tree is one leaf;
* ``two_rows``: the smallest trainable matrix (``psi`` = 2);
* ``fig3_curvature``: a Fig. 3 curvature training matrix (103 x 85) in
  which features 49 and 57 repeat the value 10.0;
* ``psi<p>_n<n>``: ``max_samples`` p in {2, 3, 16, 256} with n rows
  above p and at most p (``psi`` capped at n; n = 2 for p = 2), on three
  features with values in {0, 1, 2} and two normals rounded to one decimal.

The file is never regenerated: a mismatch means the fitted forest changed.

A property test pins the grower to ``oracles.iforest_node_table``, the
grower that took every feature's min and max at each node, on matrices
drawn from a small alphabet (ties, ``-0.0`` next to ``0.0``, duplicated
rows, constant columns): the same node table, and the same draws taken
from a passed-in generator.
"""

from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import iforest_node_table

from repro.detectors.iforest import _NODE_KEYS, IsolationForest

DATA = Path(__file__).parent / "data"

with np.load(DATA / "iforest_grow_golden.npz", allow_pickle=False) as _bundle:
    GOLDEN = {key: _bundle[key] for key in _bundle.files}
CASES = sorted({key.split("__")[0] for key in GOLDEN})


@pytest.mark.parametrize("case", CASES)
def test_node_table_matches_golden(case):
    n_estimators, max_samples, seed, psi = (int(v) for v in GOLDEN[f"{case}__params"])
    forest = IsolationForest(n_estimators=n_estimators, max_samples=max_samples,
                             random_state=seed)
    fitted = forest.fit(GOLDEN[f"{case}__X"]).export_state()["fitted"]
    assert fitted["psi"] == psi
    for key in _NODE_KEYS:
        expected = GOLDEN[f"{case}__{key}"]
        assert fitted[key].dtype == expected.dtype, key
        assert np.array_equal(fitted[key], expected), key


@st.composite
def tied_matrices(draw):
    """Small matrices over a few values, with duplicated rows and constant columns."""
    n, d = draw(st.integers(2, 30)), draw(st.integers(1, 5))
    alphabet = draw(st.lists(st.sampled_from([-1.5, -0.0, 0.0, 0.25, 2.0, 7.0]),
                             min_size=1, max_size=4, unique_by=repr))
    X = np.array(draw(st.lists(st.sampled_from(alphabet), min_size=n * d, max_size=n * d)))
    X = X.reshape(n, d)
    copies = draw(st.lists(st.integers(0, n - 1), max_size=10))
    X = np.vstack([X, X[copies]])
    for column in draw(st.sets(st.integers(0, d - 1), max_size=d)):
        X[:, column] = alphabet[0]
    return X


@settings(max_examples=150, deadline=None)
@given(tied_matrices(), st.sampled_from([2, 3, 7, 16, 256]), st.integers(1, 6),
       st.integers(0, 2**32 - 1))
def test_node_table_matches_full_minmax_oracle(X, psi, n_estimators, seed):
    rng, oracle_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    forest = IsolationForest(n_estimators=n_estimators, max_samples=psi, random_state=rng)
    fitted = forest.fit(X).export_state()["fitted"]
    expected = iforest_node_table(X, n_estimators, psi, oracle_rng)
    assert fitted["psi"] == expected["psi"]
    for key in _NODE_KEYS:
        assert fitted[key].dtype == expected[key].dtype, key
        assert np.array_equal(fitted[key], expected[key]), key
    assert rng.bit_generator.state == oracle_rng.bit_generator.state
