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
Every case fits with at least as many sampled values as rows, so the fit
copies the whole matrix to lists once; refitting the cases that have more
rows than ``psi`` with fewer trees, so that the fit copies each tree's
sample instead, must give the golden table's first trees.

A property test pins the grower to ``oracles.iforest_node_table``, the
grower that took every feature's min and max at each node, on matrices
drawn from a small alphabet (ties, ``-0.0`` next to ``0.0``, duplicated
rows, constant columns): the same node table, and the same draws taken
from a passed-in generator, on PCG64 (raw-word replay, also with a
half-word buffered) and on MT19937 (the generator's own methods).  The
replay itself is checked draw by draw against ``Generator.integers`` and
``Generator.random``.
"""

from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import iforest_node_table

from repro.detectors.iforest import _NODE_KEYS, IsolationForest, _draw_source

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


def _golden_params(case):
    return (int(v) for v in GOLDEN[f"{case}__params"])


@pytest.mark.parametrize(
    "case", [c for c in CASES if GOLDEN[f"{c}__X"].shape[0] > list(_golden_params(c))[3]])
def test_per_tree_copy_matches_golden_prefix(case):
    _, max_samples, seed, psi = _golden_params(case)
    X = GOLDEN[f"{case}__X"]
    n_estimators = (X.shape[0] - 1) // psi  # n_estimators * psi < n rows
    forest = IsolationForest(n_estimators=n_estimators, max_samples=max_samples,
                             random_state=seed)
    fitted = forest.fit(X).export_state()["fitted"]
    offsets = GOLDEN[f"{case}__node_offsets"][: n_estimators + 1]
    assert np.array_equal(fitted["node_offsets"], offsets)
    for key in _NODE_KEYS[1:]:
        assert np.array_equal(fitted[key], GOLDEN[f"{case}__{key}"][: offsets[-1]]), key


BOUNDS = [1, 2, 3, 85, 3 * 10**9, 2**32 - 1]  # the last two reject often / rarely


@pytest.mark.parametrize("block", [1, 2, 64])
def test_raw_draws_match_generator(block):
    """Replayed draws equal ``integers(c)`` and ``random()`` one by one,
    from a buffered half-word on, and leave the generator where they do."""
    for seed in range(320):
        rng, reference = np.random.default_rng(seed), np.random.default_rng(seed)
        rng.integers(5), reference.integers(5)  # one 32-bit half stays buffered
        assert rng.bit_generator.state["has_uint32"] == 1
        plan = np.random.default_rng(10**6 + seed).integers(len(BOUNDS) + 1, size=40)
        integers, random, settle = _draw_source(rng, block)
        for pick in plan.tolist():
            if pick == len(BOUNDS):
                assert random() == reference.random()
            else:
                assert integers(BOUNDS[pick]) == reference.integers(BOUNDS[pick])
        settle()
        assert rng.bit_generator.state == reference.bit_generator.state


def _same_state(a, b):
    """Bit-generator states are equal (MT19937's holds an array)."""
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(_same_state(a[k], b[k]) for k in a)
    return np.array_equal(a, b)


def _generators(kind, seed):
    """Two equal generators of the kind the property test draws."""
    pair = []
    for _ in range(2):
        if kind == "mt19937":
            rng = np.random.Generator(np.random.MT19937(seed))
        else:
            rng = np.random.default_rng(seed)
            if kind == "pcg64_half_buffered":
                rng.integers(3)
        pair.append(rng)
    return pair


@settings(max_examples=150, deadline=None)
@given(tied_matrices(), st.sampled_from([2, 3, 7, 16, 256]), st.integers(1, 6),
       st.integers(0, 2**32 - 1), st.sampled_from(["pcg64", "pcg64_half_buffered", "mt19937"]))
def test_node_table_matches_full_minmax_oracle(X, psi, n_estimators, seed, generator):
    rng, oracle_rng = _generators(generator, seed)
    forest = IsolationForest(n_estimators=n_estimators, max_samples=psi, random_state=rng)
    fitted = forest.fit(X).export_state()["fitted"]
    expected = iforest_node_table(X, n_estimators, psi, oracle_rng)
    assert fitted["psi"] == expected["psi"]
    for key in _NODE_KEYS:
        assert fitted[key].dtype == expected[key].dtype, key
        assert np.array_equal(fitted[key], expected[key]), key
    assert _same_state(rng.bit_generator.state, oracle_rng.bit_generator.state)


@pytest.mark.parametrize("generator", ["pcg64", "pcg64_half_buffered", "mt19937"])
def test_non_finite_split_range_overflows(generator):
    # Both columns span more than the largest double: the root's threshold
    # range overflows after its feature draw, as Generator.uniform's does.
    X = np.array([[-1.7e308, 1.7e308], [1.7e308, -1.7e308]])
    rng, oracle_rng = _generators(generator, 3)
    with pytest.raises(OverflowError):
        IsolationForest(n_estimators=2, random_state=rng).fit(X)
    with pytest.raises(OverflowError):
        iforest_node_table(X, 2, 256, oracle_rng)
    assert _same_state(rng.bit_generator.state, oracle_rng.bit_generator.state)
