"""Property-based tests for ranking metrics and splits."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.evaluation.metrics import roc_auc
from repro.evaluation.splits import contaminated_split

COMMON = settings(max_examples=40, deadline=None)


@st.composite
def scores_and_labels(draw):
    n = draw(st.integers(min_value=4, max_value=120))
    scores = draw(
        hnp.arrays(
            np.float64,
            n,
            elements=st.floats(min_value=-100, max_value=100, allow_nan=False),
        )
    )
    n_pos = draw(st.integers(min_value=1, max_value=n - 1))
    labels = np.zeros(n, dtype=int)
    labels[:n_pos] = 1
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**31)))
    rng.shuffle(labels)
    return scores, labels


class TestAucProperties:
    @COMMON
    @given(scores_and_labels())
    def test_bounded(self, data):
        scores, labels = data
        assert 0.0 <= roc_auc(scores, labels) <= 1.0

    @COMMON
    @given(scores_and_labels())
    def test_negation_flips(self, data):
        """AUC(-s) = 1 - AUC(s)."""
        scores, labels = data
        np.testing.assert_allclose(
            roc_auc(-scores, labels), 1.0 - roc_auc(scores, labels), atol=1e-10
        )

    @COMMON
    @given(scores_and_labels())
    def test_monotone_transform_invariant(self, data):
        scores, labels = data
        # Multiplication by a power of two is exact in binary floating
        # point: strictly monotone and tie-preserving for any inputs.
        transformed = 4.0 * scores
        np.testing.assert_allclose(
            roc_auc(scores, labels), roc_auc(transformed, labels), atol=1e-10
        )

    @COMMON
    @given(scores_and_labels())
    def test_label_flip_complements(self, data):
        """Swapping the positive class complements the AUC."""
        scores, labels = data
        np.testing.assert_allclose(
            roc_auc(scores, 1 - labels), 1.0 - roc_auc(scores, labels), atol=1e-10
        )

class TestSplitProperties:
    @COMMON
    @given(
        st.integers(min_value=20, max_value=200),
        st.integers(min_value=10, max_value=60),
        st.sampled_from([0.05, 0.1, 0.15, 0.2, 0.25]),
        st.integers(min_value=0, max_value=1000),
    )
    def test_partition_and_contamination(self, n_in, n_out, c, seed):
        labels = np.r_[np.zeros(n_in, dtype=int), np.ones(n_out, dtype=int)]
        split = contaminated_split(labels, c, random_state=seed)
        # Exact partition of the index set.
        union = np.sort(np.concatenate([split.train, split.test]))
        np.testing.assert_array_equal(union, np.arange(n_in + n_out))
        # Training contamination within rounding of the target.
        achieved = labels[split.train].mean()
        n_train_in = (labels[split.train] == 0).sum()
        tolerance = 1.0 / max(n_train_in, 1) + 0.02
        assert abs(achieved - c) <= tolerance or labels[split.train].sum() == n_out - 1
