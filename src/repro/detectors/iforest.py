"""Isolation Forest (Liu, Ting & Zhou, ICDM 2008) — from scratch.

Anomalies are "few and different", hence easier to *isolate* by random
axis-aligned splits: the expected path length from the root of a random
partitioning tree to an anomaly is shorter than to an inlier.  The
anomaly score of a point with average path length ``E[h(x)]`` over the
forest is::

    s(x) = 2 ** ( -E[h(x)] / c(psi) )

where ``psi`` is the subsample size used to grow each tree and ``c(n)``
is the average path length of an unsuccessful BST search — the
normalizer from the original paper::

    c(n) = 2 H(n-1) - 2 (n-1) / n,   H(i) ~ ln(i) + Euler gamma

Scores live in (0, 1); 0.5 is the classical "no anomaly" reference.

The forest *is* its persisted node table (``node_offsets`` delimits each
tree's nodes; ``feature < 0`` marks a leaf; children are tree-local).  Fit
grows each tree depth-first into it, scoring walks all (tree x curve)
lanes at once for ``ceil(log2 psi)`` steps, and loading validates the
table and keeps it as-is, so memory-mapped manifests stay zero-copy.

A node's draws are those of the full min/max rule: a feature uniform
over the features not constant on its rows, in ascending order, then a
threshold uniform between that feature's min and max.  Growth reads
only the drawn feature.  A tree's rows are a list of row indices into
the feature columns, held as Python lists of floats: a node sorts its
rows by the drawn feature's value, reads the min and the max off the
ends, and splits where a binary search places the threshold.  A feature
can be constant on ``r`` rows only if the value of the node's first row
repeats at least ``r`` times in the training matrix; one sort per fit
counts those repeats, and a node with more rows than any of them draws
from all ``d`` features directly.  Only the other nodes compare every
feature with their first row.  The order of a node's rows changes no
draw and no stored value, since min, max and split counts do not depend
on it.

The list columns take about four times the memory of ``X``.  The fit
converts the whole matrix once while it has at most ``n_estimators *
psi`` rows, so the copy is no larger than the trees' samples together;
beyond that it converts each tree's sample.

The draws are those of ``Generator.integers(c)`` for the feature and
``Generator.uniform(lo, hi)`` for the threshold, bit for bit.
``uniform`` is ``lo + (hi - lo) * u`` for the generator's next double
``u``, which is ``Generator.random()``; a range that is not finite
raises ``OverflowError``, as ``uniform`` does.  With NumPy's default bit
generator, PCG64, the calls are not made: each tree takes one block of
raw 64-bit outputs after its sample and replays what the generator does
with them: a double is the top 53 bits of a word times ``2**-53``, and
``integers(c)`` is Lemire's bounded draw, with its rejection loop, on
the 32-bit halves of words, low half first, the high half kept for the
next draw (``c == 1`` draws nothing).  At the end of the tree the
generator is moved back over the words it did not use and its buffered
half-word is restored, so it stands exactly where the calls would have
left it.  Any other bit generator is drawn through ``integers`` and
``random`` themselves; the grower is the same.
"""

from __future__ import annotations

from bisect import bisect_left
from math import isfinite

import numpy as np

from repro.detectors.base import OutlierDetector
from repro.exceptions import ValidationError
from repro.utils.random import check_random_state
from repro.utils.validation import check_int

__all__ = ["IsolationForest", "average_path_length"]

_EULER_GAMMA = 0.5772156649015329


def average_path_length(n_samples) -> np.ndarray:
    """The ``c(n)`` normalizer of Liu et al. (vectorized over ``n``)."""
    n = np.atleast_1d(np.asarray(n_samples, dtype=np.float64))
    out = np.zeros_like(n)
    big = n > 2
    out[big] = 2.0 * (np.log(n[big] - 1.0) + _EULER_GAMMA) - 2.0 * (n[big] - 1.0) / n[big]
    out[n == 2] = 1.0
    # n <= 1 -> 0 (cannot split further)
    if np.isscalar(n_samples):
        return out[0]
    return out


#: The persisted node table, in export order: the forest's only representation.
_NODE_KEYS = ("node_offsets", "node_feature", "node_split", "node_left", "node_right",
              "node_size", "node_depth")

#: Most (tree x curve) lanes walked at once; bounds scoring memory per call.
_LANE_BLOCK = 1 << 14


def _value_reach(X: np.ndarray) -> np.ndarray:
    """Per row of ``X``: the most rows that share one of its values in one feature.

    1 for a row whose value is unique in every feature.  A node of ``r``
    rows can only be constant in a feature if every one of its rows, the
    first included, shares that feature's value with ``r - 1`` others.
    """
    n, d = X.shape
    order = X.argsort(axis=0)
    ranked = np.take_along_axis(X, order, axis=0)
    starts = np.ones((n, d), dtype=bool)
    starts[1:] = ranked[1:] != ranked[:-1]
    run = np.cumsum(starts, axis=0) + np.arange(d) * n  # one id per (feature, value)
    shared = np.empty((n, d), dtype=np.int64)
    np.put_along_axis(shared, order, np.bincount(run.ravel())[run], axis=0)
    return shared.max(axis=1)


#: ``Generator.random()``: the top 53 bits of a raw word times ``2**-53``.
_DOUBLE_UNIT = 1.0 / 9007199254740992.0


def _draw_source(rng: np.random.Generator, block: int):
    """``integers(c)``, ``random()`` and ``settle()`` for one tree's draws.

    ``integers(c)`` (``1 <= c <= 2**32``) and ``random()`` return what
    ``rng.integers(c)`` and ``rng.random()`` would, in the same order;
    ``settle()`` leaves ``rng`` where those calls would have.  On PCG64
    they replay raw words fetched ``block`` at a time (module docstring);
    on any other bit generator they are the generator's own methods.
    """
    bit_generator = rng.bit_generator
    if type(bit_generator) is not np.random.PCG64:
        return rng.integers, rng.random, lambda: None
    state = bit_generator.state
    has_half, half = state["has_uint32"], state["uinteger"]
    words = bit_generator.random_raw(block).tolist()
    used = 0

    def word():
        nonlocal used
        if used == len(words):
            words.extend(bit_generator.random_raw(block).tolist())
        used += 1
        return words[used - 1]

    def uint32():
        nonlocal has_half, half
        if has_half:
            has_half = 0
            return half
        value = word()
        has_half, half = 1, value >> 32
        return value & 0xFFFFFFFF

    def integers(c):
        if c == 1:
            return 0
        m = uint32() * c
        if m & 0xFFFFFFFF < c:
            floor = (0x100000000 - c) % c
            while m & 0xFFFFFFFF < floor:
                m = uint32() * c
        return m >> 32

    def random():
        return (word() >> 11) * _DOUBLE_UNIT

    def settle():
        bit_generator.advance(used - len(words))
        state = bit_generator.state
        state["has_uint32"], state["uinteger"] = has_half, half
        bit_generator.state = state

    return integers, random, settle


def _grow(columns, X, reach, rows, height_limit, integers, random) -> list[list]:
    """Grow one tree depth-first; return its feature, split, left, right, size and depth.

    ``rows`` lists the tree's sample as indices into ``columns`` (the
    feature columns as lists), ``X`` (the same values as rows) and
    ``reach`` (:func:`_value_reach`).  A node with more rows than the
    reach of its first row has no constant feature and draws from all
    ``d``; the others keep the features on which some row differs from
    the first.  Nodes are numbered in depth-first order, a left child
    directly after its parent; a split writes its leaf children itself.
    ``integers`` and ``random`` come from :func:`_draw_source`.
    """
    d, psi = len(columns), len(rows)
    cap = 2 * psi - 1
    feature, split, left, right = [-1] * cap, [0.0] * cap, [-1] * cap, [-1] * cap
    size, depth = [0] * cap, [0] * cap
    used = 0
    stack = [(rows, 0, -1)]  # rows, depth, parent of a right child
    while stack:
        rows, level, parent = stack.pop()
        node, used, r = used, used + 1, len(rows)
        size[node], depth[node] = r, level
        if parent >= 0:
            right[parent] = node
        if level >= height_limit or r == 1:
            continue
        if r > reach[rows[0]]:
            feat = integers(d)
        else:
            sub = X.take(rows, axis=0)
            candidates = np.flatnonzero((sub != sub[0]).any(axis=0))
            if candidates.size == 0:
                continue  # all points identical
            feat = int(candidates[integers(candidates.size)])
        value = columns[feat].__getitem__
        rows = sorted(rows, key=value)
        low = value(rows[0])
        span = value(rows[-1]) - low
        if not isfinite(span):
            raise OverflowError("high - low range exceeds valid bounds")
        threshold = low + span * random()  # Generator.uniform(low, high)
        k = bisect_left(rows, threshold, key=value)  # rows below the threshold go left
        if not 0 < k < r:
            continue  # degenerate draw at the boundary
        feature[node], split[node], left[node] = feat, threshold, used
        level += 1
        if level < height_limit and k > 1:
            stack.append((rows[k:], level, node))
            stack.append((rows[:k], level, -1))
            continue
        size[used], depth[used] = k, level  # a leaf on the left: the right child follows it
        used += 1
        if level < height_limit and r - k > 1:
            stack.append((rows[k:], level, node))
        else:
            right[node], size[used], depth[used] = used, r - k, level
            used += 1
    return [column[:used] for column in (feature, split, left, right, size, depth)]


def _check_node_table(table: dict, psi: int, n_features: int | None) -> None:
    """Raise ``ValidationError`` unless the walk can score ``table``."""

    def require(ok, message):
        if not ok:
            raise ValidationError(f"IsolationForest {message}")

    offsets, feature, _, left, right, size, _ = (table[k] for k in _NODE_KEYS)
    n_nodes = feature.size
    require(psi >= 2, f"psi must be >= 2, got {psi}")
    require(all(table[k].shape == (n_nodes,) for k in _NODE_KEYS[1:]),
            "node arrays must be 1-D and of equal length")
    counts = np.diff(offsets) if offsets.ndim == 1 else np.zeros(0)
    require(counts.size and offsets[0] == 0 and offsets[-1] == n_nodes and (counts > 0).all(),
            f"node_offsets must rise strictly from 0 to {n_nodes}")
    require(((size >= 1) & (size <= psi)).all(), f"node_size must lie in [1, psi={psi}]")
    require(n_features is None or (feature < n_features).all(),
            f"node_feature must be < n_features={n_features}")
    start = np.repeat(offsets[:-1], counts)
    internal = feature >= 0
    local, end = (np.arange(n_nodes) - start)[internal], np.repeat(counts, counts)[internal]
    for child in (left[internal], right[internal]):
        require(((child > local) & (child < end)).all(),
                "child index must follow its parent's inside their tree")
    level = offsets[:-1]  # the roots; the walk takes ceil(log2 psi) steps from here
    for _ in range(int(np.ceil(np.log2(psi)))):
        level = level[feature[level] >= 0]
        level = np.concatenate((start[level] + left[level], start[level] + right[level]))
    require((feature[level] < 0).all(), f"trees must be at most ceil(log2 psi={psi}) deep")


class IsolationForest(OutlierDetector):
    """Isolation Forest outlier detector.

    Parameters
    ----------
    n_estimators:
        Number of isolation trees (paper default 100).
    max_samples:
        Subsample size ``psi`` per tree (paper default 256); capped at
        the training-set size.
    contamination:
        Optional expected outlier fraction used only to set the
        prediction threshold; scores do not depend on it.
    random_state:
        Seed / generator controlling subsampling and splits.
    """

    def __init__(
        self,
        n_estimators: int = 100,
        max_samples: int = 256,
        contamination: float | None = None,
        random_state=None,
    ):
        super().__init__(contamination=contamination)
        self.n_estimators = check_int(n_estimators, "n_estimators", minimum=1)
        self.max_samples = check_int(max_samples, "max_samples", minimum=2)
        self.random_state = random_state
        self._psi: int | None = None
        self._table: dict[str, np.ndarray] = {}

    def _fit(self, X: np.ndarray) -> None:
        rng = check_random_state(self.random_state)
        n = X.shape[0]
        psi = min(self.max_samples, n)
        if psi < 2:
            raise ValidationError("IsolationForest needs at least 2 training rows")
        height_limit = int(np.ceil(np.log2(psi)))
        reach = _value_reach(X)
        # The list copy of X is made once only while it is no larger than
        # the trees' samples together (module docstring).
        whole = n <= self.n_estimators * psi
        if whole:
            columns, reach_of = X.T.tolist(), reach.tolist()
        table, counts = [[], [], [], [], [], []], []
        for _ in range(self.n_estimators):
            rows = rng.choice(n, size=psi, replace=False)
            if whole:
                sample = (columns, X, reach_of, rows.tolist())
            else:
                sub = X.take(rows, axis=0)
                sample = (sub.T.tolist(), sub, reach.take(rows).tolist(), list(range(psi)))
            # At most psi - 1 splits of 1.5 words each, barring rejections.
            integers, random, settle = _draw_source(rng, 2 * psi + 2)
            try:
                tree = _grow(*sample, height_limit, integers, random)
            finally:
                settle()
            for column, values in zip(table, tree):
                column += values
            counts.append(len(tree[0]))
        dtypes = (np.int64, np.float64, np.int64, np.int64, np.int64, np.int64)
        arrays = [np.array(column, dtype=dtype) for column, dtype in zip(table, dtypes)]
        self._psi = psi
        self._table = dict(zip(_NODE_KEYS, [np.cumsum([0] + counts, dtype=np.int64)] + arrays))

    def _score(self, X: np.ndarray) -> np.ndarray:
        # A lane that reaches a leaf (feature < 0) stays there.  Trees are
        # summed in tree order (cumsum, never pairwise), so a curve's score
        # does not depend on the batch it arrives in.
        offsets, feature, split, left, right, size, depth = (self._table[k] for k in _NODE_KEYS)
        roots = offsets[:-1, None].astype(np.intp)
        n_trees = roots.shape[0]
        steps = int(np.ceil(np.log2(self._psi)))
        c_of_size = average_path_length(np.arange(self._psi + 1))
        block = max(1, _LANE_BLOCK // n_trees)
        depths = np.empty(X.shape[0])
        for start in range(0, X.shape[0], block):
            rows = X[start : start + block]
            flat = rows.ravel()
            row_base = np.arange(rows.shape[0]) * rows.shape[1]
            node = np.repeat(roots, rows.shape[0], axis=1)
            for _ in range(steps):
                feat = np.take(feature, node)
                go_left = np.take(flat, feat + row_base) < np.take(split, node)
                child = np.take(right, node)
                np.copyto(child, np.take(left, node), where=go_left)
                child += roots
                np.copyto(node, child, where=feat >= 0)
            leaf = np.take(depth, node) + np.take(c_of_size, np.take(size, node))
            depths[start : start + block] = np.cumsum(leaf, axis=0)[-1]
        mean_depth = depths / n_trees
        return 2.0 ** (-mean_depth / average_path_length(self._psi))

    def _natural_threshold(self) -> float:
        # Scores above 0.5 indicate shorter-than-random isolation paths.
        return 0.5

    def _export_config(self) -> dict:
        config = super()._export_config()
        config["n_estimators"] = self.n_estimators
        config["max_samples"] = self.max_samples
        # Generators are not JSON-able; the seed only matters at fit time,
        # and a restored forest is already grown, so persist it only when
        # it is a plain int.
        if isinstance(self.random_state, (int, np.integer)):
            config["random_state"] = int(self.random_state)
        return config

    def _export_fitted(self) -> dict:
        return {"psi": self._psi, **self._table}

    def _import_fitted(self, state: dict) -> None:
        table = {k: np.asarray(state[k], dtype=np.float64 if k == "node_split" else np.int64)
                 for k in _NODE_KEYS}
        _check_node_table(table, int(state["psi"]), self.n_features_)
        self._psi = int(state["psi"])
        self._table = table
