"""Blocked, fully vectorized kernels for the depth substrate.

Every depth notion in this package used to walk a Python loop over
samples, grid points, curve pairs or random directions.  This module
replaces those loops with whole-array NumPy computations over
memory-bounded blocks:

* **FUNTA** — the O(n²·m) pair loop becomes broadcast sign comparisons
  over cache-sized ``(block × n_ref × m)`` boolean slabs, with tangent
  angles ``arctan``-ed once per curve instead of once per pair and
  gathered only at the (sparse) crossings;
* **pointwise profiles** — projection / halfspace / spatial depth of
  every sample at every grid point is dispatched as whole
  ``(n_samples × n_points)`` cross-sections; halfspace counts come
  from an exact double-argsort rank trick rather than O(n·n_ref)
  boolean comparisons per point;
* **Dir.out** — the per-grid-point Stahel–Donoho and Weiszfeld loops
  become batched matrix ops (projection medians and MADs read off
  in-place sorted lanes; the geometric median iterates all grid points
  simultaneously, freezing columns as they converge).

Scratch memory is bounded by :data:`DEFAULT_BLOCK_BYTES` (~64 MB),
a module constant read at call time, not a parameter: work is cut
into contiguous blocks whose temporaries fit the budget, so huge
inputs stream through a bounded footprint (FUNTA blocks use the
smaller, cache-sized :data:`_FUNTA_BLOCK_CAP`).  Blocks are
independent, so an optional :class:`~repro.engine.ExecutionContext`
fans whole blocks out across an in-process thread pool
(``context.run_blocks``) with results *bit-identical* to the serial
order.

The original loop implementations live in ``tests/oracles.py``: they
are the equivalence oracle the property tests pin these kernels
against.
"""

from __future__ import annotations

import functools
import time

import numpy as np

from repro.exceptions import ValidationError
from repro.utils.linalg import row_blocks
from repro.utils.random import check_random_state

__all__ = [
    "DEFAULT_BLOCK_BYTES",
    "MAD_SCALE",
    "resolve_dtype",
    "draw_directions",
    "rank_counts",
    "funta_univariate",
    "pointwise_profile",
    "sorted_median",
    "batched_stahel_donoho",
    "batched_spatial_median",
    "batched_outlyingness_vectors",
]

#: Scratch budget per block (~64 MB).  Block size changes no output;
#: tests patch this constant to force the multi-block paths.
DEFAULT_BLOCK_BYTES = 64 * 1024 * 1024

#: Consistency factor of the MAD for the normal distribution.
MAD_SCALE = 1.4826

_HALF_PI = np.pi / 2.0

#: Numeric backends the kernels compute in.  float64 is the reference
#: (and the oracle); float32 is the fast path a method selects with its
#: ``dtype`` parameter — half the memory traffic on the slab-shaped
#: temporaries, scores within a pinned ULP distance of the float64
#: oracle (see ``tests/test_float32_path.py``).
SUPPORTED_DTYPES = ("float64", "float32")


def resolve_dtype(dtype) -> np.dtype:
    """Validate a kernel compute dtype (``None`` → float64)."""
    if dtype is None:
        return np.dtype(np.float64)
    try:
        resolved = np.dtype(dtype)
    except TypeError:
        resolved = None
    if resolved is None or resolved.name not in SUPPORTED_DTYPES:
        raise ValidationError(
            f"kernel dtype must be one of {list(SUPPORTED_DTYPES)}, got {dtype!r}"
        )
    return resolved


def _as_dtype_pair(values, ref_values, dtype: np.dtype):
    """Cast a (values, reference) pair to the compute dtype, preserving
    object identity for the self-scoring fast paths (``values is
    ref_values`` stays true after the cast)."""
    same = values is ref_values
    values = np.asarray(values, dtype=dtype)
    ref_values = values if same else np.asarray(ref_values, dtype=dtype)
    return values, ref_values


def draw_directions(random_state, n_directions: int, p: int) -> np.ndarray:
    """Random unit directions plus the coordinate axes — shared by the
    vectorized projection/halfspace paths and the loop oracle in
    ``tests/oracles.py``, so both consume the generator identically."""
    rng = check_random_state(random_state)
    directions = rng.standard_normal((n_directions, p))
    directions = np.vstack([directions, np.eye(p)])
    directions /= np.linalg.norm(directions, axis=1, keepdims=True)
    return directions


def _direction_stack(random_state, n_directions: int, p: int, m: int) -> np.ndarray:
    """One direction set per grid point, drawn exactly like the loop
    oracle in ``tests/oracles.py`` draws them (one
    :func:`check_random_state` resolution per grid point, in grid
    order), so an int seed reproduces the loop oracle's profile
    bit-for-bit and a Generator is consumed in the same order."""
    stack = np.empty((m, n_directions + p, p))
    for j in range(m):
        stack[j] = draw_directions(random_state, n_directions, p)
    return stack


def _run_blocks(worker, blocks, context, arrays=None, label=None):
    """Apply ``worker(block, **arrays)`` to every block, optionally pooled.

    ``arrays`` holds the large read-only inputs (curve cubes, direction
    stacks, tangent angles); every block receives the same objects.
    Without a context the blocks run serially here; with one they go
    through :meth:`~repro.engine.ExecutionContext.run_blocks`, which
    fans whole blocks out over a thread pool when ``n_jobs > 1`` and
    returns results in input order, so the pooled result is
    bit-identical to the serial one.

    When the context carries an enabled telemetry handle, each call
    counts one invocation + ``len(blocks)`` blocks and records its wall
    time under the ``label`` kernel tag — one timestamp pair per
    invocation (never per block), so kernel numerics and per-block cost
    are untouched.
    """
    arrays = dict(arrays or {})
    if context is None:
        return [worker(block, **arrays) for block in blocks]
    telemetry = context.telemetry
    if not telemetry.enabled:
        return context.run_blocks(worker, blocks, arrays=arrays)
    kernel = label or getattr(worker, "__name__", "kernel")
    start = time.perf_counter()
    results = context.run_blocks(worker, blocks, arrays=arrays)
    elapsed = time.perf_counter() - start
    telemetry.counter("depth_kernel_invocations_total", kernel=kernel).inc()
    telemetry.counter("depth_kernel_blocks_total", kernel=kernel).inc(len(blocks))
    telemetry.histogram("depth_kernel_seconds", kernel=kernel).observe(elapsed)
    return results


# --------------------------------------------------------------------------- ranks
def rank_counts(ref_lanes: np.ndarray, pts_lanes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Exact per-lane order statistics of ``pts`` within ``ref``.

    Lanes are rows (axis 0); elements live on the contiguous last axis.
    For every lane ``c`` and every ``pts_lanes[c, i]`` returns

    * ``le[c, i]`` — ``#{k : ref_lanes[c, k] <= pts_lanes[c, i]}``
    * ``lt[c, i]`` — ``#{k : ref_lanes[c, k] <  pts_lanes[c, i]}``

    Three integer-exact strategies, picked by tie structure:

    * ``pts_lanes is ref_lanes`` (the ubiquitous self-reference case,
      where every query ties itself): ranks come from one argsort of
      the lanes plus tie-run boundaries — half the width of the
      stacked problem;
    * clean lanes (no reference value equals a query value): one
      unstable stacked argsort; a query at sorted position ``k`` with
      ``i`` queries before it has exactly ``k - i`` reference entries
      below it, and ``le == lt``, regardless of how the sort ordered
      ref-ref or query-query ties;
    * lanes with cross ties (detected via adjacent mixed-group equal
      pairs — a mixed run always exposes one): re-resolved in a batch
      with full tie-run arithmetic (:func:`_rank_counts_tied`).

    No stable sort anywhere, and the counts match the boolean
    comparisons of the loop oracle in ``tests/oracles.py`` bit for bit.  This is what lets halfspace depth drop
    its per-point comparisons without changing the result.
    """
    if pts_lanes is ref_lanes:
        return _rank_counts_self(ref_lanes)
    n_lanes, n_ref = ref_lanes.shape
    n_pts = pts_lanes.shape[1]
    order, is_pts, bad = _sort_stacked(ref_lanes, pts_lanes)
    positions = np.nonzero(is_pts)[1].reshape(n_lanes, n_pts)
    original = (order[is_pts] - n_ref).reshape(n_lanes, n_pts)
    counts = positions - np.arange(n_pts)[None, :]  # #ref sorted before
    lt = np.empty((n_lanes, n_pts), dtype=np.int64)
    np.put_along_axis(lt, original, counts, axis=1)
    le = lt.copy()
    if bad.any():
        le[bad], lt[bad] = _rank_counts_tied(ref_lanes[bad], pts_lanes[bad])
    return le, lt


def _sort_stacked(ref_lanes: np.ndarray, pts_lanes: np.ndarray):
    """Argsort of every lane of ``ref ++ pts``: the order, which sorted
    entries are queries, and per lane whether some query value equals
    some reference value (a run of equal values that mixes both groups
    always exposes one adjacent mixed pair)."""
    stacked = np.concatenate([ref_lanes, pts_lanes], axis=1)
    order = np.argsort(stacked, axis=1)  # quicksort; tie order irrelevant
    is_pts = order >= ref_lanes.shape[1]
    sorted_vals = np.take_along_axis(stacked, order, axis=1)
    cross_tie = (sorted_vals[:, 1:] == sorted_vals[:, :-1]) & (
        is_pts[:, 1:] != is_pts[:, :-1]
    )
    return order, is_pts, cross_tie.any(axis=1)


def _run_bounds(sorted_vals: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-element tie-run boundaries ``[start, end)`` of sorted lanes."""
    n_lanes, total = sorted_vals.shape
    new_run = np.empty((n_lanes, total), dtype=bool)
    new_run[:, 0] = True
    np.not_equal(sorted_vals[:, 1:], sorted_vals[:, :-1], out=new_run[:, 1:])
    index = np.arange(total, dtype=np.int64)[None, :]
    run_start = np.maximum.accumulate(np.where(new_run, index, 0), axis=1)
    # First run start strictly after k: suffix-min of start marks,
    # shifted one position left.
    end_mark = np.where(new_run, index, total)
    suffix_min = np.minimum.accumulate(end_mark[:, ::-1], axis=1)[:, ::-1]
    run_end = np.concatenate(
        [suffix_min[:, 1:], np.full((n_lanes, 1), total, dtype=np.int64)], axis=1
    )
    return run_start, run_end


def _rank_counts_self(lanes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Rank counts of every lane's values within their own lane.

    For a value in tie run ``[s, e)`` of its sorted lane, ``lt = s``
    and ``le = e`` (the count includes the value itself, exactly as the
    ``reference <= x`` comparison of the loop oracle in
    ``tests/oracles.py`` does when ``x`` is a member of the reference).
    """
    order = np.argsort(lanes, axis=1)
    sorted_vals = np.take_along_axis(lanes, order, axis=1)
    run_start, run_end = _run_bounds(sorted_vals)
    lt = np.empty(lanes.shape, dtype=np.int64)
    le = np.empty(lanes.shape, dtype=np.int64)
    np.put_along_axis(lt, order, run_start, axis=1)
    np.put_along_axis(le, order, run_end, axis=1)
    return le, lt


def _rank_counts_tied(
    ref_lanes: np.ndarray, pts_lanes: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Full tie-run rank counting for lanes with ref/query value ties.

    For a query in tie run ``[s, e)`` of the sorted stacked lane,
    ``lt = #ref before s`` and ``le = #ref before e`` (every reference
    inside the run ties the query) — exact for every tie structure,
    no stable sort required.
    """
    n_lanes, n_ref = ref_lanes.shape
    n_pts = pts_lanes.shape[1]
    total = n_ref + n_pts
    stacked = np.concatenate([ref_lanes, pts_lanes], axis=1)
    order = np.argsort(stacked, axis=1)
    is_pts = order >= n_ref
    sorted_vals = np.take_along_axis(stacked, order, axis=1)
    # Exclusive prefix count of reference entries: Rc[k] = #ref before k.
    ref_count = np.zeros((n_lanes, total + 1), dtype=np.int64)
    np.cumsum(~is_pts, axis=1, out=ref_count[:, 1:])
    run_start, run_end = _run_bounds(sorted_vals)
    positions = np.nonzero(is_pts)[1].reshape(n_lanes, n_pts)
    original = (order[is_pts] - n_ref).reshape(n_lanes, n_pts)
    lt_sorted = np.take_along_axis(
        ref_count, np.take_along_axis(run_start, positions, axis=1), axis=1
    )
    le_sorted = np.take_along_axis(
        ref_count, np.take_along_axis(run_end, positions, axis=1), axis=1
    )
    lt = np.empty((n_lanes, n_pts), dtype=np.int64)
    le = np.empty((n_lanes, n_pts), dtype=np.int64)
    np.put_along_axis(lt, original, lt_sorted, axis=1)
    np.put_along_axis(le, original, le_sorted, axis=1)
    return le, lt


# --------------------------------------------------------------------------- FUNTA
#: Scratch budget of one FUNTA row block, in place of
#: :data:`DEFAULT_BLOCK_BYTES`.  The crossing detection allocates four
#: boolean ``(rows, n_ref, m)`` slabs; under this cap one slab stays at
#: or below 96 KB (a dozen query rows against a 128-curve, 64-point
#: reference), so a block's temporaries stay in a core's L2 cache
#: instead of spilling to memory.
_FUNTA_BLOCK_CAP = 4 * 96 * 1024


def _funta_row_bytes(n_ref: int, m: int) -> int:
    """Scratch per query row of :func:`_funta_cross_stats`: the four
    boolean ``(n_ref, m)`` slabs the tie-aware mask allocates (two sign
    masks, the crossing mask and its sign-flip temporary; the touch mask
    reuses a sign mask).  The tie-free mask needs two of them (``q >= r``
    and the crossing mask), but blocks keep one geometry on both paths."""
    return 4 * max(n_ref, 1) * m


def _funta_blocks(n: int, n_ref: int, m: int) -> list[tuple[int, int]]:
    """Cache-sized row blocks of one FUNTA call."""
    return row_blocks(n, _funta_row_bytes(n_ref, m), _FUNTA_BLOCK_CAP)


def _funta_inputs(values, ref_values, grid, theta_pts, theta_ref, dtype):
    """C-contiguous compute-dtype lanes and tangent angles of one FUNTA call.

    The crossing kernel compares query rows against every reference lane
    once per block, so strided lanes (the streaming scorer's
    ``items[:, :, k]``) are copied once here rather than walked strided
    per block; the angles are gathered through flat indices, so they
    must be contiguous too.
    """
    compute_dtype = resolve_dtype(dtype)
    same = values is ref_values
    values = np.ascontiguousarray(values, dtype=compute_dtype)
    ref_values = values if same else np.ascontiguousarray(ref_values, dtype=compute_dtype)
    dt = np.diff(np.asarray(grid, dtype=compute_dtype))
    if theta_pts is None:
        theta_pts = np.arctan(np.diff(values, axis=1) / dt)
    if theta_ref is None:
        theta_ref = np.arctan(np.diff(ref_values, axis=1) / dt)
    theta_pts = np.ascontiguousarray(theta_pts, dtype=compute_dtype)
    theta_ref = np.ascontiguousarray(theta_ref, dtype=compute_dtype)
    return values, ref_values, theta_pts, theta_ref


def _funta_tied(values: np.ndarray, ref_values: np.ndarray, same: bool) -> bool:
    """Whether one FUNTA call needs the exact tie-aware crossing masks.

    True when some query value equals some reference value at the same
    grid point (with ``same``, when two distinct curves are equal
    there), or when any value is non-finite.  Ties among the queries or
    among the references alone do not count: they never meet in a
    comparison.  The test is exact and sort-based: the cross-tie
    detection of :func:`rank_counts` on one lane per grid point.
    """
    if not (np.isfinite(values).all() and np.isfinite(ref_values).all()):
        return True
    # A plain sort that leaves no two neighbours equal rules out every
    # tie at once, the common continuous case.
    groups = [values.T] if same else [ref_values.T, values.T]
    lanes = np.concatenate(groups, axis=1)
    lanes.sort(axis=1)
    any_tie = bool((lanes[:, 1:] == lanes[:, :-1]).any())
    if same or not any_tie:
        return any_tie
    return bool(_sort_stacked(*groups)[2].any())


def _crossing_mask(q: np.ndarray, r: np.ndarray, tied: bool) -> np.ndarray:
    """``(b, n_ref, m-1)`` mask of the intervals where a query and a
    reference curve cross, for broadcast lanes ``q`` and ``r``."""
    if not tied:
        # Without ties or NaNs, q < r is exactly not (q >= r): a sign
        # flip is a change of q >= r between neighbouring grid points.
        ge = q >= r  # (b, r, m)
        return ge[:, :, :-1] ^ ge[:, :, 1:]
    # Only the signs of query - reference are needed, and for finite
    # values q - r > 0 exactly when q > r: compare instead of subtracting.
    pos = q > r  # (b, r, m)
    neg = q < r
    # A crossing lives in interval t when the sign flips or a curve
    # touches (equal values); a touch at the last grid point folds into
    # the last interval — exactly the interval set the loop oracle in
    # tests/oracles.py collects.
    cross = pos[:, :, :-1] & neg[:, :, 1:]
    cross |= neg[:, :, :-1] & pos[:, :, 1:]
    # Each mask is dropped once folded in, so the peak stays at the
    # slabs _funta_row_bytes budgets.
    touch = np.logical_or(pos, neg, out=pos)
    del neg
    np.logical_not(touch, out=touch)
    cross |= touch[:, :, :-1]
    cross[:, :, -1] |= touch[:, :, -1]
    return cross


def _funta_cross_stats(
    block,
    values: np.ndarray,
    ref_values: np.ndarray,
    theta_pts: np.ndarray,
    theta_ref: np.ndarray,
    same: bool,
    tied: bool,
):
    """Crossing counts, pair validity and gathered crossing angles for one
    contiguous row block — the shared core of every FUNTA path.

    Crossings come back sparse, in C order of ``(row, reference, interval)``:
    ``pair = row * n_ref + reference`` and the folded angle of each one.
    ``tied`` is :func:`_funta_tied` of the whole call; both crossing
    masks are the same set of intervals on untied input.
    """
    start, stop = block
    b = stop - start
    n_ref, m = ref_values.shape
    w = m - 1
    cross = _crossing_mask(values[start:stop, None, :], ref_values[None, :, :], tied)

    valid = np.ones((b, n_ref), dtype=bool)
    if same:
        local = np.arange(b)
        cross[local, start + local, :] = False
        valid[local, start + local] = False

    # Crossings are sparse: unravel their flat C-order indices into
    # (pair, interval) and gather only their angles instead of
    # materializing the dense (b, r, m-1) angle slab.
    flat = np.flatnonzero(cross)
    del cross
    pair = flat // w
    tb = flat - pair * w
    del flat
    ib = pair // n_ref
    jb = pair - ib * n_ref
    counts = np.bincount(pair, minlength=b * n_ref).reshape(b, n_ref)
    angles = theta_pts.reshape(-1)[(ib + start) * w + tb]
    angles -= theta_ref.reshape(-1)[jb * w + tb]
    np.abs(angles, out=angles)
    np.minimum(angles, np.pi - angles, out=angles)
    return b, n_ref, counts, valid, pair, angles


def _funta_pair_totals(
    block,
    values: np.ndarray,
    ref_values: np.ndarray,
    theta_pts: np.ndarray,
    theta_ref: np.ndarray,
    same: bool,
    tied: bool,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-query effective crossing counts and angle sums over the
    reference (the ``trim == 0`` accumulators, before the depth formula).

    The totals are plain sums over reference curves, so totals computed
    against disjoint reference shards combine by addition — the property
    the sharded streaming scorer exploits.
    """
    b, n_ref, counts, valid, pair, angles = _funta_cross_stats(
        block, values, ref_values, theta_pts, theta_ref, same, tied
    )
    sums = np.bincount(pair, weights=angles, minlength=b * n_ref).reshape(b, n_ref)
    # A never-crossing pair contributes one maximal angle (pi/2).
    eff_counts = np.where(valid, np.where(counts > 0, counts, 1), 0)
    eff_sums = np.where(valid, np.where(counts > 0, sums, _HALF_PI), 0.0)
    return eff_counts.sum(axis=1), eff_sums.sum(axis=1)


def _funta_block(
    block,
    values: np.ndarray,
    ref_values: np.ndarray,
    theta_pts: np.ndarray,
    theta_ref: np.ndarray,
    trim: float,
    same: bool,
    tied: bool,
) -> np.ndarray:
    """FUNTA depth of one contiguous row block of ``values``."""
    if trim == 0.0:
        total_counts, total_sums = _funta_pair_totals(
            block, values, ref_values, theta_pts, theta_ref, same, tied
        )
        safe = np.maximum(total_counts, 1)
        depth = np.where(
            total_counts > 0, 1.0 - (total_sums / safe) / _HALF_PI, 1.0
        )
        return np.clip(depth, 0.0, 1.0)

    b, n_ref, counts, valid, pair, angles = _funta_cross_stats(
        block, values, ref_values, theta_pts, theta_ref, same, tied
    )

    # Robustified variant: the trimming quantile needs each sample's full
    # angle multiset, so walk the gathered angles per row (an O(n) loop
    # over contiguous slices — not the O(n²) pair loop).
    depth = np.empty(b)
    bounds = np.searchsorted(pair, np.arange(b + 1) * n_ref)
    missing_counts = (valid & (counts == 0)).sum(axis=1)
    for i in range(b):
        row_angles = angles[bounds[i] : bounds[i + 1]]
        if missing_counts[i]:
            row_angles = np.concatenate(
                [row_angles, np.full(missing_counts[i], _HALF_PI)]
            )
        if row_angles.size == 0:
            depth[i] = 1.0
            continue
        cutoff = np.quantile(row_angles, 1.0 - trim)
        kept = row_angles[row_angles <= cutoff]
        if kept.size:
            row_angles = kept
        depth[i] = 1.0 - float(np.mean(row_angles)) / _HALF_PI
    return np.clip(depth, 0.0, 1.0)


def funta_univariate(
    values: np.ndarray,
    ref_values: np.ndarray,
    grid: np.ndarray,
    trim: float,
    same: bool,
    context=None,
    theta_pts: np.ndarray | None = None,
    theta_ref: np.ndarray | None = None,
    dtype=None,
) -> np.ndarray:
    """Blocked vectorized FUNTA depth (one parameter).

    Tangent angles are ``arctan``-ed once per curve — O((n + n_ref)·m)
    — and the crossing detection runs as one broadcast comparison over
    cache-sized ``(block × n_ref × m)`` boolean slabs.

    ``theta_pts`` / ``theta_ref`` optionally inject precomputed tangent
    angles (``arctan(diff(curves) / diff(grid))``, per curve).  The
    streaming layer maintains the reference angles incrementally in a
    ring buffer, so per-arrival scoring skips the O(n_ref·m) reference
    ``arctan`` entirely; because the cached values are produced by the
    identical elementwise computation, injection is bit-identical to
    recomputing.

    ``dtype`` selects the compute precision of the curves and angles;
    counts and the final aggregation stay float64 either way.
    """
    values, ref_values, theta_pts, theta_ref = _funta_inputs(
        values, ref_values, grid, theta_pts, theta_ref, dtype
    )
    n, m = values.shape
    blocks = _funta_blocks(n, ref_values.shape[0], m)
    tied = _funta_tied(values, ref_values, same)
    worker = functools.partial(_funta_block, trim=trim, same=same, tied=tied)
    arrays = {
        "values": values,
        "ref_values": ref_values,
        "theta_pts": theta_pts,
        "theta_ref": theta_ref,
    }
    return np.concatenate(_run_blocks(worker, blocks, context, arrays, label="funta"))


def funta_partials(
    values: np.ndarray,
    ref_values: np.ndarray,
    grid: np.ndarray,
    theta_pts: np.ndarray | None = None,
    theta_ref: np.ndarray | None = None,
    dtype=None,
) -> tuple[np.ndarray, np.ndarray]:
    """Additive FUNTA accumulators of ``values`` against one reference shard.

    Returns ``(counts, sums)`` of shape ``(n,)``: the effective crossing
    counts and intersection-angle sums of every query curve against this
    reference block (``trim == 0`` semantics, including the pi/2
    contribution of never-crossing pairs).  Because both are plain sums
    over reference curves, partials from disjoint reference shards
    combine by addition; applying the depth formula to the combined
    totals reproduces the single-reference :func:`funta_univariate`
    depth up to floating-point summation order.
    """
    values, ref_values, theta_pts, theta_ref = _funta_inputs(
        values, ref_values, grid, theta_pts, theta_ref, dtype
    )
    n, m = values.shape
    counts = np.empty(n, dtype=np.int64)
    sums = np.empty(n)
    tied = _funta_tied(values, ref_values, same=False)
    for block in _funta_blocks(n, ref_values.shape[0], m):
        c, s = _funta_pair_totals(
            block, values, ref_values, theta_pts, theta_ref, same=False, tied=tied
        )
        counts[block[0] : block[1]] = c
        sums[block[0] : block[1]] = s
    return counts, sums


# --------------------------------------------------------------------------- SDO
def _sdo_1d_columns(pts: np.ndarray, ref: np.ndarray) -> np.ndarray:
    """|x - med| / MAD per column, with the degenerate-MAD guard of the
    loop oracle in ``tests/oracles.py``."""
    med = np.median(ref, axis=0)
    mad = MAD_SCALE * np.median(np.abs(ref - med), axis=0)
    degenerate = mad < 1e-12
    if degenerate.any():
        spread = np.std(ref, axis=0)
        mad = np.where(degenerate, np.where(spread > 1e-12, spread, 1.0), mad)
    return np.abs(pts - med) / mad


def _project_block(cube: np.ndarray, directions: np.ndarray, j0: int, j1: int) -> np.ndarray:
    """Project a grid-point block onto its directions → ``(J, rows, d)``.

    One batched GEMM per block (samples × directions for every grid
    point) — this is the op that replaces the per-grid-point Python
    loop of the loop oracle in ``tests/oracles.py``.
    """
    return np.matmul(
        cube[:, j0:j1].transpose(1, 0, 2), directions[j0:j1].transpose(0, 2, 1)
    )


def sorted_median(lanes: np.ndarray) -> np.ndarray:
    """Median along the last axis of ``lanes``, sorted ascending on it.

    The middle value for an odd length, the halved sum of the two middle
    values for an even one: bit-identical to ``np.median(lanes,
    axis=-1)`` on the unsorted lanes, without its selection pass.  Used
    by :func:`_sdo_block`, which sorts its projection lanes in place
    anyway; callers holding unsorted values should call ``np.median``.
    """
    n = lanes.shape[-1]
    if n % 2:
        return lanes[..., n // 2].copy()
    return (lanes[..., n // 2 - 1] + lanes[..., n // 2]) / 2.0


def _sdo_block(
    block,
    values: np.ndarray,
    ref_values: np.ndarray,
    directions: np.ndarray,
) -> np.ndarray:
    """Stahel–Donoho outlyingness for one contiguous grid-point block.

    One lane-major batched GEMM per cube — ``(J, d, p) @ (J, p, r)``
    lands every direction's projections on the contiguous last axis.
    The reference lanes are sorted in place and the median read off the
    middle; the lanes are then overwritten with their absolute
    deviations, sorted again, and the MAD read off the middle.  One
    in-place sort per statistic beats ``np.median``, whose even-length
    lanes fall back to a generic multi-rank selection, and the in-place
    deviations allocate no new slab.
    """
    j0, j1 = block
    dirs = directions[j0:j1]  # (J, d, p)
    ref_block = ref_values[:, j0:j1].transpose(1, 2, 0)  # (J, p, r)
    ref_lanes = np.matmul(dirs, ref_block)  # (J, d, r)
    if values is ref_values:
        # Self-scoring: queries are the reference projections; copy
        # before the in-place sort reorders the lanes.
        pts_lanes = ref_lanes.copy()
    else:
        pts_lanes = np.matmul(dirs, values[:, j0:j1].transpose(1, 2, 0))  # (J, d, n)
    ref_lanes.sort(axis=2)
    med = sorted_median(ref_lanes)[:, :, None]  # (J, d, 1)
    np.subtract(ref_lanes, med, out=ref_lanes)
    np.abs(ref_lanes, out=ref_lanes)
    ref_lanes.sort(axis=2)
    mad = MAD_SCALE * sorted_median(ref_lanes)  # (J, d)
    degenerate = mad < 1e-12
    if degenerate.any():
        # The lanes now hold deviations, so the degenerate lanes'
        # projections are rebuilt for their spread.  np.std's sum depends
        # on lane order in its last bits; the lanes take the order
        # np.median's in-place partition leaves (its middle ranks plus
        # the last), which tests/data/dirout_golden.npz pins.  A
        # multi-rank partition runs NumPy's scalar introselect, so that
        # order is the same on every CPU.
        lanes = np.matmul(dirs, ref_block)[degenerate]  # (k, r)
        r = lanes.shape[1]
        ranks = [r // 2 - 1, r // 2] if r % 2 == 0 else [r // 2]
        lanes.partition(ranks + [-1], axis=1)
        spread = lanes.std(axis=1)
        mad[degenerate] = np.where(spread > 1e-12, spread, 1.0)
    np.subtract(pts_lanes, med, out=pts_lanes)
    np.abs(pts_lanes, out=pts_lanes)
    pts_lanes /= mad[:, :, None]
    return pts_lanes.max(axis=1).T  # (n, J)


def batched_stahel_donoho(
    values: np.ndarray,
    ref_values: np.ndarray,
    n_directions: int = 200,
    random_state=None,
    context=None,
    dtype=None,
) -> np.ndarray:
    """SDO of every sample at every grid point → ``(n_samples, n_points)``.

    ``values``/``ref_values`` are ``(n, m, p)`` cubes.  Exact (no random
    directions) for p = 1; for p > 1 the per-grid-point direction draws
    replicate the generator consumption of the loop oracle in
    ``tests/oracles.py``, so a seeded run matches it to floating-point
    roundoff.
    """
    compute_dtype = resolve_dtype(dtype)
    values, ref_values = _as_dtype_pair(values, ref_values, compute_dtype)
    n, m, p = values.shape
    if p == 1:
        return _sdo_1d_columns(values[:, :, 0], ref_values[:, :, 0])
    # Directions are drawn in float64 (generator consumption must match
    # the loop oracle in tests/oracles.py exactly), then cast to the
    # compute dtype.
    directions = np.asarray(
        _direction_stack(random_state, n_directions, p, m), dtype=compute_dtype
    )
    n_dir = directions.shape[1]
    bytes_per_col = (n + ref_values.shape[0]) * n_dir * compute_dtype.itemsize * 3.2
    blocks = row_blocks(m, bytes_per_col, DEFAULT_BLOCK_BYTES)
    arrays = {"values": values, "ref_values": ref_values, "directions": directions}
    return np.concatenate(
        _run_blocks(_sdo_block, blocks, context, arrays, label="sdo"), axis=1
    )


# --------------------------------------------------------------------------- halfspace
def _halfspace_exact_columns(pts: np.ndarray, ref: np.ndarray) -> np.ndarray:
    """Exact univariate halfspace depth, every column at once.

    One sort of the reference lanes plus two batched binary searches:
    ``#{ref <= x}`` and ``#{ref >= x}`` are integer-exact, so the result
    matches the boolean-comparison means of the loop oracle in
    ``tests/oracles.py`` bit for bit.
    """
    n_ref = ref.shape[0]
    ref_lanes = np.ascontiguousarray(ref.T)  # (m, n_ref)
    # Preserve object identity so rank_counts can take its self-rank
    # fast path when the cloud is scored against itself.
    pts_lanes = ref_lanes if pts is ref else np.ascontiguousarray(pts.T)
    le, lt = rank_counts(ref_lanes, pts_lanes)
    return (np.minimum(le, n_ref - lt) / n_ref).T


def _halfspace_block(
    block,
    values: np.ndarray,
    ref_values: np.ndarray,
    directions: np.ndarray,
) -> np.ndarray:
    """Random-direction halfspace depth for one grid-point block."""
    j0, j1 = block
    n = values.shape[0]
    n_ref = ref_values.shape[0]
    n_dir = directions.shape[1]
    cols = (j1 - j0) * n_dir
    proj_ref = _project_block(ref_values, directions, j0, j1)  # (J, r, d)
    ref_lanes = np.ascontiguousarray(proj_ref.transpose(0, 2, 1)).reshape(cols, n_ref)
    if values is ref_values:
        pts_lanes = ref_lanes  # identity → self-rank fast path
    else:
        proj_pts = _project_block(values, directions, j0, j1)  # (J, n, d)
        pts_lanes = np.ascontiguousarray(proj_pts.transpose(0, 2, 1)).reshape(cols, n)
    le, lt = rank_counts(ref_lanes, pts_lanes)
    tail = (n_ref - lt) / n_ref  # mean(proj_ref >= proj_pt)
    other = le / n_ref           # mean(proj_ref <= proj_pt)
    depth = np.minimum(tail, other).reshape(j1 - j0, n_dir, n)
    return depth.min(axis=1).T  # (n, J)


def _halfspace_profile(
    values: np.ndarray,
    ref_values: np.ndarray,
    n_directions: int = 500,
    random_state=None,
    context=None,
    dtype=None,
) -> np.ndarray:
    compute_dtype = resolve_dtype(dtype)
    values, ref_values = _as_dtype_pair(values, ref_values, compute_dtype)
    n, m, p = values.shape
    if p == 1:
        pts = values[:, :, 0]
        ref = pts if values is ref_values else ref_values[:, :, 0]
        return _halfspace_exact_columns(pts, ref)
    directions = np.asarray(
        _direction_stack(random_state, n_directions, p, m), dtype=compute_dtype
    )
    n_dir = directions.shape[1]
    bytes_per_col = (n + ref_values.shape[0]) * n_dir * compute_dtype.itemsize * 5.0
    blocks = row_blocks(m, bytes_per_col, DEFAULT_BLOCK_BYTES)
    arrays = {"values": values, "ref_values": ref_values, "directions": directions}
    return np.concatenate(
        _run_blocks(_halfspace_block, blocks, context, arrays, label="halfspace"), axis=1
    )


# --------------------------------------------------------------------------- spatial
def _spatial_block(block, values: np.ndarray, ref_values: np.ndarray) -> np.ndarray:
    """Spatial depth for one grid-point block, all samples at once.

    Zero-distance pairs are dropped, exactly like the ``norms > 1e-12``
    filter of the loop oracle in ``tests/oracles.py``.
    """
    j0, j1 = block
    diffs = values[:, None, j0:j1, :] - ref_values[None, :, j0:j1, :]  # (n, r, J, p)
    sq = diffs[..., 0] ** 2
    for k in range(1, diffs.shape[-1]):
        sq += diffs[..., k] ** 2
    norms = np.sqrt(sq)
    keep = norms > 1e-12
    inv = np.zeros_like(norms)
    np.divide(1.0, norms, out=inv, where=keep)
    units_sum = np.einsum("nr...,nr...p->n...p", inv, diffs)
    count = keep.sum(axis=1)
    mean_units = units_sum / np.maximum(count, 1)[:, :, None]
    depth = 1.0 - np.sqrt(np.sum(mean_units * mean_units, axis=2))
    depth = np.where(count == 0, 1.0, depth)
    return np.clip(depth, 0.0, 1.0)


def _spatial_profile(
    values: np.ndarray,
    ref_values: np.ndarray,
    context=None,
    dtype=None,
) -> np.ndarray:
    compute_dtype = resolve_dtype(dtype)
    values, ref_values = _as_dtype_pair(values, ref_values, compute_dtype)
    n, m, p = values.shape
    bytes_per_col = n * ref_values.shape[0] * (p + 2) * compute_dtype.itemsize * 1.6
    blocks = row_blocks(m, bytes_per_col, DEFAULT_BLOCK_BYTES)
    arrays = {"values": values, "ref_values": ref_values}
    return np.concatenate(
        _run_blocks(_spatial_block, blocks, context, arrays, label="spatial"), axis=1
    )


# --------------------------------------------------------------------------- dispatch
def pointwise_profile(
    values: np.ndarray,
    ref_values: np.ndarray,
    notion: str,
    context=None,
    dtype=None,
    **depth_kwargs,
) -> np.ndarray:
    """Vectorized ``(n_samples, n_points)`` depth profile dispatch.

    ``values``/``ref_values`` are ``(n, m, p)`` cubes sharing a grid.
    ``dtype`` selects the kernel compute precision (float64 default;
    float32 is the fast path — the heavy slab temporaries halve their
    memory traffic while counts and aggregations stay exact).
    """
    compute_dtype = resolve_dtype(dtype)
    values, ref_values = _as_dtype_pair(values, ref_values, compute_dtype)
    if notion == "projection":
        sdo = batched_stahel_donoho(
            values,
            ref_values,
            context=context,
            dtype=dtype,
            **depth_kwargs,
        )
        return 1.0 / (1.0 + sdo)
    if notion == "halfspace":
        return _halfspace_profile(
            values,
            ref_values,
            context=context,
            dtype=dtype,
            **depth_kwargs,
        )
    if notion == "spatial":
        return _spatial_profile(
            values,
            ref_values,
            context=context,
            dtype=dtype,
            **depth_kwargs,
        )
    raise ValidationError(f"unknown depth notion {notion!r}")


# --------------------------------------------------------------------------- Weiszfeld
def batched_spatial_median(
    clouds: np.ndarray,
    max_iter: int = 128,
    tol: float = 1e-9,
    return_iterations: bool = False,
):
    """Weiszfeld geometric medians of all grid-point clouds at once.

    ``clouds`` is ``(n_ref, m, p)``; returns ``(m, p)`` (or, with
    ``return_iterations=True``, a ``(median, iterations)`` pair where
    ``iterations[j]`` counts the update steps column ``j`` performed).
    All columns iterate simultaneously; a column freezes as soon as its
    update step drops below the scale-aware tolerance and is sliced out
    of the working set, so late iterations touch only the stragglers —
    and while nothing has converged yet the full arrays are used
    directly, with no per-iteration gather copy.

    Computes in the dtype of ``clouds``; for float32 the convergence
    tolerance is floored at a few ULPs so the loop cannot spin on
    roundoff noise, and the weight-sum guard scales with the dtype's
    smallest normal instead of a hard-coded float64 constant.
    """
    n_ref, m, p = clouds.shape
    median = clouds.mean(axis=0)  # (m, p)
    eff_tol = max(float(tol), 4.0 * float(np.finfo(median.dtype).eps))
    tiny = float(np.finfo(median.dtype).tiny)
    iterations = np.zeros(m, dtype=np.int64)
    # Column-major working copy, made ONCE: the reference axis lands on
    # a contiguous reduction axis (pairwise summation — the same order
    # the loop oracle in tests/oracles.py uses per column, so results
    # stay bit-identical to it), and slicing converged columns out is a cheap first-axis
    # gather instead of a full advanced-index copy per iteration.
    clouds_t = np.ascontiguousarray(clouds.transpose(1, 0, 2))  # (m, r, p)
    active_idx = np.arange(m)
    for _ in range(max_iter):
        if active_idx.size == 0:
            break
        all_active = active_idx.size == m
        sub = clouds_t if all_active else clouds_t[active_idx]  # (a, r, p)
        current = median if all_active else median[active_idx]  # (a, p)
        diffs = sub - current[:, None, :]
        norms = np.sqrt(np.sum(diffs * diffs, axis=2))  # (a, r)
        keep = norms > 1e-12
        any_keep = keep.any(axis=1)
        weights = np.where(keep, 1.0 / np.where(keep, norms, 1.0), 0.0)
        wsum = weights.sum(axis=1)
        new = np.einsum("ar,arp->ap", weights, sub) / np.maximum(wsum, tiny)[:, None]
        # Columns whose cloud collapsed onto the median keep it (the
        # loop oracle in tests/oracles.py returns the current median in
        # that case).
        new = np.where(any_keep[:, None], new, current)
        step = np.linalg.norm(new - current, axis=1)
        scale = 1.0 + np.linalg.norm(current, axis=1)
        converged = (step < eff_tol * scale) | ~any_keep
        median[active_idx] = new
        iterations[active_idx] += 1
        active_idx = active_idx[~converged]
    if return_iterations:
        return median, iterations
    return median


def batched_outlyingness_vectors(
    values: np.ndarray,
    ref_values: np.ndarray,
    n_directions: int = 200,
    random_state=None,
    context=None,
    max_iter: int = 128,
    tol: float = 1e-9,
    dtype=None,
) -> np.ndarray:
    """Directional outlyingness vectors ``O(X_i(t))`` for all (i, t).

    The batched core of Dir.out: one batched SDO sweep, one batched
    Weiszfeld run for the cross-sectional medians, and a single
    broadcast for the unit directions — no per-grid-point Python loop.
    """
    compute_dtype = resolve_dtype(dtype)
    values, ref_values = _as_dtype_pair(values, ref_values, compute_dtype)
    n, m, p = values.shape
    sdo = batched_stahel_donoho(
        values,
        ref_values,
        n_directions=n_directions,
        random_state=random_state,
        context=context,
        dtype=dtype,
    )
    if p == 1:
        centers = np.median(ref_values[:, :, 0], axis=0)[:, None]  # (m, 1)
    else:
        centers = batched_spatial_median(ref_values, max_iter=max_iter, tol=tol)
    diffs = values - centers[None]
    norms = np.linalg.norm(diffs, axis=2, keepdims=True)
    units = np.divide(diffs, norms, out=np.zeros_like(diffs), where=norms > 1e-12)
    return sdo[:, :, None] * units
