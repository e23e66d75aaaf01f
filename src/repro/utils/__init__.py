"""Shared utilities: validation, RNG handling, linear algebra helpers."""

from repro.utils.linalg import pairwise_sq_dists, symmetrize
from repro.utils.random import check_random_state, spawn_random_states
from repro.utils.validation import (
    as_float_array,
    check_grid,
    check_in_range,
    check_int,
    check_matrix,
    check_positive,
    check_vector,
)

__all__ = [
    "as_float_array",
    "check_grid",
    "check_in_range",
    "check_int",
    "check_matrix",
    "check_positive",
    "check_random_state",
    "check_vector",
    "pairwise_sq_dists",
    "spawn_random_states",
    "symmetrize",
]
