"""Input validation helpers shared across the library.

These mirror the defensive-programming conventions of mature numerical
libraries: every public entry point funnels its array arguments through
one of these helpers so that error messages are uniform and failures
happen early, at the API boundary, rather than deep inside linear
algebra routines.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import GridError, ValidationError

__all__ = [
    "as_float_array",
    "check_matrix",
    "check_vector",
    "check_grid",
    "check_positive",
    "check_in_range",
    "check_int",
]


def as_float_array(values, name: str = "array") -> np.ndarray:
    """Convert ``values`` to a float64 ndarray, rejecting NaN and infinity.

    A non-finite entry rejects the whole array, never just the samples
    that hold it: for arrays of two or more dimensions the error names
    the offending axis-0 indices (the samples, e.g. curves of a scoring
    request) — the first 10 of them and their count — so a caller can
    find and drop them before resubmitting.

    Parameters
    ----------
    values:
        Anything convertible by :func:`numpy.asarray`.
    name:
        Name used in error messages.

    Returns
    -------
    numpy.ndarray
        A float64 array (a copy only when conversion requires one).
    """
    try:
        array = np.asarray(values, dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"{name} is not convertible to a float array: {exc}") from exc
    if array.size and not np.all(np.isfinite(array)):
        message = f"{name} contains NaN or infinite values"
        if array.ndim >= 2:
            finite = np.isfinite(array).reshape(array.shape[0], -1).all(axis=1)
            bad = np.flatnonzero(~finite)
            message += f" in {bad.size} of {array.shape[0]} samples: {bad[:10].tolist()}"
        raise ValidationError(message)
    return array


def check_vector(values, name: str = "vector", min_length: int = 1) -> np.ndarray:
    """Validate a one-dimensional float vector of at least ``min_length`` entries."""
    array = as_float_array(values, name)
    if array.ndim != 1:
        raise ValidationError(f"{name} must be one-dimensional, got shape {array.shape}")
    if array.shape[0] < min_length:
        raise ValidationError(
            f"{name} must have at least {min_length} entries, got {array.shape[0]}"
        )
    return array


def check_matrix(values, name: str = "matrix", min_rows: int = 1, min_cols: int = 1) -> np.ndarray:
    """Validate a two-dimensional float matrix with minimum shape requirements."""
    array = as_float_array(values, name)
    if array.ndim != 2:
        raise ValidationError(f"{name} must be two-dimensional, got shape {array.shape}")
    rows, cols = array.shape
    if rows < min_rows or cols < min_cols:
        raise ValidationError(
            f"{name} must be at least {min_rows}x{min_cols}, got {rows}x{cols}"
        )
    return array


def check_grid(values, name: str = "grid", min_length: int = 2) -> np.ndarray:
    """Validate an evaluation grid: 1-D, strictly increasing, finite.

    Grids index the continuous variable ``t`` of functional data.  Both
    uniform and irregular spacings are accepted; only strict monotonicity
    is required so that quadrature weights and difference quotients are
    well defined.
    """
    array = check_vector(values, name, min_length=min_length)
    if np.any(np.diff(array) <= 0):
        raise GridError(f"{name} must be strictly increasing")
    return array


def _real(value, name: str) -> float:
    """``value`` as a float; booleans are flags, not numbers (JSON ``true``
    would otherwise pass as ``1.0``)."""
    if isinstance(value, (bool, np.bool_)):
        raise ValidationError(f"{name} must be a real number, got {value!r}")
    try:
        return float(value)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"{name} must be a real number, got {value!r}") from exc


def check_positive(value: float, name: str = "value", strict: bool = True) -> float:
    """Validate a positive (or non-negative when ``strict=False``) scalar."""
    number = _real(value, name)
    if not np.isfinite(number):
        raise ValidationError(f"{name} must be finite, got {number!r}")
    if strict and number <= 0:
        raise ValidationError(f"{name} must be strictly positive, got {number!r}")
    if not strict and number < 0:
        raise ValidationError(f"{name} must be non-negative, got {number!r}")
    return number


def check_in_range(
    value: float,
    low: float,
    high: float,
    name: str = "value",
    inclusive: tuple[bool, bool] = (True, True),
) -> float:
    """Validate that a scalar lies in the interval [low, high] (bounds per ``inclusive``)."""
    number = _real(value, name)
    low_ok = number >= low if inclusive[0] else number > low
    high_ok = number <= high if inclusive[1] else number < high
    if not (low_ok and high_ok):
        left = "[" if inclusive[0] else "("
        right = "]" if inclusive[1] else ")"
        raise ValidationError(f"{name} must lie in {left}{low}, {high}{right}, got {number!r}")
    return number


def check_int(value, name: str = "value", minimum: int | None = None) -> int:
    """Validate an integer, optionally with a lower bound."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValidationError(f"{name} must be an integer, got {value!r}")
    number = int(value)
    if minimum is not None and number < minimum:
        raise ValidationError(f"{name} must be >= {minimum}, got {number}")
    return number
