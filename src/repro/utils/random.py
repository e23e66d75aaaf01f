"""Random-state handling.

Every stochastic component in the library accepts a ``random_state``
argument following the familiar convention: ``None`` (fresh entropy), an
``int`` seed, or an existing :class:`numpy.random.Generator` which is
passed through untouched so that callers can thread one generator
through a whole experiment for reproducibility.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import ValidationError

__all__ = ["check_random_state", "spawn_random_states"]


def _int_seed(random_state) -> int | None:
    """``random_state`` as an int seed (NumPy takes only non-negative
    ones), or ``None`` when it is not an integer."""
    if isinstance(random_state, bool) or not isinstance(random_state, (int, np.integer)):
        return None
    if random_state < 0:
        raise ValidationError(f"random seed must be a non-negative integer, got {random_state}")
    return int(random_state)


def check_random_state(random_state=None) -> np.random.Generator:
    """Return a :class:`numpy.random.Generator` for ``random_state``.

    Parameters
    ----------
    random_state:
        ``None``, an integer seed, a :class:`numpy.random.Generator`, or a
        :class:`numpy.random.SeedSequence`.

    Returns
    -------
    numpy.random.Generator
    """
    if random_state is None:
        return np.random.default_rng()
    if isinstance(random_state, np.random.Generator):
        return random_state
    if (seed := _int_seed(random_state)) is not None:
        return np.random.default_rng(seed)
    if isinstance(random_state, np.random.SeedSequence):
        return np.random.default_rng(random_state)
    raise ValidationError(
        "random_state must be None, an int, a numpy Generator or a SeedSequence, "
        f"got {random_state!r}"
    )


def spawn_random_states(random_state, n: int) -> list[np.random.Generator]:
    """Spawn ``n`` statistically independent child generators.

    Used by the repetition harness so each repetition gets its own
    stream: results are then invariant to parallelisation order.
    """
    if n < 0:
        raise ValidationError(f"n must be non-negative, got {n}")
    if isinstance(random_state, np.random.SeedSequence):
        seed_seq = random_state
    elif (seed := _int_seed(random_state)) is not None:
        seed_seq = np.random.SeedSequence(seed)
    elif random_state is None:
        seed_seq = np.random.SeedSequence()
    elif isinstance(random_state, np.random.Generator):
        # Derive children from the generator's own stream.
        seed_seq = np.random.SeedSequence(random_state.integers(0, 2**63 - 1, size=4).tolist())
    else:
        raise ValidationError(f"cannot spawn children from random_state {random_state!r}")
    return [np.random.default_rng(child) for child in seed_seq.spawn(n)]
