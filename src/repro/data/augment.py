"""UFD → MFD augmentation (paper Sec. 4.1).

The paper turns the univariate ECG series into bivariate MFD by adding
the square of each series as a second parameter — a cheap way to study
the multivariate method on univariate benchmarks.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import ValidationError
from repro.fda.fdata import FDataGrid, MFDataGrid
from repro.utils.validation import check_int

__all__ = ["square_augment", "power_augment"]


def square_augment(data: FDataGrid) -> MFDataGrid:
    """Augment UFD to p = 2 MFD with the squared series (paper's choice)."""
    return power_augment(data, powers=(1, 2))


def power_augment(data: FDataGrid, powers=(1, 2)) -> MFDataGrid:
    """Augment UFD to MFD with elementwise powers of the series.

    ``powers=(1, 2)`` reproduces the paper; other tuples generalize it
    (e.g. ``(1, 2, 3)`` for p = 3 paths usable with the torsion mapping).
    """
    if not isinstance(data, FDataGrid):
        raise ValidationError(f"data must be FDataGrid, got {type(data).__name__}")
    if len(powers) < 1:
        raise ValidationError("need at least one power")
    layers = []
    for power in powers:
        power = check_int(power, "power", minimum=1)
        layers.append(data.values**power)
    return MFDataGrid(np.stack(layers, axis=2), data.grid)
