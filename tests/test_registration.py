"""Unit tests for curve registration."""

import numpy as np
import pytest

from repro.exceptions import ValidationError
from repro.fda.fdata import FDataGrid
from repro.fda.registration import shift_register


@pytest.fixture
def shifted_sines(rng):
    """Sine curves with known per-sample phase shifts."""
    grid = np.linspace(0.0, 1.0, 120)
    true_shifts = rng.uniform(-0.08, 0.08, 12)
    values = np.stack([np.sin(2 * np.pi * (grid + s)) for s in true_shifts])
    return FDataGrid(values, grid), true_shifts


class TestShiftRegister:
    def test_recovers_known_shifts(self, shifted_sines):
        data, true_shifts = shifted_sines
        result = shift_register(data, max_shift=0.12, periodic=True, n_candidates=121)
        # Shifts are recovered up to a common offset and a sign flip:
        # x_i(t) = sin(2 pi (t + s_i)) needs evaluation at t - s_i to
        # align, so the estimated shift is -s_i (+ common offset).
        centered_est = result.shifts - result.shifts.mean()
        centered_true = true_shifts - true_shifts.mean()
        np.testing.assert_allclose(centered_est, -centered_true, atol=0.01)

    def test_reduces_pointwise_variance(self, shifted_sines):
        data, _ = shifted_sines
        result = shift_register(data, max_shift=0.12, periodic=True)
        var_before = data.values.var(axis=0).mean()
        var_after = result.aligned.values.var(axis=0).mean()
        assert var_after < 0.2 * var_before

    def test_fixed_template(self, shifted_sines):
        data, _ = shifted_sines
        template = np.sin(2 * np.pi * data.grid)
        result = shift_register(
            data, max_shift=0.12, periodic=True, template=template, n_candidates=121
        )
        # Against the zero-phase template the absolute shifts are recovered.
        residual = result.aligned.values - template[None, :]
        assert np.abs(residual).mean() < 0.05

    def test_clamped_boundaries(self, rng):
        grid = np.linspace(0.0, 1.0, 60)
        values = np.stack([np.exp(-((grid - 0.5 - s) ** 2) / 0.01) for s in (-0.05, 0.0, 0.05)])
        data = FDataGrid(values, grid)
        result = shift_register(data, max_shift=0.1, periodic=False)
        peaks = data.grid[np.argmax(result.aligned.values, axis=1)]
        assert np.ptp(peaks) < 0.03

    def test_template_length_mismatch(self, shifted_sines):
        data, _ = shifted_sines
        with pytest.raises(ValidationError):
            shift_register(data, template=np.zeros(5))

    def test_rejects_arrays(self):
        with pytest.raises(ValidationError):
            shift_register(np.zeros((3, 10)))
