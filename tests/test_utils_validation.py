"""Unit tests for repro.utils.validation."""

import numpy as np
import pytest

from repro.exceptions import GridError, ValidationError
from repro.utils.validation import (
    as_float_array,
    check_grid,
    check_in_range,
    check_int,
    check_matrix,
    check_positive,
    check_vector,
)


class TestAsFloatArray:
    def test_converts_lists(self):
        out = as_float_array([1, 2, 3])
        assert out.dtype == np.float64
        np.testing.assert_array_equal(out, [1.0, 2.0, 3.0])

    def test_rejects_nan(self):
        with pytest.raises(ValidationError, match="NaN"):
            as_float_array([1.0, np.nan])

    def test_rejects_inf(self):
        with pytest.raises(ValidationError):
            as_float_array([np.inf])

    def test_rejects_strings(self):
        with pytest.raises(ValidationError):
            as_float_array(["a", "b"])

    def test_empty_array_allowed(self):
        assert as_float_array([]).size == 0

    def test_name_in_message(self):
        with pytest.raises(ValidationError, match="myname"):
            as_float_array([np.nan], name="myname")

    def test_names_bad_samples(self):
        values = np.zeros((8, 5, 2))
        values[2, 1, 0] = np.nan
        values[5, 4, 1] = -np.inf
        with pytest.raises(ValidationError) as info:
            as_float_array(values, name="values")
        assert str(info.value) == (
            "values contains NaN or infinite values in 2 of 8 samples: [2, 5]"
        )

    def test_lists_first_ten_bad_samples(self):
        values = np.zeros((30, 3))
        values[::2, 1] = np.nan
        with pytest.raises(ValidationError) as info:
            as_float_array(values, name="values")
        assert str(info.value).endswith(
            "in 15 of 30 samples: [0, 2, 4, 6, 8, 10, 12, 14, 16, 18]"
        )


class TestCheckVector:
    def test_accepts_vector(self):
        out = check_vector([1.0, 2.0])
        assert out.shape == (2,)

    def test_rejects_matrix(self):
        with pytest.raises(ValidationError, match="one-dimensional"):
            check_vector([[1.0, 2.0]])

    def test_min_length(self):
        with pytest.raises(ValidationError, match="at least 3"):
            check_vector([1.0, 2.0], min_length=3)


class TestCheckMatrix:
    def test_accepts_matrix(self):
        out = check_matrix([[1.0, 2.0], [3.0, 4.0]])
        assert out.shape == (2, 2)

    def test_rejects_vector(self):
        with pytest.raises(ValidationError, match="two-dimensional"):
            check_matrix([1.0, 2.0])

    def test_min_shape(self):
        with pytest.raises(ValidationError):
            check_matrix([[1.0]], min_rows=2)


class TestCheckGrid:
    def test_accepts_increasing(self):
        out = check_grid([0.0, 0.5, 1.0])
        assert out.shape == (3,)

    def test_rejects_decreasing(self):
        with pytest.raises(GridError):
            check_grid([0.0, 1.0, 0.5])

    def test_rejects_duplicates(self):
        with pytest.raises(GridError):
            check_grid([0.0, 0.5, 0.5, 1.0])

    def test_irregular_spacing_ok(self):
        out = check_grid([0.0, 0.1, 0.9, 1.0])
        assert out.shape == (4,)

    def test_min_length(self):
        with pytest.raises(ValidationError):
            check_grid([0.0])


class TestScalarChecks:
    def test_check_positive_strict(self):
        assert check_positive(1.5) == 1.5
        with pytest.raises(ValidationError):
            check_positive(0.0)

    def test_check_positive_nonstrict(self):
        assert check_positive(0.0, strict=False) == 0.0
        with pytest.raises(ValidationError):
            check_positive(-1.0, strict=False)

    def test_check_positive_rejects_nan(self):
        with pytest.raises(ValidationError):
            check_positive(float("nan"))

    @pytest.mark.parametrize("flag", [True, False, np.True_])
    def test_booleans_are_not_numbers(self, flag):
        # JSON `true` must not pass as 1.0 (nor `false` as 0.0).
        with pytest.raises(ValidationError, match="real number"):
            check_positive(flag, strict=False)
        with pytest.raises(ValidationError, match="real number"):
            check_in_range(flag, 0.0, 1.0)

    def test_check_in_range_inclusive(self):
        assert check_in_range(0.0, 0.0, 1.0) == 0.0
        assert check_in_range(1.0, 0.0, 1.0) == 1.0

    def test_check_in_range_exclusive(self):
        with pytest.raises(ValidationError):
            check_in_range(0.0, 0.0, 1.0, inclusive=(False, True))

    def test_check_int_accepts_numpy(self):
        assert check_int(np.int64(5)) == 5

    def test_check_int_rejects_bool(self):
        with pytest.raises(ValidationError):
            check_int(True)

    def test_check_int_rejects_float(self):
        with pytest.raises(ValidationError):
            check_int(1.5)

    def test_check_int_minimum(self):
        with pytest.raises(ValidationError):
            check_int(0, minimum=1)
