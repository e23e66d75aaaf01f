"""Unit tests for the functional-data containers."""

import numpy as np
import pytest

from repro.exceptions import ValidationError
from repro.fda.basis import BSplineBasis
from repro.fda.fdata import (
    BasisFData,
    FDataGrid,
    IrregularFData,
    MFDataGrid,
    MultivariateBasisFData,
)


class TestFDataGrid:
    def test_basic_properties(self, unit_grid):
        data = FDataGrid(np.zeros((5, 85)), unit_grid)
        assert data.n_samples == 5
        assert data.n_points == 85
        assert data.domain == (0.0, 1.0)
        assert len(data) == 5

    def test_single_curve_promoted(self, unit_grid):
        data = FDataGrid(np.zeros(85), unit_grid)
        assert data.n_samples == 1

    def test_shape_mismatch(self, unit_grid):
        with pytest.raises(ValidationError):
            FDataGrid(np.zeros((5, 10)), unit_grid)

    def test_indexing_returns_fdatagrid(self, sine_curves):
        sub = sine_curves[2:5]
        assert isinstance(sub, FDataGrid)
        assert sub.n_samples == 3

    def test_single_index(self, sine_curves):
        sub = sine_curves[0]
        assert sub.n_samples == 1

    def test_to_multivariate(self, sine_curves):
        mfd = sine_curves.to_multivariate()
        assert mfd.n_parameters == 1
        np.testing.assert_array_equal(mfd.values[:, :, 0], sine_curves.values)

    def test_rejects_nan(self, unit_grid):
        values = np.zeros((2, 85))
        values[0, 0] = np.nan
        with pytest.raises(ValidationError):
            FDataGrid(values, unit_grid)


class TestMFDataGrid:
    def test_properties(self, circle_mfd):
        assert circle_mfd.n_parameters == 2
        assert circle_mfd.n_samples == 15

    def test_parameter_extraction(self, circle_mfd):
        param = circle_mfd.parameter(1)
        assert isinstance(param, FDataGrid)
        np.testing.assert_array_equal(param.values, circle_mfd.values[:, :, 1])

    def test_parameter_out_of_range(self, circle_mfd):
        with pytest.raises(ValidationError):
            circle_mfd.parameter(2)

    def test_indexing(self, circle_mfd):
        sub = circle_mfd[:4]
        assert sub.n_samples == 4
        single = circle_mfd[0]
        assert single.n_samples == 1

    def test_concat_parameters(self, circle_mfd):
        combined = circle_mfd.concat_parameters(circle_mfd)
        assert combined.n_parameters == 4

    def test_concat_mismatched(self, circle_mfd):
        other = MFDataGrid(circle_mfd.values[:4], circle_mfd.grid)
        with pytest.raises(ValidationError):
            circle_mfd.concat_parameters(other)

    def test_requires_3d(self, unit_grid):
        with pytest.raises(ValidationError):
            MFDataGrid(np.zeros((5, 85)), unit_grid)


class TestIrregularFData:
    def test_construction(self):
        data = IrregularFData(
            [np.array([0.0, 0.5, 1.0]), np.array([0.0, 1.0])],
            [np.array([1.0, 2.0, 3.0]), np.array([4.0, 5.0])],
        )
        assert data.n_samples == 2
        assert data.domain == (0.0, 1.0)

    def test_length_mismatch(self):
        with pytest.raises(ValidationError):
            IrregularFData([np.array([0.0, 1.0])], [])

    def test_value_shape_mismatch(self):
        with pytest.raises(ValidationError):
            IrregularFData([np.array([0.0, 1.0])], [np.array([1.0, 2.0, 3.0])])

    def test_from_grid(self, sine_curves):
        irregular = IrregularFData.from_grid(sine_curves)
        assert irregular.n_samples == sine_curves.n_samples
        np.testing.assert_array_equal(irregular.values[0], sine_curves.values[0])


class TestBasisFData:
    def test_evaluate_shapes(self, unit_grid):
        basis = BSplineBasis((0.0, 1.0), n_basis=6)
        fdata = BasisFData(basis, np.random.default_rng(0).standard_normal((4, 6)))
        out = fdata.evaluate(unit_grid)
        assert out.shape == (4, 85)

    def test_coefficient_mismatch(self):
        basis = BSplineBasis((0.0, 1.0), n_basis=6)
        with pytest.raises(ValidationError):
            BasisFData(basis, np.zeros((3, 5)))

    def test_1d_coefficients_promoted(self):
        basis = BSplineBasis((0.0, 1.0), n_basis=6)
        fdata = BasisFData(basis, np.zeros(6))
        assert fdata.n_samples == 1

    def test_to_grid_roundtrip(self, unit_grid):
        basis = BSplineBasis((0.0, 1.0), n_basis=6)
        coeffs = np.random.default_rng(1).standard_normal((2, 6))
        fdata = BasisFData(basis, coeffs)
        grid_data = fdata.to_grid(unit_grid)
        assert isinstance(grid_data, FDataGrid)
        np.testing.assert_allclose(grid_data.values, fdata.evaluate(unit_grid))

    def test_derivative_linear_combination(self, unit_grid):
        """Eq. 2: D^q x~ equals the coefficient combination of D^q phi."""
        basis = BSplineBasis((0.0, 1.0), n_basis=7)
        coeffs = np.random.default_rng(2).standard_normal((1, 7))
        fdata = BasisFData(basis, coeffs)
        manual = coeffs @ basis.evaluate(unit_grid, derivative=2).T
        np.testing.assert_allclose(fdata.evaluate(unit_grid, derivative=2), manual)


class TestMultivariateBasisFData:
    def _make(self, n_samples=3, sizes=(5, 7)):
        comps = []
        rng = np.random.default_rng(0)
        for size in sizes:
            basis = BSplineBasis((0.0, 1.0), n_basis=size)
            comps.append(BasisFData(basis, rng.standard_normal((n_samples, size))))
        return MultivariateBasisFData(comps)

    def test_properties(self):
        mfd = self._make()
        assert mfd.n_parameters == 2
        assert mfd.n_samples == 3
        assert mfd.domain == (0.0, 1.0)

    def test_evaluate_stacks_parameters(self, unit_grid):
        mfd = self._make()
        out = mfd.evaluate(unit_grid)
        assert out.shape == (3, 85, 2)

    def test_sample_count_mismatch(self):
        basis = BSplineBasis((0.0, 1.0), n_basis=5)
        a = BasisFData(basis, np.zeros((2, 5)))
        b = BasisFData(basis, np.zeros((3, 5)))
        with pytest.raises(ValidationError):
            MultivariateBasisFData([a, b])

    def test_domain_mismatch(self):
        a = BasisFData(BSplineBasis((0.0, 1.0), n_basis=5), np.zeros((2, 5)))
        b = BasisFData(BSplineBasis((0.0, 2.0), n_basis=5), np.zeros((2, 5)))
        with pytest.raises(ValidationError):
            MultivariateBasisFData([a, b])

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            MultivariateBasisFData([])

    def test_to_grid(self, unit_grid):
        mfd = self._make()
        grid_data = mfd.to_grid(unit_grid)
        assert isinstance(grid_data, MFDataGrid)
        assert grid_data.n_parameters == 2
