"""Unit tests for repro.fda.quadrature."""

import numpy as np
import pytest

from repro.core.pipeline import DEFAULT_BASIS_CANDIDATES
from repro.exceptions import ValidationError
from repro.fda import quadrature
from repro.fda.basis import BSplineBasis
from repro.fda.penalty import penalty_matrix
from repro.fda.quadrature import gauss_legendre_nodes, integrate_function, trapezoid_weights


class TestTrapezoidWeights:
    def test_uniform_grid_integral_of_one(self):
        grid = np.linspace(0.0, 2.0, 21)
        w = trapezoid_weights(grid)
        assert w.sum() == pytest.approx(2.0)

    def test_irregular_grid(self):
        grid = np.array([0.0, 0.1, 0.5, 1.0])
        w = trapezoid_weights(grid)
        # Integrating f(t) = t over [0, 1] exactly (trapezoid is exact for linear).
        assert w @ grid == pytest.approx(0.5)

    def test_linear_exactness(self):
        grid = np.sort(np.random.default_rng(0).uniform(0, 1, 30))
        grid[0], grid[-1] = 0.0, 1.0
        w = trapezoid_weights(grid)
        assert w @ (3 * grid + 2) == pytest.approx(3.5)


class TestGaussLegendre:
    def test_polynomial_exactness(self):
        nodes, weights = gauss_legendre_nodes(0.0, 1.0, 5)
        # 5 nodes integrate degree <= 9 exactly.
        assert weights @ nodes**9 == pytest.approx(0.1)

    def test_interval_mapping(self):
        nodes, weights = gauss_legendre_nodes(-2.0, 3.0, 8)
        assert nodes.min() > -2 and nodes.max() < 3
        assert weights.sum() == pytest.approx(5.0)

    def test_invalid_interval(self):
        with pytest.raises(ValidationError):
            gauss_legendre_nodes(1.0, 0.0, 4)

    def test_returned_arrays_are_the_callers(self):
        # The [-1, 1] rule is cached: writing into one call's arrays must
        # not reach the next call.
        nodes, weights = gauss_legendre_nodes(0.0, 1.0, 32)
        expected = (nodes.copy(), weights.copy())
        nodes[:] = -7.0
        weights *= 3.0
        again = gauss_legendre_nodes(0.0, 1.0, 32)
        assert np.array_equal(again[0], expected[0])
        assert np.array_equal(again[1], expected[1])

    def test_cached_rule_is_read_only(self):
        for array in quadrature._leggauss(32):
            with pytest.raises(ValueError):
                array[0] = 0.0


@pytest.mark.parametrize("derivative", [0, 2])
@pytest.mark.parametrize("n_basis", DEFAULT_BASIS_CANDIDATES)
def test_penalty_matrix_same_bits_as_uncached_rule(monkeypatch, n_basis, derivative):
    """Every basis size the pipeline's LOO-CV sweep tries: the cached rule
    gives the penalty matrix that a fresh ``leggauss`` per interval gives."""
    basis = BSplineBasis((0.0, 1.0), n_basis, order=4)
    cached = penalty_matrix(basis, derivative=derivative)
    monkeypatch.setattr(quadrature, "_leggauss", np.polynomial.legendre.leggauss)
    assert np.array_equal(cached, penalty_matrix(basis, derivative=derivative))


class TestIntegrateFunction:
    def test_scalar_integrand(self):
        value = integrate_function(np.sin, 0.0, np.pi)
        assert value == pytest.approx(2.0)

    def test_matrix_integrand(self):
        def outer(points):
            design = np.stack([np.ones_like(points), points], axis=1)
            return design[:, :, None] * design[:, None, :]

        gram = integrate_function(outer, 0.0, 1.0)
        np.testing.assert_allclose(gram, [[1.0, 0.5], [0.5, 1 / 3]], atol=1e-12)

    def test_breakpoints_piecewise(self):
        # |t - 0.5| has a kink: piecewise GL handles it exactly.
        value = integrate_function(
            lambda t: np.abs(t - 0.5), 0.0, 1.0, n_nodes=4, breakpoints=np.array([0.5])
        )
        assert value == pytest.approx(0.25)

    def test_empty_breakpoints(self):
        value = integrate_function(lambda t: t, 0.0, 1.0, breakpoints=np.empty(0))
        assert value == pytest.approx(0.5)
