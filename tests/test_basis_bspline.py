"""Unit tests for the B-spline basis (validated against scipy)."""

import numpy as np
import pytest
from scipy.interpolate import BSpline

from repro.exceptions import BasisError
from repro.fda.basis.bspline import BSplineBasis


@pytest.fixture
def cubic():
    return BSplineBasis((0.0, 1.0), n_basis=9, order=4)


class TestConstruction:
    def test_knot_vector_clamped(self, cubic):
        assert np.all(cubic.knot_vector[:4] == 0.0)
        assert np.all(cubic.knot_vector[-4:] == 1.0)
        assert cubic.knot_vector.shape == (13,)

    def test_degree(self, cubic):
        assert cubic.degree == 3
        assert cubic.max_derivative == 3

    def test_minimal_basis_no_interior_knots(self):
        basis = BSplineBasis((0.0, 1.0), n_basis=4, order=4)
        assert basis.interior_breakpoints.size == 0

    def test_explicit_knots(self):
        basis = BSplineBasis((0.0, 1.0), n_basis=6, order=4, knots=[0.3, 0.7])
        np.testing.assert_allclose(basis.interior_breakpoints, [0.3, 0.7])

    def test_wrong_knot_count(self):
        with pytest.raises(BasisError, match="interior knots"):
            BSplineBasis((0.0, 1.0), n_basis=6, order=4, knots=[0.5])

    def test_knots_outside_domain(self):
        with pytest.raises(BasisError):
            BSplineBasis((0.0, 1.0), n_basis=5, order=4, knots=[1.5])

    def test_unsorted_knots(self):
        with pytest.raises(BasisError):
            BSplineBasis((0.0, 1.0), n_basis=6, order=4, knots=[0.7, 0.3])

    def test_n_basis_below_order(self):
        with pytest.raises(BasisError):
            BSplineBasis((0.0, 1.0), n_basis=3, order=4)

    def test_invalid_domain(self):
        with pytest.raises(BasisError):
            BSplineBasis((1.0, 0.0), n_basis=5)


class TestEvaluation:
    def test_partition_of_unity(self, cubic):
        t = np.linspace(0, 1, 197)
        design = cubic.evaluate(t)
        np.testing.assert_allclose(design.sum(axis=1), 1.0, atol=1e-12)

    def test_nonnegative(self, cubic):
        design = cubic.evaluate(np.linspace(0, 1, 100))
        assert (design >= -1e-14).all()

    def test_matches_scipy_values(self, cubic):
        t = np.linspace(0, 1, 173)
        design = cubic.evaluate(t)
        for l in range(cubic.n_basis):
            coeffs = np.zeros(cubic.n_basis)
            coeffs[l] = 1.0
            ref = np.nan_to_num(
                BSpline(cubic.knot_vector, coeffs, 3, extrapolate=False)(t)
            )
            np.testing.assert_allclose(design[:-1, l], ref[:-1], atol=1e-12)

    @pytest.mark.parametrize("deriv", [1, 2, 3])
    def test_matches_scipy_derivatives(self, cubic, deriv):
        t = np.linspace(0, 1, 173)
        design = cubic.evaluate(t, derivative=deriv)
        for l in range(cubic.n_basis):
            coeffs = np.zeros(cubic.n_basis)
            coeffs[l] = 1.0
            ref = BSpline(cubic.knot_vector, coeffs, 3).derivative(deriv)(t)
            np.testing.assert_allclose(design[1:-1, l], ref[1:-1], atol=1e-6)

    def test_derivative_beyond_degree_rejected(self, cubic):
        """Requesting D^4 of a cubic spline is a caller error (the result
        would be identically zero and a q=4 penalty would not penalize)."""
        with pytest.raises(BasisError, match="derivatives up to"):
            cubic.evaluate(np.linspace(0, 1, 10), derivative=4)

    def test_right_endpoint_well_defined(self, cubic):
        design = cubic.evaluate(np.array([1.0]))
        assert design.sum() == pytest.approx(1.0)
        # At the right endpoint only the last basis function is active.
        assert design[0, -1] == pytest.approx(1.0)

    def test_points_outside_domain_rejected(self, cubic):
        with pytest.raises(BasisError, match="domain"):
            cubic.evaluate(np.array([1.5]))

    def test_scalar_point(self, cubic):
        design = cubic.evaluate(0.5)
        assert design.shape == (1, 9)

    def test_2d_points_rejected(self, cubic):
        with pytest.raises(BasisError):
            cubic.evaluate(np.zeros((2, 2)))

    def test_linear_reproduction(self):
        """Clamped cubic B-splines reproduce linear functions exactly via
        the Greville abscissae."""
        basis = BSplineBasis((0.0, 1.0), n_basis=8, order=4)
        knots = basis.knot_vector
        greville = np.array(
            [knots[l + 1 : l + 4].mean() for l in range(basis.n_basis)]
        )
        t = np.linspace(0, 1, 63)
        design = basis.evaluate(t)
        np.testing.assert_allclose(design @ greville, t, atol=1e-12)


class TestLowerOrders:
    def test_order_two_piecewise_linear(self):
        basis = BSplineBasis((0.0, 1.0), n_basis=5, order=2)
        t = np.linspace(0, 1, 41)
        design = basis.evaluate(t)
        np.testing.assert_allclose(design.sum(axis=1), 1.0, atol=1e-12)
        # Hat functions peak at their own knot with value 1.
        assert design.max() == pytest.approx(1.0)

    def test_order_one_indicators(self):
        basis = BSplineBasis((0.0, 1.0), n_basis=4, order=1)
        design = basis.evaluate(np.array([0.1, 0.3, 0.6, 0.9]))
        np.testing.assert_allclose(design.sum(axis=1), 1.0)
        assert set(np.unique(design)) == {0.0, 1.0}


class TestIdentityPins:
    """Literal pins of the basis identity.

    ``cache_key`` keys the factorization cache and ``to_config()`` is
    written into persisted manifests and hashed into spec identities, so
    both must stay byte-for-byte (and key-order) stable across refactors.
    """

    def test_default_knots(self):
        basis = BSplineBasis((0.0, 1.0), 8)
        assert basis.cache_key == (
            "BSplineBasis", (0.0, 1.0), 8, 4,
            b"\x9a\x99\x99\x99\x99\x99\xc9?\x9a\x99\x99\x99\x99\x99\xd9?"
            b"433333\xe3?\x9a\x99\x99\x99\x99\x99\xe9?",
        )
        config = basis.to_config()
        assert config == {
            "type": "BSplineBasis", "domain": [0.0, 1.0], "n_basis": 8,
            "order": 4, "knots": [0.2, 0.4, 0.6000000000000001, 0.8],
        }
        assert list(config) == ["type", "domain", "n_basis", "order", "knots"]

    def test_explicit_knots(self):
        basis = BSplineBasis((0.0, 2.0), 6, knots=[0.5, 1.25])
        assert basis.cache_key == (
            "BSplineBasis", (0.0, 2.0), 6, 4,
            b"\x00\x00\x00\x00\x00\x00\xe0?\x00\x00\x00\x00\x00\x00\xf4?",
        )
        config = basis.to_config()
        assert config == {
            "type": "BSplineBasis", "domain": [0.0, 2.0], "n_basis": 6,
            "order": 4, "knots": [0.5, 1.25],
        }
        assert list(config) == ["type", "domain", "n_basis", "order", "knots"]

    def test_order_six(self):
        basis = BSplineBasis((-1.0, 1.0), 9, order=6)
        assert basis.cache_key == (
            "BSplineBasis", (-1.0, 1.0), 9, 6,
            b"\x00\x00\x00\x00\x00\x00\xe0\xbf\x00\x00\x00\x00\x00\x00\x00\x00"
            b"\x00\x00\x00\x00\x00\x00\xe0?",
        )
        config = basis.to_config()
        assert config == {
            "type": "BSplineBasis", "domain": [-1.0, 1.0], "n_basis": 9,
            "order": 6, "knots": [-0.5, 0.0, 0.5],
        }
        assert list(config) == ["type", "domain", "n_basis", "order", "knots"]
        assert all(type(v) is float for v in config["domain"] + config["knots"])
