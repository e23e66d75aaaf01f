"""Property-based tests (hypothesis) for the basis/smoothing substrate."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fda.basis import BSplineBasis
from repro.fda.smoothing import BasisSmoother

# Keep hypothesis example counts moderate: each example does linear algebra.
COMMON = settings(max_examples=25, deadline=None)


@st.composite
def bspline_config(draw):
    order = draw(st.integers(min_value=2, max_value=5))
    n_basis = draw(st.integers(min_value=order, max_value=18))
    low = draw(st.floats(min_value=-5.0, max_value=5.0))
    length = draw(st.floats(min_value=0.5, max_value=10.0))
    return (low, low + length), n_basis, order


class TestBSplineProperties:
    @COMMON
    @given(bspline_config())
    def test_partition_of_unity(self, config):
        domain, n_basis, order = config
        basis = BSplineBasis(domain, n_basis, order=order)
        t = np.linspace(domain[0], domain[1], 50)
        np.testing.assert_allclose(basis.evaluate(t).sum(axis=1), 1.0, atol=1e-9)

    @COMMON
    @given(bspline_config())
    def test_nonnegativity(self, config):
        domain, n_basis, order = config
        basis = BSplineBasis(domain, n_basis, order=order)
        t = np.linspace(domain[0], domain[1], 50)
        assert (basis.evaluate(t) >= -1e-12).all()

    @COMMON
    @given(bspline_config())
    def test_local_support(self, config):
        """Each B-spline is supported on at most `order` knot spans, so at
        any point at most `order` basis functions are nonzero."""
        domain, n_basis, order = config
        basis = BSplineBasis(domain, n_basis, order=order)
        t = np.linspace(domain[0], domain[1], 64)
        active = (basis.evaluate(t) > 1e-12).sum(axis=1)
        assert (active <= order).all()

    @COMMON
    @given(bspline_config())
    def test_first_derivative_sums_to_zero(self, config):
        """D(sum of basis) = D(1) = 0."""
        domain, n_basis, order = config
        if order < 2:
            return
        basis = BSplineBasis(domain, n_basis, order=order)
        interior = np.linspace(domain[0], domain[1], 30)[1:-1]
        d1 = basis.evaluate(interior, derivative=1)
        np.testing.assert_allclose(d1.sum(axis=1), 0.0, atol=1e-8)


class TestSmootherProperties:
    @COMMON
    @given(
        st.integers(min_value=5, max_value=14),
        st.floats(min_value=0.0, max_value=1.0),
    )
    def test_fit_is_linear_in_data(self, n_basis, lam):
        """alpha*(a y1 + b y2) = a alpha*(y1) + b alpha*(y2): penalized LS
        is a linear operator on the observations."""
        rng = np.random.default_rng(42)
        grid = np.linspace(0, 1, 30)
        basis = BSplineBasis((0.0, 1.0), n_basis)
        smoother = BasisSmoother(basis, smoothing=lam)
        y1 = rng.standard_normal(30)
        y2 = rng.standard_normal(30)
        combined = smoother.fit_sample(grid, 2.0 * y1 - 3.0 * y2)
        separate = 2.0 * smoother.fit_sample(grid, y1) - 3.0 * smoother.fit_sample(grid, y2)
        np.testing.assert_allclose(combined, separate, atol=1e-7)

    @COMMON
    @given(st.floats(min_value=1e-8, max_value=1e4))
    def test_penalty_reduces_roughness(self, lam):
        """Increasing lambda never increases the fitted roughness
        alpha' R alpha relative to the unpenalized fit."""
        rng = np.random.default_rng(7)
        grid = np.linspace(0, 1, 40)
        values = rng.standard_normal(40)
        basis = BSplineBasis((0.0, 1.0), 12)
        rough_fit = BasisSmoother(basis, smoothing=0.0)
        smooth_fit = BasisSmoother(basis, smoothing=lam)
        R = smooth_fit.penalty
        alpha0 = rough_fit.fit_sample(grid, values)
        alpha1 = smooth_fit.fit_sample(grid, values)
        assert alpha1 @ R @ alpha1 <= alpha0 @ R @ alpha0 + 1e-8
