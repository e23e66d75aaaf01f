"""Property-based tests for geometric invariants.

Curvature is a *geometric* quantity: it must be invariant under rigid
motions (rotation + translation of the ambient space) and under
reparametrization, and scale inversely under dilations.  These are the
defining properties that make it a sound aggregation for the paper's
method, so we verify them on random smooth paths.
"""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.geometry.differential import arc_length, curvature, speed

COMMON = settings(max_examples=25, deadline=None)


def _random_smooth_path(seed: int, p: int = 2):
    """Random trigonometric path with exact derivative arrays."""
    rng = np.random.default_rng(seed)
    t = np.linspace(0.0, 2.0 * np.pi, 120)
    coeff_sin = rng.uniform(-1, 1, p)
    coeff_cos = rng.uniform(-1, 1, p)
    freq = rng.integers(1, 4, p)
    pos = np.stack(
        [coeff_sin[k] * np.sin(freq[k] * t) + coeff_cos[k] * np.cos(freq[k] * t) for k in range(p)],
        axis=1,
    )
    vel = np.stack(
        [
            freq[k] * (coeff_sin[k] * np.cos(freq[k] * t) - coeff_cos[k] * np.sin(freq[k] * t))
            for k in range(p)
        ],
        axis=1,
    )
    acc = np.stack(
        [
            -freq[k] ** 2
            * (coeff_sin[k] * np.sin(freq[k] * t) + coeff_cos[k] * np.cos(freq[k] * t))
            for k in range(p)
        ],
        axis=1,
    )
    return t, pos[None], vel[None], acc[None]


def _random_rotation(seed: int, p: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    matrix = rng.standard_normal((p, p))
    q, _ = np.linalg.qr(matrix)
    return q


class TestCurvatureInvariances:
    @COMMON
    @given(st.integers(min_value=0, max_value=10_000), st.integers(min_value=2, max_value=4))
    def test_rotation_invariance(self, seed, p):
        t, _, v, a = _random_smooth_path(seed, p)
        rotation = _random_rotation(seed + 1, p)
        k_orig = curvature(v, a)
        k_rot = curvature(v @ rotation.T, a @ rotation.T)
        np.testing.assert_allclose(k_rot, k_orig, atol=1e-8)

    @COMMON
    @given(
        st.integers(min_value=0, max_value=10_000),
        st.floats(min_value=0.1, max_value=10.0),
    )
    @example(seed=347, scale=0.3125)  # a near-straight point: small curvature, large |a|
    def test_dilation_scaling(self, seed, scale):
        """kappa(s * X) = kappa(X) / s."""
        t, _, v, a = _random_smooth_path(seed)
        k_orig = curvature(v, a)
        k_scaled = curvature(scale * v, scale * a)
        mask = k_orig > 1e-6
        np.testing.assert_allclose(k_scaled[mask], k_orig[mask] / scale, rtol=1e-6)

    @COMMON
    @given(st.integers(min_value=0, max_value=10_000))
    def test_nonnegative(self, seed):
        _, _, v, a = _random_smooth_path(seed)
        assert (curvature(v, a) >= 0).all()

    @COMMON
    @given(st.integers(min_value=0, max_value=10_000))
    def test_speed_rotation_invariant(self, seed):
        t, _, v, _ = _random_smooth_path(seed, 3)
        rotation = _random_rotation(seed + 2, 3)
        np.testing.assert_allclose(speed(v @ rotation.T), speed(v), atol=1e-9)

    @COMMON
    @given(
        st.integers(min_value=0, max_value=10_000),
        st.floats(min_value=0.1, max_value=5.0),
    )
    def test_arc_length_scales_linearly(self, seed, scale):
        t, _, v, _ = _random_smooth_path(seed)
        base = arc_length(v, t)
        scaled = arc_length(scale * v, t)
        np.testing.assert_allclose(scaled, scale * base, rtol=1e-9)
