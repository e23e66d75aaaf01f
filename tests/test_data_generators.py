"""Unit tests for the data generators (noise, ECG, taxonomy, augmentation)."""

import numpy as np
import pytest

from repro.data.augment import power_augment, square_augment
from repro.data.ecg import ECGGenerator, ECGWave, make_ecg_dataset
from repro.data.noise import smooth_gaussian_process, white_noise
from repro.data.synthetic import (
    OUTLIER_CLASSES,
    SyntheticMFD,
    make_fig1_dataset,
    make_taxonomy_dataset,
)
from repro.exceptions import ValidationError
from repro.fda.fdata import FDataGrid, MFDataGrid


class TestNoise:
    def test_white_noise_shape_and_scale(self, unit_grid):
        draws = white_noise(200, unit_grid, sigma=0.5, random_state=0)
        assert draws.shape == (200, 85)
        assert draws.std() == pytest.approx(0.5, abs=0.02)

    def test_white_noise_zero_sigma(self, unit_grid):
        draws = white_noise(3, unit_grid, sigma=0.0, random_state=0)
        np.testing.assert_array_equal(draws, 0.0)

    def test_gp_smoothness(self, unit_grid):
        """GP draws are far smoother than white noise: adjacent-point
        correlation must be near 1."""
        draws = smooth_gaussian_process(100, unit_grid, length_scale=0.3, random_state=0)
        diffs = np.diff(draws, axis=1)
        assert np.abs(diffs).mean() < 0.05 * np.abs(draws).mean() + 0.05

    def test_gp_marginal_scale(self, unit_grid):
        draws = smooth_gaussian_process(
            400, unit_grid, amplitude=2.0, length_scale=0.2, random_state=1
        )
        assert draws.std() == pytest.approx(2.0, rel=0.15)

    def test_gp_reproducible(self, unit_grid):
        a = smooth_gaussian_process(2, unit_grid, random_state=3)
        b = smooth_gaussian_process(2, unit_grid, random_state=3)
        np.testing.assert_array_equal(a, b)


class TestECGWave:
    def test_peak_at_location(self):
        wave = ECGWave(amplitude=2.0, location=0.3, width=0.05)
        grid = np.linspace(0, 1, 101)
        values = wave(grid)
        assert values.max() == pytest.approx(2.0, abs=1e-6)
        assert grid[values.argmax()] == pytest.approx(0.3, abs=0.01)


class TestECGGenerator:
    def test_normal_beats_shape(self):
        gen = ECGGenerator(n_points=85, random_state=0)
        beats = gen.normal_beats(10)
        assert beats.shape == (10, 85)

    def test_r_peak_dominates_normal_beats(self):
        gen = ECGGenerator(random_state=0, noise_sigma=0.0, wander_amplitude=0.0)
        beats = gen.normal_beats(20)
        peak_positions = gen.grid[np.argmax(beats, axis=1)]
        # R wave near t = 0.38 (within phase jitter).
        assert np.all(np.abs(peak_positions - 0.38) < 0.1)

    def test_abnormal_tags_valid(self):
        gen = ECGGenerator(random_state=1, mixed_rate=1.0)
        _, tags = gen.abnormal_beats(30)
        for tag in tags:
            parts = tag.split("+")
            assert 1 <= len(parts) <= 2
            assert all(p in ("ischemia", "ventricular", "spike") for p in parts)
            if len(parts) == 2:
                assert parts[0] != parts[1]

    def test_mixed_rate_zero_single_archetype(self):
        gen = ECGGenerator(random_state=2, mixed_rate=0.0)
        _, tags = gen.abnormal_beats(20)
        assert all("+" not in t for t in tags)

    def test_ischemia_depresses_st_segment(self):
        gen = ECGGenerator(random_state=3, noise_sigma=0.0, wander_amplitude=0.0,
                           phase_jitter=0.0)
        normal = gen.normal_beats(30)
        waves = gen._jittered_waves(gen._rng)
        isch = gen._render(gen._apply_ischemia(waves, gen._rng), gen._rng)
        st_region = (gen.grid > 0.47) & (gen.grid < 0.55)
        assert isch[st_region].mean() < normal[:, st_region].mean() - 0.03

    def test_reproducible(self):
        a = ECGGenerator(random_state=5).normal_beats(3)
        b = ECGGenerator(random_state=5).normal_beats(3)
        np.testing.assert_array_equal(a, b)

    def test_invalid_params(self):
        with pytest.raises(ValidationError):
            ECGGenerator(n_points=2)
        with pytest.raises(ValidationError):
            ECGGenerator(jitter=0.9)


class TestMakeEcgDataset:
    def test_shapes_and_labels(self):
        data, labels, tags = make_ecg_dataset(50, 25, random_state=0)
        assert isinstance(data, FDataGrid)
        assert data.n_samples == 75
        assert data.n_points == 85
        assert labels.sum() == 25
        assert tags[:50] == ["normal"] * 50
        assert all(t != "normal" for t in tags[50:])

    def test_no_abnormal(self):
        data, labels, tags = make_ecg_dataset(10, 0, random_state=0)
        assert labels.sum() == 0

    def test_invalid_counts(self):
        with pytest.raises(ValidationError):
            make_ecg_dataset(0, 5)


class TestSyntheticMFD:
    def test_inliers_near_circle(self):
        factory = SyntheticMFD(random_state=0, noise_sigma=0.0, gp_amplitude=0.0)
        paths = factory.inliers(5)
        radii = np.linalg.norm(paths, axis=2)
        np.testing.assert_allclose(radii, 2.0, atol=0.05)

    @pytest.mark.parametrize("kind", OUTLIER_CLASSES)
    def test_all_outlier_classes_generate(self, kind):
        factory = SyntheticMFD(random_state=1)
        out = factory.outliers(3, kind)
        assert out.shape == (3, 85, 2)
        assert np.isfinite(out).all()

    def test_unknown_class(self):
        factory = SyntheticMFD(random_state=0)
        with pytest.raises(ValidationError, match="unknown outlier class"):
            factory.outliers(1, "weird")

    def test_correlation_outlier_marginally_typical(self):
        """Correlation outliers stay in the inlier amplitude range at
        every t (the paper's issue (3): invisible marginally)."""
        factory = SyntheticMFD(random_state=2, noise_sigma=0.0, gp_amplitude=0.0)
        out = factory.outliers(5, "correlation")
        assert np.abs(out).max() <= 2.0 + 1e-6

    def test_magnitude_isolated_has_extreme_points(self):
        factory = SyntheticMFD(random_state=3, noise_sigma=0.0, gp_amplitude=0.0)
        out = factory.outliers(5, "magnitude_isolated")
        assert np.abs(out[:, :, 0]).max() > 2.5


class TestTaxonomyDataset:
    def test_labels_order(self):
        data, labels = make_taxonomy_dataset("shape_persistent", 20, 4, random_state=0)
        assert isinstance(data, MFDataGrid)
        np.testing.assert_array_equal(labels, np.r_[np.zeros(20), np.ones(4)])

    def test_fig1_dataset(self):
        data, labels = make_fig1_dataset(random_state=0)
        assert data.n_samples == 21
        assert labels.sum() == 1
        assert labels[20] == 1
        # The outlier stays inside the inlier range (never extreme).
        inlier_max = np.abs(data.values[:20]).max()
        outlier_max = np.abs(data.values[20]).max()
        assert outlier_max <= inlier_max + 0.3


class TestAugmentation:
    def test_square_augment(self, sine_curves):
        mfd = square_augment(sine_curves)
        assert mfd.n_parameters == 2
        np.testing.assert_allclose(mfd.values[:, :, 1], sine_curves.values**2)

    def test_power_augment_p3(self, sine_curves):
        mfd = power_augment(sine_curves, powers=(1, 2, 3))
        assert mfd.n_parameters == 3
        np.testing.assert_allclose(mfd.values[:, :, 2], sine_curves.values**3)

    def test_rejects_mfd_input(self, circle_mfd):
        with pytest.raises(ValidationError):
            square_augment(circle_mfd)

    def test_invalid_powers(self, sine_curves):
        with pytest.raises(ValidationError):
            power_augment(sine_curves, powers=())
        with pytest.raises(ValidationError):
            power_augment(sine_curves, powers=(0,))
