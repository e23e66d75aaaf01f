"""Unit tests for the magnitude-shape plot analysis."""

import os
import subprocess
import sys

import numpy as np
import pytest

from repro.depth.msplot import ms_plot
from repro.exceptions import ValidationError
from repro.fda.fdata import FDataGrid


@pytest.fixture
def mixed_population(rng):
    """Inliers + one magnitude outlier + one shape outlier."""
    grid = np.linspace(0, 1, 50)
    base = np.sin(2 * np.pi * grid)
    values = base[None, :] + 0.1 * rng.standard_normal((30, 50))
    values[28] = base + 3.0                       # magnitude
    values[29] = np.sin(6 * np.pi * grid)         # shape
    return FDataGrid(values, grid)


class TestMsPlot:
    def test_flags_both_outliers(self, mixed_population):
        result = ms_plot(mixed_population, random_state=0)
        assert result.outlier_mask[28]
        assert result.outlier_mask[29]

    def test_type_labels(self, mixed_population):
        result = ms_plot(mixed_population, random_state=0)
        assert result.types[28] in ("magnitude", "mixed")
        assert result.types[29] in ("shape", "mixed")
        # The pure magnitude shift loads on |MO|; the frequency outlier on VO.
        assert result.magnitude[28] > result.magnitude[29]
        assert result.shape[29] > result.shape[28]

    def test_inliers_mostly_unflagged(self, mixed_population):
        result = ms_plot(mixed_population, random_state=0)
        assert result.outlier_mask[:28].sum() <= 3
        assert all(t == "inlier" for i, t in enumerate(result.types[:28])
                   if not result.outlier_mask[i])

    def test_cutoff_respects_alpha(self, mixed_population):
        loose = ms_plot(mixed_population, alpha=0.8, random_state=0)
        strict = ms_plot(mixed_population, alpha=0.999, random_state=0)
        assert strict.cutoff > loose.cutoff
        assert strict.outlier_mask.sum() <= loose.outlier_mask.sum()

    def test_alpha_bounds(self, mixed_population):
        with pytest.raises(ValidationError):
            ms_plot(mixed_population, alpha=1.5)

    def test_too_few_samples(self, rng):
        grid = np.linspace(0, 1, 10)
        data = FDataGrid(rng.standard_normal((3, 10)), grid)
        with pytest.raises(ValidationError):
            ms_plot(data, random_state=0)

    def test_coordinates_match_decomposition(self, mixed_population):
        from repro.depth.dirout import directional_outlyingness

        result = ms_plot(mixed_population, random_state=0)
        decomposition = directional_outlyingness(mixed_population, random_state=0)
        np.testing.assert_allclose(result.magnitude, decomposition.mean_magnitude)
        np.testing.assert_allclose(result.shape, decomposition.variation)


class TestCutoff:
    """``scipy.stats`` is imported inside :func:`ms_plot`, not at module load."""

    @pytest.mark.parametrize("alpha", [0.8, 0.993, 0.999])
    def test_cutoff_is_the_chi2_quantile(self, mixed_population, alpha):
        from scipy import stats

        result = ms_plot(mixed_population, alpha=alpha, random_state=0)
        assert result.cutoff == np.sqrt(stats.chi2.ppf(alpha, df=2))

    def test_works_in_a_process_without_scipy_stats(self, tmp_path):
        script = (
            "import sys\n"
            "import numpy as np\n"
            "from repro.depth.msplot import ms_plot\n"
            "from repro.fda.fdata import FDataGrid\n"
            "assert 'scipy.stats' not in sys.modules\n"
            "grid = np.linspace(0, 1, 50)\n"
            "rng = np.random.default_rng(0)\n"
            "values = np.sin(2 * np.pi * grid) + 0.1 * rng.standard_normal((30, 50))\n"
            "values[29] += 3.0\n"
            "result = ms_plot(FDataGrid(values, grid), random_state=0)\n"
            "print(repr(result.cutoff), bool(result.outlier_mask[29]))\n"
        )
        env = dict(os.environ)
        src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        out = subprocess.run(
            [sys.executable, "-c", script], check=True, env=env,
            capture_output=True, text=True,
        ).stdout.split()
        from scipy import stats

        assert float(out[0]) == np.sqrt(stats.chi2.ppf(0.993, df=2))
        assert out[1] == "True"
