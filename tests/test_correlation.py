import numpy as np
import pytest

from corrspectra import (
    analyze_window,
    coefficient_moments,
    correlation_matrix,
    standardize_window,
)

from helpers import pairwise_corr, random_correlation_window
from synthetic import simulate_gaussian_panel


def _window(rows):
    rows = np.asarray(rows, dtype=float)
    return (rows - rows.mean(axis=1, keepdims=True)) / rows.std(axis=1, keepdims=True)


class TestCorrelationMatrix:
    def test_identical_rows(self):
        m = correlation_matrix(_window([[1.0, -1.0, 2.0], [1.0, -1.0, 2.0]]))
        assert np.allclose(m, [[1.0, 1.0], [1.0, 1.0]], atol=1e-12)

    def test_anticorrelated_rows(self):
        m = correlation_matrix(_window([[1.0, -1.0, 2.0], [-1.0, 1.0, -2.0]]))
        assert abs(m[0, 1] + 1.0) <= 1e-12

    def test_orthogonal_rows(self):
        m = correlation_matrix(_window([[1.0, -1.0, 1.0, -1.0], [1.0, 1.0, -1.0, -1.0]]))
        assert abs(m[0, 1]) <= 1e-15

    def test_matches_pairwise_oracle(self):
        rng = np.random.default_rng(42)
        z_hat = random_correlation_window(rng, 8, 50)
        m = correlation_matrix(z_hat)
        assert np.abs(m - pairwise_corr(z_hat)).max() <= 1e-12

    def test_shift_scale_invariance(self):
        rng = np.random.default_rng(9)
        raw = rng.normal(0.0, 0.05, size=(4, 60))
        scaled = raw.copy()
        scaled[2] = 3.5 * raw[2] + 0.7
        m_raw = correlation_matrix(_window(raw))
        m_scaled = correlation_matrix(_window(scaled))
        assert np.abs(m_raw[2] - m_scaled[2]).max() <= 1e-12

    def test_trace_is_exactly_n(self):
        rng = np.random.default_rng(5)
        m = correlation_matrix(random_correlation_window(rng, 7, 30))
        assert np.trace(m) == 7.0

    def test_symmetry_exact(self):
        rng = np.random.default_rng(6)
        m = correlation_matrix(random_correlation_window(rng, 9, 40))
        assert np.array_equal(m, m.T)

    @pytest.mark.parametrize("analyse", [
        correlation_matrix,
        lambda z: analyze_window(z, max_rank=1, label="window 0"),
    ], ids=["correlation_matrix", "analyze_window"])
    def test_nonfinite_rejected(self, analyse):
        z = np.array([[1.0, -1.0], [np.nan, 1.0]])
        with pytest.raises(ValueError, match="non-finite"):
            analyse(z)


class TestCoefficientMoments:
    def test_degenerate_spread(self):
        values = np.full((3, 3), 0.5)
        np.fill_diagonal(values, 1.0)
        mean, std, skewness, kurtosis = coefficient_moments(values)
        assert mean == 0.5
        assert std == 0.0
        assert np.isnan(skewness) and np.isnan(kurtosis)

    def test_symmetric_coefficients_have_zero_skew(self):
        a = 0.3
        values = np.eye(3)
        values[0, 1] = values[1, 0] = -a
        values[0, 2] = values[2, 0] = 0.0
        values[1, 2] = values[2, 1] = a
        mean, _, skewness, _ = coefficient_moments(values)
        assert abs(skewness) <= 1e-12
        assert abs(mean) <= 1e-15

    def test_requires_three_assets(self):
        with pytest.raises(ValueError):
            coefficient_moments(np.eye(2))

    def test_null_ensemble_kurtosis_matches_sampling_law(self):
        # Independent Gaussian series of length T give coefficients whose
        # squared value is Beta(1/2, (T-2)/2), hence kurtosis 3(T-1)/(T+1).
        # Pooled over windows the sample kurtosis must sit on that value,
        # approaching 3 as T grows.
        n_assets, t_steps, n_windows = 40, 400, 200
        pooled = []
        for s in range(n_windows):
            panel = simulate_gaussian_panel(n_assets, t_steps, seed=1000 + s)
            window = standardize_window(panel, 0, t_steps, 0)
            matrix = correlation_matrix(window)
            coeffs = matrix[np.triu_indices(n_assets, k=1)]
            pooled.append(coeffs)
        pooled = np.concatenate(pooled)
        centered = pooled - pooled.mean()
        kurt = np.mean(centered**4) / np.mean(centered**2) ** 2
        expected = 3.0 * (t_steps - 1) / (t_steps + 1)
        assert abs(kurt - expected) <= 0.05
        assert abs(expected - 3.0) < 0.02
