import datetime as dt
import math

import numpy as np
import pytest
from scipy import integrate

from corrspectra import (
    EigenComputationError,
    NullConfig,
    WindowView,
    correlation_matrix,
    eigendecompose,
    eigenvector_zscores,
    mp_bounds,
    mp_density,
    null_window,
)
from corrspectra.correlation import CorrelationMatrix

from helpers import charpoly_roots_3x3, random_correlation_window

DATE = dt.date(2005, 6, 3)


def _random_matrix(seed, n_assets=6, n_steps=40):
    rng = np.random.default_rng(seed)
    window = WindowView(0, DATE, random_correlation_window(rng, n_assets, n_steps))
    return correlation_matrix(window)


class TestEigendecompose:
    def test_identity(self):
        d = eigendecompose(CorrelationMatrix(0, DATE, np.eye(2)))
        assert np.allclose(d.eigenvalues, [1.0, 1.0])

    def test_rank_one(self):
        d = eigendecompose(CorrelationMatrix(0, DATE, np.ones((2, 2))))
        assert np.allclose(d.eigenvalues, [2.0, 0.0], atol=1e-12)
        assert np.allclose(d.eigenvectors[0], [math.sqrt(0.5), math.sqrt(0.5)], atol=1e-12)

    def test_matches_charpoly_bisection(self):
        for seed in range(5):
            matrix = _random_matrix(seed, n_assets=3, n_steps=25)
            d = eigendecompose(matrix)
            roots = charpoly_roots_3x3(matrix.values)
            assert len(roots) == 3
            assert np.abs(np.array(roots) - d.eigenvalues).max() <= 1e-8

    def test_invariants(self):
        matrix = _random_matrix(17, n_assets=10, n_steps=60)
        d = eigendecompose(matrix)
        n = 10
        assert np.abs((d.eigenvectors**2).sum(axis=1) - 1.0).max() <= 1e-10
        off = d.eigenvectors @ d.eigenvectors.T - np.eye(n)
        assert np.abs(off).max() <= 1e-8
        recon = d.eigenvectors.T @ (d.eigenvalues[:, None] * d.eigenvectors)
        assert np.abs(recon - matrix.values).max() <= 1e-8
        assert abs(d.eigenvalues.sum() - n) <= 1e-8
        assert d.eigenvalues[-1] >= -1e-8
        assert np.all(np.diff(d.eigenvalues) <= 1e-14)

    def test_deterministic_and_sign_fixed(self):
        matrix = _random_matrix(23)
        d1 = eigendecompose(matrix)
        d2 = eigendecompose(matrix)
        assert np.array_equal(d1.eigenvectors, d2.eigenvectors)
        assert np.array_equal(d1.eigenvalues, d2.eigenvalues)
        sums = d1.eigenvectors.sum(axis=1)
        for k, total in enumerate(sums):
            if abs(total) > 1e-12:
                assert total > 0
            else:
                lead = d1.eigenvectors[k][np.argmax(np.abs(d1.eigenvectors[k]))]
                assert lead > 0

    def test_zero_sum_tiebreak(self):
        values = np.array([[1.0, -1.0], [-1.0, 1.0]])
        d = eigendecompose(CorrelationMatrix(0, DATE, values))
        # top eigenvector sums to zero; first largest-magnitude entry positive
        assert abs(d.eigenvectors[0].sum()) <= 1e-12
        assert d.eigenvectors[0][0] > 0

    def test_non_psd_rejected(self):
        values = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.999], [0.0, 0.999, 1.0]])
        values[0, 0] = 1.0
        bad = values - 0.002 * np.eye(3)  # trace broken and slightly negative modes
        with pytest.raises(EigenComputationError):
            eigendecompose(CorrelationMatrix(0, DATE, bad))

    def test_non_finite_rejected(self):
        values = np.eye(3)
        values[0, 1] = values[1, 0] = np.nan
        with pytest.raises(EigenComputationError, match="window 4"):
            eigendecompose(CorrelationMatrix(4, DATE, values))


class TestMPBounds:
    def test_reference_upper_edge(self):
        bounds = mp_bounds(1.02, 1.0)
        assert abs(bounds.gamma_plus - 3.9607) <= 1e-4

    def test_square_case(self):
        bounds = mp_bounds(1.0, 1.0)
        assert bounds.gamma_minus == 0.0
        assert bounds.gamma_plus == 4.0

    def test_q_four(self):
        bounds = mp_bounds(4.0, 1.0)
        assert abs(bounds.gamma_minus - 0.25) <= 1e-15
        assert abs(bounds.gamma_plus - 2.25) <= 1e-15

    def test_rejects_q_below_one(self):
        with pytest.raises(ValueError):
            mp_bounds(0.5)

    def test_sigma_scaling(self):
        bounds = mp_bounds(1.0, 2.0)
        assert bounds.gamma_plus == 8.0


class TestMPDensity:
    def test_outside_support(self):
        bounds = mp_bounds(1.02)
        assert mp_density(-0.5, bounds) == 0.0
        assert mp_density(0.0, bounds) == 0.0
        assert mp_density(bounds.gamma_plus + 0.01, bounds) == 0.0

    def test_square_case_midpoint(self):
        bounds = mp_bounds(1.0)
        assert abs(mp_density(2.0, bounds) - 1.0 / (2.0 * math.pi)) <= 1e-15

    @pytest.mark.parametrize("q", [1.0, 1.5, 4.0])
    def test_integrates_to_one(self, q):
        bounds = mp_bounds(q)
        total, err = integrate.quad(
            mp_density,
            bounds.gamma_minus,
            bounds.gamma_plus,
            args=(bounds,),
            limit=200,
        )
        assert abs(total - 1.0) <= 1e-6


class TestEigenvectorZscores:
    def _uniform_decomposition(self, n=16):
        return eigendecompose(CorrelationMatrix(0, DATE, np.ones((n, n))))

    def test_uniform_vector_gives_ones(self):
        d = self._uniform_decomposition()
        assert np.abs(eigenvector_zscores(d, 1) - 1.0).max() <= 1e-10

    def test_localized_vector(self):
        d = eigendecompose(CorrelationMatrix(0, DATE, np.eye(9)))
        scores = eigenvector_zscores(d, 1)
        assert abs(np.abs(scores).max() - 3.0) <= 1e-12
        assert np.sum(np.abs(scores) > 1e-12) == 1

    def test_rank_bounds(self):
        d = self._uniform_decomposition(4)
        with pytest.raises(ValueError):
            eigenvector_zscores(d, 0)
        with pytest.raises(ValueError):
            eigenvector_zscores(d, 5)

    def test_null_ensemble_variance_near_one(self):
        config = NullConfig(n_assets=50, window_len=60, sims=40,
                            master_seed=31, kind="gaussian")
        pooled = []
        for index in range(config.sims):
            z_hat = null_window(config, index)
            d = eigendecompose(
                correlation_matrix(WindowView(index, DATE, z_hat))
            )
            for rank in range(1, 51):
                pooled.append(eigenvector_zscores(d, rank))
        pooled = np.concatenate(pooled)
        assert abs(pooled.var() - 1.0) <= 0.05
