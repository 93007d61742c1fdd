import math

import numpy as np
import pytest
from scipy import integrate

from corrspectra import (
    EigenComputationError,
    NullConfig,
    correlation_matrix,
    eigendecompose,
    mp_bounds,
    mp_density,
    null_window,
)

from helpers import charpoly_roots_3x3, random_correlation_window
from synthetic import eigenvector_zscores


def _random_matrix(seed, n_assets=6, n_steps=40):
    rng = np.random.default_rng(seed)
    return correlation_matrix(random_correlation_window(rng, n_assets, n_steps))


class TestEigendecompose:
    def test_identity(self):
        beta, _ = eigendecompose(np.eye(2))
        assert np.allclose(beta, [1.0, 1.0])

    def test_rank_one(self):
        beta, omega = eigendecompose(np.ones((2, 2)))
        assert np.allclose(beta, [2.0, 0.0], atol=1e-12)
        assert np.allclose(omega[0], [math.sqrt(0.5), math.sqrt(0.5)], atol=1e-12)

    def test_matches_charpoly_bisection(self):
        for seed in range(5):
            matrix = _random_matrix(seed, n_assets=3, n_steps=25)
            beta, _ = eigendecompose(matrix)
            roots = charpoly_roots_3x3(matrix)
            assert len(roots) == 3
            assert np.abs(np.array(roots) - beta).max() <= 1e-8

    def test_invariants(self):
        matrix = _random_matrix(17, n_assets=10, n_steps=60)
        beta, omega = eigendecompose(matrix)
        n = 10
        assert np.abs((omega**2).sum(axis=1) - 1.0).max() <= 1e-10
        off = omega @ omega.T - np.eye(n)
        assert np.abs(off).max() <= 1e-8
        recon = omega.T @ (beta[:, None] * omega)
        assert np.abs(recon - matrix).max() <= 1e-8
        assert abs(beta.sum() - n) <= 1e-8
        assert beta[-1] >= -1e-8
        assert np.all(np.diff(beta) <= 1e-14)

    def test_deterministic_and_sign_fixed(self):
        matrix = _random_matrix(23)
        beta1, omega1 = eigendecompose(matrix)
        beta2, omega2 = eigendecompose(matrix)
        assert np.array_equal(omega1, omega2)
        assert np.array_equal(beta1, beta2)
        sums = omega1.sum(axis=1)
        for k, total in enumerate(sums):
            if abs(total) > 1e-12:
                assert total > 0
            else:
                lead = omega1[k][np.argmax(np.abs(omega1[k]))]
                assert lead > 0

    def test_zero_sum_tiebreak(self):
        values = np.array([[1.0, -1.0], [-1.0, 1.0]])
        _, omega = eigendecompose(values)
        # top eigenvector sums to zero; first largest-magnitude entry positive
        assert abs(omega[0].sum()) <= 1e-12
        assert omega[0][0] > 0

    def test_non_psd_rejected(self):
        values = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.999], [0.0, 0.999, 1.0]])
        values[0, 0] = 1.0
        bad = values - 0.002 * np.eye(3)  # trace broken and slightly negative modes
        with pytest.raises(EigenComputationError):
            eigendecompose(bad)

    def test_non_finite_rejected(self):
        values = np.eye(3)
        values[0, 1] = values[1, 0] = np.nan
        with pytest.raises(EigenComputationError, match="^window 4: "):
            eigendecompose(values, label="window 4")

    @pytest.mark.parametrize("label", [(), ("null simulation 3",)],
                             ids=["default", "labelled"])
    def test_solver_failure_names_the_matrix(self, monkeypatch, label):
        def no_convergence(values):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigh", no_convergence)
        name = label[0] if label else "matrix"
        with pytest.raises(EigenComputationError, match=(
                f"^{name}: eigensolver did not converge: Eigenvalues did "
                "not converge$")):
            eigendecompose(np.eye(3), *label)


class TestMPBounds:
    def test_reference_upper_edge(self):
        _, gamma_plus = mp_bounds(1.02)
        assert abs(gamma_plus - 3.9607) <= 1e-4

    def test_square_case(self):
        assert mp_bounds(1.0) == (0.0, 4.0)

    def test_q_four(self):
        gamma_minus, gamma_plus = mp_bounds(4.0)
        assert abs(gamma_minus - 0.25) <= 1e-15
        assert abs(gamma_plus - 2.25) <= 1e-15

    def test_rejects_q_below_one(self):
        with pytest.raises(ValueError):
            mp_bounds(0.5)
        with pytest.raises(ValueError):  # the density's shape, likewise
            mp_density(1.0, 0.5)


class TestMPDensity:
    def test_outside_support(self):
        _, gamma_plus = mp_bounds(1.02)
        assert mp_density(-0.5, 1.02) == 0.0
        assert mp_density(0.0, 1.02) == 0.0
        assert mp_density(gamma_plus + 0.01, 1.02) == 0.0

    def test_square_case_midpoint(self):
        assert abs(mp_density(2.0, 1.0) - 1.0 / (2.0 * math.pi)) <= 1e-15

    @pytest.mark.parametrize("q", [1.0, 1.5, 4.0])
    def test_integrates_to_one(self, q):
        total, err = integrate.quad(
            mp_density,
            *mp_bounds(q),
            args=(q,),
            limit=200,
        )
        assert abs(total - 1.0) <= 1e-6


class TestEigenvectorZscores:
    def _uniform_decomposition(self, n=16):
        return eigendecompose(np.ones((n, n)))

    def test_uniform_vector_gives_ones(self):
        _, omega = self._uniform_decomposition()
        assert np.abs(eigenvector_zscores(omega, 1) - 1.0).max() <= 1e-10

    def test_localized_vector(self):
        _, omega = eigendecompose(np.eye(9))
        scores = eigenvector_zscores(omega, 1)
        assert abs(np.abs(scores).max() - 3.0) <= 1e-12
        assert np.sum(np.abs(scores) > 1e-12) == 1

    def test_rank_bounds(self):
        _, omega = self._uniform_decomposition(4)
        with pytest.raises(ValueError):
            eigenvector_zscores(omega, 0)
        with pytest.raises(ValueError):
            eigenvector_zscores(omega, 5)

    def test_null_ensemble_variance_near_one(self):
        config = NullConfig(n_assets=50, window_len=60, sims=40,
                            master_seed=31)
        pooled = []
        for index in range(config.sims):
            z_hat = null_window(config, index)
            _, omega = eigendecompose(correlation_matrix(z_hat),
                                      f"null simulation {index}")
            for rank in range(1, 51):
                pooled.append(eigenvector_zscores(omega, rank))
        pooled = np.concatenate(pooled)
        assert abs(pooled.var() - 1.0) <= 0.05
