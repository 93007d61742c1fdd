import datetime as dt

import numpy as np
import pytest

from corrspectra import (
    BaselineMismatchError,
    FactorSpec,
    NullConfig,
    NullEnsembleStats,
    AssetComponentCorrelations,
    WindowView,
    asset_component_correlations,
    correlation_matrix,
    eigendecompose,
    kaiser_guttman_count,
    max_correlation_rank,
    participation,
    roll_windows,
    scree_exceedance_count,
    scree_significant_count,
    self_correlation_deltas,
    synthetic_factor_panel,
    variance_fractions,
)
from corrspectra.spectral import SpectralDecomposition

from helpers import pearson_pop, random_correlation_window

DATE = dt.date(2005, 6, 3)


def _decomposition(eigenvalues, eigenvectors=None, index=0):
    eigenvalues = np.asarray(eigenvalues, dtype=float)
    n = len(eigenvalues)
    if eigenvectors is None:
        eigenvectors = np.eye(n)
    return SpectralDecomposition(
        window_index=index,
        eigenvalues=eigenvalues,
        eigenvectors=np.asarray(eigenvectors, dtype=float),
    )


def _baseline(scree_mean):
    scree_mean = np.asarray(scree_mean, dtype=float)
    n = len(scree_mean)
    return NullEnsembleStats(
        pr_mean=np.full(n, np.nan),
        pr_std=np.full(n, np.nan),
        scree_mean=scree_mean,
        abs_corr_p99=np.full(n, np.nan),
        config=NullConfig(n_assets=n, window_len=10, sims=1),
    )


def _window_and_decomposition(seed, n_assets=8, n_steps=50):
    rng = np.random.default_rng(seed)
    window = WindowView(0, DATE, random_correlation_window(rng, n_assets, n_steps))
    return window, eigendecompose(correlation_matrix(window))


class TestVarianceFractions:
    def test_simple_spectrum(self):
        fractions = variance_fractions(_decomposition([2.0, 1.0, 1.0, 0.0]))
        assert np.allclose(fractions, [0.5, 0.25, 0.25, 0.0])
        assert np.allclose(np.cumsum(fractions), [0.5, 0.75, 1.0, 1.0])

    def test_rank_one(self):
        fractions = variance_fractions(_decomposition([3.0, 0.0, 0.0]))
        assert np.allclose(fractions, [1.0, 0.0, 0.0])

    def test_flat_spectrum(self):
        fractions = variance_fractions(_decomposition([1.0] * 5))
        assert np.allclose(fractions, 0.2)
        assert abs(np.cumsum(fractions)[-1] - 1.0) <= 1e-8


class TestParticipation:
    def test_uniform_vector(self):
        n = 9
        vectors = np.full((1, n), 1.0 / np.sqrt(n))
        pr = participation(_decomposition([float(n)], vectors))
        assert abs(1.0 / pr[0] - 1.0 / n) <= 1e-14
        assert abs(pr[0] - n) <= 1e-10

    def test_one_hot_vector(self):
        pr = participation(_decomposition([1.0, 1.0], np.eye(2)))
        assert np.allclose(1.0 / pr, 1.0)
        assert np.allclose(pr, 1.0)

    def test_two_asset_vector(self):
        vectors = np.array([[np.sqrt(0.5), np.sqrt(0.5), 0.0]])
        pr = participation(_decomposition([2.0], vectors))
        assert abs(1.0 / pr[0] - 0.5) <= 1e-14
        assert abs(pr[0] - 2.0) <= 1e-12

    def test_bounds_on_real_windows(self):
        _, d = _window_and_decomposition(4, n_assets=10, n_steps=30)
        pr = participation(d)
        assert np.all(pr >= 1.0 - 1e-10)
        assert np.all(pr <= 10.0 + 1e-8)


class TestKaiserGuttman:
    def test_threshold(self):
        assert kaiser_guttman_count(_decomposition([2.5, 1.2, 0.9, 0.4])) == 2

    def test_strict_inequality(self):
        assert kaiser_guttman_count(_decomposition([1.0, 1.0, 1.0])) == 0

    def test_rank_one(self):
        assert kaiser_guttman_count(_decomposition([4.0, 0.0, 0.0, 0.0])) == 1


class TestScreeCounts:
    def test_constructed_crossing(self):
        d = _decomposition([5.0, 2.0, 0.5, 0.1])
        baseline = _baseline([3.0, 1.5, 1.2, 0.2])
        assert scree_significant_count(d.eigenvalues, baseline) == 2

    def test_no_exceedance(self):
        d = _decomposition([3.0, 1.5, 1.2])
        baseline = _baseline([3.0, 1.5, 1.2])
        assert scree_significant_count(d.eigenvalues, baseline) == 0

    def test_prefix_rule_versus_total(self):
        d = _decomposition([5.0, 1.0, 2.0, 0.1])
        baseline = _baseline([3.0, 1.5, 1.2, 0.2])
        assert scree_significant_count(d.eigenvalues, baseline) == 1
        assert scree_exceedance_count(d.eigenvalues, baseline) == 2

    def test_size_mismatch(self):
        d = _decomposition([2.0, 1.0])
        with pytest.raises(BaselineMismatchError):
            scree_significant_count(d.eigenvalues, _baseline([1.0, 1.0, 1.0]))

    def test_sign_flip_invariance(self):
        _, d = _window_and_decomposition(6, n_assets=6, n_steps=25)
        baseline = _baseline(np.linspace(2.0, 0.1, 6))
        flipped = SpectralDecomposition(
            d.window_index, d.eigenvalues, -d.eigenvectors
        )
        assert scree_significant_count(
            d.eigenvalues, baseline
        ) == scree_significant_count(flipped.eigenvalues, baseline)
        assert kaiser_guttman_count(d) == kaiser_guttman_count(flipped)

    def test_combined_counts(self):
        d = _decomposition([5.0, 1.0, 2.0, 0.1], index=7)
        baseline = _baseline([3.0, 1.5, 1.2, 0.2])
        assert d.window_index == 7
        assert kaiser_guttman_count(d) == 2
        assert scree_significant_count(d.eigenvalues, baseline) == 1
        assert scree_exceedance_count(d.eigenvalues, baseline) == 2


class TestAssetComponentCorrelations:
    def test_two_identical_assets(self):
        z = np.array([[1.0, -1.0], [1.0, -1.0]])
        window = WindowView(0, DATE, z)
        d = eigendecompose(correlation_matrix(window))
        corr = asset_component_correlations(d)
        assert abs(corr.abs_r[0, 0] - 1.0) <= 1e-12
        assert abs(corr.abs_r[1, 0] - 1.0) <= 1e-12

    def test_identity_matrix_gives_coefficients(self):
        d = _decomposition([1.0, 1.0, 1.0])
        corr = asset_component_correlations(d)
        assert np.allclose(corr.abs_r, np.eye(3))

    def test_matches_direct_pearson(self):
        window, d = _window_and_decomposition(12, n_assets=7, n_steps=40)
        corr = asset_component_correlations(d)
        components = d.eigenvectors @ window.z_hat
        for i in range(7):
            for k in range(7):
                direct = abs(pearson_pop(window.z_hat[i], components[k]))
                assert abs(corr.abs_r[i, k] - direct) <= 1e-8

    def test_row_energy_is_one(self):
        _, d = _window_and_decomposition(13, n_assets=9, n_steps=60)
        corr = asset_component_correlations(d)
        assert np.abs((corr.abs_r**2).sum(axis=1) - 1.0).max() <= 1e-8

    def test_sign_convention_irrelevant(self):
        _, d = _window_and_decomposition(14, n_assets=5, n_steps=30)
        flipped = SpectralDecomposition(
            d.window_index, d.eigenvalues, -d.eigenvectors
        )
        assert np.allclose(
            asset_component_correlations(d).abs_r,
            asset_component_correlations(flipped).abs_r,
            atol=1e-14,
        )


class TestAdjustedCorrelations:
    def test_fully_localized_component_is_undefined(self):
        d = _decomposition([1.0, 1.0, 1.0], np.eye(3))
        corr = asset_component_correlations(d)
        # component k is asset k alone, so removing the asset leaves nothing
        assert np.all(np.isnan(np.diag(corr.abs_r_adjusted)))

    def test_two_identical_assets_keep_unit_correlation(self):
        z = np.array([[1.0, -1.0], [1.0, -1.0]])
        window = WindowView(0, DATE, z)
        d = eigendecompose(correlation_matrix(window))
        corr = asset_component_correlations(d)
        assert abs(corr.abs_r_adjusted[0, 0] - 1.0) <= 1e-12
        assert abs(corr.abs_r_adjusted[1, 0] - 1.0) <= 1e-12

    # the second shape is the paper's, with T close to N
    @pytest.mark.parametrize("n_assets, n_steps", [(6, 35), (98, 100)])
    def test_matches_loop_oracle(self, n_assets, n_steps):
        window, d = _window_and_decomposition(21, n_assets, n_steps)
        corr = asset_component_correlations(d)
        components = d.eigenvectors @ window.z_hat
        for i in range(n_assets):
            for k in range(6):
                adjusted_series = components[k] - d.eigenvectors[k, i] * window.z_hat[i]
                if adjusted_series.var() <= 1e-14:
                    assert np.isnan(corr.abs_r_adjusted[i, k])
                    continue
                direct = abs(pearson_pop(window.z_hat[i], adjusted_series))
                assert abs(corr.abs_r_adjusted[i, k] - direct) <= 1e-8


def _factor_window(length, seed):
    spec = FactorSpec(
        block_sizes=(30, 30, 30), loadings=(0.9, 0.9, 0.9), noise_std=0.4
    )
    panel = synthetic_factor_panel(spec, length, seed=seed)
    return roll_windows(panel, length)[0]


class TestSelfCorrelationDeltas:
    def test_identical_matrices_give_zero(self):
        _, d = _window_and_decomposition(31, n_assets=5, n_steps=25)
        corr = asset_component_correlations(d)
        corr.abs_r_adjusted = corr.abs_r.copy()
        deltas = self_correlation_deltas(corr, max_rank=3)
        assert all(np.allclose(sample, 0.0) for sample in deltas)

    def test_undefined_entries_skipped(self):
        d = _decomposition([1.0, 1.0, 1.0], np.eye(3))
        corr = asset_component_correlations(d)
        deltas = self_correlation_deltas(corr, max_rank=3)
        assert all(len(sample) == 2 for sample in deltas)

    def test_requires_adjusted(self):
        _, d = _window_and_decomposition(32, n_assets=4, n_steps=20)
        corr = AssetComponentCorrelations(
            d.window_index, asset_component_correlations(d).abs_r)
        with pytest.raises(ValueError):
            self_correlation_deltas(corr, max_rank=2)

    def test_rank_one_self_correlation_is_small(self):
        window = _factor_window(2000, seed=50)
        d = eigendecompose(correlation_matrix(window))
        corr = asset_component_correlations(d)
        deltas = self_correlation_deltas(corr, max_rank=1)
        assert np.median(np.abs(deltas[0])) <= 0.05

    def test_bulk_ranks_show_larger_self_correlation(self):
        # the three planted factors live at ranks 1-3; ranks 4-5 are noise
        # components where removing one asset changes the component more
        medians = []
        for seed in range(5):
            window = _factor_window(2000, seed=60 + seed)
            d = eigendecompose(correlation_matrix(window))
            corr = asset_component_correlations(d)
            deltas = self_correlation_deltas(corr, max_rank=5)
            medians.append([np.median(np.abs(s)) for s in deltas])
        medians = np.array(medians)
        assert np.all(medians[:, :3].max(axis=1) < medians[:, 3:].min(axis=1))


class TestMaxCorrelationRank:
    def test_planted_blocks_align_with_leading_components(self):
        window = _factor_window(2000, seed=80)
        d = eigendecompose(correlation_matrix(window))
        corr = asset_component_correlations(d)
        ranks = max_correlation_rank(corr)
        assert ranks.min() >= 1
        assert set(ranks) <= {1, 2, 3}
