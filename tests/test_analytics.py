import numpy as np
import pytest

from corrspectra import (
    BaselineMismatchError,
    adjusted_component_correlations,
    analyze_window,
    correlation_matrix,
    eigendecompose,
    kaiser_guttman_count,
    participation,
    standardize_window,
    scree_exceedance_count,
    scree_significant_count,
    variance_fractions,
)

from helpers import pearson_pop, random_correlation_window
from synthetic import (
    FactorSpec,
    max_correlation_rank,
    self_correlation_deltas,
    synthetic_factor_panel,
)


def _baseline(scree_mean):
    """The null scree profile the counts take, as a baseline's scree_mean."""
    return np.asarray(scree_mean, dtype=float)


def _window_and_decomposition(seed, n_assets=8, n_steps=50):
    rng = np.random.default_rng(seed)
    z_hat = random_correlation_window(rng, n_assets, n_steps)
    return z_hat, eigendecompose(correlation_matrix(z_hat))


def _correlations(z_hat):
    """(abs_r, abs_r_adjusted) of every rank of the window `z_hat`."""
    _, beta, omega, _, abs_r = analyze_window(z_hat, len(z_hat), "window 0")
    return abs_r, adjusted_component_correlations(beta, omega)


def _flip(z_hat):
    """`z_hat` with every other asset negated, from the second on."""
    return z_hat * np.where(np.arange(len(z_hat)) % 2, -1.0, 1.0)[:, None]


# orthogonal rows of mean 0 and std 1: the correlation matrix is I exactly
_IDENTITY_WINDOW = np.array([[1.0, -1.0, 1.0, -1.0],
                             [1.0, 1.0, -1.0, -1.0],
                             [1.0, -1.0, -1.0, 1.0]])


class TestAnalyzeWindow:
    @pytest.mark.parametrize("max_rank", [-1, 6])
    def test_max_rank_outside_the_assets_rejected(self, max_rank):
        z_hat, _ = _window_and_decomposition(3, n_assets=5, n_steps=20)
        message = rf"max_rank must be in \[0, 5\], got {max_rank}"
        with pytest.raises(ValueError, match=message):
            analyze_window(z_hat, max_rank, "window 0")

    @pytest.mark.parametrize("max_rank", [0, 5])
    def test_max_rank_at_either_end(self, max_rank):
        z_hat, (beta, omega) = _window_and_decomposition(3, n_assets=5,
                                                         n_steps=20)
        abs_r = analyze_window(z_hat, max_rank, "window 0")[4]
        assert abs_r.shape == (5, max_rank)
        assert np.array_equal(abs_r, np.abs(omega[:max_rank].T)
                              * np.sqrt(beta[:max_rank]))


class TestVarianceFractions:
    def test_simple_spectrum(self):
        fractions = variance_fractions(np.array([2.0, 1.0, 1.0, 0.0]))
        assert np.allclose(fractions, [0.5, 0.25, 0.25, 0.0])
        assert np.allclose(np.cumsum(fractions), [0.5, 0.75, 1.0, 1.0])

    def test_rank_one(self):
        fractions = variance_fractions(np.array([3.0, 0.0, 0.0]))
        assert np.allclose(fractions, [1.0, 0.0, 0.0])

    def test_flat_spectrum(self):
        fractions = variance_fractions(np.array([1.0] * 5))
        assert np.allclose(fractions, 0.2)
        assert abs(np.cumsum(fractions)[-1] - 1.0) <= 1e-8


class TestParticipation:
    def test_uniform_vector(self):
        n = 9
        vectors = np.full((1, n), 1.0 / np.sqrt(n))
        pr = participation(vectors)
        assert abs(1.0 / pr[0] - 1.0 / n) <= 1e-14
        assert abs(pr[0] - n) <= 1e-10

    def test_one_hot_vector(self):
        pr = participation(np.eye(2))
        assert np.allclose(1.0 / pr, 1.0)
        assert np.allclose(pr, 1.0)

    def test_two_asset_vector(self):
        vectors = np.array([[np.sqrt(0.5), np.sqrt(0.5), 0.0]])
        pr = participation(vectors)
        assert abs(1.0 / pr[0] - 0.5) <= 1e-14
        assert abs(pr[0] - 2.0) <= 1e-12

    def test_bounds_on_real_windows(self):
        _, (_, omega) = _window_and_decomposition(4, n_assets=10, n_steps=30)
        pr = participation(omega)
        assert np.all(pr >= 1.0 - 1e-10)
        assert np.all(pr <= 10.0 + 1e-8)


class TestKaiserGuttman:
    def test_threshold(self):
        assert kaiser_guttman_count(np.array([2.5, 1.2, 0.9, 0.4])) == 2

    def test_strict_inequality(self):
        assert kaiser_guttman_count(np.array([1.0, 1.0, 1.0])) == 0

    def test_rank_one(self):
        assert kaiser_guttman_count(np.array([4.0, 0.0, 0.0, 0.0])) == 1


class TestScreeCounts:
    def test_constructed_crossing(self):
        eigenvalues = np.array([5.0, 2.0, 0.5, 0.1])
        baseline = _baseline([3.0, 1.5, 1.2, 0.2])
        assert scree_significant_count(eigenvalues, baseline) == 2

    def test_no_exceedance(self):
        eigenvalues = np.array([3.0, 1.5, 1.2])
        baseline = _baseline([3.0, 1.5, 1.2])
        assert scree_significant_count(eigenvalues, baseline) == 0

    def test_prefix_rule_versus_total(self):
        eigenvalues = np.array([5.0, 1.0, 2.0, 0.1])
        baseline = _baseline([3.0, 1.5, 1.2, 0.2])
        assert scree_significant_count(eigenvalues, baseline) == 1
        assert scree_exceedance_count(eigenvalues, baseline) == 2

    def test_every_rank_above(self):
        eigenvalues = np.array([5.0, 2.0, 1.3, 0.3])
        baseline = _baseline([3.0, 1.5, 1.2, 0.2])
        assert scree_significant_count(eigenvalues, baseline) == 4
        assert scree_exceedance_count(eigenvalues, baseline) == 4

    def test_nan_ends_the_leading_run(self):
        # NaN on either side is not above the profile
        eigenvalues = np.array([5.0, 2.0, 1.3, 0.3])
        assert scree_significant_count(
            eigenvalues, _baseline([3.0, np.nan, 1.2, 0.2])) == 1
        eigenvalues = np.array([5.0, np.nan, 1.3, 0.3])
        assert scree_significant_count(
            eigenvalues, _baseline([3.0, 1.5, 1.2, 0.2])) == 1

    def test_matches_the_loop(self):
        # the leading run as a loop counts it, NaN on either side included
        rng = np.random.default_rng(11)
        for _ in range(500):
            n = int(rng.integers(2, 8))
            observed, null = rng.normal(size=(2, n))
            observed[rng.random(n) < 0.1] = np.nan
            null[rng.random(n) < 0.1] = np.nan
            count = 0
            while count < n and observed[count] > null[count]:
                count += 1
            assert scree_significant_count(observed, _baseline(null)) == count

    def test_size_mismatch(self):
        # a length-1 profile would broadcast against any spectrum
        eigenvalues = np.array([2.0, 1.0])
        for profile in ([1.0, 1.0, 1.0], [1.0]):
            for count in (scree_significant_count, scree_exceedance_count):
                with pytest.raises(BaselineMismatchError,
                                   match=f"baseline is for N={len(profile)}, "
                                         "window has N=2"):
                    count(eigenvalues, _baseline(profile))

    def test_sign_flip_invariance(self):
        z_hat, (eigenvalues, _) = _window_and_decomposition(
            6, n_assets=6, n_steps=25)
        baseline = _baseline(np.linspace(2.0, 0.1, 6))
        # negating assets negates their entries of every eigenvector
        flipped_values, _ = eigendecompose(correlation_matrix(_flip(z_hat)))
        assert scree_significant_count(
            eigenvalues, baseline
        ) == scree_significant_count(flipped_values, baseline)
        assert kaiser_guttman_count(eigenvalues) == kaiser_guttman_count(
            flipped_values)

    def test_combined_counts(self):
        eigenvalues = np.array([5.0, 1.0, 2.0, 0.1])
        baseline = _baseline([3.0, 1.5, 1.2, 0.2])
        assert kaiser_guttman_count(eigenvalues) == 2
        assert scree_significant_count(eigenvalues, baseline) == 1
        assert scree_exceedance_count(eigenvalues, baseline) == 2


class TestAssetComponentCorrelations:
    def test_two_identical_assets(self):
        z = np.array([[1.0, -1.0], [1.0, -1.0]])
        abs_r, _ = _correlations(z)
        assert abs(abs_r[0, 0] - 1.0) <= 1e-12
        assert abs(abs_r[1, 0] - 1.0) <= 1e-12

    def test_identity_matrix_gives_coefficients(self):
        values, _, omega, _, abs_r = analyze_window(_IDENTITY_WINDOW, 3,
                                                    "window 0")
        assert np.array_equal(values, np.eye(3))
        assert np.allclose(abs_r, np.abs(omega.T))
        assert np.allclose(np.sort(abs_r, axis=1), [0.0, 0.0, 1.0])

    def test_matches_direct_pearson(self):
        z_hat, _ = _window_and_decomposition(12, n_assets=7, n_steps=40)
        _, _, omega, _, abs_r = analyze_window(z_hat, 7, "window 0")
        components = omega @ z_hat
        for i in range(7):
            for k in range(7):
                direct = abs(pearson_pop(z_hat[i], components[k]))
                assert abs(abs_r[i, k] - direct) <= 1e-8

    def test_row_energy_is_one(self):
        z_hat, _ = _window_and_decomposition(13, n_assets=9, n_steps=60)
        abs_r, _ = _correlations(z_hat)
        assert np.abs((abs_r**2).sum(axis=1) - 1.0).max() <= 1e-8

    def test_sign_convention_irrelevant(self):
        z_hat, _ = _window_and_decomposition(14, n_assets=5, n_steps=30)
        assert np.allclose(
            _correlations(z_hat)[0],
            _correlations(_flip(z_hat))[0],
            atol=1e-14,
        )


class TestAdjustedCorrelations:
    def test_fully_localized_component_is_undefined(self):
        abs_r_adjusted = adjusted_component_correlations(np.ones(3), np.eye(3))
        # component k is asset k alone, so removing the asset leaves nothing
        assert np.all(np.isnan(np.diag(abs_r_adjusted)))

    def test_two_identical_assets_keep_unit_correlation(self):
        z = np.array([[1.0, -1.0], [1.0, -1.0]])
        _, abs_r_adjusted = _correlations(z)
        assert abs(abs_r_adjusted[0, 0] - 1.0) <= 1e-12
        assert abs(abs_r_adjusted[1, 0] - 1.0) <= 1e-12

    # the second shape is the paper's, with T close to N
    @pytest.mark.parametrize("n_assets, n_steps", [(6, 35), (98, 100)])
    def test_matches_loop_oracle(self, n_assets, n_steps):
        z_hat, (beta, omega) = _window_and_decomposition(21, n_assets, n_steps)
        abs_r_adjusted = adjusted_component_correlations(beta, omega)
        components = omega @ z_hat
        for i in range(n_assets):
            for k in range(6):
                adjusted_series = components[k] - omega[k, i] * z_hat[i]
                if adjusted_series.var() <= 1e-14:
                    assert np.isnan(abs_r_adjusted[i, k])
                    continue
                direct = abs(pearson_pop(z_hat[i], adjusted_series))
                assert abs(abs_r_adjusted[i, k] - direct) <= 1e-8


def _factor_window(length, seed):
    spec = FactorSpec(
        block_sizes=(30, 30, 30), loadings=(0.9, 0.9, 0.9), noise_std=0.4
    )
    panel = synthetic_factor_panel(spec, length, seed=seed)
    return standardize_window(panel, 0, length, 0)


class TestSelfCorrelationDeltas:
    def test_identical_matrices_give_zero(self):
        z_hat, _ = _window_and_decomposition(31, n_assets=5, n_steps=25)
        abs_r, _ = _correlations(z_hat)
        deltas = self_correlation_deltas(abs_r, abs_r.copy(), max_rank=3)
        assert all(np.allclose(sample, 0.0) for sample in deltas)

    def test_undefined_entries_skipped(self):
        deltas = self_correlation_deltas(*_correlations(_IDENTITY_WINDOW),
                                         max_rank=3)
        assert all(len(sample) == 2 for sample in deltas)

    def test_rank_one_self_correlation_is_small(self):
        window = _factor_window(2000, seed=50)
        deltas = self_correlation_deltas(*_correlations(window), max_rank=1)
        assert np.median(np.abs(deltas[0])) <= 0.05

    def test_bulk_ranks_show_larger_self_correlation(self):
        # the three planted factors live at ranks 1-3; ranks 4-5 are noise
        # components where removing one asset changes the component more
        medians = []
        for seed in range(5):
            window = _factor_window(2000, seed=60 + seed)
            deltas = self_correlation_deltas(*_correlations(window),
                                             max_rank=5)
            medians.append([np.median(np.abs(s)) for s in deltas])
        medians = np.array(medians)
        assert np.all(medians[:, :3].max(axis=1) < medians[:, 3:].min(axis=1))


class TestMaxCorrelationRank:
    def test_planted_blocks_align_with_leading_components(self):
        window = _factor_window(2000, seed=80)
        abs_r, _ = _correlations(window)
        ranks = max_correlation_rank(abs_r)
        assert ranks.min() >= 1
        assert set(ranks) <= {1, 2, 3}
