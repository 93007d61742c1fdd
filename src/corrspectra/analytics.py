"""Per-window PCA diagnostics.

Covers variance fractions, eigenvector participation ratios, two
significant-component counts, and the correlations between each asset and
each principal component, with and without the asset's own contribution.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BaselineMismatchError, EigenComputationError
from .nulls import NullEnsembleStats
from .panel import WindowView
from .spectral import SpectralDecomposition


@dataclass
class VarianceProfile:
    window_index: int
    fractions: np.ndarray  # beta_k / N, descending
    cumulative: np.ndarray


@dataclass
class ParticipationSeries:
    window_index: int
    ipr: np.ndarray  # sum of fourth powers of eigenvector elements
    pr: np.ndarray  # 1 / ipr: effective number of contributing assets


@dataclass
class SignificanceCounts:
    window_index: int
    kaiser_count: int
    scree_count: int
    # raw number of ranks exceeding the baseline anywhere, for comparison
    # with the contiguous-prefix scree_count when the curves re-cross
    scree_exceedance_count: int


@dataclass
class AssetComponentCorrelations:
    """abs_r[i, k] = |r(asset i, component k)|; the adjusted variant removes
    asset i from component k before correlating. Entries are NaN where the
    adjusted component vanishes (fully self-contributed)."""

    window_index: int
    abs_r: np.ndarray  # assets x ranks
    abs_r_adjusted: np.ndarray | None = None


def variance_fractions(decomposition: SpectralDecomposition) -> VarianceProfile:
    """Fraction beta_k / N of total variance per component, plus running sum.

    Round-off eigenvalues slightly below zero are clipped at zero.
    """
    n = decomposition.n_assets
    fractions = np.clip(decomposition.eigenvalues, 0.0, None) / n
    return VarianceProfile(
        window_index=decomposition.window_index,
        fractions=fractions,
        cumulative=np.cumsum(fractions),
    )


def participation(decomposition: SpectralDecomposition) -> ParticipationSeries:
    """Inverse participation ratio and participation ratio per rank.

    A uniform eigenvector gives pr = N (every asset contributes); a
    single-asset eigenvector gives pr = 1.
    """
    ipr = np.square(np.square(decomposition.eigenvectors)).sum(axis=1)
    return ParticipationSeries(
        window_index=decomposition.window_index, ipr=ipr, pr=1.0 / ipr
    )


def kaiser_guttman_count(decomposition: SpectralDecomposition) -> int:
    """Components explaining more variance than a single asset: beta_k > 1."""
    return int((decomposition.eigenvalues > 1.0).sum())


def _check_baseline(decomposition, baseline: NullEnsembleStats):
    n = decomposition.n_assets
    if baseline.config.n_assets != n:
        raise BaselineMismatchError(
            f"baseline is for N={baseline.config.n_assets}, window has N={n}"
        )


def scree_significant_count(
    decomposition: SpectralDecomposition, baseline: NullEnsembleStats
) -> int:
    """Length of the leading run of eigenvalues above the null scree profile.

    The contiguous-prefix rule keeps the count well-defined when observed
    and null curves cross more than once.
    """
    _check_baseline(decomposition, baseline)
    count = 0
    for observed, null in zip(decomposition.eigenvalues, baseline.scree_mean):
        if observed > null:
            count += 1
        else:
            break
    return count


def scree_exceedance_count(
    decomposition: SpectralDecomposition, baseline: NullEnsembleStats
) -> int:
    """Total ranks whose eigenvalue exceeds the null profile, crossings ignored."""
    _check_baseline(decomposition, baseline)
    return int((decomposition.eigenvalues > baseline.scree_mean).sum())


def significance_counts(
    decomposition: SpectralDecomposition, baseline: NullEnsembleStats
) -> SignificanceCounts:
    """Both significant-component counts for one window."""
    return SignificanceCounts(
        window_index=decomposition.window_index,
        kaiser_count=kaiser_guttman_count(decomposition),
        scree_count=scree_significant_count(decomposition, baseline),
        scree_exceedance_count=scree_exceedance_count(decomposition, baseline),
    )


def asset_component_correlations(
    decomposition: SpectralDecomposition,
) -> AssetComponentCorrelations:
    """|r(asset i, component k)| = |omega_ki| sqrt(beta_k) for all pairs.

    Valid because assets are standardized and component k has variance
    beta_k within the window. Rows of squared entries sum to 1.
    """
    beta = decomposition.eigenvalues
    if beta.min() < -1e-8:
        raise EigenComputationError(
            f"window {decomposition.window_index}: negative eigenvalue "
            f"{beta.min():.3e} invalidates correlations",
            residual=float(beta.min()),
            window_index=decomposition.window_index,
        )
    scale = np.sqrt(np.clip(beta, 0.0, None))
    return AssetComponentCorrelations(
        window_index=decomposition.window_index,
        abs_r=np.abs(decomposition.eigenvectors.T) * scale[None, :],
    )


# An adjusted component with variance at or below this is treated as
# identically zero (the asset was its only contributor).
_ZERO_VARIANCE_TOL = 1e-14


def adjusted_component_correlations(
    window: WindowView, decomposition: SpectralDecomposition
) -> AssetComponentCorrelations:
    """Asset-component correlations with each asset's own term removed.

    For asset i and component k the adjusted series is
    w(t) = y_k(t) - omega_ki * z_i(t), i.e. the component rebuilt from the
    other N-1 assets. Entries where w is identically zero are NaN, never 0.
    All covariances are taken from the window data (population convention).
    """
    if window.window_index != decomposition.window_index:
        raise ValueError(
            f"window {window.window_index} does not match decomposition "
            f"{decomposition.window_index}"
        )
    z = window.z_hat
    omega = decomposition.eigenvectors
    n_steps = z.shape[1]
    components = omega @ z
    cov_zy = z @ components.T / n_steps  # [i, k]
    var_y = (components**2).sum(axis=1) / n_steps
    var_z = (z**2).sum(axis=1) / n_steps  # rows are centered already
    weights = omega.T  # [i, k] = omega_ki
    cov_zw = cov_zy - weights * var_z[:, None]
    var_w = var_y[None, :] - 2.0 * weights * cov_zy + weights**2 * var_z[:, None]
    undefined = var_w <= _ZERO_VARIANCE_TOL
    denom = np.sqrt(np.where(undefined, 1.0, var_w) * var_z[:, None])
    adjusted = np.where(undefined, np.nan, np.abs(cov_zw) / denom)
    return AssetComponentCorrelations(
        window_index=decomposition.window_index,
        abs_r=asset_component_correlations(decomposition).abs_r,
        abs_r_adjusted=adjusted,
    )


def self_correlation_deltas(
    correlations: AssetComponentCorrelations, max_rank: int
) -> list[np.ndarray]:
    """Per rank k <= max_rank, the samples abs_r[:, k] - abs_r_adjusted[:, k].

    Assets whose adjusted correlation is undefined are skipped, so a
    sample can be shorter than N. Index 0 corresponds to rank 1.
    """
    if correlations.abs_r_adjusted is None:
        raise ValueError("adjusted correlations not populated")
    n_ranks = correlations.abs_r.shape[1]
    if not 1 <= max_rank <= n_ranks:
        raise ValueError(f"max_rank must be in [1, {n_ranks}], got {max_rank}")
    deltas = []
    for k in range(max_rank):
        diff = correlations.abs_r[:, k] - correlations.abs_r_adjusted[:, k]
        deltas.append(diff[np.isfinite(diff)])
    return deltas


def max_correlation_rank(correlations: AssetComponentCorrelations) -> np.ndarray:
    """For each asset, the 1-based rank of its largest |r|."""
    return correlations.abs_r.argmax(axis=1) + 1
