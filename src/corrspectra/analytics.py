"""Per-window PCA diagnostics.

Covers the spectral kernel that rolling windows and null simulations share,
variance fractions, eigenvector participation ratios, two
significant-component counts, and the correlations between each asset and
each principal component, with and without the asset's own contribution.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .correlation import corr_from_standardized
from .errors import BaselineMismatchError
from .spectral import SpectralDecomposition, decompose_symmetric

if TYPE_CHECKING:
    from .nulls import NullEnsembleStats


@dataclass
class AssetComponentCorrelations:
    """abs_r[i, k] = |r(asset i, component k)|; the adjusted variant removes
    asset i from component k before correlating. Entries are NaN where the
    adjusted component vanishes (fully self-contributed)."""

    window_index: int
    abs_r: np.ndarray  # assets x ranks
    abs_r_adjusted: np.ndarray | None = None


def analyze_window(z_hat: np.ndarray, max_rank: int, window_index: int):
    """The spectral work of one standardized window (N x T), shared by the
    rolling windows and the null simulations.

    Returns (correlation matrix values, checked decomposition, participation
    ratio of every rank, |r| of ranks 1..max_rank as an N x max_rank array).
    Raises EigenComputationError naming `window_index` when the
    decomposition misses its accuracy contract.
    """
    values = corr_from_standardized(z_hat)
    beta, omega = decompose_symmetric(values, window_index)
    decomposition = SpectralDecomposition(window_index, beta, omega)
    return (values, decomposition, participation(decomposition),
            _abs_r(beta[:max_rank], omega[:max_rank]))


def variance_fractions(decomposition: SpectralDecomposition) -> np.ndarray:
    """Fraction beta_k / N of total variance per component.

    Round-off eigenvalues slightly below zero are clipped at zero.
    """
    return np.clip(decomposition.eigenvalues, 0.0, None) / decomposition.n_assets


def participation(decomposition: SpectralDecomposition) -> np.ndarray:
    """Participation ratio 1 / sum_i omega_ki^4 per rank.

    A uniform eigenvector gives pr = N (every asset contributes); a
    single-asset eigenvector gives pr = 1.
    """
    # np.square avoids libm pow, which omega**4 goes through
    return 1.0 / np.square(np.square(decomposition.eigenvectors)).sum(axis=1)


def kaiser_guttman_count(decomposition: SpectralDecomposition) -> int:
    """Components explaining more variance than a single asset: beta_k > 1."""
    return int((decomposition.eigenvalues > 1.0).sum())


def _check_baseline(eigenvalues: np.ndarray, baseline: NullEnsembleStats):
    n = len(eigenvalues)
    if baseline.config.n_assets != n:
        raise BaselineMismatchError(
            f"baseline is for N={baseline.config.n_assets}, window has N={n}"
        )


def scree_significant_count(
    eigenvalues: np.ndarray, baseline: NullEnsembleStats
) -> int:
    """Length of the leading run of eigenvalues (descending) above the null
    scree profile.

    The contiguous-prefix rule keeps the count well-defined when observed
    and null curves cross more than once.
    """
    _check_baseline(eigenvalues, baseline)
    count = 0
    for observed, null in zip(eigenvalues, baseline.scree_mean):
        if observed > null:
            count += 1
        else:
            break
    return count


def scree_exceedance_count(
    eigenvalues: np.ndarray, baseline: NullEnsembleStats
) -> int:
    """Total ranks whose eigenvalue exceeds the null profile, crossings ignored."""
    _check_baseline(eigenvalues, baseline)
    return int((eigenvalues > baseline.scree_mean).sum())


def _abs_r(beta: np.ndarray, omega: np.ndarray) -> np.ndarray:
    """|omega_ki| sqrt(beta_k) as an assets x ranks array, for leading
    eigenvalues `beta` and their eigenvector rows `omega`."""
    return np.abs(omega.T) * np.sqrt(np.clip(beta, 0.0, None))


# An adjusted component with variance at or below this is treated as
# identically zero (the asset was its only contributor).
_ZERO_VARIANCE_TOL = 1e-14


def _abs_r_adjusted(beta: np.ndarray, omega: np.ndarray) -> np.ndarray:
    """|r(z_i, y_k - omega_ki z_i)| as an assets x ranks array, for leading
    eigenvalues `beta` and their eigenvector rows `omega`.

    With standardized z_i and component y_k = omega_k . z, cov(z_i, y_k) =
    beta_k omega_ki and var(y_k) = beta_k, so the correlation is
    |omega_ki (beta_k - 1)| / sqrt(beta_k (1 - 2 omega_ki^2) + omega_ki^2).
    Entries whose adjusted variance vanishes are NaN, never 0.
    """
    weights = omega.T  # [i, k] = omega_ki
    weights_sq = weights * weights
    var_w = beta * (1.0 - 2.0 * weights_sq) + weights_sq
    undefined = var_w <= _ZERO_VARIANCE_TOL
    denom = np.sqrt(np.where(undefined, 1.0, var_w))
    return np.where(undefined, np.nan, np.abs(weights * (beta - 1.0)) / denom)


def asset_component_correlations(
    decomposition: SpectralDecomposition,
) -> AssetComponentCorrelations:
    """|r(asset i, component k)| for all pairs, plain and with asset i's own
    term removed from component k.

    The plain value is |omega_ki| sqrt(beta_k): assets are standardized and
    component k has variance beta_k within the window, so rows of squared
    entries sum to 1. Both need only the decomposition of the window's own
    correlation matrix.
    """
    beta, omega = decomposition.eigenvalues, decomposition.eigenvectors
    return AssetComponentCorrelations(
        window_index=decomposition.window_index,
        abs_r=_abs_r(beta, omega),
        abs_r_adjusted=_abs_r_adjusted(beta, omega),
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
