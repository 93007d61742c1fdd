"""Per-window PCA diagnostics, on plain arrays.

Covers the spectral kernel that rolling windows and null simulations share,
variance fractions, eigenvector participation ratios, two
significant-component counts, and the correlations between each asset and
each principal component, with and without the asset's own contribution.
The functions after the kernel take the eigenvalues (descending) or the
eigenvector rows that `eigendecompose` returns, or the leading ones; the
scree counts also take the null's profile as an array of the same length.
"""

from __future__ import annotations

import numpy as np

from .correlation import correlation_matrix
from .errors import BaselineMismatchError
from .spectral import eigendecompose


def analyze_window(z_hat: np.ndarray, max_rank: int, window_index: int):
    """The spectral work of one standardized window (N x T), shared by the
    rolling windows and the null simulations.

    Returns (values, eigenvalues, eigenvectors, pr, abs_r): the correlation
    matrix, its checked eigendecomposition, the participation ratio of
    every rank, and |r| = |omega_ki| sqrt(beta_k) of ranks 1..max_rank as
    an N x max_rank array (assets are standardized and component k has
    variance beta_k, so rows of squared entries sum to 1). Raises
    ValueError when `max_rank` is outside [0, N] or `z_hat` holds a
    non-finite value, and EigenComputationError naming `window_index` when
    the decomposition misses its accuracy contract.
    """
    n = z_hat.shape[0]
    if not 0 <= max_rank <= n:
        raise ValueError(f"max_rank must be in [0, {n}], got {max_rank}")
    values = correlation_matrix(z_hat)
    beta, omega = eigendecompose(values, window_index)
    abs_r = np.abs(omega[:max_rank].T) * np.sqrt(
        np.clip(beta[:max_rank], 0.0, None))
    return values, beta, omega, participation(omega), abs_r


def variance_fractions(eigenvalues: np.ndarray) -> np.ndarray:
    """Fraction beta_k / N of total variance per component.

    Round-off eigenvalues slightly below zero are clipped at zero.
    """
    return np.clip(eigenvalues, 0.0, None) / len(eigenvalues)


def participation(eigenvectors: np.ndarray) -> np.ndarray:
    """Participation ratio 1 / sum_i omega_ki^4 per eigenvector row.

    A uniform eigenvector gives pr = N (every asset contributes); a
    single-asset eigenvector gives pr = 1.
    """
    # np.square avoids libm pow, which omega**4 goes through
    return 1.0 / np.square(np.square(eigenvectors)).sum(axis=1)


def kaiser_guttman_count(eigenvalues: np.ndarray) -> int:
    """Components explaining more variance than a single asset: beta_k > 1."""
    return int((eigenvalues > 1.0).sum())


def _check_baseline(eigenvalues: np.ndarray, profile: np.ndarray):
    n = len(eigenvalues)
    if len(profile) != n:
        raise BaselineMismatchError(
            f"baseline is for N={len(profile)}, window has N={n}"
        )


def scree_significant_count(eigenvalues: np.ndarray,
                            profile: np.ndarray) -> int:
    """Length of the leading run of eigenvalues (descending) above the null
    scree profile of the same length, such as a baseline's scree_mean.

    The contiguous-prefix rule keeps the count well-defined when observed
    and null curves cross more than once.
    """
    _check_baseline(eigenvalues, profile)
    above = eigenvalues > profile
    return int(above.size if above.all() else above.argmin())


def scree_exceedance_count(eigenvalues: np.ndarray,
                           profile: np.ndarray) -> int:
    """Total ranks whose eigenvalue exceeds the null profile, crossings ignored."""
    _check_baseline(eigenvalues, profile)
    return int((eigenvalues > profile).sum())


# An adjusted component with variance at or below this is treated as
# identically zero (the asset was its only contributor).
_ZERO_VARIANCE_TOL = 1e-14


def adjusted_component_correlations(eigenvalues: np.ndarray,
                                    eigenvectors: np.ndarray) -> np.ndarray:
    """|r(z_i, y_k - omega_ki z_i)|, the correlation of asset i with
    component k once asset i's own term is removed, as an assets x ranks
    array over the leading eigenvalues beta_k and eigenvector rows omega_k
    it is given.

    With standardized z_i and component y_k = omega_k . z, cov(z_i, y_k) =
    beta_k omega_ki and var(y_k) = beta_k, so the correlation is
    |omega_ki (beta_k - 1)| / sqrt(beta_k (1 - 2 omega_ki^2) + omega_ki^2).
    Entries whose adjusted variance vanishes are NaN, never 0.
    """
    beta, weights = eigenvalues, eigenvectors.T  # [i, k] = omega_ki
    weights_sq = weights * weights
    var_w = beta * (1.0 - 2.0 * weights_sq) + weights_sq
    undefined = var_w <= _ZERO_VARIANCE_TOL
    denom = np.sqrt(np.where(undefined, 1.0, var_w))
    return np.where(undefined, np.nan, np.abs(weights * (beta - 1.0)) / denom)
