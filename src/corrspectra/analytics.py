"""The per-window math, on plain arrays.

`analyze_window` is the kernel that rolling windows and null simulations
share: the `correlation_matrix` of a standardized window, its spectrum from
`eigendecompose` (eigenvalues descending, one eigenvector per row, checked
against an accuracy contract), then participation ratios and |r|. The other
diagnostics take those arrays: coefficient moments, variance fractions, two
significant-component counts (the scree counts against a null profile of
the same length) and the asset-component correlations without each asset's
own contribution. `mp_bounds` and `mp_density` give the random-matrix
reference: for uncorrelated Gaussian series at q = T/N >= 1, eigenvalues
above gamma_plus signal structure beyond noise.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .errors import BaselineMismatchError, EigenComputationError


def correlation_matrix(z_hat: np.ndarray) -> np.ndarray:
    """Correlation matrix (1/T) Z Z^T of a standardized N x T window,
    symmetrized, clipped to [-1, 1], with its diagonal snapped to 1."""
    if not np.all(np.isfinite(z_hat)):
        raise ValueError("non-finite standardized returns")
    r = z_hat @ z_hat.T / z_hat.shape[1]
    r = (r + r.T) / 2.0
    np.clip(r, -1.0, 1.0, out=r)
    np.fill_diagonal(r, 1.0)
    return r


@functools.lru_cache(maxsize=8)
def _upper_triangle(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only indices of the strict upper triangle of an n x n matrix,
    built once per n rather than once per window."""
    indices = np.triu_indices(n, k=1)
    for index in indices:
        index.setflags(write=False)
    return indices


def coefficient_moments(
        values: np.ndarray) -> tuple[float, float, float, float]:
    """(mean, std, skewness, kurtosis) of the off-diagonal upper-triangle
    coefficients of the N x N correlation matrix `values`.

    Kurtosis is the raw fourth standardized moment (Gaussian -> 3), not
    excess. Skewness and kurtosis are NaN when the coefficients have zero
    spread.
    """
    n = values.shape[0]
    if n < 3:
        raise ValueError(f"need at least 3 assets for moments, got {n}")
    coeffs = values[_upper_triangle(n)]
    mean = float(coeffs.mean())
    centered = coeffs - mean
    # products rather than ** 3 and ** 4, which go through libm pow
    sq = centered * centered
    m2 = float(np.mean(sq))
    std = float(np.sqrt(m2))
    if m2 == 0.0:
        return mean, 0.0, np.nan, np.nan
    m3 = float(np.mean(sq * centered))
    m4 = float(np.mean(sq * sq))
    return mean, std, m3 / m2**1.5, m4 / m2**2


# Accuracy contract for the eigensolver, checked after every decomposition.
RECONSTRUCTION_TOL = 1e-8
ORTHOGONALITY_TOL = 1e-8
TRACE_TOL = 1e-8
MIN_EIGENVALUE = -1e-8


def _apply_sign_convention(vectors: np.ndarray) -> np.ndarray:
    """Flip eigenvector rows so each sums positive.

    When a row sum is within 1e-12 of zero the first largest-magnitude
    entry decides instead. Makes repeated decompositions bit-identical.
    """
    sums = vectors.sum(axis=1)
    flip = np.sign(sums)
    tied = np.abs(sums) <= 1e-12
    if np.any(tied):
        rows = np.nonzero(tied)[0]
        lead = vectors[rows, np.argmax(np.abs(vectors[rows]), axis=1)]
        flip[rows] = np.where(lead >= 0.0, 1.0, -1.0)
    return vectors * flip[:, None]


def eigendecompose(values: np.ndarray,
                   label: str = "matrix") -> tuple[np.ndarray, np.ndarray]:
    """(eigenvalues, eigenvectors): the full spectrum of the correlation
    matrix `values` (LAPACK), checked against the accuracy contract and
    deterministic for equal input. The N eigenvalues are sorted
    descending; row k of the N x N eigenvectors is the k-th unit
    eigenvector under the deterministic sign convention.

    Raises EigenComputationError, its message led by `label` (the
    caller's name for the matrix, such as "window 20"), if the solver
    fails or the result misses its accuracy contract: the reconstruction
    residual and the orthogonality error within their tolerances, no
    eigenvalue below MIN_EIGENVALUE, and the eigenvalues summing to N
    within TRACE_TOL. That message gives all four quantities.
    """
    try:
        vals, vecs = np.linalg.eigh(values)
    except np.linalg.LinAlgError as exc:
        raise EigenComputationError(
            f"{label}: eigensolver did not converge: {exc}"
        ) from exc
    beta = vals[::-1].copy()
    omega = _apply_sign_convention(vecs[:, ::-1].T.copy())
    n = len(beta)

    recon = omega.T @ (beta[:, None] * omega)
    residual = float(np.abs(recon - values).max())
    ortho = float(np.abs(omega @ omega.T - np.eye(n)).max())
    smallest = float(beta[-1])
    trace_gap = float(abs(beta.sum() - n))
    # written so that NaN, which compares false, fails the check
    if not (residual <= RECONSTRUCTION_TOL and ortho <= ORTHOGONALITY_TOL
            and smallest >= MIN_EIGENVALUE and trace_gap <= TRACE_TOL):
        raise EigenComputationError(
            f"{label}: decomposition misses its accuracy "
            f"contract: residual {residual:.3e}, orthogonality error "
            f"{ortho:.3e}, smallest eigenvalue {smallest:.3e}, eigenvalue "
            f"sum deviates from {n} by {trace_gap:.3e}")
    return beta, omega


def mp_bounds(q: float) -> tuple[float, float]:
    """(gamma_minus, gamma_plus): the support edges (1 -+ sqrt(1/q))^2 of the
    null eigenvalue density of a correlation matrix for q = T/N >= 1."""
    if not q >= 1.0:  # NaN too
        raise ValueError(f"q = T/N must be >= 1, got {q}")
    root = math.sqrt(1.0 / q)
    return (1.0 - root) ** 2, (1.0 + root) ** 2


def mp_density(gamma: float, q: float) -> float:
    """Null eigenvalue density at `gamma` for q = T/N; zero outside
    (gamma_minus, gamma_plus] of mp_bounds(q), whose check applies.

    For q = 1 the density diverges like 1/sqrt(gamma) toward zero but stays
    integrable; the total mass over the support is 1.
    """
    gamma_minus, gamma_plus = mp_bounds(q)
    if gamma <= gamma_minus or gamma > gamma_plus:
        return 0.0
    radicand = (gamma_plus - gamma) * (gamma - gamma_minus)
    return q / (2.0 * math.pi) * math.sqrt(radicand) / gamma


def analyze_window(z_hat: np.ndarray, max_rank: int, label: str):
    """The spectral work of one standardized window (N x T), shared by the
    rolling windows and the null simulations.

    Returns (values, eigenvalues, eigenvectors, pr, abs_r): the correlation
    matrix, its checked eigendecomposition, the participation ratio of
    every rank, and |r| = |omega_ki| sqrt(beta_k) of ranks 1..max_rank as
    an N x max_rank array (assets are standardized and component k has
    variance beta_k, so rows of squared entries sum to 1). Raises
    ValueError when `max_rank` is outside [0, N] or `z_hat` holds a
    non-finite value, and EigenComputationError named by `label` (such as
    "window 20" or "null simulation 3") as eigendecompose does.
    """
    n = z_hat.shape[0]
    if not 0 <= max_rank <= n:
        raise ValueError(f"max_rank must be in [0, {n}], got {max_rank}")
    values = correlation_matrix(z_hat)
    beta, omega = eigendecompose(values, label)
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
