"""Per-window correlation matrices (N x N arrays) and their coefficient moments."""

from __future__ import annotations

import functools

import numpy as np


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
