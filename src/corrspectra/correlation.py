"""Per-window correlation matrices and coefficient-distribution moments."""

from __future__ import annotations

import datetime as dt
import functools
from dataclasses import dataclass

import numpy as np

from .panel import WindowView


@dataclass
class CorrelationMatrix:
    window_index: int
    end_date: dt.date
    values: np.ndarray  # N x N, symmetric, unit diagonal

    @property
    def n_assets(self) -> int:
        return self.values.shape[0]


@dataclass
class CoefficientMoments:
    """Moments of the off-diagonal upper-triangle coefficients.

    Kurtosis is the raw fourth standardized moment (Gaussian -> 3), not
    excess. Skewness and kurtosis are NaN when the coefficients have zero
    spread.
    """

    mean: float
    std: float
    skewness: float
    kurtosis: float


def corr_from_standardized(z_hat: np.ndarray) -> np.ndarray:
    """(1/T) Z Z^T for standardized rows, symmetrized, diagonal snapped to 1."""
    n_steps = z_hat.shape[1]
    r = z_hat @ z_hat.T / n_steps
    r = (r + r.T) / 2.0
    np.clip(r, -1.0, 1.0, out=r)
    np.fill_diagonal(r, 1.0)
    return r


def correlation_matrix(window: WindowView) -> CorrelationMatrix:
    """Empirical correlation matrix of a standardized window."""
    if not np.all(np.isfinite(window.z_hat)):
        raise ValueError(
            f"window {window.window_index}: non-finite standardized returns"
        )
    return CorrelationMatrix(
        window_index=window.window_index,
        end_date=window.end_date,
        values=corr_from_standardized(window.z_hat),
    )


@functools.lru_cache(maxsize=8)
def _upper_triangle(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only indices of the strict upper triangle of an n x n matrix,
    built once per n rather than once per window."""
    indices = np.triu_indices(n, k=1)
    for index in indices:
        index.setflags(write=False)
    return indices


def coefficient_moments(matrix: CorrelationMatrix) -> CoefficientMoments:
    """Mean, std, skewness, and kurtosis of the pairwise coefficients."""
    n = matrix.n_assets
    if n < 3:
        raise ValueError(f"need at least 3 assets for moments, got {n}")
    coeffs = matrix.values[_upper_triangle(n)]
    mean = float(coeffs.mean())
    centered = coeffs - mean
    # products rather than ** 3 and ** 4, which go through libm pow
    sq = centered * centered
    m2 = float(np.mean(sq))
    std = float(np.sqrt(m2))
    if m2 == 0.0:
        return CoefficientMoments(mean=mean, std=0.0, skewness=np.nan, kurtosis=np.nan)
    m3 = float(np.mean(sq * centered))
    m4 = float(np.mean(sq * sq))
    return CoefficientMoments(
        mean=mean,
        std=std,
        skewness=m3 / m2**1.5,
        kurtosis=m4 / m2**2,
    )
