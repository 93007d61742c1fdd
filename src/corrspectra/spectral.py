"""Symmetric eigendecomposition and random-matrix reference spectra.

Eigenvalues of a correlation matrix of uncorrelated Gaussian series follow,
for large N at fixed Q = T/N >= 1, a known limiting density supported on
[gamma_minus, gamma_plus]. Observed eigenvalues above gamma_plus signal
structure beyond noise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .correlation import CorrelationMatrix
from .errors import EigenComputationError

# Accuracy contract for the eigensolver, checked after every decomposition.
RECONSTRUCTION_TOL = 1e-8
ORTHOGONALITY_TOL = 1e-8
TRACE_TOL = 1e-8
MIN_EIGENVALUE = -1e-8


@dataclass
class SpectralDecomposition:
    """Eigenvalues sorted descending; row k of `eigenvectors` is the k-th
    unit eigenvector under the deterministic sign convention."""

    window_index: int
    eigenvalues: np.ndarray  # length N, descending
    eigenvectors: np.ndarray  # N x N, row per eigenvector

    @property
    def n_assets(self) -> int:
        return self.eigenvalues.shape[0]


@dataclass(frozen=True)
class MPBounds:
    gamma_minus: float
    gamma_plus: float
    q: float
    sigma2: float


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


def decompose_symmetric(values: np.ndarray, window_index: int = -1):
    """LAPACK eigendecomposition of a correlation matrix plus contract checks.

    Returns (eigenvalues descending, eigenvector rows). Raises
    EigenComputationError carrying the residual if the solver fails, the
    result misses the reconstruction/orthogonality tolerances, an
    eigenvalue is below MIN_EIGENVALUE, or the eigenvalues do not sum to
    N within TRACE_TOL.
    """
    try:
        vals, vecs = np.linalg.eigh(values)
    except np.linalg.LinAlgError as exc:
        raise EigenComputationError(
            f"window {window_index}: eigensolver did not converge: {exc}",
            window_index=window_index,
        ) from exc
    beta = vals[::-1].copy()
    omega = _apply_sign_convention(vecs[:, ::-1].T.copy())
    n = len(beta)

    recon = omega.T @ (beta[:, None] * omega)
    residual = float(np.abs(recon - values).max())
    ortho = float(np.abs(omega @ omega.T - np.eye(n)).max())
    # written so that NaN, which compares false, fails each check
    if not (residual <= RECONSTRUCTION_TOL and ortho <= ORTHOGONALITY_TOL):
        raise EigenComputationError(
            f"window {window_index}: decomposition residual {residual:.3e} "
            f"(orthogonality {ortho:.3e}) exceeds tolerance",
            residual=residual,
            window_index=window_index,
        )
    if not beta[-1] >= MIN_EIGENVALUE:
        raise EigenComputationError(
            f"window {window_index}: eigenvalue {beta[-1]:.3e} below "
            f"{MIN_EIGENVALUE}; matrix is not positive semidefinite",
            residual=float(beta[-1]),
            window_index=window_index,
        )
    trace_gap = float(abs(beta.sum() - n))
    if not trace_gap <= TRACE_TOL:
        raise EigenComputationError(
            f"window {window_index}: eigenvalue sum deviates from "
            f"{n} by {trace_gap:.3e}",
            residual=trace_gap,
            window_index=window_index,
        )
    return beta, omega


def eigendecompose(matrix: CorrelationMatrix) -> SpectralDecomposition:
    """Full spectrum of a correlation matrix, deterministic for equal input."""
    beta, omega = decompose_symmetric(matrix.values, matrix.window_index)
    return SpectralDecomposition(
        window_index=matrix.window_index, eigenvalues=beta, eigenvectors=omega
    )


def mp_bounds(q: float, sigma2: float = 1.0) -> MPBounds:
    """Support edges sigma2 * (1 +- sqrt(1/q))^2 of the null eigenvalue density."""
    if q < 1.0:
        raise ValueError(f"q = T/N must be >= 1, got {q}")
    if sigma2 <= 0.0:
        raise ValueError(f"sigma2 must be positive, got {sigma2}")
    root = math.sqrt(1.0 / q)
    return MPBounds(
        gamma_minus=sigma2 * (1.0 - root) ** 2,
        gamma_plus=sigma2 * (1.0 + root) ** 2,
        q=q,
        sigma2=sigma2,
    )


def mp_density(gamma: float, bounds: MPBounds) -> float:
    """Null eigenvalue density at `gamma`; zero outside (gamma_minus, gamma_plus].

    For q = 1 the density diverges like 1/sqrt(gamma) toward zero but stays
    integrable; the total mass over the support is 1.
    """
    if gamma <= bounds.gamma_minus or gamma > bounds.gamma_plus:
        return 0.0
    radicand = (bounds.gamma_plus - gamma) * (gamma - bounds.gamma_minus)
    return (
        bounds.q
        / (2.0 * math.pi * bounds.sigma2)
        * math.sqrt(radicand)
        / gamma
    )


def eigenvector_zscores(decomposition: SpectralDecomposition, rank: int) -> np.ndarray:
    """sqrt(N)-scaled elements of the rank-th eigenvector (rank is 1-based).

    Elements of a unit eigenvector have variance 1/N, so this scaling makes
    them directly comparable with the unit-variance Gaussian expected for
    eigenvectors of random symmetric matrices.
    """
    n = decomposition.n_assets
    if rank < 1 or rank > n:
        raise ValueError(f"rank must be in [1, {n}], got {rank}")
    return math.sqrt(n) * decomposition.eigenvectors[rank - 1]
