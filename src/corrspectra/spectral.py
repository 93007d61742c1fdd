"""Checked symmetric eigendecomposition and random-matrix reference spectra.

`eigendecompose` returns a window's spectrum as two plain arrays: the
eigenvalues, descending, and one eigenvector per row.

Eigenvalues of a correlation matrix of uncorrelated Gaussian series follow,
for large N at fixed Q = T/N >= 1, a known limiting density supported on
[gamma_minus, gamma_plus]. Observed eigenvalues above gamma_plus signal
structure beyond noise. `mp_bounds(q, sigma2)` returns the two edges as
floats and `mp_density(gamma, q, sigma2)` the density: the law's shape is
its arguments, not a record.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import EigenComputationError

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
                   window_index: int = -1) -> tuple[np.ndarray, np.ndarray]:
    """(eigenvalues, eigenvectors): the full spectrum of the correlation
    matrix `values` (LAPACK), checked against the accuracy contract and
    deterministic for equal input. The N eigenvalues are sorted
    descending; row k of the N x N eigenvectors is the k-th unit
    eigenvector under the deterministic sign convention.

    Raises EigenComputationError naming `window_index` if the solver
    fails, or if the result misses its accuracy contract: the
    reconstruction residual and the orthogonality error within their
    tolerances, no eigenvalue below MIN_EIGENVALUE, and the eigenvalues
    summing to N within TRACE_TOL. That message gives all four quantities.
    """
    try:
        vals, vecs = np.linalg.eigh(values)
    except np.linalg.LinAlgError as exc:
        raise EigenComputationError(
            f"window {window_index}: eigensolver did not converge: {exc}"
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
            f"window {window_index}: decomposition misses its accuracy "
            f"contract: residual {residual:.3e}, orthogonality error "
            f"{ortho:.3e}, smallest eigenvalue {smallest:.3e}, eigenvalue "
            f"sum deviates from {n} by {trace_gap:.3e}")
    return beta, omega


def mp_bounds(q: float, sigma2: float = 1.0) -> tuple[float, float]:
    """(gamma_minus, gamma_plus): the support edges sigma2 * (1 -+ sqrt(1/q))^2
    of the null eigenvalue density for q = T/N >= 1 and variance sigma2 > 0."""
    if q < 1.0:
        raise ValueError(f"q = T/N must be >= 1, got {q}")
    if sigma2 <= 0.0:
        raise ValueError(f"sigma2 must be positive, got {sigma2}")
    root = math.sqrt(1.0 / q)
    return sigma2 * (1.0 - root) ** 2, sigma2 * (1.0 + root) ** 2


def mp_density(gamma: float, q: float, sigma2: float = 1.0) -> float:
    """Null eigenvalue density at `gamma` for q = T/N and variance sigma2;
    zero outside (gamma_minus, gamma_plus] of mp_bounds(q, sigma2), whose
    checks apply.

    For q = 1 the density diverges like 1/sqrt(gamma) toward zero but stays
    integrable; the total mass over the support is 1.
    """
    gamma_minus, gamma_plus = mp_bounds(q, sigma2)
    if gamma <= gamma_minus or gamma > gamma_plus:
        return 0.0
    radicand = (gamma_plus - gamma) * (gamma - gamma_minus)
    return q / (2.0 * math.pi * sigma2) * math.sqrt(radicand) / gamma

