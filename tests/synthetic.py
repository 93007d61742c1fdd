"""Planted return panels for the tests: i.i.d. Gaussian panels and block
factor panels, whose correlation structure is known by construction; a
per-asset permutation of a panel; and the eigenvector statistics that the
acceptance criteria read off a window's decomposition.

Kept apart from helpers.py, which the benchmark loads without corrspectra
on the path.
"""

import datetime as dt
import math
from dataclasses import dataclass

import numpy as np

from corrspectra import Panel

from helpers import weekly_dates

_EPOCH = dt.date(2000, 1, 7)


@dataclass(frozen=True)
class FactorSpec:
    """Block factor market: asset i in block b returns
    loadings[b] * f_b(t) + noise_std * eps_i(t)."""

    block_sizes: tuple[int, ...]
    loadings: tuple[float, ...]
    noise_std: float

    def __post_init__(self):
        object.__setattr__(self, "block_sizes", tuple(self.block_sizes))
        object.__setattr__(self, "loadings", tuple(self.loadings))
        if not self.block_sizes or any(b < 1 for b in self.block_sizes):
            raise ValueError("block_sizes must be positive integers")
        if len(self.loadings) != len(self.block_sizes):
            raise ValueError("need one loading per block")
        if any(not 0.0 <= lam <= 1.0 for lam in self.loadings):
            raise ValueError("loadings must lie in [0, 1]")
        if self.noise_std <= 0.0:
            raise ValueError("noise_std must be positive")

    @property
    def num_factors(self) -> int:
        return len(self.block_sizes)

    @property
    def n_assets(self) -> int:
        return sum(self.block_sizes)


def _synthetic_meta(prefix: str, n_assets: int) -> dict[str, list[str]]:
    """The `tickers` and `classes` fields of a panel of equities."""
    width = max(3, len(str(n_assets)))
    return {
        "tickers": [f"{prefix}{i + 1:0{width}d}" for i in range(n_assets)],
        "classes": ["equities"] * n_assets,
    }


def simulate_gaussian_panel(n_assets: int, length: int, seed: int) -> Panel:
    """Panel of i.i.d. standard normal returns with synthetic SIM tickers."""
    if n_assets < 2 or length < 2:
        raise ValueError("need n_assets >= 2 and length >= 2")
    rng = np.random.default_rng(seed)
    return Panel(
        dates=weekly_dates(length, _EPOCH),
        values=rng.standard_normal((n_assets, length)),
        **_synthetic_meta("SIM", n_assets),
    )


def synthetic_factor_panel(spec: FactorSpec, length: int, seed: int) -> Panel:
    """Planted block-factor panel for validating structure detectors."""
    if length < 2:
        raise ValueError("need length >= 2")
    rng = np.random.default_rng(seed)
    factors = rng.standard_normal((spec.num_factors, length))
    noise = rng.standard_normal((spec.n_assets, length))
    returns = np.empty((spec.n_assets, length))
    row = 0
    for b, (lam, size) in enumerate(zip(spec.loadings, spec.block_sizes)):
        block = slice(row, row + size)
        returns[block] = lam * factors[b] + spec.noise_std * noise[block]
        row += size
    return Panel(
        dates=weekly_dates(length, _EPOCH),
        values=returns,
        **_synthetic_meta("FAC", spec.n_assets),
    )


def shuffle_panel(returns: Panel, seed: int) -> Panel:
    """Independently permute each asset's return series in time.

    Kills temporal alignment between assets while preserving every asset's
    return distribution. Rows are permuted in panel order from a single
    seeded generator, so output is a pure function of (panel, seed).
    """
    if returns.values.shape[1] < 2:
        raise ValueError("need at least 2 returns to shuffle")
    rng = np.random.default_rng(seed)
    shuffled = np.empty_like(returns.values)
    for i in range(returns.values.shape[0]):
        shuffled[i] = rng.permutation(returns.values[i])
    return Panel(
        dates=list(returns.dates), values=shuffled,
        tickers=list(returns.tickers), classes=list(returns.classes),
    )


def eigenvector_zscores(eigenvectors: np.ndarray, rank: int) -> np.ndarray:
    """sqrt(N)-scaled elements of the rank-th eigenvector row of the N x N
    `eigenvectors` (rank is 1-based).

    Elements of a unit eigenvector have variance 1/N, so this scaling makes
    them directly comparable with the unit-variance Gaussian expected for
    eigenvectors of random symmetric matrices.
    """
    n = len(eigenvectors)
    if rank < 1 or rank > n:
        raise ValueError(f"rank must be in [1, {n}], got {rank}")
    return math.sqrt(n) * eigenvectors[rank - 1]


def self_correlation_deltas(
    abs_r: np.ndarray, abs_r_adjusted: np.ndarray, max_rank: int
) -> list[np.ndarray]:
    """Per rank k <= max_rank, the samples abs_r[:, k] - abs_r_adjusted[:, k].

    Assets whose adjusted correlation is undefined are skipped, so a
    sample can be shorter than N. Index 0 corresponds to rank 1.
    """
    n_ranks = abs_r.shape[1]
    if not 1 <= max_rank <= n_ranks:
        raise ValueError(f"max_rank must be in [1, {n_ranks}], got {max_rank}")
    deltas = []
    for k in range(max_rank):
        diff = abs_r[:, k] - abs_r_adjusted[:, k]
        deltas.append(diff[np.isfinite(diff)])
    return deltas


def max_correlation_rank(abs_r: np.ndarray) -> np.ndarray:
    """For each asset (row of `abs_r`), the 1-based rank of its largest |r|."""
    return abs_r.argmax(axis=1) + 1
