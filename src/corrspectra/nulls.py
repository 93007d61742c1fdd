"""Null models, the Monte Carlo baseline ensemble, and its cache.

Baselines summarize ensembles of single null windows: participation-ratio
statistics, the mean sorted eigenvalue profile, and 99th percentiles of
absolute asset-component correlations. Both null kinds draw i.i.d. standard
Gaussian windows; "shuffled" also permutes each asset's draws in time,
which leaves them i.i.d. Gaussian. No panel's returns enter a baseline, so
the "shuffled" baseline has the Gaussian null's distribution. shuffle_panel
permutes the series of a real panel (keeps marginals, destroys alignment).

Reproducibility contract: simulation s draws from
``numpy.random.default_rng(SeedSequence(master_seed, spawn_key=(s,)))``,
so a simulation's stream depends only on (master_seed, s) and growing
`sims` never changes earlier simulations.
"""

from __future__ import annotations

import json
import math
import os
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .analytics import analyze_window
from .blocks import map_blocks
from .panel import ReturnPanel, standardize

NULL_KINDS = ("shuffled", "gaussian")
CACHE_SCHEMA_VERSION = "2"
# Sims per unit of work handed to a worker process. Results are reduced
# per sim in sim-index order, so neither this nor the worker count changes
# the output.
ENSEMBLE_BLOCK_SIMS = 250


@dataclass(frozen=True)
class NullConfig:
    """`sims` null windows of n_assets x window_len. Both kinds are i.i.d.
    Gaussian draws, so they share one distribution (see null_window)."""

    n_assets: int
    window_len: int
    sims: int = 1
    master_seed: int = 0
    kind: str = "gaussian"

    def __post_init__(self):
        if self.n_assets < 2:
            raise ValueError(f"n_assets must be >= 2, got {self.n_assets}")
        if self.window_len < 2:
            raise ValueError(f"window_len must be >= 2, got {self.window_len}")
        if self.sims < 1:
            raise ValueError(f"sims must be >= 1, got {self.sims}")
        if not 0 <= self.master_seed < 2**64:
            raise ValueError("master_seed must be an unsigned 64-bit integer")
        if self.kind not in NULL_KINDS:
            raise ValueError(f"kind must be one of {NULL_KINDS}, got {self.kind!r}")


@dataclass
class NullEnsembleStats:
    """Per-rank Monte Carlo summaries; abs_corr_p99 is NaN beyond the
    max_rank it was computed for."""

    pr_mean: np.ndarray
    pr_std: np.ndarray
    scree_mean: np.ndarray
    abs_corr_p99: np.ndarray
    config: NullConfig

    @property
    def p99_ranks(self) -> int:
        """Number of leading abs_corr_p99 ranks actually populated."""
        finite = np.isfinite(self.abs_corr_p99)
        return int(np.argmin(finite)) if not finite.all() else len(self.abs_corr_p99)


def sim_rng(master_seed: int, sim_index: int) -> np.random.Generator:
    """Child generator for one simulation; the documented seed contract."""
    return np.random.default_rng(
        np.random.SeedSequence(master_seed, spawn_key=(sim_index,))
    )


def shuffle_panel(returns: ReturnPanel, seed: int) -> ReturnPanel:
    """Independently permute each asset's return series in time.

    Kills temporal alignment between assets while preserving every asset's
    return distribution. Rows are permuted in panel order from a single
    seeded generator, so output is a pure function of (panel, seed).
    """
    if returns.returns.shape[1] < 2:
        raise ValueError("need at least 2 returns to shuffle")
    rng = np.random.default_rng(seed)
    shuffled = np.empty_like(returns.returns)
    for i in range(returns.returns.shape[0]):
        shuffled[i] = rng.permutation(returns.returns[i])
    return ReturnPanel(
        dates=list(returns.dates), returns=shuffled, meta=list(returns.meta)
    )


def null_window(config: NullConfig, sim_index: int) -> np.ndarray:
    """The standardized null window (n_assets x window_len) of simulation
    `sim_index`, drawn from sim_rng(config.master_seed, sim_index): i.i.d.
    standard Gaussian draws, which kind "shuffled" permutes per asset in
    time. That leaves them i.i.d. Gaussian; no panel's returns enter."""
    rng = sim_rng(config.master_seed, sim_index)
    x = rng.standard_normal((config.n_assets, config.window_len))
    if config.kind == "shuffled":
        for i in range(config.n_assets):
            x[i] = rng.permutation(x[i])
    return standardize(x, sim_index)


def _largest(values: np.ndarray, keep: int) -> np.ndarray:
    """The `keep` largest values of each row of `values`, in no order; all
    of them when a row holds no more. Partitions `values` in place."""
    columns = values.shape[1]
    if columns <= keep:
        return values
    values.partition(columns - keep, axis=1)
    return values[:, columns - keep:].copy()


def _ensemble_block(config: NullConfig, max_rank: int, keep: int,
                    start: int, stop: int):
    """Per-sim results for sims start..stop-1 of the ensemble.

    Returns (pr, beta, top): participation ratios and sorted eigenvalues
    as (stop - start, N) arrays, and for each rank k < max_rank the `keep`
    largest of the block's (stop - start) * N values of
    |omega_ki| sqrt(beta_k), in no order, as a (max_rank, kept) array.
    """
    n = config.n_assets
    pr = np.empty((stop - start, n))
    beta_rows = np.empty((stop - start, n))
    abs_corr = np.empty((max_rank, stop - start, n))
    for row, s in enumerate(range(start, stop)):
        _, decomposition, pr[row], abs_r = analyze_window(
            null_window(config, s), max_rank, s)
        beta_rows[row] = decomposition.eigenvalues
        abs_corr[:, row] = abs_r.T
    return pr, beta_rows, _largest(
        abs_corr.reshape(max_rank, (stop - start) * n), keep)


def null_ensemble_stats(config: NullConfig, max_rank: int = 0) -> NullEnsembleStats:
    """One Monte Carlo sweep collecting PR, scree, and |r| percentile baselines.

    Each simulation generates a single null window, runs it through
    analyze_window, the kernel the rolling windows use, with its checks,
    and contributes: participation ratios per rank,
    the sorted eigenvalues, and (for ranks <= max_rank) the N absolute
    asset-component correlations |omega_ki| sqrt(beta_k).

    Simulations run in blocks of ENSEMBLE_BLOCK_SIMS through map_blocks,
    and the per-sim results are added up in sim-index order, so the output
    does not depend on the block size, the worker count or the BLAS thread
    count. The nearest-rank 99th percentile of a rank's size = sims * N
    pooled |r| values is the value at r = ceil(0.99 * size) of the sorted
    sample: the smallest of its keep = size - r + 1 largest values. So each
    rank holds only the `keep` largest values seen so far, a hundredth of
    the pooled sample, and the percentile is still exact.
    """
    n = config.n_assets
    if not 0 <= max_rank <= n:
        raise ValueError(f"max_rank must be in [0, {n}], got {max_rank}")
    size = config.sims * n
    keep = size - max(1, math.ceil(99.0 / 100.0 * size)) + 1
    pr_sum = np.zeros(n)
    pr_sq = np.zeros(n)
    scree_sum = np.zeros(n)
    top = np.empty((max_rank, 0))
    with map_blocks(_ensemble_block, (config, max_rank, keep), config.sims,
                    ENSEMBLE_BLOCK_SIMS) as blocks:
        for pr, beta, block_top in blocks:
            for pr_row, beta_row in zip(pr, beta):
                pr_sum += pr_row
                pr_sq += pr_row * pr_row
                scree_sum += beta_row
            top = _largest(np.concatenate((top, block_top), axis=1), keep)
    pr_mean = pr_sum / config.sims
    pr_var = np.clip(pr_sq / config.sims - pr_mean**2, 0.0, None)
    p99 = np.full(n, np.nan)
    p99[:max_rank] = top.min(axis=1)
    return NullEnsembleStats(
        pr_mean=pr_mean,
        pr_std=np.sqrt(pr_var),
        scree_mean=scree_sum / config.sims,
        abs_corr_p99=p99,
        config=config,
    )


def _cache_key(config: NullConfig) -> str:
    return (
        f"N={config.n_assets},T={config.window_len},sims={config.sims},"
        f"kind={config.kind},seed={config.master_seed}"
    )


def _json_floats(values) -> list:
    """Floats for JSON: non-finite values become null."""
    return [None if not np.isfinite(v) else float(v) for v in values]


def stats_payload(stats: NullEnsembleStats) -> dict:
    """The baseline arrays as stored in the cache and null_baselines.json."""
    return {
        "pr_mean": _json_floats(stats.pr_mean),
        "pr_std": _json_floats(stats.pr_std),
        "scree_mean": _json_floats(stats.scree_mean),
        "abs_corr_p99": _json_floats(stats.abs_corr_p99),
    }


def _payload_to_stats(payload: dict, config: NullConfig) -> NullEnsembleStats:
    def arr(key):
        values = np.array(
            [np.nan if v is None else v for v in payload[key]], dtype=float
        )
        if values.shape != (config.n_assets,):
            raise ValueError(f"{key} has {values.size} values, "
                             f"expected {config.n_assets}")
        # only abs_corr_p99 has undefined (null) ranks
        if key != "abs_corr_p99" and not np.isfinite(values).all():
            raise ValueError(f"{key} holds a non-finite value")
        return values

    return NullEnsembleStats(
        pr_mean=arr("pr_mean"),
        pr_std=arr("pr_std"),
        scree_mean=arr("scree_mean"),
        abs_corr_p99=arr("abs_corr_p99"),
        config=config,
    )


def _warn_cache(cache_path: Path, problem) -> None:
    print(f"corrspectra: warning: baseline cache {cache_path} is unusable "
          f"({problem}); recomputing and rewriting it", file=sys.stderr)


def _read_cache(cache_path: Path) -> dict:
    """The cache file's contents, or an empty cache when the file is
    missing, of another schema version, or unreadable."""
    empty = {"schema_version": CACHE_SCHEMA_VERSION, "entries": {}}
    if not cache_path.exists():
        return empty
    try:
        with open(cache_path, encoding="utf-8") as fh:
            loaded = json.load(fh)
    except (OSError, ValueError) as exc:
        _warn_cache(cache_path, exc)
        return empty
    if not isinstance(loaded, dict) or not isinstance(loaded.get("entries"), dict):
        _warn_cache(cache_path, "not a baseline cache")
        return empty
    if loaded.get("schema_version") != CACHE_SCHEMA_VERSION:
        return empty
    return loaded


def _write_cache(cache_path: Path, cache: dict) -> None:
    """Replace the cache file in one step, so readers never see half of it."""
    cache_path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=cache_path.parent,
                               prefix=f".{cache_path.name}.", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            json.dump(cache, fh, indent=2, sort_keys=True)
            fh.write("\n")
        os.replace(tmp, cache_path)
    except BaseException:
        Path(tmp).unlink(missing_ok=True)
        raise


def cached_ensemble_stats(
    config: NullConfig, max_rank: int, cache_path=None
) -> NullEnsembleStats:
    """null_ensemble_stats with an optional JSON file cache.

    Entries are keyed by (N, T, sims, kind, master_seed) within a cache
    schema version that changes whenever the computed values can. A hit
    is reused only if it covers at least `max_rank` percentile ranks, and
    its ranks beyond `max_rank` are dropped (NaN); otherwise the entry is
    recomputed and overwritten. An unreadable or
    corrupt cache counts as a miss: a warning goes to stderr and the file
    is rewritten. Cached floats round-trip exactly, so cache hits and
    fresh computations produce identical downstream bytes.
    """
    if cache_path is None:
        return null_ensemble_stats(config, max_rank)
    cache_path = Path(cache_path)
    key = _cache_key(config)
    cache = _read_cache(cache_path)
    entry = cache["entries"].get(key)
    if entry is not None:
        try:
            stats = _payload_to_stats(entry, config)
        except (KeyError, TypeError, ValueError) as exc:
            _warn_cache(cache_path, f"entry {key}: {exc!r}")
        else:
            if stats.p99_ranks >= max_rank:
                stats.abs_corr_p99[max_rank:] = np.nan  # as computed fresh
                return stats
    stats = null_ensemble_stats(config, max_rank)
    cache["entries"][key] = stats_payload(stats)
    _write_cache(cache_path, cache)
    return stats
