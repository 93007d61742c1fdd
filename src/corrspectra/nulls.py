"""Null models, the Monte Carlo baseline ensemble, and its cache.

Baselines summarize ensembles of single null windows: participation-ratio
statistics, the mean sorted eigenvalue profile, and 99th percentiles of
absolute asset-component correlations, as the four arrays of a
NullEnsembleStats. The NullConfig that made them stays with the caller. The
null is the paper's uncorrelated random price changes: each window is
i.i.d. standard Gaussian draws, so no panel's returns enter a baseline.

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
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

try:
    import fcntl
except ImportError:  # not POSIX: the cache is merged without a lock
    fcntl = None

from .analytics import analyze_window
from .blocks import map_blocks
from .panel import standardize

# The one null model; it stays in the cache key and the reports' config
# so that caches and reports written by earlier versions keep their bytes.
NULL_KIND = "gaussian"
CACHE_SCHEMA_VERSION = "2"


@dataclass(frozen=True)
class NullConfig:
    """`sims` i.i.d. Gaussian null windows of n_assets x window_len."""

    n_assets: int
    window_len: int
    sims: int = 1
    master_seed: int = 0

    def __post_init__(self):
        if self.n_assets < 2:
            raise ValueError(f"n_assets must be >= 2, got {self.n_assets}")
        if self.window_len < 2:
            raise ValueError(f"window_len must be >= 2, got {self.window_len}")
        if self.sims < 1:
            raise ValueError(f"sims must be >= 1, got {self.sims}")
        if not 0 <= self.master_seed < 2**64:
            raise ValueError("master_seed must be an unsigned 64-bit integer")


@dataclass
class NullEnsembleStats:
    """Per-rank Monte Carlo summaries of one NullConfig's ensemble, one
    value per rank each; abs_corr_p99 is NaN beyond the max_rank it was
    computed for. The cache and null_baselines.json store these fields."""

    pr_mean: np.ndarray
    pr_std: np.ndarray
    scree_mean: np.ndarray
    abs_corr_p99: np.ndarray


def sim_rng(master_seed: int, sim_index: int) -> np.random.Generator:
    """Child generator for one simulation; the documented seed contract."""
    return np.random.default_rng(
        np.random.SeedSequence(master_seed, spawn_key=(sim_index,))
    )


def null_window(config: NullConfig, sim_index: int) -> np.ndarray:
    """The standardized null window (n_assets x window_len) of simulation
    `sim_index`: i.i.d. standard Gaussian draws from
    sim_rng(config.master_seed, sim_index)."""
    x = sim_rng(config.master_seed, sim_index).standard_normal(
        (config.n_assets, config.window_len))
    return standardize(x, f"null simulation {sim_index}")


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
        _, beta_rows[row], _, pr[row], abs_r = analyze_window(
            null_window(config, s), max_rank, f"null simulation {s}")
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

    Simulations run in blocks of blocks.BLOCK through map_blocks, and the
    per-sim results are added up in sim-index order, so the output does
    not depend on the block size, the worker count or the BLAS thread
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
    with map_blocks(_ensemble_block, (config, max_rank, keep),
                    config.sims) as blocks:
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
    )


def _cache_key(config: NullConfig) -> str:
    return (
        f"N={config.n_assets},T={config.window_len},sims={config.sims},"
        f"kind={NULL_KIND},seed={config.master_seed}"
    )


def _json_floats(values) -> list:
    """Floats for JSON: non-finite values become null."""
    return [None if not np.isfinite(v) else float(v) for v in values]


def stats_payload(stats: NullEnsembleStats) -> dict:
    """The baseline arrays as stored in the cache and null_baselines.json."""
    return {field.name: _json_floats(getattr(stats, field.name))
            for field in fields(stats)}


def _payload_to_stats(payload: dict, config: NullConfig) -> NullEnsembleStats:
    def arr(key):
        if not all(v is None or type(v) in (int, float)
                   and abs(v) <= sys.float_info.max for v in payload[key]):
            raise TypeError(f"{key} holds a value that is not a finite number")
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

    return NullEnsembleStats(**{field.name: arr(field.name)
                                for field in fields(NullEnsembleStats)})


def _read_cache(cache_path: Path) -> tuple[dict, object]:
    """The cache file's contents and None, or an empty cache when the file
    is missing or of another schema version, or an empty cache and the
    problem when it is unreadable."""
    empty = {"schema_version": CACHE_SCHEMA_VERSION, "entries": {}}
    if not cache_path.exists():
        return empty, None
    try:
        with open(cache_path, encoding="utf-8") as fh:
            loaded = json.load(fh)
    except (OSError, ValueError) as exc:
        return empty, exc
    if not isinstance(loaded, dict) or not isinstance(loaded.get("entries"), dict):
        return empty, "not a baseline cache"
    if loaded.get("schema_version") != CACHE_SCHEMA_VERSION:
        return empty, None
    return loaded, None


def _write_entry(cache_path: Path, key: str, payload: dict) -> None:
    """Store `payload` under `key` in the cache file as it is now, so the
    entries other runs stored since this one read it are kept. The file is
    replaced in one step, so readers never see half of it. On POSIX the
    re-read and the replace hold an flock on the hidden sidecar file
    `.<name>.lock`, which stays in place, so concurrent writers take turns."""
    cache_path.parent.mkdir(parents=True, exist_ok=True)
    with open(cache_path.with_name(f".{cache_path.name}.lock"), "a") as lock:
        if fcntl is not None:
            fcntl.flock(lock, fcntl.LOCK_EX)
        cache, _ = _read_cache(cache_path)
        cache["entries"][key] = payload
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

    Entries are keyed by (N, T, sims, kind, master_seed), kind always
    NULL_KIND, within a cache schema version that changes whenever the
    computed values can. A hit is reused only if it covers at least
    `max_rank` percentile ranks, and its ranks beyond `max_rank` are
    dropped (NaN); otherwise the entry is recomputed and overwritten,
    merged into the file as it is then (see _write_entry). An unreadable or
    corrupt cache counts as a miss: a warning goes to stderr and the file
    is rewritten. Cached floats round-trip exactly, so cache hits and fresh
    computations produce identical downstream bytes. A directory path
    raises IsADirectoryError. A miss first needs the nearest existing
    ancestor, where _write_entry makes the file, to be a directory
    (NotADirectoryError) this process can write in (PermissionError); the
    warning waits until both checks pass.
    """
    if cache_path is None:
        return null_ensemble_stats(config, max_rank)
    cache_path = Path(cache_path)
    what = f"baseline cache {cache_path}"
    if cache_path.is_dir():  # ".", "" and "/" have no parents
        raise IsADirectoryError(f"{what} is a directory")
    key = _cache_key(config)
    cache, problem = _read_cache(cache_path)
    entry = cache["entries"].get(key)
    if entry is not None:
        try:
            stats = _payload_to_stats(entry, config)
        except (KeyError, TypeError, ValueError) as exc:
            problem = f"entry {key}: {exc!r}"
        else:
            if np.isfinite(stats.abs_corr_p99[:max_rank]).all():
                stats.abs_corr_p99[max_rank:] = np.nan  # as computed fresh
                return stats
    base = next(parent for parent in cache_path.parents if parent.exists())
    if not base.is_dir():
        raise NotADirectoryError(f"{what}: {base} is not a directory")
    if not os.access(base, os.W_OK | os.X_OK):
        raise PermissionError(f"{what}: cannot write in {base}")
    if problem is not None:
        print(f"corrspectra: warning: {what} is unusable ({problem}); "
              "recomputing and rewriting it", file=sys.stderr)
    stats = null_ensemble_stats(config, max_rank)
    _write_entry(cache_path, key, stats_payload(stats))
    return stats
