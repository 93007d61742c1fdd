"""Null-model panels and Monte Carlo baselines.

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

import contextlib
import ctypes
import datetime as dt
import functools
import itertools
import json
import math
import os
import signal
import sys
import tempfile
import threading
from collections.abc import Callable
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .analytics import analyze_window
from .errors import WorkerProcessError
from .panel import AssetMeta, ReturnPanel, standardize

NULL_KINDS = ("shuffled", "gaussian")
CACHE_SCHEMA_VERSION = "2"
# Sims per unit of work handed to a worker process. Results are reduced
# per sim in sim-index order, so neither this nor the worker count changes
# the output.
ENSEMBLE_BLOCK_SIMS = 250
# Thread-count variables of the common BLAS builds, which spawned pool
# workers read at start-up. Pool workers already occupy every CPU, so each
# runs BLAS on one thread: more threads per worker oversubscribe the CPUs
# and run several times slower.
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
_POOL_ENV_LOCK = threading.Lock()
# OpenBLAS's run-time thread controls are <prefix>_set_num_threads<suffix>
# and so on: numpy's wheels bundle scipy-openblas with 64-bit integers
# ("64_"), scipy's with 32-bit ones, and classic builds use "openblas".
_OPENBLAS_NAMES = (("scipy_openblas", "64_"), ("scipy_openblas", ""),
                   ("openblas", ""))
_OPENBLAS_PTHREADS = 1  # openblas_get_parallel(): 0 serial, 1 pthreads, 2 OpenMP
_PR_SET_PDEATHSIG = 1  # from <linux/prctl.h>

_SYNTHETIC_EPOCH = dt.date(2000, 1, 7)


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


def sim_rng(master_seed: int, sim_index: int) -> np.random.Generator:
    """Child generator for one simulation; the documented seed contract."""
    return np.random.default_rng(
        np.random.SeedSequence(master_seed, spawn_key=(sim_index,))
    )


def _synthetic_dates(length: int) -> list[dt.date]:
    return [_SYNTHETIC_EPOCH + dt.timedelta(weeks=t) for t in range(length)]


def _synthetic_meta(prefix: str, n_assets: int) -> list[AssetMeta]:
    width = max(3, len(str(n_assets)))
    return [
        AssetMeta(ticker=f"{prefix}{i + 1:0{width}d}", asset_class="equities")
        for i in range(n_assets)
    ]


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


def simulate_gaussian_panel(n_assets: int, length: int, seed: int) -> ReturnPanel:
    """Panel of i.i.d. standard normal returns with synthetic SIM tickers."""
    if n_assets < 2 or length < 2:
        raise ValueError("need n_assets >= 2 and length >= 2")
    rng = np.random.default_rng(seed)
    return ReturnPanel(
        dates=_synthetic_dates(length),
        returns=rng.standard_normal((n_assets, length)),
        meta=_synthetic_meta("SIM", n_assets),
    )


def synthetic_factor_panel(spec: FactorSpec, length: int, seed: int) -> ReturnPanel:
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
    return ReturnPanel(
        dates=_synthetic_dates(length),
        returns=returns,
        meta=_synthetic_meta("FAC", spec.n_assets),
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


def nearest_rank_percentile(values: np.ndarray, pct: float) -> float:
    """Nearest-rank percentile of a pooled sample (deterministic)."""
    if values.size == 0:
        raise ValueError("empty sample")
    ordered = np.sort(values, axis=None)
    rank = max(1, math.ceil(pct / 100.0 * ordered.size))
    return float(ordered[rank - 1])


def available_cpus() -> int:
    """CPUs this process may run on: the worker count of a pool."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _ensemble_block(config: NullConfig, max_rank: int, start: int, stop: int):
    """Per-sim results for sims start..stop-1 of the ensemble.

    Returns (pr, beta, abs_corr): participation ratios and sorted
    eigenvalues as (stop - start, N) arrays, and |omega_ki| sqrt(beta_k)
    for ranks k < max_rank as a (max_rank, stop - start, N) array.
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
    return pr, beta_rows, abs_corr


@dataclass(frozen=True)
class _OpenBLAS:
    """The thread-count controls of one loaded OpenBLAS library."""

    get_num_threads: Callable[[], int]
    set_num_threads: Callable[[int], None]
    pthreads: bool  # threads are pthreads, which OpenBLAS stops before a fork


@functools.cache
def _openblas_at(path: str) -> _OpenBLAS | None:
    """The controls of the loaded library at `path`, or None when it exports
    none of the _OPENBLAS_NAMES."""
    try:
        lib = ctypes.CDLL(path)
    except OSError:
        return None
    for prefix, suffix in _OPENBLAS_NAMES:
        try:
            get, set_, parallel = (getattr(lib, f"{prefix}_{name}{suffix}")
                                   for name in ("get_num_threads",
                                                "set_num_threads",
                                                "get_parallel"))
        except AttributeError:
            continue
        get.argtypes, get.restype = [], ctypes.c_int
        set_.argtypes, set_.restype = [ctypes.c_int], None
        parallel.argtypes, parallel.restype = [], ctypes.c_int
        return _OpenBLAS(get, set_, parallel() == _OPENBLAS_PTHREADS)
    return None


def _openblas_libs() -> tuple[_OpenBLAS, ...]:
    """The OpenBLAS libraries loaded in this process whose thread count
    ctypes can set. They are found in /proc/self/maps, so only on Linux."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = {line.split(maxsplit=5)[-1].strip() for line in fh}
    except OSError:
        return ()
    libs = (_openblas_at(path) for path in sorted(paths)
            if "openblas" in os.path.basename(path))
    return tuple(lib for lib in libs if lib is not None)


class _OneBlasThread:
    """Run the _openblas_libs on one thread in this process, so results do
    not depend on the BLAS thread count, and restore their thread counts
    afterwards. Nested and concurrent uses share one pin: the first to
    enter sets it and the last to leave restores the counts."""

    def __init__(self):
        self._lock = threading.Lock()
        self._users = 0
        self._saved = ()

    def __enter__(self):
        with self._lock:
            if self._users == 0:
                self._saved = tuple((lib, lib.get_num_threads())
                                    for lib in _openblas_libs())
                for lib, _ in self._saved:
                    lib.set_num_threads(1)
            self._users += 1
        return self

    def __exit__(self, *exc_info):
        with self._lock:
            self._users -= 1
            if self._users == 0:
                for lib, threads in self._saved:
                    lib.set_num_threads(threads)
        return False


_one_blas_thread = _OneBlasThread()


def _pool_start_method() -> str:
    """"fork" on Linux when every loaded OpenBLAS is a pthreads build that
    _openblas_libs controls and no other Python thread runs; "spawn"
    otherwise. OpenBLAS stops its own threads before a fork; other threads
    could leave the child locks that nobody releases."""
    libs = _openblas_libs()
    if (sys.platform == "linux" and libs and all(lib.pthreads for lib in libs)
            and threading.active_count() == 1):
        return "fork"
    return "spawn"


def _init_worker(parent_pid: int) -> None:
    """Pool initializer: run BLAS on one thread and, on Linux, die with the
    pool's parent process."""
    if sys.platform == "linux":
        prctl = ctypes.CDLL(None, use_errno=True).prctl
        prctl.argtypes = [ctypes.c_int] + [ctypes.c_ulong] * 4
        prctl.restype = ctypes.c_int
        if prctl(_PR_SET_PDEATHSIG, signal.SIGKILL, 0, 0, 0) != 0:
            raise OSError(ctypes.get_errno(), "prctl(PR_SET_PDEATHSIG) failed")
        if os.getppid() != parent_pid:  # the parent died before the prctl
            os._exit(1)
    for lib in _openblas_libs():
        lib.set_num_threads(1)


@contextlib.contextmanager
def _blas_environment_pinned():
    """Set the _BLAS_THREAD_VARS to 1 in os.environ, for spawned workers to
    inherit, and restore them afterwards. The lock keeps concurrent pools
    from restoring each other's values."""
    with _POOL_ENV_LOCK:
        saved = {name: os.environ.get(name) for name in _BLAS_THREAD_VARS}
        os.environ.update(dict.fromkeys(_BLAS_THREAD_VARS, "1"))
        try:
            yield
        finally:
            for name, value in saved.items():
                if value is None:
                    os.environ.pop(name, None)
                else:
                    os.environ[name] = value


@contextlib.contextmanager
def map_blocks(kernel, shared: tuple, n_items: int, block: int):
    """Yield an iterator over kernel(*shared, start, stop) for each block of
    `block` items of range(n_items) in order: null-ensemble sims or rolling
    windows. BLAS runs on one thread in this process until the with block
    ends (_one_blas_thread). With two or more blocks and available CPUs,
    the blocks run in a pool of worker processes, one per CPU, which lives
    until the with block ends; otherwise in this process.

    The workers are forked when _pool_start_method allows it: they inherit
    the imported modules and run no `__main__` again. Otherwise they are
    spawned, and take their BLAS thread count from the environment, so
    _blas_environment_pinned holds _POOL_ENV_LOCK and pins it while the
    pool lives; that lock and the environment change are used only then.
    Either way _init_worker runs BLAS on one thread in each worker and, on
    Linux, has the worker killed when this process dies.

    The pool's processes have started when this yields. Forked ones
    inherit this process's unflushed file buffers, so callers write no
    report text before the with block is entered.
    """
    starts = range(0, n_items, block)
    stops = [min(start + block, n_items) for start in starts]
    args = (*map(itertools.repeat, shared), starts, stops)
    workers = min(available_cpus(), len(starts))
    with _one_blas_thread:
        if workers < 2:
            yield map(kernel, *args)
            return
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor
        from concurrent.futures.process import BrokenProcessPool

        method = _pool_start_method()
        cause = "killed, or out of memory"
        if method == "spawn":
            cause += (", or started from a script without an "
                      "`if __name__ == \"__main__\":` guard")
        with (_blas_environment_pinned() if method == "spawn"
              else contextlib.nullcontext()):
            pool = ProcessPoolExecutor(
                workers, mp_context=multiprocessing.get_context(method),
                initializer=_init_worker, initargs=(os.getpid(),),
            )
            try:
                yield pool.map(kernel, *args)
            except BrokenProcessPool as exc:
                raise WorkerProcessError(
                    f"a worker process ended abruptly ({cause})") from exc
            finally:
                # After an error, or Ctrl-C, drop the blocks not yet
                # started instead of waiting for them. A finished map has
                # none left.
                pool.shutdown(cancel_futures=True)


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
    count.
    """
    n = config.n_assets
    if not 0 <= max_rank <= n:
        raise ValueError(f"max_rank must be in [0, {n}], got {max_rank}")
    pr_sum = np.zeros(n)
    pr_sq = np.zeros(n)
    scree_sum = np.zeros(n)
    pooled = np.empty((max_rank, config.sims, n))
    start = 0
    with map_blocks(_ensemble_block, (config, max_rank), config.sims,
                    ENSEMBLE_BLOCK_SIMS) as blocks:
        for pr, beta, abs_corr in blocks:
            for pr_row, beta_row in zip(pr, beta):
                pr_sum += pr_row
                pr_sq += pr_row * pr_row
                scree_sum += beta_row
            pooled[:, start:start + len(pr)] = abs_corr
            start += len(pr)
    pr_mean = pr_sum / config.sims
    pr_var = np.clip(pr_sq / config.sims - pr_mean**2, 0.0, None)
    p99 = np.full(n, np.nan)
    for k in range(max_rank):
        p99[k] = nearest_rank_percentile(pooled[k], 99.0)
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
