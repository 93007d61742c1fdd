"""End-to-end analysis runs and report emission.

A run loads a price panel, rolls standardized windows through the returns,
decomposes every window's correlation matrix, attaches the PCA diagnostics,
and computes (or loads from cache) the Monte Carlo null baselines for the
panel's shape. Reports are flat CSV/JSON with fixed headers; identical
inputs, configuration, and seed produce byte-identical files.

`write_reports`, the CLI's route and the only one here, analyses each block
of windows with `_window_rows`, renders it in the process that analysed it
(every CSV float through `_csv_lines`) and streams the text into the
report files; windows.csv waits for the null baseline. In-memory results
come from the per-window functions the kernel calls (see the README).
"""

from __future__ import annotations

import contextlib
import json
import os
import re
import shutil
import tempfile
from dataclasses import astuple, dataclass
from pathlib import Path

import numpy as np

from .analytics import (
    _abs_r_adjusted,
    analyze_window,
    kaiser_guttman_count,
    scree_exceedance_count,
    scree_significant_count,
    variance_fractions,
)
from .blocks import map_blocks
from .correlation import coefficient_moments
from .nulls import (
    NULL_KIND,
    NullConfig,
    NullEnsembleStats,
    cached_ensemble_stats,
    stats_payload,
)
from .panel import (
    ReturnPanel,
    compute_log_returns,
    load_price_panel,
    standardize_window,
    subset_by_class,
    window_count,
)

SCHEMA_VERSION = "1"
# Windows per unit of work handed to a worker process. Reports are
# collected in window order, so neither this nor the worker count changes
# the output.
WINDOW_BLOCK = 100
REPORT_FILES = ("windows.csv", "eigenvalues.csv", "asset_pc_corr.csv",
                "null_baselines.json", "run_manifest.json")
_EIGENVALUES_HEADER = "window_index,end_date,rank,eigenvalue\n"
_ASSET_CORR_HEADER = "window_index,asset,rank,abs_r,abs_r_adjusted\n"


@dataclass
class RunConfig:
    prices_path: str
    meta_path: str
    output_dir: str
    window_len: int = 100
    step: int = 1
    sims: int = 10000
    master_seed: int = 0
    max_rank: int = 6
    classes: tuple[str, ...] | None = None
    baseline_cache: str | None = None

    def __post_init__(self):
        if self.window_len < 2:
            raise ValueError(f"window must be >= 2, got {self.window_len}")
        if self.step < 1:
            raise ValueError(f"step must be >= 1, got {self.step}")
        if self.sims < 1:
            raise ValueError(f"sims must be >= 1, got {self.sims}")
        if self.max_rank < 1:
            raise ValueError(f"max-rank must be >= 1, got {self.max_rank}")
        if not 0 <= self.master_seed < 2**64:
            raise ValueError("seed must be an unsigned 64-bit integer")
        if self.classes is not None:
            self.classes = tuple(self.classes)


def _load_returns(config: RunConfig) -> tuple[ReturnPanel, int]:
    """The run's validated return panel and its number of windows. Rejects
    an output path that is not a directory, and a cache path that is an
    input file, one of the output's REPORT_FILES or a directory, and makes
    the cache's directory, so an unusable output or cache fails before any
    window."""
    panel = load_price_panel(config.prices_path, config.meta_path)
    if config.classes is not None:
        panel = subset_by_class(panel, config.classes)
    n = panel.n_assets
    if n < 3:
        raise ValueError(f"reports need at least 3 assets, panel has {n}")
    if config.max_rank > n:
        raise ValueError(f"max-rank {config.max_rank} exceeds panel size {n}")
    returns = compute_log_returns(panel)
    n_windows = window_count(returns, config.window_len, config.step)
    output_dir = Path(config.output_dir)
    if output_dir.exists() and not output_dir.is_dir():
        raise FileExistsError(f"output {output_dir} is not a directory")
    if config.baseline_cache is not None:
        cache = Path(config.baseline_cache)
        if cache.exists() and any(os.path.samefile(cache, path) for path
                                  in (config.prices_path, config.meta_path)):
            raise ValueError(f"baseline cache {cache} is an input file")
        if (cache.name in REPORT_FILES
                and cache.parent.resolve() == output_dir.resolve()):
            raise ValueError(f"baseline cache {cache} is a report file")
        cache.parent.mkdir(parents=True, exist_ok=True)
        if cache.is_dir():
            raise IsADirectoryError(f"baseline cache {cache} is a directory")
    return returns, n_windows


def _window_rows(returns: ReturnPanel, config: RunConfig, start: int,
                 stop: int):
    """Windows start..stop-1 analysed: each one's windows.csv key
    ("index,end_date"), its numbers up to kaiser_count as a row of a
    (stop - start, 5 + 2 * max_rank) array, its eigenvalues.csv and
    asset_pc_corr.csv lines as one string each, and the (stop - start, N)
    eigenvalues for the scree counts that end windows.csv: those need the
    null baseline."""
    max_rank, n_assets = config.max_rank, returns.n_assets
    indices = range(start, stop)
    keys = []
    numbers = np.empty((len(indices), 5 + 2 * max_rank))
    eigenvalues = np.empty((len(indices), n_assets))
    pairs = np.empty((len(indices), n_assets, max_rank, 2))  # |r|, adjusted
    for row, index in enumerate(indices):
        window = standardize_window(
            returns, index * config.step, config.window_len, index
        )
        values, decomposition, pr, abs_r = analyze_window(
            window.z_hat, max_rank, index)
        beta, omega = decomposition.eigenvalues, decomposition.eigenvectors
        keys.append(f"{index},{window.end_date.isoformat()}")
        numbers[row] = [*astuple(coefficient_moments(values)),
                        *variance_fractions(decomposition)[:max_rank],
                        *pr[:max_rank], kaiser_guttman_count(decomposition)]
        eigenvalues[row] = beta
        pairs[row, :, :, 0] = abs_r
        pairs[row, :, :, 1] = _abs_r_adjusted(beta[:max_rank],
                                              omega[:max_rank])
    return (keys, numbers,
            _csv_lines([f"{key}," for key in keys],
                       [str(k) for k in range(1, n_assets + 1)],
                       eigenvalues[:, :, None]),
            _csv_lines([f"{index}," for index in indices],
                       [f"{name},{k}" for name in returns.tickers
                        for k in range(1, max_rank + 1)],
                       pairs.reshape(len(indices), -1, 2)),
            eigenvalues)


def _csv_lines(prefixes, keys, values: np.ndarray) -> list[str]:
    """One string per prefix: line j of string i is prefixes[i], keys[j]
    and values[i, j] as ",%.15g" fields, NaN as "NaN"; `values` has shape
    (len(prefixes), len(keys), width).

    A %-format renders each prefix's lines, so "%" in a prefix or key is
    escaped; "%.15g" prints NaN as "nan", so a NaN's field is written into
    the template instead.
    """
    keys = [key.replace("%", "%%") for key in keys]
    field = ",%.15g"
    keyed = [key + field * values.shape[2] + "\n" for key in keys]
    texts = []
    for prefix, rows in zip(prefixes, values):
        prefix = prefix.replace("%", "%%")
        undefined = np.isnan(rows)
        if undefined.any():
            fields = np.where(undefined, ",NaN", field).tolist()
            template = "".join(prefix + key + "".join(row) + "\n"
                               for key, row in zip(keys, fields))
        else:
            template = prefix + prefix.join(keyed)
        texts.append(template % tuple(rows[~undefined].tolist()))
    return texts


def _windows_columns(max_rank: int) -> list[str]:
    header = ["window_index", "end_date", "corr_mean", "corr_std",
              "corr_skewness", "corr_kurtosis"]
    header += [f"variance_fraction_{k}" for k in range(1, max_rank + 1)]
    header += [f"pr_{k}" for k in range(1, max_rank + 1)]
    header += ["kaiser_count", "scree_count", "scree_exceedance_count"]
    return header


def _baselines_json(stats: NullEnsembleStats) -> str:
    payload = {
        "schema_version": SCHEMA_VERSION,
        "config": {
            "n_assets": stats.config.n_assets,
            "window_len": stats.config.window_len,
            # each simulation is one null window
            "num_windows": 1,
            "sims": stats.config.sims,
            "master_seed": stats.config.master_seed,
            "kind": NULL_KIND,
        },
        **stats_payload(stats),
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _manifest_json(config: RunConfig, n_windows: int, tickers) -> str:
    payload = {
        "schema_version": SCHEMA_VERSION,
        "config": {
            "prices_path": str(config.prices_path),
            "meta_path": str(config.meta_path),
            "output_dir": str(config.output_dir),
            "window_len": config.window_len,
            "step": config.step,
            "sims": config.sims,
            "master_seed": config.master_seed,
            "null_kind": NULL_KIND,
            "max_rank": config.max_rank,
            "classes": list(config.classes) if config.classes else None,
            "baseline_cache": (
                str(config.baseline_cache) if config.baseline_cache else None
            ),
        },
        "n_windows": n_windows,
        "tickers": tickers,
        "files": {
            "windows.csv": {"columns": _windows_columns(config.max_rank)},
            "eigenvalues.csv": {
                "columns": _EIGENVALUES_HEADER.strip().split(",")
            },
            "asset_pc_corr.csv": {
                "columns": _ASSET_CORR_HEADER.strip().split(",")
            },
            "null_baselines.json": {
                "keyed_by": "(n_assets, window_len, sims, kind, master_seed)"
            },
        },
        "conventions": {
            "dates": "ISO-8601",
            "float_format": "15 significant digits (%.15g)",
            "undefined_marker": "NaN in CSV, null in JSON",
            "std": "population standard deviation (window length in the denominator)",
            "kurtosis": "raw fourth standardized moment; Gaussian gives 3",
            "eigenvalues": "eigenvalues of the correlation matrix itself; sum equals the number of assets",
            "eigenvector_sign": "each eigenvector sums positive; near-zero sums fall back to the first largest-magnitude entry",
            "percentile": "nearest-rank on the pooled sorted sample",
            "seed_derivation": "simulation s draws from numpy SeedSequence(master_seed, spawn_key=(s,))",
            "scree_count": "contiguous leading ranks above the null profile; scree_exceedance_count ignores crossings",
        },
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _open_report(path: Path):
    return open(path, "w", encoding="utf-8", newline="\n")


def _write_texts(directory: Path, contents: dict[str, str]) -> None:
    for name, text in contents.items():
        with _open_report(directory / name) as fh:
            fh.write(text)


def _remove_stale_staging(output_dir: Path) -> None:
    """Remove the staging directories of `output_dir` whose owner process
    is gone: a run killed by a signal it cannot catch leaves its own."""
    if os.name != "posix":  # elsewhere os.kill does not just probe
        return
    pattern = re.compile(re.escape(f".{output_dir.name}.")
                         + r"(\d{1,9})\.[a-z0-9_]+\.staging")
    for path in output_dir.parent.iterdir():
        match = pattern.fullmatch(path.name)
        if match is None:
            continue
        try:
            os.kill(int(match.group(1)), 0)
        except ProcessLookupError:
            shutil.rmtree(path, ignore_errors=True)
        except PermissionError:
            pass  # alive, owned by another user


@contextlib.contextmanager
def _staged_reports(output_dir: Path):
    """Yield a new staging directory `.<name>.<pid>.*.staging` beside
    `output_dir` for the REPORT_FILES, after removing those of runs whose
    process is gone.

    When the with block ends cleanly, `output_dir` is created if missing
    and the files are moved into it with os.replace. Either way the staging
    directory is then removed, so a failed run leaves no partial reports,
    and the reports of an earlier run in `output_dir` keep their bytes.
    """
    output_dir.parent.mkdir(parents=True, exist_ok=True)
    _remove_stale_staging(output_dir)
    staging = Path(tempfile.mkdtemp(prefix=f".{output_dir.name}.{os.getpid()}.",
                                    suffix=".staging", dir=output_dir.parent))
    try:
        yield staging
        output_dir.mkdir(exist_ok=True)
        for name in REPORT_FILES:
            os.replace(staging / name, output_dir / name)
    finally:
        shutil.rmtree(staging, ignore_errors=True)


def write_reports(config: RunConfig) -> tuple[int, list[Path]]:
    """Run the pipeline and write its five report files: the CLI's route.

    Windows run in blocks of WINDOW_BLOCK through blocks.map_blocks. Each
    block's eigenvalues.csv and asset_pc_corr.csv lines are rendered in the
    process that analysed it and appended in window order to report
    files staged beside `config.output_dir` (see _staged_reports). The
    windows run before the null baseline, whose scree counts end the
    windows.csv rows rendered here from the blocks' numbers.
    Returns the number of windows and the written paths.
    """
    returns, n_windows = _load_returns(config)
    output_dir = Path(config.output_dir)
    keys, numbers, eigenvalues = [], [], []
    with _staged_reports(output_dir) as staging:
        with _open_report(staging / "eigenvalues.csv") as eig_file, \
                _open_report(staging / "asset_pc_corr.csv") as corr_file, \
                map_blocks(_window_rows, (returns, config), n_windows,
                           WINDOW_BLOCK) as blocks:
            # A forked pool has started by now, so its workers inherit no
            # report text in these files' buffers.
            eig_file.write(_EIGENVALUES_HEADER)
            corr_file.write(_ASSET_CORR_HEADER)
            for block_keys, block_numbers, eig_texts, corr_texts, \
                    block_eigenvalues in blocks:
                keys += block_keys
                numbers.append(block_numbers)
                eigenvalues.extend(block_eigenvalues)
                eig_file.writelines(eig_texts)
                corr_file.writelines(corr_texts)
        stats = cached_ensemble_stats(
            NullConfig(n_assets=returns.n_assets,
                       window_len=config.window_len, sims=config.sims,
                       master_seed=config.master_seed),
            config.max_rank, config.baseline_cache)
        counts = [(scree_significant_count(values, stats),
                   scree_exceedance_count(values, stats))
                  for values in eigenvalues]
        rows = np.column_stack([np.concatenate(numbers), counts])
        _write_texts(staging, {
            "windows.csv": ",".join(_windows_columns(config.max_rank)) + "\n"
            + _csv_lines([""], keys, rows[None])[0],
            "null_baselines.json": _baselines_json(stats),
            "run_manifest.json": _manifest_json(config, n_windows,
                                                returns.tickers),
        })
    return n_windows, [output_dir / name for name in REPORT_FILES]
