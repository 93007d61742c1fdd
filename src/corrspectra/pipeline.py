"""End-to-end analysis runs and report emission.

A run loads a price panel, rolls standardized windows through the returns,
decomposes every window's correlation matrix, attaches the PCA diagnostics,
and computes (or loads from cache) the Monte Carlo null baselines for the
panel's shape. Reports are flat CSV/JSON with fixed headers; identical
inputs, configuration, and seed produce byte-identical files.

`write_reports`, the CLI's route, renders each block of windows in the
process that analysed it and streams the text into the report files.
`run_analysis` collects every window's WindowReport in memory instead.
"""

from __future__ import annotations

import contextlib
import datetime as dt
import itertools
import json
import os
import re
import shutil
import tempfile
from dataclasses import dataclass, field
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
from .correlation import CoefficientMoments, CorrelationMatrix, coefficient_moments
from .nulls import (
    NULL_KINDS,
    NullConfig,
    NullEnsembleStats,
    _block_map,
    _json_floats,
    available_cpus,
    cached_ensemble_stats,
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
    null_kind: str = "gaussian"
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
        if self.null_kind not in NULL_KINDS:
            raise ValueError(f"null kind must be one of {NULL_KINDS}")
        if self.classes is not None:
            self.classes = tuple(self.classes)


@dataclass
class WindowReport:
    window_index: int
    end_date: dt.date
    moments: CoefficientMoments
    eigenvalues: np.ndarray  # all N ranks
    variance_fractions: np.ndarray  # all N ranks
    pr: np.ndarray  # all N ranks
    kaiser_count: int
    scree_count: int
    scree_exceedance_count: int
    abs_r: np.ndarray  # assets x max_rank
    abs_r_adjusted: np.ndarray  # assets x max_rank
    tickers: list[str] = field(default_factory=list)


def _load_returns(config: RunConfig) -> tuple[ReturnPanel, int]:
    """The run's validated return panel and its number of windows."""
    panel = load_price_panel(config.prices_path, config.meta_path)
    if config.classes is not None:
        panel = subset_by_class(panel, config.classes)
    n = panel.n_assets
    if n < 3:
        raise ValueError(f"reports need at least 3 assets, panel has {n}")
    if config.max_rank > n:
        raise ValueError(f"max-rank {config.max_rank} exceeds panel size {n}")
    returns = compute_log_returns(panel)
    return returns, window_count(returns, config.window_len, config.step)


def _baseline(config: RunConfig, n_assets: int) -> NullEnsembleStats:
    null_config = NullConfig(
        n_assets=n_assets,
        window_len=config.window_len,
        sims=config.sims,
        master_seed=config.master_seed,
        kind=config.null_kind,
    )
    return cached_ensemble_stats(
        null_config, config.max_rank, config.baseline_cache
    )


def _window_block(
    returns: ReturnPanel, config: RunConfig, start: int, stop: int
) -> list[WindowReport]:
    """Reports for windows start..stop-1 of the roll, without tickers and
    with zero scree counts: those need the null baseline."""
    reports = []
    max_rank = config.max_rank
    for index in range(start, stop):
        window = standardize_window(
            returns, index * config.step, config.window_len, index
        )
        values, decomposition, pr, abs_r = analyze_window(
            window.z_hat, max_rank, index)
        beta, omega = decomposition.eigenvalues, decomposition.eigenvectors
        reports.append(
            WindowReport(
                window_index=index,
                end_date=window.end_date,
                moments=coefficient_moments(
                    CorrelationMatrix(index, window.end_date, values)),
                eigenvalues=beta,
                variance_fractions=variance_fractions(decomposition),
                pr=pr,
                kaiser_count=kaiser_guttman_count(decomposition),
                scree_count=0,
                scree_exceedance_count=0,
                abs_r=abs_r,
                abs_r_adjusted=_abs_r_adjusted(beta[:max_rank],
                                               omega[:max_rank]),
            )
        )
    return reports


def _window_rows(returns: ReturnPanel, config: RunConfig, start: int,
                 stop: int):
    """Windows start..stop-1 analysed and rendered.

    Returns their windows.csv rows without the scree counts, their
    eigenvalues.csv and asset_pc_corr.csv text as one string per window,
    and their eigenvalues as a (stop - start, N) array for the scree counts.
    """
    reports = _window_block(returns, config, start, stop)
    return ([_window_row(rep, config.max_rank) for rep in reports],
            _eigenvalues_rows(reports),
            _asset_corr_rows(reports, returns.tickers),
            np.stack([rep.eigenvalues for rep in reports]))


@contextlib.contextmanager
def _window_blocks(kernel, returns: ReturnPanel, config: RunConfig,
                   n_windows: int):
    """Yield kernel(returns, config, start, stop) for each block of
    WINDOW_BLOCK windows, in window order.

    With two or more blocks and CPUs, the blocks run in a pool of spawned
    processes, one per available CPU, which lives until the with block ends.
    """
    starts = range(0, n_windows, WINDOW_BLOCK)
    stops = [min(start + WINDOW_BLOCK, n_windows) for start in starts]
    with _block_map(available_cpus(), len(starts)) as block_map:
        yield block_map(kernel, itertools.repeat(returns),
                        itertools.repeat(config), starts, stops)


def _scree_counts(eigenvalues: np.ndarray,
                  stats: NullEnsembleStats) -> tuple[int, int]:
    """scree_count and scree_exceedance_count of one window's spectrum."""
    return (scree_significant_count(eigenvalues, stats),
            scree_exceedance_count(eigenvalues, stats))


def run_analysis(config: RunConfig) -> tuple[list[WindowReport], NullEnsembleStats]:
    """Execute the full pipeline in memory; reports come back ordered by
    window.

    Windows run in blocks of WINDOW_BLOCK. With two or more blocks and
    CPUs, the blocks run in a pool of spawned processes, one per available
    CPU, and their reports are collected in window order. The windows run
    before the null baseline, so a degenerate window ends the run before
    the ensemble starts.
    """
    returns, n_windows = _load_returns(config)
    with _window_blocks(_window_block, returns, config, n_windows) as blocks:
        reports = [report for block in blocks for report in block]
    stats = _baseline(config, returns.n_assets)
    tickers = returns.tickers
    for report in reports:
        report.scree_count, report.scree_exceedance_count = _scree_counts(
            report.eigenvalues, stats)
        report.tickers = tickers
    return reports, stats


def _fmt(value: float) -> str:
    if isinstance(value, float) and value != value:
        return "NaN"
    return format(value, ".15g")


def _windows_columns(max_rank: int) -> list[str]:
    header = ["window_index", "end_date", "corr_mean", "corr_std",
              "corr_skewness", "corr_kurtosis"]
    header += [f"variance_fraction_{k}" for k in range(1, max_rank + 1)]
    header += [f"pr_{k}" for k in range(1, max_rank + 1)]
    header += ["kaiser_count", "scree_count", "scree_exceedance_count"]
    return header


def _window_row(rep: WindowReport, max_rank: int) -> str:
    """A windows.csv row up to kaiser_count. The two scree counts that end
    it need the null baseline, which _windows_csv takes them from."""
    row = [
        str(rep.window_index),
        rep.end_date.isoformat(),
        _fmt(rep.moments.mean),
        _fmt(rep.moments.std),
        _fmt(rep.moments.skewness),
        _fmt(rep.moments.kurtosis),
    ]
    row += [_fmt(v) for v in rep.variance_fractions[:max_rank]]
    row += [_fmt(v) for v in rep.pr[:max_rank]]
    row.append(str(rep.kaiser_count))
    return ",".join(row)


def _windows_csv(rows, counts, max_rank: int) -> str:
    """windows.csv from _window_row rows and each row's two scree counts."""
    lines = [",".join(_windows_columns(max_rank)) + "\n"]
    lines += [f"{row},{scree},{exceedance}\n"
              for row, (scree, exceedance) in zip(rows, counts)]
    return "".join(lines)


def _window_lines(prefix: str, keys, templates, values: np.ndarray) -> str:
    """One window's CSV lines: line i is `prefix`, keys[i] and row i of
    `values`, where templates[i] is keys[i] with its value fields as %.15g.

    A single %-format renders the window. "%.15g" prints the digits _fmt
    prints, but NaN as "nan", so a window holding a NaN goes through _fmt.
    """
    if np.isnan(values).any():
        return "".join(f"{prefix}{key},{','.join(map(_fmt, row))}\n"
                       for key, row in zip(keys, values.tolist()))
    template = prefix + ("\n" + prefix).join(templates) + "\n"
    return template % tuple(values.ravel().tolist())


def _templates(keys, width: int) -> list[str]:
    return [key.replace("%", "%%") + ",%.15g" * width for key in keys]


def _eigenvalues_rows(reports) -> list[str]:
    """Each report's eigenvalues.csv lines, one string per window."""
    keys = [str(k) for k in range(1, len(reports[0].eigenvalues) + 1)]
    templates = _templates(keys, 1)
    return [_window_lines(f"{rep.window_index},{rep.end_date.isoformat()},",
                          keys, templates, rep.eigenvalues[:, None])
            for rep in reports]


def _asset_corr_rows(reports, tickers) -> list[str]:
    """Each report's asset_pc_corr.csv lines, one string per window."""
    n_ranks = reports[0].abs_r.shape[1]
    keys = [f"{name},{k}" for name in tickers for k in range(1, n_ranks + 1)]
    templates = _templates(keys, 2)
    return [_window_lines(f"{rep.window_index},", keys, templates,
                          np.stack([rep.abs_r, rep.abs_r_adjusted],
                                   -1).reshape(-1, 2))
            for rep in reports]


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
            "kind": stats.config.kind,
        },
        "pr_mean": _json_floats(stats.pr_mean),
        "pr_std": _json_floats(stats.pr_std),
        "scree_mean": _json_floats(stats.scree_mean),
        "abs_corr_p99": _json_floats(stats.abs_corr_p99),
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
            "null_kind": config.null_kind,
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

    Each block of windows is rendered in the process that analysed it, and
    the blocks' text is appended in window order to report files staged
    beside `config.output_dir` (see _staged_reports). The windows run
    before the null baseline, whose scree counts complete windows.csv.
    Returns the number of windows and the written paths.
    """
    returns, n_windows = _load_returns(config)
    output_dir = Path(config.output_dir)
    rows, eigenvalues = [], []
    with _staged_reports(output_dir) as staging:
        with _open_report(staging / "eigenvalues.csv") as eig_file, \
                _open_report(staging / "asset_pc_corr.csv") as corr_file, \
                _window_blocks(_window_rows, returns, config,
                               n_windows) as blocks:
            eig_file.write(_EIGENVALUES_HEADER)
            corr_file.write(_ASSET_CORR_HEADER)
            for block_rows, eig_texts, corr_texts, block_eigenvalues in blocks:
                rows += block_rows
                eigenvalues.extend(block_eigenvalues)
                eig_file.writelines(eig_texts)
                corr_file.writelines(corr_texts)
        stats = _baseline(config, returns.n_assets)
        counts = [_scree_counts(values, stats) for values in eigenvalues]
        _write_texts(staging, {
            "windows.csv": _windows_csv(rows, counts, config.max_rank),
            "null_baselines.json": _baselines_json(stats),
            "run_manifest.json": _manifest_json(config, n_windows,
                                                returns.tickers),
        })
    return n_windows, [output_dir / name for name in REPORT_FILES]
