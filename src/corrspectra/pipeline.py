"""End-to-end analysis runs and report emission.

A run loads a price panel, rolls standardized windows through the returns,
decomposes every window's correlation matrix, attaches the PCA diagnostics,
and computes (or loads from cache) the Monte Carlo null baselines for the
panel's shape. Reports are flat CSV/JSON with fixed headers; identical
inputs, configuration, and seed produce byte-identical files.
"""

from __future__ import annotations

import datetime as dt
import itertools
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .analytics import (
    adjusted_component_correlations,
    kaiser_guttman_count,
    participation,
    scree_exceedance_count,
    scree_significant_count,
    variance_fractions,
)
from .correlation import CoefficientMoments, coefficient_moments, correlation_matrix
from .nulls import (
    NULL_KINDS,
    NullConfig,
    NullEnsembleStats,
    _block_map,
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
from .spectral import eigendecompose

SCHEMA_VERSION = "1"
# Windows per unit of work handed to a worker process. Reports are
# collected in window order, so neither this nor the worker count changes
# the output.
WINDOW_BLOCK = 100


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


def _window_block(
    returns: ReturnPanel, config: RunConfig, stats: NullEnsembleStats,
    start: int, stop: int,
) -> list[WindowReport]:
    """Reports for windows start..stop-1 of the roll, without tickers."""
    reports = []
    for index in range(start, stop):
        window = standardize_window(
            returns, index * config.step, config.window_len, index
        )
        matrix = correlation_matrix(window)
        decomposition = eigendecompose(matrix)
        profile = variance_fractions(decomposition)
        part = participation(decomposition)
        correlations = adjusted_component_correlations(window, decomposition)
        reports.append(
            WindowReport(
                window_index=window.window_index,
                end_date=window.end_date,
                moments=coefficient_moments(matrix),
                eigenvalues=decomposition.eigenvalues,
                variance_fractions=profile.fractions,
                pr=part.pr,
                kaiser_count=kaiser_guttman_count(decomposition),
                scree_count=scree_significant_count(decomposition, stats),
                scree_exceedance_count=scree_exceedance_count(decomposition, stats),
                # copies, so a report does not keep the N x N arrays alive
                abs_r=correlations.abs_r[:, : config.max_rank].copy(),
                abs_r_adjusted=correlations.abs_r_adjusted[:, : config.max_rank].copy(),
            )
        )
    return reports


def run_analysis(config: RunConfig) -> tuple[list[WindowReport], NullEnsembleStats]:
    """Execute the full pipeline; reports come back ordered by window.

    Windows run in blocks of WINDOW_BLOCK. With two or more blocks and
    CPUs, the blocks run in a pool of spawned processes, one per available
    CPU, and their reports are collected in window order.
    """
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

    null_config = NullConfig(
        n_assets=n,
        window_len=config.window_len,
        num_windows=1,
        sims=config.sims,
        master_seed=config.master_seed,
        kind=config.null_kind,
    )
    stats = cached_ensemble_stats(
        null_config, config.max_rank, config.baseline_cache
    )

    starts = range(0, n_windows, WINDOW_BLOCK)
    stops = [min(start + WINDOW_BLOCK, n_windows) for start in starts]
    with _block_map(available_cpus(), len(starts)) as block_map:
        blocks = block_map(_window_block, itertools.repeat(returns),
                           itertools.repeat(config), itertools.repeat(stats),
                           starts, stops)
        reports = [report for block in blocks for report in block]
    tickers = panel.tickers
    for report in reports:
        report.tickers = tickers
    return reports, stats


def _fmt(value: float) -> str:
    if isinstance(value, float) and value != value:
        return "NaN"
    return format(value, ".15g")


def _windows_csv(reports, max_rank: int) -> str:
    header = ["window_index", "end_date", "corr_mean", "corr_std",
              "corr_skewness", "corr_kurtosis"]
    header += [f"variance_fraction_{k}" for k in range(1, max_rank + 1)]
    header += [f"pr_{k}" for k in range(1, max_rank + 1)]
    header += ["kaiser_count", "scree_count", "scree_exceedance_count"]
    lines = [",".join(header)]
    for rep in reports:
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
        row += [str(rep.kaiser_count), str(rep.scree_count),
                str(rep.scree_exceedance_count)]
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


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


def _eigenvalues_csv(reports) -> str:
    lines = ["window_index,end_date,rank,eigenvalue\n"]
    if reports:
        keys = [str(k) for k in range(1, len(reports[0].eigenvalues) + 1)]
        templates = _templates(keys, 1)
    for rep in reports:
        prefix = f"{rep.window_index},{rep.end_date.isoformat()},"
        lines.append(_window_lines(prefix, keys, templates,
                                   rep.eigenvalues[:, None]))
    return "".join(lines)


def _asset_corr_csv(reports, tickers) -> str:
    lines = ["window_index,asset,rank,abs_r,abs_r_adjusted\n"]
    if reports:
        n_assets, n_ranks = reports[0].abs_r.shape
        names = tickers if tickers else [str(i) for i in range(n_assets)]
        keys = [f"{name},{k}" for name in names for k in range(1, n_ranks + 1)]
        templates = _templates(keys, 2)
    for rep in reports:
        pairs = np.stack([rep.abs_r, rep.abs_r_adjusted], -1).reshape(-1, 2)
        lines.append(_window_lines(f"{rep.window_index},", keys, templates,
                                   pairs))
    return "".join(lines)


def _json_floats(values) -> list:
    return [None if not np.isfinite(v) else float(v) for v in values]


def _baselines_json(stats: NullEnsembleStats) -> str:
    payload = {
        "schema_version": SCHEMA_VERSION,
        "config": {
            "n_assets": stats.config.n_assets,
            "window_len": stats.config.window_len,
            "num_windows": stats.config.num_windows,
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


def _manifest_json(config: RunConfig | None, reports, max_rank: int,
                   tickers) -> str:
    windows_cols = _windows_csv([], max_rank).strip().split(",")
    payload = {
        "schema_version": SCHEMA_VERSION,
        "config": None,
        "n_windows": len(reports),
        "tickers": tickers,
        "files": {
            "windows.csv": {"columns": windows_cols},
            "eigenvalues.csv": {
                "columns": ["window_index", "end_date", "rank", "eigenvalue"]
            },
            "asset_pc_corr.csv": {
                "columns": ["window_index", "asset", "rank", "abs_r",
                            "abs_r_adjusted"]
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
    if config is not None:
        payload["config"] = {
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
        }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def emit_reports(reports, stats, output_dir, config=None, tickers=None):
    """Write the five report files; returns the written paths.

    All contents are rendered before anything touches disk, and a failed
    write removes every file this call already created, so an aborted run
    leaves no partial reports behind.
    """
    if tickers is None and reports and reports[0].tickers:
        tickers = reports[0].tickers
    max_rank = reports[0].abs_r.shape[1] if reports else (
        config.max_rank if config else 1
    )
    output_dir = Path(output_dir)
    contents = {
        "windows.csv": _windows_csv(reports, max_rank),
        "eigenvalues.csv": _eigenvalues_csv(reports),
        "asset_pc_corr.csv": _asset_corr_csv(reports, tickers),
        "null_baselines.json": _baselines_json(stats),
        "run_manifest.json": _manifest_json(config, reports, max_rank,
                                            tickers),
    }
    output_dir.mkdir(parents=True, exist_ok=True)
    written = []
    try:
        for name, text in contents.items():
            path = output_dir / name
            written.append(path)
            with open(path, "w", encoding="utf-8", newline="\n") as fh:
                fh.write(text)
    except OSError:
        for path in written:
            try:
                path.unlink(missing_ok=True)
            except OSError:
                pass
        raise
    return written
