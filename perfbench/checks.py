"""Output checks for one corrspectra CLI run.

The checks hold for any correct implementation, including one that moves
the last printed digits, and fail on wrong results: report layout, row
counts, eigenvalue invariants, counts consistent with the eigenvalues, an
independent ``np.corrcoef`` + ``np.linalg.eigh`` route on the generated
prices for every reported value of three windows, |r| ranges and the
null-baseline invariants.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import numpy as np

REPORT_FILES = ("asset_pc_corr.csv", "eigenvalues.csv", "null_baselines.json",
                "run_manifest.json", "windows.csv")
TRACE_TOL = 1e-8
ORACLE_TOL = 1e-9


def load_returns(prices_path) -> np.ndarray:
    """Dates x assets log returns of a prices CSV."""
    with open(prices_path, encoding="utf-8") as fh:
        n_assets = fh.readline().count(",")
    prices = np.loadtxt(prices_path, delimiter=",", skiprows=1,
                        usecols=range(1, n_assets + 1), ndmin=2)
    return np.diff(np.log(prices), axis=0)


def _oracle(block: np.ndarray, max_rank: int) -> dict[str, np.ndarray]:
    """One window's reported values by a plain-numpy route.

    `block` is the window's dates x assets returns. Assets are standardized
    with the population std, as the reports document, and the |r| values
    are Pearson correlations of the series themselves.
    """
    n = block.shape[1]
    corr = np.corrcoef(block, rowvar=False)
    coeffs = corr[np.triu_indices(n, k=1)]
    centered = coeffs - coeffs.mean()
    std = centered.std()
    beta, vectors = np.linalg.eigh(corr)
    beta, vectors = beta[::-1], vectors[:, ::-1]
    z = (block - block.mean(axis=0)) / block.std(axis=0)
    v = vectors[:, :max_rank]
    y = z @ v  # component series, dates x ranks
    abs_r = np.abs(np.corrcoef(np.hstack([z, y]), rowvar=False)[:n, n:])
    adjusted = np.empty((n, max_rank))
    zc = z - z.mean(axis=0)
    for k in range(max_rank):
        w = y[:, [k]] - z * v[:, k]  # column i: component k without asset i
        wc = w - w.mean(axis=0)
        adjusted[:, k] = np.abs((zc * wc).sum(axis=0)) / np.sqrt(
            (zc**2).sum(axis=0) * (wc**2).sum(axis=0))
    return {
        "eigenvalues": beta,
        "moments": np.array([coeffs.mean(), std, np.mean(centered**3) / std**3,
                             np.mean(centered**4) / std**4]),
        "variance_fraction": beta[:max_rank] / n,
        "pr": 1.0 / (vectors[:, :max_rank] ** 4).sum(axis=0),
        "abs_r": abs_r,
        "abs_r_adjusted": adjusted,
    }


def _count_range(beta: np.ndarray, threshold, prefix: bool) -> tuple:
    """Counts of eigenvalues above `threshold` with the threshold moved by
    -/+ ORACLE_TOL: a correct count lies between them. `prefix` counts only
    the leading run, as the scree count does."""
    def count(shift):
        above = beta > threshold + shift
        if not prefix:
            return above.sum(axis=1)
        return np.where(above.all(axis=1), above.shape[1], np.argmin(above, axis=1))
    return count(ORACLE_TOL), count(-ORACLE_TOL)


def check_outputs(out_dir, returns: np.ndarray, window_len: int, step: int,
                  max_rank: int) -> list[str]:
    """Every failed check as a message; an empty list means the run passed."""
    out_dir = Path(out_dir)
    names = sorted(p.name for p in out_dir.iterdir())
    if names != list(REPORT_FILES):
        return [f"output files {names}, expected {list(REPORT_FILES)}"]
    failures = []
    n_returns, n = returns.shape
    n_windows = (n_returns - window_len) // step + 1

    with open(out_dir / "windows.csv", encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
    col = {name: i for i, name in enumerate(header)}
    # end_date reads as NaN; every other column is numeric
    win = np.genfromtxt(out_dir / "windows.csv", delimiter=",", skip_header=1,
                        ndmin=2)
    if win.shape[0] != n_windows:
        return failures + [f"windows.csv has {win.shape[0]} rows, "
                           f"expected {n_windows}"]
    if not np.array_equal(win[:, 0], np.arange(n_windows)):
        failures.append("windows.csv rows are not ordered by window")

    eig = np.loadtxt(out_dir / "eigenvalues.csv", delimiter=",", skiprows=1,
                     usecols=(0, 2, 3), ndmin=2)
    if eig.shape[0] != n_windows * n:
        return failures + [f"eigenvalues.csv has {eig.shape[0]} rows, "
                           f"expected {n_windows * n}"]
    expected_index = np.repeat(np.arange(n_windows), n)
    expected_rank = np.tile(np.arange(1, n + 1), n_windows)
    if not (np.array_equal(eig[:, 0], expected_index)
            and np.array_equal(eig[:, 1], expected_rank)):
        failures.append("eigenvalues.csv rows are not ordered by (window, rank)")
    beta = eig[:, 2].reshape(n_windows, n)
    gap = np.abs(beta.sum(axis=1) - n)
    if not np.all(gap <= TRACE_TOL):
        w = int(np.argmax(gap))
        failures.append(f"window {w}: eigenvalues sum to N within {gap[w]:.3e}")
    if np.any(np.diff(beta, axis=1) > 0):
        failures.append("eigenvalues are not descending in some window")
    if np.any(beta < -TRACE_TOL):
        failures.append(f"eigenvalue {beta.min():.3e} below -{TRACE_TOL}")

    corr = np.loadtxt(out_dir / "asset_pc_corr.csv", delimiter=",", skiprows=1,
                      usecols=(0, 2, 3, 4), ndmin=2)
    if corr.shape[0] != n_windows * n * max_rank:
        return failures + [f"asset_pc_corr.csv has {corr.shape[0]} rows, "
                           f"expected {n_windows * n * max_rank}"]
    if not (np.array_equal(corr[:, 0], np.repeat(np.arange(n_windows), n * max_rank))
            and np.array_equal(corr[:, 1],
                               np.tile(np.arange(1, max_rank + 1), n_windows * n))):
        failures.append("asset_pc_corr.csv rows are not ordered by "
                        "(window, asset, rank)")
    abs_r = corr[:, 2].reshape(n_windows, n, max_rank)
    adjusted = corr[:, 3].reshape(n_windows, n, max_rank)
    if not np.all((abs_r >= 0.0) & (abs_r <= 1.0)):
        failures.append("abs_r outside [0, 1]")
    if not np.all(np.isnan(adjusted) | ((adjusted >= 0.0) & (adjusted <= 1.0))):
        failures.append("abs_r_adjusted outside [0, 1] and not NaN")

    ranks = range(1, max_rank + 1)
    reported = {
        "moments": win[:, [col[c] for c in ("corr_mean", "corr_std",
                                            "corr_skewness", "corr_kurtosis")]],
        "variance_fraction": win[:, [col[f"variance_fraction_{k}"] for k in ranks]],
        "pr": win[:, [col[f"pr_{k}"] for k in ranks]],
        "eigenvalues": beta,
        "abs_r": abs_r,
        "abs_r_adjusted": adjusted,
    }
    for w in sorted({0, n_windows // 2, n_windows - 1}):
        oracle = _oracle(returns[w * step: w * step + window_len], max_rank)
        for name, expected in oracle.items():
            got = reported[name][w]
            close = np.isclose(got, expected, rtol=ORACLE_TOL, atol=ORACLE_TOL,
                               equal_nan=True)
            if not close.all():
                err = float(np.nanmax(np.abs(got - expected)))
                failures.append(f"window {w}: plain-numpy oracle mismatch in "
                                f"{name} by {err:.3e}")

    with open(out_dir / "null_baselines.json", encoding="utf-8") as fh:
        baselines = json.load(fh)
    scree = baselines["scree_mean"]
    if (len(scree) != n or None in scree
            or not abs(math.fsum(scree) - n) <= TRACE_TOL):
        failures.append("null scree_mean does not sum to N")
    else:
        for name, threshold, prefix in (("kaiser_count", 1.0, False),
                                        ("scree_count", np.array(scree), True),
                                        ("scree_exceedance_count", np.array(scree),
                                         False)):
            lo, hi = _count_range(beta, threshold, prefix)
            got = win[:, col[name]]
            if not np.all((lo <= got) & (got <= hi)):
                w = int(np.argmax((got < lo) | (got > hi)))
                failures.append(f"window {w}: {name} {got[w]:.0f} does not match "
                                f"its eigenvalues (expected {lo[w]}..{hi[w]})")
    p99 = baselines["abs_corr_p99"][:max_rank]
    if len(p99) != max_rank or not all(v is not None and 0.0 < v <= 1.0 for v in p99):
        failures.append(f"abs_corr_p99 not in (0, 1] for ranks <= {max_rank}")
    # A null correlation matrix has nearly uniformly random eigenvectors,
    # whose participation ratio is about N / 3 at every rank.
    pr_mean, pr_std = baselines["pr_mean"], baselines["pr_std"]
    if (len(pr_mean) != n or None in pr_mean
            or not all(n / 6 <= v <= 2 * n / 3 for v in pr_mean)):
        failures.append(f"null pr_mean outside [N/6, 2N/3] = [{n / 6:.1f}, "
                        f"{2 * n / 3:.1f}]")
    if len(pr_std) != n or not all(v is not None and 0.0 <= v < n for v in pr_std):
        failures.append("null pr_std not in [0, N)")
    return failures


def digests(out_dir) -> dict[str, str]:
    """sha256 of every file in `out_dir`, for byte-identity comparisons."""
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(Path(out_dir).iterdir())}
