"""Shared oracles and fixtures for the test suite.

The oracles here deliberately avoid the library's own code paths: plain
loops for correlations, explicit determinant expansion plus bisection for
eigenvalues, so library results are checked against independent routes.
Whole runs are checked by perfbench/checks.py's plain-numpy route, which
`bench_module` loads and `null_reference` extends to the null baseline.
"""

import datetime as dt
import importlib.util
import math
import sys
from pathlib import Path

import numpy as np

DATA_DIR = Path(__file__).resolve().parent.parent / "data"
EXAMPLE_META = DATA_DIR / "asset_classes_example.csv"


def pearson_pop(a, b):
    """Population-convention Pearson correlation via an explicit loop."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    n = len(a)
    ma = sum(a) / n
    mb = sum(b) / n
    cov = sum((a[i] - ma) * (b[i] - mb) for i in range(n)) / n
    va = sum((a[i] - ma) ** 2 for i in range(n)) / n
    vb = sum((b[i] - mb) ** 2 for i in range(n)) / n
    return cov / np.sqrt(va * vb)


def pairwise_corr(z_hat):
    """Correlation matrix built coefficient by coefficient."""
    n = z_hat.shape[0]
    out = np.eye(n)
    for i in range(n):
        for j in range(i + 1, n):
            out[i, j] = out[j, i] = pearson_pop(z_hat[i], z_hat[j])
    return out


def _det3(m):
    return (
        m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
        - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
        + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
    )


def charpoly_roots_3x3(r, tol=1e-12):
    """Eigenvalues of a symmetric 3x3 matrix by characteristic-polynomial
    bisection. Scans for sign changes of det(R - x I) on a fine grid over
    [-1, trace+1] and bisects each bracket."""

    def poly(x):
        shifted = [[r[i][j] - (x if i == j else 0.0) for j in range(3)] for i in range(3)]
        return _det3(shifted)

    lo, hi = -1.0, float(np.trace(r)) + 1.0
    grid = np.linspace(lo, hi, 20001)
    values = [poly(x) for x in grid]
    roots = []
    for a, b, fa, fb in zip(grid[:-1], grid[1:], values[:-1], values[1:]):
        if fa == 0.0:
            roots.append(a)
            continue
        if fa * fb < 0:
            left, right, fleft = a, b, fa
            while right - left > tol:
                mid = (left + right) / 2
                fmid = poly(mid)
                if fmid == 0.0:
                    left = right = mid
                elif fleft * fmid < 0:
                    right = mid
                else:
                    left, fleft = mid, fmid
            roots.append((left + right) / 2)
    return sorted(roots, reverse=True)


def nearest_rank_percentile(values, pct):
    """Nearest-rank percentile of a pooled sample: the value at rank
    ceil(pct / 100 * size) of the fully sorted sample."""
    if values.size == 0:
        raise ValueError("empty sample")
    ordered = np.sort(values, axis=None)
    rank = max(1, math.ceil(pct / 100.0 * ordered.size))
    return float(ordered[rank - 1])


def bench_module(name):
    """perfbench/<name>.py, loaded once by its path as the module
    corrspectra_bench_<name>, so it never stands in for the benchmark's
    own import of <name>."""
    module_name = f"corrspectra_bench_{name}"
    if module_name not in sys.modules:
        spec = importlib.util.spec_from_file_location(
            module_name, DATA_DIR.parent / "perfbench" / f"{name}.py")
        sys.modules[module_name] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(sys.modules[module_name])
    return sys.modules[module_name]


def null_reference(n_assets, window_len, sims, seed, max_rank):
    """The four arrays of null_baselines.json by the plain-numpy reference
    route, from the documented seed contract alone: simulation s draws
    default_rng(SeedSequence(seed, spawn_key=(s,))).standard_normal((N, T)).
    pr_std is the population std; abs_corr_p99 is NaN beyond max_rank."""
    oracle = bench_module("checks")._oracle
    refs = [oracle(np.random.default_rng(np.random.SeedSequence(
        seed, spawn_key=(s,))).standard_normal((n_assets, window_len)).T,
        n_assets) for s in range(sims)]
    pr = np.array([ref["pr"] for ref in refs])
    abs_r = np.array([ref["abs_r"] for ref in refs])  # sims x assets x ranks
    p99 = [nearest_rank_percentile(abs_r[:, :, k], 99) if k < max_rank
           else np.nan for k in range(n_assets)]
    return {"pr_mean": pr.mean(axis=0), "pr_std": pr.std(axis=0),
            "scree_mean": np.mean([ref["eigenvalues"] for ref in refs], axis=0),
            "abs_corr_p99": np.array(p99)}


def random_correlation_window(rng, n_assets, n_steps):
    """A standardized window of i.i.d. Gaussian returns (test input only)."""
    x = rng.standard_normal((n_assets, n_steps))
    return (x - x.mean(axis=1, keepdims=True)) / x.std(axis=1, keepdims=True)


def write_prices_csv(path, dates, prices, tickers):
    """prices: assets x dates array written in the loader's expected layout."""
    lines = ["date," + ",".join(tickers)]
    for t, date in enumerate(dates):
        cells = ",".join(format(prices[i][t], ".12g") for i in range(len(tickers)))
        lines.append(f"{date.isoformat()},{cells}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_meta_csv(path, tickers, classes):
    lines = ["ticker,asset_class"]
    lines += [f"{t},{c}" for t, c in zip(tickers, classes)]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def weekly_dates(count, start=dt.date(2001, 1, 5)):
    return [start + dt.timedelta(weeks=k) for k in range(count)]


def random_walk_prices(rng, n_assets, n_dates, start=100.0):
    steps = rng.normal(0.0, 0.02, size=(n_assets, n_dates - 1))
    log_prices = np.concatenate(
        [np.full((n_assets, 1), np.log(start)), np.cumsum(steps, axis=1) + np.log(start)],
        axis=1,
    )
    return np.exp(log_prices)
