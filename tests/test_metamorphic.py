"""Exact relations between CLI runs, the reports' metamorphic contracts.

Each window and each null rank is computed on its own, so a run over
fewer windows, fewer dates or fewer ranks reproduces the matching rows of
a larger run byte for byte, with no oracle. Permuting the assets reorders
the sums inside each window, so it moves only the last digits.
"""

import csv
import io
import json

import numpy as np
import pytest

from corrspectra.cli import main

from helpers import (
    random_walk_prices,
    weekly_dates,
    write_meta_csv,
    write_prices_csv,
)

N_ASSETS, N_DATES, WINDOW, SEED = 12, 161, 40, 5
N_WINDOWS = N_DATES - 1 - WINDOW + 1  # 121: two blocks of windows
TICKERS = [f"T{i:02d}" for i in range(N_ASSETS)]
CSV_REPORTS = ("windows.csv", "eigenvalues.csv", "asset_pc_corr.csv")
# a permutation of the assets with no fixed point
PERMUTATION = [7, 2, 11, 0, 5, 9, 1, 10, 3, 8, 6, 4]
PERMUTED_TOL = 1e-12


def _run(directory, n_dates=N_DATES, order=tuple(range(N_ASSETS)), step=1,
         max_rank=3, sims=50):
    """The report texts of one CLI run on the first `n_dates` dates of the
    fixed panel, with its assets in `order`."""
    prices = random_walk_prices(np.random.default_rng(SEED), N_ASSETS, N_DATES)
    tickers = [TICKERS[i] for i in order]
    write_prices_csv(directory / "prices.csv", weekly_dates(n_dates),
                     prices[list(order), :n_dates], tickers)
    write_meta_csv(directory / "meta.csv", tickers, ["equities"] * N_ASSETS)
    out = directory / "out"
    assert main(["--prices", str(directory / "prices.csv"),
                 "--meta", str(directory / "meta.csv"), "--out", str(out),
                 "--window", str(WINDOW), "--step", str(step),
                 "--sims", str(sims), "--seed", str(SEED),
                 "--max-rank", str(max_rank)]) == 0
    return {name: (out / name).read_text(encoding="utf-8")
            for name in (*CSV_REPORTS, "null_baselines.json")}


@pytest.fixture(scope="module")
def run(tmp_path_factory):
    """_run, each set of options run once per module."""
    done = {}

    def cached(**options):
        key = tuple(sorted(options.items()))
        if key not in done:
            done[key] = _run(tmp_path_factory.mktemp("run"), **options)
        return done[key]

    return cached


def _by_window(text):
    """Each window's lines of a report CSV, keyed by window index, with the
    index field cut off."""
    windows = {}
    for line in text.splitlines()[1:]:
        index, rest = line.split(",", 1)
        windows.setdefault(int(index), []).append(rest)
    return windows


def _rows(text):
    return list(csv.DictReader(io.StringIO(text)))


@pytest.mark.parametrize("report", CSV_REPORTS)
def test_step_run_is_every_third_window(run, report):
    every = _by_window(run()[report])
    third = _by_window(run(step=3)[report])
    assert len(every) == N_WINDOWS
    assert sorted(third) == list(range((N_WINDOWS - 1) // 3 + 1))
    for index, lines in third.items():
        assert lines == every[3 * index], index


@pytest.mark.parametrize("report", CSV_REPORTS)
def test_prefix_run_is_the_first_windows(run, report):
    # 121 dates give 120 returns and 81 windows of 40
    full = _by_window(run()[report])
    prefix = _by_window(run(n_dates=121)[report])
    assert sorted(prefix) == list(range(81))
    for index, lines in prefix.items():
        assert lines == full[index], index


def test_fewer_ranks_keep_the_leading_ranks(run):
    # 300 sims make two pooled blocks of the null ensemble
    two, five = run(max_rank=2, sims=300), run(max_rank=5, sims=300)
    assert two["eigenvalues.csv"] == five["eigenvalues.csv"]
    assert two["asset_pc_corr.csv"].splitlines() == [
        line for line in five["asset_pc_corr.csv"].splitlines()
        if line.split(",")[2] in ("rank", "1", "2")]
    rows_two, rows_five = _rows(two["windows.csv"]), _rows(five["windows.csv"])
    assert len(rows_two) == len(rows_five) == N_WINDOWS
    for row_two, row_five in zip(rows_two, rows_five):
        assert row_two == {column: row_five[column] for column in row_two}
    null_two = json.loads(two["null_baselines.json"])
    null_five = json.loads(five["null_baselines.json"])
    for field in ("pr_mean", "pr_std", "scree_mean"):
        assert null_two[field] == null_five[field], field
    assert null_two["abs_corr_p99"][:2] == null_five["abs_corr_p99"][:2]
    assert null_two["abs_corr_p99"][2:] == [None] * (N_ASSETS - 2)


def _numbers(text, key_columns):
    """{key: values} of a report CSV's rows, keyed by `key_columns`; the
    end date stays a string, the other values are floats."""
    return {tuple(row.pop(c) for c in key_columns):
            (row.pop("end_date", None), np.array([*map(float, row.values())]))
            for row in _rows(text)}


@pytest.mark.parametrize("report", CSV_REPORTS)
def test_permuted_assets_agree_per_ticker(run, report):
    key_columns = {"windows.csv": ("window_index",),
                   "eigenvalues.csv": ("window_index", "rank"),
                   "asset_pc_corr.csv": ("window_index", "asset", "rank")}
    plain = _numbers(run()[report], key_columns[report])
    permuted = _numbers(run(order=tuple(PERMUTATION))[report],
                        key_columns[report])
    assert sorted(plain) == sorted(permuted)
    for key, (end_date, values) in plain.items():
        assert permuted[key][0] == end_date, key
        np.testing.assert_allclose(permuted[key][1], values, rtol=0.0,
                                   atol=PERMUTED_TOL, err_msg=str(key))
    assert run()["null_baselines.json"] == run(
        order=tuple(PERMUTATION))["null_baselines.json"]
