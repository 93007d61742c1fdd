import builtins
import contextlib
import errno
import json
import mmap
import multiprocessing
import os
import shutil
import signal
import subprocess
import sys
import time
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

import corrspectra
from corrspectra import (
    DegenerateWindowError,
    EigenComputationError,
    NullConfig,
    RunConfig,
    WorkerProcessError,
    cached_ensemble_stats,
    compute_log_returns,
    correlation_matrix,
    eigendecompose,
    load_price_panel,
    standardize_window,
    window_count,
    write_reports,
)
from corrspectra import analytics, blocks, nulls, pipeline
from corrspectra.cli import main

from helpers import (
    bench_module,
    no_ensemble,
    null_reference,
    random_walk_prices,
    weekly_dates,
    write_meta_csv,
    write_prices_csv,
)

checks = bench_module("checks")
CLASSES = ["equities", "equities", "metals", "metals"]


def make_input_files(tmp_path, n_assets=4, n_dates=30, classes=None, seed=2):
    rng = np.random.default_rng(seed)
    tickers = [f"A{i:02d}" for i in range(n_assets)]
    prices = random_walk_prices(rng, n_assets, n_dates)
    prices_path = tmp_path / "prices.csv"
    meta_path = tmp_path / "meta.csv"
    write_prices_csv(prices_path, weekly_dates(n_dates), prices, tickers)
    write_meta_csv(meta_path, tickers, classes or CLASSES[:n_assets])
    return prices_path, meta_path


def make_flat_asset_files(tmp_path):
    # A01 is flat over returns 20..34, so windows 20..25 of a 10-return
    # window are degenerate; in blocks of 8 the first falls in the third
    tickers = ["A00", "A01", "A02", "A03"]
    prices = random_walk_prices(np.random.default_rng(3), 4, 40)
    prices[1, 20:36] = prices[1, 20]
    prices_path = tmp_path / "flat.csv"
    meta_path = tmp_path / "flat_meta.csv"
    write_prices_csv(prices_path, weekly_dates(40), prices, tickers)
    write_meta_csv(meta_path, tickers, CLASSES)
    return prices_path, meta_path


def _no_window(*args):
    raise AssertionError("a window ran before the paths were checked")


def _file_bytes(root):
    """Every path under `root`, with its bytes or None for a directory."""
    return {path: path.read_bytes() if path.is_file() else None
            for path in root.rglob("*")}


def make_config(tmp_path, out="out", **overrides):
    prices_path, meta_path = make_input_files(tmp_path)
    defaults = dict(
        prices_path=str(prices_path),
        meta_path=str(meta_path),
        output_dir=str(tmp_path / out),
        window_len=10,
        step=1,
        sims=15,
        master_seed=5,
        max_rank=3,
    )
    defaults.update(overrides)
    return RunConfig(**defaults)


EXPECTED_FILES = [
    "windows.csv",
    "eigenvalues.csv",
    "asset_pc_corr.csv",
    "null_baselines.json",
    "run_manifest.json",
]


# make_config's run: 4 assets, 29 returns, 10-return windows, max-rank 3
N_WINDOWS = 29 - 10 + 1


def _report_rows(path):
    """The rows of a report CSV below its header, split at commas."""
    return [line.split(",") for line in path.read_text().splitlines()[1:]]


class TestWriteReports:
    def test_smallest_multiwindow_run(self, tmp_path):
        prices_path, meta_path = make_input_files(
            tmp_path, n_assets=3, n_dates=5, classes=["equities"] * 3
        )
        config = RunConfig(
            prices_path=str(prices_path),
            meta_path=str(meta_path),
            output_dir=str(tmp_path / "out"),
            window_len=3,
            sims=5,
            max_rank=3,
        )
        n_windows, _ = write_reports(config)
        assert n_windows == 2
        out = tmp_path / "out"
        windows = _report_rows(out / "windows.csv")
        assert len(windows) == 2
        for row in windows:
            assert all(float(pr) >= 1.0 - 1e-10 for pr in row[9:12])  # pr_1..3
        sums = {}
        for index, _, _, value in _report_rows(out / "eigenvalues.csv"):
            sums[index] = sums.get(index, 0.0) + float(value)
        assert len(sums) == 2
        assert all(abs(total - 3.0) <= 1e-8 for total in sums.values())
        corr = _report_rows(out / "asset_pc_corr.csv")
        # |r| is assets x max_rank, 3 x 3, in each window
        assert [(row[0], row[1], row[2]) for row in corr] == [
            (str(w), f"A{i:02d}", str(k)) for w in range(2) for i in range(3)
            for k in range(1, 4)]
        payload = json.loads((out / "null_baselines.json").read_text())
        assert payload["config"]["n_assets"] == 3

    def test_step_three_dates_windows_by_price_row(self, tmp_path):
        config = make_config(tmp_path, step=3)
        write_reports(config)
        assert _reference_mismatches(tmp_path / "out", asdict(config)) == []

    def test_degenerate_window_raises_before_the_null_ensemble(
            self, tmp_path, monkeypatch):
        monkeypatch.setattr(nulls, "null_ensemble_stats", no_ensemble)
        prices_path, meta_path = make_flat_asset_files(tmp_path)
        cache = tmp_path / "cache.json"
        config = RunConfig(prices_path=str(prices_path),
                           meta_path=str(meta_path),
                           output_dir=str(tmp_path / "out"), window_len=10,
                           sims=10, max_rank=3, baseline_cache=str(cache))
        with pytest.raises(DegenerateWindowError, match="window 20 "):
            write_reports(config)
        assert not cache.exists()
        assert not (tmp_path / "out").exists()

    def test_variance_check_raises_the_kernels_error(self, tmp_path):
        # the check before the null ensemble names the window, asset and
        # returns that the window kernel would name for the same panel
        prices_path, meta_path = make_flat_asset_files(tmp_path)
        config = RunConfig(prices_path=str(prices_path),
                           meta_path=str(meta_path),
                           output_dir=str(tmp_path / "out"), window_len=10,
                           sims=10, max_rank=3)
        with pytest.raises(DegenerateWindowError) as checked:
            pipeline._load_returns(config)
        returns = compute_log_returns(load_price_panel(prices_path, meta_path))
        stats = cached_ensemble_stats(
            NullConfig(n_assets=4, window_len=10, sims=10, master_seed=0), 3)
        with pytest.raises(DegenerateWindowError) as kernel:
            pipeline._window_rows(returns, config, stats, 0, 30)
        assert str(checked.value) == str(kernel.value)
        assert str(checked.value) == (
            "asset 'A01' has zero variance in window 20 (returns 20..29)")

    def test_classes_take_a_sequence_of_names(self, tmp_path):
        # a str is a sequence of characters, not of class names
        with pytest.raises(ValueError, match="sequence of class names"):
            make_config(tmp_path, classes="equities")
        assert make_config(tmp_path, classes=["equities"]).classes == (
            "equities",)

    def test_classes_must_be_strings(self, tmp_path):
        # subset_by_class sorts the unknown names for its message
        with pytest.raises(ValueError, match="classes must be strings"):
            make_config(tmp_path, classes=("x", 5))


class TestEmitReports:
    def test_files_and_headers(self, tmp_path):
        # every header, key and value, and the manifest, by the reference
        config = make_config(tmp_path)
        assert write_reports(config) == (
            N_WINDOWS, [tmp_path / "out" / name for name in EXPECTED_FILES])
        assert _reference_mismatches(tmp_path / "out", asdict(config)) == []

    def test_baselines_json_roundtrip(self, tmp_path):
        config = make_config(tmp_path)
        write_reports(config)
        stats = cached_ensemble_stats(
            NullConfig(n_assets=4, window_len=10, sims=15, master_seed=5), 3)
        payload = json.loads((tmp_path / "out" / "null_baselines.json").read_text())
        assert payload["config"]["sims"] == 15
        assert payload["pr_mean"] == [float(v) for v in stats.pr_mean]
        assert payload["abs_corr_p99"][3] is None  # beyond max_rank

    def test_json_configs_are_the_dataclasses(self, tmp_path):
        # every RunConfig and NullConfig field is recorded, and Path inputs
        # are written as the strings they stand for
        config = make_config(tmp_path, classes=["metals", "equities"],
                             baseline_cache=tmp_path / "cache" / "null.json")
        for name in ("prices_path", "meta_path", "output_dir"):
            setattr(config, name, Path(getattr(config, name)))
        write_reports(config)
        manifest = json.loads((tmp_path / "out" / "run_manifest.json")
                              .read_text(encoding="utf-8"))
        paths = ("prices_path", "meta_path", "output_dir", "baseline_cache")
        assert manifest["config"] == {
            **asdict(config), **{name: os.fspath(getattr(config, name))
                                 for name in paths},
            "classes": ["metals", "equities"], "null_kind": nulls.NULL_KIND}
        assert manifest["config"]["prices_path"] == str(tmp_path / "prices.csv")
        null_config = NullConfig(n_assets=4, window_len=10, sims=15,
                                 master_seed=5)
        payload = json.loads((tmp_path / "out" / "null_baselines.json")
                             .read_text(encoding="utf-8"))
        assert payload["config"] == {**asdict(null_config), "num_windows": 1,
                                     "kind": nulls.NULL_KIND}

    def test_csv_floats_roundtrip_at_15_digits(self, tmp_path):
        config = make_config(tmp_path)
        write_reports(config)
        eig_lines = (tmp_path / "out" / "eigenvalues.csv").read_text().splitlines()
        parsed = {}
        for line in eig_lines[1:]:
            index, _, rank, value = line.split(",")
            parsed[(int(index), int(rank))] = float(value)
        returns = compute_log_returns(
            load_price_panel(config.prices_path, config.meta_path))
        assert window_count(returns, 10) == N_WINDOWS
        for index in range(N_WINDOWS):
            window = standardize_window(returns, index, 10, index)
            eigenvalues, _ = eigendecompose(correlation_matrix(window),
                                            f"window {index}")
            for k, beta in enumerate(eigenvalues, start=1):
                stored = parsed[(index, k)]
                assert stored == pytest.approx(beta, rel=1e-14, abs=1e-15)

    def test_failed_write_leaves_nothing(self, tmp_path, monkeypatch):
        config = make_config(tmp_path)
        (tmp_path / "out").mkdir()
        real_open = builtins.open

        def failing_open(file, *args, **kwargs):
            if str(file).endswith("asset_pc_corr.csv"):
                raise OSError("disk full")
            return real_open(file, *args, **kwargs)

        monkeypatch.setattr(builtins, "open", failing_open)
        with pytest.raises(OSError):
            write_reports(config)
        monkeypatch.undo()
        leftover = list((tmp_path / "out").iterdir())
        assert leftover == []


class TestDeterminismAndSubsets:
    def test_identical_runs_are_byte_identical(self, tmp_path):
        config_a = make_config(tmp_path, out="out_a")
        config_b = make_config(tmp_path, out="out_b")
        write_reports(config_a)
        write_reports(config_b)
        for name in EXPECTED_FILES:
            if name == "run_manifest.json":
                continue  # records the differing output paths
            a = (tmp_path / "out_a" / name).read_bytes()
            b = (tmp_path / "out_b" / name).read_bytes()
            assert a == b, name

    def test_class_subset_equals_presubset_input(self, tmp_path):
        rng = np.random.default_rng(14)
        tickers = ["E0", "E1", "M0", "M1", "M2"]
        classes = ["equities", "equities", "metals", "metals", "metals"]
        prices = random_walk_prices(rng, 5, 25)
        full_prices = tmp_path / "full.csv"
        full_meta = tmp_path / "full_meta.csv"
        write_prices_csv(full_prices, weekly_dates(25), prices, tickers)
        write_meta_csv(full_meta, tickers, classes)

        sub_prices = tmp_path / "sub.csv"
        sub_meta = tmp_path / "sub_meta.csv"
        write_prices_csv(sub_prices, weekly_dates(25), prices[2:], tickers[2:])
        write_meta_csv(sub_meta, tickers[2:], classes[2:])

        shared = dict(window_len=8, sims=10, master_seed=3, max_rank=3)
        config_full = RunConfig(
            prices_path=str(full_prices),
            meta_path=str(full_meta),
            output_dir=str(tmp_path / "out_full"),
            classes=("metals",),
            **shared,
        )
        config_sub = RunConfig(
            prices_path=str(sub_prices),
            meta_path=str(sub_meta),
            output_dir=str(tmp_path / "out_sub"),
            **shared,
        )
        for config in (config_full, config_sub):
            write_reports(config)
        for name in EXPECTED_FILES:
            if name == "run_manifest.json":
                continue
            a = (tmp_path / "out_full" / name).read_bytes()
            b = (tmp_path / "out_sub" / name).read_bytes()
            assert a == b, name


class TestPooledWindows:
    # 20 windows in blocks of 8 make three blocks, so with two CPUs the
    # blocks run in a pool on any host
    @staticmethod
    def _report_bytes(monkeypatch, config, cpus, block=8):
        monkeypatch.setattr(blocks, "available_cpus", lambda: cpus)
        monkeypatch.setattr(blocks, "BLOCK", block)
        _, written = write_reports(config)
        return {path.name: path.read_bytes() for path in written}

    def test_worker_count_does_not_change_report_bytes(self, tmp_path,
                                                       monkeypatch):
        config = make_config(tmp_path)
        one = self._report_bytes(monkeypatch, config, 1)
        two = self._report_bytes(monkeypatch, config, 2)
        assert one == two

    def test_block_size_does_not_change_report_bytes(self, tmp_path,
                                                     monkeypatch):
        config = make_config(tmp_path)
        default = self._report_bytes(monkeypatch, config, 1,
                                     block=blocks.BLOCK)
        for block in (7, 1):  # 1: one windows.csv row per _csv_lines call
            assert self._report_bytes(monkeypatch, config, 1,
                                      block=block) == default, block


def _fmt_oracle(value):
    value = float(value)
    return "NaN" if value != value else format(value, ".15g")


class TestRenderers:
    def test_csv_lines_match_the_per_value_oracle(self):
        # the numpy renderer against "%.15g" one value at a time, on edge
        # values, 15-digit ties and random values of every exponent: three
        # prefixes of more than _CHUNK values each, then 300 small ones
        # that share chunks, the last chunk partial; then whole prefixes of
        # zeros, signed zeros and small integers, as counts and flags fill
        rng = np.random.default_rng(11)
        exponents = np.arange(-10, 21)
        spread = rng.uniform(1.0, 10.0, (len(exponents), 600)) \
            * 10.0 ** exponents[:, None]
        ties = [float(f"{rng.integers(1, 10)}.{rng.integers(10**13):014d}5"
                      f"e{exponent}")
                for exponent in exponents for _ in range(100)]
        ties += [float("0.123456789012345" + "5"), 1 + 2.0**-15]
        for d in range(-4, 7):  # exact ties: 16 digits, the last a 5
            odd = 2 * rng.integers(int(10.0**d * 2**(14 - d)),
                                   int(10.0**(d + 1) * 2**(14 - d)), 100) + 1
            ties += list(odd / 2.0**(15 - d))
        edges = np.array([1e-4, 1e7, 1e15, 0.1, 1.0, 10.0, 1e6,
                          9999999.999999999, 999999.9999999999,
                          2.0**-1074, 2.0**-1022 * 0.75, 1e-300, 1e300])
        finite = np.concatenate([spread.ravel(), np.hstack(ties), edges])
        finite = np.concatenate([finite, np.nextafter(finite, 0),
                                 np.nextafter(finite, np.inf)])
        special = [0.0, -0.0, np.nan, np.inf, -np.inf,
                   *np.arange(0.0, 2000.0)]  # counts
        values = rng.permutation(np.concatenate([finite, -finite, special]))
        values = np.append(values, np.zeros(-len(values) % 6)).reshape(3, -1, 2)
        assert values.size >= 10**5
        keys = [f"A{j:05d},{j % 6 + 1}" for j in range(values.shape[1])]
        keys[:3] = ["x%sy,1", "Zürich,2", "100%,3"]
        small = rng.permutation(values.ravel())[:300 * 7 * 3]
        counts = rng.integers(0, 3, (100, 98)).astype(float)
        flat = np.stack([np.zeros((100, 98)),
                         np.where(rng.random((100, 98)) < 0.5, -0.0, 0.0),
                         counts, -counts])
        cases = [(["0,", "1,50%,", "2,2001-01-05,"], keys, values),
                 ([f"{i},{i}%," for i in range(300)], keys[:7],
                  small.reshape(300, 7, 3)),
                 (["0,", "1,", "2,", "3,"], keys[:100], flat)]
        for prefixes, keys, values in cases:
            texts = pipeline._csv_lines(prefixes, keys, values)
            assert texts == ["".join(
                f"{prefix}{key}" + "".join(f",{_fmt_oracle(v)}" for v in row)
                + "\n" for key, row in zip(keys, rows)).encode()
                for prefix, rows in zip(prefixes, values)]
        assert pipeline._csv_lines([""], ["k"], np.array([[[0.0, -0.0]]])) \
            == [b"k,0,-0\n"]

    @pytest.mark.parametrize("n_keys", [100, 1023, 1024, 1025, 3000])
    def test_chunks_hold_whole_prefixes_under_the_cap(self, monkeypatch,
                                                      n_keys):
        # the renderer's memory cap: each _mantissas call gets whole
        # prefixes, at least _CHUNK values except the last, and fewer than
        # _CHUNK plus one prefix's values; prefixes of 200 to 6000 values
        sizes = []
        mantissas = pipeline._mantissas

        def recording(x):
            sizes.append(len(x))
            return mantissas(x)

        monkeypatch.setattr(pipeline, "_mantissas", recording)
        values = np.random.default_rng(3).normal(size=(25, n_keys, 2))
        texts = pipeline._csv_lines([f"{i}," for i in range(25)],
                                    [str(j) for j in range(n_keys)], values)
        size = 2 * n_keys
        assert len(texts) == 25 and sum(sizes) == values.size
        assert all(n % size == 0 and n < pipeline._CHUNK + size
                   for n in sizes)
        assert all(n >= pipeline._CHUNK for n in sizes[:-1])


# The reference runs: 7 assets with tickers that the renderer's "%" escaping
# and NaN spelling must keep, 113 returns in 12-return windows and 150 sims,
# so step 1 crosses blocks.BLOCK in both loops. Shapes: step, max-rank, classes
REFERENCE_TICKERS = ["nan", "NaN", "x%sy", "50%", "Zürich", "A05", "A06"]
REFERENCE_SHAPES = {"step-1": (1, 3, None), "step-3-every-rank": (3, 7, None),
                    "class-subset": (1, 2, ["metals", "equities"])}
ORACLE_TOL = checks.ORACLE_TOL


@pytest.fixture(scope="module")
def reference_runs(tmp_path_factory):
    """The RunConfig fields of the CLI run of each REFERENCE_SHAPES entry;
    its output_dir holds the run's reports."""
    root = tmp_path_factory.mktemp("reference")
    prices, meta = str(root / "prices.csv"), str(root / "meta.csv")
    write_prices_csv(prices, weekly_dates(114), random_walk_prices(
        np.random.default_rng(17), 7, 114), REFERENCE_TICKERS)
    write_meta_csv(meta, REFERENCE_TICKERS,
                   ["equities", "metals", "fuels"] * 2 + ["metals"])
    runs = {}
    for name, (step, max_rank, classes) in REFERENCE_SHAPES.items():
        runs[name] = dict(
            prices_path=prices, meta_path=meta, output_dir=str(root / name),
            window_len=12, step=step, sims=150, master_seed=23,
            max_rank=max_rank, classes=classes, baseline_cache=None)
        assert main(["--prices", prices, "--meta", meta, "--out",
                     str(root / name), "--window", "12", "--step", str(step),
                     "--sims", "150", "--seed", "23", "--max-rank",
                     str(max_rank), *(["--classes", ",".join(classes)]
                                      if classes else [])]) == 0
    return runs


def _reference_mismatches(out, config):
    """A message for each value of the reports in the Path `out` that the
    plain-numpy reference route, run on the input CSVs of the RunConfig
    fields `config`, does not give; window w ends on the prices file's date
    row w * step + T. Floats agree as np.isclose(rtol=atol=ORACLE_TOL) would
    and NaN reads "NaN", counts lie in checks._count_range of the reported
    eigenvalues and scree_mean, and headers, keys and JSON configs match."""
    lines = Path(config["prices_path"]).read_text(encoding="utf-8").splitlines()
    meta = dict(line.split(",") for line in Path(config["meta_path"])
                .read_text(encoding="utf-8").splitlines()[1:])
    header = lines[0].split(",")[1:]
    tickers = [ticker for ticker in header if config["classes"] is None
               or meta[ticker] in config["classes"]]
    returns = checks.load_returns(config["prices_path"])[
        :, [header.index(ticker) for ticker in tickers]]
    n, length = len(tickers), config["window_len"]
    ranks = range(1, config["max_rank"] + 1)
    expected = {  # each CSV's header, then its rows' keys (text) and floats
        "windows.csv": [["window_index", "end_date", "corr_mean", "corr_std",
                         "corr_skewness", "corr_kurtosis",
                         *[f"variance_fraction_{k}" for k in ranks],
                         *[f"pr_{k}" for k in ranks], "kaiser_count",
                         "scree_count", "scree_exceedance_count"]],
        "eigenvalues.csv": [["window_index", "end_date", "rank", "eigenvalue"]],
        "asset_pc_corr.csv": [["window_index", "asset", "rank", "abs_r",
                               "abs_r_adjusted"]]}
    starts = range(0, len(returns) - length + 1, config["step"])
    for w, start in enumerate(starts):
        ref = checks._oracle(returns[start:start + length], len(ranks))
        key = [str(w), lines[1 + start + length].split(",")[0]]
        expected["windows.csv"].append(
            key + [*ref["moments"], *ref["variance_fraction"], *ref["pr"]])
        expected["eigenvalues.csv"] += [
            key + [str(k), beta]
            for k, beta in enumerate(ref["eigenvalues"], start=1)]
        expected["asset_pc_corr.csv"] += [
            [str(w), ticker, str(k), ref["abs_r"][i, k - 1],
             ref["abs_r_adjusted"][i, k - 1]]
            for i, ticker in enumerate(tickers) for k in ranks]
    failures, reported = [], {}
    for name, rows in expected.items():
        reported[name] = [line.split(",") for line in (out / name)
                          .read_text(encoding="utf-8").splitlines()]
        if [len(row) for row in reported[name]] != [len(rows[0])] * len(rows):
            return [f"{name}: rows or columns differ"]
        for fields, want in zip(reported[name], rows):
            for column, field, value in zip(rows[0], fields, want):
                value = "NaN" if value != value else value
                if (field != value if isinstance(value, str) else
                        not abs(float(field) - value)
                        <= ORACLE_TOL * (1 + abs(value))):
                    failures.append(f"{name}: {column} {field} of window "
                                    f"{fields[0]}, the reference {value}")
    baselines = json.loads((out / "null_baselines.json").read_text("utf-8"))
    scree = np.array(baselines["scree_mean"], float)  # JSON null reads NaN
    beta = np.array([row[3] for row in reported["eigenvalues.csv"][1:]],
                    float).reshape(-1, n)
    counts = np.array([row[-3:] for row in reported["windows.csv"][1:]], float)
    for j, (threshold, prefix) in enumerate([(1.0, False), (scree, True),
                                             (scree, False)]):
        lo, hi = checks._count_range(beta, threshold, prefix)
        if not np.all((lo <= counts[:, j]) & (counts[:, j] <= hi)):
            failures.append(f"windows.csv: {expected['windows.csv'][0][j - 3]}"
                            " does not count the reported eigenvalues")
    for name, want in null_reference(n, length, config["sims"],
                                     config["master_seed"], len(ranks)).items():
        value = np.array(baselines.pop(name), float)
        if value.shape != want.shape or not np.allclose(
                value, want, rtol=ORACLE_TOL, atol=ORACLE_TOL, equal_nan=True):
            failures.append(f"null_baselines.json: {name} is off the reference")
    if baselines != {"schema_version": "1", "config": {
            "n_assets": n, "window_len": length, "sims": config["sims"],
            "master_seed": config["master_seed"], "num_windows": 1,
            "kind": "gaussian"}}:
        failures.append("null_baselines.json: schema or config differs")
    manifest = json.loads((out / "run_manifest.json").read_text("utf-8"))
    files = {name: {"columns": rows[0]} for name, rows in expected.items()}
    files["null_baselines.json"] = {
        "keyed_by": "(n_assets, window_len, sims, kind, master_seed)"}
    if manifest.pop("conventions", None) is None or manifest != {
            "schema_version": "1", "n_windows": len(starts),
            "config": {**config, "null_kind": "gaussian"},
            "tickers": tickers, "files": files}:
        failures.append("run_manifest.json: config, tickers or files differ")
    return failures


class TestReferenceRoute:
    @pytest.mark.parametrize("shape", REFERENCE_SHAPES)
    def test_reports_match_the_reference_route(self, reference_runs, shape):
        config = reference_runs[shape]
        assert _reference_mismatches(Path(config["output_dir"]), config) == []

    @pytest.mark.parametrize("name, row, column, delta", [
        ("windows.csv", 1, "corr_mean", 0.0),  # the untouched copy passes
        ("windows.csv", 40, "corr_std", 1e-6),
        ("eigenvalues.csv", 300, "eigenvalue", 1e-6),
        ("asset_pc_corr.csv", 500, "abs_r", 1e-6),
        ("null_baselines.json", 2, "pr_std", 1e-6),
        ("windows.csv", 101, "kaiser_count", 1)])
    def test_one_moved_value_fails_the_reference_route(
            self, reference_runs, tmp_path, name, row, column, delta):
        config = reference_runs["step-1"]
        path = shutil.copytree(config["output_dir"], tmp_path / "out") / name
        if name.endswith(".json"):
            payload = json.loads(path.read_text(encoding="utf-8"))
            payload[column][row] += delta
            path.write_text(json.dumps(payload), encoding="utf-8")
        else:
            lines = [line.split(",") for line
                     in path.read_text(encoding="utf-8").splitlines()]
            index = lines[0].index(column)
            lines[row][index] = format(float(lines[row][index]) + delta, ".15g")
            path.write_text("".join(",".join(line) + "\n" for line in lines),
                            encoding="utf-8")
        failures = _reference_mismatches(path.parent, config)
        assert (failures == [] if delta == 0 else any(
            f.startswith(f"{name}: {column} ") for f in failures)), failures


def _die_in_worker(*args):
    if multiprocessing.parent_process() is None:
        raise AssertionError("expected to run in a pool worker")
    os._exit(1)


_real_window_rows = pipeline._window_rows


def _eigen_failure_in_window_20(returns, config, stats, start, stop):
    if not start <= 20 < stop:
        return _real_window_rows(returns, config, stats, start, stop)
    if multiprocessing.parent_process() is None:
        raise AssertionError("expected to run in a pool worker")
    raise EigenComputationError("eigensolver failed in window 20")


# id: (option, value, the whole message after "corrspectra: "), for
# TestCLI._args' run of make_input_files' four assets (two metals); {tmp}
# stands for the test's tmp_path
BAD_OPTIONS = {
    "window_1": ("window", 1, "window must be >= 2, got 1"),
    "step_0": ("step", 0, "step must be >= 1, got 0"),
    "sims_0": ("sims", 0, "sims must be >= 1, got 0"),
    "max_rank_0": ("max_rank", 0, "max-rank must be >= 1, got 0"),
    "seed_negative": ("seed", -1, "seed must be an unsigned 64-bit integer"),
    "seed_2_64": ("seed", 2**64, "seed must be an unsigned 64-bit integer"),
    "empty_baseline_cache": ("baseline_cache", "",
                             "baseline cache must be nonempty"),
    "missing_prices": ("prices", "{tmp}/nope.csv",
                       "cannot read {tmp}/nope.csv: [Errno 2] No such file "
                       "or directory: '{tmp}/nope.csv'"),
    "missing_meta": ("meta", "{tmp}/nope.csv",
                     "cannot read {tmp}/nope.csv: [Errno 2] No such file "
                     "or directory: '{tmp}/nope.csv'"),
    "prices_is_directory": ("prices", "{tmp}", "cannot read {tmp}: [Errno 21] "
                            "Is a directory: '{tmp}'"),
    "meta_is_directory": ("meta", "{tmp}", "cannot read {tmp}: [Errno 21] "
                          "Is a directory: '{tmp}'"),
    "unknown_class": ("classes", "crypto",
                      "unknown asset classes: ['crypto']"),
    # "" names no class, as "," does
    "empty_classes_empty": ("classes", "", "classes must be nonempty"),
    "empty_classes_comma": ("classes", ",", "classes must be nonempty"),
    "empty_classes_space": ("classes", " ", "classes must be nonempty"),
    "max_rank_above_panel": ("max_rank", 9, "max-rank 9 exceeds panel size 4"),
    "two_assets": ("classes", "metals",
                   "reports need at least 3 assets, panel has 2"),
}


class TestCLI:
    @staticmethod
    def _args(tmp_path, prices_path, meta_path, out="cli_out", **extra):
        args = [
            "--prices", str(prices_path),
            "--meta", str(meta_path),
            "--out", str(tmp_path / out),
            "--window", "10",
            "--sims", "10",
            "--seed", "5",
            "--max-rank", "3",
        ]
        for key, value in extra.items():
            args += [f"--{key.replace('_', '-')}", str(value)]
        return args

    def test_success_exit_zero(self, tmp_path, capsys):
        prices_path, meta_path = make_input_files(tmp_path)
        assert main(self._args(tmp_path, prices_path, meta_path)) == 0
        for name in EXPECTED_FILES:
            assert (tmp_path / "cli_out" / name).exists()

    def test_dead_worker_exit_five(self, tmp_path, capsys, monkeypatch):
        def dead_worker(config, max_rank=0):
            raise WorkerProcessError("a null-ensemble worker process ended")

        monkeypatch.setattr(nulls, "null_ensemble_stats", dead_worker)
        prices_path, meta_path = make_input_files(tmp_path)
        assert main(self._args(tmp_path, prices_path, meta_path)) == 5
        assert "worker process" in capsys.readouterr().err

    def test_degenerate_window_exit_three(self, tmp_path, capsys):
        tickers = ["A0", "A1", "A2"]
        flat = np.ones((3, 15)) * np.array([[100.0], [50.0], [75.0]])
        prices_path = tmp_path / "flat.csv"
        meta_path = tmp_path / "flat_meta.csv"
        write_prices_csv(prices_path, weekly_dates(15), flat, tickers)
        write_meta_csv(meta_path, tickers, ["equities"] * 3)
        code = main(self._args(tmp_path, prices_path, meta_path))
        assert code == 3
        assert "window" in capsys.readouterr().err

    @pytest.mark.parametrize("window", [10, 16])
    def test_zero_variance_is_standardizes_own_test(self, tmp_path, capsys,
                                                    window):
        # A01 grows exactly 8-fold a week over returns 8..31, so windows
        # there hold equal returns; numpy's std of such returns is 0.0 at
        # some lengths only, and only then is a window degenerate
        tickers = ["A00", "A01", "A02", "A03"]
        prices = random_walk_prices(np.random.default_rng(3), 4, 40)
        prices[1, 8:33] = 64.0 * 8.0 ** np.arange(25)
        prices_path = tmp_path / "exact.csv"
        meta_path = tmp_path / "exact_meta.csv"
        # repr floats: the .12g of write_prices_csv breaks the exact ratios
        lines = ["date," + ",".join(tickers)]
        lines += [f"{date.isoformat()}," + ",".join(map(repr, row))
                  for date, row in zip(weekly_dates(40), prices.T.tolist())]
        prices_path.write_text("\n".join(lines) + "\n")
        write_meta_csv(meta_path, tickers, CLASSES)
        degenerate = np.full(window, np.log(8.0)).std() == 0.0
        args = self._args(tmp_path, prices_path, meta_path, window=window)
        assert main(args) == (3 if degenerate else 0)
        if degenerate:
            err = capsys.readouterr().err
            assert (f"asset 'A01' has zero variance in window 8 (returns "
                    f"8..{8 + window - 1})") in err

    def test_degenerate_window_in_pool_exits_three(self, tmp_path, capsys,
                                                   monkeypatch):
        # the variance check fails the run before the pool starts, and names
        # the window that the third pooled block would
        prices_path, meta_path = make_flat_asset_files(tmp_path)
        monkeypatch.setattr(blocks, "available_cpus", lambda: 2)
        monkeypatch.setattr(blocks, "BLOCK", 8)
        args = self._args(tmp_path, prices_path, meta_path)
        assert main(args) == 3
        err = capsys.readouterr().err
        assert "window 20 " in err and "'A01'" in err
        assert not (tmp_path / "cli_out").exists()

    def test_degenerate_window_exits_before_the_null_ensemble(
            self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(nulls, "null_ensemble_stats", no_ensemble)
        prices_path, meta_path = make_flat_asset_files(tmp_path)
        cache = tmp_path / "cache.json"
        args = self._args(tmp_path, prices_path, meta_path,
                          baseline_cache=cache)
        assert main(args) == 3
        assert "window 20 " in capsys.readouterr().err
        assert not cache.exists()
        assert not (tmp_path / "cli_out").exists()

    @pytest.mark.parametrize("flat", [True, False])
    def test_failed_run_removes_the_directories_it_made(self, tmp_path,
                                                         capsys, flat):
        # the missing parents of --out and --baseline-cache: a run that
        # fails on a flat asset leaves none of them, a good run keeps both
        prices_path, meta_path = (make_flat_asset_files if flat
                                  else make_input_files)(tmp_path)
        entries = sorted(path.name for path in tmp_path.iterdir())
        cache = tmp_path / "newcache" / "sub" / "cache.json"
        args = self._args(tmp_path, prices_path, meta_path,
                          out="newout/sub/out", baseline_cache=cache)
        if flat:
            assert main(args) == 3
            assert sorted(path.name for path in tmp_path.iterdir()) == entries
        else:
            assert main(args) == 0
            assert cache.is_file()
            assert sorted(path.name for path in
                          (tmp_path / "newout" / "sub" / "out").iterdir()) \
                == sorted(EXPECTED_FILES)

    @pytest.mark.parametrize("failure, code", [("window", 3), ("ensemble", 5)])
    def test_failed_run_keeps_earlier_reports(self, tmp_path, capsys,
                                              monkeypatch, failure, code):
        prices_path, meta_path = make_input_files(tmp_path)
        assert main(self._args(tmp_path, prices_path, meta_path)) == 0
        earlier = {path.name: path.read_bytes()
                   for path in (tmp_path / "cli_out").iterdir()}
        assert sorted(earlier) == sorted(EXPECTED_FILES)
        if failure == "window":
            # a flat asset: the variance check fails the run before the
            # null ensemble; without it the third pooled block would
            prices_path, meta_path = make_flat_asset_files(tmp_path)
            monkeypatch.setattr(blocks, "available_cpus", lambda: 2)
            monkeypatch.setattr(blocks, "BLOCK", 8)
        else:
            # other prices, and a failure in the null ensemble, which runs
            # before any window
            prices_path, meta_path = make_input_files(tmp_path, seed=9)

            def dead_worker(config, max_rank=0):
                raise WorkerProcessError("a worker process ended")

            monkeypatch.setattr(nulls, "null_ensemble_stats", dead_worker)
        entries = sorted(path.name for path in tmp_path.iterdir())
        args = self._args(tmp_path, prices_path, meta_path)
        assert main(args) == code
        assert {path.name: path.read_bytes()
                for path in (tmp_path / "cli_out").iterdir()} == earlier
        assert sorted(path.name for path in tmp_path.iterdir()) == entries

    def test_eigen_failure_in_pool_keeps_the_cache_entry(self, tmp_path,
                                                          capsys,
                                                          monkeypatch):
        # the null baseline is cached before the windows, so a numerical
        # failure in the third pooled block (30 windows in blocks of 8)
        # keeps the earlier reports and leaves a valid cache entry
        cache = tmp_path / "cache.json"
        prices_path, meta_path = make_input_files(tmp_path, n_dates=40, seed=9)
        args = self._args(tmp_path, prices_path, meta_path,
                          baseline_cache=cache)
        assert main(args) == 0
        earlier = _file_bytes(tmp_path / "cli_out")
        cache.unlink()
        make_input_files(tmp_path, n_dates=40)  # other prices, same files
        entries = sorted(path.name for path in tmp_path.iterdir())
        monkeypatch.setattr(blocks, "available_cpus", lambda: 2)
        monkeypatch.setattr(blocks, "BLOCK", 8)
        with monkeypatch.context() as patch:
            patch.setattr(pipeline, "_window_rows", _eigen_failure_in_window_20)
            assert main(args) == 3
        assert "window 20" in capsys.readouterr().err
        assert _file_bytes(tmp_path / "cli_out") == earlier
        assert sorted(path.name for path in tmp_path.iterdir()) \
            == sorted([*entries, "cache.json"])  # and no staging directory
        entry = cache.read_bytes()
        with monkeypatch.context() as patch:
            patch.setattr(nulls, "null_ensemble_stats", no_ensemble)
            assert main(args) == 0  # a cache hit
        hit = _file_bytes(tmp_path / "cli_out")
        cache.unlink()
        assert main(args) == 0  # a fresh run
        assert _file_bytes(tmp_path / "cli_out") == hit != earlier
        assert cache.read_bytes() == entry

    def test_broken_eigen_contract_exits_three(self, tmp_path, capsys,
                                               monkeypatch):
        # the first null sim misses the contract; its one message names the
        # sim and the four quantities. With the null read from a cache, the
        # panel's first window fails instead, under its own name
        prices_path, meta_path = make_input_files(tmp_path)
        cache = tmp_path / "cache.json"
        assert main(self._args(tmp_path, prices_path, meta_path, out="fill",
                               baseline_cache=cache)) == 0
        args = self._args(tmp_path, prices_path, meta_path)
        cached = self._args(tmp_path, prices_path, meta_path,
                            baseline_cache=cache)
        capsys.readouterr()
        monkeypatch.setattr(analytics, "TRACE_TOL", -1.0)
        for argv, item in ((args, "null simulation 0"), (cached, "window 0")):
            assert main(argv) == 3
            err = capsys.readouterr().err
            assert err.startswith(f"corrspectra: numerical failure: {item}: ")
            for quantity in ("residual", "orthogonality error",
                             "smallest eigenvalue", "eigenvalue sum deviates"):
                assert quantity in err
            assert not (tmp_path / "cli_out").exists()

    def test_stale_staging_directory_is_removed(self, tmp_path, capsys):
        # the staging directories of a SIGKILLed run and of a live one, and
        # a user's hidden entries that only resemble the first
        exited = subprocess.Popen([sys.executable, "-c", "pass"])
        exited.wait(timeout=60)
        out = tmp_path / "cli_out"
        stale = out / f".corrspectra.{exited.pid}.k1ll3d_x.staging"
        kept = [out / name for name in (
            f".corrspectra.{os.getpid()}.running.staging",
            f".corrspectra.{exited.pid}.k1ll3d_x.staging.bak",
            f".cli_out.{exited.pid}.k1ll3d_x.staging",
            f".{exited.pid}.k1ll3d_x.staging", ".corrspectra")]
        for staging in (stale, *kept):
            staging.mkdir(parents=True)
            (staging / "eigenvalues.csv").write_text("partial\n")
        prices_path, meta_path = make_input_files(tmp_path)
        assert main(self._args(tmp_path, prices_path, meta_path)) == 0
        assert not stale.exists()
        for staging in kept:
            assert (staging / "eigenvalues.csv").read_text() == "partial\n"

    def test_reports_are_opened_after_the_pool_starts(self, tmp_path,
                                                      monkeypatch):
        # forked workers would inherit report text buffered in the parent
        real_map_blocks = pipeline.map_blocks
        staged = []

        @contextlib.contextmanager
        def map_blocks(*args):
            staging, = (tmp_path / "cli_out").glob(".corrspectra.*.staging")
            staged.append(sorted(path.name for path in staging.iterdir()))
            with real_map_blocks(*args) as results:
                yield results

        monkeypatch.setattr(pipeline, "map_blocks", map_blocks)
        prices_path, meta_path = make_input_files(tmp_path)
        assert main(self._args(tmp_path, prices_path, meta_path)) == 0
        assert staged == [[]]
        assert sorted(path.name for path in (tmp_path / "cli_out").iterdir()) \
            == sorted(EXPECTED_FILES)

    def test_dead_worker_in_window_loop_exits_five(self, tmp_path, capsys,
                                                   monkeypatch):
        monkeypatch.setattr(blocks, "available_cpus", lambda: 2)
        monkeypatch.setattr(blocks, "BLOCK", 8)
        monkeypatch.setattr(pipeline, "_window_rows", _die_in_worker)
        prices_path, meta_path = make_input_files(tmp_path)
        args = self._args(tmp_path, prices_path, meta_path)
        assert main(args) == 5
        assert "worker process" in capsys.readouterr().err
        assert not (tmp_path / "cli_out").exists()

    def test_unwritable_output_exit_four(self, tmp_path, capsys, monkeypatch):
        # an output path that is a regular file fails before any window
        def analyze_window(*args):
            raise AssertionError("a window ran before the output was checked")

        monkeypatch.setattr(blocks, "available_cpus", lambda: 1)
        monkeypatch.setattr(pipeline, "analyze_window", analyze_window)
        prices_path, meta_path = make_input_files(tmp_path)
        blocker = tmp_path / "blocked"
        blocker.write_text("not a directory")
        entries = sorted(path.name for path in tmp_path.iterdir())
        args = [
            "--prices", str(prices_path),
            "--meta", str(meta_path),
            "--out", str(blocker),
            "--window", "10",
            "--sims", "10",
            "--max-rank", "3",
        ]
        assert main(args) == 4
        err = capsys.readouterr().err
        assert "I/O error" in err and "not a directory" in err
        assert blocker.read_text() == "not a directory"
        assert sorted(path.name for path in tmp_path.iterdir()) == entries

    def test_output_below_a_regular_file_exits_four_before_the_ensemble(
            self, tmp_path, capsys, monkeypatch):
        # Path.exists() reads blocked/out as missing; making it fails
        # before the null ensemble
        monkeypatch.setattr(nulls, "null_ensemble_stats", no_ensemble)
        prices_path, meta_path = make_input_files(tmp_path)
        (tmp_path / "blocked").write_text("not a directory")
        before = _file_bytes(tmp_path)
        args = self._args(tmp_path, prices_path, meta_path,
                          out=Path("blocked", "out"))
        assert main(args) == 4
        err = capsys.readouterr().err
        assert "I/O error" in err and "Not a directory" in err
        assert _file_bytes(tmp_path) == before

    def test_dangling_symlink_output_exits_four_before_the_ensemble(
            self, tmp_path, capsys, monkeypatch):
        # Path.exists() reads the link as missing, and mkdir cannot make a
        # directory at it; the failed run keeps the link
        monkeypatch.setattr(nulls, "null_ensemble_stats", no_ensemble)
        prices_path, meta_path = make_input_files(tmp_path)
        (tmp_path / "cli_out").symlink_to(tmp_path / "gone")
        before = _file_bytes(tmp_path)
        args = self._args(tmp_path, prices_path, meta_path)
        assert main(args) == 4
        err = capsys.readouterr().err
        assert "I/O error" in err and "File exists" in err
        assert _file_bytes(tmp_path) == before
        assert os.readlink(tmp_path / "cli_out") == str(tmp_path / "gone")

    def test_output_on_another_filesystem_exits_zero(self, tmp_path, capsys,
                                                     monkeypatch):
        # a mount point (a bind mount, /dev/shm) as --out: os.replace
        # refuses a rename into it from outside it with EXDEV
        out = tmp_path / "cli_out"
        replace = os.replace

        def no_cross_device(src, dst, **kwargs):
            if Path(dst).parent == out and not Path(src).is_relative_to(out):
                raise OSError(errno.EXDEV, os.strerror(errno.EXDEV), src)
            return replace(src, dst, **kwargs)

        monkeypatch.setattr(os, "replace", no_cross_device)
        prices_path, meta_path = make_input_files(tmp_path)
        assert main(self._args(tmp_path, prices_path, meta_path)) == 0
        assert sorted(path.name for path in out.iterdir()) \
            == sorted(EXPECTED_FILES)

    def test_run_writes_nothing_beside_the_output(self, tmp_path, monkeypatch):
        # --out's parent only gains --out, during the run and after it
        real_map_blocks = pipeline.map_blocks
        listings = []

        @contextlib.contextmanager
        def map_blocks(*args):
            listings.append(sorted(path.name for path in tmp_path.iterdir()))
            with real_map_blocks(*args) as results:
                yield results

        monkeypatch.setattr(pipeline, "map_blocks", map_blocks)
        prices_path, meta_path = make_input_files(tmp_path)
        entries = sorted(path.name for path in tmp_path.iterdir())
        assert main(self._args(tmp_path, prices_path, meta_path)) == 0
        listings.append(sorted(path.name for path in tmp_path.iterdir()))
        assert listings == [sorted([*entries, "cli_out"])] * 2

    def test_cache_path_at_a_missing_parent_of_the_output_exits_four(
            self, tmp_path, capsys, monkeypatch):
        # making --out makes its parent, which the cache check then finds
        # to be a directory; the failed run removes both again
        monkeypatch.setattr(nulls, "null_ensemble_stats", no_ensemble)
        prices_path, meta_path = make_input_files(tmp_path)
        before = _file_bytes(tmp_path)
        args = self._args(tmp_path, prices_path, meta_path,
                          out=Path("made", "cli_out"),
                          baseline_cache=tmp_path / "made")
        assert main(args) == 4
        err = capsys.readouterr().err
        assert "I/O error" in err and "is a directory" in err
        assert _file_bytes(tmp_path) == before

    def test_unusable_cache_location_exits_four_before_the_windows(
            self, tmp_path, capsys, monkeypatch):
        def analyze_window(*args):
            raise AssertionError("a window ran before the cache was checked")

        monkeypatch.setattr(blocks, "available_cpus", lambda: 1)
        monkeypatch.setattr(pipeline, "analyze_window", analyze_window)
        prices_path, meta_path = make_input_files(tmp_path)
        blocker = tmp_path / "blocked"
        blocker.write_text("not a directory")
        args = self._args(tmp_path, prices_path, meta_path,
                          baseline_cache=blocker / "cache.json")
        assert main(args) == 4
        assert "I/O error" in capsys.readouterr().err
        assert blocker.read_text() == "not a directory"
        assert not (tmp_path / "cli_out").exists()

    @staticmethod
    def _deny_writes(monkeypatch, directory):
        # os.access stands in for the directory's mode: root passes every
        # mode check, and the suite may run as root
        access = os.access
        monkeypatch.setattr(os, "access", lambda path, mode, **kw: (
            Path(path) != directory and access(path, mode, **kw)))

    def test_cache_miss_in_an_unwritable_directory_exits_four(
            self, tmp_path, capsys, monkeypatch):
        # the lock file and the new cache are made in the cache's own
        # directory, after the ensemble
        monkeypatch.setattr(nulls, "null_ensemble_stats", no_ensemble)
        prices_path, meta_path = make_input_files(tmp_path)
        (tmp_path / "caches").mkdir()
        self._deny_writes(monkeypatch, tmp_path / "caches")
        before = _file_bytes(tmp_path)
        args = self._args(tmp_path, prices_path, meta_path,
                          baseline_cache=tmp_path / "caches" / "cache.json")
        assert main(args) == 4
        err = capsys.readouterr().err
        assert "I/O error" in err and "cannot write in" in err
        assert _file_bytes(tmp_path) == before

    @pytest.mark.parametrize("writable", [False, True])
    def test_corrupt_cache_warns_only_when_it_is_rewritten(
            self, tmp_path, capsys, monkeypatch, writable):
        # the warning promises a recomputation and a rewrite, so it waits
        # for the checks of the cache's directory
        prices_path, meta_path = make_input_files(tmp_path)
        (tmp_path / "ro").mkdir()
        cache = tmp_path / "ro" / "cache.json"
        cache.write_text("{not json")
        if not writable:
            self._deny_writes(monkeypatch, tmp_path / "ro")
            monkeypatch.setattr(nulls, "null_ensemble_stats", no_ensemble)
        args = self._args(tmp_path, prices_path, meta_path,
                          baseline_cache=cache)
        assert main(args) == (0 if writable else 4)
        err = capsys.readouterr().err
        assert err.count("recomputing and rewriting it") == writable
        assert ("cannot write in" in err) != writable
        assert (cache.read_text() != "{not json") == writable

    def test_cache_hit_in_an_unwritable_directory_exits_zero(
            self, tmp_path, capsys, monkeypatch):
        # a hit writes nothing to the cache's directory
        prices_path, meta_path = make_input_files(tmp_path)
        (tmp_path / "caches").mkdir()
        cache = tmp_path / "caches" / "cache.json"
        assert main(self._args(tmp_path, prices_path, meta_path, out="fill",
                               baseline_cache=cache)) == 0
        entry = cache.read_bytes()
        self._deny_writes(monkeypatch, tmp_path / "caches")
        monkeypatch.setattr(nulls, "null_ensemble_stats", no_ensemble)
        assert main(self._args(tmp_path, prices_path, meta_path, out="hit",
                               baseline_cache=cache)) == 0
        assert cache.read_bytes() == entry
        for name in EXPECTED_FILES[:4]:  # the manifest records --out
            assert (tmp_path / "hit" / name).read_bytes() \
                == (tmp_path / "fill" / name).read_bytes(), name

    def test_unwritable_output_directory_exits_four_before_the_ensemble(
            self, tmp_path, capsys, monkeypatch):
        # the reports are moved into --out only after the windows
        prices_path, meta_path = make_input_files(tmp_path)
        assert main(self._args(tmp_path, prices_path, meta_path)) == 0
        before = _file_bytes(tmp_path)
        self._deny_writes(monkeypatch, tmp_path / "cli_out")
        monkeypatch.setattr(nulls, "null_ensemble_stats", no_ensemble)
        args = self._args(tmp_path, prices_path, meta_path) + ["--seed", "6"]
        assert main(args) == 4
        err = capsys.readouterr().err
        assert "I/O error" in err and "is not writable" in err
        assert _file_bytes(tmp_path) == before  # and no staging directory

    # "." has no parents
    @pytest.mark.parametrize("cache", ["cache.json", "."])
    def test_cache_path_that_is_a_directory_exits_four_before_the_windows(
            self, tmp_path, capsys, monkeypatch, cache):
        def analyze_window(*args):
            raise AssertionError("a window ran before the cache was checked")

        monkeypatch.setattr(blocks, "available_cpus", lambda: 1)
        monkeypatch.setattr(pipeline, "analyze_window", analyze_window)
        monkeypatch.chdir(tmp_path)
        prices_path, meta_path = make_input_files(tmp_path)
        (tmp_path / "cache.json").mkdir()
        (tmp_path / "cache.json" / "kept.txt").write_text("kept")
        before = _file_bytes(tmp_path)
        args = self._args(tmp_path, prices_path, meta_path,
                          baseline_cache=cache)
        assert main(args) == 4
        err = capsys.readouterr().err
        assert "I/O error" in err and "is a directory" in err
        assert "Traceback" not in err
        assert _file_bytes(tmp_path) == before

    @pytest.mark.parametrize("parts", [("cli_out",),
                                       ("cli_out", "..", "cli_out")],
                             ids=["out", "out/../out"])
    def test_cache_path_that_is_the_output_directory_exits_two(
            self, tmp_path, capsys, monkeypatch, parts):
        # the cache would be written as the file the reports' directory
        # must be made at, so the run would fail after its ensemble
        monkeypatch.setattr(nulls, "null_ensemble_stats", no_ensemble)
        prices_path, meta_path = make_input_files(tmp_path)
        before = _file_bytes(tmp_path)
        args = self._args(tmp_path, prices_path, meta_path,
                          baseline_cache=tmp_path.joinpath(*parts))
        assert main(args) == 2
        assert "is the output directory" in capsys.readouterr().err
        assert _file_bytes(tmp_path) == before

    @pytest.mark.parametrize("linked", [False, True])
    @pytest.mark.parametrize("which", ["prices", "meta"])
    def test_cache_path_that_is_an_input_exits_two(self, tmp_path, capsys,
                                                   monkeypatch, which, linked):
        def analyze_window(*args):
            raise AssertionError("a window ran before the cache was checked")

        monkeypatch.setattr(pipeline, "analyze_window", analyze_window)
        prices_path, meta_path = make_input_files(tmp_path)
        cache = {"prices": prices_path, "meta": meta_path}[which]
        before = cache.read_bytes()
        if linked:  # the same file under another name
            (tmp_path / "cache.json").symlink_to(cache)
            cache = tmp_path / "cache.json"
        entries = sorted(path.name for path in tmp_path.iterdir())
        args = self._args(tmp_path, prices_path, meta_path,
                          baseline_cache=cache)
        assert main(args) == 2
        assert "is an input file" in capsys.readouterr().err
        assert cache.read_bytes() == before
        assert sorted(path.name for path in tmp_path.iterdir()) == entries

    @pytest.mark.parametrize("earlier_run", [False, True])
    @pytest.mark.parametrize("name", EXPECTED_FILES)
    def test_cache_path_that_is_a_report_exits_two(self, tmp_path, capsys,
                                                   monkeypatch, name,
                                                   earlier_run):
        # the report of the same name would replace the cache every run,
        # so it could never hit; a dotted spelling names the same file
        prices_path, meta_path = make_input_files(tmp_path)
        if earlier_run:
            assert main(self._args(tmp_path, prices_path, meta_path)) == 0
        before = _file_bytes(tmp_path)
        monkeypatch.setattr(pipeline, "analyze_window", _no_window)
        for cache in (tmp_path / "cli_out" / name,
                      tmp_path / "cli_out" / ".." / "cli_out" / name):
            args = self._args(tmp_path, prices_path, meta_path,
                              baseline_cache=cache)
            assert main(args) == 2
            assert "is a report file" in capsys.readouterr().err
            assert _file_bytes(tmp_path) == before

    @pytest.mark.parametrize("name", EXPECTED_FILES)
    def test_report_path_that_is_a_directory_exits_four(self, tmp_path,
                                                        capsys, monkeypatch,
                                                        name):
        # os.replace cannot move a report onto a directory, and the reports
        # moved in before it would mix two runs' reports
        prices_path, meta_path = make_input_files(tmp_path)
        assert main(self._args(tmp_path, prices_path, meta_path)) == 0
        report = tmp_path / "cli_out" / name
        report.unlink()
        report.mkdir()
        (report / "kept.txt").write_text("kept")
        before = _file_bytes(tmp_path)
        monkeypatch.setattr(pipeline, "analyze_window", _no_window)
        args = self._args(tmp_path, prices_path, meta_path) + ["--seed", "6"]
        assert main(args) == 4
        err = capsys.readouterr().err
        assert "I/O error" in err and "is a directory" in err
        assert _file_bytes(tmp_path) == before

    @pytest.mark.parametrize("linked", [False, True])
    @pytest.mark.parametrize("which, name", [("prices", "windows.csv"),
                                             ("meta", "run_manifest.json")])
    def test_report_path_that_is_an_input_exits_two(self, tmp_path, capsys,
                                                    monkeypatch, which, name,
                                                    linked):
        # the report would replace the input, and the next run would fail
        inputs = dict(zip(("prices", "meta"), make_input_files(tmp_path)))
        (tmp_path / "cli_out").mkdir()
        report = tmp_path / "cli_out" / name
        inputs[which].rename(report)
        inputs[which] = report
        if linked:  # the same file under another name
            inputs[which] = tmp_path / f"{which}_link.csv"
            inputs[which].symlink_to(report)
        before = _file_bytes(tmp_path)
        monkeypatch.setattr(pipeline, "analyze_window", _no_window)
        assert main(self._args(tmp_path, inputs["prices"],
                               inputs["meta"])) == 2
        assert "is an input file" in capsys.readouterr().err
        assert _file_bytes(tmp_path) == before

    @pytest.mark.parametrize("link", ["symlink_to", "hardlink_to"])
    def test_report_name_linked_to_an_input_is_replaced(self, tmp_path,
                                                        link):
        # os.replace swaps the link itself, so the input keeps its bytes
        prices_path, meta_path = make_input_files(tmp_path)
        before = prices_path.read_bytes()
        (tmp_path / "cli_out").mkdir()
        report = tmp_path / "cli_out" / "windows.csv"
        getattr(report, link)(prices_path)
        assert main(self._args(tmp_path, prices_path, meta_path)) == 0
        assert prices_path.read_bytes() == before
        assert not report.is_symlink()
        assert report.read_bytes().startswith(b"window_index,")

    @pytest.mark.parametrize("option, value, problem", BAD_OPTIONS.values(),
                             ids=list(BAD_OPTIONS))
    def test_bad_option_exits_two(self, tmp_path, capsys, option, value,
                                  problem):
        prices_path, meta_path = make_input_files(tmp_path)
        args = self._args(tmp_path, prices_path, meta_path,
                          **{"baseline_cache": tmp_path / "cache.json",
                             option: str(value).format(tmp=tmp_path)})
        assert main(args) == 2
        assert capsys.readouterr().err == (
            f"corrspectra: {problem.format(tmp=tmp_path)}\n")
        assert not (tmp_path / "cli_out").exists()
        assert not (tmp_path / "cache.json").exists()

    def test_empty_output_exits_two(self, tmp_path, capsys, monkeypatch):
        # Path("") is the current directory, whose reports it would replace
        prices_path, meta_path = make_input_files(tmp_path)
        (tmp_path / "windows.csv").write_bytes(b"earlier\n")
        before = _file_bytes(tmp_path)
        monkeypatch.chdir(tmp_path)
        args = self._args(tmp_path, prices_path, meta_path)
        args[args.index("--out") + 1] = ""
        assert main(args) == 2
        assert "output directory must be nonempty" in capsys.readouterr().err
        assert _file_bytes(tmp_path) == before

    def test_null_option_is_gone(self, tmp_path, capsys):
        prices_path, meta_path = make_input_files(tmp_path)
        args = self._args(tmp_path, prices_path, meta_path, null="gaussian")
        with pytest.raises(SystemExit) as exit_info:
            main(args)
        assert exit_info.value.code == 2
        assert "--null" in capsys.readouterr().err
        assert not (tmp_path / "cli_out").exists()

    def test_baseline_cache_reused(self, tmp_path, capsys):
        prices_path, meta_path = make_input_files(tmp_path)
        cache = tmp_path / "cache.json"
        args_one = self._args(
            tmp_path, prices_path, meta_path, out="run1", baseline_cache=cache
        )
        assert main(args_one) == 0
        assert cache.exists()

        # poison the cached scree profile; a cache hit must propagate it
        payload = json.loads(cache.read_text())
        key = next(iter(payload["entries"]))
        payload["entries"][key]["scree_mean"] = [999.0, 999.0, 999.0, 999.0]
        cache.write_text(json.dumps(payload))
        args_two = self._args(
            tmp_path, prices_path, meta_path, out="run2", baseline_cache=cache
        )
        assert main(args_two) == 0
        windows_two = (tmp_path / "run2" / "windows.csv").read_text()
        scree_counts = {line.split(",")[-2] for line in windows_two.splitlines()[1:]}
        assert scree_counts == {"0"}

    def test_corrupt_cache_gives_fresh_bytes(self, tmp_path, capsys):
        prices_path, meta_path = make_input_files(tmp_path)
        assert main(self._args(tmp_path, prices_path, meta_path, out="fresh")) == 0
        cache = tmp_path / "cache.json"
        cache.write_text('{"schema_version": "2", "entries": {')
        capsys.readouterr()
        args = self._args(tmp_path, prices_path, meta_path, out="corrupt",
                          baseline_cache=cache)
        assert main(args) == 0
        assert "warning" in capsys.readouterr().err
        json.loads(cache.read_text())  # rewritten as a valid cache
        for name in EXPECTED_FILES:
            if name == "run_manifest.json":
                continue  # records the differing output and cache paths
            fresh = (tmp_path / "fresh" / name).read_bytes()
            assert (tmp_path / "corrupt" / name).read_bytes() == fresh, name

    def test_cache_hit_with_more_ranks_gives_fresh_bytes(self, tmp_path,
                                                         capsys):
        # the cache entry holds p99 ranks 1-4; a run at max-rank 2 reads it
        prices_path, meta_path = make_input_files(
            tmp_path, n_assets=12, classes=["equities"] * 12)
        cache = tmp_path / "cache.json"

        def run(out, max_rank, **extra):
            args = self._args(tmp_path, prices_path, meta_path, out=out,
                              **extra)
            args[args.index("--window") + 1] = "20"
            args[args.index("--sims") + 1] = "50"
            args[args.index("--max-rank") + 1] = str(max_rank)
            assert main(args) == 0

        run("fill", 4, baseline_cache=cache)
        run("hit", 2, baseline_cache=cache)
        run("fresh", 2)
        for name in EXPECTED_FILES:
            if name == "run_manifest.json":
                continue  # records the differing output and cache paths
            fresh = (tmp_path / "fresh" / name).read_bytes()
            assert (tmp_path / "hit" / name).read_bytes() == fresh, name

    @pytest.mark.skipif(blocks.available_cpus() < 2,
                        reason="a worker pool needs at least 2 CPUs")
    def test_worker_count_does_not_change_report_bytes(self, tmp_path):
        # a fresh interpreter per run, so both runs use one BLAS thread; the
        # 300 sims and the 120 windows make more than one block each, run
        # in-process on one CPU and in a pool of two workers otherwise
        prices_path, meta_path = make_input_files(tmp_path, n_dates=130)
        assert 120 > blocks.BLOCK
        env = _cli_env(OPENBLAS_NUM_THREADS="1")
        one_cpu = {min(os.sched_getaffinity(0))}
        outputs = []
        for cpus in (one_cpu, None):
            args = self._args(tmp_path, prices_path, meta_path)
            args[args.index("--sims") + 1] = "300"
            proc = subprocess.run(
                [sys.executable, "-m", "corrspectra.cli", *args], env=env,
                capture_output=True, text=True, timeout=120,
                preexec_fn=cpus and (lambda: os.sched_setaffinity(0, cpus)))
            assert proc.returncode == 0, proc.stderr
            outputs.append({name: (tmp_path / "cli_out" / name).read_bytes()
                            for name in EXPECTED_FILES})
        assert outputs[0] == outputs[1]


def _cli_env(**variables):
    """os.environ plus `variables`, with this corrspectra first on the path."""
    src = str(Path(corrspectra.__file__).resolve().parent.parent)
    return dict(os.environ, **variables, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))


# The CLI with its null ensemble in a pool of two workers, on any host.
_TWO_WORKER_CLI = """\
import sys
from corrspectra import blocks, cli
assert hasattr(blocks, "available_cpus")
blocks.available_cpus = lambda: 2
sys.exit(cli.main(sys.argv[1:]))
"""


def _session_processes(session: int) -> list[int]:
    """The live (not zombie) processes of a session, from /proc."""
    pids = []
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            # after "pid (comm)": state, ppid, pgrp, session, ...
            fields = stat.read_text().rpartition(")")[2].split()
        except OSError:  # exited meanwhile
            continue
        if int(fields[3]) == session and fields[0] not in ("Z", "X"):
            pids.append(int(stat.parent.name))
    return pids


class TestWorkerProcesses:
    @pytest.mark.skipif(not Path("/proc/self/maps").exists(),
                        reason="needs /proc/self/maps")
    def test_undecodable_mapped_path_does_not_stop_a_run(self, tmp_path,
                                                        capsys):
        # a mapped file whose name is not UTF-8, as under a Latin-1
        # directory name, is just another path to the BLAS pin
        expected = blocks._openblas_libs()
        path = os.fsencode(tmp_path) + b"/map\xff.bin"
        with open(path, "w+b") as fh:
            fh.write(bytes(mmap.PAGESIZE))
            fh.flush()
            mapping = mmap.mmap(fh.fileno(), mmap.PAGESIZE)
        with mapping:
            assert path in Path("/proc/self/maps").read_bytes()
            assert blocks._openblas_libs() == expected
            prices_path, meta_path = make_input_files(tmp_path)
            assert main(TestCLI._args(tmp_path, prices_path, meta_path)) == 0

    @pytest.mark.skipif(sys.platform != "linux",
                        reason="workers die with their parent on Linux only")
    def test_killed_run_leaves_no_process(self, tmp_path):
        prices_path, meta_path = make_input_files(tmp_path)
        args = TestCLI._args(tmp_path, prices_path, meta_path)
        args[args.index("--sims") + 1] = "40000"  # ~10 s of pooled blocks
        proc = subprocess.Popen(
            [sys.executable, "-c", _TWO_WORKER_CLI, *args], env=_cli_env(),
            start_new_session=True, stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL)
        try:
            deadline = time.monotonic() + 60
            while len(_session_processes(proc.pid)) < 3:  # the CLI, 2 workers
                assert proc.poll() is None, "the run ended before its pool"
                assert time.monotonic() < deadline, "no pool started"
                time.sleep(0.02)
            proc.kill()
            proc.wait(timeout=60)
            deadline = time.monotonic() + 5
            while _session_processes(proc.pid) and time.monotonic() < deadline:
                time.sleep(0.05)
            assert _session_processes(proc.pid) == []
        finally:
            with contextlib.suppress(ProcessLookupError):
                os.killpg(proc.pid, signal.SIGKILL)
            proc.wait(timeout=60)

    @pytest.mark.parametrize("n_dates, sims", [(130, 250), (101, 600)],
                             ids=["in-process", "pooled"])
    def test_blas_threads_do_not_change_report_bytes(self, tmp_path, n_dates,
                                                     sims):
        # 98 assets, window 100: 30 windows and one block of sims run in
        # the CLI's process, or one window there and three blocks in a pool
        if not blocks._openblas_libs():
            pytest.skip("no OpenBLAS thread control found")
        prices_path, meta_path = make_input_files(
            tmp_path, n_assets=98, n_dates=n_dates, classes=["equities"] * 98)
        args = TestCLI._args(tmp_path, prices_path, meta_path)
        args[args.index("--window") + 1] = "100"
        args[args.index("--sims") + 1] = str(sims)
        outputs = []
        for threads in ("1", "2"):
            proc = subprocess.run(
                [sys.executable, "-c", _TWO_WORKER_CLI, *args],
                env=_cli_env(OPENBLAS_NUM_THREADS=threads),
                capture_output=True, text=True, timeout=120)
            assert proc.returncode == 0, proc.stderr
            outputs.append({name: (tmp_path / "cli_out" / name).read_bytes()
                            for name in EXPECTED_FILES})
        assert outputs[0] == outputs[1]

    @pytest.mark.skipif(sys.platform != "linux",
                        reason="workers are forked on Linux only")
    def test_script_without_main_guard_runs_a_pool(self, tmp_path):
        # spawned workers would run this script again and fail; forked
        # workers do not
        libs = blocks._openblas_libs()
        if not libs or not all(lib.pthreads for lib in libs):
            pytest.skip("needs an OpenBLAS pthreads build")
        script = tmp_path / "no_guard.py"
        script.write_text(
            "from corrspectra import blocks, nulls\n"
            "assert hasattr(blocks, 'available_cpus')\n"
            "blocks.available_cpus = lambda: 2\n"
            "config = nulls.NullConfig(n_assets=5, window_len=10, sims=600)\n"
            "print(nulls.null_ensemble_stats(config, max_rank=1).pr_mean[0])\n")
        proc = subprocess.run([sys.executable, str(script)], env=_cli_env(),
                              capture_output=True, text=True, timeout=120)
        assert (proc.returncode, proc.stderr) == (0, "")
        assert float(proc.stdout) > 1.0
