import builtins
import json
import multiprocessing
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import corrspectra
from corrspectra import (
    DegenerateWindowError,
    RunConfig,
    WorkerProcessError,
    run_analysis,
    write_reports,
)
from corrspectra import nulls, pipeline
from corrspectra.cli import main
from corrspectra.correlation import CoefficientMoments

from helpers import (
    random_walk_prices,
    weekly_dates,
    write_meta_csv,
    write_prices_csv,
)

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


def _no_ensemble(config, max_rank=0):
    raise AssertionError("the null ensemble ran before the windows")


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


class TestRunAnalysis:
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
        reports, stats = run_analysis(config)
        assert len(reports) == 2
        for rep in reports:
            assert abs(rep.eigenvalues.sum() - 3.0) <= 1e-8
            assert np.all(rep.pr >= 1.0 - 1e-10)
            assert rep.abs_r.shape == (3, 3)
        assert stats.config.n_assets == 3

    def test_reports_are_ordered_and_complete(self, tmp_path):
        config = make_config(tmp_path)
        reports, _ = run_analysis(config)
        assert [r.window_index for r in reports] == list(range(len(reports)))
        assert len(reports) == 29 - 10 + 1  # L = 29 returns

    def test_max_rank_capped_by_panel(self, tmp_path):
        config = make_config(tmp_path, max_rank=9)
        with pytest.raises(ValueError, match="max-rank"):
            run_analysis(config)

    def test_degenerate_window_raises_before_the_null_ensemble(
            self, tmp_path, monkeypatch):
        monkeypatch.setattr(nulls, "null_ensemble_stats", _no_ensemble)
        prices_path, meta_path = make_flat_asset_files(tmp_path)
        cache = tmp_path / "cache.json"
        config = RunConfig(prices_path=str(prices_path),
                           meta_path=str(meta_path),
                           output_dir=str(tmp_path / "out"), window_len=10,
                           sims=10, max_rank=3, baseline_cache=str(cache))
        with pytest.raises(DegenerateWindowError, match="window 20 "):
            run_analysis(config)
        assert not cache.exists()

    def test_needs_three_assets(self, tmp_path):
        prices_path, meta_path = make_input_files(
            tmp_path, n_assets=2, classes=["equities", "metals"]
        )
        config = RunConfig(
            prices_path=str(prices_path),
            meta_path=str(meta_path),
            output_dir=str(tmp_path / "out"),
            window_len=5,
            sims=5,
            max_rank=2,
        )
        with pytest.raises(ValueError, match="3 assets"):
            run_analysis(config)


class TestEmitReports:
    def test_files_and_headers(self, tmp_path):
        config = make_config(tmp_path)
        reports, _ = run_analysis(config)
        n_windows, written = write_reports(config)
        assert n_windows == len(reports)
        assert [p.name for p in written] == EXPECTED_FILES
        windows_lines = (tmp_path / "out" / "windows.csv").read_text().splitlines()
        assert windows_lines[0] == (
            "window_index,end_date,corr_mean,corr_std,corr_skewness,"
            "corr_kurtosis,variance_fraction_1,variance_fraction_2,"
            "variance_fraction_3,pr_1,pr_2,pr_3,kaiser_count,scree_count,"
            "scree_exceedance_count"
        )
        assert len(windows_lines) == 1 + len(reports)
        eig_lines = (tmp_path / "out" / "eigenvalues.csv").read_text().splitlines()
        assert eig_lines[0] == "window_index,end_date,rank,eigenvalue"
        assert len(eig_lines) == 1 + len(reports) * 4
        corr_lines = (tmp_path / "out" / "asset_pc_corr.csv").read_text().splitlines()
        assert corr_lines[0] == "window_index,asset,rank,abs_r,abs_r_adjusted"
        assert len(corr_lines) == 1 + len(reports) * 4 * 3
        assert corr_lines[1].split(",")[1] == "A00"

    def test_manifest_documents_schema(self, tmp_path):
        config = make_config(tmp_path)
        reports, _ = run_analysis(config)
        write_reports(config)
        manifest = json.loads((tmp_path / "out" / "run_manifest.json").read_text())
        assert manifest["schema_version"] == "1"
        assert manifest["config"]["window_len"] == 10
        assert manifest["config"]["master_seed"] == 5
        assert manifest["n_windows"] == len(reports)
        assert "windows.csv" in manifest["files"]
        assert "conventions" in manifest

    def test_baselines_json_roundtrip(self, tmp_path):
        config = make_config(tmp_path)
        _, stats = run_analysis(config)
        write_reports(config)
        payload = json.loads((tmp_path / "out" / "null_baselines.json").read_text())
        assert payload["config"]["sims"] == 15
        assert payload["pr_mean"] == [float(v) for v in stats.pr_mean]
        assert payload["abs_corr_p99"][3] is None  # beyond max_rank

    def test_csv_floats_roundtrip_at_15_digits(self, tmp_path):
        config = make_config(tmp_path)
        reports, _ = run_analysis(config)
        write_reports(config)
        eig_lines = (tmp_path / "out" / "eigenvalues.csv").read_text().splitlines()
        parsed = {}
        for line in eig_lines[1:]:
            index, _, rank, value = line.split(",")
            parsed[(int(index), int(rank))] = float(value)
        for rep in reports:
            for k, beta in enumerate(rep.eigenvalues, start=1):
                stored = parsed[(rep.window_index, k)]
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
        monkeypatch.setattr(pipeline, "available_cpus", lambda: cpus)
        monkeypatch.setattr(pipeline, "WINDOW_BLOCK", block)
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
                                     block=pipeline.WINDOW_BLOCK)
        small_blocks = self._report_bytes(monkeypatch, config, 1, block=7)
        assert default == small_blocks


def _fmt_oracle(value):
    value = float(value)
    return "NaN" if value != value else format(value, ".15g")


class TestRenderers:
    TICKERS = ["nan", "NaN", "x%sy", "50%"]
    VALUES = [1e-300, 0.1, 1.0 - 2.0**-52, 0.5, 1.0, 0.0, 2.0 / 3.0, 1e-17]

    def _report(self, index, adjusted_nan):
        n_ranks = 2
        values = np.resize(self.VALUES, (4, n_ranks))
        adjusted = values[::-1].copy()
        if adjusted_nan:
            adjusted[2, 1] = np.nan
        return pipeline.WindowReport(
            window_index=index,
            end_date=weekly_dates(index + 1)[-1],
            moments=CoefficientMoments(0.1, 0.2, 0.3, 3.0),
            eigenvalues=np.array([2.0 - 2.0**-51, 1.0, 0.1, 1e-300]),
            variance_fractions=np.full(4, 0.25),
            pr=np.full(4, 2.0),
            kaiser_count=1,
            scree_count=1,
            scree_exceedance_count=1,
            abs_r=values,
            abs_r_adjusted=adjusted,
        )

    def test_templates_match_per_value_formatting(self):
        reports = [self._report(0, False), self._report(1, True),
                   self._report(2, False)]
        expected_corr = ["window_index,asset,rank,abs_r,abs_r_adjusted"]
        expected_eig = ["window_index,end_date,rank,eigenvalue"]
        for rep in reports:
            for i, name in enumerate(self.TICKERS):
                for k in range(rep.abs_r.shape[1]):
                    expected_corr.append(
                        f"{rep.window_index},{name},{k + 1},"
                        f"{_fmt_oracle(rep.abs_r[i, k])},"
                        f"{_fmt_oracle(rep.abs_r_adjusted[i, k])}")
            for k, beta in enumerate(rep.eigenvalues, start=1):
                expected_eig.append(f"{rep.window_index},"
                                    f"{rep.end_date.isoformat()},{k},"
                                    f"{_fmt_oracle(beta)}")
        corr = pipeline._ASSET_CORR_HEADER + "".join(
            pipeline._asset_corr_rows(reports, self.TICKERS))
        eig = pipeline._EIGENVALUES_HEADER + "".join(
            pipeline._eigenvalues_rows(reports))
        assert corr == "\n".join(expected_corr) + "\n"
        assert eig == "\n".join(expected_eig) + "\n"
        assert "1,x%sy,2,0,NaN\n" in corr
        assert all("nan" not in line.split(",")[3:]
                   for line in corr.splitlines())


def _die_in_worker(*args):
    if multiprocessing.parent_process() is None:
        raise AssertionError("expected to run in a pool worker")
    os._exit(1)


class TestCLI:
    def _args(self, tmp_path, prices_path, meta_path, out="cli_out", **extra):
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

    def test_missing_file_exit_two(self, tmp_path, capsys):
        prices_path, meta_path = make_input_files(tmp_path)
        code = main(self._args(tmp_path, tmp_path / "nope.csv", meta_path))
        assert code == 2

    def test_bad_class_exit_two(self, tmp_path, capsys):
        prices_path, meta_path = make_input_files(tmp_path)
        code = main(
            self._args(tmp_path, prices_path, meta_path, classes="crypto")
        )
        assert code == 2

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

    def test_degenerate_window_in_pool_exits_three(self, tmp_path, capsys,
                                                   monkeypatch):
        prices_path, meta_path = make_flat_asset_files(tmp_path)
        monkeypatch.setattr(pipeline, "available_cpus", lambda: 2)
        monkeypatch.setattr(pipeline, "WINDOW_BLOCK", 8)
        args = self._args(tmp_path, prices_path, meta_path)
        assert main(args) == 3
        err = capsys.readouterr().err
        assert "window 20 " in err and "'A01'" in err
        assert not (tmp_path / "cli_out").exists()

    def test_degenerate_window_exits_before_the_null_ensemble(
            self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(nulls, "null_ensemble_stats", _no_ensemble)
        prices_path, meta_path = make_flat_asset_files(tmp_path)
        cache = tmp_path / "cache.json"
        args = self._args(tmp_path, prices_path, meta_path,
                          baseline_cache=cache)
        assert main(args) == 3
        assert "window 20 " in capsys.readouterr().err
        assert not cache.exists()
        assert not (tmp_path / "cli_out").exists()

    @pytest.mark.parametrize("failure, code", [("window", 3), ("ensemble", 5)])
    def test_failed_run_keeps_earlier_reports(self, tmp_path, capsys,
                                              monkeypatch, failure, code):
        prices_path, meta_path = make_input_files(tmp_path)
        assert main(self._args(tmp_path, prices_path, meta_path)) == 0
        earlier = {path.name: path.read_bytes()
                   for path in (tmp_path / "cli_out").iterdir()}
        assert sorted(earlier) == sorted(EXPECTED_FILES)
        if failure == "window":
            # fails in the third pooled block, after two blocks are written
            prices_path, meta_path = make_flat_asset_files(tmp_path)
            monkeypatch.setattr(pipeline, "available_cpus", lambda: 2)
            monkeypatch.setattr(pipeline, "WINDOW_BLOCK", 8)
        else:
            # other prices, and a failure after every window's rows are
            # written
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

    def test_stale_staging_directory_is_removed(self, tmp_path, capsys):
        # the staging directories of a SIGKILLed run and of a live one
        exited = subprocess.Popen([sys.executable, "-c", "pass"])
        exited.wait(timeout=60)
        stale = tmp_path / f".cli_out.{exited.pid}.k1ll3d_x.staging"
        live = tmp_path / f".cli_out.{os.getpid()}.running.staging"
        for staging in (stale, live):
            staging.mkdir()
            (staging / "eigenvalues.csv").write_text("partial\n")
        prices_path, meta_path = make_input_files(tmp_path)
        assert main(self._args(tmp_path, prices_path, meta_path)) == 0
        assert not stale.exists()
        assert (live / "eigenvalues.csv").read_text() == "partial\n"

    def test_dead_worker_in_window_loop_exits_five(self, tmp_path, capsys,
                                                   monkeypatch):
        monkeypatch.setattr(pipeline, "available_cpus", lambda: 2)
        monkeypatch.setattr(pipeline, "WINDOW_BLOCK", 8)
        monkeypatch.setattr(pipeline, "_window_rows", _die_in_worker)
        prices_path, meta_path = make_input_files(tmp_path)
        args = self._args(tmp_path, prices_path, meta_path)
        assert main(args) == 5
        assert "worker process" in capsys.readouterr().err
        assert not (tmp_path / "cli_out").exists()

    def test_unwritable_output_exit_four(self, tmp_path, capsys):
        prices_path, meta_path = make_input_files(tmp_path)
        blocker = tmp_path / "blocked"
        blocker.write_text("not a directory")
        args = [
            "--prices", str(prices_path),
            "--meta", str(meta_path),
            "--out", str(blocker),
            "--window", "10",
            "--sims", "10",
            "--max-rank", "3",
        ]
        assert main(args) == 4

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

    @pytest.mark.skipif(nulls.available_cpus() < 2,
                        reason="a worker pool needs at least 2 CPUs")
    def test_worker_count_does_not_change_report_bytes(self, tmp_path):
        # a fresh interpreter per run, so both runs use one BLAS thread; the
        # 300 sims and the 120 windows make two blocks each, run in-process
        # on one CPU and in a pool of two workers otherwise
        prices_path, meta_path = make_input_files(tmp_path, n_dates=130)
        assert 120 > pipeline.WINDOW_BLOCK
        src = str(Path(corrspectra.__file__).resolve().parent.parent)
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
                   PYTHONPATH=os.pathsep.join(
                       filter(None, [src, os.environ.get("PYTHONPATH")])))
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
