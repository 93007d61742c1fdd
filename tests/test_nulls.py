import json
import multiprocessing
import os
import pickle
import sys
import threading
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from corrspectra import (
    DegenerateWindowError,
    EigenComputationError,
    NullConfig,
    analyze_window,
    cached_ensemble_stats,
    null_ensemble_stats,
    null_window,
    shuffle_panel,
    sim_rng,
)
from corrspectra import WorkerProcessError, blocks, nulls, spectral

from helpers import nearest_rank_percentile
from synthetic import FactorSpec, simulate_gaussian_panel, synthetic_factor_panel


class TestShufflePanel:
    def test_rows_are_permutations(self):
        panel = simulate_gaussian_panel(10, 50, seed=3)
        shuffled = shuffle_panel(panel, seed=4)
        for i in range(10):
            assert np.array_equal(
                np.sort(shuffled.returns[i]), np.sort(panel.returns[i])
            )

    def test_deterministic(self):
        panel = simulate_gaussian_panel(6, 30, seed=3)
        a = shuffle_panel(panel, seed=11)
        b = shuffle_panel(panel, seed=11)
        assert np.array_equal(a.returns, b.returns)

    def test_all_rows_moved(self):
        # with 98 rows of 574 values the chance any row keeps its order is
        # astronomically small; a fixed seed makes the check exact
        panel = simulate_gaussian_panel(98, 574, seed=8)
        shuffled = shuffle_panel(panel, seed=9)
        for i in range(98):
            assert not np.array_equal(shuffled.returns[i], panel.returns[i])

    def test_rows_shuffled_independently(self):
        panel = simulate_gaussian_panel(4, 200, seed=5)
        panel.returns[1] = panel.returns[0]
        shuffled = shuffle_panel(panel, seed=6)
        assert not np.array_equal(shuffled.returns[0], shuffled.returns[1])

    def test_metadata_preserved(self):
        panel = simulate_gaussian_panel(5, 20, seed=1)
        shuffled = shuffle_panel(panel, seed=2)
        assert shuffled.tickers == panel.tickers
        assert shuffled.dates == panel.dates


class TestSimulateGaussianPanel:
    def test_shape_and_tickers(self):
        panel = simulate_gaussian_panel(12, 40, seed=0)
        assert panel.returns.shape == (12, 40)
        assert panel.tickers[0] == "SIM001"
        assert panel.tickers[-1] == "SIM012"

    def test_moments_on_large_sample(self):
        panel = simulate_gaussian_panel(1000, 1000, seed=123)
        assert abs(panel.returns.mean()) <= 0.01
        assert abs(panel.returns.var() - 1.0) <= 0.01

    def test_seeds_differ(self):
        a = simulate_gaussian_panel(5, 20, seed=1)
        b = simulate_gaussian_panel(5, 20, seed=2)
        assert not np.array_equal(a.returns, b.returns)

    def test_seed_reproducible(self):
        a = simulate_gaussian_panel(5, 20, seed=7)
        b = simulate_gaussian_panel(5, 20, seed=7)
        assert np.array_equal(a.returns, b.returns)


class TestSeedContract:
    def test_child_streams_reproduce(self):
        a = sim_rng(99, 3).standard_normal(16)
        b = sim_rng(99, 3).standard_normal(16)
        assert np.array_equal(a, b)

    def test_child_streams_distinct(self):
        a = sim_rng(99, 3).standard_normal(16)
        b = sim_rng(99, 4).standard_normal(16)
        assert not np.array_equal(a, b)

    def test_more_windows_extend_earlier_ones(self):
        base = NullConfig(n_assets=5, window_len=12, sims=3, master_seed=21)
        more = NullConfig(n_assets=5, window_len=12, sims=6, master_seed=21)
        first = [null_window(base, s) for s in range(base.sims)]
        extended = [null_window(more, s) for s in range(more.sims)]
        for a, b in zip(first, extended):
            assert np.array_equal(a, b)

    def test_sims_pass_the_eigen_checks(self, monkeypatch):
        # the trace check fails every decomposition once its bound is negative
        monkeypatch.setattr(spectral, "TRACE_TOL", -1.0)
        config = NullConfig(n_assets=6, window_len=15, sims=3, master_seed=5)
        with pytest.raises(EigenComputationError, match="eigenvalue sum") as excinfo:
            null_ensemble_stats(config, max_rank=2)
        assert excinfo.value.window_index == 0

    def test_stats_deterministic(self):
        config = NullConfig(n_assets=6, window_len=15, sims=20, master_seed=5)
        a = null_ensemble_stats(config, max_rank=2)
        b = null_ensemble_stats(config, max_rank=2)
        assert np.array_equal(a.pr_mean, b.pr_mean)
        assert np.array_equal(a.scree_mean, b.scree_mean)
        assert np.array_equal(a.abs_corr_p99[:2], b.abs_corr_p99[:2])


def _half_second_block(start, stop):
    time.sleep(0.5)


def _first_block_fails(start, stop):
    time.sleep(-1 if start == 0 else 0.5)  # a negative sleep raises


def _dead_block(start, stop):
    os._exit(1)


def _blas_threads_block(start, stop):
    return [lib.get_num_threads() for lib in blocks._openblas_libs()]


class TestParallelEnsemble:
    # 600 sims make three blocks, so with two CPUs the blocks run in a pool
    CONFIG = NullConfig(n_assets=20, window_len=30, sims=600, master_seed=8)

    @staticmethod
    def _arrays(stats):
        return [a.tobytes() for a in (stats.pr_mean, stats.pr_std,
                                      stats.scree_mean, stats.abs_corr_p99)]

    @staticmethod
    def _stats_on_cpus(monkeypatch, config, cpus, max_rank=3):
        monkeypatch.setattr(blocks, "available_cpus", lambda: cpus)
        return null_ensemble_stats(config, max_rank=max_rank)

    def test_worker_count_does_not_change_bytes(self, monkeypatch):
        one = self._stats_on_cpus(monkeypatch, self.CONFIG, 1)
        two = self._stats_on_cpus(monkeypatch, self.CONFIG, 2)
        assert self._arrays(one) == self._arrays(two)

    def test_block_size_does_not_change_bytes(self, monkeypatch):
        default = self._stats_on_cpus(monkeypatch, self.CONFIG, 1)
        monkeypatch.setattr(nulls, "ENSEMBLE_BLOCK_SIMS", 7)
        small_blocks = self._stats_on_cpus(monkeypatch, self.CONFIG, 1)
        assert self._arrays(default) == self._arrays(small_blocks)

    def test_pool_restores_blas_environment(self, monkeypatch):
        # only spawned workers read the environment
        monkeypatch.setattr(blocks, "_pool_start_method", lambda: "spawn")
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "3")
        monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
        self._stats_on_cpus(monkeypatch, self.CONFIG, 2, max_rank=1)
        assert os.environ["OPENBLAS_NUM_THREADS"] == "3"
        assert "OMP_NUM_THREADS" not in os.environ

    def test_error_in_parent_drops_queued_blocks(self, monkeypatch):
        # 40 half-second blocks on 2 workers take 10 s; an error (or Ctrl-C)
        # after the first result must not wait for the rest. The result
        # iterator stays referenced, as in null_ensemble_stats, so closing
        # it cannot cancel the queued blocks.
        monkeypatch.setattr(blocks, "available_cpus", lambda: 2)
        begin = time.monotonic()
        with pytest.raises(RuntimeError, match="stop"):
            with blocks.map_blocks(_half_second_block, (), 40, 1) as results:
                next(results)
                raise RuntimeError("stop")
        assert time.monotonic() - begin < 5

    def test_error_in_worker_propagates_promptly(self, monkeypatch):
        monkeypatch.setattr(blocks, "available_cpus", lambda: 2)
        begin = time.monotonic()
        with pytest.raises(ValueError):
            with blocks.map_blocks(_first_block_fails, (), 40, 1) as results:
                list(results)
        assert time.monotonic() - begin < 5

    def test_dead_worker_raises_worker_process_error(self, monkeypatch):
        monkeypatch.setattr(blocks, "available_cpus", lambda: 2)
        with pytest.raises(WorkerProcessError, match="worker process"):
            with blocks.map_blocks(_dead_block, (), 2, 1) as results:
                list(results)

    @pytest.mark.parametrize("method", ["fork", "spawn"])
    def test_guard_advice_only_for_spawned_workers(self, monkeypatch, method):
        if method not in multiprocessing.get_all_start_methods():
            pytest.skip(f"no {method} start method here")
        monkeypatch.setattr(blocks, "_pool_start_method", lambda: method)
        monkeypatch.setattr(blocks, "available_cpus", lambda: 2)
        with pytest.raises(WorkerProcessError) as excinfo:
            with blocks.map_blocks(_dead_block, (), 2, 1) as results:
                list(results)
        assert ("__main__" in str(excinfo.value)) == (method == "spawn")

    @pytest.mark.parametrize("method", [None, "fork", "spawn"],
                             ids=["in-process", "fork", "spawn"])
    def test_blocks_run_on_one_blas_thread(self, monkeypatch, method):
        libs = blocks._openblas_libs()
        if not libs:
            pytest.skip("no OpenBLAS thread control found")
        if method and method not in multiprocessing.get_all_start_methods():
            pytest.skip(f"no {method} start method here")
        monkeypatch.setattr(blocks, "_pool_start_method", lambda: method)
        monkeypatch.setattr(blocks, "available_cpus",
                            lambda: 1 if method is None else 2)
        before = [lib.get_num_threads() for lib in libs]
        try:
            for lib in libs:  # so that a missing pin shows in this process
                lib.set_num_threads(2)
            caller = [lib.get_num_threads() for lib in libs]
            with blocks.map_blocks(_blas_threads_block, (), 2, 1) as results:
                counts = list(results)
            # a spawned worker may load fewer OpenBLAS libraries than this
            # process, so each block's counts are checked on their own
            assert len(counts) == 2
            assert all(block and set(block) == {1} for block in counts)
            assert [lib.get_num_threads() for lib in libs] == caller
        finally:
            for lib, threads in zip(libs, before):
                lib.set_num_threads(threads)

    @pytest.mark.skipif(
        sys.platform != "linux"
        or "libscipy_openblas64_" not in Path("/proc/self/maps").read_text(),
        reason="needs Linux and the OpenBLAS of numpy's wheels")
    def test_workers_fork_unless_another_thread_runs(self):
        assert blocks._pool_start_method() == "fork"
        release = threading.Event()
        thread = threading.Thread(target=release.wait, args=(60,))
        thread.start()
        try:
            assert blocks._pool_start_method() == "spawn"
        finally:
            release.set()
            thread.join(timeout=60)
        assert not thread.is_alive()

    def test_blas_pin_is_shared_and_restored(self):
        libs = blocks._openblas_libs()
        if not libs:
            pytest.skip("no OpenBLAS thread control found")
        before = [lib.get_num_threads() for lib in libs]
        with blocks._one_blas_thread:
            with blocks._one_blas_thread:
                assert [lib.get_num_threads() for lib in libs] == [1] * len(libs)
            assert [lib.get_num_threads() for lib in libs] == [1] * len(libs)
        assert [lib.get_num_threads() for lib in libs] == before

    def test_worker_errors_survive_pickling(self):
        # pool workers raise these, and the CLI maps them to exit code 3
        eigen = pickle.loads(pickle.dumps(
            EigenComputationError("window 7: bad", residual=0.5, window_index=7)))
        assert (str(eigen), eigen.residual, eigen.window_index) == (
            "window 7: bad", 0.5, 7)
        degenerate = pickle.loads(pickle.dumps(
            DegenerateWindowError("flat", ticker="AAA", window_index=3)))
        assert (str(degenerate), degenerate.ticker, degenerate.window_index) == (
            "flat", "AAA", 3)


class TestPRBaselines:
    def test_pr_within_bounds_tiny_panel(self):
        stats = null_ensemble_stats(
            NullConfig(n_assets=2, window_len=10, sims=50, master_seed=13)
        )
        assert np.all(stats.pr_mean >= 1.0 - 1e-12)
        assert np.all(stats.pr_mean <= 2.0 + 1e-12)

    def test_single_sim_has_zero_std(self):
        stats = null_ensemble_stats(
            NullConfig(n_assets=4, window_len=10, sims=1, master_seed=2)
        )
        assert np.all(stats.pr_std == 0.0)


class TestScreeProfile:
    def test_profile_properties(self):
        stats = null_ensemble_stats(
            NullConfig(n_assets=98, window_len=100, sims=50, master_seed=17)
        )
        assert np.all(np.diff(stats.scree_mean) <= 1e-12)
        assert abs(stats.scree_mean.sum() - 98.0) <= 1e-6
        assert 3.46 <= stats.scree_mean[0] <= 4.46

    def test_small_panel_trace(self):
        stats = null_ensemble_stats(
            NullConfig(n_assets=4, window_len=12, sims=40, master_seed=3)
        )
        assert abs(stats.scree_mean.sum() - 4.0) <= 1e-6


def _pooled_abs_r(config, max_rank, kernel=analyze_window):
    """Every sim's |r| of ranks 1..max_rank pooled per rank, as a
    (max_rank, sims * N) array: the sample the ensemble's p99 summarizes."""
    rows = [kernel(null_window(config, s), max_rank, s)[3]
            for s in range(config.sims)]
    return np.concatenate(rows).T


def _coarse_analyze_window(z_hat, max_rank, window_index):
    """analyze_window with |r| rounded to 0.1, so its values tie."""
    *head, abs_r = analyze_window(z_hat, max_rank, window_index)
    return (*head, np.round(abs_r, 1))


class TestAbsCorrPercentiles:
    def test_nearest_rank_definition(self):
        values = np.arange(1, 101, dtype=float)
        assert nearest_rank_percentile(values, 99.0) == 99.0
        assert nearest_rank_percentile(values, 50.0) == 50.0
        assert nearest_rank_percentile(np.array([5.0]), 99.0) == 5.0

    @pytest.mark.parametrize("cpus", [1, 2])
    @pytest.mark.parametrize("n_assets, window_len, sims, max_rank, block", [
        (10, 20, 10, 3, 250),  # 0.99 * sims * N is the integer 99
        (5, 12, 300, 5, 2),  # max_rank = N; keep 16 > a block's 10 values
        (20, 30, 600, 3, 250),
        (20, 30, 600, 3, 7),
        (6, 12, 30, 0, 250),  # no ranks, so no percentiles
    ])
    def test_streamed_p99_is_nearest_rank_of_pooled_sample(
            self, monkeypatch, cpus, n_assets, window_len, sims, max_rank,
            block):
        monkeypatch.setattr(blocks, "available_cpus", lambda: cpus)
        monkeypatch.setattr(nulls, "ENSEMBLE_BLOCK_SIMS", block)
        config = NullConfig(n_assets=n_assets, window_len=window_len,
                            sims=sims, master_seed=31)
        pooled = _pooled_abs_r(config, max_rank)
        expected = [nearest_rank_percentile(pooled[k], 99.0)
                    for k in range(max_rank)]
        stats = null_ensemble_stats(config, max_rank)
        assert stats.abs_corr_p99[:max_rank].tolist() == expected
        assert np.isnan(stats.abs_corr_p99[max_rank:]).all()

    def test_streamed_p99_with_tied_values(self, monkeypatch):
        monkeypatch.setattr(blocks, "available_cpus", lambda: 1)
        monkeypatch.setattr(nulls, "ENSEMBLE_BLOCK_SIMS", 3)
        monkeypatch.setattr(nulls, "analyze_window", _coarse_analyze_window)
        config = NullConfig(n_assets=8, window_len=16, sims=40, master_seed=2)
        pooled = _pooled_abs_r(config, 4, _coarse_analyze_window)
        stats = null_ensemble_stats(config, max_rank=4)
        for k in range(4):
            p99 = nearest_rank_percentile(pooled[k], 99.0)
            assert (pooled[k] == p99).sum() > 1  # the percentile is tied
            assert stats.abs_corr_p99[k] == p99

    def test_percentiles_bounded_and_monotone(self):
        stats = null_ensemble_stats(
            NullConfig(n_assets=30, window_len=40, sims=200, master_seed=29),
            max_rank=5,
        )
        head = stats.abs_corr_p99[:5]
        assert np.all((head >= 0.0) & (head <= 1.0))
        assert np.all(np.diff(head) <= 1e-12)
        assert np.all(np.isnan(stats.abs_corr_p99[5:]))
        assert stats.p99_ranks == 5

    def test_memory_does_not_grow_with_sims(self, monkeypatch):
        # pooling every sim's |r| of 30 ranks x 30 assets would take
        # 12.6 MB more at 2000 sims than at 250
        monkeypatch.setattr(blocks, "available_cpus", lambda: 1)
        n_assets, max_rank, few, many = 30, 30, 250, 2000
        pooled_growth = max_rank * (many - few) * n_assets * 8
        assert pooled_growth >= 10e6

        def peak(sims):
            config = NullConfig(n_assets=n_assets, window_len=40, sims=sims,
                                master_seed=3)
            tracemalloc.start()
            try:
                null_ensemble_stats(config, max_rank)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(many) - peak(few) < pooled_growth / 5


class TestSyntheticFactorPanel:
    def test_rank_one_limit(self):
        spec = FactorSpec(block_sizes=(12,), loadings=(1.0,), noise_std=1e-6)
        panel = synthetic_factor_panel(spec, 200, seed=3)
        corr = np.corrcoef(panel.returns)
        off = corr[np.triu_indices(12, k=1)]
        assert off.min() >= 0.999

    def test_cross_block_uncorrelated(self):
        spec = FactorSpec(block_sizes=(15, 15), loadings=(0.9, 0.9), noise_std=0.4)
        panel = synthetic_factor_panel(spec, 2000, seed=10)
        corr = np.corrcoef(panel.returns)
        cross = corr[:15, 15:]
        assert abs(cross.mean()) <= 0.06

    def test_within_block_correlation_matches_theory(self):
        # cov = 0.9^2, var = 0.9^2 + 0.4^2 -> corr = 0.81 / 0.97
        spec = FactorSpec(
            block_sizes=(30, 30, 30), loadings=(0.9, 0.9, 0.9), noise_std=0.4
        )
        panel = synthetic_factor_panel(spec, 2000, seed=77)
        corr = np.corrcoef(panel.returns)
        expected = 0.81 / 0.97
        for b in range(3):
            block = corr[b * 30 : (b + 1) * 30, b * 30 : (b + 1) * 30]
            off = block[np.triu_indices(30, k=1)]
            assert abs(off.mean() - expected) <= 0.03

    def test_block_sizes_must_sum(self):
        spec = FactorSpec(block_sizes=(3, 4), loadings=(0.5, 0.5), noise_std=0.2)
        panel = synthetic_factor_panel(spec, 50, seed=0)
        assert panel.returns.shape == (7, 50)

    def test_validation(self):
        with pytest.raises(ValueError):
            FactorSpec(block_sizes=(3,), loadings=(1.5,), noise_std=0.2)
        with pytest.raises(ValueError):
            FactorSpec(block_sizes=(3, 3), loadings=(0.5,), noise_std=0.2)
        with pytest.raises(ValueError):
            FactorSpec(block_sizes=(3,), loadings=(0.5,), noise_std=0.0)


class TestNullConfigValidation:
    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            NullConfig(n_assets=1, window_len=10)
        with pytest.raises(ValueError):
            NullConfig(n_assets=5, window_len=1)
        with pytest.raises(ValueError):
            NullConfig(n_assets=5, window_len=10, sims=0)
        with pytest.raises(ValueError):
            NullConfig(n_assets=5, window_len=10, kind="bootstrap")
        with pytest.raises(ValueError):
            NullConfig(n_assets=5, window_len=10, master_seed=-1)


class TestBaselineCache:
    def test_roundtrip_is_exact(self, tmp_path):
        cache = tmp_path / "baselines.json"
        config = NullConfig(n_assets=6, window_len=12, sims=25, master_seed=4)
        fresh = cached_ensemble_stats(config, max_rank=3, cache_path=cache)
        assert cache.exists()
        reloaded = cached_ensemble_stats(config, max_rank=3, cache_path=cache)
        assert np.array_equal(fresh.pr_mean, reloaded.pr_mean)
        assert np.array_equal(fresh.pr_std, reloaded.pr_std)
        assert np.array_equal(fresh.scree_mean, reloaded.scree_mean)
        assert np.array_equal(
            fresh.abs_corr_p99[:3], reloaded.abs_corr_p99[:3]
        )
        assert np.all(np.isnan(reloaded.abs_corr_p99[3:]))
        assert [p.name for p in tmp_path.iterdir()] == ["baselines.json"]

    @pytest.mark.parametrize("content", [
        "{\"schema_version\": \"2\", \"entr",
        "[1, 2]",
        "\udcff",
        None,
    ])
    def test_corrupt_cache_is_a_miss(self, tmp_path, capsys, content):
        cache = tmp_path / "baselines.json"
        config = NullConfig(n_assets=6, window_len=12, sims=25, master_seed=4)
        if content is None:  # a well-formed file with a broken entry
            key = "N=6,T=12,sims=25,kind=gaussian,seed=4"
            cache.write_text(json.dumps({"schema_version": "2", "entries": {
                key: {"pr_mean": [1.0], "pr_std": [], "scree_mean": [],
                      "abs_corr_p99": []}}}))
        else:
            cache.write_bytes(content.encode("utf-8", "surrogateescape"))
        stats = cached_ensemble_stats(config, max_rank=2, cache_path=cache)
        fresh = null_ensemble_stats(config, max_rank=2)
        assert np.array_equal(stats.scree_mean, fresh.scree_mean)
        assert np.array_equal(stats.abs_corr_p99[:2], fresh.abs_corr_p99[:2])
        warning = capsys.readouterr().err
        assert warning.count("\n") == 1 and "warning" in warning
        rewritten = cached_ensemble_stats(config, max_rank=2, cache_path=cache)
        assert capsys.readouterr().err == ""
        assert np.array_equal(rewritten.pr_mean, fresh.pr_mean)

    @pytest.mark.parametrize("field", ["pr_mean", "pr_std", "scree_mean"])
    def test_null_baseline_value_is_a_miss(self, tmp_path, capsys, field):
        # a null in abs_corr_p99 marks a rank beyond max_rank; in these
        # arrays it is corruption, and NaN scree means would zero every count
        cache = tmp_path / "baselines.json"
        config = NullConfig(n_assets=6, window_len=20, sims=30, master_seed=4)
        fresh = cached_ensemble_stats(config, max_rank=2, cache_path=cache)
        loaded = json.loads(cache.read_text())
        [entry] = loaded["entries"].values()
        entry[field][3] = None
        cache.write_text(json.dumps(loaded))
        stats = cached_ensemble_stats(config, max_rank=2, cache_path=cache)
        warning = capsys.readouterr().err
        assert warning.count("\n") == 1 and field in warning
        assert np.array_equal(getattr(stats, field), getattr(fresh, field))
        [entry] = json.loads(cache.read_text())["entries"].values()
        assert None not in entry[field]

    def test_failed_write_keeps_old_cache(self, tmp_path, monkeypatch):
        cache = tmp_path / "baselines.json"
        a = NullConfig(n_assets=5, window_len=12, sims=10, master_seed=4)
        b = NullConfig(n_assets=5, window_len=12, sims=10, master_seed=5)
        cached_ensemble_stats(a, max_rank=1, cache_path=cache)
        before = cache.read_bytes()

        def failing_dump(*args, **kwargs):
            raise OSError("disk full")

        monkeypatch.setattr(json, "dump", failing_dump)
        with pytest.raises(OSError):
            cached_ensemble_stats(b, max_rank=1, cache_path=cache)
        assert cache.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["baselines.json"]

    def test_distinct_keys_coexist(self, tmp_path):
        cache = tmp_path / "baselines.json"
        a = NullConfig(n_assets=5, window_len=12, sims=10, master_seed=4)
        b = NullConfig(n_assets=5, window_len=12, sims=10, master_seed=5)
        stats_a = cached_ensemble_stats(a, max_rank=1, cache_path=cache)
        stats_b = cached_ensemble_stats(b, max_rank=1, cache_path=cache)
        assert not np.array_equal(stats_a.scree_mean, stats_b.scree_mean)
        again_a = cached_ensemble_stats(a, max_rank=1, cache_path=cache)
        assert np.array_equal(stats_a.scree_mean, again_a.scree_mean)

    def test_deeper_max_rank_recomputes(self, tmp_path):
        cache = tmp_path / "baselines.json"
        config = NullConfig(n_assets=6, window_len=12, sims=15, master_seed=4)
        shallow = cached_ensemble_stats(config, max_rank=1, cache_path=cache)
        assert shallow.p99_ranks == 1
        deep = cached_ensemble_stats(config, max_rank=4, cache_path=cache)
        assert deep.p99_ranks == 4
        assert deep.abs_corr_p99[0] == shallow.abs_corr_p99[0]


class TestNullKindsAgree:
    def test_shuffled_and_gaussian_pr_close(self):
        shuffled = null_ensemble_stats(
            NullConfig(n_assets=20, window_len=30, sims=300, master_seed=1,
                       kind="shuffled")
        )
        gaussian = null_ensemble_stats(
            NullConfig(n_assets=20, window_len=30, sims=300, master_seed=1,
                       kind="gaussian")
        )
        assert abs(shuffled.pr_mean[0] - gaussian.pr_mean[0]) <= 0.5
