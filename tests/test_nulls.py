import json
import multiprocessing
import os
import pickle
import shutil
import subprocess
import sys
import threading
import time
import tracemalloc
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from scipy import integrate, optimize

from corrspectra import (
    DegenerateWindowError,
    EigenComputationError,
    NullConfig,
    analyze_window,
    cached_ensemble_stats,
    mp_bounds,
    mp_density,
    null_ensemble_stats,
    null_window,
    sim_rng,
)
from corrspectra import WorkerProcessError, analytics, blocks, nulls

from helpers import nearest_rank_percentile, no_ensemble
from synthetic import (
    FactorSpec,
    shuffle_panel,
    simulate_gaussian_panel,
    synthetic_factor_panel,
)


class TestShufflePanel:
    def test_rows_are_permutations(self):
        panel = simulate_gaussian_panel(10, 50, seed=3)
        shuffled = shuffle_panel(panel, seed=4)
        for i in range(10):
            assert np.array_equal(
                np.sort(shuffled.values[i]), np.sort(panel.values[i])
            )

    def test_deterministic(self):
        panel = simulate_gaussian_panel(6, 30, seed=3)
        a = shuffle_panel(panel, seed=11)
        b = shuffle_panel(panel, seed=11)
        assert np.array_equal(a.values, b.values)

    def test_all_rows_moved(self):
        # with 98 rows of 574 values the chance any row keeps its order is
        # astronomically small; a fixed seed makes the check exact
        panel = simulate_gaussian_panel(98, 574, seed=8)
        shuffled = shuffle_panel(panel, seed=9)
        for i in range(98):
            assert not np.array_equal(shuffled.values[i], panel.values[i])

    def test_rows_shuffled_independently(self):
        panel = simulate_gaussian_panel(4, 200, seed=5)
        panel.values[1] = panel.values[0]
        shuffled = shuffle_panel(panel, seed=6)
        assert not np.array_equal(shuffled.values[0], shuffled.values[1])

    def test_metadata_preserved(self):
        panel = simulate_gaussian_panel(5, 20, seed=1)
        shuffled = shuffle_panel(panel, seed=2)
        assert shuffled.tickers == panel.tickers
        assert shuffled.dates == panel.dates


class TestSimulateGaussianPanel:
    def test_shape_and_tickers(self):
        panel = simulate_gaussian_panel(12, 40, seed=0)
        assert panel.values.shape == (12, 40)
        assert panel.tickers[0] == "SIM001"
        assert panel.tickers[-1] == "SIM012"

    def test_moments_on_large_sample(self):
        panel = simulate_gaussian_panel(1000, 1000, seed=123)
        assert abs(panel.values.mean()) <= 0.01
        assert abs(panel.values.var() - 1.0) <= 0.01

    def test_seeds_differ(self):
        a = simulate_gaussian_panel(5, 20, seed=1)
        b = simulate_gaussian_panel(5, 20, seed=2)
        assert not np.array_equal(a.values, b.values)

    def test_seed_reproducible(self):
        a = simulate_gaussian_panel(5, 20, seed=7)
        b = simulate_gaussian_panel(5, 20, seed=7)
        assert np.array_equal(a.values, b.values)


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

    @pytest.mark.parametrize("name, bound", [
        ("RECONSTRUCTION_TOL", -1.0),
        ("ORTHOGONALITY_TOL", -1.0),
        ("MIN_EIGENVALUE", 1.0),
        ("TRACE_TOL", -1.0),
    ])
    def test_sims_pass_the_eigen_checks(self, monkeypatch, name, bound):
        # each clause of the accuracy contract alone fails every
        # decomposition once its bound is out of reach; the message names
        # the null simulation and all four quantities
        monkeypatch.setattr(analytics, name, bound)
        config = NullConfig(n_assets=6, window_len=15, sims=3, master_seed=5)
        with pytest.raises(EigenComputationError, match=(
                r"^null simulation 0: .*residual \S+, orthogonality error "
                r"\S+, smallest eigenvalue \S+, eigenvalue sum deviates from 6 "
                r"by \S+$")):
            null_ensemble_stats(config, max_rank=2)

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


def _bounds_block(start, stop):
    return start, stop


def _pid_block(start, stop):
    return os.getpid()


def _cpus_block(start, stop):
    time.sleep(0.1)  # long enough that every worker takes a block
    return os.getpid(), frozenset(os.sched_getaffinity(0))


def _blas_threads_block(start, stop):
    return [lib.get_num_threads() for lib in blocks._openblas_libs()]


_BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _blas_environment_block(start, stop):
    return [os.environ.get(name) for name in _BLAS_VARS]


def _blocks_run_by(monkeypatch, method):
    """Make map_blocks run two blocks in this process (method None) or in a
    pool of two workers started by `method`."""
    if method and method not in multiprocessing.get_all_start_methods():
        pytest.skip(f"no {method} start method here")
    monkeypatch.setattr(blocks, "_pool_start_method", lambda: method)
    monkeypatch.setattr(blocks, "available_cpus",
                        lambda: 1 if method is None else 2)


_BLOCK_RUNNERS = pytest.mark.parametrize(
    "method", [None, "fork", "spawn"], ids=["in-process", "fork", "spawn"])


class TestParallelEnsemble:
    # 600 sims make six blocks, so with two CPUs the blocks run in a pool
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
        monkeypatch.setattr(blocks, "BLOCK", 7)
        small_blocks = self._stats_on_cpus(monkeypatch, self.CONFIG, 1)
        assert self._arrays(default) == self._arrays(small_blocks)

    def test_items_are_cut_into_blocks_of_block_items(self, monkeypatch):
        monkeypatch.setattr(blocks, "available_cpus", lambda: 1)
        with blocks.map_blocks(_bounds_block, (), 250) as results:
            assert list(results) == [(0, 100), (100, 200), (200, 250)]

    def test_only_more_than_one_block_runs_in_a_pool(self, monkeypatch):
        monkeypatch.setattr(blocks, "available_cpus", lambda: 2)
        with blocks.map_blocks(_pid_block, (), 100) as results:
            assert list(results) == [os.getpid()]
        with blocks.map_blocks(_pid_block, (), 101) as results:
            assert os.getpid() not in list(results)

    @pytest.mark.skipif(not hasattr(os, "sched_setaffinity")
                        or blocks.available_cpus() < 2,
                        reason="pinning needs sched_setaffinity and 2 CPUs")
    @pytest.mark.parametrize("workers", [2, 4])
    def test_each_worker_runs_on_its_own_cpu(self, monkeypatch, workers):
        # two workers left free can share one CPU while another idles. More
        # workers than CPUs take the CPUs in turn, which a lost update of
        # their shared count would break. The caller stays unpinned
        cpus = os.sched_getaffinity(0)
        monkeypatch.setattr(blocks, "available_cpus", lambda: workers)
        with blocks.map_blocks(_cpus_block, (),
                               4 * workers * blocks.BLOCK) as results:
            placed = dict(results)
        assert len(placed) >= 2 and os.getpid() not in placed
        assert all(len(cpu) == 1 for cpu in placed.values())
        assert max(Counter(placed.values()).values()) \
            <= -(-workers // len(cpus))  # one per CPU while there are CPUs
        assert os.sched_getaffinity(0) == cpus

    @_BLOCK_RUNNERS
    def test_pool_restores_blas_environment(self, monkeypatch, method):
        # every process that runs a block reads 1, spawned workers at
        # start-up; the caller's values come back, unset ones included.
        # The real ensemble then runs the same way end to end, so its
        # kernel and shared arrays must pickle and import in the workers.
        _blocks_run_by(monkeypatch, method)
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "3")
        monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
        with blocks.map_blocks(_blas_environment_block, (),
                               2 * blocks.BLOCK) as results:
            assert list(results) == [["1"] * 3] * 2
        null_ensemble_stats(self.CONFIG, max_rank=1)
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
            with blocks.map_blocks(_half_second_block, (),
                                   40 * blocks.BLOCK) as results:
                next(results)
                raise RuntimeError("stop")
        assert time.monotonic() - begin < 5

    def test_error_in_worker_propagates_promptly(self, monkeypatch):
        monkeypatch.setattr(blocks, "available_cpus", lambda: 2)
        begin = time.monotonic()
        with pytest.raises(ValueError):
            with blocks.map_blocks(_first_block_fails, (),
                                   40 * blocks.BLOCK) as results:
                list(results)
        assert time.monotonic() - begin < 5

    def test_dead_worker_raises_worker_process_error(self, monkeypatch):
        monkeypatch.setattr(blocks, "available_cpus", lambda: 2)
        with pytest.raises(WorkerProcessError, match="worker process"):
            with blocks.map_blocks(_dead_block, (),
                                   2 * blocks.BLOCK) as results:
                list(results)

    @pytest.mark.parametrize("method", ["fork", "spawn"])
    def test_guard_advice_only_for_spawned_workers(self, monkeypatch, method):
        if method not in multiprocessing.get_all_start_methods():
            pytest.skip(f"no {method} start method here")
        monkeypatch.setattr(blocks, "_pool_start_method", lambda: method)
        monkeypatch.setattr(blocks, "available_cpus", lambda: 2)
        with pytest.raises(WorkerProcessError) as excinfo:
            with blocks.map_blocks(_dead_block, (),
                                   2 * blocks.BLOCK) as results:
                list(results)
        assert ("__main__" in str(excinfo.value)) == (method == "spawn")

    @_BLOCK_RUNNERS
    def test_blocks_run_on_one_blas_thread(self, monkeypatch, method):
        libs = blocks._openblas_libs()
        if not libs:
            pytest.skip("no OpenBLAS thread control found")
        _blocks_run_by(monkeypatch, method)
        before = [lib.get_num_threads() for lib in libs]
        try:
            for lib in libs:  # so that a missing pin shows in this process
                lib.set_num_threads(2)
            caller = [lib.get_num_threads() for lib in libs]
            with blocks.map_blocks(_blas_threads_block, (),
                                   2 * blocks.BLOCK) as results:
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

    def test_blas_pin_is_shared_and_restored(self, monkeypatch):
        # the thread counts and the environment are pinned together, and
        # restored after the outer pin, unset variables included
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "3")
        monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
        monkeypatch.setenv("MKL_NUM_THREADS", "2")
        libs = blocks._openblas_libs()

        def state():
            return ([lib.get_num_threads() for lib in libs],
                    [os.environ.get(name) for name in _BLAS_VARS])

        before = state()
        pinned = ([1] * len(libs), ["1"] * 3)
        with blocks._one_blas_thread:
            with blocks._one_blas_thread:
                assert state() == pinned
            assert state() == pinned
        assert state() == before
        assert before[1] == ["3", None, "2"]

    def test_concurrent_pins_share_one_pin(self, monkeypatch):
        # threads entering and leaving at once each find the pin set, and
        # the last to leave restores the caller's values
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "3")
        monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
        libs = blocks._openblas_libs()
        before = [lib.get_num_threads() for lib in libs]
        seen = []

        def pin_often():
            for _ in range(100):
                with blocks._one_blas_thread:
                    seen.append(([lib.get_num_threads() for lib in libs],
                                 [os.environ.get(name) for name in _BLAS_VARS]))

        threads = [threading.Thread(target=pin_often) for _ in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert seen == [([1] * len(libs), ["1"] * 3)] * 800
        assert [lib.get_num_threads() for lib in libs] == before
        assert os.environ["OPENBLAS_NUM_THREADS"] == "3"
        assert "OMP_NUM_THREADS" not in os.environ

    def test_worker_errors_survive_pickling(self):
        # pool workers raise these, and the CLI maps them to exit code 3
        for error in (EigenComputationError("window 7: bad"),
                      DegenerateWindowError("asset 'AAA' is flat in window 3")):
            copy = pickle.loads(pickle.dumps(error))
            assert type(copy) is type(error)
            assert copy.args == error.args == (str(error),)


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

    def test_bulk_follows_the_mp_law(self):
        # bulk ranks 6..N-5 of the mean null spectrum sit at the MP law's
        # classical locations: rank k's gamma_k has mass (k - 1/2)/N above it.
        # The bounds add two parts. Monte Carlo: a bulk rank's eigenvalue sd
        # is at most ~0.057 (rank 6), a standard error of ~0.0013 at 2000
        # sims, so ~0.005 over 88 dependent ranks. Finite N: the locations
        # are the N -> infinity limit, and the mean sorted eigenvalue at
        # N = 98 is ~0.003 from them in the bulk and more near the edges
        # (rank 6 carries the largest gap), hence ~0.010 for the maximum
        n_assets, window_len = 98, 100
        stats = null_ensemble_stats(NullConfig(
            n_assets=n_assets, window_len=window_len, sims=2000,
            master_seed=23))
        q = window_len / n_assets
        gamma_minus, gamma_plus = mp_bounds(q)
        ranks = np.arange(6, n_assets - 4)

        def excess_mass(gamma, k):
            above = integrate.quad(mp_density, gamma, gamma_plus, args=(q,))[0]
            return above - (k - 0.5) / n_assets

        locations = np.array([
            optimize.brentq(excess_mass, gamma_minus, gamma_plus, args=(k,),
                            xtol=1e-12)
            for k in ranks])
        gaps = np.abs(stats.scree_mean[ranks - 1] - locations)
        assert gaps.max() <= 0.015
        assert np.median(gaps) <= 0.005


def _pooled_abs_r(config, max_rank, kernel=analyze_window):
    """Every sim's |r| of ranks 1..max_rank pooled per rank, as a
    (max_rank, sims * N) array: the sample the ensemble's p99 summarizes."""
    rows = [kernel(null_window(config, s), max_rank,
                   f"null simulation {s}")[4]
            for s in range(config.sims)]
    return np.concatenate(rows).T


def _coarse_analyze_window(z_hat, max_rank, label):
    """analyze_window with |r| rounded to 0.1, so its values tie."""
    *head, abs_r = analyze_window(z_hat, max_rank, label)
    return (*head, np.round(abs_r, 1))


class TestAbsCorrPercentiles:
    @pytest.mark.parametrize("max_rank", [-1, 7])
    def test_max_rank_outside_the_assets_rejected(self, monkeypatch,
                                                  max_rank):
        # analyze_window would reject the rank too, but only once sims ran
        monkeypatch.setattr(nulls, "map_blocks",
                            lambda *args: pytest.fail("the ensemble ran"))
        config = NullConfig(n_assets=6, window_len=12, sims=5)
        with pytest.raises(ValueError, match=(
                rf"^max_rank must be in \[0, 6\], got {max_rank}$")):
            null_ensemble_stats(config, max_rank)

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
        monkeypatch.setattr(blocks, "BLOCK", block)
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
        monkeypatch.setattr(blocks, "BLOCK", 3)
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
        assert np.isfinite(stats.abs_corr_p99).sum() == 5

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
        corr = np.corrcoef(panel.values)
        off = corr[np.triu_indices(12, k=1)]
        assert off.min() >= 0.999

    def test_cross_block_uncorrelated(self):
        spec = FactorSpec(block_sizes=(15, 15), loadings=(0.9, 0.9), noise_std=0.4)
        panel = synthetic_factor_panel(spec, 2000, seed=10)
        corr = np.corrcoef(panel.values)
        cross = corr[:15, 15:]
        assert abs(cross.mean()) <= 0.06

    def test_within_block_correlation_matches_theory(self):
        # cov = 0.9^2, var = 0.9^2 + 0.4^2 -> corr = 0.81 / 0.97
        spec = FactorSpec(
            block_sizes=(30, 30, 30), loadings=(0.9, 0.9, 0.9), noise_std=0.4
        )
        panel = synthetic_factor_panel(spec, 2000, seed=77)
        corr = np.corrcoef(panel.values)
        expected = 0.81 / 0.97
        for b in range(3):
            block = corr[b * 30 : (b + 1) * 30, b * 30 : (b + 1) * 30]
            off = block[np.triu_indices(30, k=1)]
            assert abs(off.mean() - expected) <= 0.03

    def test_block_sizes_must_sum(self):
        spec = FactorSpec(block_sizes=(3, 4), loadings=(0.5, 0.5), noise_std=0.2)
        panel = synthetic_factor_panel(spec, 50, seed=0)
        assert panel.values.shape == (7, 50)

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
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            ".baselines.json.lock", "baselines.json"]

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

    def test_other_schema_version_is_a_silent_miss(self, tmp_path, capsys):
        # a cache of another schema version holds values computed another
        # way: its entries are dropped without a warning, and the file is
        # rewritten at this version
        cache = tmp_path / "baselines.json"
        key = "N=6,T=12,sims=25,kind=gaussian,seed=4"
        config = NullConfig(n_assets=6, window_len=12, sims=25, master_seed=4)
        fresh = nulls.stats_payload(null_ensemble_stats(config, max_rank=2))
        stale = {field: [0.5] * 6 for field in fresh}  # a hit at version 2
        cache.write_text(json.dumps({"schema_version": "1", "entries": {
            key: stale, "N=7": stale}}))
        stats = cached_ensemble_stats(config, max_rank=2, cache_path=cache)
        assert capsys.readouterr().err == ""
        assert nulls.stats_payload(stats) == fresh
        assert json.loads(cache.read_text()) == {
            "schema_version": "2", "entries": {key: fresh}}

    # a null in abs_corr_p99 marks a rank beyond max_rank; in these arrays
    # it is corruption, and NaN scree means would zero every count. A
    # string, a boolean or an int beyond float range is no float to reuse
    @pytest.mark.parametrize("field, value", [
        ("pr_mean", None), ("pr_std", None), ("scree_mean", None),
        ("pr_mean", "38.2"), ("scree_mean", True), ("pr_std", 10**400)],
        ids=["pr_mean", "pr_std", "scree_mean",
             "pr_mean-string", "scree_mean-true", "pr_std-huge_int"])
    def test_null_baseline_value_is_a_miss(self, tmp_path, capsys, field,
                                           value):
        cache = tmp_path / "baselines.json"
        config = NullConfig(n_assets=6, window_len=20, sims=30, master_seed=4)
        fresh = cached_ensemble_stats(config, max_rank=2, cache_path=cache)
        loaded = json.loads(cache.read_text())
        [entry] = loaded["entries"].values()
        entry[field][3] = value
        cache.write_text(json.dumps(loaded))
        stats = cached_ensemble_stats(config, max_rank=2, cache_path=cache)
        warning = capsys.readouterr().err
        assert warning.count("\n") == 1 and field in warning
        assert np.array_equal(getattr(stats, field), getattr(fresh, field))
        [entry] = json.loads(cache.read_text())["entries"].values()
        assert entry == nulls.stats_payload(fresh)

    def test_entry_keyed_with_the_gaussian_kind_hits(self, tmp_path,
                                                     monkeypatch):
        # caches written while a null kind could be chosen keep hitting
        stored = {"pr_mean": [2.5, 2.0, 1.5, 1.25, 1.125, 1.0],
                  "pr_std": [0.5, 0.25, 0.125, 0.0625, 0.03125, 0.0],
                  "scree_mean": [2.0, 1.5, 1.0, 0.75, 0.5, 0.25],
                  "abs_corr_p99": [0.875, 0.75, None, None, None, None]}
        cache = tmp_path / "baselines.json"
        cache.write_text(json.dumps({"schema_version": "2", "entries": {
            "N=6,T=12,sims=25,kind=gaussian,seed=4": stored}}))
        before = cache.read_bytes()
        monkeypatch.setattr(nulls, "null_ensemble_stats", no_ensemble)
        config = NullConfig(n_assets=6, window_len=12, sims=25, master_seed=4)
        stats = cached_ensemble_stats(config, max_rank=2, cache_path=cache)
        assert nulls.stats_payload(stats) == stored
        assert cache.read_bytes() == before

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
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            ".baselines.json.lock", "baselines.json"]

    def test_distinct_keys_coexist(self, tmp_path):
        cache = tmp_path / "baselines.json"
        a = NullConfig(n_assets=5, window_len=12, sims=10, master_seed=4)
        b = NullConfig(n_assets=5, window_len=12, sims=10, master_seed=5)
        stats_a = cached_ensemble_stats(a, max_rank=1, cache_path=cache)
        stats_b = cached_ensemble_stats(b, max_rank=1, cache_path=cache)
        assert not np.array_equal(stats_a.scree_mean, stats_b.scree_mean)
        again_a = cached_ensemble_stats(a, max_rank=1, cache_path=cache)
        assert np.array_equal(stats_a.scree_mean, again_a.scree_mean)

    def test_run_inside_another_keeps_both_entries(self, tmp_path,
                                                   monkeypatch):
        # run b starts and ends while run a computes; a must merge its
        # entry into the file as b left it, not write back what it read
        cache = tmp_path / "baselines.json"
        a = NullConfig(n_assets=5, window_len=12, sims=10, master_seed=4)
        b = NullConfig(n_assets=5, window_len=12, sims=10, master_seed=5)
        compute = nulls.null_ensemble_stats

        def interleaved(config, max_rank=0):
            if config == a:
                cached_ensemble_stats(b, max_rank, cache_path=cache)
            return compute(config, max_rank)

        monkeypatch.setattr(nulls, "null_ensemble_stats", interleaved)
        cached_ensemble_stats(a, max_rank=1, cache_path=cache)
        entries = json.loads(cache.read_text())["entries"]
        assert sorted(entries) == sorted(map(nulls._cache_key, (a, b)))
        for config in (a, b):
            assert entries[nulls._cache_key(config)] == nulls.stats_payload(
                compute(config, max_rank=1))
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            ".baselines.json.lock", "baselines.json"]

    @pytest.mark.skipif(os.name != "posix", reason="the lock is POSIX flock")
    def test_write_waits_for_the_cache_lock(self, tmp_path):
        import fcntl

        cache = tmp_path / "baselines.json"
        config = NullConfig(n_assets=5, window_len=12, sims=10, master_seed=4)
        with open(tmp_path / ".baselines.json.lock", "a") as lock:
            fcntl.flock(lock, fcntl.LOCK_EX)
            writer = threading.Thread(target=cached_ensemble_stats,
                                      args=(config, 1, cache))
            writer.start()
            writer.join(timeout=0.5)
            assert writer.is_alive() and not cache.exists()
        writer.join(timeout=60)
        assert not writer.is_alive()
        assert list(json.loads(cache.read_text())["entries"]) == [
            nulls._cache_key(config)]

    def test_deeper_max_rank_recomputes(self, tmp_path):
        cache = tmp_path / "baselines.json"
        config = NullConfig(n_assets=6, window_len=12, sims=15, master_seed=4)
        shallow = cached_ensemble_stats(config, max_rank=1, cache_path=cache)
        assert np.isfinite(shallow.abs_corr_p99).sum() == 1
        deep = cached_ensemble_stats(config, max_rank=4, cache_path=cache)
        assert np.isfinite(deep.abs_corr_p99).sum() == 4
        assert deep.abs_corr_p99[0] == shallow.abs_corr_p99[0]

    @pytest.mark.parametrize("name", ["cache_dir", "."])
    def test_directory_path_raises_before_the_ensemble(self, tmp_path,
                                                       monkeypatch, name):
        # a directory can be neither read as a cache nor replaced by one
        monkeypatch.setattr(nulls, "null_ensemble_stats", no_ensemble)
        monkeypatch.chdir(tmp_path)
        (tmp_path / "cache_dir").mkdir()
        config = NullConfig(n_assets=5, window_len=12, sims=10, master_seed=4)
        with pytest.raises(IsADirectoryError, match="is a directory"):
            cached_ensemble_stats(config, 1, Path(name))
        assert [p.name for p in tmp_path.iterdir()] == ["cache_dir"]

    def test_unwritable_directory_fails_a_miss_before_the_ensemble(
            self, tmp_path, monkeypatch):
        # os.access stands in for the directory's mode: root passes every
        # mode check. A hit writes nothing and still reads the entry
        cache = tmp_path / "baselines.json"
        config = NullConfig(n_assets=5, window_len=12, sims=10, master_seed=4)
        filled = cached_ensemble_stats(config, 1, cache)
        before = cache.read_bytes()
        access = os.access

        monkeypatch.setattr(os, "access", lambda path, mode, **kw: (
            Path(path) != tmp_path and access(path, mode, **kw)))
        monkeypatch.setattr(nulls, "null_ensemble_stats", no_ensemble)
        hit = cached_ensemble_stats(config, 1, cache)
        assert np.array_equal(hit.scree_mean, filled.scree_mean)
        other = NullConfig(n_assets=5, window_len=12, sims=10, master_seed=5)
        with pytest.raises(PermissionError, match="cannot write in"):
            cached_ensemble_stats(other, 1, cache)
        assert cache.read_bytes() == before


@pytest.mark.skipif(
    sys.platform != "linux" or shutil.which("cc") is None,
    reason="builds a shared library with cc and loads it on Linux")
def test_openblas_with_64_bit_integers_is_found(tmp_path):
    # numpy 1's wheels bundle an OpenBLAS whose thread controls end in
    # "64_"; the stub exports only those. Its file name holds no
    # "openblas", so _openblas_libs never finds it once loaded
    source = tmp_path / "stub.c"
    source.write_text(
        "static int threads = 4;\n"
        "int openblas_get_num_threads64_(void) { return threads; }\n"
        "void openblas_set_num_threads64_(int n) { threads = n; }\n"
        "int openblas_get_parallel64_(void) { return 1; }\n")
    library = tmp_path / "libblasstub.so"
    subprocess.run(["cc", "-shared", "-fPIC", "-o", str(library),
                    str(source)], check=True, capture_output=True, timeout=60)
    lib = blocks._openblas_at(str(library))
    assert lib is not None and lib.pthreads
    assert lib.get_num_threads() == 4
    lib.set_num_threads(1)
    assert lib.get_num_threads() == 1
