"""Acceptance suite.

Each test exercises one acceptance criterion end to end at its stated
tolerance and prints a single PASS/FAIL line (run with ``pytest -s`` to see
the lines for passing criteria too). All Monte Carlo inputs use pinned
seeds, so every number below is reproducible bit for bit.
"""

import datetime as dt

import numpy as np
from scipy import integrate

from corrspectra import (
    FactorSpec,
    NullConfig,
    WindowView,
    correlation_matrix,
    eigendecompose,
    eigenvector_zscores,
    max_correlation_rank,
    mp_bounds,
    mp_density,
    null_ensemble_stats,
    null_window,
    participation,
    roll_windows,
    scree_significant_count,
    self_correlation_deltas,
    asset_component_correlations,
    shuffle_panel,
    simulate_gaussian_panel,
    synthetic_factor_panel,
)
from corrspectra.cli import main
from corrspectra.correlation import CorrelationMatrix

from helpers import (
    pearson_pop,
    random_correlation_window,
    random_walk_prices,
    weekly_dates,
    write_meta_csv,
    write_prices_csv,
)

DATE = dt.date(2009, 11, 27)


def check(label, ok, detail):
    line = f"[{label}] {'PASS' if ok else 'FAIL'} {detail}"
    print(line)
    assert ok, line


def test_criterion_01_mp_upper_bound():
    bounds = mp_bounds(1.02, 1.0)
    ok = abs(bounds.gamma_plus - 3.96) <= 0.01
    check("criterion 1", ok,
          f"gamma_plus(Q=1.02) = {bounds.gamma_plus:.6f}, target 3.96 +- 0.01")


def test_criterion_02_pr_baselines():
    stats = null_ensemble_stats(
        NullConfig(n_assets=98, window_len=100, sims=10000, master_seed=7,
                   kind="gaussian")
    )
    mean_targets = (38.3, 37.7, 37.3)
    std_targets = (4.0, 4.1, 4.2)
    mean_ok = all(
        abs(stats.pr_mean[k] - mean_targets[k]) <= 0.3 for k in range(3)
    )
    std_ok = all(
        abs(stats.pr_std[k] - std_targets[k]) <= 0.4 for k in range(3)
    )
    detail = (
        f"pr_mean[1:3] = {np.round(stats.pr_mean[:3], 3)} vs {mean_targets} +- 0.3; "
        f"pr_std[1:3] = {np.round(stats.pr_std[:3], 3)} vs {std_targets} +- 0.4"
    )
    check("criterion 2", mean_ok and std_ok, detail)


def test_criterion_03_abs_corr_percentiles():
    stats = null_ensemble_stats(
        NullConfig(n_assets=98, window_len=100, sims=2000, master_seed=7,
                   kind="gaussian"),
        max_rank=5,
    )
    head = stats.abs_corr_p99[:5]
    ok = (
        abs(head[0] - 0.47) <= 0.02
        and abs(head[4] - 0.43) <= 0.02
        and np.all(np.diff(head) <= 1e-12)
    )
    check("criterion 3", ok,
          f"p99 ranks 1-5 = {np.round(head, 4)}, targets 0.47/0.43 +- 0.02, nonincreasing")


def test_criterion_04_mp_density_fit():
    config = NullConfig(n_assets=98, window_len=100, sims=200,
                        master_seed=11, kind="gaussian")
    eigenvalues = []
    for s in range(config.sims):
        z_hat = null_window(config, s)
        d = eigendecompose(correlation_matrix(WindowView(0, DATE, z_hat)))
        eigenvalues.append(d.eigenvalues)
    pooled = np.concatenate(eigenvalues)

    lo, hi, bins = 0.5, 3.96, 30
    counts, edges = np.histogram(pooled, bins=bins, range=(lo, hi))
    empirical = counts / counts.sum()
    bounds = mp_bounds(1.0, 1.0)
    model = np.array([
        integrate.quad(mp_density, edges[b], edges[b + 1], args=(bounds,),
                       limit=200)[0]
        for b in range(bins)
    ])
    model = model / model.sum()
    l1 = float(np.abs(empirical - model).sum())
    leak = float((pooled > 4.06).mean())
    ok = l1 <= 0.15 and leak <= 0.01
    check("criterion 4", ok,
          f"L1(histogram, limit density) = {l1:.4f} <= 0.15; "
          f"fraction above 4.06 = {leak:.5f} <= 0.01")


def test_criterion_05_null_indistinguishability():
    spec = FactorSpec(block_sizes=(33, 33, 32), loadings=(0.9, 0.9, 0.9),
                      noise_std=0.4)
    structured = synthetic_factor_panel(spec, 574, seed=101)
    shuffled = shuffle_panel(structured, seed=102)
    gaussian = simulate_gaussian_panel(98, 574, seed=103)

    def pooled_coefficients(panel):
        out = []
        for window in roll_windows(panel, 100, 1):
            values = correlation_matrix(window).values
            out.append(values[np.triu_indices(98, k=1)])
        return np.concatenate(out)

    coeff_shuffled = pooled_coefficients(shuffled)
    coeff_gaussian = pooled_coefficients(gaussian)
    bins = 20
    hist_s, _ = np.histogram(coeff_shuffled, bins=bins, range=(-1.0, 1.0))
    hist_g, _ = np.histogram(coeff_gaussian, bins=bins, range=(-1.0, 1.0))
    l1 = float(np.abs(hist_s / hist_s.sum() - hist_g / hist_g.sum()).sum())
    check("criterion 5", l1 <= 0.05,
          f"L1(shuffled, gaussian coefficient histograms) = {l1:.4f} <= 0.05")


def test_criterion_06_asset_component_identity():
    worst = 0.0
    for s in range(100):
        rng = np.random.default_rng(5000 + s)
        n_assets = 3 + s % 18
        n_steps = 25 + s % 10
        window = WindowView(0, DATE,
                            random_correlation_window(rng, n_assets, n_steps))
        d = eigendecompose(correlation_matrix(window))
        corr = asset_component_correlations(d)
        components = d.eigenvectors @ window.z_hat
        for i in range(n_assets):
            for k in range(n_assets):
                direct = abs(pearson_pop(window.z_hat[i], components[k]))
                worst = max(worst, abs(corr.abs_r[i, k] - direct))
    check("criterion 6", worst <= 1e-8,
          f"max |scaled-coefficient - direct Pearson| = {worst:.3e} <= 1e-8 "
          "over 100 windows")


def test_criterion_07_algebraic_conservation():
    worst_trace = 0.0
    worst_energy = 0.0
    configs = [
        NullConfig(n_assets=98, window_len=100, sims=25, master_seed=19),
        NullConfig(n_assets=30, window_len=35, sims=25, master_seed=20),
    ]
    windows = [null_window(config, s)
               for config in configs for s in range(config.sims)]
    spec = FactorSpec(block_sizes=(30, 30, 30), loadings=(0.9, 0.9, 0.9),
                      noise_std=0.4)
    for s in range(10):
        panel = synthetic_factor_panel(spec, 100, seed=300 + s)
        windows.append(roll_windows(panel, 100)[0].z_hat)
    for z_hat in windows:
        n = z_hat.shape[0]
        d = eigendecompose(correlation_matrix(WindowView(0, DATE, z_hat)))
        worst_trace = max(worst_trace, abs(float(d.eigenvalues.sum()) - n))
        energy = (d.eigenvalues[:, None] * d.eigenvectors**2).sum(axis=0)
        worst_energy = max(worst_energy, float(np.abs(energy - 1.0).max()))
    ok = worst_trace <= 1e-8 and worst_energy <= 1e-8
    check("criterion 7", ok,
          f"max |sum(beta) - N| = {worst_trace:.3e}; "
          f"max per-asset |sum(beta * omega^2) - 1| = {worst_energy:.3e}; both <= 1e-8")


def test_criterion_08_participation_limits():
    n = 98
    uniform = eigendecompose(CorrelationMatrix(0, DATE, np.ones((n, n))))
    pr_uniform = participation(uniform)[0]
    localized = eigendecompose(CorrelationMatrix(0, DATE, np.eye(n)))
    pr_localized = participation(localized)
    ok = abs(pr_uniform - n) <= 1e-10 and np.allclose(pr_localized, 1.0,
                                                      atol=1e-12)
    check("criterion 8", ok,
          f"uniform eigenvector pr = {float(pr_uniform):.13f} "
          f"(target {n} +- 1e-10); one-hot eigenvectors pr = 1 +- 1e-12")


def _planted_panel_window(seed):
    spec = FactorSpec(block_sizes=(30, 30, 30), loadings=(0.9, 0.9, 0.9),
                      noise_std=0.4)
    panel = synthetic_factor_panel(spec, 100, seed=seed)
    return roll_windows(panel, 100)[0]


def _planted_baseline():
    return null_ensemble_stats(
        NullConfig(n_assets=90, window_len=100, sims=400, master_seed=13),
        max_rank=0,
    )


def test_criterion_09a_planted_scree_recovery():
    baseline = _planted_baseline()
    hits = 0
    for seed in range(100):
        window = _planted_panel_window(seed)
        d = eigendecompose(correlation_matrix(window))
        hits += scree_significant_count(d.eigenvalues, baseline) == 3
    check("criterion 9a", hits >= 90,
          f"scree count == 3 in {hits}/100 seeds (need >= 90)")


def test_criterion_09b_planted_block_assignment():
    matched = 0
    total = 0
    for seed in range(100):
        window = _planted_panel_window(seed)
        d = eigendecompose(correlation_matrix(window))
        ranks = max_correlation_rank(asset_component_correlations(d))
        for b in range(3):
            members = ranks[b * 30 : (b + 1) * 30]
            mode = np.bincount(members).argmax()
            matched += int((members == mode).sum())
            total += 30
    fraction = matched / total
    check("criterion 9b", fraction >= 0.95,
          f"assets matching their block's component: {fraction:.4f} (need >= 0.95)")


def _planted_delta_medians(seed):
    window = _planted_panel_window(seed)
    d = eigendecompose(correlation_matrix(window))
    corr = asset_component_correlations(d)
    deltas = self_correlation_deltas(corr, max_rank=5)
    return np.array([np.median(np.abs(sample)) for sample in deltas])


def test_criterion_10a_adjusted_rank_one_close():
    medians = _planted_delta_medians(seed=0)
    check("criterion 10a", medians[0] <= 0.05,
          f"rank-1 median |abs_r - abs_r_adjusted| = {medians[0]:.4f} <= 0.05")


def test_criterion_10b_adjusted_medians_nondecreasing():
    medians = _planted_delta_medians(seed=0)
    ok = bool(np.all(np.diff(medians) >= 0.0))
    check("criterion 10b", ok,
          f"medians ranks 1-5 = {np.round(medians, 4)} expected nondecreasing")


def test_criterion_11_eigenvector_goe_zscores():
    config = NullConfig(n_assets=98, window_len=100, sims=200,
                        master_seed=23, kind="gaussian")
    sign_rng = np.random.default_rng(24)
    total = 0.0
    total_sq = 0.0
    count = 0
    for s in range(config.sims):
        z_hat = null_window(config, s)
        d = eigendecompose(correlation_matrix(WindowView(0, DATE, z_hat)))
        # eigenvector signs are arbitrary; the deterministic output
        # convention must not bias the ensemble, so each vector enters
        # with a random orientation
        signs = sign_rng.choice((-1.0, 1.0), size=98)
        for rank in range(1, 99):
            scores = signs[rank - 1] * eigenvector_zscores(d, rank)
            total += scores.sum()
            total_sq += (scores**2).sum()
            count += scores.size
    mean = total / count
    var = total_sq / count - mean**2
    ok = abs(mean) <= 0.02 and abs(var - 1.0) <= 0.05
    check("criterion 11", ok,
          f"pooled z-scores: mean = {mean:.5f} (|.| <= 0.02), "
          f"variance = {var:.5f} (1 +- 0.05)")


def _toy_cli_inputs(tmp_path, n_dates=40):
    rng = np.random.default_rng(33)
    tickers = ["AAA", "BBB", "CCC", "DDD"]
    prices = random_walk_prices(rng, 4, n_dates)
    prices_path = tmp_path / "prices.csv"
    meta_path = tmp_path / "meta.csv"
    write_prices_csv(prices_path, weekly_dates(n_dates), prices, tickers)
    write_meta_csv(meta_path, tickers,
                   ["equities", "gov_bonds", "metals", "fuels"])
    return prices_path, meta_path


def test_criterion_12_cli_determinism(tmp_path):
    prices_path, meta_path = _toy_cli_inputs(tmp_path)
    argv = [
        "--prices", str(prices_path),
        "--meta", str(meta_path),
        "--out", str(tmp_path / "out"),
        "--window", "12",
        "--sims", "10",
        "--seed", "9",
        "--max-rank", "3",
    ]
    outputs = []
    for _ in range(2):
        assert main(argv) == 0
        outputs.append({
            path.name: path.read_bytes()
            for path in sorted((tmp_path / "out").iterdir())
        })
    ok = outputs[0] == outputs[1] and len(outputs[0]) == 5
    check("criterion 12", ok,
          f"two identical CLI runs -> byte-identical files {sorted(outputs[0])}")


def test_criterion_13_window_count(tmp_path):
    rng = np.random.default_rng(44)
    tickers = ["AAA", "BBB", "CCC"]
    prices = random_walk_prices(rng, 3, 575)
    prices_path = tmp_path / "prices.csv"
    meta_path = tmp_path / "meta.csv"
    write_prices_csv(prices_path, weekly_dates(575), prices, tickers)
    write_meta_csv(meta_path, tickers, ["equities", "gov_bonds", "metals"])
    code = main([
        "--prices", str(prices_path),
        "--meta", str(meta_path),
        "--out", str(tmp_path / "out"),
        "--window", "100",
        "--sims", "10",
        "--seed", "3",
        "--max-rank", "3",
    ])
    assert code == 0
    lines = (tmp_path / "out" / "windows.csv").read_text().splitlines()
    n_reports = len(lines) - 1
    check("criterion 13", n_reports == 475,
          f"575 weekly prices, window 100, step 1 -> {n_reports} reports "
          "(need exactly 475)")
