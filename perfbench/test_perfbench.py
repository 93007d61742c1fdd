"""Tests of the benchmark's own checks and span arithmetic.

Run from the repository root: python3 -m pytest perfbench
"""

import json
import shutil
import sys
import time
import types

import pytest

import run
from checks import check_outputs
from spans import Tracer, summarize


@pytest.fixture(scope="module")
def small_run(tmp_path_factory):
    """A checked 98-asset, 10-window CLI run with a 20-sim null."""
    workload = run.Workload("small", run.WINDOW_LEN + 10, 20, prefilled=False)
    bench = run.Bench(workload, 7, tmp_path_factory.mktemp("bench") / "w",
                      time.perf_counter() + 120)
    bench.setup(run.load_helpers())
    result = bench.run()
    assert result["ok"], bench.failures
    return bench


def check_perturbed(small_run, tmp_path, name, line, column, delta):
    """Failures of the output check on a copy of the reference run's reports
    with one value of `name` (line `line`, column `column`) moved by `delta`."""
    out = tmp_path / "out"
    shutil.copytree(small_run.work / "out", out)
    path = out / name
    lines = path.read_text(encoding="utf-8").splitlines()
    index = lines[0].split(",").index(column)
    fields = lines[line].split(",")
    fields[index] = format(float(fields[index]) + delta, ".15g")
    lines[line] = ",".join(fields)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return check_outputs(out, small_run.returns, run.WINDOW_LEN, run.STEP,
                         run.MAX_RANK)


def test_check_passes_the_unchanged_reports(small_run, tmp_path):
    assert check_perturbed(small_run, tmp_path, "windows.csv", 1, "corr_mean", 0.0) == []


def test_check_rejects_one_eigenvalue_perturbed_by_1e6(small_run, tmp_path):
    failures = check_perturbed(small_run, tmp_path, "eigenvalues.csv", 5,
                               "eigenvalue", 1e-6)
    assert any("sum to N" in f for f in failures)
    assert any(f.startswith("window 0: plain-numpy oracle mismatch in eigenvalues by")
               for f in failures)


@pytest.mark.parametrize("name, line, column, oracle", [
    ("windows.csv", 1, "corr_kurtosis", "moments"),
    ("windows.csv", 1, "corr_std", "moments"),
    ("windows.csv", 1, "variance_fraction_2", "variance_fraction"),
    ("windows.csv", 10, "pr_3", "pr"),  # the last of the ten windows
    ("asset_pc_corr.csv", 7, "abs_r", "abs_r"),
    ("asset_pc_corr.csv", 7, "abs_r_adjusted", "abs_r_adjusted"),
])
def test_check_rejects_one_value_perturbed_by_1e6(small_run, tmp_path, name, line,
                                                   column, oracle):
    failures = check_perturbed(small_run, tmp_path, name, line, column, -1e-6)
    assert any(f"oracle mismatch in {oracle} by" in f for f in failures), failures


def test_check_rejects_a_count_that_ignores_the_eigenvalues(small_run, tmp_path):
    failures = check_perturbed(small_run, tmp_path, "windows.csv", 4,
                               "kaiser_count", 1)
    assert any(f.startswith("window 3: kaiser_count") for f in failures), failures


def test_layer_metrics_match_benchmark_json(small_run):
    untraced, traced = small_run.run(), small_run.run(trace=True)
    assert untraced["ok"] and traced["ok"]
    metrics = run.layer_metrics(untraced, traced, small_run)
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == [
        (name, run.unit_of(name)) for name in metrics]
    assert metrics["trace.missing_n"] == 0
    assert metrics["nulls.sims_n"] == 20 and metrics["correlation.calls_n"] == 10


def test_repeated_run_must_reproduce_reference_bytes(small_run):
    reference = dict(small_run.reference)
    small_run.reference["windows.csv"] = "not a digest"
    try:
        assert not small_run.run()["ok"]
        assert "windows.csv" in small_run.failures[-1]
    finally:
        small_run.reference = reference


def test_self_time_subtracts_union_of_children():
    spans = [
        [0, None, "root", 0.0, 10.0],
        [1, 0, "child", 1.0, 4.0],
        [2, 0, "child", 3.0, 6.0],  # overlaps its sibling: union is [1, 6]
        [3, 1, "leaf", 2.0, 3.0],
        [4, 0, "late", 9.0, 12.0],  # only [9, 10] lies inside the parent
    ]
    s = summarize(spans)
    assert s["root"] == {"total_s": 10.0, "self_s": 4.0, "calls": 1}
    assert s["child"] == {"total_s": 6.0, "self_s": 5.0, "calls": 2}
    assert s["leaf"] == {"total_s": 1.0, "self_s": 1.0, "calls": 1}
    assert s["late"] == {"total_s": 3.0, "self_s": 3.0, "calls": 1}


def test_tracer_reports_renamed_targets_as_missing(monkeypatch):
    module = types.ModuleType("fake_layer")
    module.kept = lambda x: x + 1
    monkeypatch.setitem(sys.modules, "fake_layer", module)
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))
    tracer.install((("fake_layer", "kept", "layer.kept"),
                    ("fake_layer", "renamed_away", "layer.gone"),
                    ("no_such_module_here", "f", "layer.none")))

    assert module.kept(1) == 2
    assert tracer.missing == ["fake_layer.renamed_away", "no_such_module_here.f"]
    assert [s[2] for s in tracer.spans] == ["layer.kept"]
    assert summarize(tracer.spans)["layer.kept"]["total_s"] == 1.0
