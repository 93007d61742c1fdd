"""corrspectra benchmark: CLI run time, memory and per-layer spans.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each measured run is one ``corrspectra.cli.main(argv)`` call in a fresh
process on inputs generated from ``--seed``. With ``--trace 0`` the
benchmark reports the end-to-end metrics; with ``--trace 1`` it alternates
untraced and traced runs and reports the per-layer metrics. Every run's
reports are checked (see checks.py) and compared byte for byte. The last
line of standard output is the JSON result; the line before it records the
environment and the samples. Workloads and metrics are described in
README.md beside this file.
"""

from __future__ import annotations

import os

# Load comes from this single process and its one child at a time, and
# OpenBLAS always runs one thread, whatever the caller's environment says:
# on 98 x 98 matrices two threads are no faster, their timings spread
# several times wider on a shared 2-core machine, and the thread count can
# change the reports' last digits.
BLAS_THREADS = 1
os.environ["OPENBLAS_NUM_THREADS"] = str(BLAS_THREADS)
NPROC = len(os.sched_getaffinity(0))

import argparse  # noqa: E402
import hashlib  # noqa: E402
import importlib.util  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

from checks import check_outputs, digests, load_returns  # noqa: E402
from spans import summarize  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
META = ROOT / "data" / "asset_classes_example.csv"
HELPERS = ROOT / "tests" / "helpers.py"

WINDOW_LEN = 100
STEP = 1
MAX_RANK = 6
MIN_RUNS = 3  # measured runs per invocation, even past --seconds
DEADLINE_S = 165.0  # whole invocation, set-up included


@dataclass(frozen=True)
class Workload:
    name: str
    n_dates: int
    sims: int
    prefilled: bool  # cache filled in set-up; otherwise each run gets an empty path


WORKLOADS = {
    w.name: w
    for w in (
        Workload("null-ensemble", WINDOW_LEN + 1, 1000, prefilled=False),
        Workload("rolling-cached", 900, 200, prefilled=True),
    )
}


class SetupError(RuntimeError):
    pass


def load_helpers():
    spec = importlib.util.spec_from_file_location("corrspectra_test_helpers", HELPERS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class Bench:
    """One invocation: a work directory, its inputs and the runs made on them."""

    def __init__(self, workload: Workload, seed: int, work: Path, deadline: float):
        self.workload = workload
        self.seed = seed
        self.work = work
        self.deadline = deadline
        self.attempted = 0
        self.failures: list[str] = []
        self.reference: dict[str, str] | None = None
        self.returns = None

    # --- set-up -----------------------------------------------------------
    def setup(self, helpers) -> float:
        """Generate the inputs, fill the cache if any, import corrspectra."""
        wl = self.workload
        t0 = time.perf_counter()
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        tickers = [line.split(",")[0]
                   for line in META.read_text(encoding="utf-8").splitlines()[1:]]
        prices = helpers.random_walk_prices(np.random.default_rng(self.seed),
                                            len(tickers), wl.n_dates)
        dates = helpers.weekly_dates(wl.n_dates)
        helpers.write_prices_csv(self.work / "prices.csv", dates, prices, tickers)
        shutil.copyfile(META, self.work / "meta.csv")
        if wl.prefilled:
            # The cache key is (N, T, sims, kind, seed), so a one-window
            # panel of the same shape fills the entry the full panel uses.
            n = WINDOW_LEN + 1
            helpers.write_prices_csv(self.work / "fill.csv", dates[:n],
                                     prices[:, :n], tickers)
            fill = self.child(self.cli_args("fill.csv", "fill_out"), trace=False)
            if fill.get("exit_code") != 0:
                raise SetupError(f"cache fill failed: {fill.get('stderr')}")
            shutil.rmtree(self.work / "fill_out")
        else:
            try:
                proc = subprocess.run(
                    [sys.executable, "-c", "import corrspectra"], cwd=self.work,
                    env=dict(os.environ, PYTHONPATH=str(SRC)), capture_output=True,
                    text=True, timeout=max(1.0, self.deadline - time.perf_counter()))
            except subprocess.TimeoutExpired:
                raise SetupError("import corrspectra timed out") from None
            if proc.returncode != 0:
                raise SetupError(f"import corrspectra failed: {proc.stderr}")
        return time.perf_counter() - t0

    # --- runs -------------------------------------------------------------
    def cli_args(self, prices="prices.csv", out="out") -> list[str]:
        return ["--prices", prices, "--meta", "meta.csv", "--out", out,
                "--window", str(WINDOW_LEN), "--step", str(STEP),
                "--sims", str(self.workload.sims), "--seed", str(self.seed),
                "--max-rank", str(MAX_RANK), "--baseline-cache", "cache.json"]

    def child(self, cli_args, trace: bool) -> dict:
        """Run child.py once; its result dict, or one with exit_code != 0."""
        result_path = self.work / "child_result.json"
        result_path.unlink(missing_ok=True)
        cmd = [sys.executable, str(HERE / "child.py"), str(SRC), str(result_path),
               "1" if trace else "0", "--", *cli_args]
        try:
            proc = subprocess.run(cmd, cwd=self.work, capture_output=True, text=True,
                                  timeout=max(1.0, self.deadline - time.perf_counter()))
        except subprocess.TimeoutExpired:
            return {"exit_code": -1, "stderr": "timed out"}
        if proc.returncode != 0 or not result_path.exists():
            return {"exit_code": proc.returncode or -1, "stderr": proc.stderr[-2000:]}
        result = json.loads(result_path.read_text(encoding="utf-8"))
        result["stderr"] = proc.stderr[-2000:]
        return result

    def run(self, trace=False, cache_miss=None) -> dict:
        """One checked CLI run on the full inputs.

        The first successful run gets the full output checks and becomes the
        reference; every later run must reproduce its bytes exactly.
        """
        t0 = time.perf_counter()
        result = self._run(trace, cache_miss)
        result["wall_s"] = time.perf_counter() - t0
        return result

    def _run(self, trace, cache_miss) -> dict:
        out = self.work / "out"
        shutil.rmtree(out, ignore_errors=True)
        if cache_miss is None:
            cache_miss = not self.workload.prefilled
        if cache_miss:
            (self.work / "cache.json").unlink(missing_ok=True)
        self.attempted += 1
        result = self.child(self.cli_args(), trace)
        label = f"run {self.attempted}{' (traced)' if trace else ''}"
        if result.get("exit_code") != 0:
            return self.fail(result, f"{label}: exit {result.get('exit_code')}: "
                                     f"{result.get('stderr', '').strip()[-500:]}")
        if self.reference is None:
            if self.returns is None:
                self.returns = load_returns(self.work / "prices.csv")
            problems = check_outputs(out, self.returns, WINDOW_LEN, STEP, MAX_RANK)
            if problems:
                return self.fail(result, f"{label}: " + "; ".join(problems))
            self.reference = digests(out)
        else:
            current = digests(out)
            different = sorted(k for k in current.keys() | self.reference.keys()
                               if current.get(k) != self.reference.get(k))
            if different:
                return self.fail(result, f"{label}: reports differ from the "
                                         f"reference run in {different}")
        result["ok"] = True
        result["report_bytes"] = sum(p.stat().st_size for p in out.iterdir())
        with open(out / "windows.csv", encoding="utf-8") as fh:
            result["windows"] = sum(1 for _ in fh) - 1
        cache = self.work / "cache.json"
        result["cache_bytes"] = cache.stat().st_size if cache.exists() else 0
        return result

    def fail(self, result, message) -> dict:
        self.failures.append(message)
        result["ok"] = False
        return result

    def time_left(self, started, seconds, walls, min_runs=MIN_RUNS) -> bool:
        """Whether to start another step of `walls` seconds: until --seconds
        have passed, and at least `min_runs`, unless that could overrun the
        deadline."""
        if time.perf_counter() > self.deadline - 2 * max(walls):
            return False
        return len(walls) < min_runs or time.perf_counter() - started < seconds


def measure_end_to_end(bench: Bench, helpers, seconds: float):
    """Set up afresh before every run, so that the set-up samples spread
    over the same stretch of time as the run samples."""
    started = time.perf_counter()
    setups, runs, walls = [], [], []
    while not walls or bench.time_left(started, seconds, walls):
        t0 = time.perf_counter()
        setups.append(bench.setup(helpers))
        runs.append(bench.run())
        walls.append(time.perf_counter() - t0)
    # Runs that failed still report their times, so a broken program gives
    # a result with failures rather than none.
    done = [r for r in runs if r["ok"]] or [r for r in runs if "main_s" in r]
    return {
        "run_s": ([r["main_s"] for r in done], "s"),
        "peak_rss_mb": ([r["peak_rss_mb"] for r in done], "MiB"),
        "setup_s": (setups, "s"),
    }


def layer_metrics(untraced: dict, traced: dict, bench: Bench) -> dict[str, float]:
    s = summarize(traced.get("spans", []))

    def total(name):
        return s.get(name, {}).get("total_s", 0.0)

    def own(name):
        return s.get(name, {}).get("self_s", 0.0)

    def calls(name):
        return s.get(name, {}).get("calls", 0)

    main_s = total("cli.main")
    sims = calls("nulls.eigh")
    eig_calls = calls("spectral.eigendecompose")
    work = bench.work
    return {
        "panel.load_s": total("panel.load"),
        "panel.returns_s": total("panel.returns"),
        "panel.roll_s": total("panel.roll"),
        "panel.windows_n": traced.get("windows", 0),
        "panel.input_bytes": (work / "prices.csv").stat().st_size
        + (work / "meta.csv").stat().st_size,
        "correlation.matrix_s": total("correlation.matrix"),
        "correlation.moments_s": total("correlation.moments"),
        "correlation.calls_n": calls("correlation.matrix"),
        "spectral.eigendecompose_s": total("spectral.eigendecompose"),
        "spectral.calls_n": eig_calls,
        "spectral.ms_per_call": 1e3 * total("spectral.eigendecompose") / eig_calls
        if eig_calls else 0.0,
        "analytics.variance_s": total("analytics.variance"),
        "analytics.participation_s": total("analytics.participation"),
        "analytics.adjusted_corr_s": total("analytics.adjusted_corr"),
        "analytics.counts_s": total("analytics.counts"),
        "nulls.ensemble_s": total("nulls.ensemble"),
        "nulls.compute_s": total("nulls.compute"),
        "nulls.cache_hit": int(calls("nulls.ensemble") > 0 and calls("nulls.compute") == 0),
        "nulls.sims_n": sims,
        "nulls.eigh_s": total("nulls.eigh"),
        "nulls.corr_s": total("nulls.corr"),
        "nulls.self_s": own("nulls.compute"),
        "nulls.ms_per_sim": 1e3 * total("nulls.compute") / sims if sims else 0.0,
        "nulls.cache_bytes": traced.get("cache_bytes", 0),
        "pipeline.run_analysis_s": total("pipeline.run_analysis"),
        "pipeline.self_s": own("pipeline.run_analysis"),
        "pipeline.emit_reports_s": total("pipeline.emit_reports"),
        "pipeline.report_bytes": traced.get("report_bytes", 0),
        "cli.main_s": main_s,
        "cli.self_s": own("cli.main"),
        "process.cpu_s": untraced["cpu_s"],
        "process.import_s": untraced["import_s"],
        "trace.overhead_s": main_s - untraced["main_s"],
        "trace.coverage_frac": 1.0 - (own("cli.main") + own("pipeline.run_analysis"))
        / main_s if main_s else 0.0,
        "trace.missing_n": len(traced.get("missing", [])),
    }


def measure_layers(bench: Bench, seconds: float):
    """Alternate untraced and traced runs; per-layer medians over the pairs."""
    started = time.perf_counter()
    pairs, walls = [], []
    while not walls or bench.time_left(started, seconds, walls, min_runs=1):
        untraced = bench.run()
        traced = bench.run(trace=True)
        walls.append(untraced["wall_s"] + traced["wall_s"])
        if "main_s" in untraced and "main_s" in traced:
            pairs.append({"metrics": layer_metrics(untraced, traced, bench),
                          "missing": traced["missing"]})
    if bench.workload.prefilled:
        # A cache miss recomputes the baselines; the README promises that a
        # hit reproduces the bytes of that fresh computation.
        cache = bench.work / "cache.json"
        filled = cache.read_bytes()
        if bench.run(cache_miss=True)["ok"] and cache.read_bytes() != filled:
            bench.failures.append("cache written by a full run differs from the "
                                  "cache filled in set-up")
    names = pairs[0]["metrics"] if pairs else ()
    out = {name: ([p["metrics"][name] for p in pairs], unit_of(name)) for name in names}
    missing = sorted({m for p in pairs for m in p["missing"]})
    return out, missing


def unit_of(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_bytes"):
        return "bytes"
    if ".ms_per_" in name:
        return "ms"
    if name.endswith("_frac"):
        return "fraction"
    return "count"


def environment(seed: int) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                    capture_output=True, text=True,
                                    timeout=10).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            pass
    src_digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        src_digest.update(path.relative_to(SRC).as_posix().encode())
        src_digest.update(path.read_bytes())
    return {
        "git_commit": commit,
        "src_sha256": src_digest.hexdigest(),
        "workload_seed": seed,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "nproc": NPROC,
        "platform": platform.platform(),
    }


def describe(values) -> dict:
    ordered = sorted(values)
    summary = {"n": len(ordered), "median": statistics.median(ordered),
               "min": ordered[0], "max": ordered[-1], "values": list(values)}
    if len(ordered) >= 2:
        summary["q1"], _, summary["q3"] = statistics.quantiles(ordered, n=4)
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2**64:
        parser.error("--seed must be an unsigned 64-bit integer")
    for needed in (SRC / "corrspectra" / "cli.py", META, HELPERS):
        if not needed.is_file():
            print(f"perfbench: {needed} not found; run from a corrspectra source "
                  "checkout", file=sys.stderr)
            return 2

    # On SIGTERM, unwind: subprocess.run kills the running child and the
    # work directory is removed below.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    started = time.perf_counter()
    work = ROOT / ".perfbench" / f"{args.workload}-{args.seed}-{os.getpid()}"
    bench = Bench(WORKLOADS[args.workload], args.seed, work, started + DEADLINE_S)
    try:
        helpers = load_helpers()
        if args.trace:
            bench.setup(helpers)
            metrics, missing = measure_layers(bench, args.seconds)
        else:
            metrics = measure_end_to_end(bench, helpers, args.seconds)
            missing = []
    except SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass

    for message in bench.failures:
        print(f"perfbench: FAILED {message}", file=sys.stderr)
    if not metrics or not all(values for values, _ in metrics.values()):
        print("perfbench: no run completed; nothing to report", file=sys.stderr)
        return 1
    failed = len(bench.failures)
    details = {
        "workload": args.workload,
        "trace": args.trace,
        "environment": environment(args.seed),
        "failed_frac": failed / bench.attempted,
        "failures": bench.failures,
        "missing_spans": missing,
        "samples": {name: describe(values) for name, (values, _) in metrics.items()},
        "elapsed_s": time.perf_counter() - started,
    }
    for name in missing:
        print(f"perfbench: missing span {name}", file=sys.stderr)
    print(json.dumps({"details": details}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": bench.attempted,
        "failed": failed,
        "metrics": {name: {"value": statistics.median(values), "unit": unit}
                    for name, (values, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
