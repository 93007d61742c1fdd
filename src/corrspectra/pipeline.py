"""End-to-end analysis runs and report emission.

A run loads a price panel and computes (or reads from cache) the Monte
Carlo null baseline for its shape, then rolls standardized windows through
the returns and decomposes each one's correlation matrix for the PCA
diagnostics. Reports are flat CSV/JSON with fixed headers; identical
inputs, configuration, and seed produce byte-identical files.

`write_reports`, the CLI's route and the only one here, gets the null
baseline, then streams into the report files the text that `_window_rows`
renders for each block of windows: all three CSVs' lines, built in the
process that analysed it (every CSV float through `_csv_lines`). In-memory
results come from the per-window functions the kernel calls, which take and
return plain arrays and floats (see README).
`_csv_lines` writes each float as `'%.15g' % x` would, byte for byte, but
builds most fields in numpy from the float's exactly rounded 15-digit
mantissa, since CPython's dtoa is slow at 15 digits.
"""

from __future__ import annotations

import contextlib
import json
import os
import re
import shutil
import tempfile
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .analytics import (
    adjusted_component_correlations,
    analyze_window,
    coefficient_moments,
    kaiser_guttman_count,
    scree_exceedance_count,
    scree_significant_count,
    variance_fractions,
)
from .blocks import map_blocks
from .nulls import (
    NULL_KIND,
    NullConfig,
    NullEnsembleStats,
    cached_ensemble_stats,
    stats_payload,
)
from .panel import (
    Panel,
    compute_log_returns,
    load_price_panel,
    standardize_window,
    subset_by_class,
    window_count,
)

SCHEMA_VERSION = "1"
REPORT_FILES = ("windows.csv", "eigenvalues.csv", "asset_pc_corr.csv",
                "null_baselines.json", "run_manifest.json")
# Least values per chunk of _csv_lines (whole prefixes): larger chunks
# spread numpy's per-call cost wider but raise a worker's peak memory.
_CHUNK = 2048
# 10**0 .. 10**18, each exact, for _mantissas.
_POW10 = np.array([float(10**k) for k in range(19)])
# The text before a field's digits, by 5 * negative - min(e, 0), for
# _digit_words: "," and "-", then "0." and zeros where e < 0; its
# little-endian bytes and its length in bits.
_LEADS = [b"," + b"-" * negative + (b"0." + b"0" * (zeros - 1) if zeros else b"")
          for negative in (0, 1) for zeros in range(5)]
_LEAD_WORDS = np.frombuffer(b"".join(lead.ljust(8, b"\0") for lead in _LEADS),
                            "<u8").astype(np.uint64)
_LEAD_BITS = np.array([8 * len(lead) for lead in _LEADS], np.uint64)
_ZEROS = np.uint64(0x3030303030303030)  # "0" in every byte


@dataclass
class RunConfig:
    prices_path: str
    meta_path: str
    output_dir: str
    window_len: int = 100
    step: int = 1
    sims: int = 10000
    master_seed: int = 0
    max_rank: int = 6
    classes: tuple[str, ...] | None = None
    baseline_cache: str | None = None

    def __post_init__(self):
        if self.window_len < 2:
            raise ValueError(f"window must be >= 2, got {self.window_len}")
        if self.step < 1:
            raise ValueError(f"step must be >= 1, got {self.step}")
        if self.sims < 1:
            raise ValueError(f"sims must be >= 1, got {self.sims}")
        if self.max_rank < 1:
            raise ValueError(f"max-rank must be >= 1, got {self.max_rank}")
        if not 0 <= self.master_seed < 2**64:
            raise ValueError("seed must be an unsigned 64-bit integer")
        if not os.fspath(self.output_dir):  # Path("") is the cwd
            raise ValueError("output directory must be nonempty")
        if self.baseline_cache is not None and not os.fspath(
                self.baseline_cache):
            raise ValueError("baseline cache must be nonempty")
        if isinstance(self.classes, str):
            raise ValueError("classes takes a sequence of class names, "
                             f"not the string {self.classes!r}")
        if self.classes is not None:
            self.classes = tuple(self.classes)
            if not all(isinstance(name, str) for name in self.classes):
                raise ValueError("classes must be strings, got "
                                 f"{self.classes!r}")


def _load_returns(config: RunConfig) -> tuple[Panel, int]:
    """The run's validated return panel and its number of windows; raises
    the DegenerateWindowError of the first window standardize rejects."""
    panel = load_price_panel(config.prices_path, config.meta_path)
    if config.classes is not None:
        panel = subset_by_class(panel, config.classes)
    n = panel.n_assets
    if n < 3:
        raise ValueError(f"reports need at least 3 assets, panel has {n}")
    if config.max_rank > n:
        raise ValueError(f"max-rank {config.max_rank} exceeds panel size {n}")
    returns = compute_log_returns(panel)
    n_windows = window_count(returns, config.window_len, config.step)
    # std == 0.0 needs equal returns: standardize only such windows here
    z = returns.values
    moves = np.zeros(z.shape, int)  # changes of each asset's return so far
    np.cumsum(z[:, 1:] != z[:, :-1], axis=1, out=moves[:, 1:])
    starts = np.arange(n_windows) * config.step
    still = moves[:, starts] == moves[:, starts + config.window_len - 1]
    for index in np.flatnonzero(still.any(axis=0)).tolist():
        standardize_window(returns, index * config.step, config.window_len,
                           index)
    return returns, n_windows


def _window_rows(returns: Panel, config: RunConfig,
                 stats: NullEnsembleStats, start: int, stop: int):
    """Windows start..stop-1 analysed against the null baseline `stats`:
    their windows.csv, eigenvalues.csv and asset_pc_corr.csv lines, each
    file's as one _csv_lines list."""
    max_rank, n_assets = config.max_rank, returns.n_assets
    indices = range(start, stop)
    keys = []
    numbers = np.empty((len(indices), len(_csv_columns(max_rank)[0]) - 2))
    eigenvalues = np.empty((len(indices), n_assets))
    pairs = np.empty((len(indices), n_assets, max_rank, 2))  # |r|, adjusted
    for row, index in enumerate(indices):
        first = index * config.step  # the window's first return
        values, beta, omega, pr, abs_r = analyze_window(
            standardize_window(returns, first, config.window_len, index),
            max_rank, f"window {index}")
        end_date = returns.dates[first + config.window_len - 1]
        keys.append(f"{index},{end_date.isoformat()}")
        numbers[row] = [*coefficient_moments(values),
                        *variance_fractions(beta)[:max_rank],
                        *pr[:max_rank], kaiser_guttman_count(beta),
                        scree_significant_count(beta, stats.scree_mean),
                        scree_exceedance_count(beta, stats.scree_mean)]
        eigenvalues[row] = beta
        pairs[row, :, :, 0] = abs_r
        pairs[row, :, :, 1] = adjusted_component_correlations(
            beta[:max_rank], omega[:max_rank])
    return (_csv_lines([""], keys, numbers[None]),
            _csv_lines([f"{key}," for key in keys],
                       [str(k) for k in range(1, n_assets + 1)],
                       eigenvalues[:, :, None]),
            _csv_lines([f"{index}," for index in indices],
                       [f"{name},{k}" for name in returns.tickers
                        for k in range(1, max_rank + 1)],
                       pairs.reshape(len(indices), -1, 2)))


def _mantissas(x: np.ndarray):
    """(n, e, ok) for each float of `x`: where ok, |x| rounded to 15
    significant digits is exactly n * 10**(e - 14), with n an integer float
    in [1e14, 1e15) (0 for zero) and -4 <= e <= 6, the range where %.15g
    writes no exponent and _digit_words places the point. ok is False for
    NaN, inf, values out of that range and near-ties; there n is 1e14, e 0.

    e comes from log10; the Dekker two-product of |x| and 10**(14 - e)
    (exact up to 10**22) gives the exact residual of rint, which corrects
    n by one where needed and must stay clear of 0.5.
    """
    a = np.abs(x)
    with np.errstate(all="ignore"):
        e = np.floor(np.log10(np.where(a == 0, 1.0, a)))  # zero: n 0, e 0
        ok = (e >= -4) & (e <= 6)
        p = _POW10[np.where(ok, 14 - e, 0).astype(np.intp)]
        hi = a * p
        split = a * 134217729.0  # 2**27 + 1
        a_hi = split - (split - a)
        a_lo = a - a_hi
        split = p * 134217729.0
        p_hi = split - (split - p)
        p_lo = p - p_hi
        lo = ((a_hi * p_hi - hi) + a_hi * p_lo + a_lo * p_hi) + a_lo * p_lo
        n = np.rint(hi)
        residual = (hi - n) + lo
        step = np.rint(residual)
        n += step
        residual -= step
        # n == 1e14 below the product: log10 overstated e
        ok &= ((np.abs(residual) < 0.5 - 2.0**-30) & (n <= 1e15)
               & ((n > 1e14) | (residual >= 0)))
        carry = n == 1e15
        e += carry
        ok &= e <= 6
        return (np.where(ok & ~carry, n, 1e14), np.where(ok, e, 0).astype(int),
                ok)


def _digit_words(n: np.ndarray, e: np.ndarray, negative: np.ndarray):
    """The ",%.15g" text of each value n * 10**(e - 14) of _mantissas
    (negated where `negative`) as three little-endian uint64 words, the
    text's ASCII bytes first and NULs after them.

    n is split in float into four 4-digit groups, the last scaled by 10,
    and each group into digits in its own uint32 (SWAR), so byte k of the
    two words (w0, w1) holds digit k of n. Trailing zero digits stay 0,
    the shown digits get "0" added, a "." is shifted in after digit e for
    e >= 0, and the words move up by the length of the text before the
    digits ("," "-" "0." "000").
    """
    groups = np.empty((len(n), 4))
    for column, scale in enumerate((1e11, 1e7, 1e3)):
        groups[:, column] = np.floor(n / scale)
        n = n - groups[:, column] * scale
    groups[:, 3] = n * 10
    g = groups.astype(np.uint32)
    q = (g * np.uint32(5243)) >> np.uint32(19)  # g // 100
    g = q | ((g - q * np.uint32(100)) << np.uint32(16))
    q = ((g * np.uint32(103)) >> np.uint32(10)) & np.uint32(0x000F000F)
    g = q | ((g - q * np.uint32(10)) << np.uint32(8))
    w0, w1 = g.astype("<u4", copy=False).view("<u8").T.astype(np.uint64)
    last = np.where(w1 != 0, w1, w0)  # the word with the last nonzero digit
    length = (np.frexp(last.astype(float))[1] + 7) // 8 + 8 * (w1 != 0)
    shown = np.where(e >= 0, np.maximum(length, e + 1), length)
    # numpy shifts by 64 bits or more give 0
    w0 |= _ZEROS >> (64 - 8 * np.minimum(shown, 8)).astype(np.uint64)
    w1 |= _ZEROS >> (128 - 8 * np.maximum(shown, 8)).astype(np.uint64)
    dotted = np.flatnonzero((e >= 0) & (length > e + 1))
    at = (8 * e[dotted] + 8).astype(np.uint64)
    low = (np.uint64(1) << at) - np.uint64(1)
    a, b = w0[dotted], w1[dotted]
    w1[dotted] = (b << np.uint64(8)) | (a >> np.uint64(56))
    w0[dotted] = (a & low) | (np.uint64(0x2E) << at) | ((a & ~low) << np.uint64(8))
    lead = 5 * negative - np.minimum(e, 0)
    bits = _LEAD_BITS[lead]
    words = np.empty((len(n), 3), "<u8")
    words[:, 0] = _LEAD_WORDS[lead] | (w0 << bits)
    words[:, 1] = (w0 >> (np.uint64(64) - bits)) | (w1 << bits)
    words[:, 2] = w1 >> (np.uint64(64) - bits)
    return words


def _csv_lines(prefixes, keys, values: np.ndarray) -> list[bytes]:
    """One UTF-8 text per prefix: line j of text i is prefixes[i], keys[j]
    and values[i, j] as ",%.15g" fields, NaN as "NaN"; `values` has shape
    (len(prefixes), len(keys), width).

    CPython's 15-digit dtoa is slow, so the fields are built in numpy, in
    chunks of whole prefixes with at least _CHUNK values (or one prefix,
    if it has more): _mantissas rounds each float exactly to 15 digits and
    _digit_words writes the field's bytes. A value that is not certified
    there (NaN, inf, |x| < 1e-4 or >= 1e7, near-ties) is formatted
    with "%.15g". A bytes %-template per prefix joins the fields, so "%"
    in a prefix or key is escaped.
    """
    n_keys, width = values.shape[1:]
    keyed = [key.replace("%", "%%").encode() + b"%b" * width + b"\n"
             for key in keys]
    prefixes = [prefix.replace("%", "%%").encode() for prefix in prefixes]
    texts, size = [], n_keys * width
    step = -(-_CHUNK // size)  # prefixes per chunk
    for start in range(0, len(prefixes), step):
        x = values[start:start + step].ravel()
        n, e, ok = _mantissas(x)
        words = _digit_words(n, e, np.signbit(x))
        for i in np.flatnonzero(~ok):
            text = "NaN" if np.isnan(x[i]) else "%.15g" % x[i]
            words[i] = np.frombuffer(f",{text}".encode().ljust(24, b"\0"),
                                     "<u8")
        fields = words.view("S24").ravel().tolist()
        for i, prefix in enumerate(prefixes[start:start + step]):
            texts.append((prefix + prefix.join(keyed))
                         % tuple(fields[i * size:(i + 1) * size]))
    return texts


def _csv_columns(max_rank: int) -> tuple[list[str], ...]:
    """The columns of windows.csv, eigenvalues.csv and asset_pc_corr.csv,
    in REPORT_FILES order."""
    ranks = range(1, max_rank + 1)
    return (["window_index", "end_date", "corr_mean", "corr_std",
             "corr_skewness", "corr_kurtosis",
             *[f"variance_fraction_{k}" for k in ranks],
             *[f"pr_{k}" for k in ranks],
             "kaiser_count", "scree_count", "scree_exceedance_count"],
            ["window_index", "end_date", "rank", "eigenvalue"],
            ["window_index", "asset", "rank", "abs_r", "abs_r_adjusted"])


def _baselines_json(stats: NullEnsembleStats, null_config: NullConfig) -> str:
    payload = {
        "schema_version": SCHEMA_VERSION,
        # each simulation is one null window
        "config": {**asdict(null_config), "num_windows": 1,
                   "kind": NULL_KIND},
        **stats_payload(stats),
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _manifest_json(config: RunConfig, n_windows: int, tickers) -> str:
    payload = {
        "schema_version": SCHEMA_VERSION,
        "config": {**asdict(config), "null_kind": NULL_KIND},
        "n_windows": n_windows,
        "tickers": tickers,
        "files": {
            **{name: {"columns": columns} for name, columns
               in zip(REPORT_FILES, _csv_columns(config.max_rank))},
            "null_baselines.json": {
                "keyed_by": "(n_assets, window_len, sims, kind, master_seed)"
            },
        },
        "conventions": {
            "dates": "ISO-8601",
            "float_format": "15 significant digits (%.15g)",
            "undefined_marker": "NaN in CSV, null in JSON",
            "std": "population standard deviation (window length in the denominator)",
            "kurtosis": "raw fourth standardized moment; Gaussian gives 3",
            "eigenvalues": "eigenvalues of the correlation matrix itself; sum equals the number of assets",
            "eigenvector_sign": "each eigenvector sums positive; near-zero sums fall back to the first largest-magnitude entry",
            "percentile": "nearest-rank on the pooled sorted sample",
            "seed_derivation": "simulation s draws from numpy SeedSequence(master_seed, spawn_key=(s,))",
            "scree_count": "contiguous leading ranks above the null profile; scree_exceedance_count ignores crossings",
        },
    }
    return json.dumps(payload, indent=2, sort_keys=True,
                      default=os.fspath) + "\n"


def _remove_stale_staging(output_dir: Path) -> None:
    """Remove the staging directories in `output_dir` whose owner process
    is gone: a run killed by a signal it cannot catch leaves its own."""
    if os.name != "posix":  # elsewhere os.kill does not just probe
        return
    pattern = re.compile(r"\.corrspectra\.(\d{1,9})\.[a-z0-9_]+\.staging")
    for path in output_dir.iterdir():
        match = pattern.fullmatch(path.name)
        if match is None:
            continue
        try:
            os.kill(int(match.group(1)), 0)
        except ProcessLookupError:
            shutil.rmtree(path, ignore_errors=True)
        except PermissionError:
            pass  # alive, owned by another user


@contextlib.contextmanager
def _staged_reports(output_dir: Path):
    """Yield a new staging directory `.corrspectra.<pid>.*.staging` in
    `output_dir` for the REPORT_FILES, after removing those of runs whose
    process is gone. First it raises the OSError the last os.replace would:
    an existing `output_dir` is not a directory, is not writable or holds a
    directory under a report's name, or a missing one's nearest existing
    ancestor is not a directory; making it fails at a dangling symlink.

    When the with block ends cleanly, the files are moved into `output_dir`
    with os.replace, within one filesystem. Either way the staging
    directory is then removed, so a failed run leaves no partial reports,
    and the reports of an earlier run in `output_dir` keep their bytes. A
    failed run also removes the `output_dir` and parents it made, where
    they are still empty.
    """
    if output_dir.exists():
        if not output_dir.is_dir():
            raise FileExistsError(f"output {output_dir} is not a directory")
        for report in (output_dir / name for name in REPORT_FILES):
            if report.is_dir() and not report.is_symlink():
                raise IsADirectoryError(f"report {report} is a directory")
        if not os.access(output_dir, os.W_OK | os.X_OK):
            raise PermissionError(f"output {output_dir} is not writable")
    else:
        base = next(path for path in output_dir.parents if path.exists())
        if not base.is_dir():
            raise NotADirectoryError(f"output {output_dir}: {base} is not a "
                                     "directory")
    made = [path for path in (output_dir, *output_dir.parents)
            if not path.exists()]
    staging = None
    try:
        output_dir.mkdir(parents=True, exist_ok=True)
        _remove_stale_staging(output_dir)
        staging = Path(tempfile.mkdtemp(
            prefix=f".corrspectra.{os.getpid()}.", suffix=".staging",
            dir=output_dir))
        yield staging
        for name in REPORT_FILES:
            os.replace(staging / name, output_dir / name)
        made = []
    finally:
        if staging is not None:
            shutil.rmtree(staging, ignore_errors=True)
        for directory in made:  # the deepest first
            with contextlib.suppress(OSError):
                directory.rmdir()


def write_reports(config: RunConfig) -> tuple[int, list[Path]]:
    """Run the pipeline and write its five report files: the CLI's route.

    After _load_returns it rejects a report that would replace an input
    and a cache path that is an input, the output directory or a report;
    _staged_reports and cached_ensemble_stats check their own destinations
    before the null ensemble. Windows then run in blocks of blocks.BLOCK
    through map_blocks; once its pool has started, the staged report files
    are opened, the two JSON reports written whole and the CSV headers
    written. Each block's lines of the three CSVs, rendered in the process
    that analysed it, are then appended in window order. Returns the number
    of windows and the written paths.
    """
    returns, n_windows = _load_returns(config)
    output_dir = Path(config.output_dir)
    out, inputs = output_dir.resolve(), (config.prices_path, config.meta_path)
    # os.replace swaps the report's own directory entry, so only an input
    # whose file lives there is lost, not one linked to it
    for report in (output_dir / name for name in REPORT_FILES):
        if any(Path(path).resolve() == out / report.name for path in inputs):
            raise ValueError(f"report {report} is an input file")
    if config.baseline_cache is not None:
        cache = Path(config.baseline_cache)
        what = f"baseline cache {cache}"
        if cache.exists() and any(os.path.samefile(cache, path)
                                  for path in inputs):
            raise ValueError(f"{what} is an input file")
        if cache.resolve() == out:
            raise ValueError(f"{what} is the output directory")
        if cache.name in REPORT_FILES and cache.parent.resolve() == out:
            raise ValueError(f"{what} is a report file")
    with (_staged_reports(output_dir) as staging,
          contextlib.ExitStack() as stack):
        null_config = NullConfig(
            n_assets=returns.n_assets, window_len=config.window_len,
            sims=config.sims, master_seed=config.master_seed)
        stats = cached_ensemble_stats(null_config, config.max_rank,
                                      config.baseline_cache)
        heads = (*(",".join(columns) + "\n"
                   for columns in _csv_columns(config.max_rank)),
                 _baselines_json(stats, null_config),
                 _manifest_json(config, n_windows, returns.tickers))
        blocks = stack.enter_context(map_blocks(
            _window_rows, (returns, config, stats), n_windows))
        files = [stack.enter_context(open(staging / name, "wb"))
                 for name in REPORT_FILES]
        for file, head in zip(files, heads):
            file.write(head.encode())
        for texts in blocks:  # the three CSVs' lines
            for file, lines in zip(files, texts):
                file.writelines(lines)
    return n_windows, [output_dir / name for name in REPORT_FILES]
