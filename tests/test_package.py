import ast
import importlib
import inspect
import os
import re
import shlex
import subprocess
import sys
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np
import pytest

import corrspectra
from corrspectra import blocks, cli, pipeline

from helpers import (
    bench_module,
    random_walk_prices,
    weekly_dates,
    write_meta_csv,
    write_prices_csv,
)

README = Path(__file__).resolve().parents[1] / "README.md"
SRC = Path(corrspectra.__file__).resolve().parent
HELPERS = Path(__file__).resolve().parent / "helpers.py"


def test_all_exports_resolve_once():
    # a name deleted from the package but left in __all__ breaks
    # `from corrspectra import *`
    assert len(set(corrspectra.__all__)) == len(corrspectra.__all__)
    for name in corrspectra.__all__:
        assert getattr(corrspectra, name, None) is not None, name


def test_acceptance_statistics_are_not_exported():
    # statistics only the tests read live in tests/synthetic.py
    for name in ("eigenvector_zscores", "max_correlation_rank",
                 "self_correlation_deltas", "shuffle_panel"):
        assert not hasattr(corrspectra, name), name
        assert name not in corrspectra.__all__


def test_readme_library_example_runs(tmp_path, monkeypatch):
    # the first code block of the README's Library section, run as written
    library = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    code = re.search(r"```python\n(.*?)```", library, re.DOTALL).group(1)
    n_assets, n_dates = 12, 110
    tickers = [f"A{i:02d}" for i in range(n_assets)]
    prices = random_walk_prices(np.random.default_rng(3), n_assets, n_dates)
    write_prices_csv(tmp_path / "prices.csv", weekly_dates(n_dates), prices,
                     tickers)
    write_meta_csv(tmp_path / "meta.csv", tickers, ["equities"] * n_assets)
    monkeypatch.chdir(tmp_path)
    namespace = {}
    exec(compile(code, str(README), "exec"), namespace)
    assert namespace["index"] == 9  # the last of 10 windows
    assert namespace["values"].shape == (n_assets, n_assets)
    assert namespace["beta"].shape == (n_assets,)
    assert namespace["omega"].shape == (n_assets, n_assets)
    assert namespace["pr"].shape == (n_assets,)
    assert namespace["abs_r"].shape == (n_assets, namespace["max_rank"])
    assert namespace["abs_r_adjusted"].shape == (n_assets, n_assets)
    assert len(namespace["moments"]) == 4


def test_readme_cli_example_parses():
    # the README's CLI command, with its bracketed optional flags unwrapped,
    # so the README cannot show an option the parser does not have
    cli_section = README.read_text(encoding="utf-8").split("\n## CLI\n", 1)[1]
    command = re.search(r"```bash\n(.*?)```", cli_section, re.DOTALL).group(1)
    words = shlex.split(command.replace("\\\n", " "))
    assert words[0] == "corrspectra"
    args = cli.build_parser().parse_args([word.strip("[]")
                                          for word in words[1:]])
    assert args.classes == "gov_bonds,corp_bonds"
    assert args.baseline_cache == "cache.json"


def test_cli_defaults_are_run_configs():
    # every destination is a RunConfig field, with the field's default
    args = cli.build_parser().parse_args(["--prices", "p.csv",
                                          "--meta", "m.csv", "--out", "out"])
    assert vars(args) == asdict(corrspectra.RunConfig("p.csv", "m.csv", "out"))


def _imports(path):
    """(module, names) of each import statement in `path`; a relative
    module keeps its leading dots."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            yield from ((alias.name, ()) for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            yield ("." * node.level + (node.module or ""),
                   tuple(alias.name for alias in node.names))


def test_module_boundaries():
    # the block runner alone handles processes and BLAS threads; it and the
    # per-window math, matrix to diagnostics, need nothing of the package
    # but its errors
    imports = {path.stem: list(_imports(path)) for path in SRC.glob("*.py")}
    assert sorted(imports) == ["__init__", "analytics", "blocks", "cli",
                               "errors", "nulls", "panel", "pipeline"]
    for stem in ("analytics", "blocks"):
        assert {m for m, _ in imports[stem] if m.startswith(".")} \
            == {".errors"}, stem
    for stem, found in imports.items():
        if stem == "blocks":
            continue
        dotted = {m for m, _ in found} | {f"{m}.{n}" for m, names in found
                                          for n in names}
        for banned in ("ctypes", "signal", "concurrent.futures"):
            assert not any(d == banned or d.startswith(banned + ".")
                           for d in dotted), (stem, banned)
    for stem in ("nulls", "pipeline"):
        assert {m for m, names in imports[stem]
                if "map_blocks" in names} == {".blocks"}, stem


def _spec_scopes(node, scope, prose):
    """The innermost function (or "<module>") around each string constant
    under `node` that holds ".15g", skipping the constants in `prose`."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        scope = node.name
    if (isinstance(node, ast.Constant) and isinstance(node.value, str)
            and ".15g" in node.value and id(node) not in prose):
        yield scope
    for child in ast.iter_child_nodes(node):
        yield from _spec_scopes(child, scope, prose)


def test_one_float_serializer():
    # every CSV float is rendered in one function; docstrings and the
    # manifest's float_format value only name the spec it uses
    holders = set()
    for path in SRC.glob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        prose = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Expr):
                prose.add(id(node.value))
            elif isinstance(node, ast.Dict):
                prose.update(id(value) for key, value in
                             zip(node.keys, node.values)
                             if isinstance(key, ast.Constant)
                             and key.value == "float_format")
        holders.update((path.stem, scope)
                       for scope in _spec_scopes(tree, "<module>", prose))
    assert holders == {("pipeline", "_csv_lines")}


def _scoped(node, scope="<module>"):
    """(innermost function name or "<module>", node) for every node."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        scope = node.name
    yield scope, node
    for child in ast.iter_child_nodes(node):
        yield from _scoped(child, scope)


def test_float_digits_are_built_only_for_csv_lines():
    # _csv_lines builds most fields without a ".15g" literal, so its digit
    # helpers are called from it alone, and their primitives (log10 for the
    # exponent, the "S24" view of the field bytes) are used nowhere else
    helpers = {"_mantissas", "_digit_words"}
    calls, defined, primitives = set(), set(), set()
    for path in SRC.glob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for scope, node in _scoped(tree):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", getattr(node.func, "attr", None))
                if name in helpers:
                    calls.add((path.stem, scope, name))
            elif isinstance(node, ast.FunctionDef) and node.name in helpers:
                defined.add((path.stem, node.name))
            elif (getattr(node, "id", getattr(node, "attr", None)) == "log10"
                  or isinstance(node, ast.Constant) and node.value == "S24"):
                primitives.add((path.stem, scope))
    assert defined == {("pipeline", name) for name in helpers}
    assert calls == {("pipeline", "_csv_lines", name) for name in helpers}
    assert primitives == {("pipeline", "_mantissas"), ("pipeline", "_csv_lines")}


def test_one_blas_pin():
    # one place sets a BLAS thread count: in this process through ctypes,
    # and in the environment that spawned workers read at start-up
    holders = set()
    for path in SRC.glob("*.py"):
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            for node in ast.walk(top):
                name = getattr(node, "id", getattr(node, "attr", None))
                if (name in ("environ", "putenv", "unsetenv")
                        or isinstance(node, ast.Call) and getattr(
                            node.func, "attr", None) == "set_num_threads"):
                    holders.add((path.stem, getattr(top, "name", "<module>")))
    assert holders == {("blocks", "_OneBlasThread")}


def test_one_block_size():
    # one constant cuts both loops, the sims and the windows, into blocks;
    # no caller picks a size of its own
    assert list(inspect.signature(blocks.map_blocks).parameters) == [
        "kernel", "shared", "n_items"]
    holders = set()
    for path in SRC.glob("*.py"):
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            targets = getattr(top, "targets", [getattr(top, "target", None)])
            holders.update((path.stem, target.id) for target in targets
                           if "BLOCK" in getattr(target, "id", "").upper())
    assert holders == {("blocks", "BLOCK")}


def test_one_window_form():
    # a window is its standardized N x T array and every per-window result
    # a plain array or float, with no result records; the caller already
    # holds the window's index and end date, and no record repeats what
    # its caller holds: prices and returns are one panel record, which
    # names its assets in two lists, the null's edges are floats and a
    # baseline is its four arrays
    n_assets, n_dates = 4, 12
    returns = corrspectra.compute_log_returns(corrspectra.Panel(
        dates=weekly_dates(n_dates),
        values=random_walk_prices(np.random.default_rng(5), n_assets, n_dates),
        tickers=[f"A{i}" for i in range(n_assets)],
        classes=["equities"] * n_assets))
    window = corrspectra.standardize_window(returns, 2, 6, 0)
    assert type(window) is np.ndarray and window.shape == (n_assets, 6)
    values = corrspectra.correlation_matrix(window)
    decomposition = corrspectra.eigendecompose(values)
    assert type(decomposition) is tuple
    assert [(type(part), part.shape) for part in decomposition] == [
        (np.ndarray, (n_assets,)), (np.ndarray, (n_assets, n_assets))]
    moments = corrspectra.coefficient_moments(values)
    assert type(moments) is tuple
    assert [type(moment) for moment in moments] == [float] * 4
    for name in ("SpectralDecomposition", "CoefficientMoments",
                 "asset_component_correlations", "WindowView", "AssetMeta",
                 "MPBounds", "PricePanel", "ReturnPanel"):
        assert not hasattr(corrspectra, name), name
    for record, names in (
            (corrspectra.Panel, ("dates", "values", "tickers", "classes")),
            (corrspectra.NullEnsembleStats,
             ("pr_mean", "pr_std", "scree_mean", "abs_corr_p99"))):
        assert tuple(field.name for field in fields(record)) == names
    edges = corrspectra.mp_bounds(2.0)
    assert type(edges) is tuple
    assert [type(edge) for edge in edges] == [float] * 2
    assert not [module for module, _ in _imports(SRC / "analytics.py")
                if module.split(".")[-1] == "nulls"]


def test_numerical_errors_are_messages():
    # a window's numerical failure carries its message and nothing else:
    # the window, the asset and the contract's quantities are in the text,
    # and a plain exception pickles through its args
    errors = (corrspectra.DegenerateWindowError,
              corrspectra.EigenComputationError)
    for error in errors:
        assert "__init__" not in vars(error), error.__name__
    flat = corrspectra.Panel(
        dates=weekly_dates(4), values=np.array([[0.1, 0.1, 0.1, 0.1],
                                                [0.1, 0.2, 0.3, 0.4]]),
        tickers=["A0", "A1"], classes=["equities"] * 2)
    with pytest.raises(errors[0], match="'A0' .* window 2 ") as degenerate:
        corrspectra.standardize_window(flat, 0, 4, 2)
    values = np.eye(3)
    values[0, 1] = values[1, 0] = np.nan
    with pytest.raises(errors[1], match="^window 6: .*residual nan") as eigen:
        corrspectra.eigendecompose(values, "window 6")
    for exc in (degenerate.value, eigen.value):
        assert vars(exc) == {}
        assert exc.args == (str(exc),)
    raises = [node for node in ast.walk(ast.parse(
        (SRC / "analytics.py").read_text(encoding="utf-8")))
        if isinstance(node, ast.Raise)
        and isinstance(node.exc, ast.Call)
        and getattr(node.exc.func, "id", None) == "EigenComputationError"]
    assert len(raises) == 2


# perfbench/spans.py's targets that no longer resolve: ROADMAP A1 retargets
# them and then deletes this list
_MISSING_SPANS = {
    "corrspectra.cli.run_analysis",
    "corrspectra.cli.emit_reports",
    "corrspectra.pipeline.roll_windows",
    "corrspectra.pipeline.correlation_matrix",
    "corrspectra.pipeline.eigendecompose",
    "corrspectra.pipeline.participation",
    "corrspectra.nulls.decompose_symmetric",
    "corrspectra.nulls.corr_from_standardized",
}


def test_span_targets_resolve():
    # the benchmark times the names perfbench/spans.py wraps; a rename
    # that drops a live span loses its metrics without an error, so every
    # target but the known-missing ones must still be a callable
    missing = set()
    for module, attr, _ in bench_module("spans").TARGETS:
        if not callable(getattr(importlib.import_module(module), attr, None)):
            missing.add(f"{module}.{attr}")
    assert missing == _MISSING_SPANS


def test_no_private_name_crosses_modules():
    # what one module needs from another is public there
    for path in SRC.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and (
                    node.level or node.module.split(".")[0] == "corrspectra"):
                private = [alias.name for alias in node.names
                           if alias.name.startswith("_")]
                assert not private, (path.name, node.module, private)


def test_windows_are_standardized_one_at_a_time():
    # no function holds every standardized window of a panel at once
    # (800 x 98 x 100 floats on the paper's panel); callers loop over
    # window indices as _window_rows does
    for module in (corrspectra, corrspectra.panel):
        assert not hasattr(module, "roll_windows")
    assert "roll_windows" not in corrspectra.__all__


def test_one_csv_reader():
    # one generator reads both input CSVs, so each loader keeps only its
    # column rules and every malformed file fails the same way
    holders = set()
    for path in SRC.glob("*.py"):
        for scope, node in _scoped(ast.parse(path.read_text(encoding="utf-8"))):
            func = getattr(node, "func", None)  # only calls have one
            if getattr(func, "attr", getattr(func, "id", None)) in (
                    "reader", "DictReader"):
                holders.add((path.stem, scope))
    assert holders == {("panel", "_csv_rows")}


def test_one_window_route():
    # write_reports is the only route from a panel to reports: one block
    # loop over the windows, and one per-window kernel call inside it. The
    # kernel gets the null baseline, so it alone counts against it and
    # renders every CSV line; the parent only streams text
    tree = ast.parse((SRC / "pipeline.py").read_text(encoding="utf-8"))
    called = [getattr(node.func, "id", getattr(node.func, "attr", None))
              for node in ast.walk(tree) if isinstance(node, ast.Call)]
    assert called.count("map_blocks") == 1
    assert called.count("analyze_window") == 1
    kernel_only = ("_csv_lines", "scree_significant_count",
                   "scree_exceedance_count")
    callers = {name: set() for name in kernel_only}
    for path in SRC.glob("*.py"):
        for scope, node in _scoped(ast.parse(path.read_text(encoding="utf-8"))):
            func = getattr(node, "func", None)  # only calls have one
            name = getattr(func, "id", getattr(func, "attr", None))
            if name in callers:
                callers[name].add((path.stem, scope))
    assert callers == dict.fromkeys(kernel_only, {("pipeline", "_window_rows")})


def test_one_report_writer():
    # write_reports alone opens files in pipeline.py: all five reports, once
    # its window pool has started, in binary mode, since every line reaches
    # it as UTF-8 bytes
    tree = ast.parse((SRC / "pipeline.py").read_text(encoding="utf-8"))
    opens = [(scope, node) for scope, node in _scoped(tree)
             if isinstance(node, ast.Call)
             and getattr(node.func, "id", getattr(node.func, "attr", None))
             == "open"]
    assert {scope for scope, _ in opens} == {"write_reports"}
    for _, node in opens:
        assert [ast.literal_eval(arg) for arg in node.args[1:]] == ["wb"]
        assert node.keywords == []


def test_report_text_stays_bytes():
    # _csv_lines renders bytes and write_reports writes them as they are:
    # no decode in the worker and re-encode in the parent
    assert inspect.signature(pipeline._csv_lines).return_annotation \
        == "list[bytes]"
    texts = pipeline._csv_lines(["0,", "1,"], ["Zürich", "k"],
                                np.full((2, 2, 1), 0.5))
    assert texts == [b"0,Z\xc3\xbcrich,0.5\n0,k,0.5\n",
                     b"1,Z\xc3\xbcrich,0.5\n1,k,0.5\n"]


def test_each_write_checks_its_own_destination():
    # the reports' directory is checked where they are staged and moved
    # in, the cache's where it is read and written; nothing else guesses
    # what those writes need
    holders = set()
    for path in SRC.glob("*.py"):
        for scope, node in _scoped(ast.parse(path.read_text(encoding="utf-8"))):
            func = getattr(node, "func", None)  # only calls have one
            if getattr(func, "attr", getattr(func, "id", None)) in (
                    "access", "is_dir"):
                holders.add((path.stem, scope))
    assert holders == {("pipeline", "_staged_reports"),
                       ("nulls", "cached_ensemble_stats")}


def test_one_directory_per_run():
    # the reports are staged inside --out, so the final os.replace stays in
    # one directory and one filesystem, and nothing is made beside --out
    tree = ast.parse((SRC / "pipeline.py").read_text(encoding="utf-8"))
    staged, parents = [], set()
    for scope, node in _scoped(tree):
        if isinstance(node, ast.Call) \
                and getattr(node.func, "attr", None) == "mkdtemp":
            assert node.args == []
            staged.append({keyword.arg: ast.unparse(keyword.value)
                           for keyword in node.keywords}.get("dir"))
        elif isinstance(node, ast.Attribute) and node.attr == "parent":
            parents.add(scope)
    assert staged == ["output_dir"]
    assert not parents & {"_staged_reports", "_remove_stale_staging"}


def test_helpers_load_without_corrspectra(tmp_path):
    # the benchmark execs helpers.py in a process with no src on its path
    script = ("import importlib.util, sys\n"
              "sys.modules['corrspectra'] = None  # any import of it fails\n"
              "spec = importlib.util.spec_from_file_location('h', sys.argv[1])\n"
              "spec.loader.exec_module(importlib.util.module_from_spec(spec))\n")
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run([sys.executable, "-c", script, str(HELPERS)],
                          cwd=tmp_path, env=env, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
