import math

import numpy as np
import pytest

from corrspectra import (
    DegenerateWindowError,
    Panel,
    PanelFormatError,
    compute_log_returns,
    load_price_panel,
    standardize_window,
    subset_by_class,
    window_count,
)
from corrspectra.cli import main
from corrspectra.panel import standardize
from corrspectra.pipeline import REPORT_FILES

from helpers import (
    EXAMPLE_META,
    random_walk_prices,
    weekly_dates,
    write_meta_csv,
    write_prices_csv,
)


def _cli_inputs(tmp_path):
    """A valid five-asset prices and metadata file, and the CLI arguments
    that analyse them with a baseline cache."""
    prices = tmp_path / "p.csv"
    meta = tmp_path / "m.csv"
    tickers = [f"A{i}" for i in range(5)]
    write_prices_csv(prices, weekly_dates(12),
                     random_walk_prices(np.random.default_rng(5), 5, 12),
                     tickers)
    write_meta_csv(meta, tickers, ["equities", "metals"] * 2 + ["fuels"])
    return prices, meta, [
        "--prices", str(prices), "--meta", str(meta),
        "--out", str(tmp_path / "out"), "--window", "6", "--sims", "20",
        "--max-rank", "3", "--baseline-cache", str(tmp_path / "cache.json")]


# id: (prices text, metadata text, the whole PanelFormatError message),
# where None is a valid file of the one asset AAA and {prices} and {meta}
# stand for the files' paths
MALFORMED = {
    "empty_prices": ("", None, "{prices}: empty prices file"),
    "empty_meta": (None, "", "{meta}: empty metadata file"),
    "meta_header": (None, "ticker,class\nAAA,equities\n",
                    "{meta}: expected header 'ticker,asset_class', got "
                    "['ticker', 'class']"),
    "empty_ticker": (None, "ticker,asset_class\n,equities\n",
                     "{meta}: row 2: empty ticker"),
    "no_assets": (None, "ticker,asset_class\n", "{meta}: no assets listed"),
    "no_asset_column": ("date\n2001-01-05\n", None,
                        "{prices}: no asset columns in header"),
    "duplicate_columns": ("date,AAA,AAA\n2001-01-05,1.0,1.0\n", None,
                          "{prices}: duplicate columns ['AAA']"),
    "bad_date": ("date,AAA\n2001-01-05,1.0\n2001-02-30,1.0\n", None,
                 "{prices}: row 3: bad date '2001-02-30'"),
    "no_price_rows": ("date,AAA\n", None, "{prices}: no price rows"),
    "zero_price": ("date,AAA\n2001-01-05,1.0\n2001-01-12,1.1\n"
                   "2001-01-19,0.0\n", None,
                   "{prices}: row 4: non-positive price 0.0 in column 'AAA'"),
    "negative_price": ("date,AAA\n2001-01-05,1.0\n2001-01-12,-1.0\n", None,
                       "{prices}: row 3: non-positive price -1.0 in column "
                       "'AAA'"),
    "non_numeric_price": ("date,AAA\n2001-01-05,abc\n", None,
                          "{prices}: row 2: non-numeric price 'abc' in "
                          "column 'AAA'"),
    "empty_cell": ("date,AAA\n2001-01-05,1.0\n2001-01-12,\n", None,
                   "{prices}: row 3: missing value in column 'AAA'"),
    "missing_cell": ("date,AAA,BBB\n2001-01-05,1.0,2.0\n2001-01-12,1.1\n",
                     "ticker,asset_class\nAAA,equities\nBBB,equities\n",
                     "{prices}: row 3: expected 3 fields, got 2"),
    "dates_must_increase": ("date,AAA\n2001-01-12,1.0\n2001-01-05,1.0\n",
                            None, "{prices}: row 3: date 2001-01-05 is not "
                            "after 2001-01-12"),
    "meta_ticker_missing_from_header": (
        None, "ticker,asset_class\nAAA,equities\nGHOST,metals\n",
        "{meta}: ticker 'GHOST' is not a column of {prices}"),
    "header_ticker_missing_from_meta": (
        "date,AAA,BBB\n2001-01-05,1.0,2.0\n", None,
        "{prices}: column 'BBB' has no entry in {meta}"),
    "unknown_asset_class": (None, "ticker,asset_class\nAAA,crypto\n",
                            "{meta}: row 2: unknown asset_class 'crypto' "
                            "for ticker 'AAA'"),
    "duplicate_meta_ticker": (
        None, "ticker,asset_class\nAAA,equities\nAAA,metals\n",
        "{meta}: row 3: duplicate ticker 'AAA'"),
    # valid CSV when quoted, but the reports are written unquoted, so such
    # a ticker would shift their fields
    **{f"ticker_{name}": (None, f"ticker,asset_class\nAAA,equities\n"
                                f"{cell},metals\n",
                          f"{{meta}}: row 3: ticker {ticker!r} holds a "
                          "comma, quote, line break or NUL")
       for name, cell, ticker in [
           ("comma", '"A,B"', "A,B"), ("quote", '"A""B"', 'A"B'),
           ("cr", '"A\rB"', "A\rB"), ("lf", '"A\nB"', "A\nB"),
           ("nul", "A\0B", "A\0B")]},
    # only empty lines are skipped, as csv.DictReader does
    "header_after_blank_line": ("\ndate,AAA\n2001-01-05,1.0\n", None,
                                "{prices}: first header column must be "
                                "'date', got []"),
    "line_of_spaces": ("date,AAA\n2001-01-05,1.0\n   \n", None,
                       "{prices}: row 3: expected 2 fields, got 1"),
}


@pytest.fixture
def toy_files(tmp_path):
    prices = tmp_path / "prices.csv"
    meta = tmp_path / "meta.csv"
    write_prices_csv(
        prices,
        weekly_dates(3),
        [[100.0, 101.0, 99.5], [50.0, 50.5, 51.0]],
        ["AAA", "BBB"],
    )
    write_meta_csv(meta, ["AAA", "BBB"], ["equities", "gov_bonds"])
    return prices, meta


class TestLoadPricePanel:
    def test_well_formed(self, toy_files):
        panel = load_price_panel(*toy_files)
        assert panel.n_assets == 2
        assert len(panel.dates) == 3
        assert panel.tickers == ["AAA", "BBB"]
        assert panel.values.shape == (2, 3)
        assert panel.values[0, 0] == 100.0

    @pytest.mark.parametrize("which", [0, 1], ids=["prices", "meta"])
    def test_utf8_byte_order_mark_is_ignored(self, toy_files, which):
        # spreadsheets save "CSV UTF-8" with a byte-order mark
        path = toy_files[which]
        path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
        panel = load_price_panel(*toy_files)
        assert panel.tickers == ["AAA", "BBB"]
        assert panel.classes[1] == "gov_bonds"

    def test_column_order_defines_asset_order(self, tmp_path):
        prices = tmp_path / "p.csv"
        meta = tmp_path / "m.csv"
        write_prices_csv(prices, weekly_dates(2), [[1.0, 2.0], [3.0, 4.0]], ["ZZ", "AA"])
        # metadata listed in the opposite order
        write_meta_csv(meta, ["AA", "ZZ"], ["equities", "metals"])
        panel = load_price_panel(prices, meta)
        assert panel.tickers == ["ZZ", "AA"]
        assert panel.classes == ["metals", "equities"]

    @pytest.mark.parametrize("cell, problem", [
        *[(cell, f"non-finite price {cell}")
          for cell in ("nan", "inf", "-inf", "1e400")],
        # float() reads these as 1000.0, 12.5 and 3.0
        *[(cell, f"non-numeric price {cell!r}")
          for cell in ("1_000", "\uff11\uff12.5", "\u0663")]])
    def test_bad_price_exits_two(self, tmp_path, capsys, cell, problem):
        prices = tmp_path / "p.csv"
        meta = tmp_path / "m.csv"
        prices.write_text("date,AAA,BBB\n2001-01-05,1.0,2.0\n"
                          f"2001-01-12,1.5,{cell}\n2001-01-19,1.2,2.5\n",
                          encoding="utf-8")
        write_meta_csv(meta, ["AAA", "BBB"], ["equities", "equities"])
        args = ["--prices", str(prices), "--meta", str(meta),
                "--out", str(tmp_path / "out"), "--window", "2", "--sims", "2"]
        assert main(args) == 2
        err = capsys.readouterr().err
        assert f"row 3: {problem} in column 'BBB'" in err
        assert not (tmp_path / "out").exists()

    def test_blank_lines_are_skipped(self, tmp_path):
        # as csv.DictReader does; the same files without them give the
        # same reports
        prices, meta, args = _cli_inputs(tmp_path)
        plain = [prices.read_text(), meta.read_text()]
        reports = []
        for blank in ("\n", ""):
            for path, text in zip((prices, meta), plain):
                path.write_text(text.replace("\n", "\n" + blank) + blank)
            assert main(args) == 0
            reports.append({name: (tmp_path / "out" / name).read_bytes()
                            for name in REPORT_FILES})
        assert reports[0] == reports[1]

    @pytest.mark.parametrize("prices, meta, problem", MALFORMED.values(),
                             ids=list(MALFORMED))
    def test_malformed_file_names_the_problem(self, tmp_path, prices, meta,
                                              problem):
        paths = {"prices": tmp_path / "p.csv", "meta": tmp_path / "m.csv"}
        paths["prices"].write_text("date,AAA\n2001-01-05,1.0\n"
                                   if prices is None else prices)
        paths["meta"].write_text("ticker,asset_class\nAAA,equities\n"
                                 if meta is None else meta)
        with pytest.raises(PanelFormatError) as excinfo:
            load_price_panel(paths["prices"], paths["meta"])
        assert str(excinfo.value) == problem.format(**paths)

    @pytest.mark.parametrize("fault, line", [
        ("long_field", 2), ("latin1", 2), ("long_field", 1), ("latin1", 1),
    ], ids=["long_field", "latin1", "long_field_in_row_2", "latin1_in_row_2"])
    @pytest.mark.parametrize("which", [0, 1], ids=["prices", "meta"])
    def test_unreadable_csv_exits_two_naming_the_file(self, tmp_path, capsys,
                                                      which, fault, line):
        # lines[line] is row line + 1: the header is row 1
        inputs = _cli_inputs(tmp_path)
        path = inputs[which]
        lines = path.read_bytes().split(b"\n")
        if fault == "long_field":  # over csv's default field size limit
            lines[line] = (lines[line].rsplit(b",", 1)[0] + b","
                           + b"9" * 200_000)
            expected = (f"{path}: row {line + 1}: field larger than field "
                        "limit")
        else:
            lines[line] = lines[line].replace(b",", b"\xc5,", 1)  # Latin-1 Å
            expected = f"{path}: not UTF-8 (byte 0xc5: "
        path.write_bytes(b"\n".join(lines))
        assert main(inputs[2]) == 2
        assert expected in capsys.readouterr().err
        assert not (tmp_path / "out").exists()
        assert not (tmp_path / "cache.json").exists()


class TestLogReturns:
    def test_simple_ratio(self):
        panel = Panel(
            dates=weekly_dates(2),
            values=np.array([[100.0, 110.0]]),
            tickers=["AAA"], classes=["equities"],
        )
        returns = compute_log_returns(panel)
        assert returns.values.shape == (1, 1)
        assert abs(returns.values[0, 0] - 0.0953102) < 1e-7

    def test_constant_price(self):
        panel = Panel(
            dates=weekly_dates(3),
            values=np.array([[100.0, 100.0, 100.0]]),
            tickers=["AAA"], classes=["equities"],
        )
        assert np.array_equal(compute_log_returns(panel).values, [[0.0, 0.0]])

    def test_exact_logs(self):
        panel = Panel(
            dates=weekly_dates(3),
            values=np.array([[1.0, math.e, math.e**2]]),
            tickers=["AAA"], classes=["equities"],
        )
        assert np.allclose(compute_log_returns(panel).values, [[1.0, 1.0]], atol=1e-15)

    @pytest.mark.parametrize("prices", [[1e-300, 1e300], [1e300, 1e-300]],
                             ids=["overflow", "underflow"])
    def test_extreme_ratio_is_a_format_error(self, prices):
        # the ratio overflows to inf, or underflows to 0 whose log is -inf;
        # numpy warns of neither (pytest.ini turns its warnings into errors)
        panel = Panel(
            dates=weekly_dates(2),
            values=np.array([prices, [1.0, 2.0]]),
            tickers=["A", "B"], classes=["equities"] * 2,
        )
        with pytest.raises(PanelFormatError, match=(
                "^non-finite return for asset 'A' at step 0$")):
            compute_log_returns(panel)

    def test_needs_two_dates(self):
        panel = Panel(
            dates=weekly_dates(1),
            values=np.array([[100.0]]),
            tickers=["AAA"], classes=["equities"],
        )
        with pytest.raises(PanelFormatError):
            compute_log_returns(panel)

    def test_return_dates_are_endpoints(self):
        dates = weekly_dates(3)
        panel = Panel(
            dates=dates,
            values=np.array([[1.0, 2.0, 3.0]]),
            tickers=["AAA"], classes=["equities"],
        )
        assert compute_log_returns(panel).dates == dates[1:]

    def test_roundtrip_reproduces_prices(self):
        rng = np.random.default_rng(11)
        prices = random_walk_prices(rng, 6, 120)
        panel = Panel(
            dates=weekly_dates(120),
            values=prices,
            tickers=[f"A{i}" for i in range(6)], classes=["equities"] * 6,
        )
        returns = compute_log_returns(panel)
        rebuilt = prices[:, :1] * np.exp(np.cumsum(returns.values, axis=1))
        assert np.max(np.abs(rebuilt / prices[:, 1:] - 1.0)) <= 1e-12


class TestStandardizeWindow:
    def _panel(self, rows):
        rows = np.asarray(rows, dtype=float)
        return Panel(
            dates=weekly_dates(rows.shape[1] + 1),
            values=np.exp(np.cumsum(np.concatenate([np.zeros((rows.shape[0], 1)), rows], axis=1), axis=1)),
            tickers=[f"A{i}" for i in range(rows.shape[0])],
            classes=["equities"] * rows.shape[0],
        )

    def test_two_point_row(self):
        returns = compute_log_returns(self._panel([[0.0, 2.0]]))
        window = standardize_window(returns, 0, 2, 0)
        assert np.allclose(window, [[-1.0, 1.0]], atol=1e-12)

    def test_already_standardized(self):
        returns = compute_log_returns(self._panel([[1.0, -1.0]]))
        window = standardize_window(returns, 0, 2, 0)
        assert np.allclose(window, [[1.0, -1.0]], atol=1e-12)

    def test_zero_variance_names_asset(self):
        returns = Panel(
            dates=weekly_dates(3),
            values=np.array([[5.0, 5.0, 5.0], [0.1, 0.2, 0.3]]),
            tickers=["A0", "A1"], classes=["equities"] * 2,
        )
        with pytest.raises(DegenerateWindowError) as excinfo:
            standardize_window(returns, 0, 3, 5)
        assert str(excinfo.value) == (
            "asset 'A0' has zero variance in window 5 (returns 0..2)")

    def test_row_invariants(self):
        rng = np.random.default_rng(3)
        returns = compute_log_returns(self._panel(rng.normal(0, 0.02, (5, 60))))
        window = standardize_window(returns, 7, 40, 2)
        assert np.abs(window.mean(axis=1)).max() <= 1e-10
        assert np.abs(window.std(axis=1) - 1.0).max() <= 1e-10

    def test_single_pass_is_numpys_std(self):
        # standardize centres each row once, in numpy's own std steps, so
        # its sigma is np.std bit for bit (the std == 0.0 rule) and its
        # result the two-pass formula's; on a contiguous block and on a
        # strided slice of a wider panel, with equal nonzero returns too
        rng = np.random.default_rng(29)
        wide = rng.normal(0.0, 0.03, (98, 900))
        wide[5] = np.log(1.001)  # numpy std ~2e-19, not 0.0
        for block in (np.ascontiguousarray(wide[:, :100]), wide[:, 37:137],
                      wide[6:18, 500:503] * 1e-9):
            centered = block - block.mean(axis=1, keepdims=True)
            sigma = np.sqrt(np.mean(centered * centered, axis=1))
            assert np.array_equal(sigma, np.std(block, axis=1))
            two_pass = ((block - block.mean(axis=1, keepdims=True))
                        / block.std(axis=1)[:, None])
            assert np.array_equal(standardize(block, "window 0"), two_pass)

    def test_bounds_checked(self):
        returns = compute_log_returns(self._panel([[0.1, 0.2, 0.3]]))
        with pytest.raises(ValueError):
            standardize_window(returns, 2, 2, 0)
        with pytest.raises(ValueError):
            standardize_window(returns, 0, 1, 0)


class TestRollWindows:
    def _returns(self, n_returns):
        rng = np.random.default_rng(n_returns)
        prices = random_walk_prices(rng, 3, n_returns + 1)
        return compute_log_returns(
            Panel(
                dates=weekly_dates(n_returns + 1),
                values=prices,
                tickers=[f"A{i}" for i in range(3)], classes=["equities"] * 3,
            )
        )

    def test_reference_window_count(self):
        assert window_count(self._returns(574), 100, 1) == 475

    def test_exact_fit(self):
        assert window_count(self._returns(5), 5, 1) == 1

    def test_step_three(self):
        returns = self._returns(10)
        assert window_count(returns, 4, 3) == 3
        standardize_window(returns, 2 * 3, 4, 2)  # the last window fits

    @pytest.mark.parametrize("length", [6, 1, 0])
    def test_window_length_out_of_range(self, length):
        with pytest.raises(ValueError, match=f"window length {length} "
                           if length > 5 else "window length must be >= 2"):
            window_count(self._returns(5), length, 1)

    @pytest.mark.parametrize("step", [0, -1])
    def test_step_below_one_rejected(self, step):
        with pytest.raises(ValueError,
                           match=f"^step must be >= 1, got {step}$"):
            window_count(self._returns(5), 2, step)

    def test_adjacent_windows_share_raw_columns(self):
        returns = self._returns(30)
        windows = [standardize_window(returns, index, 10, index)
                   for index in range(window_count(returns, 10, 1))]
        raw = returns.values
        for k in range(len(windows) - 1):
            block_a = raw[:, k : k + 10]
            block_b = raw[:, k + 1 : k + 11]
            rec_a = (
                windows[k] * block_a.std(axis=1, keepdims=True)
                + block_a.mean(axis=1, keepdims=True)
            )
            rec_b = (
                windows[k + 1] * block_b.std(axis=1, keepdims=True)
                + block_b.mean(axis=1, keepdims=True)
            )
            # de-standardized, consecutive windows agree on T-1 columns
            assert np.allclose(rec_a[:, 1:], rec_b[:, :-1], atol=1e-12)


class TestSubsetByClass:
    def _table1_panel(self, tmp_path):
        meta_rows = EXAMPLE_META.read_text().strip().splitlines()[1:]
        tickers = [row.split(",")[0] for row in meta_rows]
        rng = np.random.default_rng(1)
        prices = random_walk_prices(rng, len(tickers), 4)
        path = tmp_path / "prices.csv"
        write_prices_csv(path, weekly_dates(4), prices, tickers)
        return load_price_panel(path, EXAMPLE_META)

    def test_bond_universe_has_24_assets(self, tmp_path):
        panel = self._table1_panel(tmp_path)
        assert panel.n_assets == 98
        bonds = subset_by_class(panel, {"gov_bonds", "corp_bonds"})
        assert bonds.n_assets == 24

    def test_all_classes_is_identity(self, tmp_path):
        panel = self._table1_panel(tmp_path)
        full = subset_by_class(
            panel,
            {"equities", "gov_bonds", "corp_bonds", "currencies", "metals",
             "fuels", "commodities"},
        )
        assert full.tickers == panel.tickers
        assert np.array_equal(full.values, panel.values)

    def test_empty_match_is_error(self):
        panel = Panel(
            dates=weekly_dates(2),
            values=np.array([[1.0, 2.0], [1.0, 2.0]]),
            tickers=["X", "Y"], classes=["gov_bonds"] * 2,
        )
        with pytest.raises(ValueError):
            subset_by_class(panel, {"equities"})

    def test_unknown_class_is_error(self):
        panel = Panel(
            dates=weekly_dates(2),
            values=np.array([[1.0, 2.0], [1.0, 2.0]]),
            tickers=["X", "Y"], classes=["gov_bonds"] * 2,
        )
        with pytest.raises(ValueError, match="unknown"):
            subset_by_class(panel, {"bonds"})

    def test_subset_commutes_with_returns(self, tmp_path):
        panel = self._table1_panel(tmp_path)
        subset_first = compute_log_returns(subset_by_class(panel, {"metals"}))
        returns_first = subset_by_class(compute_log_returns(panel), {"metals"})
        assert subset_first.dates == returns_first.dates
        assert np.array_equal(subset_first.values, returns_first.values)
        assert subset_first.tickers == returns_first.tickers
        assert subset_first.classes == returns_first.classes
