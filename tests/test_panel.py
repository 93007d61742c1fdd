import csv
import datetime as dt
import math

import numpy as np
import pytest

from corrspectra import (
    DegenerateWindowError,
    PanelFormatError,
    PricePanel,
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
        assert panel.prices.shape == (2, 3)
        assert panel.prices[0, 0] == 100.0

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

    def test_zero_price_names_row(self, tmp_path):
        prices = tmp_path / "p.csv"
        meta = tmp_path / "m.csv"
        write_prices_csv(
            prices,
            weekly_dates(4),
            [[100.0, 101.0, 0.0, 99.0], [50.0, 50.0, 50.0, 50.0]],
            ["AAA", "BBB"],
        )
        write_meta_csv(meta, ["AAA", "BBB"], ["equities", "equities"])
        with pytest.raises(PanelFormatError, match="row 4"):
            load_price_panel(prices, meta)

    def test_negative_price_rejected(self, tmp_path):
        prices = tmp_path / "p.csv"
        meta = tmp_path / "m.csv"
        write_prices_csv(prices, weekly_dates(2), [[100.0, -1.0]], ["AAA"])
        write_meta_csv(meta, ["AAA"], ["equities"])
        with pytest.raises(PanelFormatError, match="AAA"):
            load_price_panel(prices, meta)

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

    def test_meta_ticker_missing_from_header(self, tmp_path):
        prices = tmp_path / "p.csv"
        meta = tmp_path / "m.csv"
        write_prices_csv(prices, weekly_dates(2), [[1.0, 2.0]], ["AAA"])
        write_meta_csv(meta, ["AAA", "GHOST"], ["equities", "metals"])
        with pytest.raises(PanelFormatError, match="GHOST"):
            load_price_panel(prices, meta)

    def test_header_ticker_missing_from_meta(self, tmp_path):
        prices = tmp_path / "p.csv"
        meta = tmp_path / "m.csv"
        write_prices_csv(prices, weekly_dates(2), [[1.0, 2.0], [1.0, 2.0]], ["AAA", "BBB"])
        write_meta_csv(meta, ["AAA"], ["equities"])
        with pytest.raises(PanelFormatError, match="BBB"):
            load_price_panel(prices, meta)

    def test_unknown_asset_class(self, tmp_path):
        prices = tmp_path / "p.csv"
        meta = tmp_path / "m.csv"
        write_prices_csv(prices, weekly_dates(2), [[1.0, 2.0]], ["AAA"])
        write_meta_csv(meta, ["AAA"], ["crypto"])
        with pytest.raises(PanelFormatError, match="crypto"):
            load_price_panel(prices, meta)

    def test_missing_cell(self, tmp_path):
        prices = tmp_path / "p.csv"
        meta = tmp_path / "m.csv"
        prices.write_text("date,AAA,BBB\n2001-01-05,1.0,2.0\n2001-01-12,1.1\n")
        write_meta_csv(meta, ["AAA", "BBB"], ["equities", "equities"])
        with pytest.raises(PanelFormatError, match="row 3"):
            load_price_panel(prices, meta)

    def test_empty_cell(self, tmp_path):
        prices = tmp_path / "p.csv"
        meta = tmp_path / "m.csv"
        prices.write_text("date,AAA\n2001-01-05,1.0\n2001-01-12,\n")
        write_meta_csv(meta, ["AAA"], ["equities"])
        with pytest.raises(PanelFormatError, match="missing value"):
            load_price_panel(prices, meta)

    def test_non_numeric_price(self, tmp_path):
        prices = tmp_path / "p.csv"
        meta = tmp_path / "m.csv"
        prices.write_text("date,AAA\n2001-01-05,abc\n")
        write_meta_csv(meta, ["AAA"], ["equities"])
        with pytest.raises(PanelFormatError, match="non-numeric"):
            load_price_panel(prices, meta)

    def test_dates_must_increase(self, tmp_path):
        prices = tmp_path / "p.csv"
        meta = tmp_path / "m.csv"
        prices.write_text("date,AAA\n2001-01-12,1.0\n2001-01-05,1.0\n")
        write_meta_csv(meta, ["AAA"], ["equities"])
        with pytest.raises(PanelFormatError, match="not .*after"):
            load_price_panel(prices, meta)

    def test_duplicate_meta_ticker(self, tmp_path):
        prices = tmp_path / "p.csv"
        meta = tmp_path / "m.csv"
        write_prices_csv(prices, weekly_dates(2), [[1.0, 2.0]], ["AAA"])
        meta.write_text("ticker,asset_class\nAAA,equities\nAAA,metals\n")
        with pytest.raises(PanelFormatError, match="duplicate"):
            load_price_panel(prices, meta)

    @pytest.mark.parametrize("ticker", ["A,B", 'A"B', "A\rB", "A\nB", "A\0B"])
    def test_ticker_that_needs_csv_quoting_names_row(self, tmp_path, ticker):
        # the reports are written unquoted, so such a ticker would shift
        # their fields; quoted in both inputs, it is valid CSV
        prices = tmp_path / "p.csv"
        meta = tmp_path / "m.csv"
        with open(prices, "w", newline="", encoding="utf-8") as fh:
            csv.writer(fh).writerows([["date", "AAA", ticker],
                                      ["2001-01-05", 1.0, 2.0],
                                      ["2001-01-12", 1.5, 2.5]])
        with open(meta, "w", newline="", encoding="utf-8") as fh:
            csv.writer(fh).writerows([["ticker", "asset_class"],
                                      ["AAA", "equities"], [ticker, "metals"]])
        with pytest.raises(PanelFormatError, match="row 3: ticker"):
            load_price_panel(prices, meta)

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

    @pytest.mark.parametrize("text, message", [
        ("\ndate,AAA\n2001-01-05,1.0\n", "first header column must be 'date'"),
        ("date,AAA\n2001-01-05,1.0\n   \n", "row 3: expected 2 fields, got 1"),
    ], ids=["header_after_blank_line", "line_of_spaces"])
    def test_only_empty_lines_are_skipped(self, tmp_path, text, message):
        prices = tmp_path / "p.csv"
        meta = tmp_path / "m.csv"
        prices.write_text(text)
        write_meta_csv(meta, ["AAA"], ["equities"])
        with pytest.raises(PanelFormatError, match=message):
            load_price_panel(prices, meta)

    @pytest.mark.parametrize("prices, meta, problem", [
        ("", None, "{prices}: empty prices file"),
        (None, "", "{meta}: empty metadata file"),
        (None, "ticker,class\nAAA,equities\n",
         "{meta}: expected header 'ticker,asset_class', got ['ticker', "
         "'class']"),
        (None, "ticker,asset_class\n,equities\n",
         "{meta}: row 2: empty ticker"),
        (None, "ticker,asset_class\n", "{meta}: no assets listed"),
        ("date\n2001-01-05\n", None, "{prices}: no asset columns in header"),
        ("date,AAA,AAA\n2001-01-05,1.0,1.0\n", None,
         "{prices}: duplicate columns ['AAA']"),
        ("date,AAA\n2001-01-05,1.0\n2001-02-30,1.0\n", None,
         "{prices}: row 3: bad date '2001-02-30'"),
        ("date,AAA\n", None, "{prices}: no price rows"),
    ], ids=["empty_prices", "empty_meta", "meta_header", "empty_ticker",
            "no_assets", "no_asset_column", "duplicate_columns", "bad_date",
            "no_price_rows"])
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
        panel = PricePanel(
            dates=weekly_dates(2),
            prices=np.array([[100.0, 110.0]]),
            tickers=["AAA"], classes=["equities"],
        )
        returns = compute_log_returns(panel)
        assert returns.returns.shape == (1, 1)
        assert abs(returns.returns[0, 0] - 0.0953102) < 1e-7

    def test_constant_price(self):
        panel = PricePanel(
            dates=weekly_dates(3),
            prices=np.array([[100.0, 100.0, 100.0]]),
            tickers=["AAA"], classes=["equities"],
        )
        assert np.array_equal(compute_log_returns(panel).returns, [[0.0, 0.0]])

    def test_exact_logs(self):
        panel = PricePanel(
            dates=weekly_dates(3),
            prices=np.array([[1.0, math.e, math.e**2]]),
            tickers=["AAA"], classes=["equities"],
        )
        assert np.allclose(compute_log_returns(panel).returns, [[1.0, 1.0]], atol=1e-15)

    @pytest.mark.parametrize("prices", [[1e-300, 1e300], [1e300, 1e-300]],
                             ids=["overflow", "underflow"])
    def test_extreme_ratio_is_a_format_error(self, prices):
        # the ratio overflows to inf, or underflows to 0 whose log is -inf;
        # numpy warns of neither (pytest.ini turns its warnings into errors)
        panel = PricePanel(
            dates=weekly_dates(2),
            prices=np.array([prices, [1.0, 2.0]]),
            tickers=["A", "B"], classes=["equities"] * 2,
        )
        with pytest.raises(PanelFormatError, match=(
                "^non-finite return for asset 'A' at step 0$")):
            compute_log_returns(panel)

    def test_needs_two_dates(self):
        panel = PricePanel(
            dates=weekly_dates(1),
            prices=np.array([[100.0]]),
            tickers=["AAA"], classes=["equities"],
        )
        with pytest.raises(PanelFormatError):
            compute_log_returns(panel)

    def test_return_dates_are_endpoints(self):
        dates = weekly_dates(3)
        panel = PricePanel(
            dates=dates,
            prices=np.array([[1.0, 2.0, 3.0]]),
            tickers=["AAA"], classes=["equities"],
        )
        assert compute_log_returns(panel).dates == dates[1:]

    def test_roundtrip_reproduces_prices(self):
        rng = np.random.default_rng(11)
        prices = random_walk_prices(rng, 6, 120)
        panel = PricePanel(
            dates=weekly_dates(120),
            prices=prices,
            tickers=[f"A{i}" for i in range(6)], classes=["equities"] * 6,
        )
        returns = compute_log_returns(panel)
        rebuilt = prices[:, :1] * np.exp(np.cumsum(returns.returns, axis=1))
        assert np.max(np.abs(rebuilt / prices[:, 1:] - 1.0)) <= 1e-12


class TestStandardizeWindow:
    def _panel(self, rows):
        rows = np.asarray(rows, dtype=float)
        return PricePanel(
            dates=weekly_dates(rows.shape[1] + 1),
            prices=np.exp(np.cumsum(np.concatenate([np.zeros((rows.shape[0], 1)), rows], axis=1), axis=1)),
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
        from corrspectra import ReturnPanel

        returns = ReturnPanel(
            dates=weekly_dates(3),
            returns=np.array([[5.0, 5.0, 5.0], [0.1, 0.2, 0.3]]),
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
            PricePanel(
                dates=weekly_dates(n_returns + 1),
                prices=prices,
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
        raw = returns.returns
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
        assert np.array_equal(full.prices, panel.prices)

    def test_empty_match_is_error(self):
        panel = PricePanel(
            dates=weekly_dates(2),
            prices=np.array([[1.0, 2.0], [1.0, 2.0]]),
            tickers=["X", "Y"], classes=["gov_bonds"] * 2,
        )
        with pytest.raises(ValueError):
            subset_by_class(panel, {"equities"})

    def test_unknown_class_is_error(self):
        panel = PricePanel(
            dates=weekly_dates(2),
            prices=np.array([[1.0, 2.0], [1.0, 2.0]]),
            tickers=["X", "Y"], classes=["gov_bonds"] * 2,
        )
        with pytest.raises(ValueError, match="unknown"):
            subset_by_class(panel, {"bonds"})

    def test_subset_commutes_with_returns(self, tmp_path):
        panel = self._table1_panel(tmp_path)
        subset_first = compute_log_returns(subset_by_class(panel, {"metals"}))
        full_returns = compute_log_returns(panel)
        keep = [i for i, klass in enumerate(panel.classes) if klass == "metals"]
        assert np.array_equal(subset_first.returns, full_returns.returns[keep])
