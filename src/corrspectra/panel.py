"""Price-panel ingestion, log returns, and standardized rolling windows.

A panel is an assets x dates matrix of weekly prices plus per-asset class
labels. All functions here are pure: they validate, never mutate, and never
resample or impute. Missing, non-finite or non-positive prices are rejected
at load time because silently filling gaps would corrupt downstream
correlation estimates.
"""

from __future__ import annotations

import csv
import datetime as dt
import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateWindowError, PanelFormatError

ASSET_CLASSES = (
    "equities",
    "gov_bonds",
    "corp_bonds",
    "currencies",
    "metals",
    "fuels",
    "commodities",
)


@dataclass(frozen=True)
class AssetMeta:
    ticker: str
    asset_class: str


@dataclass
class PricePanel:
    """Weekly prices, one row per asset, columns ordered by date."""

    dates: list[dt.date]
    prices: np.ndarray  # N x (L+1), strictly positive
    meta: list[AssetMeta]

    @property
    def tickers(self) -> list[str]:
        return [m.ticker for m in self.meta]

    @property
    def n_assets(self) -> int:
        return len(self.meta)


@dataclass
class ReturnPanel:
    """Log returns; dates[t] is the end date of return t."""

    dates: list[dt.date]
    returns: np.ndarray  # N x L
    meta: list[AssetMeta]

    @property
    def tickers(self) -> list[str]:
        return [m.ticker for m in self.meta]

    @property
    def n_assets(self) -> int:
        return len(self.meta)


@dataclass
class WindowView:
    """One standardized window: each row has mean 0 and population std 1."""

    window_index: int
    end_date: dt.date
    z_hat: np.ndarray  # N x T


def _csv_rows(path, kind):
    """Yield the header of the `kind` CSV file at `path`, then (row number,
    fields) for each later row: rows are CSV records, the header is row 1,
    and blank rows are skipped but counted. Every other row must be as wide
    as the header. An unreadable, non-UTF-8 or malformed file raises
    PanelFormatError naming the file, and the row for a CSV error."""
    lineno = 0
    try:
        # utf-8-sig drops the byte-order mark of spreadsheets' "CSV UTF-8"
        with open(path, newline="", encoding="utf-8-sig") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None:
                raise PanelFormatError(f"{path}: empty {kind} file")
            yield header
            lineno = 1
            for lineno, row in enumerate(reader, start=2):
                if not row:
                    continue
                if len(row) != len(header):
                    raise PanelFormatError(f"{path}: row {lineno}: expected "
                                           f"{len(header)} fields, got {len(row)}")
                yield lineno, row
    except OSError as exc:
        raise PanelFormatError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:  # its position counts from a chunk
        raise PanelFormatError(
            f"{path}: not UTF-8 (byte {exc.object[exc.start]:#x}: {exc.reason})"
        ) from None
    except csv.Error as exc:
        raise PanelFormatError(f"{path}: row {lineno + 1}: {exc}") from None


def _read_meta(meta_path) -> list[AssetMeta]:
    records = _csv_rows(meta_path, "metadata")
    header = next(records)
    if [h.strip() for h in header] != ["ticker", "asset_class"]:
        raise PanelFormatError(
            f"{meta_path}: expected header 'ticker,asset_class', got {header!r}"
        )
    seen: set[str] = set()
    meta = []
    for lineno, (ticker, klass) in records:
        klass = klass.strip()
        if not ticker:
            raise PanelFormatError(f"{meta_path}: row {lineno}: empty ticker")
        if any(c in ticker for c in ',"\r\n\0'):  # reports are unquoted CSV
            raise PanelFormatError(f"{meta_path}: row {lineno}: ticker {ticker!r} "
                                   "holds a comma, quote, line break or NUL")
        if ticker in seen:
            raise PanelFormatError(
                f"{meta_path}: row {lineno}: duplicate ticker {ticker!r}"
            )
        seen.add(ticker)
        if klass not in ASSET_CLASSES:
            raise PanelFormatError(
                f"{meta_path}: row {lineno}: unknown asset_class {klass!r} "
                f"for ticker {ticker!r}"
            )
        meta.append(AssetMeta(ticker=ticker, asset_class=klass))
    if not meta:
        raise PanelFormatError(f"{meta_path}: no assets listed")
    return meta


def load_price_panel(prices_path, meta_path) -> PricePanel:
    """Load and validate a prices CSV plus its asset-class metadata CSV.

    The prices file has header ``date,<ticker>,...`` and ISO dates; column
    order of the prices file defines the asset order of the panel. Every
    cell must be a finite positive decimal; any gap, zero, negative,
    non-finite or non-numeric value raises PanelFormatError naming the row
    and column.
    """
    meta_by_ticker = {m.ticker: m for m in _read_meta(meta_path)}

    records = _csv_rows(prices_path, "prices")
    header = next(records)
    if not header or header[0].strip() != "date":
        raise PanelFormatError(
            f"{prices_path}: first header column must be 'date', got {header[:1]!r}"
        )
    tickers = header[1:]
    if not tickers:
        raise PanelFormatError(f"{prices_path}: no asset columns in header")
    if len(set(tickers)) != len(tickers):
        dupes = sorted({t for t in tickers if tickers.count(t) > 1})
        raise PanelFormatError(f"{prices_path}: duplicate columns {dupes}")

    for ticker in tickers:
        if ticker not in meta_by_ticker:
            raise PanelFormatError(
                f"{prices_path}: column {ticker!r} has no entry in {meta_path}"
            )
    for ticker in meta_by_ticker:
        if ticker not in tickers:
            raise PanelFormatError(
                f"{meta_path}: ticker {ticker!r} is not a column of {prices_path}"
            )

    dates: list[dt.date] = []
    rows: list[list[float]] = []
    for lineno, row in records:
        try:
            date = dt.date.fromisoformat(row[0].strip())
        except ValueError:
            raise PanelFormatError(
                f"{prices_path}: row {lineno}: bad date {row[0]!r}"
            ) from None
        if dates and date <= dates[-1]:
            raise PanelFormatError(
                f"{prices_path}: row {lineno}: date {date.isoformat()} is not "
                f"after {dates[-1].isoformat()}"
            )
        dates.append(date)
        values = []
        for ticker, cell in zip(tickers, row[1:]):
            cell = cell.strip()
            if not cell:
                raise PanelFormatError(
                    f"{prices_path}: row {lineno}: missing value in column {ticker!r}"
                )
            try:
                value = float(cell)
            except ValueError:
                raise PanelFormatError(
                    f"{prices_path}: row {lineno}: non-numeric price {cell!r} "
                    f"in column {ticker!r}"
                ) from None
            if not math.isfinite(value) or value <= 0.0:
                problem = ("non-positive" if math.isfinite(value)
                           else "non-finite")
                raise PanelFormatError(
                    f"{prices_path}: row {lineno}: {problem} price {cell} "
                    f"in column {ticker!r}"
                )
            values.append(value)
        rows.append(values)

    if not rows:
        raise PanelFormatError(f"{prices_path}: no price rows")
    # force row-major layout so subsetted panels and panels loaded from
    # pre-subsetted files run bit-identical linear algebra
    prices = np.ascontiguousarray(np.asarray(rows, dtype=float).T)
    meta = [meta_by_ticker[t] for t in tickers]
    return PricePanel(dates=dates, prices=prices, meta=meta)


def compute_log_returns(panel: PricePanel) -> ReturnPanel:
    """Log return series z[t] = ln(p[t+1] / p[t]) for each asset."""
    if len(panel.dates) < 2:
        raise PanelFormatError("need at least 2 dates to compute returns")
    returns = np.log(panel.prices[:, 1:] / panel.prices[:, :-1])
    if not np.all(np.isfinite(returns)):
        bad = np.argwhere(~np.isfinite(returns))[0]
        raise PanelFormatError(
            f"non-finite return for asset {panel.meta[bad[0]].ticker!r} at step {bad[1]}"
        )
    return ReturnPanel(dates=panel.dates[1:], returns=returns, meta=panel.meta)


def standardize(block: np.ndarray, window_index: int, meta=None,
                start: int = 0) -> np.ndarray:
    """Center each row of an assets x returns block and scale it by its own
    population standard deviation (divide by the window length, not
    length - 1).

    A constant row is an error: dropping the asset would change N
    mid-series, so callers must clean their panel instead. The
    DegenerateWindowError names window `window_index`, the block's returns
    counted from `start`, and the asset from `meta` (else its row).
    """
    sigma = block.std(axis=1)
    if np.any(sigma == 0.0):
        idx = int(np.argmax(sigma == 0.0))
        ticker = meta[idx].ticker if meta else None
        raise DegenerateWindowError(
            f"asset {ticker or idx!r} has zero variance in window {window_index} "
            f"(returns {start}..{start + block.shape[1] - 1})",
            ticker=ticker,
            window_index=window_index,
        )
    return (block - block.mean(axis=1, keepdims=True)) / sigma[:, None]


def standardize_window(
    returns: ReturnPanel, start: int, length: int, window_index: int
) -> WindowView:
    """Standardize the slice of `length` returns beginning at `start`.

    Each asset is centered and scaled with the window's own mean and
    population standard deviation; see `standardize`.
    """
    n_returns = returns.returns.shape[1]
    if length < 2:
        raise ValueError(f"window length must be >= 2, got {length}")
    if start < 0 or start + length > n_returns:
        raise ValueError(
            f"window [{start}, {start + length}) out of range for {n_returns} returns"
        )
    block = returns.returns[:, start : start + length]
    return WindowView(
        window_index=window_index,
        end_date=returns.dates[start + length - 1],
        z_hat=standardize(block, window_index, returns.meta, start),
    )


def window_count(returns: ReturnPanel, length: int, step: int = 1) -> int:
    """floor((L - length) / step) + 1: the number of windows at starts 0,
    step, 2*step, ... that fit in the L returns."""
    n_returns = returns.returns.shape[1]
    if length > n_returns:
        raise ValueError(
            f"window length {length} exceeds available returns {n_returns}"
        )
    if step < 1:
        raise ValueError(f"step must be >= 1, got {step}")
    return (n_returns - length) // step + 1


def roll_windows(returns: ReturnPanel, length: int, step: int = 1) -> list[WindowView]:
    """All standardized windows at starts 0, step, 2*step, ...

    Yields window_count(returns, length, step) windows with consecutive
    window_index values starting at 0; window w starts at return w * step.
    """
    return [
        standardize_window(returns, index * step, length, index)
        for index in range(window_count(returns, length, step))
    ]


def subset_by_class(panel: PricePanel, classes) -> PricePanel:
    """Panel restricted to assets whose class is in `classes`, original order."""
    classes = set(classes)
    if not classes:
        raise ValueError("classes must be nonempty")
    unknown = classes - set(ASSET_CLASSES)
    if unknown:
        raise ValueError(f"unknown asset classes: {sorted(unknown)}")
    keep = [i for i, m in enumerate(panel.meta) if m.asset_class in classes]
    if len(keep) < 2:
        raise ValueError(
            f"only {len(keep)} assets match classes {sorted(classes)}; "
            "a correlation analysis needs at least 2"
        )
    return PricePanel(
        dates=list(panel.dates),
        prices=panel.prices[keep].copy(),
        meta=[panel.meta[i] for i in keep],
    )
