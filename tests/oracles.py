"""Reference implementations the tests compare the engine against.

They deliberately share no code with the engine's modules: plain Python
loops, raw normal equations, two-pass moments, the field-by-field bars
parser that ``ingest.parse_bars`` must agree with, and the NumPy versions of
the engine's float reductions, whose bits the plain-Python engine must
reproduce exactly.
"""

from __future__ import annotations

import csv
import datetime
import math
import unicodedata
from pathlib import Path
from typing import Sequence

import numpy as np

from splitstudy.errors import DataError
from splitstudy.models import TradingBar

BARS_HEADER = ["ticker", "date", "open", "high", "low", "close", "adj_close", "volume"]


def oracle_sum(values: Sequence[int]) -> int:
    total = 0
    for value in values:
        total += value
    return total


def oracle_moments(
    xs: Sequence[float], ys: Sequence[float]
) -> tuple[float, float, float]:
    """(var_x, var_y, cov) by two-pass summation, population convention."""
    if len(xs) != len(ys):
        raise DataError(f"length mismatch: {len(xs)} vs {len(ys)}")
    n = len(xs)
    if n < 2:
        raise DataError("moments need at least 2 observations")
    mean_x = 0.0
    mean_y = 0.0
    for x, y in zip(xs, ys):
        mean_x += x
        mean_y += y
    mean_x /= n
    mean_y /= n
    var_x = 0.0
    var_y = 0.0
    cov = 0.0
    for x, y in zip(xs, ys):
        dx = x - mean_x
        dy = y - mean_y
        var_x += dx * dx
        var_y += dy * dy
        cov += dx * dy
    return var_x / n, var_y / n, cov / n


def oracle_ols(points: Sequence[tuple[float, float]]) -> tuple[float, float]:
    """(slope, intercept) from the closed-form normal equations."""
    n = len(points)
    if n < 2:
        raise DataError("OLS needs at least 2 points")
    sum_x = sum_y = sum_xx = sum_xy = 0.0
    for x, y in points:
        sum_x += x
        sum_y += y
        sum_xx += x * x
        sum_xy += x * y
    denom = n * sum_xx - sum_x * sum_x
    if denom == 0.0:
        raise DataError("zero variance in x; slope undefined")
    slope = (n * sum_xy - sum_x * sum_y) / denom
    intercept = (sum_y - slope * sum_x) / n
    return slope, intercept


# The engine's reductions as they were written with NumPy: same checks, same
# error texts, float64 arithmetic.


def numpy_pct_change_series(values: Sequence[float]) -> list[float]:
    if len(values) < 2:
        raise DataError("need at least 2 values for a return series")
    arr = np.asarray(values, dtype=np.float64)
    if np.any(arr[:-1] == 0.0):
        raise DataError("zero value in series; percent change undefined")
    return (np.diff(arr) / arr[:-1]).tolist()


def numpy_variance(xs: Sequence[float]) -> float:
    if len(xs) < 2:
        raise DataError("variance needs at least 2 observations")
    arr = np.asarray(xs, dtype=np.float64)
    if float(arr.min()) == float(arr.max()):
        return 0.0
    return float(np.var(arr))


def numpy_covariance(xs: Sequence[float], ys: Sequence[float]) -> float:
    if len(xs) != len(ys):
        raise DataError(f"length mismatch: {len(xs)} vs {len(ys)}")
    if len(xs) < 2:
        raise DataError("covariance needs at least 2 observations")
    a = np.asarray(xs, dtype=np.float64)
    b = np.asarray(ys, dtype=np.float64)
    return float(np.mean((a - a.mean()) * (b - b.mean())))


def numpy_beta(
    stock_returns: Sequence[float], reference_returns: Sequence[float], variant: str
) -> float:
    """``returns.beta(...).beta``; ``variant`` is "covariance" or "correlation"."""
    if len(stock_returns) != len(reference_returns):
        raise DataError(
            f"length mismatch: {len(stock_returns)} vs {len(reference_returns)}"
        )
    var_stock = numpy_variance(stock_returns)
    if var_stock == 0.0:
        raise DataError("stock return variance is zero; beta undefined")
    cov = numpy_covariance(reference_returns, stock_returns)
    if variant == "covariance":
        return cov / var_stock
    var_ref = numpy_variance(reference_returns)
    if var_ref == 0.0:
        raise DataError("reference return variance is zero; correlation undefined")
    corr = cov / float(np.sqrt(var_ref * var_stock))
    return corr / var_stock


def numpy_ols_fit(xs: Sequence[float], ys: Sequence[float]) -> tuple[float, float]:
    if len(xs) != len(ys):
        raise DataError(f"length mismatch: {len(xs)} vs {len(ys)}")
    if len(xs) < 2:
        raise DataError(f"need at least 2 points for a fit, got {len(xs)}")
    x = np.asarray(xs, dtype=np.float64)
    y = np.asarray(ys, dtype=np.float64)
    x_mean = float(x.mean())
    y_mean = float(y.mean())
    sxx = float(((x - x_mean) ** 2).sum())
    if sxx == 0.0:
        raise DataError("zero variance in x; slope undefined")
    slope = float(((x - x_mean) * (y - y_mean)).sum()) / sxx
    return slope, y_mean - slope * x_mean


def _check_bar(fields: dict) -> None:
    """Bar invariants in their reporting order, one comparison at a time."""
    for name in ("open", "high", "low", "close", "adj_close"):
        value = fields[name]
        # The one rule added to the original per-field parser: non-finite
        # prices are rejected, each before its sign is tested.
        if not math.isfinite(value):
            raise DataError(f"{name} ({value}) must be finite")
        if not value > 0:
            raise DataError(f"{name} ({value}) must be > 0")
    low, high = fields["low"], fields["high"]
    body_lo = min(fields["open"], fields["close"])
    body_hi = max(fields["open"], fields["close"])
    if low > high:
        raise DataError(f"low ({low}) must be <= high ({high})")
    if low > body_lo:
        raise DataError(f"low ({low}) must be <= min(open, close) ({body_lo})")
    if high < body_hi:
        raise DataError(f"high ({high}) must be >= max(open, close) ({body_hi})")
    if fields["volume"] < 0:
        raise DataError(f"volume ({fields['volume']}) must be >= 0")
    if fields["volume"] > 2**63 - 1:  # the volume column is int64
        raise DataError(f"volume ({fields['volume']}) must be <= {2**63 - 1}")


def parse_bars_per_field(path: str | Path) -> list[TradingBar]:
    """bars.csv read whole, then parsed and checked field by field."""
    path = Path(path)
    if not path.exists():
        raise DataError(f"input file not found: {path}")
    with path.open(newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            first = next(reader)
        except StopIteration:
            raise DataError(
                f"{path}: empty file, expected header {','.join(BARS_HEADER)}"
            )
        if [c.strip() for c in first] != BARS_HEADER:
            raise DataError(
                f"{path}: header {','.join(first)!r} does not match expected "
                f"{','.join(BARS_HEADER)!r}"
            )
        rows = []
        lineno = reader.line_num + 1  # the physical line the row starts on
        for row in reader:
            if row:
                rows.append((lineno, row))
            lineno = reader.line_num + 1

    def number(convert, text, lineno, name, hint=""):
        try:
            return convert(text)
        except ValueError:
            raise DataError(f"line {lineno}: bad {name} {text!r}{hint}")

    bars = []
    seen = set()
    for lineno, row in rows:
        if len(row) != len(BARS_HEADER):
            raise DataError(
                f"line {lineno}: expected {len(BARS_HEADER)} fields, got {len(row)}"
            )
        ticker = row[0].strip()
        if not ticker:
            raise DataError(f"line {lineno}: empty ticker")
        if any(unicodedata.category(ch) == "Cc" for ch in ticker):
            raise DataError(f"line {lineno}: control character in ticker {ticker!r}")
        try:
            date = datetime.date.fromisoformat(row[1].strip())
        except ValueError:
            raise DataError(f"line {lineno}: bad date {row[1]!r} (expected YYYY-MM-DD)")
        if (ticker, date) in seen:
            raise DataError(f"line {lineno}: duplicate bar for {ticker} on {date}")
        seen.add((ticker, date))
        fields = {
            name: number(float, text, lineno, name)
            for name, text in zip(BARS_HEADER[2:7], row[2:7])
        }
        fields["volume"] = number(int, row[7], lineno, "volume", " (expected integer)")
        try:
            _check_bar(fields)
        except DataError as exc:
            raise DataError(f"line {lineno}: {exc}") from None
        bars.append(TradingBar(ticker=ticker, date=date, **fields))
    bars.sort(key=lambda b: (b.ticker, b.date))
    return bars
