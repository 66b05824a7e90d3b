"""Canonical domain types for the split event-study engine.

Everything here is immutable after construction and validated eagerly, so
downstream analytics never have to re-check bar sanity or window ordering.
"""

from __future__ import annotations

import datetime
import math
from array import array
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Iterator, TypeVar

from .errors import DataError

_T = TypeVar("_T")

INT64_MAX = 2**63 - 1
PRICE_COLUMNS = ("open", "high", "low", "close", "adj_close")


def bar_ok(open_, high, low, close, adj_close, volume) -> bool:
    """Whether a bar's values pass every check of ``TradingBar``, in one
    chain (a NaN fails every comparison), so a valid bar costs one test."""
    return (
        0 < low <= open_ <= high < math.inf
        and low <= close <= high
        and 0 < adj_close < math.inf
        and 0 <= volume <= INT64_MAX
    )


@dataclass(frozen=True, slots=True)
class TradingBar:
    """One trading day of OHLCV data for one ticker.

    Prices are finite and in quote currency; ``adj_close`` is the feed's
    split-adjusted close and may sit outside the day's raw high/low range.
    The volume fits a signed 64-bit integer.
    """

    ticker: str
    date: datetime.date
    open: float
    high: float
    low: float
    close: float
    adj_close: float
    volume: int

    def __post_init__(self) -> None:
        low, high, body = self.low, self.high, (self.open, self.close)
        if bar_ok(self.open, high, low, self.close, self.adj_close, self.volume):
            return
        for name in PRICE_COLUMNS:
            value = getattr(self, name)
            if not math.isfinite(value):
                raise DataError(f"{name} ({value}) must be finite")
            if not value > 0:
                raise DataError(f"{name} ({value}) must be > 0")
        if low > high:
            raise DataError(f"low ({low}) must be <= high ({high})")
        if low > min(body):
            raise DataError(f"low ({low}) must be <= min(open, close) ({min(body)})")
        if high < max(body):
            raise DataError(f"high ({high}) must be >= max(open, close) ({max(body)})")
        if self.volume < 0:
            raise DataError(f"volume ({self.volume}) must be >= 0")
        raise DataError(f"volume ({self.volume}) must be <= {INT64_MAX}")


class BarTable:
    """Bars as columns: a ``dates`` list, an ``array('d')`` per price and an
    ``array('q')`` of volumes, rows in (ticker, date) order with no repeated
    key; ``ranges`` maps each ticker to its rows. It iterates as
    ``TradingBar``s; a slice or a ticker's series has columns of its own."""

    __slots__ = ("dates", *PRICE_COLUMNS, "volume", "ranges")

    def __init__(self, dates, prices, volume, ranges: dict[str, range]) -> None:
        self.dates, self.volume, self.ranges = dates, volume, ranges
        self.open, self.high, self.low, self.close, self.adj_close = prices

    @classmethod
    def from_bars(cls, bars: Iterable[TradingBar]) -> BarTable:
        """The table of ``bars`` given in any order; a repeated key is a DataError."""
        rows = sorted(bars, key=lambda b: (b.ticker, b.date))
        starts: dict[str, int] = {}
        for i, bar in enumerate(rows):
            if starts.setdefault(bar.ticker, i) < i and rows[i - 1].date == bar.date:
                raise DataError(f"duplicate bar for {bar.ticker} on {bar.date}")
        bounds = [*starts.values(), len(rows)]
        return cls(
            [b.date for b in rows],
            [array("d", [getattr(b, name) for b in rows]) for name in PRICE_COLUMNS],
            array("q", [b.volume for b in rows]),
            {t: range(a, b) for t, a, b in zip(starts, bounds, bounds[1:])},
        )

    def __len__(self) -> int:
        return len(self.dates)

    def __iter__(self) -> Iterator[TradingBar]:
        tickers = (t for t, rows in self.ranges.items() for _ in rows)
        prices = (getattr(self, name) for name in PRICE_COLUMNS)
        return map(TradingBar, tickers, self.dates, *prices, self.volume)

    def __getitem__(self, rows: slice) -> BarTable:
        start, stop, _ = rows.indices(len(self))
        ranges = {
            t: range(max(r.start, start) - start, min(r.stop, stop) - start)
            for t, r in self.ranges.items()
            if r.start < stop and r.stop > start
        }
        prices = [getattr(self, name)[start:stop] for name in PRICE_COLUMNS]
        return BarTable(self.dates[start:stop], prices, self.volume[start:stop], ranges)

    def series(self, ticker: str) -> BarTable:
        """One ticker's rows; empty when the table holds none of them."""
        rows = self.ranges.get(ticker, range(0))
        return self[rows.start : rows.stop]


@dataclass(frozen=True)
class SplitEvent:
    """A stock split: ratio is shares held after per share held before."""

    ticker: str
    effective_date: datetime.date
    ratio: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.ratio):
            raise DataError(f"split ratio ({self.ratio}) must be finite")
        if not self.ratio > 0:
            raise DataError(f"split ratio ({self.ratio}) must be > 0")

    @property
    def is_degenerate(self) -> bool:
        """A ratio-1 event changes nothing; accepted but flagged."""
        return self.ratio == 1.0


@dataclass(frozen=True)
class FundamentalRecord:
    """Fiscal-year net profit and shareholders' equity for one ticker."""

    ticker: str
    fiscal_year: int
    net_profit: float
    shareholders_equity: float

    def __post_init__(self) -> None:
        for name in ("net_profit", "shareholders_equity"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise DataError(f"{name} ({value}) must be finite")


@dataclass(frozen=True)
class ReferenceRateSeries:
    """Daily simple returns of the chosen reference (risk-free or market).

    The source is a per-run choice: the engine records which file was used
    but does not impose one.
    """

    dates: tuple[datetime.date, ...]
    rates: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.dates) != len(self.rates):
            raise DataError("dates and rates must have equal length")
        for prev, cur in zip(self.dates, self.dates[1:]):
            if cur <= prev:
                raise DataError(f"rate dates must be strictly increasing at {cur}")

    def __len__(self) -> int:
        return len(self.dates)

    @cached_property
    def _by_date(self) -> dict[datetime.date, float]:
        return dict(zip(self.dates, self.rates))

    def rate_on(self, date: datetime.date) -> float | None:
        return self._by_date.get(date)


@dataclass(frozen=True, slots=True)
class OffsetSeries:
    """Values at consecutive trading-day offsets: a ``range`` of ``offsets``
    and an ``array`` of ``values``, one per offset. It iterates as
    ``(offset, value)`` pairs."""

    offsets: range
    values: array

    def __post_init__(self) -> None:
        if type(self.offsets) is not range or self.offsets.step != 1:
            raise DataError("offsets must be a step-1 range")
        if len(self.offsets) != len(self.values):
            raise DataError("offsets and values must have equal length")

    def __iter__(self) -> Iterator[tuple[int, int | float]]:
        return zip(self.offsets, self.values)


@dataclass(frozen=True)
class EventWindow:
    """One ticker's bars numbered by trading-day offsets around a split.

    Offsets count data rows, not calendar days, so they are a step-1
    ``range``; offset 0 is the bar on, or the first trading day after, the
    effective date. The range is short of the requested ``span`` only where
    the series ran out of rows; ``coverage`` is the fraction present.
    """

    event: SplitEvent
    bars: BarTable
    offsets: range
    coverage: float
    span: tuple[int, int] = field(default=(0, 0))

    def __post_init__(self) -> None:
        if type(self.offsets) is not range or self.offsets.step != 1:
            raise DataError("offsets must be a step-1 range")
        if len(self.bars) != len(self.offsets):
            raise DataError("bars and offsets must have equal length")
        if len(self.bars.ranges) != 1:
            raise DataError("an event window holds the bars of one ticker")
        anchor = bisect_left(self.bars.dates, self.event.effective_date)
        if anchor == len(self.offsets) or self.offsets[anchor] != 0:
            raise DataError("offset 0 must be the first bar on/after the effective date")
        if not 0.0 <= self.coverage <= 1.0:
            raise DataError(f"coverage ({self.coverage}) must be in [0, 1]")

    def __len__(self) -> int:
        return len(self.offsets)

    def between(self, lo: int, hi: int) -> tuple[range, slice]:
        """The present offsets in [lo, hi] and the slice of ``bars`` rows at them."""
        start, stop = bisect_left(self.offsets, lo), bisect_right(self.offsets, hi)
        return self.offsets[start:stop], slice(start, stop)

    def series(self, lo: int, hi: int, column: str) -> OffsetSeries:
        """``column`` of ``bars`` at the present offsets in [lo, hi]."""
        offsets, rows = self.between(lo, hi)
        return OffsetSeries(offsets, getattr(self.bars, column)[rows])


def group_by_ticker(rows: Iterable[_T]) -> dict[str, list[_T]]:
    """Rows grouped by their ``ticker``, groups and rows in input order."""
    groups: dict[str, list[_T]] = {}
    for row in rows:
        groups.setdefault(row.ticker, []).append(row)
    return groups
