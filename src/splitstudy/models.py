"""Canonical domain types for the split event-study engine.

Everything here is immutable after construction and validated eagerly, so
downstream analytics never have to re-check bar sanity or window ordering.
"""

from __future__ import annotations

import datetime
import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, TypeVar

from .errors import DataError

_T = TypeVar("_T")


@dataclass(frozen=True, slots=True)
class TradingBar:
    """One trading day of OHLCV data for one ticker.

    Prices are finite and in quote currency; ``adj_close`` is the feed's
    split-adjusted close and may sit outside the day's raw high/low range.
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
        # One chain that holds exactly when every check below passes (a NaN
        # fails every comparison), so a valid bar costs a single test.
        if (
            0 < self.low <= self.open <= self.high < math.inf
            and self.low <= self.close <= self.high
            and 0 < self.adj_close < math.inf
            and self.volume >= 0
        ):
            return
        for name in ("open", "high", "low", "close", "adj_close"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise DataError(f"{name} ({value}) must be finite")
            if not value > 0:
                raise DataError(f"{name} ({value}) must be > 0")
        if self.low > self.high:
            raise DataError(f"low ({self.low}) must be <= high ({self.high})")
        if self.low > min(self.open, self.close):
            raise DataError(
                f"low ({self.low}) must be <= min(open, close) "
                f"({min(self.open, self.close)})"
            )
        if self.high < max(self.open, self.close):
            raise DataError(
                f"high ({self.high}) must be >= max(open, close) "
                f"({max(self.open, self.close)})"
            )
        if self.volume < 0:
            raise DataError(f"volume ({self.volume}) must be >= 0")


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


@dataclass(frozen=True)
class EventWindow:
    """Bars re-indexed to trading-day offsets around a split (day 0).

    Offsets count data rows, not calendar days. Offset 0 is the bar on, or
    the first trading day after, the split's effective date. ``span`` is
    the requested offset range; missing offsets can only occur where the
    underlying series ran out of rows, so ``coverage`` is the fraction of
    the requested range actually present.
    """

    event: SplitEvent
    bars: tuple[TradingBar, ...]
    offsets: tuple[int, ...]
    coverage: float
    span: tuple[int, int] = field(default=(0, 0))

    def __post_init__(self) -> None:
        if len(self.bars) != len(self.offsets):
            raise DataError("bars and offsets must have equal length")
        if not self.bars:
            raise DataError("event window has no bars")
        for prev, cur in zip(self.offsets, self.offsets[1:]):
            if cur <= prev:
                raise DataError("offsets must be strictly increasing")
        for prev, cur in zip(self.bars, self.bars[1:]):
            if cur.date <= prev.date:
                raise DataError("bar dates must be strictly increasing")
        if 0 not in self.offsets:
            raise DataError("event window must contain offset 0")
        anchor = self.bars[self.offsets.index(0)]
        if anchor.date < self.event.effective_date:
            raise DataError("offset-0 bar predates the effective date")
        for bar, offset in zip(self.bars, self.offsets):
            if offset < 0 and bar.date >= self.event.effective_date:
                raise DataError(
                    "offset-0 bar must be the earliest bar on/after the "
                    "effective date"
                )
        if not 0.0 <= self.coverage <= 1.0:
            raise DataError(f"coverage ({self.coverage}) must be in [0, 1]")

    def __len__(self) -> int:
        return len(self.bars)

    @cached_property
    def _by_offset(self) -> dict[int, TradingBar]:
        return dict(zip(self.offsets, self.bars))

    def bar_at(self, offset: int) -> TradingBar | None:
        return self._by_offset.get(offset)

    def bars_between(self, lo: int, hi: int) -> list[tuple[int, TradingBar]]:
        """Present (offset, bar) pairs with lo <= offset <= hi."""
        start = bisect_left(self.offsets, lo)
        stop = bisect_right(self.offsets, hi)
        return [
            (self.offsets[i], self.bars[i]) for i in range(start, stop)
        ]

    def coverage_between(self, lo: int, hi: int) -> float:
        """Fraction of offsets in [lo, hi] actually present."""
        if hi < lo:
            raise DataError(f"empty offset range [{lo}, {hi}]")
        return len(self.bars_between(lo, hi)) / (hi - lo + 1)


def group_by_ticker(rows: Iterable[_T]) -> dict[str, list[_T]]:
    """Rows grouped by their ``ticker``, groups and rows in input order."""
    groups: dict[str, list[_T]] = {}
    for row in rows:
        groups.setdefault(row.ticker, []).append(row)
    return groups
