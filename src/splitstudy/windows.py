"""Alignment of raw bar series onto event-relative trading-day windows."""

from __future__ import annotations

from bisect import bisect_left
from typing import Iterable

from .errors import CoverageError, DataError
from .models import BarTable, EventWindow, SplitEvent, TradingBar

DEFAULT_MIN_COVERAGE = 0.95


def align_to_event(
    bars: BarTable | Iterable[TradingBar],
    event: SplitEvent,
    pre_days: int,
    post_days: int,
    min_coverage: float = DEFAULT_MIN_COVERAGE,
) -> EventWindow:
    """Re-index a ticker's bars to offsets [-pre_days, +post_days] around day 0.

    ``bars`` is the ticker's series, ``table.series(ticker)``, or any bars.
    Day 0 is the bar on, or the first trading day after, the effective
    date. Offsets count data rows, so coverage is lost only where the series
    runs out of rows; below ``min_coverage`` a CoverageError drops the sample.
    """
    if pre_days < 0 or post_days < 0:
        raise DataError("pre_days and post_days must be >= 0")
    if not 0.0 <= min_coverage <= 1.0:
        raise DataError(f"min_coverage ({min_coverage}) must be in [0, 1]")

    table = bars if isinstance(bars, BarTable) else BarTable.from_bars(bars)
    bars = table.series(event.ticker)
    if not bars:
        raise CoverageError(f"no bars for ticker {event.ticker!r}")
    anchor = bisect_left(bars.dates, event.effective_date)
    if anchor == len(bars):
        raise CoverageError(
            f"cannot anchor: no bar on/after {event.effective_date} "
            f"for {event.ticker!r}"
        )

    lo = max(0, anchor - pre_days)
    hi = min(len(bars) - 1, anchor + post_days)
    requested = pre_days + post_days + 1
    coverage = (hi - lo + 1) / requested
    if coverage < min_coverage:
        raise CoverageError(
            f"window coverage {coverage:.4f} below minimum {min_coverage} "
            f"for {event.ticker!r} ({hi - lo + 1}/{requested} trading days)"
        )
    return EventWindow(
        event=event,
        bars=bars[lo : hi + 1],
        offsets=range(lo - anchor, hi - anchor + 1),
        coverage=coverage,
        span=(-pre_days, post_days),
    )
