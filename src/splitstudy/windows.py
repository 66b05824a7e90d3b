"""Alignment of raw bar series onto event-relative trading-day windows."""

from __future__ import annotations

from bisect import bisect_left
from typing import Sequence

from .errors import CoverageError, DataError
from .models import EventWindow, SplitEvent, TradingBar

DEFAULT_MIN_COVERAGE = 0.95


def align_to_event(
    bars: Sequence[TradingBar],
    event: SplitEvent,
    pre_days: int,
    post_days: int,
    min_coverage: float = DEFAULT_MIN_COVERAGE,
) -> EventWindow:
    """Re-index a ticker's bars to offsets [-pre_days, +post_days] around day 0.

    Callers should pass one ticker's date-sorted bars: the ticker filter
    below then keeps every bar, and the cost is linear in that ticker's
    history. The filter stays so a mixed universe still aligns correctly.

    Day 0 is the bar on, or the first trading day after, the event's
    effective date. Offsets count data rows, so a window only loses
    coverage where the series runs out of rows at either end. A window is
    returned as long as ``coverage >= min_coverage``; below that a
    CoverageError is raised so incomplete samples are dropped loudly
    rather than silently truncated.
    """
    if pre_days < 0 or post_days < 0:
        raise DataError("pre_days and post_days must be >= 0")
    if not 0.0 <= min_coverage <= 1.0:
        raise DataError(f"min_coverage ({min_coverage}) must be in [0, 1]")

    series = [b for b in bars if b.ticker == event.ticker]
    if not series:
        raise CoverageError(f"no bars for ticker {event.ticker!r}")
    dates = [b.date for b in series]
    for prev, cur in zip(dates, dates[1:]):
        if cur <= prev:
            raise DataError(
                f"bars for {event.ticker!r} must be strictly date-sorted"
            )

    anchor = bisect_left(dates, event.effective_date)
    if anchor == len(series):
        raise CoverageError(
            f"cannot anchor: no bar on/after {event.effective_date} "
            f"for {event.ticker!r}"
        )

    lo = max(0, anchor - pre_days)
    hi = min(len(series) - 1, anchor + post_days)
    selected = series[lo : hi + 1]
    offsets = tuple(range(lo - anchor, hi - anchor + 1))
    requested = pre_days + post_days + 1
    coverage = len(selected) / requested
    if coverage < min_coverage:
        raise CoverageError(
            f"window coverage {coverage:.4f} below minimum {min_coverage} "
            f"for {event.ticker!r} ({len(selected)}/{requested} trading days)"
        )
    return EventWindow(
        event=event,
        bars=tuple(selected),
        offsets=offsets,
        coverage=coverage,
        span=(-pre_days, post_days),
    )
