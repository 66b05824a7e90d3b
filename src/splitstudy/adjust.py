"""Retroactive split adjustment of raw bar series.

A bar strictly before an event's effective date is divided by that event's
ratio; stacked events compose multiplicatively. Bars on or after an event
date already trade at post-split prices and are left alone. In
``prices_and_volume`` mode volumes are scaled up by the same factor, which
keeps per-bar notional (close x volume) constant to within rounding.

Events are grouped by ticker once, so each bar's factor is a product over
its own ticker's events only, taken in their input order.
"""

from __future__ import annotations

from array import array
from typing import Sequence

from .errors import DataError
from .models import PRICE_COLUMNS, BarTable, SplitEvent, group_by_ticker

PRICES = "prices"
PRICES_AND_VOLUME = "prices_and_volume"


def cumulative_factor(date, events: Sequence[SplitEvent]) -> float:
    """Product of ratios of all events strictly after ``date``."""
    factor = 1.0
    for event in events:
        if date < event.effective_date:
            factor *= event.ratio
    return factor


def split_adjust(
    bars: BarTable,
    events: Sequence[SplitEvent],
    mode: str = PRICES,
) -> BarTable:
    """Return bars with prices (and optionally volumes) put on a post-split basis.

    The result is a table with columns of its own. Events apply only to
    bars of their own ticker. ``mode`` is ``"prices"`` or
    ``"prices_and_volume"``.
    """
    if mode not in (PRICES, PRICES_AND_VOLUME):
        raise DataError(f"unknown adjustment mode {mode!r}")
    events_by_ticker = group_by_ticker(events)
    factors = [
        cumulative_factor(date, events_by_ticker.get(ticker, ()))
        for ticker, rows in bars.ranges.items()
        for date in bars.dates[rows.start : rows.stop]
    ]
    # Dividing by a factor of 1 leaves a price as it is.
    prices = [
        array("d", [price / f for price, f in zip(getattr(bars, name), factors)])
        for name in PRICE_COLUMNS
    ]
    volumes = bars.volume
    if mode == PRICES_AND_VOLUME:
        scaled = [v if f == 1.0 else round(v * f) for v, f in zip(volumes, factors)]
        try:
            volumes = array("q", scaled)
        except OverflowError:
            raise DataError("a split-adjusted volume exceeds the int64 range") from None
    return BarTable(bars.dates, prices, volumes, bars.ranges)
