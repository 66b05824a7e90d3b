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

from dataclasses import replace
from typing import Sequence

from .errors import DataError
from .models import SplitEvent, TradingBar, group_by_ticker

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
    bars: Sequence[TradingBar],
    events: Sequence[SplitEvent],
    mode: str = PRICES,
) -> list[TradingBar]:
    """Return bars with prices (and optionally volumes) put on a post-split basis.

    Events apply only to bars of their own ticker. ``mode`` is ``"prices"``
    or ``"prices_and_volume"``.
    """
    if mode not in (PRICES, PRICES_AND_VOLUME):
        raise DataError(f"unknown adjustment mode {mode!r}")
    events_by_ticker = group_by_ticker(events)
    adjusted: list[TradingBar] = []
    for bar in bars:
        factor = cumulative_factor(bar.date, events_by_ticker.get(bar.ticker, ()))
        if factor == 1.0:
            adjusted.append(bar)
            continue
        volume = bar.volume
        if mode == PRICES_AND_VOLUME:
            volume = round(bar.volume * factor)
        adjusted.append(
            replace(
                bar,
                open=bar.open / factor,
                high=bar.high / factor,
                low=bar.low / factor,
                close=bar.close / factor,
                adj_close=bar.adj_close / factor,
                volume=volume,
            )
        )
    return adjusted
