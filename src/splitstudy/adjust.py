"""Retroactive split adjustment of an aligned window's volumes.

A bar strictly before an event's effective date traded before that split;
its volume is scaled up by the event's ratio, so it counts shares on the
post-split basis. Stacked events compose multiplicatively, in the order
they are given. Bars on or after an event date already trade post-split
and keep their volume. Prices are never divided: ``adj_close`` is the
feed's split-adjusted close, and ``close`` stays raw for the raw basis.
A raw price divided by the same factor would keep per-bar notional
(price x volume) constant to within rounding.
"""

from __future__ import annotations

from array import array
from dataclasses import replace
from typing import Sequence

from .errors import DataError
from .models import PRICE_COLUMNS, BarTable, EventWindow, SplitEvent


def cumulative_factor(date, events: Sequence[SplitEvent]) -> float:
    """Product of ratios of all events strictly after ``date``."""
    factor = 1.0
    for event in events:
        if date < event.effective_date:
            factor *= event.ratio
    return factor


def split_adjust(window: EventWindow, events: Sequence[SplitEvent]) -> EventWindow:
    """``window`` with its volumes put on a post-split basis.

    ``events`` are the window's ticker's events. Only the ``volume``
    column is new; the price columns are the window's own arrays.
    """
    bars = window.bars
    factors = (cumulative_factor(date, events) for date in bars.dates)
    scaled = [v if f == 1.0 else round(v * f) for v, f in zip(bars.volume, factors)]
    try:
        volume = array("q", scaled)
    except OverflowError:
        raise DataError("a split-adjusted volume exceeds the int64 range") from None
    prices = [getattr(bars, name) for name in PRICE_COLUMNS]
    return replace(window, bars=BarTable(bars.dates, prices, volume, bars.ranges))
