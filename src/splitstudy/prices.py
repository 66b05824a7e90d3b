"""Price analytics: trajectory grouping, market-value algebra and the
high-low price-gap liquidity proxy.

The 183-day window is grouped as [-91,-31], [-30,+30], [+31,+91]
(61 trading days each). Price levels default to the adjusted close;
the raw close is selectable per run.

Gap analytics exist on two bases. The raw basis is what the tape shows
and mechanically shrinks by 1/ratio across a split; the split_adjusted
basis divides pre-split gaps by the ratio so a genuine liquidity change
can be separated from split arithmetic. Reports carry both.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from decimal import Decimal
from operator import sub

from .errors import DataError
from .models import EventWindow

GROUP_1 = (-91, -31)
GROUP_2 = (-30, 30)
GROUP_3 = (31, 91)

RAW = "raw"
SPLIT_ADJUSTED = "split_adjusted"

ADJ_CLOSE = "adj_close"
CLOSE = "close"

# Offsets count trading rows, so only where a window ran out of rows does
# the nearest bar within this many trading days stand in for a price.
NEAREST_TOLERANCE = 3


@dataclass(frozen=True)
class PeriodAverages:
    """Mean price per offset group over the 183-day event window."""

    g1_avg: float
    g2_avg: float
    g3_avg: float
    price_field: str = ADJ_CLOSE


@dataclass(frozen=True)
class ValueFactor:
    """Market-value ratio V2/V1 implied by a price factor and split ratio.

    Share count scales by the split ratio while per-share price scales by
    the price factor, so the value factor is exactly their product.
    """

    price_factor: float
    split_ratio: float
    value_factor: float


@dataclass(frozen=True, slots=True)
class GapMeans:
    """Mean high-low gap before and after day 0 over a range, on a basis.

    Day 0 is excluded from both means, mirroring the volume comparison
    convention; a side with no bar has no mean. A gap is never negative:
    every bar has low <= high.
    """

    basis: str
    mean_gap_before: float | None
    mean_gap_after: float | None


@dataclass(frozen=True, slots=True)
class GapSeries(GapMeans):
    """Per-offset high-low gaps over a range of offsets, with their means."""

    offsets: range
    gaps: array


def period_averages(
    window: EventWindow, price_field: str = ADJ_CLOSE
) -> PeriodAverages:
    """Arithmetic mean price over the three fixed offset groups."""
    if price_field not in (ADJ_CLOSE, CLOSE):
        raise DataError(f"unknown price field {price_field!r}")
    means = []
    for lo, hi in (GROUP_1, GROUP_2, GROUP_3):
        prices = getattr(window.bars, price_field)[window.between(lo, hi)[1]]
        if not prices:
            raise DataError(f"no bars in group [{lo}, {hi}]")
        means.append(sum(prices) / len(prices))
    return PeriodAverages(*means, price_field=price_field)


def price_at(
    window: EventWindow,
    offset: int,
    price_field: str = ADJ_CLOSE,
    min_offset: int | None = None,
    max_offset: int | None = None,
) -> float:
    """Price at the allowed offset nearest ``offset``, at most
    ``NEAREST_TOLERANCE`` away: ``offset`` clamped into the window's
    consecutive offsets narrowed to [``min_offset``, ``max_offset``], so a
    pre-split endpoint never borrows a post-split bar."""
    if price_field not in (ADJ_CLOSE, CLOSE):
        raise DataError(f"unknown price field {price_field!r}")
    first, last = window.offsets[0], window.offsets[-1]
    lo = first if min_offset is None else max(first, min_offset)
    hi = last if max_offset is None else min(last, max_offset)
    nearest = min(max(offset, lo), hi)
    if lo <= hi and abs(nearest - offset) <= NEAREST_TOLERANCE:
        return getattr(window.bars, price_field)[nearest - first]
    raise DataError(f"no bar within {NEAREST_TOLERANCE} trading days of offset {offset}")


def _same_side_price(window: EventWindow, offset: int, price_field: str) -> float:
    """``price_at`` substituting only from ``offset``'s side of day 0."""
    bounds = (None, -1) if offset < 0 else (0, None)
    return price_at(window, offset, price_field, *bounds)


def price_change_pct(
    window: EventWindow, lo: int, hi: int, price_field: str = ADJ_CLOSE
) -> float:
    """Percent price change from offset lo to offset hi.

    Each endpoint substitutes only from its own side of the split: a
    negative offset from offsets <= -1, any other from offsets >= 0.
    """
    start = _same_side_price(window, lo, price_field)
    end = _same_side_price(window, hi, price_field)
    return 100.0 * (end - start) / start


def value_factor(price_factor: float, split_ratio: float) -> ValueFactor:
    """Market-value factor V2/V1 = price_factor x split_ratio.

    Computed in decimal arithmetic on the operands' shortest decimal
    representations, so printed-decimal inputs multiply exactly
    (0.52 x 1.1 is 0.572, not 0.5720000000000001).
    """
    if not price_factor > 0:
        raise DataError(f"price factor ({price_factor}) must be > 0")
    if not split_ratio > 0:
        raise DataError(f"split ratio ({split_ratio}) must be > 0")
    product = Decimal(repr(price_factor)) * Decimal(repr(split_ratio))
    return ValueFactor(
        price_factor=price_factor,
        split_ratio=split_ratio,
        value_factor=float(product),
    )


def _gaps(
    window: EventWindow, lo: int, hi: int, basis: str
) -> tuple[range, array, GapMeans]:
    """The present offsets in [lo, hi], their gaps on ``basis`` and the means."""
    if basis not in (RAW, SPLIT_ADJUSTED):
        raise DataError(f"unknown gap basis {basis!r}")
    offsets, rows = window.between(lo, hi)
    if not offsets:
        raise DataError(f"no bars in range [{lo}, {hi}]")
    bars = window.bars
    gaps = array("d", map(sub, bars.high[rows], bars.low[rows]))
    # Offsets increase, so the pre-split (negative) ones come first.
    pre, post = bisect_left(offsets, 0), bisect_right(offsets, 0)
    if basis == SPLIT_ADJUSTED:
        ratio = window.event.ratio
        gaps[:pre] = array("d", [g / ratio for g in gaps[:pre]])
    before, after = gaps[:pre], gaps[post:]
    return offsets, gaps, GapMeans(
        basis,
        sum(before) / len(before) if before else None,
        sum(after) / len(after) if after else None,
    )


def gap_series(
    window: EventWindow, lo: int, hi: int, basis: str = RAW
) -> GapSeries:
    """Per-offset high-low gap over [lo, hi] on the chosen basis."""
    offsets, gaps, means = _gaps(window, lo, hi, basis)
    return GapSeries(
        basis, means.mean_gap_before, means.mean_gap_after, offsets, gaps
    )


def gap_means(window: EventWindow, lo: int, hi: int, basis: str = RAW) -> GapMeans:
    """``gap_series``' means, its errors included, without keeping its gaps."""
    return _gaps(window, lo, hi, basis)[2]
