"""Trading-volume analytics: windowed totals, before/after comparisons,
market-wide aggregation and trend-line slopes.

Day 0 (the split day itself) belongs to neither regime and is excluded
from every before/after range. Totals treat missing offsets as zero
volume but carry the coverage fraction so reports can flag thin windows.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .errors import DataError
from .models import EventWindow
from .returns import pairwise_sum


@dataclass(frozen=True)
class WindowTotal:
    """Sum of volumes over an offset range, with coverage metadata."""

    total: int
    lo: int
    hi: int
    coverage: float


@dataclass(frozen=True)
class VolumeComparison:
    """Before/after volume totals with before treated as the 100% benchmark.

    ``after_pct_of_before`` is None when the before total is zero: the
    ratio is undefined and reported as such, never as infinity.
    """

    before_total: int
    after_total: int
    after_pct_of_before: float | None
    before_coverage: float = 1.0
    after_coverage: float = 1.0


@dataclass(frozen=True)
class TrendFit:
    """Least-squares line through (offset, volume) points.

    ``normalized_slope_pct`` expresses the slope as percent of the window's
    mean volume per trading day; it is None when the mean volume is zero.
    The raw slope is always available alongside.
    """

    slope: float
    intercept: float
    normalized_slope_pct: float | None
    n_points: int


def window_volume_total(window: EventWindow, lo: int, hi: int) -> WindowTotal:
    """Total volume over offsets [lo, hi]; missing offsets contribute 0."""
    if lo > hi:
        raise DataError(f"lo ({lo}) must be <= hi ({hi})")
    span_lo, span_hi = window.span
    if hi < span_lo or lo > span_hi:
        raise DataError(
            f"range [{lo}, {hi}] does not intersect window span "
            f"[{span_lo}, {span_hi}]"
        )
    offsets, rows = window.between(lo, hi)
    total = sum(window.bars.volume[rows])
    coverage = len(offsets) / (hi - lo + 1)
    return WindowTotal(total=total, lo=lo, hi=hi, coverage=coverage)


def compare_volume(window: EventWindow, span: int) -> VolumeComparison:
    """Compare total volume over [-span, -1] against [+1, +span]."""
    if span < 1:
        raise DataError(f"span ({span}) must be >= 1")
    before = window_volume_total(window, -span, -1)
    after = window_volume_total(window, 1, span)
    pct = 100.0 * after.total / before.total if before.total > 0 else None
    return VolumeComparison(
        before_total=before.total,
        after_total=after.total,
        after_pct_of_before=pct,
        before_coverage=before.coverage,
        after_coverage=after.coverage,
    )


def aggregate_volume_share(
    comparisons: Sequence[VolumeComparison],
) -> tuple[float, float]:
    """Market-wide (before_share, after_share) over all samples; sums to 1."""
    if not comparisons:
        raise DataError("at least one comparison is required")
    before = sum(c.before_total for c in comparisons)
    after = sum(c.after_total for c in comparisons)
    grand = before + after
    if grand == 0:
        raise DataError("all volume totals are zero; shares undefined")
    return before / grand, after / grand


def ols_fit(xs: Sequence[float], ys: Sequence[float]) -> tuple[float, float]:
    """(slope, intercept) minimizing squared residuals, via centered sums."""
    if len(xs) != len(ys):
        raise DataError(f"length mismatch: {len(xs)} vs {len(ys)}")
    if len(xs) < 2:
        raise DataError(f"need at least 2 points for a fit, got {len(xs)}")
    x = list(map(float, xs))
    y = list(map(float, ys))
    n = len(x)
    x_mean = pairwise_sum(x) / n
    y_mean = pairwise_sum(y) / n
    dx = [v - x_mean for v in x]
    sxx = pairwise_sum([d * d for d in dx])
    if sxx == 0.0:
        raise DataError("zero variance in x; slope undefined")
    slope = pairwise_sum([d * (v - y_mean) for d, v in zip(dx, y)]) / sxx
    return slope, y_mean - slope * x_mean


def volume_trend(window: EventWindow, lo: int, hi: int) -> TrendFit:
    """OLS fit of volume against trading-day offset over [lo, hi]."""
    offsets, rows = window.between(lo, hi)
    if len(offsets) < 2:
        raise DataError(
            f"need at least 2 bars in [{lo}, {hi}] for a trend, got {len(offsets)}"
        )
    volumes = window.bars.volume[rows]
    slope, intercept = ols_fit(offsets, volumes)
    y_mean = sum(volumes) / len(volumes)
    normalized = 100.0 * slope / y_mean if y_mean != 0.0 else None
    return TrendFit(
        slope=slope,
        intercept=intercept,
        normalized_slope_pct=normalized,
        n_points=len(offsets),
    )
