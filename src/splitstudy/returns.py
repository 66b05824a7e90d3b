"""Period returns, beta estimation and abnormal-return computation.

The baseline ("normal") return is the adjusted close at offset -1 over
that at -120; the post-split gross return, the close at the horizon over
that at day 0, times the stock's beta is the market-influenced return, and
the abnormal return is the difference of the two. ``prices.price_at``
reads each close from its own side of the split. A variant replaces the
baseline's start price with the virtual demarcation price, the midpoint
of the 120-day pre-event window.

Beta is a covariance/variance ratio against a reference return series.
A correlation/variance variant exists as well; both are implemented and
every estimate is labeled with the variant that produced it. The
denominator is the variance of the stock's own returns in both.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .errors import CoverageError, DataError
from .models import EventWindow, ReferenceRateSeries
from .prices import ADJ_CLOSE, price_at

PRE_WINDOW_DAYS = 120
# Bars 60 and 61 of the 120-bar pre-event window, i.e. its midpoint.
DEMARCATION_OFFSETS = (-61, -60)

COVARIANCE = "covariance"
CORRELATION = "correlation"

FULL_PERIOD = "full_period"
DEMARCATION = "demarcation"


@dataclass(frozen=True)
class BetaEstimate:
    beta: float
    variant: str
    n_obs: int

    def __post_init__(self) -> None:
        if self.variant not in (COVARIANCE, CORRELATION):
            raise DataError(f"unknown beta variant {self.variant!r}")
        if self.n_obs < 2:
            raise DataError(f"beta needs n_obs >= 2, got {self.n_obs}")


@dataclass(frozen=True)
class AbnormalReturn:
    """Difference between the beta-scaled post-split return and the baseline."""

    horizon: int
    normal_return: float
    market_influenced_return: float
    abnormal: float
    baseline: str = FULL_PERIOD


def pairwise_sum(values: Sequence[float]) -> float:
    """Sum of ``values`` with the bits of NumPy's float64 ``add.reduce``.

    Mirrors ``pairwise_sum`` in NumPy's
    ``numpy/_core/src/umath/loops_utils.h.src``: fewer than 8 values are
    added in a plain loop from -0.0; up to 128 go to eight accumulators
    seeded with the first eight values and stepped 8 at a time, combined as
    ((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7)) before the n mod 8 leftovers are
    added in order; longer runs split at ``n//2 - (n//2) % 8`` and recurse.
    The reduction starts from its identity 0.0, so ``[]`` and ``[-0.0]``
    both sum to 0.0. Every addition is float, so ints are rounded to float
    first, as NumPy's cast does. ``math.fsum``, ``statistics.fmean`` and
    builtin ``sum`` round differently and must not replace it.
    """
    return 0.0 + _pairwise(values, 0, len(values))


def _pairwise(a: Sequence[float], lo: int, n: int) -> float:
    if n < 8:
        res = -0.0
        for x in a[lo : lo + n]:
            res += x
        return res
    if n <= 128:
        # -0.0 + x is x for every float, and makes an int a float first.
        r0, r1, r2, r3, r4, r5, r6, r7 = [-0.0 + x for x in a[lo : lo + 8]]
        end = lo + n - n % 8
        for i in range(lo + 8, end, 8):
            r0 += a[i]
            r1 += a[i + 1]
            r2 += a[i + 2]
            r3 += a[i + 3]
            r4 += a[i + 4]
            r5 += a[i + 5]
            r6 += a[i + 6]
            r7 += a[i + 7]
        res = ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7))
        for x in a[end : lo + n]:
            res += x
        return res
    n2 = n // 2
    n2 -= n2 % 8
    return _pairwise(a, lo, n2) + _pairwise(a, lo + n2, n - n2)


def pct_change_series(values: Sequence[float]) -> list[float]:
    """Period-to-period simple returns; output is one shorter than input."""
    if len(values) < 2:
        raise DataError("need at least 2 values for a return series")
    arr = list(map(float, values))
    if 0.0 in arr[:-1]:
        raise DataError("zero value in series; percent change undefined")
    return [(b - a) / a for a, b in zip(arr, arr[1:])]


def _centered(values: list[float]) -> list[float]:
    """Each value minus the mean of all, the mean summed by ``pairwise_sum``."""
    mean = pairwise_sum(values) / len(values)
    return [x - mean for x in values]


def _variance(values: list[float], centered: list[float]) -> float:
    """Population variance of ``values`` from their ``_centered`` form."""
    if min(values) == max(values):
        return 0.0
    return pairwise_sum([d * d for d in centered]) / len(values)


def variance(xs: Sequence[float]) -> float:
    """Population variance (divide by n); exactly 0 for a constant series."""
    if len(xs) < 2:
        raise DataError("variance needs at least 2 observations")
    arr = list(map(float, xs))
    return _variance(arr, _centered(arr))


def covariance(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Population covariance (divide by n); symmetric in its arguments."""
    if len(xs) != len(ys):
        raise DataError(f"length mismatch: {len(xs)} vs {len(ys)}")
    if len(xs) < 2:
        raise DataError("covariance needs at least 2 observations")
    a = _centered(list(map(float, xs)))
    b = _centered(list(map(float, ys)))
    return pairwise_sum([x * y for x, y in zip(a, b)]) / len(a)


def beta(
    stock_returns: Sequence[float],
    reference_returns: Sequence[float],
    variant: str = COVARIANCE,
) -> BetaEstimate:
    """Sensitivity of stock returns to the reference series.

    covariance variant:  Cov(reference, stock) / Var(stock)
    correlation variant: Corr(reference, stock) / Var(stock)

    Each series is converted to floats and centered once; the moments are
    those of ``variance`` and ``covariance``, bit for bit.
    """
    if variant not in (COVARIANCE, CORRELATION):
        raise DataError(f"unknown beta variant {variant!r}")
    if len(stock_returns) != len(reference_returns):
        raise DataError(
            f"length mismatch: {len(stock_returns)} vs {len(reference_returns)}"
        )
    n = len(stock_returns)
    if n < 2:
        raise DataError("variance needs at least 2 observations")
    stock = list(map(float, stock_returns))
    reference = list(map(float, reference_returns))
    stock_centered = _centered(stock)
    var_stock = _variance(stock, stock_centered)
    if var_stock == 0.0:
        raise DataError("stock return variance is zero; beta undefined")
    reference_centered = _centered(reference)
    cov = pairwise_sum([r * s for r, s in zip(reference_centered, stock_centered)]) / n
    if variant == COVARIANCE:
        value = cov / var_stock
    else:
        var_ref = _variance(reference, reference_centered)
        if var_ref == 0.0:
            raise DataError("reference return variance is zero; correlation undefined")
        corr = cov / math.sqrt(var_ref * var_stock)
        value = corr / var_stock
    return BetaEstimate(beta=value, variant=variant, n_obs=n)


def demarcation_price(window: EventWindow) -> float:
    """Mean adjusted close at the midpoint of the 120-day pre-event window."""
    try:
        prices = [
            price_at(window, off, ADJ_CLOSE, max_offset=-1)
            for off in DEMARCATION_OFFSETS
        ]
    except DataError as exc:
        raise CoverageError(f"demarcation bars unavailable: {exc}") from None
    return (prices[0] + prices[1]) / 2.0


def paired_returns(
    window: EventWindow, rates: ReferenceRateSeries, lo: int = -PRE_WINDOW_DAYS,
    hi: int = -1,
) -> tuple[list[float], list[float]]:
    """(stock, reference) daily returns over [lo, hi], paired by calendar date.

    Window dates with no reference rate are dropped; stock returns are then
    computed between consecutive matched dates and paired with the rate on
    the return's end date.
    """
    rows, bars = window.between(lo, hi)[1], window.bars
    matched = [
        (price, rate)
        for date, price in zip(bars.dates[rows], bars.adj_close[rows])
        if (rate := rates.rate_on(date)) is not None
    ]
    if len(matched) < 3:
        raise CoverageError(
            f"only {len(matched)} window dates match the reference series"
        )
    stock = pct_change_series([price for price, _ in matched])
    reference = [rate for _, rate in matched[1:]]
    return stock, reference


def beta_for_window(
    window: EventWindow,
    rates: ReferenceRateSeries,
    variant: str = COVARIANCE,
) -> BetaEstimate:
    """Beta over the 120-day pre-event window against the reference series."""
    stock, reference = paired_returns(window, rates)
    return beta(stock, reference, variant=variant)


def abnormal_return(
    window: EventWindow,
    horizon_days: int,
    beta_estimate: BetaEstimate,
    baseline: str = FULL_PERIOD,
) -> AbnormalReturn:
    """Abnormal return at a horizon: post gross return x beta, minus baseline.

    The post-split gross return runs from day 0 to ``horizon_days``; the
    ``demarcation`` baseline replaces the pre-period start price with the
    virtual demarcation price.
    """
    if horizon_days < 0:
        raise DataError(f"horizon_days ({horizon_days}) must be >= 0")
    if baseline not in (FULL_PERIOD, DEMARCATION):
        raise DataError(f"unknown baseline {baseline!r}")

    try:
        end_price = price_at(window, -1, ADJ_CLOSE, max_offset=-1)
        if baseline == FULL_PERIOD:
            start_price = price_at(window, -PRE_WINDOW_DAYS, ADJ_CLOSE, max_offset=-1)
        else:
            start_price = demarcation_price(window)
        normal = end_price / start_price
        post_start = price_at(window, 0, ADJ_CLOSE, min_offset=0)
        post = price_at(window, horizon_days, ADJ_CLOSE, min_offset=0) / post_start
    except DataError as exc:
        raise CoverageError(f"insufficient coverage for abnormal return: {exc}") from None

    market_influenced = post * beta_estimate.beta
    return AbnormalReturn(
        horizon=horizon_days,
        normal_return=normal,
        market_influenced_return=market_influenced,
        abnormal=market_influenced - normal,
        baseline=baseline,
    )
