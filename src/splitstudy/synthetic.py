"""Synthetic market histories with known ground truth.

Determinism contract: one RNG stream per scenario, seeded from
``ScenarioSpec.seed``. Only ``random.Random.random()`` is consumed (its
stream is pinned across Python versions); normals come from an in-module
Box-Muller transform, and every bar draws in a fixed order (price step,
high extension, low extension, volume). Identical specs therefore
reproduce identical histories.

Price model: a multiplicative random walk in adjusted space with step
factor exp(drift - vol^2/2 + vol*z), so the expected gross return over h
days is exactly exp(h * drift). Raw prices multiply the adjusted path by
the split ratio before the split day; raw volumes scale by the ratio from
the split day on (the mechanical effect of more shares outstanding) and
by the announcement boost over its post-split span.
"""

from __future__ import annotations

import datetime
import math
import random
from dataclasses import dataclass
from typing import Sequence

from .errors import DataError
from .models import (
    FundamentalRecord,
    ReferenceRateSeries,
    SplitEvent,
    TradingBar,
)
from .returns import pct_change_series

PRICE_DECIMALS = 4


@dataclass(frozen=True)
class ScenarioSpec:
    """Parameters of one synthetic split scenario."""

    seed: int
    n_days: int = 500
    initial_price: float = 50.0
    daily_drift: float = 0.0
    daily_vol: float = 0.02
    base_volume: int = 100_000
    volume_noise: float = 0.2
    split_day: int = 250
    split_ratio: float = 2.0
    announcement_volume_boost: float = 1.0
    volume_boost_days: int = 30
    post_split_drift_shift: float = 0.0
    ticker: str = "SYN"
    start_date: datetime.date = datetime.date(2013, 1, 1)

    def __post_init__(self) -> None:
        if self.n_days < 2:
            raise DataError(f"n_days ({self.n_days}) must be >= 2")
        if not self.initial_price > 0:
            raise DataError("initial_price must be > 0")
        if self.daily_vol < 0 or self.volume_noise < 0:
            raise DataError("volatility parameters must be >= 0")
        if self.base_volume < 1:
            raise DataError("base_volume must be >= 1")
        if not 1 <= self.split_day <= self.n_days - 1:
            raise DataError(
                f"split_day ({self.split_day}) must lie inside the series"
            )
        if not self.split_ratio > 0:
            raise DataError("split_ratio must be > 0")
        if not self.announcement_volume_boost > 0:
            raise DataError("announcement_volume_boost must be > 0")
        if self.volume_boost_days < 0:
            raise DataError("volume_boost_days must be >= 0")


def _gauss(rng: random.Random) -> float:
    # Box-Muller on random() only; 1 - random() keeps the log argument in (0, 1].
    u1 = 1.0 - rng.random()
    u2 = rng.random()
    return math.sqrt(-2.0 * math.log(u1)) * math.cos(2.0 * math.pi * u2)


def trading_calendar(start: datetime.date, n_days: int) -> list[datetime.date]:
    """First n_days weekdays on or after ``start``."""
    days: list[datetime.date] = []
    current = start
    while len(days) < n_days:
        if current.weekday() < 5:
            days.append(current)
        current += datetime.timedelta(days=1)
    return days


def generate_history(spec: ScenarioSpec) -> tuple[list[TradingBar], SplitEvent]:
    """Generate one scenario's bars (raw OHLCV + adjusted close) and its event."""
    rng = random.Random(spec.seed)
    dates = trading_calendar(spec.start_date, spec.n_days)
    half_var = 0.5 * spec.daily_vol * spec.daily_vol
    vol_half_var = 0.5 * spec.volume_noise * spec.volume_noise

    bars: list[TradingBar] = []
    adj_close = spec.initial_price
    for t in range(spec.n_days):
        adj_open = adj_close
        if t > 0:
            drift = spec.daily_drift
            if t > spec.split_day:
                drift += spec.post_split_drift_shift
            z = _gauss(rng)
            adj_close = adj_close * math.exp(drift - half_var + spec.daily_vol * z)
        hi_ext = 0.5 * spec.daily_vol * rng.random()
        lo_ext = 0.5 * spec.daily_vol * rng.random()
        adj_high = max(adj_open, adj_close) * (1.0 + hi_ext)
        adj_low = min(adj_open, adj_close) * (1.0 - lo_ext)

        z_vol = _gauss(rng)
        scale = 1.0
        if t >= spec.split_day:
            scale *= spec.split_ratio
        if spec.split_day < t <= spec.split_day + spec.volume_boost_days:
            scale *= spec.announcement_volume_boost
        volume = max(
            1,
            round(
                spec.base_volume
                * math.exp(spec.volume_noise * z_vol - vol_half_var)
                * scale
            ),
        )

        price_factor = spec.split_ratio if t < spec.split_day else 1.0
        open_ = round(adj_open * price_factor, PRICE_DECIMALS)
        close = round(adj_close * price_factor, PRICE_DECIMALS)
        high = round(adj_high * price_factor, PRICE_DECIMALS)
        low = round(adj_low * price_factor, PRICE_DECIMALS)
        # 4dp rounding can nudge an extreme inside the open/close range.
        high = max(high, open_, close)
        low = max(min(low, open_, close), 10.0**-PRICE_DECIMALS)
        adj_rounded = round(adj_close, PRICE_DECIMALS)
        if close <= 0 or adj_rounded <= 0:
            raise DataError(
                f"scenario parameters produced a nonpositive price on day {t}"
            )
        bars.append(
            TradingBar(
                ticker=spec.ticker,
                date=dates[t],
                open=open_,
                high=high,
                low=low,
                close=close,
                adj_close=adj_rounded,
                volume=volume,
            )
        )

    event = SplitEvent(
        ticker=spec.ticker,
        effective_date=dates[spec.split_day],
        ratio=spec.split_ratio,
    )
    return bars, event


def reference_rates(bars: Sequence[TradingBar]) -> ReferenceRateSeries:
    """Daily adjusted-close returns of a bar series, dated by the later bar.

    Useful as a synthetic reference series; pairing a scenario with its own
    returns makes the covariance-variant beta exactly 1.
    """
    if len(bars) < 2:
        raise DataError("need at least 2 bars for a return series")
    rates = pct_change_series([bar.adj_close for bar in bars])
    return ReferenceRateSeries(tuple(bar.date for bar in bars[1:]), tuple(rates))
