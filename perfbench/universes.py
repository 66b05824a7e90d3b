"""Seeded input universes for the benchmark, with their ground truth.

Each workload writes the engine's four CSV inputs plus ``truth.json``:
the sample ids the engine must analyze, the ids it must exclude for low
window coverage, and the 30-day, 90-day and half-year before/after volume
totals, summed with plain loops over the generated bars. Generation runs
in the benchmark's orchestrating process, never in the measured one.

Every workload has a fixed size; the seed changes only the drawn values,
so runs with different seeds do the same amount of work.
"""

from __future__ import annotations

import datetime
import json
import random
from pathlib import Path

from splitstudy.demo import demo_universe
from splitstudy.ingest import write_bars, write_fundamentals, write_rates, write_splits
from splitstudy.models import FundamentalRecord, SplitEvent, TradingBar
from splitstudy.synthetic import (
    PRICE_DECIMALS,
    ScenarioSpec,
    generate_history,
    reference_rates,
)

# The engine's documented defaults: a [-126, +252] window (the half-year of
# 6 x 21 trading days before, 12 months after) kept at >= 95% coverage, and
# day 0 excluded from every before/after range.
PRE_SPAN = 126
POST_SPAN = 252
MIN_COVERAGE = 0.95
# report.json's before/after volume comparisons and the span of each.
VOLUME_SPANS = {"volume_comparison": 30, "volume_comparison_90": 90,
                "volume_comparison_half_year": 126}
START_DATE = datetime.date(2013, 1, 1)


def _fundamentals(ticker: str, years: range, rng: random.Random) -> list[FundamentalRecord]:
    # The same recurrence as demo._demo_fundamentals, which ties its records
    # to one split's year and the two after it; deep-adjusted tickers split
    # several times and need a record for every year of their history.
    profit = round(500.0 + 1500.0 * rng.random(), 2)
    records = []
    for year in years:
        equity = round(profit / (0.05 + 0.10 * rng.random()), 2)
        records.append(FundamentalRecord(ticker, year, profit, equity))
        profit = round(profit * (0.5 + 1.2 * rng.random()), 2) or 0.01
    return records


def _market_rates(seed: int, n_days: int):
    market, _ = generate_history(
        ScenarioSpec(
            seed=seed, n_days=n_days, initial_price=1000.0, daily_drift=0.0002,
            daily_vol=0.01, split_day=1, split_ratio=1.0, ticker="MKT",
            start_date=START_DATE,
        )
    )
    return reference_rates(market)


def _demo9(seed: int):
    bars, events, fundamentals, rates = demo_universe(seed)
    return bars, events, fundamentals, rates, "raw"


def _wide(seed: int, n_tickers: int, n_days: int):
    """One split per ticker, each placed so its window is fully covered."""
    rng = random.Random(seed)
    bars: list[TradingBar] = []
    events: list[SplitEvent] = []
    fundamentals: list[FundamentalRecord] = []
    for i in range(n_tickers):
        spec = ScenarioSpec(
            seed=seed * 1_000_003 + i,
            n_days=n_days,
            initial_price=10.0 + 90.0 * rng.random(),
            daily_drift=0.001 * (rng.random() - 0.5),
            daily_vol=0.01 + 0.02 * rng.random(),
            base_volume=20_000 + int(200_000 * rng.random()),
            split_day=rng.randint(PRE_SPAN, n_days - 1 - POST_SPAN),
            split_ratio=rng.choice((1.25, 1.5, 2.0, 3.0, 4.0)),
            announcement_volume_boost=0.8 + 0.4 * rng.random(),
            ticker=f"W{i:03d}",
            start_date=START_DATE,
        )
        sample_bars, event = generate_history(spec)
        bars.extend(sample_bars)
        events.append(event)
        year = event.effective_date.year
        fundamentals.extend(_fundamentals(spec.ticker, range(year, year + 3), rng))
    rates = _market_rates(seed * 1_000_003 + 999_999, n_days)
    return bars, events, fundamentals, rates, "raw"


# Split days of the deep universe that leave too little history to reach
# 95% coverage: (ticker index, split day), with split day < 0 counted from
# the series end. Exactly these three of the 48 events are excluded.
DEEP_EXCLUDED = ((0, -100), (1, 60), (2, -30))


def _deep(seed: int, n_tickers: int = 8, n_days: int = 2520, n_splits: int = 6):
    """Long histories with stacked splits, on the adjusted volume basis.

    The adjusted path comes from ``generate_history`` with ratio 1.0. Raw
    OHLC is that path times the product of the ratios of every later split;
    raw volume is the generated volume divided by the same factor.
    """
    rng = random.Random(seed)
    bars: list[TradingBar] = []
    events: list[SplitEvent] = []
    fundamentals: list[FundamentalRecord] = []
    lo, hi = PRE_SPAN, n_days - 1 - POST_SPAN
    segment = (hi - lo) // n_splits
    for i in range(n_tickers):
        ticker = f"D{i:02d}"
        path, _ = generate_history(
            ScenarioSpec(
                seed=seed * 1_000_003 + i, n_days=n_days,
                initial_price=5.0 + 20.0 * rng.random(),
                daily_drift=0.0006 * (rng.random() - 0.3),
                daily_vol=0.01 + 0.01 * rng.random(),
                base_volume=200_000 + int(800_000 * rng.random()),
                split_day=1, split_ratio=1.0, ticker=ticker,
                start_date=START_DATE,
            )
        )
        dates = [b.date for b in path]
        split_days = [lo + k * segment + rng.randrange(segment) for k in range(n_splits)]
        for index, day in DEEP_EXCLUDED:
            if index == i:
                split_days[-1] = day % n_days
        split_days.sort()
        ratios = [rng.choice((1.5, 2.0, 3.0)) for _ in split_days]
        for t, bar in enumerate(path):
            factor = 1.0
            for day, ratio in zip(split_days, ratios):
                if t < day:
                    factor *= ratio
            open_ = round(bar.open * factor, PRICE_DECIMALS)
            close = round(bar.close * factor, PRICE_DECIMALS)
            bars.append(
                TradingBar(
                    ticker=ticker, date=bar.date, open=open_,
                    high=max(round(bar.high * factor, PRICE_DECIMALS), open_, close),
                    low=min(round(bar.low * factor, PRICE_DECIMALS), open_, close),
                    close=close, adj_close=bar.adj_close,
                    volume=max(1, round(bar.volume / factor)),
                )
            )
        events.extend(
            SplitEvent(ticker, dates[day], ratio) for day, ratio in zip(split_days, ratios)
        )
        fundamentals.extend(
            _fundamentals(ticker, range(dates[0].year, dates[-1].year + 1), rng)
        )
    rates = _market_rates(seed * 1_000_003 + 999_999, n_days)
    return bars, events, fundamentals, rates, "adjusted"


WORKLOADS = {
    "demo9": _demo9,
    "wide200": lambda seed: _wide(seed, n_tickers=200, n_days=540),
    "deep-adjusted": _deep,
    # Three tickers, for the harness's smoke test.
    "tiny": lambda seed: _wide(seed, n_tickers=3, n_days=400),
}


def ground_truth(bars, events, volume_basis: str) -> dict:
    """Expected samples, exclusions and volume totals, by plain loops."""
    by_ticker: dict[str, list[TradingBar]] = {}
    for bar in bars:
        by_ticker.setdefault(bar.ticker, []).append(bar)
    for series in by_ticker.values():
        series.sort(key=lambda b: b.date)
    ordered = sorted(events, key=lambda e: (e.ticker, e.effective_date))

    volume_by_ticker: dict[str, list[int]] = {}
    for ticker, series in by_ticker.items():
        volume = []
        for bar in series:
            factor = 1.0
            if volume_basis == "adjusted":
                for event in ordered:
                    if event.ticker == ticker and bar.date < event.effective_date:
                        factor *= event.ratio
            volume.append(round(bar.volume * factor))
        volume_by_ticker[ticker] = volume

    samples, excluded, volumes = [], [], {}
    for event in ordered:
        sample_id = f"{event.ticker}@{event.effective_date.isoformat()}"
        series = by_ticker[event.ticker]
        anchor = 0
        while series[anchor].date < event.effective_date:
            anchor += 1
        present = min(PRE_SPAN, anchor) + min(POST_SPAN, len(series) - 1 - anchor) + 1
        if present / (PRE_SPAN + POST_SPAN + 1) < MIN_COVERAGE:
            excluded.append(sample_id)
            continue
        samples.append(sample_id)
        volume = volume_by_ticker[event.ticker]
        totals = {}
        for key, span in VOLUME_SPANS.items():
            before = after = 0
            for t in range(len(series)):
                if anchor - span <= t <= anchor - 1:
                    before += volume[t]
                elif anchor + 1 <= t <= anchor + span:
                    after += volume[t]
            totals[key] = [before, after]
        volumes[sample_id] = totals
    return {
        "volume_basis": volume_basis,
        "samples": samples,
        "excluded": excluded,
        "volumes": volumes,
        "n_bars": len(bars),
        "n_events": len(events),
    }


def write_universe(workload: str, seed: int, out_dir: Path) -> dict:
    """Write the workload's four CSVs and truth.json; return the truth."""
    bars, events, fundamentals, rates, volume_basis = WORKLOADS[workload](seed)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_bars(out_dir / "bars.csv", bars)
    write_splits(out_dir / "splits.csv", events)
    write_fundamentals(out_dir / "fundamentals.csv", fundamentals)
    write_rates(out_dir / "rates.csv", rates)
    truth = ground_truth(bars, events, volume_basis)
    # truth.json is written last, and whole, so its presence marks a
    # complete set of inputs.
    partial = out_dir / "truth.json.partial"
    partial.write_text(json.dumps(truth), encoding="utf-8")
    partial.replace(out_dir / "truth.json")
    return truth
