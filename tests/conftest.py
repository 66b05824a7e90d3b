"""Shared builders for synthetic bars and event windows."""

from __future__ import annotations

import datetime
import signal

import pytest

import oracles
import splitstudy.ingest
import splitstudy.report
import splitstudy.synthetic
from splitstudy.models import SplitEvent, TradingBar
from splitstudy.synthetic import trading_calendar
from splitstudy.windows import align_to_event

START = datetime.date(2013, 1, 1)

# The longest a test may run, where the platform has SIGALRM. The slowest
# test takes a few seconds; a fork helper that leaves a pipe end open blocks
# forever, and this makes it fail instead of stalling the suite.
TEST_DEADLINE_S = 120

# The acceptance gate (test_acceptance.py) is kept byte for byte and still
# imports the brute-force oracles from splitstudy.synthetic, their home
# before they moved to tests/oracles.py; hand them to it from here.
for _name in ("oracle_sum", "oracle_moments", "oracle_ols"):
    setattr(splitstudy.synthetic, _name, getattr(oracles, _name))


@pytest.fixture(autouse=True)
def deadline():
    """Fail the test once it has run ``TEST_DEADLINE_S`` seconds. A forked
    child does not inherit the alarm."""
    if not hasattr(signal, "SIGALRM"):
        yield
        return

    def expire(signum, frame):
        pytest.fail(f"test still running after its {TEST_DEADLINE_S} s deadline")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(TEST_DEADLINE_S)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@pytest.fixture
def ungated(monkeypatch):
    """Lift the size gates of the two fork paths, so that a small input is
    read and written by two processes as a large one is."""
    monkeypatch.setattr(splitstudy.ingest, "FORK_MIN_BYTES", 0)
    monkeypatch.setattr(splitstudy.report, "FORK_MIN_SAMPLES", 0)


def make_bar(
    ticker="X",
    date=START,
    close=10.0,
    open_=None,
    high=None,
    low=None,
    adj_close=None,
    volume=1000,
):
    open_ = close if open_ is None else open_
    body_hi = max(open_, close)
    body_lo = min(open_, close)
    return TradingBar(
        ticker=ticker,
        date=date,
        open=open_,
        high=body_hi if high is None else high,
        low=body_lo if low is None else low,
        close=close,
        adj_close=close if adj_close is None else adj_close,
        volume=volume,
    )


def daily_bars(closes, volumes=None, ticker="X", start=START, highs=None, lows=None):
    """One bar per weekday, close/adj_close from ``closes``."""
    dates = trading_calendar(start, len(closes))
    bars = []
    for i, date in enumerate(dates):
        volume = 1000 if volumes is None else volumes[i]
        bars.append(
            make_bar(
                ticker=ticker,
                date=date,
                close=closes[i],
                high=None if highs is None else highs[i],
                low=None if lows is None else lows[i],
                volume=volume,
            )
        )
    return bars


def window_for(
    closes,
    volumes=None,
    split_index=None,
    pre=None,
    post=None,
    ratio=2.0,
    ticker="X",
    min_coverage=0.0,
    highs=None,
    lows=None,
):
    """Build an EventWindow over synthetic bars with day 0 at split_index."""
    n = len(closes)
    if split_index is None:
        split_index = n // 2
    bars = daily_bars(closes, volumes, ticker=ticker, highs=highs, lows=lows)
    event = SplitEvent(
        ticker=ticker, effective_date=bars[split_index].date, ratio=ratio
    )
    pre = split_index if pre is None else pre
    post = n - split_index - 1 if post is None else post
    return align_to_event(bars, event, pre, post, min_coverage)


@pytest.fixture
def flat_window():
    """61-bar window of constant price 10 and volume 100, day 0 in the middle."""
    return window_for([10.0] * 61, volumes=[100] * 61, ratio=1.0)
