"""Split adjustment of a window's volumes: stacking, identity, notional."""

import dataclasses

from hypothesis import given, strategies as st

from splitstudy.adjust import cumulative_factor, split_adjust
from splitstudy.models import PRICE_COLUMNS, SplitEvent
from splitstudy.report import RunParams, analyze_universe
from splitstudy.windows import align_to_event

from conftest import daily_bars


def _window(bars, day0):
    """The window over all of ``bars`` around a ratio-2 split at ``day0``."""
    event = SplitEvent(bars[0].ticker, bars[day0].date, 2.0)
    return align_to_event(bars, event, day0, len(bars) - day0 - 1)


def assert_only_volume_changed(before, after):
    """Every price column of ``after`` holds the bits of ``before``'s."""
    for name in PRICE_COLUMNS:
        assert getattr(after, name).tobytes() == getattr(before, name).tobytes(), name
    assert after.dates == before.dates and after.ranges == before.ranges
    assert after.volume != before.volume


def test_ratio_two_doubles_pre_split_volumes():
    window = _window(daily_bars([10.0] * 6), 3)
    adjusted = split_adjust(window, [window.event])
    assert list(adjusted.bars.volume) == [2000, 2000, 2000, 1000, 1000, 1000]
    assert dataclasses.replace(adjusted, bars=window.bars) == window


def test_prices_are_never_divided():
    # adj_close is already split-adjusted by the feed; dividing it again
    # would put it off by the factor.
    bars = daily_bars([12.0, 12.5, 13.0, 6.5, 6.0], volumes=[10, 20, 30, 40, 50])
    bars = [dataclasses.replace(b, adj_close=b.close / 3) for b in bars]
    window = _window(bars, 3)
    events = [SplitEvent("X", bars[1].date, 1.5), window.event]
    adjusted = split_adjust(window, events)
    assert_only_volume_changed(window.bars, adjusted.bars)
    assert list(adjusted.bars.volume) == [30, 40, 60, 40, 50]


def test_ratio_one_event_is_identity():
    window = _window(daily_bars([10.0, 11.0, 12.0], volumes=[7, 8, 9]), 1)
    event = SplitEvent("X", window.event.effective_date, 1.0)
    assert list(split_adjust(window, [event]).bars) == list(window.bars)


def test_stacked_events_compose_multiplicatively():
    # Hand-composed 5-bar window: events of ratio 2 (day 2) then 3 (day 4).
    window = _window(daily_bars([12.0] * 5), 2)
    e2 = SplitEvent("X", window.bars.dates[4], 3.0)
    adjusted = split_adjust(window, [window.event, e2])
    assert list(adjusted.bars.volume) == [6000, 6000, 3000, 3000, 1000]


def test_other_ticker_events_do_not_apply():
    # B splits inside A's window; only A's own split scales A's volumes.
    a_bars = daily_bars([10.0] * 20, ticker="A")
    b_bars = daily_bars([10.0] * 20, ticker="B")
    events = [
        SplitEvent("A", a_bars[10].date, 2.0),
        SplitEvent("B", b_bars[15].date, 3.0),
    ]
    samples, _ = analyze_universe(
        a_bars + b_bars, events, [], None,
        RunParams(hypothesis="h1", volume_basis="adjusted", min_coverage=0.0),
    )
    volumes = {s.event.ticker: list(s.volume_series.values) for s in samples}
    assert volumes["A"] == [2000] * 10 + [1000] * 10
    assert volumes["B"] == [3000] * 15 + [1000] * 5


def test_volume_mode_preserves_notional_within_rounding():
    window = _window(daily_bars([10.0] * 5, volumes=[101, 333, 1007, 55, 7]), 4)
    event = SplitEvent("X", window.event.effective_date, 1.569)
    adjusted = split_adjust(window, [event])
    bars = window.bars
    for date, close, raw, adj in zip(bars.dates, bars.close, bars.volume,
                                     adjusted.bars.volume):
        adjusted_close = close / cumulative_factor(date, [event])
        assert abs(adjusted_close * adj - close * raw) <= 0.5 * adjusted_close


@given(
    r1=st.floats(min_value=1.01, max_value=10.0, allow_nan=False),
    r2=st.floats(min_value=1.01, max_value=10.0, allow_nan=False),
)
def test_sequential_adjustment_composes(r1, r2):
    bars = daily_bars([50.0] * 8, volumes=[1000 + 7 * i for i in range(8)])
    window = _window(bars, 3)
    e1 = SplitEvent("X", bars[3].date, r1)
    e2 = SplitEvent("X", bars[6].date, r2)
    joint = split_adjust(window, [e1, e2]).bars.volume
    sequential = split_adjust(split_adjust(window, [e1]), [e2]).bars.volume
    for a, b in zip(joint, sequential):  # each rounding moves a volume <= 0.5
        assert abs(a - b) <= 0.5 * r2 + 1


def test_idempotent_for_degenerate_events():
    window = _window(daily_bars([10.0, 20.0, 30.0]), 1)
    event = SplitEvent("X", window.event.effective_date, 1.0)
    once = split_adjust(window, [event])
    twice = split_adjust(once, [event])
    assert list(twice.bars) == list(once.bars) == list(window.bars)
