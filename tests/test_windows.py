"""Event-window alignment: anchoring, truncation, coverage policy."""

import datetime

import pytest

from splitstudy.errors import CoverageError, DataError
from splitstudy.models import SplitEvent
from splitstudy.windows import align_to_event

from conftest import daily_bars

D = datetime.date


def test_continuous_series_gives_full_183_day_window():
    bars = daily_bars([10.0] * 200)
    event = SplitEvent("X", bars[95].date, 2.0)
    window = align_to_event(bars, event, 91, 91)
    assert len(window) == 183
    assert window.coverage == 1.0
    assert window.offsets[0] == -91 and window.offsets[-1] == 91
    assert window.bars.dates[window.offsets.index(0)] == event.effective_date


def test_zero_span_window_is_single_anchor_bar():
    bars = daily_bars([10.0] * 10)
    event = SplitEvent("X", bars[4].date, 2.0)
    window = align_to_event(bars, event, 0, 0)
    assert len(window) == 1
    assert tuple(window.offsets) == (0,)


def test_weekend_effective_date_anchors_next_trading_day():
    bars = daily_bars([10.0] * 10, start=D(2013, 1, 7))  # Monday start
    saturday = D(2013, 1, 12)
    assert saturday.weekday() == 5
    window = align_to_event(bars, SplitEvent("X", saturday, 2.0), 2, 2)
    # the following Monday
    assert window.bars.dates[window.offsets.index(0)] == D(2013, 1, 14)


def test_gapped_series_fails_min_coverage():
    # 183 trading days with every 5th row missing: ~20% of rows gone, so a
    # +/-91-day window cannot be filled from what remains.
    full = daily_bars([10.0] * 183)
    gapped = [b for i, b in enumerate(full) if i % 5 != 0]
    event = SplitEvent("X", full[91].date, 2.0)
    with pytest.raises(CoverageError, match="coverage"):
        align_to_event(gapped, event, 91, 91, min_coverage=0.95)
    window = align_to_event(gapped, event, 91, 91, min_coverage=0.0)
    assert window.coverage < 0.95


def test_cannot_anchor_without_post_event_bar():
    bars = daily_bars([10.0] * 5)
    late = SplitEvent("X", bars[-1].date + datetime.timedelta(days=30), 2.0)
    with pytest.raises(CoverageError, match="anchor"):
        align_to_event(bars, late, 2, 2)


def test_no_bars_for_ticker():
    bars = daily_bars([10.0] * 5, ticker="A")
    with pytest.raises(CoverageError, match="no bars"):
        align_to_event(bars, SplitEvent("B", bars[0].date, 2.0), 1, 1)


def test_negative_spans_rejected():
    bars = daily_bars([10.0] * 5)
    with pytest.raises(DataError):
        align_to_event(bars, SplitEvent("X", bars[2].date, 2.0), -1, 0)


def test_truncated_window_keeps_offset_zero():
    bars = daily_bars([10.0] * 10)
    event = SplitEvent("X", bars[2].date, 2.0)
    window = align_to_event(bars, event, 5, 5, min_coverage=0.0)
    assert window.offsets[0] == -2  # only two bars exist before the anchor
    assert 0 in window.offsets
    assert window.coverage == pytest.approx(8 / 11)
