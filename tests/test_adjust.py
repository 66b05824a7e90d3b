"""Split-adjustment semantics: back-adjustment, stacking, notional."""

import datetime

import pytest
from hypothesis import given, strategies as st

from splitstudy.adjust import PRICES_AND_VOLUME, split_adjust
from splitstudy.errors import DataError
from splitstudy.models import BarTable, SplitEvent

from conftest import daily_bars

D = datetime.date


def _split_adjust(bars, events, *mode, **kwargs):
    """``split_adjust`` on the table of ``bars``, as a list of bars."""
    return list(split_adjust(BarTable.from_bars(bars), events, *mode, **kwargs))


def test_ratio_two_halves_pre_split_prices():
    bars = daily_bars([10.0] * 6)
    event = SplitEvent("X", bars[3].date, 2.0)
    adjusted = _split_adjust(bars, [event])
    assert [b.close for b in adjusted[:3]] == [5.0, 5.0, 5.0]
    assert adjusted[3:] == bars[3:]  # on/after the split: untouched
    assert [b.volume for b in adjusted] == [1000] * 6  # prices-only mode


def test_ratio_one_event_is_identity():
    bars = daily_bars([10.0, 11.0, 12.0])
    event = SplitEvent("X", bars[1].date, 1.0)
    assert _split_adjust(bars, [event]) == bars
    assert _split_adjust(bars, [event], PRICES_AND_VOLUME) == bars


def test_stacked_events_compose_multiplicatively():
    # Hand-composed 5-bar series: events of ratio 2 (day 2) then 3 (day 4).
    bars = daily_bars([12.0, 12.0, 12.0, 12.0, 12.0])
    e1 = SplitEvent("X", bars[2].date, 2.0)
    e2 = SplitEvent("X", bars[4].date, 3.0)
    adjusted = _split_adjust(bars, [e1, e2])
    assert [b.close for b in adjusted] == [2.0, 2.0, 4.0, 4.0, 12.0]


def test_other_ticker_events_do_not_apply():
    bars = daily_bars([10.0] * 4, ticker="A")
    event = SplitEvent("B", bars[2].date, 2.0)
    assert _split_adjust(bars, [event]) == bars


def test_volume_mode_preserves_notional_within_rounding():
    bars = daily_bars([10.0] * 5, volumes=[101, 333, 1007, 55, 7])
    event = SplitEvent("X", bars[4].date, 1.569)
    adjusted = _split_adjust(bars, [event], PRICES_AND_VOLUME)
    for raw, adj in zip(bars[:4], adjusted[:4]):
        notional_raw = raw.close * raw.volume
        notional_adj = adj.close * adj.volume
        assert abs(notional_adj - notional_raw) <= 0.5 * adj.close


def test_unknown_mode_rejected():
    bars = daily_bars([10.0])
    with pytest.raises(DataError, match="mode"):
        _split_adjust(bars, [], mode="volumes")


@given(
    r1=st.floats(min_value=1.01, max_value=10.0, allow_nan=False),
    r2=st.floats(min_value=1.01, max_value=10.0, allow_nan=False),
)
def test_sequential_adjustment_composes(r1, r2):
    bars = daily_bars([50.0] * 8)
    e1 = SplitEvent("X", bars[3].date, r1)
    e2 = SplitEvent("X", bars[6].date, r2)
    joint = _split_adjust(bars, [e1, e2])
    sequential = _split_adjust(_split_adjust(bars, [e1]), [e2])
    for a, b in zip(joint, sequential):
        assert a.close == pytest.approx(b.close, rel=1e-12)
        assert a.adj_close == pytest.approx(b.adj_close, rel=1e-12)


def test_idempotent_for_degenerate_events():
    bars = daily_bars([10.0, 20.0, 30.0])
    event = SplitEvent("X", bars[1].date, 1.0)
    once = _split_adjust(bars, [event])
    assert _split_adjust(once, [event]) == once == bars
