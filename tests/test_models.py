"""Domain type invariants."""

import datetime
from array import array

import pytest

from splitstudy.errors import DataError
from splitstudy.models import (
    BarTable,
    EventWindow,
    OffsetSeries,
    ReferenceRateSeries,
    SplitEvent,
    TradingBar,
)

from conftest import daily_bars, make_bar, window_for

D = datetime.date


def test_valid_bar_maps_fields():
    bar = TradingBar("X", D(2013, 6, 3), 10.0, 11.0, 9.0, 10.5, 10.5, 1000)
    assert bar.ticker == "X"
    assert bar.volume == 1000
    assert bar.adj_close == 10.5


@pytest.mark.parametrize(
    "kwargs,fragment",
    [
        (dict(high=9.0, low=10.0), "low"),
        (dict(open_=10.0, close=11.0, low=10.5, high=11.0), "min(open, close)"),
        (dict(open_=10.0, close=10.6, high=10.2), "max(open, close)"),
        (dict(close=-1.0), "> 0"),
        (dict(volume=-5), "volume"),
        (dict(high=float("inf")), "high (inf) must be finite"),
        (dict(adj_close=float("inf")), "adj_close (inf) must be finite"),
    ],
)
def test_bar_invariant_violations(kwargs, fragment):
    with pytest.raises(DataError) as exc_info:
        make_bar(**kwargs)
    assert fragment in str(exc_info.value)


def test_split_event_validation():
    event = SplitEvent("X", D(2014, 1, 1), 2.0)
    assert not event.is_degenerate
    assert SplitEvent("X", D(2014, 1, 1), 1.0).is_degenerate
    with pytest.raises(DataError):
        SplitEvent("X", D(2014, 1, 1), 0.0)
    with pytest.raises(DataError):
        SplitEvent("X", D(2014, 1, 1), -2.0)
    with pytest.raises(DataError, match="finite"):
        SplitEvent("X", D(2014, 1, 1), float("inf"))


def test_rate_series_requires_increasing_dates():
    with pytest.raises(DataError):
        ReferenceRateSeries(dates=(D(2013, 1, 2), D(2013, 1, 2)), rates=(0.1, 0.2))
    series = ReferenceRateSeries(
        dates=(D(2013, 1, 2), D(2013, 1, 3)), rates=(0.01, -0.02)
    )
    assert series.rate_on(D(2013, 1, 3)) == -0.02
    assert series.rate_on(D(2013, 1, 4)) is None
    assert len(series) == 2


def test_window_offsets_strictly_increasing_and_contain_zero():
    window = window_for([10.0] * 21)
    assert list(window.offsets) == list(range(-10, 11))
    assert 0 in window.offsets
    assert window.bars.dates[window.offsets.index(0)] >= window.event.effective_date


def test_window_rejects_mislabeled_anchor():
    bars = daily_bars([10.0, 11.0, 12.0])
    event = SplitEvent("X", bars[1].date, 2.0)
    with pytest.raises(DataError):
        EventWindow(
            event=event,
            bars=BarTable.from_bars(bars),
            offsets=range(-2, 1),  # offset 0 bar predates the effective date
            coverage=1.0,
            span=(-2, 0),
        )


def test_window_bars_between_and_coverage():
    window = window_for([10.0] * 11)
    offsets, rows = window.between(-2, 2)
    assert list(offsets) == [-2, -1, 0, 1, 2] and len(window.bars.dates[rows]) == 5
    # Past the window's edges only the present offsets come back.
    offsets, rows = window.between(-9, 9)
    assert offsets == range(-5, 6) and len(window.bars.dates[rows]) == 11
    offsets, rows = window.between(3, 1)
    assert not offsets and not window.bars.dates[rows]


@pytest.mark.parametrize(
    "offsets", [(-1, 0, 1), [-1, 0, 1], range(-2, 4, 2)], ids=["tuple", "list", "stepped"]
)
def test_offsets_must_be_a_step_1_range(offsets):
    bars = daily_bars([10.0, 11.0, 12.0])
    event = SplitEvent("X", bars[1].date, 2.0)
    with pytest.raises(DataError, match="step-1 range"):
        EventWindow(event, BarTable.from_bars(bars), offsets, coverage=1.0)
    with pytest.raises(DataError, match="step-1 range"):
        OffsetSeries(offsets, array("d", [1.0, 2.0, 3.0]))


def test_bar_table_sorts_rows_and_slices_by_ticker():
    a = daily_bars([10.0, 11.0, 12.0], ticker="A")
    b = daily_bars([20.0, 21.0], ticker="B")
    table = BarTable.from_bars(b[::-1] + a[::-1])
    assert len(table) == 5 and list(table) == a + b
    assert table.ranges == {"A": range(0, 3), "B": range(3, 5)}
    assert list(table.series("B")) == b and table.series("B").ranges == {"B": range(2)}
    assert not table.series("C") and table.series("C").ranges == {}
    middle = table[2:4]
    assert list(middle) == [a[2], b[0]]
    assert middle.ranges == {"A": range(0, 1), "B": range(1, 2)}
    with pytest.raises(DataError, match="duplicate bar for A"):
        BarTable.from_bars(a + a[1:2])
