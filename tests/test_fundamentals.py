"""Indexed net profit, ROE and trend-consistency classification."""

import pytest
from hypothesis import example, given, strategies as st

from splitstudy.errors import DataError
from splitstudy.fundamentals import (
    classify_consistency,
    indexed_net_profit,
    roe,
    roe_change,
)
from splitstudy.models import FundamentalRecord


def _records(profits, ticker="X", start_year=2013, equity=1000.0):
    return [
        FundamentalRecord(ticker, start_year + i, p, equity)
        for i, p in enumerate(profits)
    ]


def test_indexed_profit_reference_row_values():
    # profits scaling to the printed 100 / 176.97 / 150.26 row
    row = indexed_net_profit(_records([1000.0, 1769.7, 1502.6]), 2013)
    assert row.indexed == {2013: 100.0, 2014: 176.97, 2015: 150.26}
    assert row.total_diff == 50.26


def test_indexed_profit_preserves_loss_sign():
    row = indexed_net_profit(_records([100.0, -282.94]), 2013)
    assert row.indexed == {2013: 100.0, 2014: -282.94}
    assert row.total_diff == -382.94


def test_indexed_profit_full_loss_row():
    # scaled version of the loss row: indices must come out exactly
    row = indexed_net_profit(_records([200.0, -565.88, 109.78, 81.84]), 2013)
    assert row.indexed == {2013: 100.0, 2014: -282.94, 2015: 54.89, 2016: 40.92}
    assert row.total_diff == -59.08


def test_indexed_profit_constant_years():
    row = indexed_net_profit(_records([55.5, 55.5, 55.5]), 2013)
    assert row.indexed == {2013: 100.0, 2014: 100.0, 2015: 100.0}
    assert row.total_diff == 0.0


def test_indexed_profit_split_year_anchor_is_exact():
    row = indexed_net_profit(_records([0.07, 0.21]), 2013)
    assert row.indexed[2013] == 100.0


def test_indexed_profit_errors():
    with pytest.raises(DataError, match="split year"):
        indexed_net_profit(_records([100.0, 120.0]), 2020)
    with pytest.raises(DataError, match="zero"):
        indexed_net_profit(_records([0.0, 120.0]), 2013)
    with pytest.raises(DataError, match="duplicate"):
        indexed_net_profit(
            _records([100.0]) + _records([90.0]), 2013
        )
    with pytest.raises(DataError, match="tickers"):
        indexed_net_profit(
            _records([100.0]) + _records([90.0], ticker="Y", start_year=2014),
            2013,
        )
    with pytest.raises(DataError):
        indexed_net_profit([], 2013)


@given(
    profits=st.lists(
        st.floats(min_value=-1e6, max_value=1e6).filter(lambda p: abs(p) > 1e-3),
        min_size=1,
        max_size=6,
    ),
    k=st.floats(min_value=0.001, max_value=1000.0),
    negate=st.booleans(),
)
def test_indexed_profit_scale_invariant(profits, k, negate):
    # the ratio to the split year cancels any common factor, sign included:
    # the split-year anchor stays exactly 100 for negative scalings too
    if negate:
        k = -k
    base = indexed_net_profit(_records(profits), 2013)
    scaled = indexed_net_profit(_records([k * p for p in profits]), 2013)
    assert scaled.indexed[2013] == 100.0
    for year, value in base.indexed.items():
        assert scaled.indexed[year] == pytest.approx(value, rel=1e-9, abs=1e-9)


def test_roe_basics():
    assert roe(FundamentalRecord("X", 2013, 9.0, 100.0)) == 0.09
    with pytest.raises(DataError, match="equity"):
        roe(FundamentalRecord("X", 2013, 9.0, 0.0))


def test_roe_change_nine_point_improvement():
    start = FundamentalRecord("X", 2013, 5.0, 100.0)   # ROE 0.05
    end = FundamentalRecord("X", 2015, 14.0, 100.0)    # ROE 0.14
    assert roe_change(start, end) == pytest.approx(9.0, rel=1e-12)
    assert roe_change(start, start) == 0.0


@given(
    profit=st.floats(min_value=-1e5, max_value=1e5),
    equity=st.floats(min_value=1.0, max_value=1e6),
    k=st.floats(min_value=0.01, max_value=100.0),
)
def test_roe_homogeneous(profit, equity, k):
    base = roe(FundamentalRecord("X", 2013, profit, equity))
    scaled = roe(FundamentalRecord("X", 2013, k * profit, k * equity))
    assert scaled == pytest.approx(base, rel=1e-9, abs=1e-12)


def test_consistency_reference_rows():
    assert classify_consistency(165.5, 299.29, 9.0).consistent
    assert not classify_consistency(13.0, -20.0, -1.0).consistent
    assert classify_consistency(0.0, 0.0, 0.0).consistent


def test_consistency_zero_agrees_with_either_sign():
    assert classify_consistency(0.0, 5.0, 3.0).consistent
    assert classify_consistency(0.0, -5.0, -3.0).consistent
    assert not classify_consistency(0.0, 5.0, -3.0).consistent


def test_consistency_rejects_non_finite():
    with pytest.raises(DataError):
        classify_consistency(float("nan"), 1.0, 1.0)
    with pytest.raises(DataError):
        classify_consistency(1.0, float("inf"), 1.0)


@given(
    a=st.floats(min_value=-100, max_value=100),
    b=st.floats(min_value=-100, max_value=100),
    c=st.floats(min_value=-100, max_value=100),
    k=st.floats(min_value=0.01, max_value=100.0),
)
@example(a=5e-324, b=0.0, c=-1.0, k=0.5)
def test_consistency_symmetric_and_scale_invariant(a, b, c, k):
    base = classify_consistency(a, b, c).consistent
    assert classify_consistency(b, c, a).consistent == base
    assert classify_consistency(c, b, a).consistent == base
    # A positive factor keeps the sign, and so the class, unless k * a
    # underflows to 0.0 (a = 5e-324, k = 0.5): then the class is 0.0's.
    scaled = k * a
    keeps_sign = (scaled > 0) == (a > 0) and (scaled < 0) == (a < 0)
    expected = base if keeps_sign else classify_consistency(0.0, b, c).consistent
    assert classify_consistency(scaled, b, c).consistent == expected
