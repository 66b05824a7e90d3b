"""Price analytics: period grouping, value algebra, price gaps."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from splitstudy.demo import demo_universe
from splitstudy.errors import DataError
from splitstudy.models import BarTable
from splitstudy.prices import (
    CLOSE,
    NEAREST_TOLERANCE,
    RAW,
    SPLIT_ADJUSTED,
    gap_means,
    gap_series,
    period_averages,
    price_at,
    price_change_pct,
    value_factor,
)
from splitstudy.report import GAP_SPAN, RunParams
from splitstudy.synthetic import ScenarioSpec, generate_history
from splitstudy.windows import align_to_event

from conftest import window_for


def _window_183(closes, **kwargs):
    assert len(closes) == 183
    return window_for(closes, split_index=91, **kwargs)


def test_period_averages_constant_price():
    window = _window_183([10.0] * 183)
    averages = period_averages(window)
    assert (averages.g1_avg, averages.g2_avg, averages.g3_avg) == (10.0, 10.0, 10.0)


def test_period_averages_piecewise_constant():
    closes = [10.0] * 61 + [12.0] * 61 + [11.0] * 61
    averages = period_averages(_window_183(closes))
    assert (averages.g1_avg, averages.g2_avg, averages.g3_avg) == (10.0, 12.0, 11.0)


def test_period_averages_match_loop_means():
    rng = random.Random(5)
    closes = [rng.uniform(5.0, 50.0) for _ in range(183)]
    window = _window_183(closes)
    averages = period_averages(window)
    for (lo, hi), value in zip(
        [(-91, -31), (-30, 30), (31, 91)],
        [averages.g1_avg, averages.g2_avg, averages.g3_avg],
    ):
        total = 0.0
        count = 0
        for offset, bar in zip(window.offsets, window.bars):
            if lo <= offset <= hi:
                total += bar.adj_close
                count += 1
        assert value == pytest.approx(total / count, rel=1e-12)
        group = [b.adj_close for o, b in zip(window.offsets, window.bars) if lo <= o <= hi]
        assert min(group) <= value <= max(group)


def test_period_averages_empty_group_errors():
    window = window_for([10.0] * 41)  # spans only [-20, 20]
    with pytest.raises(DataError, match="no bars"):
        period_averages(window)


def test_period_averages_permutation_and_scaling():
    rng = random.Random(6)
    closes = [rng.uniform(5.0, 50.0) for _ in range(183)]
    window = _window_183(closes)
    base = period_averages(window)
    # swap two prices inside group 1: the group mean must not move
    swapped = list(closes)
    swapped[3], swapped[40] = swapped[40], swapped[3]
    permuted = period_averages(_window_183(swapped))
    assert permuted.g1_avg == pytest.approx(base.g1_avg, rel=1e-12)
    scaled = period_averages(_window_183([3.0 * c for c in closes]))
    assert scaled.g2_avg == pytest.approx(3.0 * base.g2_avg, rel=1e-12)


def test_price_change_pct_examples():
    window = window_for([10.0, 10.0, 12.627], split_index=1, pre=1, post=1)
    assert price_change_pct(window, 0, 1) == pytest.approx(26.27)
    assert price_change_pct(window, 0, 0) == 0.0
    halved = window_for([8.0, 8.0, 4.0], split_index=1, pre=1, post=1)
    assert price_change_pct(halved, 0, 1) == pytest.approx(-50.0)


def test_price_change_nearest_bar_rule():
    window = window_for([10.0] * 21, split_index=10)
    # offset 12 is two days past the window edge: nearest bar within 3 is +10
    assert price_change_pct(window, 0, 12) == 0.0
    with pytest.raises(DataError, match="within 3"):
        price_change_pct(window, 0, 14)


def test_price_change_never_crosses_the_split_boundary():
    # Raw closes halve at the split; the window starts at day 0, so offset
    # -1 is missing and the nearest bar within tolerance is post-split.
    halved = window_for([8.0] * 5 + [4.0] * 10, split_index=5, pre=5, post=9)
    from_day0 = window_for([4.0] * 10, split_index=0, pre=5, post=9)
    assert price_change_pct(halved, -1, 3) == pytest.approx(-50.0)
    with pytest.raises(DataError, match="within 3 trading days of offset -1"):
        price_change_pct(from_day0, -1, 3)


def test_value_factor_reference_cases_exact():
    assert value_factor(0.52, 1.1).value_factor == 0.572
    assert value_factor(0.36, 1.1).value_factor == 0.396
    assert value_factor(0.61, 4.899).value_factor == pytest.approx(2.98839, abs=1e-12)
    assert value_factor(0.51, 4.899).value_factor == pytest.approx(2.49849, abs=1e-12)
    assert value_factor(1.0, 1.0).value_factor == 1.0


def test_value_factor_validation():
    with pytest.raises(DataError):
        value_factor(0.0, 1.1)
    with pytest.raises(DataError):
        value_factor(0.5, -2.0)


@given(
    pf=st.floats(min_value=0.01, max_value=100.0, allow_nan=False),
    ratio=st.floats(min_value=0.01, max_value=100.0, allow_nan=False),
)
def test_value_factor_algebra(pf, ratio):
    assert value_factor(pf, 1.0).value_factor == pf
    assert value_factor(1.0, ratio).value_factor == ratio
    assert (
        value_factor(pf, ratio).value_factor
        == value_factor(ratio, pf).value_factor
    )


def test_gap_single_bar():
    window = window_for([10.0] * 3, split_index=1, highs=[11.0] * 3, lows=[9.0] * 3)
    series = gap_series(window, 0, 0, RAW)
    assert list(series.gaps) == [2.0]
    assert series.mean_gap_before is None and series.mean_gap_after is None


def test_gap_mechanical_halving_and_adjusted_cancellation():
    bars, event = generate_history(
        ScenarioSpec(seed=21, n_days=240, daily_vol=0.01, split_day=120,
                     split_ratio=2.0)
    )
    window = align_to_event(bars, event, 90, 90)
    raw = gap_series(window, -90, 90, RAW)
    ratio = raw.mean_gap_after / raw.mean_gap_before
    assert 0.35 < ratio < 0.65  # single-seed tolerance around the 1/2 factor

    adjusted = gap_series(window, -90, 90, SPLIT_ADJUSTED)
    balance = adjusted.mean_gap_after / adjusted.mean_gap_before
    assert 0.7 < balance < 1.3
    # adjustment divides each pre-split gap by exactly the ratio
    for off, g_raw, g_adj in zip(raw.offsets, raw.gaps, adjusted.gaps):
        if off < 0:
            assert g_adj == pytest.approx(g_raw / 2.0, rel=1e-12)
        else:
            assert g_adj == g_raw


def test_gap_empty_range_and_bad_basis():
    window = window_for([10.0] * 5, split_index=2)
    with pytest.raises(DataError, match="no bars"):
        gap_series(window, 40, 50, RAW)
    with pytest.raises(DataError, match="basis"):
        gap_series(window, -1, 1, "weird")


def _event_windows(which):
    """The aligned window of every event of a demo seed, or of the universe
    whose one ticker has no pre-split bar."""
    params = RunParams()
    if which == "edge":
        bars, event = generate_history(
            ScenarioSpec(seed=4, n_days=400, daily_vol=0.0, volume_noise=0.0,
                         split_day=140, split_ratio=2.0)
        )
        bars = [b for b in bars if b.date >= event.effective_date]
        events, min_coverage = [event], 0.0
    else:
        bars, events, _, _ = demo_universe(seed=int(which[-1]))
        min_coverage = params.min_coverage
    table = BarTable.from_bars(bars)
    return [
        align_to_event(
            table.series(e.ticker), e, params.pre_span, params.post_span, min_coverage
        )
        for e in events
    ]


@pytest.mark.parametrize("which", ["seed0", "seed1", "seed2", "edge"])
def test_gap_means_equal_gap_series_means(which):
    means_seen = []
    spans = (GAP_SPAN, RunParams().half_year_days)
    for window in _event_windows(which):
        for basis in (RAW, SPLIT_ADJUSTED):
            for span in spans:
                series = gap_series(window, -span, span, basis)
                means = gap_means(window, -span, span, basis)
                assert means.basis == series.basis == basis
                assert means.mean_gap_before == series.mean_gap_before
                assert means.mean_gap_after == series.mean_gap_after
                means_seen += (means.mean_gap_before, means.mean_gap_after)
        for lo, hi, basis in ((-900, -800, RAW), (-1, 1, "weird")):
            texts = []
            for gaps in (gap_series, gap_means):
                with pytest.raises(DataError) as caught:
                    gaps(window, lo, hi, basis)
                texts.append(str(caught.value))
            assert texts[0] == texts[1]
    # Only the edge window has a side with no bars.
    assert (None in means_seen) == (which == "edge")


def test_gaps_are_never_negative():
    bars, event = generate_history(ScenarioSpec(seed=8, n_days=120, split_day=60))
    window = align_to_event(bars, event, 50, 50)
    for basis in (RAW, SPLIT_ADJUSTED):
        assert all(g >= 0 for g in gap_series(window, -50, 50, basis).gaps)


def _full_scan_price_at(
    window, offset, price_field, min_offset=None, max_offset=None
):
    """Brute-force oracle: scan every offset for the (distance, offset) minimum."""
    best = None
    for candidate in window.offsets:
        if min_offset is not None and candidate < min_offset:
            continue
        if max_offset is not None and candidate > max_offset:
            continue
        distance = abs(candidate - offset)
        if distance > NEAREST_TOLERANCE:
            continue
        if best is None or (distance, candidate) < best:
            best = (distance, candidate)
    if best is None:
        raise DataError(
            f"no bar within {NEAREST_TOLERANCE} trading days of offset {offset}"
        )
    return getattr(window.bars, price_field)[window.offsets.index(best[1])]


@st.composite
def _edge_gap_windows(draw):
    """Aligned window whose requested span runs past the series at either end."""
    n = draw(st.integers(1, 15))
    split_index = draw(st.integers(0, n - 1))
    pre = draw(st.integers(0, split_index + 4))
    post = draw(st.integers(0, n - split_index + 3))
    closes = [100.0 + i - split_index for i in range(n)]
    return window_for(closes, split_index=split_index, pre=pre, post=post)


@settings(max_examples=300)
@given(window=_edge_gap_windows(), data=st.data())
def test_price_at_probe_matches_full_scan(window, data):
    lo, hi = window.span
    near_span = st.integers(lo - 6, hi + 6)
    # requested offsets past the series are where the nearest-bar rule matters
    gaps = [o for o in range(lo, hi + 1) if o not in window.offsets]
    offset = data.draw(st.sampled_from(gaps) | near_span if gaps else near_span)
    min_offset = data.draw(st.none() | near_span)
    max_offset = data.draw(st.none() | near_span)
    args = (window, offset, CLOSE, min_offset, max_offset)
    try:
        expected = _full_scan_price_at(*args)
    except DataError as exc:
        with pytest.raises(DataError) as caught:
            price_at(*args)
        assert str(caught.value) == str(exc)
    else:
        assert price_at(*args) == expected


def test_price_at_clamps_into_bounds():
    # offsets -3..3 with close 100 + offset, so a price names its offset
    window = window_for([100.0 + o for o in range(-3, 4)], split_index=3)
    assert window.offsets == range(-3, 4)
    assert price_at(window, 6, CLOSE) == 103.0  # 3 past the last bar
    assert price_at(window, -6, CLOSE) == 97.0
    assert price_at(window, 1, CLOSE, max_offset=-1) == 99.0
    assert price_at(window, -2, CLOSE, min_offset=0) == 100.0
    assert price_at(window, 0, CLOSE, min_offset=-2, max_offset=-2) == 98.0
    out_of_reach = (
        (7, {}),
        (-7, {}),
        (3, {"max_offset": -1}),
        (0, {"min_offset": 4}),  # past the window
        (0, {"min_offset": 1, "max_offset": -1}),  # no offset allowed
    )
    for offset, bounds in out_of_reach:
        with pytest.raises(DataError, match=f"within 3 trading days of offset {offset}$"):
            price_at(window, offset, CLOSE, **bounds)
