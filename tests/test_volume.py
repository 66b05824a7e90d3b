"""Volume analytics: windowed totals, comparisons, shares, trends."""

import random

import pytest
from hypothesis import given, strategies as st

from splitstudy.errors import DataError
from splitstudy.volume import (
    aggregate_volume_share,
    compare_volume,
    ols_fit,
    volume_trend,
    window_volume_total,
)

from conftest import window_for
from oracles import oracle_ols, oracle_sum


def test_constant_volume_total():
    window = window_for([10.0] * 61, volumes=[100] * 61)
    result = window_volume_total(window, -30, -1)
    assert result.total == 3000
    assert result.coverage == 1.0


def test_single_offset_total_is_that_bar():
    volumes = list(range(100, 161))
    window = window_for([10.0] * 61, volumes=volumes)
    assert window_volume_total(window, 0, 0).total == volumes[30]


def test_total_matches_brute_force_sum():
    rng = random.Random(7)
    volumes = [rng.randrange(0, 10_000) for _ in range(61)]
    window = window_for([10.0] * 61, volumes=volumes)
    expected = oracle_sum(
        [b.volume for o, b in zip(window.offsets, window.bars) if -25 <= o <= 17]
    )
    assert window_volume_total(window, -25, 17).total == expected


def test_total_range_validation():
    window = window_for([10.0] * 21, volumes=[5] * 21)
    with pytest.raises(DataError, match="intersect"):
        window_volume_total(window, 50, 60)
    with pytest.raises(DataError):
        window_volume_total(window, 3, -3)


def test_compare_volume_excludes_day_zero():
    volumes = [10] * 30 + [999_999] + [10] * 30
    window = window_for([10.0] * 61, volumes=volumes)
    comparison = compare_volume(window, 30)
    assert comparison.before_total == comparison.after_total == 300


def test_compare_volume_increase_and_decrease_cases():
    # before 1000 vs after 1520 and 770: a 52% increase and a 23% decrease
    volumes = [0] * 61
    volumes[0] = 1000  # offset -30
    volumes[60] = 1520  # offset +30
    window = window_for([10.0] * 61, volumes=volumes)
    comparison = compare_volume(window, 30)
    assert comparison.after_pct_of_before == pytest.approx(152.0)

    volumes[60] = 770
    window = window_for([10.0] * 61, volumes=volumes)
    assert compare_volume(window, 30).after_pct_of_before == pytest.approx(77.0)


def test_compare_volume_equal_sides_and_zero_before():
    window = window_for([10.0] * 61, volumes=[100] * 61)
    assert compare_volume(window, 30).after_pct_of_before == pytest.approx(100.0)

    volumes = [0] * 31 + [100] * 30
    window = window_for([10.0] * 61, volumes=volumes)
    comparison = compare_volume(window, 30)
    assert comparison.before_total == 0
    assert comparison.after_pct_of_before is None


def test_compare_volume_exact_ratio_recovery():
    # post volumes exactly 2x pre volumes: the shareholder-base argument
    pre = [120, 80, 100] * 10
    volumes = pre + [999] + [2 * v for v in pre]
    window = window_for([10.0] * 61, volumes=volumes)
    assert compare_volume(window, 30).after_pct_of_before == 200.0


@given(st.integers(min_value=1, max_value=10_000))
def test_compare_volume_scale_equivariant(k):
    base = [17, 5, 90, 41, 7, 55, 23, 88, 3, 61]
    volumes = base * 2 + [40] + base[::-1] * 2
    window = window_for([10.0] * 41, volumes=volumes)
    scaled = window_for([10.0] * 41, volumes=[k * v for v in volumes])
    assert (
        compare_volume(window, 20).after_pct_of_before
        == compare_volume(scaled, 20).after_pct_of_before
    )


def test_aggregate_share_slight_increase_case():
    # aggregate totals 100 before vs 104 after: a slight 4% market-wide increase
    volumes = [0] * 61
    volumes[0], volumes[60] = 100, 104
    window = window_for([10.0] * 61, volumes=volumes)
    before_share, after_share = aggregate_volume_share([compare_volume(window, 30)])
    assert before_share == pytest.approx(100 / 204)
    assert after_share == pytest.approx(0.5098, abs=5e-5)


def test_aggregate_share_properties():
    rng = random.Random(13)
    comparisons = []
    for _ in range(9):
        volumes = [rng.randrange(1, 5000) for _ in range(61)]
        comparisons.append(compare_volume(window_for([10.0] * 61, volumes=volumes), 30))
    before_share, after_share = aggregate_volume_share(comparisons)
    total_before = sum(c.before_total for c in comparisons)
    total_after = sum(c.after_total for c in comparisons)
    assert before_share == total_before / (total_before + total_after)
    assert abs(before_share + after_share - 1.0) < 1e-12
    shuffled = comparisons[::-1]
    assert aggregate_volume_share(shuffled) == (before_share, after_share)

    single = [compare_volume(window_for([10.0] * 61, volumes=[50] * 61), 30)]
    assert aggregate_volume_share(single) == (0.5, 0.5)

    with pytest.raises(DataError):
        aggregate_volume_share([])
    zero = compare_volume(window_for([10.0] * 61, volumes=[0] * 61), 30)
    with pytest.raises(DataError, match="zero"):
        aggregate_volume_share([zero])


def test_trend_exact_line():
    volumes = [50 + 7 * t for t in range(61)]  # v = 50 + 7*(i); offsets shift it
    window = window_for([10.0] * 61, volumes=volumes)
    fit = volume_trend(window, -30, 30)
    assert fit.slope == pytest.approx(7.0, rel=1e-12)
    # intercept at offset 0 equals the anchor bar's volume on an exact line
    assert fit.intercept == pytest.approx(volumes[30], rel=1e-12)
    assert fit.n_points == 61


def test_trend_constant_series_has_zero_slope():
    window = window_for([10.0] * 31, volumes=[400] * 31)
    fit = volume_trend(window, -15, 15)
    assert fit.slope == pytest.approx(0.0, abs=1e-9)
    assert fit.normalized_slope_pct == pytest.approx(0.0, abs=1e-9)


def test_trend_matches_normal_equations_oracle():
    rng = random.Random(99)
    volumes = [rng.randrange(1, 100_000) for _ in range(30)]
    window = window_for([10.0] * 30, volumes=volumes, split_index=15)
    fit = volume_trend(window, -15, 14)
    points = [(o, b.volume) for o, b in zip(window.offsets, window.bars)]
    slope, intercept = oracle_ols(points)
    assert fit.slope == pytest.approx(slope, rel=1e-9)
    assert fit.intercept == pytest.approx(intercept, rel=1e-9)


def test_trend_needs_two_points():
    window = window_for([10.0] * 21, volumes=[5] * 21)
    with pytest.raises(DataError, match="at least 2"):
        volume_trend(window, 0, 0)


@given(
    shift=st.floats(min_value=-1000, max_value=1000, allow_nan=False),
    scale=st.integers(min_value=1, max_value=1000),
)
def test_ols_translation_and_scaling_laws(shift, scale):
    xs = list(range(20))
    ys = [3.0 * x + 11.0 + ((-1) ** x) * 2.5 for x in xs]
    slope, _ = ols_fit(xs, ys)
    slope_shifted, _ = ols_fit([x + shift for x in xs], ys)
    assert slope_shifted == pytest.approx(slope, rel=1e-9, abs=1e-9)
    slope_scaled, _ = ols_fit(xs, [scale * y for y in ys])
    assert slope_scaled == pytest.approx(scale * slope, rel=1e-9)


@given(k=st.integers(min_value=2, max_value=500))
def test_trend_volume_scaling_keeps_normalized_slope(k):
    volumes = [100 + 13 * t + (t % 3) * 7 for t in range(41)]
    base = volume_trend(window_for([10.0] * 41, volumes=volumes), -20, 20)
    scaled = volume_trend(
        window_for([10.0] * 41, volumes=[k * v for v in volumes]), -20, 20
    )
    assert scaled.slope == pytest.approx(k * base.slope, rel=1e-9)
    assert scaled.normalized_slope_pct == pytest.approx(
        base.normalized_slope_pct, rel=1e-9
    )
