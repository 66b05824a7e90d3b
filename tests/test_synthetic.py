"""Scenario generation determinism, mechanical split behavior, oracles."""

import random

import pytest

from splitstudy.errors import DataError
from splitstudy.returns import beta, pct_change_series
from splitstudy.synthetic import (
    ScenarioSpec,
    generate_history,
    reference_rates,
    trading_calendar,
)
from splitstudy.volume import compare_volume, ols_fit
from splitstudy.windows import align_to_event

from oracles import oracle_moments, oracle_ols, oracle_sum


def test_trading_calendar_is_weekdays_only():
    import datetime

    days = trading_calendar(datetime.date(2013, 1, 1), 30)
    assert len(days) == 30
    assert all(d.weekday() < 5 for d in days)
    assert all(a < b for a, b in zip(days, days[1:]))


def test_identical_seed_identical_output():
    spec = ScenarioSpec(seed=1234, n_days=100, split_day=50)
    bars_a, event_a = generate_history(spec)
    bars_b, event_b = generate_history(spec)
    assert bars_a == bars_b
    assert event_a == event_b
    bars_c, _ = generate_history(ScenarioSpec(seed=1235, n_days=100, split_day=50))
    assert bars_c != bars_a


def test_zero_drift_zero_vol_constant_adjusted_path():
    spec = ScenarioSpec(
        seed=1, n_days=40, daily_drift=0.0, daily_vol=0.0, volume_noise=0.0,
        split_day=20, split_ratio=2.0, initial_price=32.0, base_volume=500,
    )
    bars, event = generate_history(spec)
    assert all(b.adj_close == 32.0 for b in bars)
    assert all(b.close == 64.0 for b in bars[:20])
    assert all(b.close == 32.0 for b in bars[20:])
    assert all(b.volume == 500 for b in bars[:20])
    assert all(b.volume == 1000 for b in bars[20:])  # mechanical x2
    assert all(b.high == b.low for b in bars)  # zero vol: no intraday range


def test_mechanical_split_drops_raw_close_only():
    bars, event = generate_history(
        ScenarioSpec(seed=77, n_days=120, split_day=60, split_ratio=2.0)
    )
    s = 60
    raw_step = bars[s].close / bars[s - 1].close
    adj_step = bars[s].adj_close / bars[s - 1].adj_close
    assert raw_step == pytest.approx(0.5 * adj_step, rel=1e-3)
    assert abs(adj_step - 1.0) < 0.15  # continuous up to one day's move
    # pre-split raw prices are the adjusted path at the old share count
    for bar in bars[:s]:
        assert bar.close == pytest.approx(2.0 * bar.adj_close, abs=2e-4)
    assert event.effective_date == bars[s].date


def test_volume_boost_recovered_by_comparison_monte_carlo():
    # boost 1.1 over a 30-day post window on a ratio-1 scenario: the
    # before/after comparison should average ~110%
    values = []
    for seed in range(500):
        bars, event = generate_history(
            ScenarioSpec(
                seed=40_000 + seed,
                n_days=61,
                split_day=30,
                split_ratio=1.0,
                announcement_volume_boost=1.1,
                volume_boost_days=30,
            )
        )
        window = align_to_event(bars, event, 30, 30)
        values.append(compare_volume(window, 30).after_pct_of_before)
    mean = sum(values) / len(values)
    assert mean == pytest.approx(110.0, abs=1.0)


def test_spec_validation():
    with pytest.raises(DataError):
        ScenarioSpec(seed=1, n_days=1)
    with pytest.raises(DataError):
        ScenarioSpec(seed=1, split_day=0)
    with pytest.raises(DataError):
        ScenarioSpec(seed=1, n_days=50, split_day=50)
    with pytest.raises(DataError):
        ScenarioSpec(seed=1, split_ratio=0.0)
    with pytest.raises(DataError):
        ScenarioSpec(seed=1, announcement_volume_boost=0.0)
    with pytest.raises(DataError):
        ScenarioSpec(seed=1, initial_price=-5.0)


def test_generated_bars_satisfy_invariants():
    # TradingBar validates on construction; a generation pass is the check
    bars, _ = generate_history(
        ScenarioSpec(seed=5, n_days=300, daily_vol=0.05, split_day=150)
    )
    assert len(bars) == 300
    assert all(b.low <= min(b.open, b.close) <= max(b.open, b.close) <= b.high
               for b in bars)


def test_reference_rates_match_adjusted_returns():
    bars, _ = generate_history(ScenarioSpec(seed=6, n_days=50, split_day=25))
    rates = reference_rates(bars)
    expected = pct_change_series([b.adj_close for b in bars])
    assert list(rates.rates) == pytest.approx(expected)
    assert rates.dates[0] == bars[1].date
    own_beta = beta(expected, list(rates.rates))
    assert own_beta.beta == pytest.approx(1.0, abs=1e-12)


def test_oracle_ols_exact_line():
    points = [(x, 3.0 * x + 1.0) for x in range(10)]
    slope, intercept = oracle_ols(points)
    assert slope == pytest.approx(3.0, rel=1e-12)
    assert intercept == pytest.approx(1.0, rel=1e-12)
    with pytest.raises(DataError):
        oracle_ols([(1.0, 2.0)])
    with pytest.raises(DataError, match="variance"):
        oracle_ols([(2.0, 1.0), (2.0, 5.0)])


def test_oracle_moments_definitional():
    xs = [1.0, 4.0, 9.0, 16.0]
    var_x, var_y, cov = oracle_moments(xs, xs)
    assert var_x == cov == var_y
    with pytest.raises(DataError):
        oracle_moments([1.0], [1.0])
    with pytest.raises(DataError):
        oracle_moments([1.0, 2.0], [1.0])


def test_oracle_sum_and_main_agree():
    rng = random.Random(3)
    values = [rng.randrange(0, 1_000_000) for _ in range(500)]
    assert oracle_sum(values) == sum(values)


def test_cross_check_main_vs_oracles_sample():
    # a lighter version of the acceptance-scale cross-check
    from splitstudy.returns import covariance, variance

    rng = random.Random(12)
    for _ in range(1000):
        n = rng.randint(2, 60)
        xs = [rng.uniform(-100, 100) for _ in range(n)]
        ys = [rng.uniform(-100, 100) for _ in range(n)]
        var_x, var_y, cov = oracle_moments(xs, ys)
        assert variance(xs) == pytest.approx(var_x, rel=1e-9, abs=1e-12)
        assert covariance(xs, ys) == pytest.approx(cov, rel=1e-9, abs=1e-12)
        slope, intercept = ols_fit(xs, ys)
        o_slope, o_intercept = oracle_ols(list(zip(xs, ys)))
        assert slope == pytest.approx(o_slope, rel=1e-9, abs=1e-9)
        assert intercept == pytest.approx(o_intercept, rel=1e-9, abs=1e-9)
