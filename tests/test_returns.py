"""Return series, moments, beta and abnormal-return computations."""

import math
import random

import pytest
from hypothesis import given, strategies as st

from splitstudy.errors import CoverageError, DataError
from splitstudy.models import ReferenceRateSeries
from splitstudy.returns import (
    CORRELATION,
    COVARIANCE,
    DEMARCATION,
    BetaEstimate,
    abnormal_return,
    beta,
    beta_for_window,
    covariance,
    demarcation_price,
    pct_change_series,
    variance,
)
from splitstudy.synthetic import (
    ScenarioSpec,
    generate_history,
    reference_rates,
)
from splitstudy.windows import align_to_event

from conftest import window_for
from oracles import oracle_moments


def test_pct_change_basics():
    assert pct_change_series([100.0, 110.0]) == pytest.approx([0.10])
    assert pct_change_series([7.0] * 5) == [0.0, 0.0, 0.0, 0.0]
    with pytest.raises(DataError):
        pct_change_series([1.0])
    with pytest.raises(DataError, match="zero"):
        pct_change_series([1.0, 0.0, 2.0])


def test_pct_change_matches_loop_oracle():
    rng = random.Random(17)
    values = [rng.uniform(1.0, 100.0) for _ in range(50)]
    result = pct_change_series(values)
    assert len(result) == 49
    for i, r in enumerate(result):
        assert r == pytest.approx((values[i + 1] - values[i]) / values[i], rel=1e-12)


@given(st.lists(st.floats(min_value=0.5, max_value=500.0), min_size=2, max_size=60))
def test_pct_change_compounds_back_to_price_ratio(values):
    compounded = 1.0
    for r in pct_change_series(values):
        compounded *= 1.0 + r
    assert compounded == pytest.approx(values[-1] / values[0], rel=1e-12)


def test_moments_definitional_cases():
    assert variance([4.0] * 10) == 0.0
    xs = [1.0, 2.0, 4.0, 8.0]
    assert covariance(xs, xs) == pytest.approx(variance(xs), rel=1e-12)
    with pytest.raises(DataError):
        variance([1.0])
    with pytest.raises(DataError, match="mismatch"):
        covariance([1.0, 2.0], [1.0])


def test_moments_match_two_pass_oracle():
    rng = random.Random(23)
    xs = [rng.uniform(-50, 50) for _ in range(200)]
    ys = [rng.uniform(-50, 50) for _ in range(200)]
    var_x, var_y, cov = oracle_moments(xs, ys)
    assert variance(xs) == pytest.approx(var_x, rel=1e-12)
    assert variance(ys) == pytest.approx(var_y, rel=1e-12)
    assert covariance(xs, ys) == pytest.approx(cov, rel=1e-12)


@given(
    st.lists(st.floats(min_value=-100, max_value=100), min_size=2, max_size=40),
    st.lists(st.floats(min_value=-100, max_value=100), min_size=2, max_size=40),
)
def test_covariance_symmetric(xs, ys):
    n = min(len(xs), len(ys))
    assert covariance(xs[:n], ys[:n]) == covariance(ys[:n], xs[:n])


def test_beta_of_series_with_itself_is_one():
    rng = random.Random(31)
    xs = [rng.gauss(0.0, 0.02) for _ in range(120)]
    estimate = beta(xs, xs, COVARIANCE)
    assert estimate.beta == pytest.approx(1.0, abs=1e-12)
    assert estimate.n_obs == 120
    assert estimate.variant == COVARIANCE


def test_beta_zero_for_orthogonal_reference():
    # exactly orthogonal finite sample: cov is 0 by construction
    stock = [1.0, -1.0, 1.0, -1.0]
    reference = [1.0, 1.0, -1.0, -1.0]
    assert beta(stock, reference).beta == pytest.approx(0.0, abs=1e-12)


def test_beta_near_zero_against_risk_free_style_reference():
    # risk-free-style reference: tiny nearly-constant rates against an
    # equity-vol stock produce near-zero, sometimes negative betas
    rng = random.Random(41)
    for _ in range(20):
        stock = [rng.gauss(0.0005, 0.02) for _ in range(120)]
        reference = [rng.gauss(0.0001, 0.0004) for _ in range(120)]
        estimate = beta(stock, reference)
        assert -0.17 <= estimate.beta <= 0.09


def test_beta_correlation_variant():
    rng = random.Random(43)
    stock = [rng.gauss(0.0, 0.02) for _ in range(60)]
    reference = [0.5 * s + rng.gauss(0.0, 0.01) for s in stock]
    est = beta(stock, reference, CORRELATION)
    var_s = variance(stock)
    var_r = variance(reference)
    cov = covariance(reference, stock)
    corr = cov / math.sqrt(var_r * var_s)
    assert est.beta == pytest.approx(corr / var_s, rel=1e-12)
    assert est.variant == CORRELATION


def test_beta_errors():
    with pytest.raises(DataError, match="variance"):
        beta([0.1, 0.1, 0.1], [0.1, 0.2, 0.3])
    with pytest.raises(DataError, match="mismatch"):
        beta([0.1, 0.2], [0.1, 0.2, 0.3])
    with pytest.raises(DataError, match="variant"):
        beta([0.1, 0.2], [0.1, 0.3], "weird")
    with pytest.raises(DataError):
        BetaEstimate(beta=1.0, variant=COVARIANCE, n_obs=1)


def test_beta_shift_and_scale_laws():
    rng = random.Random(47)
    stock = [rng.gauss(0.0, 0.03) for _ in range(100)]
    reference = [rng.gauss(0.0, 0.01) for _ in range(100)]
    base = beta(stock, reference).beta
    shifted_ref = beta(stock, [r + 0.37 for r in reference]).beta
    assert shifted_ref == pytest.approx(base, rel=1e-9)
    shifted_stock = beta([s + 0.11 for s in stock], reference).beta
    assert shifted_stock == pytest.approx(base, rel=1e-9)
    k = 3.7
    scaled = beta([k * s for s in stock], reference).beta
    assert scaled == pytest.approx(base / k, rel=1e-9)


def test_demarcation_price_examples():
    closes = [10.0] * 140
    window = window_for(closes, split_index=130, pre=125, post=9)
    assert demarcation_price(window) == 10.0

    # prices 10 and 12 on the two demarcation bars
    closes = [10.0] * 140
    closes[130 - 61] = 10.0
    closes[130 - 60] = 12.0
    window = window_for(closes, split_index=130, pre=125, post=9)
    assert demarcation_price(window) == 11.0


def test_demarcation_price_linear_ramp():
    # adj_close = 200 + offset  =>  midpoint of offsets -61/-60 is -60.5
    closes = [200.0 + (i - 130) for i in range(140)]
    window = window_for(closes, split_index=130, pre=125, post=9)
    assert demarcation_price(window) == pytest.approx(200.0 - 60.5, rel=1e-12)


def test_demarcation_missing_bars():
    window = window_for([10.0] * 41, split_index=20)
    with pytest.raises(CoverageError):
        demarcation_price(window)


def test_beta_for_window_pairs_by_date():
    bars, event = generate_history(ScenarioSpec(seed=3, n_days=200, split_day=150))
    window = align_to_event(bars, event, 120, 40)
    rates = reference_rates(bars)
    estimate = beta_for_window(window, rates)
    assert estimate.beta == pytest.approx(1.0, abs=1e-12)
    assert estimate.n_obs == 119

    # drop half the reference dates: pairing shrinks but still works
    thinned = ReferenceRateSeries(
        dates=rates.dates[::2], rates=rates.rates[::2]
    )
    thin_est = beta_for_window(window, thinned)
    assert thin_est.n_obs < estimate.n_obs


def test_abnormal_return_cancellation_and_horizon_zero():
    closes = [10.0] * 160
    window = window_for(closes, split_index=130, pre=125, post=29)
    est = BetaEstimate(beta=1.0, variant=COVARIANCE, n_obs=10)
    result = abnormal_return(window, 21, est)
    assert result.abnormal == 0.0
    assert result.normal_return == 1.0

    est_2 = BetaEstimate(beta=-0.7, variant=COVARIANCE, n_obs=10)
    at_zero = abnormal_return(window, 0, est_2)
    assert at_zero.market_influenced_return == -0.7
    assert at_zero.abnormal == -0.7 - at_zero.normal_return


def test_abnormal_return_engineered_one_month_move():
    # flat pre-period, +30.59% post move, beta 1 -> abnormal == +30.59%
    closes = [10.0] * 131 + [10.0 * 1.3059] * 29
    window = window_for(closes, split_index=130, pre=125, post=29)
    est = BetaEstimate(beta=1.0, variant=COVARIANCE, n_obs=10)
    result = abnormal_return(window, 21, est)
    assert 100.0 * result.abnormal == pytest.approx(30.59, abs=1e-9)


def test_abnormal_return_demarcation_baseline():
    closes = [10.0] * 140
    closes[130 - 61] = 8.0
    closes[130 - 60] = 12.0  # demarcation price still 10
    window = window_for(closes, split_index=130, pre=125, post=9)
    est = BetaEstimate(beta=1.0, variant=COVARIANCE, n_obs=10)
    plain = abnormal_return(window, 5, est)
    demarc = abnormal_return(window, 5, est, DEMARCATION)
    assert demarc.baseline == DEMARCATION
    assert demarc.abnormal == pytest.approx(plain.abnormal, rel=1e-12)


def test_abnormal_return_recovers_injected_drift():
    # post-split drift shift d per day over a 21-day horizon with beta 1:
    # mean abnormal over seeds approaches exp(21 d) - 1
    shift = 0.002
    horizon = 21
    target = math.exp(horizon * shift) - 1.0
    est = BetaEstimate(beta=1.0, variant=COVARIANCE, n_obs=10)
    values = []
    for seed in range(1000):
        bars, event = generate_history(
            ScenarioSpec(
                seed=90_000 + seed,
                n_days=160,
                daily_vol=0.01,
                split_day=125,
                split_ratio=1.5,
                post_split_drift_shift=shift,
            )
        )
        window = align_to_event(bars, event, 125, 30)
        values.append(abnormal_return(window, horizon, est).abnormal)
    mean = sum(values) / len(values)
    sd = math.sqrt(sum((v - mean) ** 2 for v in values) / (len(values) - 1))
    se = sd / math.sqrt(len(values))
    assert abs(mean - target) < 4 * se
    assert mean > 0.0  # the injected drift is detectable


def test_abnormal_return_insufficient_coverage():
    window = window_for([10.0] * 30, split_index=25)
    est = BetaEstimate(beta=1.0, variant=COVARIANCE, n_obs=10)
    with pytest.raises(CoverageError):
        abnormal_return(window, 21, est)
