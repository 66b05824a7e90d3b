"""Pipeline orchestration, report determinism and emission."""

import csv
import dataclasses
import enum
import functools
import gc
import io
import json
import math
import os
import random
import threading
import tracemalloc
from array import array
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from splitstudy import prices as prices_module
from splitstudy import report as report_module
from splitstudy import returns as returns_module
from splitstudy.demo import demo_universe, write_demo_universe
from splitstudy.errors import ConfigError, DataError, NoSamplesError
from splitstudy.ingest import write_bars, write_splits
from splitstudy.models import (
    BarTable, EventWindow, OffsetSeries, SplitEvent, group_by_ticker,
)
from splitstudy.fundamentals import IndexedProfitRow
from splitstudy.prices import RAW, SPLIT_ADJUSTED, GapSeries
from splitstudy.report import (
    HYPOTHESES,
    VOLUME_BASES,
    AnalysisReport,
    RunConfig,
    RunParams,
    _aggregate,
    _encode,
    _field,
    _finite,
    _pct,
    _points,
    _ratio,
    _sample_dict,
    analyze_universe,
    available_selectors,
    emit,
    run_pipeline,
)
from splitstudy.synthetic import ScenarioSpec, generate_history, reference_rates
from splitstudy.windows import align_to_event


@pytest.fixture(scope="module")
def demo_paths(tmp_path_factory):
    out = tmp_path_factory.mktemp("demo")
    return write_demo_universe(out, seed=99)


@pytest.fixture(scope="module")
def demo_report(demo_paths, tmp_path_factory):
    out = tmp_path_factory.mktemp("run")
    config = RunConfig(
        bars=str(demo_paths["bars"]),
        splits=str(demo_paths["splits"]),
        fundamentals=str(demo_paths["fundamentals"]),
        rates=str(demo_paths["rates"]),
        out=str(out),
    )
    return run_pipeline(config)


def test_nine_sample_universe_fully_analyzed(demo_report):
    assert len(demo_report.samples) == 9
    assert demo_report.exclusions == []
    for sample in demo_report.samples:
        assert sample.notes == []
        assert sample.volume_comparison is not None
        assert sample.trend_before is not None and sample.trend_after is not None
        assert sample.period_avgs is not None
        assert sample.beta is not None
        assert len(sample.abnormal) == 8  # 4 horizons x 2 baselines
        assert set(sample.value_factors) == {6, 12}
        assert sample.indexed_profit is not None
        assert sample.consistency is not None
        assert set(sample.gap_90) == {"raw", "split_adjusted"}
    agg = demo_report.aggregate
    assert agg["n_samples"] == 9
    shares = agg["volume_share"]
    assert shares["before_share"] + shares["after_share"] == pytest.approx(1.0)
    counts = agg["consistency"]
    assert counts["consistent"] + counts["inconsistent"] + counts["unknown"] == 9


def test_samples_sorted_by_ticker_then_date(demo_report):
    ids = [s.sample_id for s in demo_report.samples]
    assert ids == sorted(ids)


def test_value_factor_wiring(demo_report):
    # value factor must equal raw price factor x ratio for every sample
    for sample in demo_report.samples:
        for vf in sample.value_factors.values():
            assert vf.value_factor == pytest.approx(
                vf.price_factor * vf.split_ratio, rel=1e-12
            )
            assert vf.split_ratio == sample.event.ratio


def test_flat_degenerate_sample_all_metrics_neutral():
    spec = ScenarioSpec(
        seed=4, n_days=400, daily_drift=0.0, daily_vol=0.0, volume_noise=0.0,
        split_day=140, split_ratio=1.0, base_volume=777,
    )
    bars, event = generate_history(spec)
    samples, exclusions = analyze_universe(
        bars, [event], [], None, RunParams(min_coverage=0.0)
    )
    (sample,) = samples
    assert sample.event.is_degenerate
    assert sample.volume_comparison.after_pct_of_before == pytest.approx(100.0)
    assert sample.trend_before.slope == pytest.approx(0.0, abs=1e-9)
    assert sample.trend_after.slope == pytest.approx(0.0, abs=1e-9)
    avgs = sample.period_avgs
    assert avgs.g1_avg == avgs.g2_avg == avgs.g3_avg
    assert all(pct == 0.0 for pct in sample.post_price_changes.values())
    for vf in sample.value_factors.values():
        assert vf.value_factor == 1.0
    for basis, gaps in sample.gap_90.items():
        assert gaps.mean_gap_before == gaps.mean_gap_after == 0.0
    # constant series: beta is impossible (zero variance), noted not fatal
    assert sample.beta is None
    assert any("beta" in note for note in sample.notes)


def test_empty_split_calendar_raises():
    bars, _ = generate_history(ScenarioSpec(seed=4, n_days=50, split_day=25))
    with pytest.raises(NoSamplesError):
        analyze_universe(bars, [], [], None, RunParams())


def test_all_samples_excluded_raises():
    bars, event = generate_history(ScenarioSpec(seed=4, n_days=50, split_day=25))
    with pytest.raises(NoSamplesError, match="no analyzable samples"):
        analyze_universe(bars, [event], [], None, RunParams())


def test_short_history_is_excluded_with_reason():
    long_bars, long_event = generate_history(
        ScenarioSpec(seed=5, n_days=400, split_day=140, ticker="LONG")
    )
    short_bars, short_event = generate_history(
        ScenarioSpec(seed=6, n_days=60, split_day=30, ticker="SHRT")
    )
    samples, exclusions = analyze_universe(
        long_bars + short_bars,
        [long_event, short_event],
        [],
        None,
        RunParams(min_coverage=0.95),
    )
    assert [s.event.ticker for s in samples] == ["LONG"]
    (excluded,) = exclusions
    assert excluded["sample"].startswith("SHRT")
    assert "coverage" in excluded["reason"]


def test_unknown_ticker_split_is_excluded_with_reason():
    bars, event = generate_history(
        ScenarioSpec(seed=5, n_days=400, split_day=140, ticker="REAL")
    )
    ghost = SplitEvent("GHST", event.effective_date, 2.0)
    samples, exclusions = analyze_universe(
        bars, [event, ghost], [], None, RunParams(min_coverage=0.0)
    )
    assert [s.event.ticker for s in samples] == ["REAL"]
    (excluded,) = exclusions
    assert excluded["sample"].startswith("GHST")
    assert "no bars" in excluded["reason"]


def test_json_round_trip(demo_report):
    text = demo_report.to_json()
    parsed = json.loads(text)
    assert parsed == demo_report.to_dict()
    assert parsed["engine"]["name"] == "splitstudy"
    assert len(parsed["samples"]) == 9
    # self-describing metrics: window/basis annotations present
    sample = parsed["samples"][0]
    assert sample["h1"]["volume_comparison"]["span"] == 30
    assert sample["h1"]["volume_comparison"]["basis"] == "raw"
    assert sample["h1"]["period_averages"]["groups"] == [[-91, -31], [-30, 30], [31, 91]]
    assert sample["h2"]["beta"]["window"] == [-120, -1]
    assert sample["h3"]["gap_90"]["raw"]["range"] == [-90, 90]
    assert parsed["generated_at"] is None


def test_json_is_strict(demo_report):
    report = dataclasses.replace(demo_report, aggregate={"mean": float("nan")})
    with pytest.raises(ValueError, match="JSON compliant"):
        report.to_json()
    # A non-finite value inside a series, which is written point by point
    # only when every value is finite.
    for bad in (math.inf, math.nan):
        series = OffsetSeries(range(2), array("d", [1.0, bad]))
        sample = dataclasses.replace(demo_report.samples[0], volume_series=series)
        report = dataclasses.replace(demo_report, samples=[sample])
        with pytest.raises(ValueError, match="JSON compliant"):
            report.to_json()


def test_finite_finds_a_non_finite_float_at_any_depth():
    def gaps(*values):
        return GapSeries(RAW, 1.0, 1.0, range(len(values)), array("d", values))

    finite = [
        1.0, 0, None, "inf", True, range(3), array("q", [2**62]), gaps(0.0, 1e308),
        IndexedProfitRow("X", 2014, {2014: 0.0, 2015: -1e308}, 3.5),
        [(1, 2.0), {"a": [0.5]}],
    ]
    for bad in (math.inf, -math.inf, math.nan):
        assert _finite(bad) is False
        for holder in (
            [1.0, bad], (bad,), {"a": 1.0, "b": bad}, [[{"a": (bad,)}]],
            gaps(0.0, bad), GapSeries(RAW, 1.0, bad, range(1), array("d", [0.0])),
            IndexedProfitRow("X", 2014, {2014: 0.0, 2015: bad}, 3.5),
        ):
            assert _finite(holder) is False, holder
    for value in finite:
        assert _finite(value) is True, value


def _stdlib(value):
    return json.dumps(value, indent=2, allow_nan=False)


class _Ordinal(enum.IntEnum):
    ONE = 1


class _Float(float):
    def __repr__(self):  # stdlib writes float.__repr__ for any subclass
        return f"_Float({float.__repr__(self)})"


def json_values(floats):
    """Nested report-like values: series of number lists among other shapes.

    A series point is an ``[int, int | float]`` list, or a list with a bool,
    None, an IntEnum member or a float subclass in it, or one of another
    length; ``floats`` may hold nan and inf.
    """
    offsets = st.integers(-(10**20), 10**20)
    numbers = offsets | floats
    text = st.text(
        st.sampled_from('a"[]{},:\n\\é€\x00') | st.characters(), max_size=6
    )
    scalars = st.none() | st.booleans() | numbers | text
    odd = st.booleans() | st.none() | st.just(_Ordinal.ONE) | floats.map(_Float)
    point = st.tuples(offsets, numbers).map(list)
    odd_point = (st.tuples(odd, numbers) | st.tuples(offsets, odd)).map(list)
    series = (
        st.lists(point, max_size=4)
        | st.lists(point | odd_point, max_size=4)
        | st.lists(st.lists(numbers | odd, max_size=3), max_size=4)
    )
    labelled = st.lists(st.lists(numbers | text | st.just({}), max_size=3), max_size=4)
    mixed = st.lists(
        numbers | st.lists(numbers, max_size=3) | st.tuples(numbers, numbers),
        max_size=4,
    )
    keys = st.text(max_size=4) | st.integers(-5, 5) | floats | st.booleans() | st.none()
    return st.recursive(
        scalars | series | labelled | mixed,
        lambda children: st.lists(children, max_size=4)
        | st.dictionaries(st.text(max_size=4), children, max_size=4)
        | st.dictionaries(keys, children, max_size=4),
        max_leaves=30,
    )


FINITE = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
    [-0.0, 1e-07, 1e16, 0.1]
)


@settings(max_examples=400, deadline=None)
@given(json_values(FINITE))
def test_encode_matches_stdlib_indent(value):
    assert _encode(value, 0) == _stdlib(value)


@settings(max_examples=200, deadline=None)
@given(json_values(FINITE | st.sampled_from([math.nan, math.inf, -math.inf])))
def test_encode_rejects_what_stdlib_rejects(value):
    try:
        expected = _stdlib(value)
    except ValueError:
        with pytest.raises(ValueError, match="JSON compliant"):
            _encode(value, 0)
    else:
        assert _encode(value, 0) == expected


SERIES_FLOATS = st.floats() | st.sampled_from(
    [-0.0, 5e-324, 2.2250738585072014e-308 / 3, 1e308, -1e308, 1e-07, 1e16]
)


@st.composite
def offset_series(draw):
    """An ``OffsetSeries`` of ``array('q')`` or ``array('d')`` values, empty
    ones included; the floats may be subnormal, huge or non-finite."""
    if draw(st.booleans()):
        values = array("q", draw(st.lists(st.integers(-(2**63), 2**63 - 1), max_size=5)))
    else:
        values = array("d", draw(st.lists(SERIES_FLOATS, max_size=5)))
    start = draw(st.integers(-300, 300))
    return OffsetSeries(range(start, start + len(values)), values)


@settings(max_examples=300, deadline=None)
@given(offset_series(), st.integers(0, 4))
def test_encode_series_matches_its_points(series, level):
    if all(map(math.isfinite, series.values)):
        assert _encode(series, level) == _encode(_points(series), level)
    else:
        for value in (series, _points(series)):
            with pytest.raises(ValueError, match="JSON compliant"):
                _encode(value, level)


@pytest.mark.parametrize("hypothesis", HYPOTHESES)
def test_demo_to_json_is_stdlib_indent(hypothesis, tmp_path):
    for seed in range(10):
        config = RunConfig(
            out=str(tmp_path), seed=seed, params=RunParams(hypothesis=hypothesis)
        )
        report = run_pipeline(config)
        assert report.to_json() == (_stdlib(report.to_dict()) + "\n").encode()


def test_edge_reports_to_json_is_stdlib_indent():
    bars, event = generate_history(
        ScenarioSpec(seed=4, n_days=400, daily_vol=0.0, volume_noise=0.0,
                     split_day=140, split_ratio=2.0)
    )
    # No pre-split rows and no rates or fundamentals: many metrics absent.
    from_day0 = [b for b in bars if b.date >= event.effective_date]
    ghost = SplitEvent("GHST", event.effective_date, 2.0)
    params = RunParams(min_coverage=0.0)
    samples, exclusions = analyze_universe(
        from_day0, [event, ghost], [], None, params
    )
    (sample,) = samples
    assert exclusions and sample.beta is None and sample.trend_before is None
    assert sample.period_avgs is None and sample.post_price_changes == {}
    for samples, exclusions in (([], []), (samples, exclusions)):
        report = AnalysisReport(
            config={}, inputs={"bars": None}, params=params, samples=samples,
            aggregate={"n_samples": len(samples)}, exclusions=exclusions,
        )
        assert report.to_json() == (_stdlib(report.to_dict()) + "\n").encode()


def _edge_report():
    """An exclusion and a sample with no pre-split bar, so most metrics are
    absent, on the default hypothesis."""
    bars, event = generate_history(
        ScenarioSpec(seed=4, n_days=400, daily_vol=0.0, volume_noise=0.0,
                     split_day=140, split_ratio=2.0)
    )
    from_day0 = [b for b in bars if b.date >= event.effective_date]
    ghost = SplitEvent("GHST", event.effective_date, 2.0)
    params = RunParams(min_coverage=0.0)
    samples, exclusions = analyze_universe(
        from_day0, [event, ghost], [], None, params
    )
    return AnalysisReport(
        config={}, inputs={}, params=params, samples=samples,
        aggregate=_aggregate(samples), exclusions=exclusions,
    )


def _rows_from_json(report):
    """Each checked CSV's data rows, formatted from report.json's values."""
    samples = report["samples"]
    shares = report["aggregate"].get("volume_share")
    rows = {
        "fig2": [[_ratio(shares["before_share"]), _ratio(shares["after_share"])]]
        if shares else [],
    }
    for name, section, key in (
        ("fig1", "h1", "volume_comparison"),
        ("fig16", "h3", "volume_comparison_half_year"),
    ):
        rows[name] = [
            [s["id"], str(c["before_total"]), str(c["after_total"]),
             _pct(c["after_pct_of_before"])]
            for s in samples if (c := s[section][key])
        ]
    rows["fig4"] = [
        [s["id"], side, _ratio(t["slope"]), _ratio(t["intercept"]),
         _pct(t["normalized_slope_pct"])]
        for s in samples
        for side in ("before", "after") if (t := s["h1"][f"trend_{side}"])
    ]
    rows["fig6"] = [
        [s["id"], *(_ratio(p[f"g{i}_avg"]) for i in (1, 2, 3))]
        for s in samples if (p := s["h1"]["period_averages"])
    ]
    for name, key in (("fig7", "price_changes_post"), ("fig10", "price_changes_around")):
        rows[name] = [
            [s["id"], months, _pct(change["pct"])]
            for s in samples for months, change in s["h2"][key].items()
        ]
    for name, baseline in (("fig11", "full_period"), ("fig12", "demarcation")):
        rows[name] = [
            [s["id"], str(a["months"]), str(a["horizon_days"]),
             _ratio(a["normal_return"]), _ratio(a["market_influenced_return"]),
             _pct(100.0 * a["abnormal"])]
            for s in samples for a in s["h2"]["abnormal_returns"] or []
            if a["baseline"] == baseline
        ]
    rows["fig15"] = [
        [s["id"], basis, _ratio(g["mean_gap_before"]), _ratio(g["mean_gap_after"])]
        for s in samples for basis, g in s["h3"]["gap_half_year"].items()
    ]
    rows["table3"] = [
        [s["id"], _pct(c["price_change_pct"]), _pct(c["profit_change_pct"]),
         _pct(c["roe_change_pp"]), str(c["consistent"]).lower()]
        for s in samples if (c := s["h2"]["consistency"])
    ]
    rows["betas"] = [
        [s["id"], _ratio(b["beta"]), b["variant"], str(b["n_obs"])]
        for s in samples if (b := s["h2"]["beta"])
    ]
    return rows


@pytest.mark.parametrize("which", ["demo", "edge"])
def test_csv_values_match_report_json(demo_report, which, tmp_path):
    report = demo_report if which == "demo" else _edge_report()
    emit(report, tmp_path)
    expected = _rows_from_json(
        json.loads((tmp_path / "report.json").read_text(encoding="utf-8"))
    )
    assert any(expected.values())
    for name, rows in expected.items():
        with (tmp_path / f"{name}.csv").open(newline="", encoding="utf-8") as fh:
            assert list(csv.reader(fh))[1:] == rows, name


@pytest.mark.parametrize(
    "text", ["ACME", "A,B", 'A"B', "A\rB", "A\nB", " ACME", "", "Äkta€"]
)
def test_field_quotes_as_csv_writer_does(text):
    out = io.StringIO()
    csv.writer(out).writerow([text, 1])
    assert _field(text) + ",1\r\n" == out.getvalue()


@pytest.mark.parametrize("which", ["seed0", "seed1", "seed2", "edge"])
def test_gap_bases_share_their_offsets(which, tmp_path):
    # fig13 pairs the raw and split-adjusted gaps of a sample by position.
    if which == "edge":
        report = _edge_report()
    else:
        report = run_pipeline(RunConfig(out=str(tmp_path), seed=int(which[-1])))
    assert report.samples
    for s in report.samples:
        assert s.gap_90[RAW].offsets == s.gap_90[SPLIT_ADJUSTED].offsets


def _traced_peak(call):
    """The most memory ``call()`` held at once, in bytes, by tracemalloc."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _repeated(report, copies):
    return dataclasses.replace(report, samples=report.samples * copies)


@pytest.mark.parametrize("copies", [1, 8])
def test_to_json_peak_stays_near_its_text(demo_report, copies):
    # The buffer and one sample's piece, not a dict tree of the whole
    # report, the pieces or further copies of the text beside it.
    report = _repeated(demo_report, copies)
    size = len(report.to_json())
    assert _traced_peak(report.to_json) <= 1.5 * size


@pytest.mark.parametrize("copies", [1, 8])
def test_json_emit_peak_stays_near_report_json(demo_report, copies, tmp_path):
    report = _repeated(demo_report, copies)
    (path,) = emit(report, tmp_path, ("json",))  # first calls fill caches
    peak = _traced_peak(lambda: emit(report, tmp_path, ("json",)))
    assert peak <= 1.5 * path.stat().st_size


def test_csv_emit_peak_does_not_grow_with_samples(demo_report, tmp_path):
    def peak(copies):
        report = _repeated(demo_report, copies)
        return _traced_peak(lambda: emit(report, tmp_path, formats=("csv",)))

    peak(1)  # first calls fill caches
    assert peak(8) < 2 * peak(1)


def test_emit_writes_report_json_without_a_copy_of_its_text(demo_report, tmp_path):
    # Given the bytes, emit writes them as they are, without a copy.
    report = _repeated(demo_report, 8)
    data = report.to_json()
    with mock.patch.object(type(report), "to_json", return_value=data):
        peak = _traced_peak(lambda: emit(report, tmp_path, ("json",)))
    assert peak < len(data) / 8
    assert (tmp_path / "report.json").read_bytes() == data


@pytest.mark.parametrize("n_tickers", [4, 16])
def test_samples_retain_few_bytes_per_sample(n_tickers):
    # A sample holds its series as arrays and the half-year gaps only as
    # their means, so it keeps a few KB however many samples there are.
    bars, events = [], []
    for i in range(n_tickers):
        spec = ScenarioSpec(seed=70 + i, n_days=540, split_day=270, ticker=f"T{i:02d}")
        history, event = generate_history(spec)
        bars.extend(history)
        events.append(event)
    table, rates = BarTable.from_bars(bars), reference_rates(bars[:540])
    analyze_universe(table, events, [], rates, RunParams())  # first calls fill caches
    tracemalloc.start()
    try:
        samples, _ = analyze_universe(table, events, [], rates, RunParams())
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(samples) == n_tickers
    assert retained / n_tickers < 20_000


def test_report_is_deterministic(demo_paths, tmp_path):
    config = RunConfig(
        bars=str(demo_paths["bars"]),
        splits=str(demo_paths["splits"]),
        fundamentals=str(demo_paths["fundamentals"]),
        rates=str(demo_paths["rates"]),
        out=str(tmp_path),
    )
    first = run_pipeline(config).to_json()
    second = run_pipeline(config).to_json()
    assert first == second


def test_split_calendar_order_does_not_matter(demo_paths, tmp_path):
    shuffled = tmp_path / "splits_shuffled.csv"
    lines = (demo_paths["splits"]).read_text().strip().splitlines()
    header, rows = lines[0], lines[1:]
    shuffled.write_text("\n".join([header] + rows[::-1]) + "\n")

    base = RunConfig(
        bars=str(demo_paths["bars"]),
        splits=str(demo_paths["splits"]),
        fundamentals=str(demo_paths["fundamentals"]),
        rates=str(demo_paths["rates"]),
        out=str(tmp_path),
    )
    permuted = RunConfig(
        bars=base.bars,
        splits=str(shuffled),
        fundamentals=base.fundamentals,
        rates=base.rates,
        out=base.out,
    )
    report_a = run_pipeline(base).to_dict()
    report_b = run_pipeline(permuted).to_dict()
    # input digests differ by construction; all analysis output must not
    for key in ("samples", "aggregate", "exclusions", "params"):
        assert report_a[key] == report_b[key]


def test_emit_writes_all_selectors(demo_report, tmp_path):
    written = emit(demo_report, tmp_path)
    names = sorted(p.name for p in written)
    assert "report.json" in names
    assert "fig1.csv" in names and "table3.csv" in names and "betas.csv" in names
    fig2 = (tmp_path / "fig2.csv").read_text().strip().splitlines()
    assert fig2[0] == "before_share,after_share"
    before, after = map(float, fig2[1].split(","))
    assert before + after == pytest.approx(1.0, abs=1e-6)
    table1 = (tmp_path / "table1.csv").read_text().strip().splitlines()
    assert len(table1) == 10  # header + nine samples


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.usefixtures("ungated")
def test_emit_writes_the_same_files_with_a_child_and_without(demo_report, tmp_path):
    with mock.patch("os.fork", wraps=os.fork) as fork:
        written = emit(demo_report, tmp_path / "two")
    assert fork.call_count == 1
    _no_child_left()
    with mock.patch.object(report_module, "may_fork", return_value=False):
        alone = emit(demo_report, tmp_path / "one")
    assert [p.name for p in written] == [p.name for p in alone]
    assert [p.read_bytes() for p in written] == [p.read_bytes() for p in alone]


@pytest.mark.usefixtures("ungated")
def test_emit_failing_in_its_child_raises_as_alone_and_leaves_no_child(
    demo_report, tmp_path
):
    def failure(out, forks):
        (out / "fig3.csv").mkdir(parents=True)  # a directory occupies fig3.csv
        with mock.patch.object(report_module, "may_fork", return_value=forks):
            with pytest.raises(OSError) as exc_info:
                emit(demo_report, out)
        return str(exc_info.value).replace(str(out), "OUT")

    with mock.patch("os.fork", wraps=os.fork) as fork:
        with_child = failure(tmp_path / "two", True)
    assert fork.call_count == 1
    _no_child_left()
    assert with_child == failure(tmp_path / "one", False)
    assert with_child == "[Errno 21] Is a directory: 'OUT/fig3.csv'"


@pytest.mark.usefixtures("ungated")
def test_emit_leaves_whole_csvs_when_report_json_fails(demo_report, tmp_path):
    # report.json fails at once, while the child still writes the CSVs:
    # emit waits for the child before it raises, so none is cut short.
    failing = mock.patch.object(
        type(demo_report), "to_json", side_effect=ValueError("not JSON compliant")
    )
    with mock.patch("os.fork", wraps=os.fork) as fork, failing:
        with pytest.raises(ValueError, match="^not JSON compliant$"):
            emit(demo_report, tmp_path / "two")
    assert fork.call_count == 1
    _no_child_left()
    expected = emit(demo_report, tmp_path / "one", formats=("csv",))
    left = sorted((tmp_path / "two").iterdir())
    assert [p.name for p in left] == sorted(p.name for p in expected)
    assert [p.read_bytes() for p in left] == [
        (tmp_path / "one" / p.name).read_bytes() for p in left
    ]


@pytest.mark.usefixtures("ungated")
def test_emit_writes_alone_when_no_process_can_be_forked(demo_report, tmp_path):
    no_process = BlockingIOError(11, "Resource temporarily unavailable")
    with mock.patch("os.fork", side_effect=no_process) as fork:
        written = emit(demo_report, tmp_path / "alone")
    assert fork.call_count == 1
    expected = emit(demo_report, tmp_path / "two")
    assert [p.read_bytes() for p in written] == [p.read_bytes() for p in expected]


@pytest.mark.usefixtures("ungated")
def test_emit_does_not_fork_for_one_format_or_while_another_thread_runs(
    demo_report, tmp_path
):
    release = threading.Event()
    thread = threading.Thread(target=release.wait)
    with mock.patch("os.fork", side_effect=AssertionError("forked")):
        emit(demo_report, tmp_path / "csv", formats=("csv",))
        emit(demo_report, tmp_path / "json", formats=("json",))
        thread.start()
        try:
            assert len(emit(demo_report, tmp_path / "both")) == 21
        finally:
            release.set()
            thread.join(timeout=10)
    assert not thread.is_alive()


@pytest.mark.usefixtures("ungated")
def test_emit_of_many_samples_forks_only_for_the_csvs(demo_report, tmp_path):
    # report.json is encoded by this process however many samples there are.
    report = _repeated(demo_report, 4)  # 36 samples
    with mock.patch("os.fork", wraps=os.fork) as fork:
        assert report.to_json() == (_stdlib(report.to_dict()) + "\n").encode()
    assert fork.call_count == 0
    for formats, forks in ((("json",), 0), (("json", "csv"), 1)):
        out = tmp_path / "-".join(formats)
        with mock.patch("os.fork", wraps=os.fork) as fork:
            written = emit(report, out, formats=formats)
        assert fork.call_count == forks, formats
        _no_child_left()
        with mock.patch.object(report_module, "may_fork", return_value=False):
            alone = emit(report, tmp_path / "alone" / out.name, formats=formats)
        assert [p.read_bytes() for p in written] == [p.read_bytes() for p in alone]


def test_emit_forks_from_its_gate_on(demo_report, tmp_path):
    # Below FORK_MIN_SAMPLES this process writes every file; from it on, a
    # child writes the CSVs. The files are the same either way.
    gate = report_module.FORK_MIN_SAMPLES
    many = _repeated(demo_report, -(-gate // len(demo_report.samples)))
    for samples, forks in ((gate - 1, 0), (gate, 1)):
        report = dataclasses.replace(many, samples=many.samples[:samples])
        out = tmp_path / str(samples)
        with mock.patch("os.fork", wraps=os.fork) as fork:
            written = emit(report, out)
        assert fork.call_count == forks
        _no_child_left()
        with mock.patch.object(report_module, "may_fork", return_value=False):
            alone = emit(report, out / "alone")
        assert [p.read_bytes() for p in written] == [p.read_bytes() for p in alone]


def test_all_zero_volume_universe_leaves_volume_share_absent(tmp_path):
    # Zero volumes are valid input; the market-wide shares are undefined.
    bars, event = generate_history(ScenarioSpec(seed=4, n_days=400, split_day=140))
    write_bars(tmp_path / "bars.csv", [dataclasses.replace(b, volume=0) for b in bars])
    write_splits(tmp_path / "splits.csv", [event])
    report = run_pipeline(RunConfig(
        bars=str(tmp_path / "bars.csv"), splits=str(tmp_path / "splits.csv"),
        out=str(tmp_path),
    ))
    assert report.samples[0].volume_comparison.before_total == 0
    assert "volume_share" not in report.aggregate
    emit(report, tmp_path, selectors=["fig2"])
    assert (tmp_path / "fig2.csv").read_text() == "before_share,after_share\n"


def _huge_volume_inputs(tmp_path, day):
    """Inputs whose bar ``day``, before a ratio-2 split on day 140, trades
    a volume that doubled exceeds int64."""
    bars, event = generate_history(ScenarioSpec(seed=4, n_days=400, split_day=140))
    bars[day] = dataclasses.replace(bars[day], volume=2**63 - 2)
    write_bars(tmp_path / "bars.csv", bars)
    write_splits(tmp_path / "splits.csv", [event])
    return RunConfig(
        bars=str(tmp_path / "bars.csv"), splits=str(tmp_path / "splits.csv"),
        out=str(tmp_path), params=RunParams(volume_basis="adjusted"),
    )


def test_adjusted_volume_beyond_int64_in_window_is_rejected(tmp_path):
    message = "^a split-adjusted volume exceeds the int64 range$"
    with pytest.raises(DataError, match=message):
        run_pipeline(_huge_volume_inputs(tmp_path, 100))


def test_volume_outside_every_window_is_not_adjusted(tmp_path):
    # The window starts 126 rows before day 0; bar 5 is in no window.
    report = run_pipeline(_huge_volume_inputs(tmp_path, 5))
    assert [s.sample_id for s in report.samples] == ["SYN@2013-07-16"]


def test_emit_unknown_selector(demo_report, tmp_path):
    with pytest.raises(ConfigError, match="unknown selector"):
        emit(demo_report, tmp_path, selectors=["fig99"])


@pytest.mark.parametrize(
    "selectors, message",
    [
        (["bogus", "bogus"], "unknown selector 'bogus'"),
        (["fig1", "fig1"], "more than once"),
    ],
)
def test_emit_checks_selectors_for_json_alone(demo_report, selectors, message, tmp_path):
    # Selectors are checked before any file is written, CSVs asked for or not.
    with pytest.raises(ConfigError, match=message):
        emit(demo_report, tmp_path / "out", ("json",), selectors=selectors)
    assert not (tmp_path / "out").exists()


def test_hypothesis_gating(demo_paths, tmp_path):
    config = RunConfig(
        bars=str(demo_paths["bars"]),
        splits=str(demo_paths["splits"]),
        fundamentals=str(demo_paths["fundamentals"]),
        rates=str(demo_paths["rates"]),
        out=str(tmp_path),
        params=RunParams(hypothesis="h1"),
    )
    report = run_pipeline(config)
    (sample,) = [report.samples[0]]
    assert sample.volume_comparison is not None
    assert sample.beta is None and sample.gap_90 is None
    selectors = available_selectors(report.params)
    assert "fig1" in selectors and "fig13" not in selectors
    with pytest.raises(ConfigError, match="hypothesis"):
        emit(report, tmp_path, selectors=["fig13"])
    emitted = emit(report, tmp_path)
    assert all(p.stem in selectors or p.stem == "report" for p in emitted)


def test_synthetic_mode_generates_inputs(tmp_path):
    config = RunConfig(out=str(tmp_path), seed=123)
    report = run_pipeline(config)
    assert len(report.samples) == 9
    for name in ("bars", "splits", "fundamentals", "rates"):
        assert (tmp_path / "inputs" / f"{name}.csv").exists()
        assert report.inputs[name]["sha256"]


def test_run_leaves_no_garbage_cycles(tmp_path):
    # Objects in reference cycles outlive the run until a full collection;
    # a run and its emit should free everything by reference counting.
    gc.collect()
    gc.disable()
    try:
        report = run_pipeline(RunConfig(out=str(tmp_path), seed=0))
        emit(report, tmp_path)
        del report
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_demo_universe_deterministic():
    a = demo_universe(seed=7)
    b = demo_universe(seed=7)
    assert a == b


def test_price_change_absent_when_window_starts_at_day_zero():
    bars, event = generate_history(
        ScenarioSpec(seed=4, n_days=400, daily_vol=0.0, volume_noise=0.0,
                     split_day=140, split_ratio=2.0)
    )
    params = RunParams(hypothesis="h2", price_basis="raw", min_coverage=0.0)
    (full,), _ = analyze_universe(bars, [event], [], None, params)
    assert full.post_price_changes[3] == pytest.approx(-50.0)
    # The same raw path with every pre-split row removed: offset -1 is
    # missing, and day 0 (already halved) must not stand in for it.
    from_day0 = [b for b in bars if b.date >= event.effective_date]
    (sample,), _ = analyze_universe(from_day0, [event], [], None, params)
    assert sample.post_price_changes == {}
    assert sample.around_price_changes == {}
    assert (
        "price_change_3m: no bar within 3 trading days of offset -1"
        in sample.notes
    )


@pytest.mark.parametrize("month_days", [1, 5, 15, 21, 79])
def test_window_span_is_the_offsets_the_metrics_read(month_days, monkeypatch):
    # Record every offset a metric asks the window for, through the window's
    # one range accessor and the one point accessor each module calls.
    params = RunParams(month_days=month_days, min_coverage=0.0)
    pre, post = params.pre_span, params.post_span
    bars, event = generate_history(
        ScenarioSpec(seed=4, n_days=pre + post + 41, split_day=pre + 20)
    )
    read = []
    between = EventWindow.between

    def recorded_between(window, lo, hi):
        read.extend((lo, hi))
        return between(window, lo, hi)

    monkeypatch.setattr(EventWindow, "between", recorded_between)
    for module in (report_module, returns_module, prices_module):
        def recorded_price_at(window, offset, *args, original=module.price_at, **kw):
            read.append(offset)
            return original(window, offset, *args, **kw)

        monkeypatch.setattr(module, "price_at", recorded_price_at)
    rates = reference_rates(bars)
    (sample,), _ = analyze_universe(bars, [event], [], rates, params)
    assert sample.beta is not None and len(sample.abnormal) == 8
    assert (min(read), max(read)) == (-pre, post)


@pytest.mark.parametrize(
    "model, values, message",
    [
        (RunConfig, {"bars": Path("b.csv"), "splits": Path("s.csv")},
         f"bars must be a string, got {Path('b.csv')!r}"),
        (RunConfig, {"out": Path("o")}, f"out must be a string, got {Path('o')!r}"),
        (RunConfig, {"seed": True}, "seed must be an integer, got True"),
        (RunParams, {"month_days": True}, "month_days must be an integer, got True"),
        (RunParams, {"month_days": 21.5}, "month_days must be an integer, got 21.5"),
        (RunParams, {"min_coverage": True}, "min_coverage must be a number, got True"),
        (RunParams, {"beta_variant": ["cov"]},
         "beta_variant must be one of ('cov', 'corr')"),
    ],
    ids=["path-inputs", "path-out", "bool-seed", "bool-month", "fractional-month",
         "bool-coverage", "list-variant"],
)
def test_run_settings_are_checked_when_built(model, values, message):
    # The CLI's messages, for library callers too, before any input is read.
    with pytest.raises(ConfigError) as exc_info:
        model(**values)
    assert str(exc_info.value) == message


@functools.lru_cache(maxsize=None)
def _demo():
    return demo_universe(seed=3)


def _interleave(groups, rng):
    """Merge row lists at random, keeping each list's own order."""
    queues = [list(reversed(g)) for g in groups if g]
    merged = []
    while queues:
        queue = rng.choice(queues)
        merged.append(queue.pop())
        if not queue:
            queues.remove(queue)
    return merged


@settings(max_examples=15, deadline=None)
@given(
    target=st.integers(0, 8),
    others=st.sets(st.integers(0, 8), min_size=1, max_size=4),
    reverse=st.booleans(),
    mix_seed=st.integers(0, 2**32 - 1),
    volume_basis=st.sampled_from(VOLUME_BASES),
)
def test_sample_does_not_depend_on_other_tickers(
    target, others, reverse, mix_seed, volume_basis
):
    bars, events, fundamentals, rates = _demo()
    grouped = [group_by_ticker(rows) for rows in (bars, events, fundamentals)]
    tickers = sorted(grouped[1])
    mine = tickers[target]
    params = RunParams(volume_basis=volume_basis)
    alone, _ = analyze_universe(
        *(g[mine] for g in grouped), rates, params
    )
    (expected,) = alone

    universe = sorted({mine} | {tickers[i] for i in others}, reverse=reverse)
    if reverse:  # whole ticker blocks in reverse ticker order
        mixed = [[row for t in universe for row in g[t]] for g in grouped]
    else:  # rows interleaved across tickers
        rng = random.Random(mix_seed)
        mixed = [_interleave([g[t] for t in universe], rng) for g in grouped]
    samples, _ = analyze_universe(*mixed, rates, params)
    (sample,) = [s for s in samples if s.sample_id == expected.sample_id]
    assert _sample_dict(sample, params) == _sample_dict(expected, params)


@pytest.mark.parametrize("volume_basis", VOLUME_BASES)
def test_alignment_reads_each_event_tickers_bars_once(monkeypatch, volume_basis):
    bars, events, fundamentals, rates = _demo()
    # a ticker without splits must never be handed to the aligner
    market, _ = generate_history(
        ScenarioSpec(seed=5, n_days=540, split_day=270, ticker="MKT")
    )
    seen = []

    def counting_align(ticker_bars, *args, **kwargs):
        seen.append(len(ticker_bars))
        return align_to_event(ticker_bars, *args, **kwargs)

    monkeypatch.setattr("splitstudy.report.align_to_event", counting_align)
    event_tickers = {e.ticker for e in events}
    event_bars = sum(1 for b in bars if b.ticker in event_tickers)
    analyze_universe(
        market + bars, events, fundamentals, rates,
        RunParams(hypothesis="h1", volume_basis=volume_basis),
    )
    assert len(seen) == len(events)
    assert sum(seen) == event_bars
