"""CSV parsing, validation errors and round-trip losslessness."""

import dataclasses
import datetime
import os
import re
import subprocess
import sys
import tempfile
import threading
import tracemalloc
from array import array
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from splitstudy import ingest
from splitstudy.cli import main
from splitstudy.errors import DataError
from splitstudy.ingest import (
    parse_bars,
    parse_fundamentals,
    parse_rates,
    parse_splits,
    write_bars,
    write_fundamentals,
    write_rates,
    write_splits,
)
from splitstudy.models import (
    FundamentalRecord,
    ReferenceRateSeries,
    SplitEvent,
    TradingBar,
)
from splitstudy.synthetic import ScenarioSpec, generate_history

from oracles import parse_bars_per_field

TABLE1_RATIOS = [1.25, 1.1, 1.015, 1.068, 1.569, 2, 1.333, 1.011, 4.899]


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


def test_parse_bars_single_valid_row(tmp_path):
    path = _write(
        tmp_path,
        "bars.csv",
        "ticker,date,open,high,low,close,adj_close,volume\n"
        "X,2013-06-03,10,11,9,10.5,10.5,1000\n",
    )
    (bar,) = parse_bars(path)
    assert bar.ticker == "X"
    assert bar.date == datetime.date(2013, 6, 3)
    assert (bar.open, bar.high, bar.low, bar.close) == (10.0, 11.0, 9.0, 10.5)
    assert bar.volume == 1000


def test_parse_bars_reports_violated_invariant_with_line(tmp_path):
    path = _write(
        tmp_path,
        "bars.csv",
        "ticker,date,open,high,low,close,adj_close,volume\n"
        "X,2013-06-03,9.5,9,10,9.5,9.5,1000\n",
    )
    with pytest.raises(DataError) as exc_info:
        parse_bars(path)
    message = str(exc_info.value)
    assert "line 2" in message
    assert "low" in message


def test_parse_bars_183_consecutive_rows(tmp_path):
    bars, _ = generate_history(
        ScenarioSpec(seed=11, n_days=183, split_day=91)
    )
    path = tmp_path / "bars.csv"
    write_bars(path, bars)
    parsed = parse_bars(path)
    assert len(parsed) == 183
    assert all(a.date < b.date for a, b in zip(parsed, parsed[1:]))


def test_parse_bars_rejects_duplicates_and_bad_rows(tmp_path):
    dup = _write(
        tmp_path,
        "dup.csv",
        "ticker,date,open,high,low,close,adj_close,volume\n"
        "X,2013-06-03,10,11,9,10.5,10.5,1000\n"
        "X,2013-06-03,10,11,9,10.5,10.5,900\n",
    )
    with pytest.raises(DataError, match="duplicate"):
        parse_bars(dup)
    short = _write(
        tmp_path,
        "short.csv",
        "ticker,date,open,high,low,close,adj_close,volume\nX,2013-06-03,10\n",
    )
    with pytest.raises(DataError, match="line 2"):
        parse_bars(short)
    neg = _write(
        tmp_path,
        "neg.csv",
        "ticker,date,open,high,low,close,adj_close,volume\n"
        "X,2013-06-03,10,11,9,10.5,10.5,-4\n",
    )
    with pytest.raises(DataError, match="volume"):
        parse_bars(neg)


def test_parse_bars_reports_bad_number_with_one_line_prefix(tmp_path):
    path = _write(
        tmp_path,
        "bars.csv",
        "ticker,date,open,high,low,close,adj_close,volume\n"
        "X,2013-06-03,x,11,9,10.5,10.5,1000\n",
    )
    with pytest.raises(DataError) as exc_info:
        parse_bars(path)
    assert str(exc_info.value) == "line 2: bad open 'x'"


@pytest.mark.parametrize(
    "parse, text, message",
    [
        (
            parse_splits,
            'ticker,effective_date,ratio\nA,"2014-01-02\n",2\nX,2014-01-03,zz\n',
            "line 4: bad ratio 'zz'",
        ),
        (
            parse_bars,
            "ticker,date,open,high,low,close,adj_close,volume\n"
            'A,"2013-06-03\n",10,11,9,10.5,10.5,1000\n'
            "\n"
            "X,2013-06-03,x,11,9,10.5,10.5,1000\n",
            "line 5: bad open 'x'",
        ),
    ],
    ids=["splits", "bars"],
)
def test_rows_numbered_by_physical_line(tmp_path, parse, text, message):
    # A quoted field spanning lines 2-3 (and, for bars, the blank line 4)
    # must not shift the number of the faulty row below it.
    path = _write(tmp_path, "input.csv", text)
    with pytest.raises(DataError) as exc_info:
        parse(path)
    assert str(exc_info.value) == message


def _cli_exit_code(bars, tmp_path):
    splits = _write(
        tmp_path, "splits.csv", "ticker,effective_date,ratio\nX,2013-06-04,2\n"
    )
    return main(
        ["--bars", str(bars), "--splits", str(splits), "--out", str(tmp_path / "out")]
    )


def test_undecodable_bytes_rejected_with_line(tmp_path):
    path = tmp_path / "bars.csv"
    path.write_bytes(
        b"ticker,date,open,high,low,close,adj_close,volume\n"
        b"X,2013-06-03,10,11,9,10.5,10.5,1000\n"
        b"X\xff,2013-06-04,10,11,9,10.5,10.5,1000\n"
    )
    with pytest.raises(DataError) as exc_info:
        parse_bars(path)
    assert str(exc_info.value) == "line 3: undecodable bytes b'\\xff' (expected UTF-8)"
    assert _cli_exit_code(path, tmp_path) == 1


def test_oversized_field_rejected_with_line(tmp_path):
    path = _write(
        tmp_path,
        "bars.csv",
        "ticker,date,open,high,low,close,adj_close,volume\n"
        "X,2013-06-03,10,11,9,10.5,10.5,1000\n"
        f"X,2013-06-04,10,11,9,10.5,10.5,{'1' * 140_000}\n",
    )
    with pytest.raises(DataError) as exc_info:
        parse_bars(path)
    assert str(exc_info.value) == "line 3: field larger than field limit (131072)"
    assert _cli_exit_code(path, tmp_path) == 1


def test_parse_bars_header_and_missing_file(tmp_path):
    bad_header = _write(tmp_path, "h.csv", "a,b,c\n")
    with pytest.raises(DataError, match="header"):
        parse_bars(bad_header)
    with pytest.raises(DataError, match="not found"):
        parse_bars(tmp_path / "nope.csv")


BARS_HEADER_LINE = "ticker,date,open,high,low,close,adj_close,volume\n"


@pytest.mark.parametrize(
    "parse,text,message",
    [
        (
            parse_bars,
            BARS_HEADER_LINE
            + "X,2013-06-03,10,11,9,10.5,10.5,1000\n"
            + "X,2013-06-04,10,inf,9,10.5,10.5,1000\n",
            "line 3: high (inf) must be finite",
        ),
        (
            parse_splits,
            "ticker,effective_date,ratio\nX,2014-01-02,2\nY,2014-01-02,inf\n",
            "line 3: split ratio (inf) must be finite",
        ),
        (
            parse_fundamentals,
            "ticker,fiscal_year,net_profit,shareholders_equity\n"
            "X,2013,100,1000\nX,2014,nan,1000\n",
            "line 3: net_profit (nan) must be finite",
        ),
        (
            parse_rates,
            "date,rate\n2013-01-02,0.01\n2013-01-03,inf\n",
            "line 3: rate (inf) must be finite",
        ),
    ],
    ids=["bars", "splits", "fundamentals", "rates"],
)
def test_non_finite_values_rejected_with_line(tmp_path, parse, text, message):
    path = _write(tmp_path, "input.csv", text)
    with pytest.raises(DataError) as exc_info:
        parse(path)
    assert str(exc_info.value) == message


@pytest.mark.parametrize(
    "parse, text",
    [
        (parse_bars, BARS_HEADER_LINE + "X,2013-06-03,10,11,9,10.5,10.5,1000\n"
         + "X,{day},10,11,9,10.5,10.5,1000\n"),
        (parse_splits, "ticker,effective_date,ratio\nX,2014-01-02,2\nY,{day},2\n"),
        (parse_rates, "date,rate\n2013-01-02,0.01\n{day},0.02\n"),
    ],
    ids=["bars", "splits", "rates"],
)
@pytest.mark.parametrize("day", ["20130604", "2013-W23-2"])
def test_dates_other_than_yyyy_mm_dd_rejected_with_line(tmp_path, parse, text, day):
    # Python 3.11+'s date.fromisoformat also takes the basic and week forms;
    # the schema allows YYYY-MM-DD alone, on every Python.
    path = _write(tmp_path, "input.csv", text.format(day=day))
    with pytest.raises(DataError) as exc_info:
        parse(path)
    assert str(exc_info.value) == f"line 3: bad date {day!r} (expected YYYY-MM-DD)"


TICKERS = ("AA", " AA", "BB", "CC ")
FAULTS = (
    "short",
    "long",
    "blank_ticker",
    "bad_date",
    "duplicate",
    "bad_number",
    "bad_volume",
    "nonpositive",
    "low_gt_high",
    "low_gt_body",
    "high_lt_body",
    "negative_volume",
    "huge_volume",
    "control_ticker",
    "non_finite",
    "blank_line",
)


@st.composite
def bars_rows(draw):
    """bars.csv data rows, mostly valid, each fault mixed in at random."""
    rows: list[list[str]] = []
    for _ in range(draw(st.integers(0, 12))):
        low = draw(st.integers(4, 40))
        open_ = draw(st.integers(low, 60))
        close = draw(st.integers(low, 60))
        high = draw(st.integers(max(open_, close), 70))
        day = datetime.date(2013, 1, 1) + datetime.timedelta(draw(st.integers(0, 200)))
        row = [
            draw(st.sampled_from(TICKERS)),
            draw(st.sampled_from(["", " "])) + day.isoformat(),
            *(str(v / 4) for v in (open_, high, low, close)),
            str(draw(st.integers(1, 80)) / 4),
            str(draw(st.integers(0, 10**6))),
        ]
        fault = draw(st.sampled_from(FAULTS)) if draw(st.integers(0, 7)) == 7 else None
        price = draw(st.integers(2, 6))
        if fault == "short":
            row.pop()
        elif fault == "long":
            row.append("1")
        elif fault == "blank_ticker":
            row[0] = " "
        elif fault == "bad_date":
            row[1] = draw(st.sampled_from(["2013-02-30", "13-01-05", "soon"]))
        elif fault == "duplicate" and rows:
            row[:2] = draw(st.sampled_from(rows))[:2]
        elif fault == "bad_number":
            row[price] = draw(st.sampled_from(["", "ten", "1.5.0"]))
        elif fault == "bad_volume":
            row[7] = draw(st.sampled_from(["1.5", "1e3", ""]))
        elif fault == "nonpositive":
            row[price] = draw(st.sampled_from(["0", "-2.5"]))
        elif fault == "low_gt_high":
            row[4] = str(high / 4 + 0.5)
        elif fault == "low_gt_body":
            row[4] = str(min(open_, close) / 4 + 0.125)
        elif fault == "high_lt_body":
            row[3] = str(max(open_, close) / 4 - 0.125)
        elif fault == "negative_volume":
            row[7] = "-5"
        elif fault == "huge_volume":  # beyond int64: 20 digits, and 2**63
            row[7] = draw(st.sampled_from(["99999999999999999999", str(2**63)]))
        elif fault == "control_ticker":
            row[0] = draw(st.sampled_from(["A\x01A", "B\tB", " CC\x7f", "D\x85D"]))
        elif fault == "non_finite":
            row[price] = draw(st.sampled_from(["inf", "-inf", "nan", "Infinity"]))
        elif fault == "blank_line":
            row = []
        rows.append(row)
    if draw(st.booleans()):
        rows.sort(key=lambda r: (r[0].strip(), r[1].strip()) if len(r) > 1 else ("",))
    return rows


def _outcome(parse, path):
    try:
        return list(parse(path))
    except DataError as exc:
        return f"DataError: {exc}"


@settings(max_examples=300, deadline=None)
@given(bars_rows())
def test_parse_bars_matches_per_field_reference(rows):
    text = BARS_HEADER_LINE + "".join(",".join(row) + "\n" for row in rows)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "bars.csv"
        path.write_text(text, encoding="utf-8")
        assert _outcome(parse_bars, path) == _outcome(parse_bars_per_field, path)


# parser, header, number of key columns, date column, numeric columns
SCHEMAS = {
    "splits": (parse_splits, "ticker,effective_date,ratio", 2, 1, (2,)),
    "fundamentals": (
        parse_fundamentals,
        "ticker,fiscal_year,net_profit,shareholders_equity",
        2,
        1,
        (2, 3),
    ),
    "rates": (parse_rates, "date,rate", 1, 0, (1,)),
}
OTHER_FAULTS = (
    "short",
    "long",
    "blank_ticker",
    "bad_date",
    "bad_number",
    "non_finite",
    "duplicate",
    "out_of_order",
    "undecodable",
    "oversized",
    "blank_line",
)


@st.composite
def schema_files(draw, schema):
    """A file of one schema: valid rows with each fault mixed in at random."""
    _, header, key_cols, date_col, number_cols = SCHEMAS[schema]
    lines: list[bytes] = []
    rows: list[list[str]] = []
    for i in range(draw(st.integers(0, 10))):
        day = datetime.date(2013, 1, 1) + datetime.timedelta(
            2 * i if schema == "rates" else draw(st.integers(0, 40))
        )
        ticker = draw(st.sampled_from(["AA", " BB", "CC "]))
        if schema == "splits":
            row = [ticker, day.isoformat(), str(draw(st.integers(1, 40)) / 4)]
        elif schema == "fundamentals":
            row = [
                ticker,
                str(draw(st.integers(2000, 2012))),
                str(draw(st.integers(-500, 500))),
                str(draw(st.integers(1, 5000))),
            ]
        else:
            row = [day.isoformat(), str(draw(st.integers(-100, 100)) / 1000)]
        fault = None
        if draw(st.integers(0, 5)) == 5:
            fault = draw(st.sampled_from(OTHER_FAULTS))
        column = draw(st.sampled_from(number_cols))
        if fault == "short":
            row.pop()
        elif fault == "long":
            row.append("1")
        elif fault == "blank_ticker":
            row[0] = " "
        elif fault == "bad_date":
            row[date_col] = draw(st.sampled_from(["2013-02-30", "soon", "20x3", ""]))
        elif fault == "bad_number":
            row[column] = draw(st.sampled_from(["", "ten", "1.5.0"]))
        elif fault == "non_finite":
            row[column] = draw(st.sampled_from(["inf", "-inf", "nan", "Infinity"]))
        elif fault == "duplicate" and rows:
            row[:key_cols] = draw(st.sampled_from(rows))[:key_cols]
        elif fault == "oversized":
            row[column] = "1" * 140_000
        elif fault == "blank_line":
            row = []
        line = ",".join(row).encode()
        if fault == "undecodable":
            at = draw(st.integers(0, len(line)))
            bad = draw(st.sampled_from([b"\xff", b"\xe9", b"\xc3("]))
            line = line[:at] + bad + line[at:]
        rows.append(row)
        if fault == "out_of_order":  # before the row above it
            lines.insert(max(len(lines) - 1, 0), line)
        else:
            lines.append(line)
    if draw(st.integers(0, 9)) == 9:
        header = draw(st.sampled_from(["", "ticker,date", header + ",extra"]))
    return b"".join(line + b"\n" for line in [header.encode(), *lines])


@pytest.mark.parametrize("schema", sorted(SCHEMAS))
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_other_schemas_parse_or_name_the_faulty_line(schema, data):
    content = data.draw(schema_files(schema))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / f"{schema}.csv"
        path.write_bytes(content)
        try:
            SCHEMAS[schema][0](path)
        except DataError as exc:
            message = str(exc)
            named = re.match(r"line (\d+): ", message)
            if named is None:
                assert message.startswith(f"{path}: "), message
            else:
                assert 1 <= int(named.group(1)) <= content.count(b"\n"), message


def test_parse_bars_peak_memory_per_bar(tmp_path):
    bars = []
    for i in range(10):
        spec = ScenarioSpec(seed=50 + i, n_days=500, split_day=250, ticker=f"T{i}")
        bars.extend(generate_history(spec)[0])
    path = tmp_path / "bars.csv"
    write_bars(path, bars)
    tracemalloc.start()
    try:
        parsed = parse_bars(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(parsed) == 5000
    assert peak / len(parsed) < 750


def test_parse_bars_peak_memory_per_bar_columnar(tmp_path):
    # The table holds a bar in 48 bytes of columns plus a list slot and a
    # date shared by every ticker; parsing it must not build row objects.
    bars = []
    for i in range(10):
        spec = ScenarioSpec(seed=50 + i, n_days=500, split_day=250, ticker=f"T{i}")
        bars.extend(generate_history(spec)[0])
    path = tmp_path / "bars.csv"
    write_bars(path, bars)
    tracemalloc.start()
    try:
        parsed = parse_bars(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(parsed) == 5000
    assert peak / len(parsed) < 150


@pytest.mark.parametrize(
    "parse, text",
    [
        (parse_bars, BARS_HEADER_LINE + "X,2013-06-03,10,11,9,10.5,10.5,1000\n"
         + "{ticker},2013-06-04,10,11,9,10.5,10.5,1000\n"),
        (parse_splits, "ticker,effective_date,ratio\nX,2014-01-02,2\n"
         + "{ticker},2014-01-03,2\n"),
        (parse_fundamentals, "ticker,fiscal_year,net_profit,shareholders_equity\n"
         + "X,2013,100,1000\n{ticker},2013,100,1000\n"),
    ],
    ids=["bars", "splits", "fundamentals"],
)
@pytest.mark.parametrize("ticker", ['"A\nB"', "A\tB", "A\x1fB", "A\x7f", "A\x9bB"])
def test_control_character_in_ticker_rejected_with_line(tmp_path, parse, text, ticker):
    # A line break or other control character in a ticker would reach
    # sample ids and every CSV; the row is refused with its line number.
    path = _write(tmp_path, "input.csv", text.format(ticker=ticker))
    with pytest.raises(DataError) as exc_info:
        parse(path)
    name = ticker.strip('"')
    assert str(exc_info.value) == f"line 3: control character in ticker {name!r}"


def test_volume_beyond_int64_rejected_with_line(tmp_path):
    largest = 2**63 - 1
    row = "X,2013-06-0{day},10,11,9,10.5,10.5,{volume}\n"
    ok = _write(tmp_path, "ok.csv", BARS_HEADER_LINE + row.format(day=3, volume=largest))
    assert [bar.volume for bar in parse_bars(ok)] == [largest]
    for volume in (largest + 1, 10**20 - 1):
        text = BARS_HEADER_LINE + row.format(day=3, volume=1000)
        path = _write(tmp_path, "big.csv", text + row.format(day=4, volume=volume))
        with pytest.raises(DataError) as exc_info:
            parse_bars(path)
        assert str(exc_info.value) == f"line 3: volume ({volume}) must be <= {largest}"


def test_parse_splits_table1_ratios(tmp_path):
    rows = "\n".join(
        f"S{i},2014-01-0{1 + i % 9},{r}" for i, r in enumerate(TABLE1_RATIOS, 1)
    )
    path = _write(tmp_path, "splits.csv", "ticker,effective_date,ratio\n" + rows + "\n")
    events = parse_splits(path)
    assert len(events) == 9
    assert sorted(e.ratio for e in events) == sorted(TABLE1_RATIOS)


def test_parse_splits_rejects_nonpositive_ratio(tmp_path):
    path = _write(
        tmp_path, "splits.csv", "ticker,effective_date,ratio\nX,2014-01-02,0\n"
    )
    with pytest.raises(DataError, match="nonpositive"):
        parse_splits(path)


def test_parse_fundamentals_duplicate_year(tmp_path):
    path = _write(
        tmp_path,
        "f.csv",
        "ticker,fiscal_year,net_profit,shareholders_equity\n"
        "X,2013,100,1000\nX,2013,120,1100\n",
    )
    with pytest.raises(DataError, match="duplicate"):
        parse_fundamentals(path)


def test_parse_rates_requires_increasing_dates(tmp_path):
    path = _write(
        tmp_path, "r.csv", "date,rate\n2013-01-02,0.01\n2013-01-02,0.02\n"
    )
    with pytest.raises(DataError, match="increasing"):
        parse_rates(path)


def test_round_trip_bars_lossless(tmp_path):
    bars, event = generate_history(ScenarioSpec(seed=3, n_days=120, split_day=60))
    path = tmp_path / "bars.csv"
    write_bars(path, bars)
    assert list(parse_bars(path)) == bars

    spath = tmp_path / "splits.csv"
    write_splits(spath, [event])
    assert parse_splits(spath) == [event]


def test_round_trip_fundamentals_and_rates(tmp_path):
    records = [
        FundamentalRecord("X", 2013, 123.45, 6789.01),
        FundamentalRecord("X", 2014, -282.94, 6500.0),
    ]
    fpath = tmp_path / "f.csv"
    write_fundamentals(fpath, records)
    assert parse_fundamentals(fpath) == records

    series = ReferenceRateSeries(
        dates=(datetime.date(2013, 1, 2), datetime.date(2013, 1, 3)),
        rates=(0.0123456789, -0.1),
    )
    rpath = tmp_path / "r.csv"
    write_rates(rpath, series)
    assert parse_rates(rpath) == series


@pytest.mark.parametrize(
    "header, model",
    [
        (ingest.BARS_HEADER, TradingBar),
        (ingest.SPLITS_HEADER, SplitEvent),
        (ingest.FUNDAMENTALS_HEADER, FundamentalRecord),
    ],
    ids=["bars", "splits", "fundamentals"],
)
def test_header_lists_its_model_fields_in_order(header, model):
    # The writers write each header's fields of the model by name.
    assert header == [f.name for f in dataclasses.fields(model)]


def test_writers_write_pinned_bytes_for_edge_values(tmp_path):
    # Floats written as their repr (exponent forms included), a ticker that
    # needs quoting and the largest volume, byte for byte as before.
    day, next_day = datetime.date(2013, 1, 2), datetime.date(2013, 1, 3)
    ticker, tiny, huge, sum_ = 'A,"B', 1e-07, 1e16, 0.1 + 0.2
    paths = [tmp_path / name for name in ("b.csv", "s.csv", "f.csv", "r.csv")]
    write_bars(paths[0], [
        TradingBar(ticker, day, sum_, huge, tiny, 0.5, tiny, 2**63 - 1),
        TradingBar("Z", next_day, 2.0, 2.0, 2.0, 2.0, 2.0, 0),
    ])
    write_splits(paths[1], [SplitEvent(ticker, day, tiny), SplitEvent("Z", day, sum_)])
    write_fundamentals(paths[2], [
        FundamentalRecord(ticker, 2013, huge, -tiny),
        FundamentalRecord("Z", 2014, sum_, -0.0),
    ])
    dates = (day, next_day, datetime.date(2013, 1, 4))
    write_rates(paths[3], ReferenceRateSeries(dates, (tiny, sum_, -huge)))
    assert [path.read_bytes() for path in paths] == [
        b"ticker,date,open,high,low,close,adj_close,volume\r\n"
        b'"A,""B",2013-01-02,0.30000000000000004,1e+16,1e-07,0.5,1e-07,'
        b"9223372036854775807\r\n"
        b"Z,2013-01-03,2.0,2.0,2.0,2.0,2.0,0\r\n",
        b"ticker,effective_date,ratio\r\n"
        b'"A,""B",2013-01-02,1e-07\r\n'
        b"Z,2013-01-02,0.30000000000000004\r\n",
        b"ticker,fiscal_year,net_profit,shareholders_equity\r\n"
        b'"A,""B",2013,1e+16,-1e-07\r\n'
        b"Z,2014,0.30000000000000004,-0.0\r\n",
        b"date,rate\r\n"
        b"2013-01-02,1e-07\r\n2013-01-03,0.30000000000000004\r\n2013-01-04,-1e+16\r\n",
    ]


@given(
    st.lists(
        st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
        min_size=1,
        max_size=20,
    )
)
def test_round_trip_rate_values_lossless(values):
    import tempfile
    from pathlib import Path

    base = datetime.date(2013, 1, 1)
    series = ReferenceRateSeries(
        dates=tuple(base + datetime.timedelta(days=i) for i in range(len(values))),
        rates=tuple(values),
    )
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "rates.csv"
        write_rates(path, series)
        assert parse_rates(path) == series


# The two-process read of bars.csv (parse_bars with a forked child) against
# the serial read. Five data rows of equal length put the cut after the
# third: the middle byte of the rows falls inside it.
ROW = "{},2013-06-{:02d},10,11,9,10.5,10.5,1000"


def _rows(*keys, bad=()):
    """Rows of equal length for (ticker, day) keys; rows whose index is in
    ``bad`` get an unparsable open price of the same length."""
    rows = [ROW.format(t, d) for t, d in keys]
    for i in bad:
        rows[i] = rows[i].replace(",10,", ",xx,", 1)
    return rows


STRAIGHT = (("A", 3), ("A", 4), ("A", 5), ("A", 6), ("B", 3))


def _lines(rows, eol="\n", end="\n"):
    return eol + eol.join(rows) + end


TWO_PROCESS_CASES = {
    # id: (text after the header, whether two processes read it to the end,
    #      the DataError it raises or None)
    "straddling-ticker": (_lines(_rows(*STRAIGHT)), True, None),
    "fault-before-cut": (_lines(_rows(*STRAIGHT, bad=[2])), False,
                         "line 4: bad open 'xx'"),
    "fault-after-cut": (_lines(_rows(*STRAIGHT, bad=[3])), False,
                        "line 5: bad open 'xx'"),
    "faults-in-both-halves": (_lines(_rows(*STRAIGHT, bad=[1, 4])), False,
                              "line 3: bad open 'xx'"),
    "duplicate-across-cut": (
        _lines(_rows(("A", 3), ("A", 4), ("A", 5), ("A", 5), ("B", 3))), False,
        "line 5: duplicate bar for A on 2013-06-05",
    ),
    "unsorted-across-cut": (
        _lines(_rows(("A", 3), ("A", 4), ("B", 5), ("A", 6), ("B", 6))), False, None
    ),
    "quoted-ticker": (_lines(_rows(*STRAIGHT)).replace("\nB,", '\n"B",'), False, None),
    "crlf": (_lines(_rows(*STRAIGHT), "\r\n", "\r\n"), True, None),
    "crlf-then-lf": (_lines(_rows(*STRAIGHT[:3]), "\r\n")
                     + _lines(_rows(*STRAIGHT[3:]))[1:], True, None),
    "no-trailing-newline": (_lines(_rows(*STRAIGHT), end=""), True, None),
    "blank-lines": ("\n" + _lines(_rows(*STRAIGHT), "\n\n\r\n", "\n\n"), True, None),
    "bom-in-ticker": (_lines(_rows(*STRAIGHT[:4], ("\ufeffB", 3))), True, None),
    "lone-cr": ("\n" + "\r".join(_rows(*STRAIGHT[:3])) + "\n"
                + "\r".join(_rows(*STRAIGHT[3:])) + "\r", True, None),
    "header-only": ("\n", True, None),
    "header-only-no-newline": ("", True, None),
    "one-row": (_lines(_rows(("A", 3))), True, None),
    "compact-date-after-cut": (
        _lines(_rows(*STRAIGHT)).replace("2013-06-06", "20130606"), False,
        "line 5: bad date '20130606' (expected YYYY-MM-DD)",
    ),
}


def _table_outcome(path):
    """parse_bars(path) as comparable columns, or its DataError's text."""
    try:
        table = parse_bars(path)
    except DataError as exc:
        return f"DataError: {exc}"
    columns = [list(getattr(table, name)) for name in ("open", "high", "low", "close",
                                                        "adj_close", "volume")]
    return table.dates, columns, list(table.ranges.items())


def _outcomes(path):
    """The outcome of the two-process read, whether it was the one that
    produced it, and the outcome of the serial read."""
    serial_reads = mock.patch.object(ingest, "_csv_reader", wraps=ingest._csv_reader)
    with mock.patch("os.fork", wraps=os.fork) as fork, serial_reads as serial:
        outcome = _table_outcome(path)
    two_process = fork.call_count == 1 and serial.call_count == 0
    with mock.patch.object(ingest, "may_fork", return_value=False):
        return outcome, two_process, _table_outcome(path)


@pytest.mark.parametrize("case", TWO_PROCESS_CASES)
@pytest.mark.usefixtures("ungated")
def test_two_process_parse_matches_serial(tmp_path, case):
    text, two_processes, error = TWO_PROCESS_CASES[case]
    path = _write(tmp_path, "bars.csv", BARS_HEADER_LINE.rstrip("\n") + text)
    outcome, two_process, serial = _outcomes(path)
    assert outcome == serial
    assert two_process == two_processes
    if error is None:
        assert len(serial[0]) == len(text.split())  # every row read
    else:
        assert serial == f"DataError: {error}"


@pytest.mark.usefixtures("ungated")
def test_bom_before_header_is_left_to_the_serial_read(tmp_path):
    path = _write(tmp_path, "bars.csv", "\ufeff" + BARS_HEADER_LINE + _rows(("A", 3))[0])
    outcome, two_process, serial = _outcomes(path)
    assert outcome == serial and serial.startswith("DataError: ") and "header" in serial
    assert not two_process


EOLS = ("\n", "\r\n", "\r")


@pytest.mark.usefixtures("ungated")
@settings(max_examples=200, deadline=None)
@given(bars_rows(), st.data())
def test_two_process_parse_matches_serial_on_any_rows(rows, data):
    lines = [",".join(row) for row in rows]
    if lines and data.draw(st.booleans()):  # quote one ticker
        i = data.draw(st.integers(0, len(lines) - 1))
        lines[i] = '"' + lines[i].replace(",", '",', 1)
    text = BARS_HEADER_LINE + "".join(
        line + data.draw(st.sampled_from(EOLS)) for line in lines
    )
    if data.draw(st.booleans()):
        text = text.rstrip("\r\n")
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "bars.csv"
        path.write_bytes(text.encode("utf-8"))
        outcome, two_process, serial = _outcomes(path)
    assert outcome == serial
    keys = [(row[0].strip(), row[1].strip()) for row in rows if row]
    plain = '"' not in text and not isinstance(serial, str) and keys == sorted(set(keys))
    assert two_process == plain


@pytest.mark.usefixtures("ungated")
def test_parse_bars_leaves_no_child_process(tmp_path):
    rows = _rows(*STRAIGHT)
    path = _write(tmp_path, "bars.csv", BARS_HEADER_LINE + "\n".join(rows) + "\n")
    assert len(parse_bars(path)) == 5
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    rows = _rows(*STRAIGHT, bad=[4])  # a fault in the child's half
    path = _write(tmp_path, "bad.csv", BARS_HEADER_LINE + "\n".join(rows) + "\n")
    with mock.patch("os.fork", wraps=os.fork) as fork:
        with pytest.raises(DataError, match="^line 6: bad open 'xx'$"):
            parse_bars(path)
    assert fork.call_count == 1
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
def test_parse_bars_reads_a_named_pipe_once(tmp_path):
    # A pipe (``--bars <(zcat bars.csv.gz)``) yields its bytes once: it is
    # read by one process, in one pass. A second reader would wait forever
    # for a writer, hence the separate processes and their timeouts.
    rows = _rows(*STRAIGHT)
    path = _write(tmp_path, "bars.csv", BARS_HEADER_LINE + "\n".join(rows) + "\n")
    fifo = tmp_path / "bars.fifo"
    os.mkfifo(fifo)
    copy = (
        "import shutil, sys\n"
        "with open(sys.argv[1], 'rb') as src, open(sys.argv[2], 'wb') as sink:\n"
        "    shutil.copyfileobj(src, sink)\n"
    )
    show = (
        "import sys; from splitstudy.ingest import parse_bars\n"
        "table = parse_bars(sys.argv[1])\n"
        "print(table.dates, list(table.volume), table.ranges)\n"
    )
    src = Path(ingest.__file__).parent.parent
    paths = (str(src), os.environ.get("PYTHONPATH"))
    pythonpath = os.pathsep.join(p for p in paths if p)
    writer = subprocess.Popen([sys.executable, "-c", copy, str(path), str(fifo)])
    try:
        done = subprocess.run(
            [sys.executable, "-c", show, str(fifo)],
            env=dict(os.environ, PYTHONPATH=pythonpath),
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert writer.wait(timeout=60) == 0
    finally:
        if writer.poll() is None:
            writer.kill()
            writer.wait()
    assert done.returncode == 0, done.stderr
    table = parse_bars(path)
    assert done.stdout == f"{table.dates} {list(table.volume)} {table.ranges}\n"


@pytest.mark.usefixtures("ungated")
def test_parse_bars_does_not_fork_while_another_thread_runs(tmp_path):
    rows = _rows(*STRAIGHT)
    path = _write(tmp_path, "bars.csv", BARS_HEADER_LINE + "\n".join(rows) + "\n")
    release = threading.Event()
    thread = threading.Thread(target=release.wait)
    thread.start()
    try:
        with mock.patch("os.fork", side_effect=AssertionError("forked")):
            assert len(parse_bars(path)) == 5
    finally:
        release.set()
        thread.join(timeout=10)
    assert not thread.is_alive()


@pytest.mark.usefixtures("ungated")
def test_parse_bars_reads_alone_when_no_process_can_be_forked(tmp_path):
    rows = _rows(*STRAIGHT)
    path = _write(tmp_path, "bars.csv", BARS_HEADER_LINE + "\n".join(rows) + "\n")
    expected = _outcomes(path)[2]
    no_process = BlockingIOError(11, "Resource temporarily unavailable")
    with mock.patch("os.fork", side_effect=no_process) as fork:
        assert _table_outcome(path) == expected
    assert fork.call_count == 1


def test_parse_bars_forks_from_its_gate_on(tmp_path):
    # One row per ticker, then blank lines up to the gate's exact size; one
    # byte less is read by this process alone. Both give the serial table.
    gate = ingest.FORK_MIN_BYTES
    line = ROW.format("T{:06d}", 3) + "\n"
    n = (gate - len(BARS_HEADER_LINE)) // len(line.format(0))
    rows = BARS_HEADER_LINE + "".join(line.format(i) for i in range(n))
    text = rows + "\n" * (gate - len(rows))
    for size, forks in ((gate - 1, 0), (gate, 1)):
        path = _write(tmp_path, f"{size}.csv", text[:size])
        assert path.stat().st_size == size
        with mock.patch("os.fork", wraps=os.fork) as fork:
            outcome = _table_outcome(path)
        assert fork.call_count == forks
        with mock.patch.object(ingest, "may_fork", return_value=False):
            assert outcome == _table_outcome(path)
        assert len(outcome[0]) == n


def test_child_columns_are_read_in_bounded_chunks(tmp_path):
    # A column read whole is held twice at once, as bytes and in the array.
    column = array("d", range(1 << 19))  # 4 MiB
    path = tmp_path / "column"
    with path.open("wb") as fh:
        column.tofile(fh)
    received = array("d")
    with path.open("rb") as pipe:
        tracemalloc.start()
        try:
            ingest._read_column(pipe, received, len(column))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert received == column
    assert peak < 1.5 * len(column) * column.itemsize
