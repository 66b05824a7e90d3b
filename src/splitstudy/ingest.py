"""CSV ingestion and serialization for the four input schemas.

All files are UTF-8, comma-separated, header required:

    bars.csv:         ticker,date,open,high,low,close,adj_close,volume
    splits.csv:       ticker,effective_date,ratio
    fundamentals.csv: ticker,fiscal_year,net_profit,shareholders_equity
    rates.csv:        date,rate

Each header lists the fields of its model (``TradingBar``, ``SplitEvent``,
``FundamentalRecord``) in order, and the writers write those fields
through ``csv.writer``: a float as its ``repr``, a date as its ISO text.
Dates are strictly YYYY-MM-DD. Numbers must be finite, a volume must fit
a signed 64-bit integer, and a ticker may hold no control character. Parse
errors always carry the offending line number. Parsing then writing any
valid file is lossless field-wise.
"""

from __future__ import annotations

import csv
import datetime
import io
import math
import re
import stat
import sys
from array import array
from contextlib import contextmanager
from operator import attrgetter
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator, Sequence

from .errors import DataError
from .fork import may_fork, piped
from .models import (
    PRICE_COLUMNS,
    BarTable,
    FundamentalRecord,
    ReferenceRateSeries,
    SplitEvent,
    TradingBar,
    bar_ok,
)

BARS_HEADER = ["ticker", "date", "open", "high", "low", "close", "adj_close", "volume"]
SPLITS_HEADER = ["ticker", "effective_date", "ratio"]
FUNDAMENTALS_HEADER = ["ticker", "fiscal_year", "net_profit", "shareholders_equity"]
RATES_HEADER = ["date", "rate"]
# C0 and C1 control characters, DEL included.
_CONTROL = re.compile(r"[\x00-\x1f\x7f-\x9f]")
_DATE = re.compile(r"[0-9]{4}-[0-9]{2}-[0-9]{2}")


@contextmanager
def _csv_reader(path: str | Path, header: list[str]) -> Iterator[Any]:
    """A csv reader of ``path`` positioned past its checked header.

    A csv or decoding fault met inside the ``with`` block is raised as a
    DataError that names its line.
    """
    path = Path(path)
    if not path.exists():
        raise DataError(f"input file not found: {path}")
    with path.open(newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            try:
                first = next(reader)
            except StopIteration:
                raise DataError(
                    f"{path}: empty file, expected header {','.join(header)}"
                )
            if [c.strip() for c in first] != header:
                raise DataError(
                    f"{path}: header {','.join(first)!r} does not match expected "
                    f"{','.join(header)!r}"
                )
            yield reader
        except csv.Error as exc:
            raise DataError(f"line {reader.line_num}: {exc}") from None
        except UnicodeDecodeError:
            raise DataError(_undecodable_line(path)) from None


def _read_rows(path: str | Path, header: list[str]) -> Iterator[tuple[int, list[str]]]:
    """The non-blank rows of ``path`` past its header, each with its line
    number and checked to hold one field per column.

    A row is numbered by the physical line it starts on, so a quoted field
    spanning lines does not shift later numbers.
    """
    with _csv_reader(path, header) as reader:
        lineno = reader.line_num + 1
        for row in reader:
            if row:
                yield lineno, _sized(lineno, row, header)
            lineno = reader.line_num + 1


def _sized(lineno: int, row: list[str], header: list[str]) -> list[str]:
    """``row``; raises unless it holds one field per column of ``header``."""
    if len(row) != len(header):
        raise DataError(f"line {lineno}: expected {len(header)} fields, got {len(row)}")
    return row


def _model(lineno: int, model: Callable[..., Any], *values: Any) -> Any:
    """``model(*values)``; its DataError is raised again naming the line."""
    try:
        return model(*values)
    except DataError as exc:
        raise DataError(f"line {lineno}: {exc}") from None


def _undecodable_line(path: Path) -> str:
    """The first line of ``path`` that is not UTF-8, described for an error.

    The text reader decodes in chunks, so the line is found by reading the
    file again as bytes; valid input never takes this path.
    """
    lines = path.read_bytes().splitlines()
    for lineno, line in enumerate(lines, start=1):
        try:
            line.decode("utf-8")
        except UnicodeDecodeError as exc:
            bad = line[exc.start : exc.end]
            return f"line {lineno}: undecodable bytes {bad!r} (expected UTF-8)"
    return f"{path}: not valid UTF-8"  # the file changed after the first read


def _parse_date(text: str, lineno: int) -> datetime.date:
    """``text`` as a date of the form YYYY-MM-DD, outer whitespace aside; on
    Python 3.11+ ``fromisoformat`` alone would also take 20130102."""
    day = text.strip()
    if _DATE.fullmatch(day):
        try:
            return datetime.date.fromisoformat(day)
        except ValueError:  # a month or day out of range
            pass
    raise DataError(f"line {lineno}: bad date {text!r} (expected YYYY-MM-DD)")


def _parse_float(text: str, lineno: int, name: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise DataError(f"line {lineno}: bad {name} {text!r}")


def _parse_int(text: str, lineno: int, name: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise DataError(f"line {lineno}: bad {name} {text!r} (expected integer)")


def _ticker(text: str, lineno: int) -> str:
    """A ticker field without its outer whitespace; raises if it is empty or
    holds a control character, which would end up in sample ids and CSVs."""
    ticker = text.strip()
    if not ticker:
        raise DataError(f"line {lineno}: empty ticker")
    if _CONTROL.search(ticker):
        raise DataError(f"line {lineno}: control character in ticker {ticker!r}")
    return ticker


def parse_bars(path: str | Path) -> BarTable:
    """Read bars.csv into a validated BarTable, rows sorted by (ticker, date).

    A plain file of ``FORK_MIN_BYTES`` or more is read by two processes,
    where ``fork.may_fork`` allows: this one reads the rows up to the first
    line end past the middle byte while a forked child reads the rest and
    sends its columns back over a pipe. A smaller file is read by this
    process alone: below the gate the fork costs more than the child saves.
    A file is plain when it is a regular file (a pipe can be read only
    once), its first line is exactly the header and it holds no quote, so
    every newline ends a row. Anything else goes to the serial read, which
    alone raises, numbers lines and sorts: a small file, one that is not
    plain, and a fault, an unsorted or repeated row, a decoding error or a
    failed child in either half. Both reads give the same table.
    """
    path = Path(path)
    table = _parse_halves(path)
    if table is not None:
        return table
    with _csv_reader(path, BARS_HEADER) as reader:
        (dates, prices, volumes, runs), seen = _read_bars(reader, {}, strict=False)
    if seen is not None:  # some row left (ticker, date) order: sort the rows
        keys = list(zip(_row_tickers(runs, len(dates)), dates))
        order = sorted(range(len(keys)), key=keys.__getitem__)
        keys = [keys[i] for i in order]
        dates = [date for _, date in keys]
        prices = [array("d", [column[i] for i in order]) for column in prices]
        volumes = array("q", [volumes[i] for i in order])
        runs = [(t, i) for i, (t, _) in enumerate(keys) if not i or keys[i - 1][0] != t]
    return _table(dates, prices, volumes, runs)


def _spans(runs: list[tuple[str, int]], n: int) -> list[tuple[str, int, int]]:
    """(ticker, first row, stop row) of each run of ``n`` rows."""
    stops = [start for _, start in runs[1:]] + [n]
    return [(t, start, stop) for (t, start), stop in zip(runs, stops)]


def _row_tickers(runs: list[tuple[str, int]], n: int) -> list[str]:
    """The ticker of each of ``n`` rows."""
    return [t for t, start, stop in _spans(runs, n) for _ in range(start, stop)]


def _table(dates, prices, volumes, runs) -> BarTable:
    ranges = {t: range(start, stop) for t, start, stop in _spans(runs, len(dates))}
    return BarTable(dates, prices, volumes, ranges)


def _read_bars(reader: Any, days: dict[str, datetime.date], strict: bool):
    """The rows of ``reader`` as columns ``(dates, prices, volumes, runs)``,
    ``runs`` holding (ticker, first row) of each run of a ticker, and the
    set of keys read, None while every key exceeded the one before.

    Each row is converted, checked by ``bar_ok`` and appended to the
    columns; a ticker text is checked once, and a date text parsed once
    into ``days``. While keys strictly increase none can repeat, so the
    keys read are collected only once a row fails or leaves that order.
    From then on a row that fails, or repeats a key, is parsed again by
    ``_parse_bar_row``, which raises for its first fault in field order.
    With ``strict`` the first such row raises ``_NotPlain`` instead.
    """
    dates: list[datetime.date] = []
    prices = [array("d") for _ in PRICE_COLUMNS]
    volumes = array("q")
    runs: list[tuple[str, int]] = []
    add_date = dates.append
    add_open, add_high, add_low, add_close, add_adj_close = (p.append for p in prices)
    add_volume = volumes.append
    names: dict[str, str] = {}
    seen: set[tuple[str, datetime.date]] | None = None
    ticker, last = "", datetime.date.min
    end = reader.line_num  # the last line read before the current row
    for row in reader:
        try:
            text, day, open_, high, low, close, adj_close, volume = row
            name = names.get(text)
            if name is None:
                name = names[text] = sys.intern(_ticker(text, end + 1))
            date = days.get(day)
            if date is None:
                date = days[day] = _parse_date(day, end + 1)
            open_ = float(open_)
            high = float(high)
            low = float(low)
            close = float(close)
            adj_close = float(adj_close)
            volume = int(volume)
            ok = bar_ok(open_, high, low, close, adj_close, volume)
        except ValueError:  # DataError included
            ok = False
        if not (
            ok and seen is None and (date > last if name is ticker else name > ticker)
        ):
            if not row:  # a blank line
                end = reader.line_num
                continue
            if strict:
                raise _NotPlain
            if seen is None:
                seen = set(zip(_row_tickers(runs, len(dates)), dates))
            if not ok or (name, date) in seen:
                _parse_bar_row(end + 1, row, seen)  # raises for the row's fault
            seen.add((name, date))
        end = reader.line_num
        if name is not ticker:
            ticker = name
            runs.append((name, len(dates)))
        last = date
        add_date(date)
        add_open(open_)
        add_high(high)
        add_low(low)
        add_close(close)
        add_adj_close(adj_close)
        add_volume(volume)
    return (dates, prices, volumes, runs), seen


class _NotPlain(Exception):
    """A quote or a row that only the serial read of bars.csv handles."""


# Bytes of bars.csv from which a forked child reads its second half, the
# break-even on a 2-core EPYC: even at 0.98–1.19 MB, slower below 0.9 MB.
FORK_MIN_BYTES = 1 << 20
_HEADER = ",".join(BARS_HEADER).encode()
_HEADER_LINES = (_HEADER, _HEADER + b"\n", _HEADER + b"\r\n")


def _parse_halves(path: Path) -> BarTable | None:
    """The table of a plain bars.csv read by this process and a forked child,
    one half each; None when the file or either half is not plain.

    Only a regular file is opened: a pipe read here would lose the bytes
    read before the serial read opens it again."""
    try:
        info = path.stat()
        if not (stat.S_ISREG(info.st_mode) and may_fork(info.st_size, FORK_MIN_BYTES)):
            return None
        with path.open("rb") as fh:
            if fh.readline(len(_HEADER_LINES[-1])) not in _HEADER_LINES:
                return None
            start, size = fh.tell(), info.st_size
            fh.seek((start + size) // 2)
            fh.readline()
            cut = fh.tell()
    except OSError:  # the serial read names the fault
        return None
    days: dict[str, datetime.date] = {}
    with piped(lambda sink: _send_half(path, cut, size, sink)) as (pipe, wait):
        try:
            columns = _read_half(path, start, cut, days)
            follows = _receive_half(pipe, columns, days)
        except (_NotPlain, csv.Error, UnicodeDecodeError, EOFError):
            return None
        if not follows or wait() != 0:
            return None
    return _table(*columns)


class _Region(io.RawIOBase):
    """Bytes [start, stop) of a file, raising ``_NotPlain`` at a quote:
    without quotes every newline ends a row, so a region cut after one
    holds whole rows."""

    def __init__(self, path: Path, start: int, stop: int) -> None:
        self._file = path.open("rb", buffering=0)
        self._file.seek(start)
        self._left = stop - start

    def readable(self) -> bool:
        return True

    def readinto(self, buffer: Any) -> int:
        data = self._file.read(min(len(buffer), self._left))
        if b'"' in data:
            raise _NotPlain
        self._left -= len(data)
        buffer[: len(data)] = data
        return len(data)

    def close(self) -> None:
        self._file.close()
        super().close()


def _read_half(path: Path, start: int, stop: int, days: dict[str, datetime.date]):
    """The columns of the rows in bytes [start, stop) of a plain bars.csv;
    raises ``_NotPlain`` for a quote or a row the serial read must see."""
    region = _Region(path, start, stop)
    with io.TextIOWrapper(region, encoding="utf-8", newline="") as fh:
        return _read_bars(csv.reader(fh), days, strict=True)[0]


def _send_half(path: Path, start: int, stop: int, sink: Any) -> None:
    """Read bytes [start, stop) of a plain bars.csv and write its columns to
    ``sink`` as raw arrays: the row, run and ticker-byte counts, the price
    and volume columns, the dates as ordinals, the first row of each run,
    and the run tickers joined by newlines (a ticker holds no control
    character)."""
    dates, prices, volumes, runs = _read_half(path, start, stop, {})
    tickers = "\n".join(t for t, _ in runs).encode()
    array("q", (len(dates), len(runs), len(tickers))).tofile(sink)
    for column in (*prices, volumes):
        column.tofile(sink)
    array("q", map(datetime.date.toordinal, dates)).tofile(sink)
    array("q", (first for _, first in runs)).tofile(sink)
    sink.write(tickers)
    sink.flush()


def _receive_half(pipe: Any, columns, days: dict[str, datetime.date]) -> bool:
    """Append the half ``_send_half`` wrote to ``pipe`` to ``columns``, the
    half before it; False when its first key does not follow their last.
    Its dates are mapped through ``days``, so equal dates share one object."""
    dates, prices, volumes, runs = columns
    counts, ordinals, firsts = array("q"), array("q"), array("q")
    counts.fromfile(pipe, 3)
    n, n_runs, n_bytes = counts
    for column in (*prices, volumes, ordinals):
        _read_column(pipe, column, n)
    firsts.fromfile(pipe, n_runs)
    tickers = pipe.read(n_bytes)
    if len(tickers) != n_bytes:
        raise EOFError
    known = {date.toordinal(): date for date in days.values()}
    for ordinal in set(ordinals).difference(known):
        known[ordinal] = datetime.date.fromordinal(ordinal)
    head = len(dates)
    dates += map(known.__getitem__, ordinals)
    tail = [
        (sys.intern(t), head + first)
        for t, first in zip(tickers.decode().split("\n"), firsts)
    ]
    if runs and tail:
        if (tail[0][0], dates[head]) <= (runs[-1][0], dates[head - 1]):
            return False
        if tail[0][0] == runs[-1][0]:  # a ticker straddles the cut
            del tail[0]
    runs += tail
    return True


def _read_column(pipe: Any, column: array, n: int) -> None:
    """Append ``n`` 8-byte items from ``pipe`` to ``column``, 64 KiB at a time:
    read whole, a column would be held twice, as bytes and in ``column``."""
    for left in range(n, 0, -8192):
        column.fromfile(pipe, min(left, 8192))


def _parse_bar_row(
    lineno: int, row: list[str], seen: set[tuple[str, datetime.date]]
) -> None:
    """One bars.csv row checked field by field; raises for its first fault."""
    text, day, *prices, volume = _sized(lineno, row, BARS_HEADER)
    ticker = _ticker(text, lineno)
    date = _parse_date(day, lineno)
    if (ticker, date) in seen:
        raise DataError(f"line {lineno}: duplicate bar for {ticker} on {date}")
    prices = [_parse_float(t, lineno, n) for t, n in zip(prices, PRICE_COLUMNS)]
    volume = _parse_int(volume, lineno, "volume")
    _model(lineno, TradingBar, ticker, date, *prices, volume)


def parse_splits(path: str | Path) -> list[SplitEvent]:
    """Read splits.csv into events sorted by (ticker, effective_date)."""
    events: list[SplitEvent] = []
    seen: set[tuple[str, datetime.date]] = set()
    for lineno, (text, day, ratio_text) in _read_rows(path, SPLITS_HEADER):
        ticker = _ticker(text, lineno)
        date = _parse_date(day, lineno)
        ratio = _parse_float(ratio_text, lineno, "ratio")
        if not ratio > 0:
            raise DataError(f"line {lineno}: nonpositive split ratio {ratio_text!r}")
        if (ticker, date) in seen:
            raise DataError(f"line {lineno}: duplicate split for {ticker} on {date}")
        seen.add((ticker, date))
        events.append(_model(lineno, SplitEvent, ticker, date, ratio))
    events.sort(key=lambda e: (e.ticker, e.effective_date))
    return events


def parse_fundamentals(path: str | Path) -> list[FundamentalRecord]:
    """Read fundamentals.csv; one record per (ticker, fiscal_year)."""
    records: list[FundamentalRecord] = []
    seen: set[tuple[str, int]] = set()
    for lineno, (text, year, profit, equity) in _read_rows(path, FUNDAMENTALS_HEADER):
        ticker = _ticker(text, lineno)
        year = _parse_int(year, lineno, "fiscal_year")
        if (ticker, year) in seen:
            raise DataError(
                f"line {lineno}: duplicate fundamentals for {ticker} year {year}"
            )
        seen.add((ticker, year))
        profit = _parse_float(profit, lineno, "net_profit")
        equity = _parse_float(equity, lineno, "shareholders_equity")
        records.append(_model(lineno, FundamentalRecord, ticker, year, profit, equity))
    records.sort(key=lambda r: (r.ticker, r.fiscal_year))
    return records


def parse_rates(path: str | Path) -> ReferenceRateSeries:
    """Read rates.csv into a strictly date-increasing return series."""
    pairs: list[tuple[datetime.date, float]] = []
    for lineno, (day, text) in _read_rows(path, RATES_HEADER):
        date = _parse_date(day, lineno)
        if pairs and date <= pairs[-1][0]:
            raise DataError(
                f"line {lineno}: rate dates must be strictly increasing at {date}"
            )
        rate = _parse_float(text, lineno, "rate")
        if not math.isfinite(rate):
            raise DataError(f"line {lineno}: rate ({rate}) must be finite")
        pairs.append((date, rate))
    return ReferenceRateSeries(
        dates=tuple(d for d, _ in pairs), rates=tuple(r for _, r in pairs)
    )


def _write(path: str | Path, header: list[str], rows: Iterable[Iterable[Any]]) -> None:
    """``header`` and then ``rows`` as a CSV; ``csv.writer`` writes a float as
    its ``repr`` and any other value as its ``str``, a date's ISO text."""
    with Path(path).open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def write_bars(path: str | Path, bars: Sequence[TradingBar]) -> None:
    _write(path, BARS_HEADER, map(attrgetter(*BARS_HEADER), bars))


def write_splits(path: str | Path, events: Sequence[SplitEvent]) -> None:
    _write(path, SPLITS_HEADER, map(attrgetter(*SPLITS_HEADER), events))


def write_fundamentals(path: str | Path, records: Sequence[FundamentalRecord]) -> None:
    _write(path, FUNDAMENTALS_HEADER, map(attrgetter(*FUNDAMENTALS_HEADER), records))


def write_rates(path: str | Path, series: ReferenceRateSeries) -> None:
    _write(path, RATES_HEADER, zip(series.dates, series.rates))
