"""Pipeline orchestration and report emission.

``run_pipeline`` ingests the four CSV inputs (or a generated synthetic
universe), runs every per-sample computation the hypothesis selection
asks for, and assembles a deterministic ``AnalysisReport``: identical
inputs and config produce byte-identical JSON, and permuting the split
calendar changes nothing numeric because samples are stable-sorted by
(ticker, effective date).

``emit`` serializes a report to ``report.json`` plus one CSV per selected
figure/table id. Every number in an emitted file comes straight from one
analytics operation; the emitters only format (percentages with 2
decimals, ratios with 6 significant digits).
"""

from __future__ import annotations

import hashlib
import io
import json
import math
from array import array
from contextlib import nullcontext
from dataclasses import asdict, dataclass, field, replace
from functools import cache
from itertools import chain, repeat
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator, Sequence

from . import __version__
from .adjust import split_adjust
from .errors import ConfigError, CoverageError, DataError, NoSamplesError
from .fundamentals import (
    IndexedProfitRow,
    TrendConsistency,
    classify_consistency,
    indexed_net_profit,
    roe,
    roe_change,
)
from .fork import forked, may_fork
from .ingest import parse_bars, parse_fundamentals, parse_rates, parse_splits
from .models import (
    BarTable,
    EventWindow,
    FundamentalRecord,
    OffsetSeries,
    ReferenceRateSeries,
    SplitEvent,
    TradingBar,
    group_by_ticker,
)
from .prices import (
    ADJ_CLOSE,
    CLOSE,
    GROUP_1,
    GROUP_2,
    GROUP_3,
    RAW,
    SPLIT_ADJUSTED,
    GapMeans,
    GapSeries,
    PeriodAverages,
    ValueFactor,
    gap_means,
    gap_series,
    period_averages,
    price_at,
    price_change_pct,
    value_factor,
)
from .returns import (
    CORRELATION,
    COVARIANCE,
    DEMARCATION,
    FULL_PERIOD,
    PRE_WINDOW_DAYS,
    AbnormalReturn,
    BetaEstimate,
    abnormal_return,
    beta_for_window,
)
from .volume import (
    TrendFit,
    VolumeComparison,
    aggregate_volume_share,
    compare_volume,
    volume_trend,
)
from .windows import align_to_event

HYPOTHESES = ("h1", "h2", "h3", "all")
PRICE_BASES = ("adjusted", "raw")
VOLUME_BASES = ("raw", "adjusted")
BETA_VARIANTS = {"cov": COVARIANCE, "corr": CORRELATION}

SHORT_SPAN = 30
GAP_SPAN = 90
POST_CHANGE_MONTHS = (3, 6, 9, 12)
AROUND_SPLIT_MONTHS = (1, 2, 3, 4)
ABNORMAL_MONTHS = (1, 2, 3, 4)
VALUE_FACTOR_MONTHS = (6, 12)
LONGEST_MONTHS = max(chain(POST_CHANGE_MONTHS, AROUND_SPLIT_MONTHS, ABNORMAL_MONTHS,
                           VALUE_FACTOR_MONTHS))

# Samples from which emit writes the CSVs in a forked child, the measured
# break-even: the child ran even at 16 and slower at 12 (2-core EPYC).
FORK_MIN_SAMPLES = 16


@dataclass(frozen=True)
class RunParams:
    """Per-run analysis knobs, echoed verbatim into the report."""

    hypothesis: str = "all"
    price_basis: str = "adjusted"
    volume_basis: str = "raw"
    beta_variant: str = "cov"
    month_days: int = 21
    min_coverage: float = 0.95

    def __post_init__(self) -> None:
        if self.hypothesis not in HYPOTHESES:
            raise ConfigError(f"hypothesis must be one of {HYPOTHESES}")
        if self.price_basis not in PRICE_BASES:
            raise ConfigError(f"basis must be one of {PRICE_BASES}")
        if self.volume_basis not in VOLUME_BASES:
            raise ConfigError(f"volume_basis must be one of {VOLUME_BASES}")
        if self.beta_variant not in tuple(BETA_VARIANTS):  # a list is unhashable
            raise ConfigError(f"beta_variant must be one of {tuple(BETA_VARIANTS)}")
        if type(self.month_days) is not int:  # a bool is an int too
            raise ConfigError(f"month_days must be an integer, got {self.month_days!r}")
        if self.month_days < 1:
            raise ConfigError("month_days must be >= 1")
        coverage = self.min_coverage
        if isinstance(coverage, bool) or not isinstance(coverage, (int, float)):
            raise ConfigError(f"min_coverage must be a number, got {coverage!r}")
        if not 0.0 <= coverage <= 1.0:
            raise ConfigError("min_coverage must be in [0, 1]")

    def wants(self, hypothesis: str) -> bool:
        return self.hypothesis in ("all", hypothesis)

    @property
    def price_field(self) -> str:
        return ADJ_CLOSE if self.price_basis == "adjusted" else CLOSE

    @property
    def half_year_days(self) -> int:
        return 6 * self.month_days

    @property
    def pre_span(self) -> int:
        """The most trading days before the split that a metric reads."""
        months = max(AROUND_SPLIT_MONTHS) * self.month_days
        return max(PRE_WINDOW_DAYS, -GROUP_1[0], GAP_SPAN, self.half_year_days, months)

    @property
    def post_span(self) -> int:
        """The most trading days after the split that a metric reads."""
        months = LONGEST_MONTHS * self.month_days
        return max(GROUP_3[1], GAP_SPAN, self.half_year_days, months)


@dataclass(frozen=True)
class RunConfig:
    """Resolved run configuration: input paths plus analysis parameters."""

    bars: str | None = None
    splits: str | None = None
    fundamentals: str | None = None
    rates: str | None = None
    out: str = "out"
    params: RunParams = field(default_factory=RunParams)
    seed: int | None = None
    emit: tuple[str, ...] | None = None
    timestamp: str | None = None

    def __post_init__(self) -> None:
        for name in ("bars", "splits", "fundamentals", "rates", "timestamp"):
            value = getattr(self, name)
            if value is not None and not isinstance(value, str):
                raise ConfigError(f"{name} must be a string, got {value!r}")
        if not isinstance(self.out, str):
            raise ConfigError(f"out must be a string, got {self.out!r}")
        if self.seed is not None and type(self.seed) is not int:
            raise ConfigError(f"seed must be an integer, got {self.seed!r}")


@dataclass
class SampleAnalysis:
    """Every metric computed for one split event."""

    sample_id: str
    event: SplitEvent
    window_coverage: float
    window_span: tuple[int, int]
    notes: list[str] = field(default_factory=list)
    # H1
    volume_comparison: VolumeComparison | None = None
    trend_before: TrendFit | None = None
    trend_after: TrendFit | None = None
    period_avgs: PeriodAverages | None = None
    volume_series: OffsetSeries | None = None
    price_series: OffsetSeries | None = None
    # H2
    post_price_changes: dict[int, float] | None = None
    around_price_changes: dict[int, float] | None = None
    value_factors: dict[int, ValueFactor] | None = None
    beta: BetaEstimate | None = None
    abnormal: list[AbnormalReturn] | None = None
    indexed_profit: IndexedProfitRow | None = None
    roe_by_year: dict[int, float] | None = None
    roe_change_pp: float | None = None
    roe_years: tuple[int, int] | None = None
    consistency: TrendConsistency | None = None
    # H3
    gap_90: dict[str, GapSeries] | None = None
    gap_half_year: dict[str, GapMeans] | None = None
    volume_comparison_90: VolumeComparison | None = None
    volume_comparison_half_year: VolumeComparison | None = None


@dataclass
class AnalysisReport:
    config: dict[str, Any]
    inputs: dict[str, Any]
    params: RunParams
    samples: list[SampleAnalysis]
    aggregate: dict[str, Any]
    exclusions: list[dict[str, str]]
    generated_at: str | None = None

    def _top_level(self) -> Iterator[tuple[str, Any]]:
        """The top-level (key, value) pairs in output order; ``samples`` is
        left as the ``SampleAnalysis`` list."""
        yield "engine", {"name": "splitstudy", "version": __version__}
        yield "generated_at", self.generated_at
        yield "config", self.config
        yield "inputs", self.inputs
        yield "params", _params_dict(self.params)
        yield "samples", self.samples
        yield "aggregate", self.aggregate
        yield "exclusions", self.exclusions

    def to_dict(self) -> dict[str, Any]:
        out = dict(self._top_level())
        out["samples"] = [_sample_dict(s, self.params, _points) for s in self.samples]
        return out

    def to_json(self) -> bytes:
        """``json.dumps(self.to_dict(), indent=2, allow_nan=False) + "\\n"``
        as ASCII bytes.

        Each sample's dict is built, encoded and dropped in turn, and every
        piece is written into one buffer as soon as it is made; ``getvalue``
        hands that buffer over without a copy. At the peak only the buffer
        and one sample's piece are alive: by tracemalloc 1.35x the report's
        size at 9 samples and 1.07-1.12x at 72 and 288, where a list of
        pieces joined at the end held 2x.
        """
        buf = io.BytesIO()
        sep = "{\n  "
        for key, value in self._top_level():
            head = f"{sep}{encode_basestring_ascii(key)}: "
            sep = ",\n  "
            if key != "samples" or not value:
                buf.write((head + _encode(value, 1)).encode("ascii"))
                continue
            item_sep = head + "[\n    "
            for s in value:
                piece = item_sep + _encode(_sample_dict(s, self.params), 2)
                buf.write(piece.encode("ascii"))
                item_sep = ",\n    "
            buf.write(b"\n  ]")
        buf.write(b"\n}\n")
        return buf.getvalue()


def _encode(o: Any, level: int) -> str:
    """``json.dumps(o, indent=2, allow_nan=False)`` indented for depth ``level``.

    Stdlib's indented encoder runs in Python, so an ``OffsetSeries`` whose
    values are an ``array('q')`` or a finite ``array('d')`` is written with
    one f-string per point (any other goes through ``_points``). Empty lists
    and dicts are written inline, as indent=2 writes them; calling stdlib
    for each would build an encoder whose closures form a reference cycle.
    Everything else (other types and subclasses, non-str keys, non-finite
    floats) goes to stdlib itself, so its coercions and errors are kept.
    """
    t = type(o)
    if t is str:
        return encode_basestring_ascii(o)
    if t is int:
        return int.__repr__(o)
    if t is float and math.isfinite(o):
        return float.__repr__(o)
    if o is None:
        return "null"
    if t is bool:
        return "true" if o else "false"
    if t is list and not o:
        return "[]"
    if t is dict and not o:
        return "{}"
    outer = "\n" + "  " * level
    inner = outer + "  "
    if t is OffsetSeries:
        values, code = o.values, o.values.typecode
        if not values or not (
            code == "q" or code == "d" and all(map(math.isfinite, values))
        ):
            return _encode(_points(o), level)
        inner2 = inner + "  "
        points = [f"{inner}[{inner2}{x!r},{inner2}{y!r}{inner}]" for x, y in o]
        return "[" + ",".join(points) + outer + "]"
    if t is list:
        items = [_encode(e, level + 1) for e in o]
        return "[" + inner + ("," + inner).join(items) + outer + "]"
    if t is dict and all(type(k) is str for k in o):
        items = [
            encode_basestring_ascii(k) + ": " + _encode(v, level + 1)
            for k, v in o.items()
        ]
        return "{" + inner + ("," + inner).join(items) + outer + "}"
    return json.dumps(o, indent=2, allow_nan=False).replace("\n", outer)


# ---------------------------------------------------------------------------
# Per-sample analysis
# ---------------------------------------------------------------------------


def _finite(value: Any) -> bool:
    """Whether every float in ``value`` and its items and fields is finite."""
    t = type(value)
    if t is float:
        return math.isfinite(value)
    if t is int or t is str or t is bool or value is None:
        return True
    if t is array:
        return value.typecode != "d" or all(map(math.isfinite, value))
    if t is dict:
        value = value.values()
    elif t is not list and t is not tuple:
        value = [getattr(value, f) for f in getattr(t, "__dataclass_fields__", ())]
    return all(map(_finite, value))


def _maybe(analysis: SampleAnalysis, label: str, compute: Callable[[], Any]) -> Any:
    """Run one metric; note a DataError or a non-finite result and return None."""
    try:
        value = compute()
        if not _finite(value):
            raise DataError("result is not finite")
    except DataError as exc:
        analysis.notes.append(f"{label}: {exc}")
        return None
    return value


def _collect(
    analysis: SampleAnalysis,
    metrics: Iterable[tuple[Any, str, Callable[[], Any]]],
) -> dict[Any, Any]:
    """Run each ``(key, label, compute)`` metric of a keyed family through
    ``_maybe``, in order; return the present results by key."""
    results = {}
    for key, label, compute in metrics:
        value = _maybe(analysis, label, compute)
        if value is not None:
            results[key] = value
    return results


def analyze_sample(
    event: SplitEvent,
    window: EventWindow,
    volume_window: EventWindow,
    rates: ReferenceRateSeries | None,
    fundamentals: Sequence[FundamentalRecord],
    params: RunParams,
) -> SampleAnalysis:
    """Compute all requested hypothesis metrics for one event.

    ``fundamentals`` are the records of the event's ticker.
    """
    md = params.month_days
    analysis = SampleAnalysis(
        sample_id=f"{event.ticker}@{event.effective_date.isoformat()}",
        event=event,
        window_coverage=window.coverage,
        window_span=window.span,
    )

    if params.wants("h1"):
        analysis.volume_comparison = _maybe(
            analysis, "volume_comparison",
            lambda: compare_volume(volume_window, SHORT_SPAN),
        )
        analysis.trend_before = _maybe(
            analysis, "trend_before",
            lambda: volume_trend(volume_window, -SHORT_SPAN, -1),
        )
        analysis.trend_after = _maybe(
            analysis, "trend_after",
            lambda: volume_trend(volume_window, 1, SHORT_SPAN),
        )
        analysis.period_avgs = _maybe(
            analysis, "period_averages",
            lambda: period_averages(window, params.price_field),
        )
        analysis.price_series = window.series(GROUP_1[0], GROUP_3[1], params.price_field)

    if params.wants("h1") or params.wants("h3"):
        analysis.volume_series = volume_window.series(-GAP_SPAN, GAP_SPAN, "volume")

    if params.wants("h2"):
        # The post-split changes of both families share their ranges.
        change = cache(
            lambda lo, hi: price_change_pct(window, lo, hi, params.price_field)
        )
        analysis.post_price_changes = _collect(analysis, (
            (m, f"price_change_{m}m", lambda m=m: change(-1, m * md))
            for m in POST_CHANGE_MONTHS
        ))
        analysis.around_price_changes = _collect(analysis, (
            metric
            for m in AROUND_SPLIT_MONTHS
            for metric in (
                (-m, f"price_change_pre_{m}m", lambda m=m: change(-m * md, -1)),
                (m, f"price_change_post_{m}m", lambda m=m: change(-1, m * md)),
            )
        ))
        analysis.value_factors = _collect(analysis, (
            (m, f"value_factor_{m}m", lambda m=m: value_factor(
                price_at(window, m * md, CLOSE)
                / price_at(window, -1, CLOSE, max_offset=-1),
                event.ratio,
            ))
            for m in VALUE_FACTOR_MONTHS
        ))

        if rates is not None:
            analysis.beta = _maybe(
                analysis, "beta",
                lambda: beta_for_window(
                    window, rates, BETA_VARIANTS[params.beta_variant]
                ),
            )
        else:
            analysis.notes.append("beta: no reference rate series provided")
        if analysis.beta is not None:
            analysis.abnormal = list(_collect(analysis, (
                ((m, b), f"abnormal_{m}m_{b}",
                 lambda m=m, b=b: abnormal_return(window, m * md, analysis.beta, b))
                for m in ABNORMAL_MONTHS
                for b in (FULL_PERIOD, DEMARCATION)
            )).values())

        _analyze_fundamentals(analysis, event, fundamentals)

    if params.wants("h3"):
        # The half-year family is written only as its means.
        spans = {"gap_90": (GAP_SPAN, gap_series),
                 "gap_half_year": (params.half_year_days, gap_means)}
        gaps = _collect(analysis, (
            ((name, b), f"{name}_{b}", lambda h=h, f=f, b=b: f(window, -h, h, b))
            for b in (RAW, SPLIT_ADJUSTED)
            for name, (h, f) in spans.items()
        ))
        analysis.gap_90, analysis.gap_half_year = (
            {b: g for (n, b), g in gaps.items() if n == name} for name in spans
        )
        analysis.volume_comparison_90 = _maybe(
            analysis, "volume_comparison_90",
            lambda: compare_volume(volume_window, GAP_SPAN),
        )
        analysis.volume_comparison_half_year = _maybe(
            analysis, "volume_comparison_half_year",
            lambda: compare_volume(volume_window, params.half_year_days),
        )

    return analysis


def _analyze_fundamentals(
    analysis: SampleAnalysis,
    event: SplitEvent,
    fundamentals: Sequence[FundamentalRecord],
) -> None:
    records = sorted(fundamentals, key=lambda r: r.fiscal_year)
    if not records:
        analysis.notes.append("fundamentals: no records for ticker")
        return
    split_year = event.effective_date.year
    analysis.indexed_profit = _maybe(
        analysis, "indexed_net_profit",
        lambda: indexed_net_profit(records, split_year),
    )
    analysis.roe_by_year = _collect(analysis, (
        (r.fiscal_year, f"roe_{r.fiscal_year}", lambda r=r: roe(r))
        for r in records
    ))
    by_year = {r.fiscal_year: r for r in records}
    final_year = records[-1].fiscal_year
    if split_year in by_year and final_year != split_year:
        analysis.roe_change_pp = _maybe(
            analysis, "roe_change",
            lambda: roe_change(by_year[split_year], by_year[final_year]),
        )
        if analysis.roe_change_pp is not None:
            analysis.roe_years = (split_year, final_year)

    price_12m = (analysis.post_price_changes or {}).get(12)
    profit_diff = (
        analysis.indexed_profit.total_diff if analysis.indexed_profit else None
    )
    if price_12m is not None and profit_diff is not None and \
            analysis.roe_change_pp is not None:
        analysis.consistency = classify_consistency(
            price_12m, profit_diff, analysis.roe_change_pp, ticker=event.ticker
        )


# ---------------------------------------------------------------------------
# Universe analysis
# ---------------------------------------------------------------------------


def analyze_universe(
    bars: BarTable | Iterable[TradingBar],
    events: Sequence[SplitEvent],
    fundamentals: Sequence[FundamentalRecord],
    rates: ReferenceRateSeries | None,
    params: RunParams,
) -> tuple[list[SampleAnalysis], list[dict[str, str]]]:
    """Analyze every event; return (samples, exclusions) in stable order.

    ``bars`` is a ``BarTable``; bars in any other form are put into one.
    """
    if not events:
        raise NoSamplesError("split calendar is empty")
    if not isinstance(bars, BarTable):
        bars = BarTable.from_bars(bars)
    events_by_ticker = group_by_ticker(events)
    fundamentals_by_ticker = group_by_ticker(fundamentals)

    spans = (params.pre_span, params.post_span, params.min_coverage)
    samples: list[SampleAnalysis] = []
    exclusions: list[dict[str, str]] = []
    for event in sorted(events, key=lambda e: (e.ticker, e.effective_date)):
        sample_id = f"{event.ticker}@{event.effective_date.isoformat()}"
        try:
            window = align_to_event(bars.series(event.ticker), event, *spans)
        except CoverageError as exc:
            exclusions.append({"sample": sample_id, "reason": str(exc)})
            continue
        volume_window = window
        if params.volume_basis == "adjusted":
            volume_window = split_adjust(window, events_by_ticker[event.ticker])
        samples.append(
            analyze_sample(
                event, window, volume_window, rates,
                fundamentals_by_ticker.get(event.ticker, []), params,
            )
        )
    if not samples:
        raise NoSamplesError(
            "no analyzable samples: "
            + "; ".join(e["reason"] for e in exclusions[:3])
        )
    return samples, exclusions


def _aggregate(samples: list[SampleAnalysis]) -> dict[str, Any]:
    aggregate: dict[str, Any] = {"n_samples": len(samples)}
    comparisons = [
        s.volume_comparison for s in samples if s.volume_comparison is not None
    ]
    try:
        before_share, after_share = aggregate_volume_share(comparisons)
    except DataError:  # no comparison, or every volume is zero
        pass
    else:
        aggregate["volume_share"] = {
            "span": SHORT_SPAN,
            "before_share": before_share,
            "after_share": after_share,
        }
    statuses = [s.consistency for s in samples]
    aggregate["consistency"] = {
        "consistent": sum(1 for c in statuses if c is not None and c.consistent),
        "inconsistent": sum(
            1 for c in statuses if c is not None and not c.consistent
        ),
        "unknown": sum(1 for c in statuses if c is None),
    }
    return aggregate


def _sha256(path: str | Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()


def run_pipeline(config: RunConfig) -> AnalysisReport:
    """Ingest inputs per config, analyze every sample, assemble the report."""
    config = _resolve_synthetic(config)
    if config.bars is None or config.splits is None:
        raise ConfigError("bars and splits inputs are required")

    inputs: dict[str, Any] = {}
    paths = {
        "bars": config.bars,
        "splits": config.splits,
        "fundamentals": config.fundamentals,
        "rates": config.rates,
    }
    for name, path in paths.items():
        if path is None:
            inputs[name] = None
            continue
        if not Path(path).exists():
            raise DataError(f"input file not found: {path}")
        inputs[name] = {"path": str(path), "sha256": _sha256(path)}

    bars = parse_bars(config.bars)
    events = parse_splits(config.splits)
    fundamentals = (
        parse_fundamentals(config.fundamentals) if config.fundamentals else []
    )
    rates = parse_rates(config.rates) if config.rates else None

    samples, exclusions = analyze_universe(
        bars, events, fundamentals, rates, config.params
    )
    return AnalysisReport(
        config=_config_dict(config),
        inputs=inputs,
        params=config.params,
        samples=samples,
        aggregate=_aggregate(samples),
        exclusions=exclusions,
        generated_at=config.timestamp,
    )


def _resolve_synthetic(config: RunConfig) -> RunConfig:
    """In synthetic mode, generate a universe under out/inputs and point at it."""
    if config.seed is None:
        return config
    from .demo import write_demo_universe

    inputs_dir = Path(config.out) / "inputs"
    inputs_dir.mkdir(parents=True, exist_ok=True)
    paths = write_demo_universe(inputs_dir, seed=config.seed)
    return replace(
        config,
        bars=str(paths["bars"]),
        splits=str(paths["splits"]),
        fundamentals=str(paths["fundamentals"]),
        rates=str(paths["rates"]),
    )


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def _params_dict(params: RunParams) -> dict[str, Any]:
    """Every ``RunParams`` field in order, then the window span and groups."""
    return {
        **asdict(params),
        "window_span": [-params.pre_span, params.post_span],
        "groups": [list(GROUP_1), list(GROUP_2), list(GROUP_3)],
    }


def _config_dict(config: RunConfig) -> dict[str, Any]:
    """Every ``RunConfig`` field in order but ``params``, ``emit`` as a list."""
    values = asdict(config)
    del values["params"]
    if config.emit is not None:
        values["emit"] = list(config.emit)
    return values


def _shape(result: Any, fields: Iterable[Any] = (), **context: Any) -> Any:
    """One metric's JSON object, or None when the metric is absent.

    The ``context`` keys (the span, range or basis the metric was computed
    over) come first, then ``fields`` of ``result`` in order: an attribute
    name, or a ``(key, get)`` pair whose value is ``get(result)``.
    """
    if result is None:
        return None
    for field_ in fields:
        if type(field_) is str:
            context[field_] = getattr(result, field_)
        else:
            key, get = field_
            context[key] = get(result)
    return context


def _keyed(
    family: dict[Any, Any] | None,
    shape: Callable[[Any, Any], Any] = lambda key, value: value,
) -> dict[str, Any] | None:
    """A keyed family as a JSON object in key order, each value given by
    ``shape(key, value)``; None when the family is absent."""
    if family is None:
        return None
    return {str(key): shape(key, value) for key, value in sorted(family.items())}


def _points(series: OffsetSeries | None) -> list[list[Any]] | None:
    """A series as JSON ``[offset, value]`` lists."""
    return None if series is None else [[o, v] for o, v in series]


_COMPARISON_FIELDS = (
    "before_total", "after_total", "after_pct_of_before", "before_coverage",
    "after_coverage",
)
_TREND_FIELDS = ("slope", "intercept", "normalized_slope_pct", "n_points")
_ABNORMAL_FIELDS = ("baseline", "normal_return", "market_influenced_return", "abnormal")


def _sample_dict(s: SampleAnalysis, params: RunParams, points=lambda o: o) -> dict:
    """One sample's JSON object, each ``OffsetSeries`` as ``points(series)``."""
    md = params.month_days
    basis = params.volume_basis
    half = params.half_year_days

    def comparison(c: VolumeComparison | None, span: int) -> Any:
        ranges = [[-span, -1], [1, span]]
        return _shape(c, _COMPARISON_FIELDS, span=span, ranges=ranges, basis=basis)

    def price_change(m: int, pct: float) -> dict[str, Any]:
        lo_hi = [m * md, -1] if m < 0 else [-1, m * md]
        return {"range": lo_hi, "price_field": params.price_field, "pct": pct}

    def factor(m: int, vf: ValueFactor) -> dict[str, Any]:
        fields = ("price_factor", "split_ratio", "value_factor")
        return _shape(vf, fields, months=m, range=[-1, m * md], price_field=CLOSE)

    def gaps(family: dict[str, GapMeans] | None, span: int, *extra: Any) -> Any:
        fields = ("basis", "mean_gap_before", "mean_gap_after", *extra)
        return _keyed(family, lambda b, g: _shape(g, fields, range=[-span, span]))

    out: dict[str, Any] = {
        "id": s.sample_id,
        "ticker": s.event.ticker,
        "effective_date": s.event.effective_date.isoformat(),
        "split_ratio": s.event.ratio,
        "degenerate": s.event.is_degenerate,
        "window": {"span": list(s.window_span), "coverage": s.window_coverage},
    }
    if params.wants("h1"):
        out["h1"] = {
            "volume_comparison": comparison(s.volume_comparison, SHORT_SPAN),
            "trend_before": _shape(
                s.trend_before, _TREND_FIELDS, range=[-SHORT_SPAN, -1], basis=basis
            ),
            "trend_after": _shape(
                s.trend_after, _TREND_FIELDS, range=[1, SHORT_SPAN], basis=basis
            ),
            "period_averages": _shape(
                s.period_avgs, ("price_field", "g1_avg", "g2_avg", "g3_avg"),
                groups=[list(GROUP_1), list(GROUP_2), list(GROUP_3)],
            ),
        }
    if params.wants("h2"):
        out["h2"] = {
            "price_changes_post": _keyed(s.post_price_changes, price_change),
            "price_changes_around": _keyed(s.around_price_changes, price_change),
            "value_factors": _keyed(s.value_factors, factor),
            "beta": _shape(
                s.beta, ("variant", "beta", "n_obs"), window=[-PRE_WINDOW_DAYS, -1]
            ),
            "abnormal_returns": None if s.abnormal is None else [
                _shape(
                    a, _ABNORMAL_FIELDS, horizon_days=a.horizon,
                    months=a.horizon // md,
                )
                for a in s.abnormal
            ],
            "indexed_net_profit": _shape(
                s.indexed_profit,
                ("split_year", ("indexed", lambda p: _keyed(p.indexed)), "total_diff"),
            ),
            "roe": _shape(
                s.roe_by_year,
                by_year=_keyed(s.roe_by_year),
                change_pp=s.roe_change_pp,
                change_years=list(s.roe_years) if s.roe_years else None,
            ),
            "consistency": _shape(
                s.consistency,
                ("price_change_pct", "profit_change_pct",
                 ("roe_change_pp", lambda c: c.roe_change_pct), "consistent"),
            ),
        }
    if params.wants("h3"):
        series = ("series", lambda g: points(OffsetSeries(g.offsets, g.gaps)))
        out["h3"] = {
            "gap_90": gaps(s.gap_90, GAP_SPAN, series),
            "gap_half_year": gaps(s.gap_half_year, half),
            "volume_comparison_90": comparison(s.volume_comparison_90, GAP_SPAN),
            "volume_comparison_half_year": comparison(
                s.volume_comparison_half_year, half
            ),
        }
    if params.wants("h1") or params.wants("h3"):
        out["volume_series"] = points(s.volume_series)
    if params.wants("h1"):
        out["price_series"] = points(s.price_series)
    out["notes"] = s.notes
    return out


# ---------------------------------------------------------------------------
# Figure/table emission
# ---------------------------------------------------------------------------


def _pct(value: float | None) -> str:
    return "" if value is None else f"{value:.2f}"


def _ratio(value: float | None) -> str:
    return "" if value is None else f"{value:.6g}"


def _fig_group(offset: int) -> str:
    if GROUP_1[0] <= offset <= GROUP_1[1]:
        return "g1"
    if GROUP_2[0] <= offset <= GROUP_2[1]:
        return "g2"
    return "g3"


def _field(text: str) -> str:
    """``text`` as one CSV field, as ``csv.writer`` writes it: quoted, with
    its quotes doubled, only when it holds a comma, a quote or a line break."""
    if "," in text or '"' in text or "\r" in text or "\n" in text:
        return '"' + text.replace('"', '""') + '"'
    return text


def _csv(header: str, rows: Callable[..., Iterable[str]], *args: Any) -> Callable:
    """A selector's renderer: the CSV header line (the column names in
    ``header``), then the lines ``rows(*args, sid, sample, params)`` of every
    sample, where ``sid`` is the sample id as a CSV field. Lines end in CRLF."""
    head = header.replace(" ", ",") + "\r\n"

    def render(samples: Sequence[SampleAnalysis], params: RunParams) -> Iterator:
        return chain((head,), chain.from_iterable(
            rows(*args, _field(s.sample_id), s, params) for s in samples
        ))

    return render


def _volume_share_csv(samples, params) -> Iterator[str]:
    # One aggregate row, absent when the shares are undefined.
    yield "before_share,after_share\r\n"
    share = _aggregate(samples).get("volume_share")
    if share is not None:
        yield f"{_ratio(share['before_share'])},{_ratio(share['after_share'])}\r\n"


def _event_rows(sid, s, params) -> Iterator[str]:
    yield (f"{sid},{_field(s.event.ticker)},{s.event.effective_date.isoformat()},"
           f"{_ratio(s.event.ratio)}\r\n")


def _comparison_rows(attribute, sid, s, params) -> Iterator[str]:
    c = getattr(s, attribute)
    if c is not None:
        yield (f"{sid},{c.before_total},{c.after_total},"
               f"{_pct(c.after_pct_of_before)}\r\n")


def _volume_rows(span, sid, s, params) -> list[str]:
    return [f"{sid},{offset},{volume}\r\n"
            for offset, volume in s.volume_series or [] if -span <= offset <= span]


def _trend_rows(sid, s, params) -> Iterator[str]:
    for side, fit in (("before", s.trend_before), ("after", s.trend_after)):
        if fit is not None:
            yield (f"{sid},{side},{_ratio(fit.slope)},{_ratio(fit.intercept)},"
                   f"{_pct(fit.normalized_slope_pct)}\r\n")


def _price_rows(sid, s, params) -> list[str]:
    return [f"{sid},{offset},{_fig_group(offset)},{_ratio(price)}\r\n"
            for offset, price in s.price_series or []]


def _period_average_rows(sid, s, params) -> Iterator[str]:
    p = s.period_avgs
    if p is not None:
        yield f"{sid},{_ratio(p.g1_avg)},{_ratio(p.g2_avg)},{_ratio(p.g3_avg)}\r\n"


def _price_change_rows(attribute, sid, s, params) -> Iterator[str]:
    for months, pct in sorted((getattr(s, attribute) or {}).items()):
        yield f"{sid},{months},{_pct(pct)}\r\n"


def _indexed_profit_rows(sid, s, params) -> Iterator[str]:
    row = s.indexed_profit
    if row is not None:
        for year, value in sorted(row.indexed.items()):
            yield (f"{sid},{row.split_year},{year},{_pct(value)},"
                   f"{_pct(row.total_diff)}\r\n")


def _roe_rows(sid, s, params) -> Iterator[str]:
    for year, value in sorted((s.roe_by_year or {}).items()):
        change = (
            _pct(s.roe_change_pp) if s.roe_years and year == s.roe_years[1] else ""
        )
        yield f"{sid},{year},{_ratio(value)},{change}\r\n"


def _abnormal_rows(baseline, sid, s, params) -> Iterator[str]:
    for a in s.abnormal or []:
        if a.baseline == baseline:
            yield (f"{sid},{a.horizon // params.month_days},{a.horizon},"
                   f"{_ratio(a.normal_return)},{_ratio(a.market_influenced_return)},"
                   f"{_pct(100.0 * a.abnormal)}\r\n")


def _gap_rows(sid, s, params) -> list[str]:
    # Both bases are one window over [-GAP_SPAN, GAP_SPAN]: the same offsets.
    # An absent base leaves its field empty.
    raw = (s.gap_90 or {}).get(RAW)
    adj = (s.gap_90 or {}).get(SPLIT_ADJUSTED)
    present = raw if raw is not None else adj
    if present is None:
        return []
    raw_gaps, adj_gaps = (repeat(None) if g is None else g.gaps for g in (raw, adj))
    return [f"{sid},{offset},{_ratio(gap)},{_ratio(gap_adj)}\r\n"
            for offset, gap, gap_adj in zip(present.offsets, raw_gaps, adj_gaps)]


def _gap_mean_rows(sid, s, params) -> Iterator[str]:
    for basis, g in sorted((s.gap_half_year or {}).items()):
        yield (f"{sid},{basis},{_ratio(g.mean_gap_before)},"
               f"{_ratio(g.mean_gap_after)}\r\n")


def _consistency_rows(sid, s, params) -> Iterator[str]:
    c = s.consistency
    if c is not None:
        yield (f"{sid},{_pct(c.price_change_pct)},{_pct(c.profit_change_pct)},"
               f"{_pct(c.roe_change_pct)},{str(c.consistent).lower()}\r\n")


def _beta_rows(sid, s, params) -> Iterator[str]:
    if s.beta is not None:
        yield f"{sid},{_ratio(s.beta.beta)},{s.beta.variant},{s.beta.n_obs}\r\n"


_TOTALS = "sample before_total after_total after_pct_of_before"
_CHANGES = "sample months price_change_pct"
_ABNORMAL = (
    "sample months horizon_days normal_return market_influenced_return abnormal_pct"
)
_INDEXED_PROFIT = (
    "h2",
    _csv("sample split_year fiscal_year indexed_pct total_diff", _indexed_profit_rows),
)

# selector -> (the hypothesis it needs, None for any; renderer). A renderer
# yields the CSV header line and then the data lines.
SELECTORS: dict[str, tuple[str | None, Callable]] = {
    "table1": (None, _csv("sample ticker effective_date split_ratio", _event_rows)),
    "fig1": ("h1", _csv(_TOTALS, _comparison_rows, "volume_comparison")),
    "fig2": ("h1", _volume_share_csv),
    "fig3": ("h1", _csv("sample offset volume", _volume_rows, SHORT_SPAN)),
    "fig4": (
        "h1", _csv("sample side slope intercept normalized_slope_pct", _trend_rows)
    ),
    "fig5": ("h1", _csv("sample offset group price", _price_rows)),
    "fig6": ("h1", _csv("sample g1_avg g2_avg g3_avg", _period_average_rows)),
    "fig7": ("h2", _csv(_CHANGES, _price_change_rows, "post_price_changes")),
    "fig8": _INDEXED_PROFIT,
    "fig9": ("h2", _csv("sample fiscal_year roe roe_change_pp", _roe_rows)),
    "fig10": ("h2", _csv(_CHANGES, _price_change_rows, "around_price_changes")),
    "fig11": ("h2", _csv(_ABNORMAL, _abnormal_rows, FULL_PERIOD)),
    "fig12": ("h2", _csv(_ABNORMAL, _abnormal_rows, DEMARCATION)),
    "fig13": ("h3", _csv("sample offset gap_raw gap_split_adjusted", _gap_rows)),
    "fig14": ("h3", _csv("sample offset volume", _volume_rows, GAP_SPAN)),
    "fig15": (
        "h3", _csv("sample basis mean_gap_before mean_gap_after", _gap_mean_rows)
    ),
    "fig16": ("h3", _csv(_TOTALS, _comparison_rows, "volume_comparison_half_year")),
    "table2": _INDEXED_PROFIT,
    "table3": (
        "h2",
        _csv("sample price_change_pct profit_change_pct roe_change_pp consistent",
             _consistency_rows),
    ),
    "betas": ("h2", _csv("sample beta variant n_obs", _beta_rows)),
}


def available_selectors(params: RunParams) -> list[str]:
    """The selectors whose hypothesis the run computed, in emit order."""
    return [
        name
        for name, (hypothesis, _) in SELECTORS.items()
        if hypothesis is None or params.wants(hypothesis)
    ]


def emit(
    report: AnalysisReport,
    out_dir: str | Path,
    formats: Sequence[str] = ("json", "csv"),
    selectors: Sequence[str] | None = None,
) -> list[Path]:
    """Write report.json and/or one CSV per figure/table selector.

    Every format and selector is checked before any file is written. When
    both formats are written for ``FORK_MIN_SAMPLES`` samples or more and
    ``fork.may_fork`` allows, a forked child writes the CSVs while this
    process writes report.json; a child that fails leaves them to this
    process, which then raises what it meets. A smaller report, or
    CSV-only output, is written by this process alone. report.json is
    opened only once ``to_json`` has returned its bytes, so a report that
    cannot be encoded leaves no report.json; those bytes are written as
    they are, without a further copy. The files are the same either way,
    except when report.json cannot be written: this process then waits for
    the CSV child before it raises, so the CSVs it wrote stay, each one
    whole.
    """
    for fmt in formats:
        if fmt not in ("json", "csv"):
            raise ConfigError(f"unknown emit format {fmt!r}")
    available = available_selectors(report.params)
    names = available if selectors is None else list(selectors)
    for i, name in enumerate(names):
        if name in names[:i]:
            raise ConfigError(f"selector {name!r} is given more than once")
        if name not in SELECTORS:
            raise ConfigError(
                f"unknown selector {name!r}; known: {sorted(SELECTORS)}"
            )
        if name not in available:
            raise ConfigError(
                f"selector {name!r} needs hypothesis {SELECTORS[name][0]!r} "
                f"but the run computed {report.params.hypothesis!r}"
            )
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    json_paths = [out_dir / "report.json"] if "json" in formats else []
    csv_paths = [out_dir / f"{n}.csv" for n in names] if "csv" in formats else []

    def write_csvs() -> None:
        for name, path in zip(names, csv_paths):
            with path.open("w", newline="", encoding="utf-8") as fh:
                fh.writelines(SELECTORS[name][1](report.samples, report.params))

    samples = len(report.samples)
    in_child = json_paths and csv_paths and may_fork(samples, FORK_MIN_SAMPLES)
    with forked(write_csvs) if in_child else nullcontext() as wait:
        try:
            for path in json_paths:
                path.write_bytes(report.to_json())  # encoded first: no file on failure
        finally:  # a failed report.json still waits: each CSV is left whole
            csvs_written = wait is not None and wait() == 0
    if not csvs_written:
        write_csvs()
    return json_paths + csv_paths
