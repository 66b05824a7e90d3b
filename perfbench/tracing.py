"""Per-layer tracing from outside the engine.

``Tracer.install`` replaces the public functions of each splitstudy module
with timing wrappers. The engine imports names by value (``from .windows
import align_to_event``), so a wrapper is set on every loaded splitstudy
namespace that holds the original function object, not only on the module
that defines it; ``uninstall`` puts the originals back.

Each call records a span (name, start, end, parent index) in memory, and
hooks count the work a call was given. ``layer_metrics`` turns one
repetition's spans and counts into the per-layer metrics; a layer's time
is its self time, the span's duration minus the time its child spans
cover. A wrapper's own work, its hook included, runs outside the span it
records and so lands in the parent span's self time; the traced run's
``trace.overhead_s`` shows its total.
"""

from __future__ import annotations

import functools
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter

from splitstudy.errors import CoverageError


def _count_rows(counts, args, kwargs, result, exc):
    if exc is None:
        counts["ingest.parse_bars.rows"] += len(result)


def _count_adjusted(counts, args, kwargs, result, exc):
    counts["adjust.split_adjust.bars"] += len(args[0])
    counts["adjust.split_adjust.events"] += len(args[1])


def _count_aligned(counts, args, kwargs, result, exc):
    counts["windows.bars_scanned"] += len(args[0])
    if isinstance(exc, CoverageError):
        counts["windows.excluded"] += 1


def _count_json(counts, args, kwargs, result, exc):
    if exc is None:  # json.dumps escapes to ASCII, so characters are bytes
        counts["report.to_json.bytes"] += len(result)


# (span name, defining module, attribute, counting hook). Spans of one
# layer share the module prefix of their name.
SPANS = (
    ("ingest.parse_bars", "splitstudy.ingest", "parse_bars", _count_rows),
    ("ingest.parse_splits", "splitstudy.ingest", "parse_splits", None),
    ("ingest.parse_fundamentals", "splitstudy.ingest", "parse_fundamentals", None),
    ("ingest.parse_rates", "splitstudy.ingest", "parse_rates", None),
    ("adjust.split_adjust", "splitstudy.adjust", "split_adjust", _count_adjusted),
    ("windows.align_to_event", "splitstudy.windows", "align_to_event", _count_aligned),
    ("prices.price_at", "splitstudy.prices", "price_at", None),
    ("prices.gap_series", "splitstudy.prices", "gap_series", None),
    ("prices.period_averages", "splitstudy.prices", "period_averages", None),
    ("prices.price_change_pct", "splitstudy.prices", "price_change_pct", None),
    ("prices.value_factor", "splitstudy.prices", "value_factor", None),
    ("returns.beta_for_window", "splitstudy.returns", "beta_for_window", None),
    ("returns.abnormal_return", "splitstudy.returns", "abnormal_return", None),
    ("volume.compare_volume", "splitstudy.volume", "compare_volume", None),
    ("volume.volume_trend", "splitstudy.volume", "volume_trend", None),
    ("fundamentals.indexed_net_profit", "splitstudy.fundamentals", "indexed_net_profit", None),
    ("fundamentals.roe", "splitstudy.fundamentals", "roe", None),
    ("fundamentals.roe_change", "splitstudy.fundamentals", "roe_change", None),
    ("fundamentals.classify_consistency", "splitstudy.fundamentals", "classify_consistency", None),
    ("report.run_pipeline", "splitstudy.report", "run_pipeline", None),
    ("report.analyze_sample", "splitstudy.report", "analyze_sample", None),
    ("report.emit", "splitstudy.report", "emit", None),
    ("report.to_json", "splitstudy.report", "AnalysisReport.to_json", _count_json),
)


class Tracer:
    """Timing wrappers plus the spans and counts of the calls they saw."""

    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int] | None] = []
        self.counts: Counter[str] = Counter()
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def install(self) -> None:
        """Wrap the engine's functions and start a fresh recording."""
        self.spans = []
        self.counts = Counter()
        self.missing = []
        modules = [m for n, m in sys.modules.items() if n.startswith("splitstudy")]
        for name, module_name, attribute, hook in SPANS:
            owner = sys.modules.get(module_name)
            *path, leaf = attribute.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            original = getattr(owner, leaf, None)
            if original is None:
                self.missing.append(name)
                continue
            wrapper = self._wrap(name, original, hook)
            owners = [owner] if path else [m for m in modules if vars(m).get(leaf) is original]
            for target in owners:
                self._patches.append((target, leaf, original))
                setattr(target, leaf, wrapper)
        self._install_absent_counter()

    def _install_absent_counter(self) -> None:
        # report._maybe turns a metric's DataError into a note; count those
        # notes without a span, so the time stays with analyze_sample.
        report = sys.modules["splitstudy.report"]
        original = getattr(report, "_maybe", None)
        if original is None:
            self.missing.append("report.absent_metrics")
            return
        tracer = self

        @functools.wraps(original)
        def maybe(analysis, *args, **kwargs):
            before = len(analysis.notes)
            try:
                return original(analysis, *args, **kwargs)
            finally:
                tracer.counts["report.absent_metrics"] += len(analysis.notes) - before

        self._patches.append((report, "_maybe", original))
        report._maybe = maybe

    def uninstall(self) -> None:
        for target, leaf, original in reversed(self._patches):
            setattr(target, leaf, original)
        self._patches = []

    def _wrap(self, name, fn, hook):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            spans = tracer.spans
            stack = tracer._stack
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            result = exc = None
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as error:
                exc = error
                raise
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent)
                if hook is not None:
                    hook(tracer.counts, args, kwargs, result, exc)

        return wrapper


def _self_times(spans) -> tuple[dict[str, float], Counter[str], float]:
    """Self seconds and call count per span name, and top-level seconds."""
    covered = [0.0] * len(spans)
    top = 0.0
    for name, start, end, parent in spans:
        if parent >= 0:
            covered[parent] += end - start
        else:
            top += end - start
    own: dict[str, float] = {}
    calls: Counter[str] = Counter()
    for (name, start, end, _), child in zip(spans, covered):
        own[name] = own.get(name, 0.0) + (end - start - child)
        calls[name] += 1
    return own, calls, top


def layer_metrics(spans, counts: Counter, wall_s: float) -> dict[str, float]:
    """Per-layer metrics of one traced repetition that took ``wall_s``.

    Every span's self time feeds one declared metric, so the time no span
    covers, ``trace.unattributed_s``, is the repetition's wall time outside
    the two top-level spans (run_pipeline and emit): the call between them
    and the entry and exit of their wrappers. Engine work outside the
    traced functions is in ``report.run_pipeline.self_s``.
    """
    own, calls, top = _self_times(spans)

    def seconds(*names):
        return sum(own.get(n, 0.0) for n in names)

    parse_s = seconds("ingest.parse_bars")
    rows = counts["ingest.parse_bars.rows"]
    return {
        "windows.align_to_event.s": seconds("windows.align_to_event"),
        "windows.align_to_event.calls": calls["windows.align_to_event"],
        "windows.bars_scanned": counts["windows.bars_scanned"],
        "windows.excluded": counts["windows.excluded"],
        "ingest.parse_bars.s": parse_s,
        "ingest.parse_bars.rows": rows,
        "ingest.rows_per_s": rows / parse_s if parse_s > 0 else 0.0,
        "ingest.other.s": seconds(
            "ingest.parse_splits", "ingest.parse_fundamentals", "ingest.parse_rates"
        ),
        "adjust.split_adjust.s": seconds("adjust.split_adjust"),
        "adjust.split_adjust.bars": counts["adjust.split_adjust.bars"],
        "adjust.split_adjust.events": counts["adjust.split_adjust.events"],
        "prices.price_at.s": seconds("prices.price_at"),
        "prices.price_at.calls": calls["prices.price_at"],
        "prices.gap_series.s": seconds("prices.gap_series"),
        "prices.other.s": seconds(
            "prices.period_averages", "prices.price_change_pct", "prices.value_factor"
        ),
        "returns.beta_for_window.s": seconds("returns.beta_for_window"),
        "returns.abnormal_return.s": seconds("returns.abnormal_return"),
        "volume.s": seconds("volume.compare_volume", "volume.volume_trend"),
        "volume.calls": calls["volume.compare_volume"] + calls["volume.volume_trend"],
        "fundamentals.s": seconds(
            *(n for n in own if n.startswith("fundamentals."))
        ),
        "report.to_json.s": seconds("report.to_json"),
        "report.to_json.bytes": counts["report.to_json.bytes"],
        "report.emit.self_s": seconds("report.emit"),
        "report.emit.files": counts["report.emit.files"],
        "report.emit.bytes": counts["report.emit.bytes"],
        "report.analyze_sample.self_s": seconds("report.analyze_sample"),
        "report.run_pipeline.self_s": seconds("report.run_pipeline"),
        "report.absent_metrics": counts["report.absent_metrics"],
        "trace.unattributed_s": wall_s - top,
    }


def write_spans(path: Path, reps: list[list]) -> None:
    """Write every traced repetition's spans as CSV, times relative to its start."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8") as fh:
        fh.write("rep,index,parent,name,start_s,end_s\n")
        for rep, spans in enumerate(reps):
            origin = min((s[1] for s in spans), default=0.0)
            for index, (name, start, end, parent) in enumerate(spans):
                fh.write(
                    f"{rep},{index},{parent},{name},"
                    f"{start - origin:.9f},{end - origin:.9f}\n"
                )
