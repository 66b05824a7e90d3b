"""Byte-identity of report.json and every CSV on pinned runs.

Each case runs one universe with one set of parameters, in an empty
working directory with relative paths, and compares the sha256 of every
emitted file with ``golden_digests.json``. Most cases run the demo
universe of one seed; ``edge-absent-metrics`` runs a universe with an
excluded event and a sample whose metrics are mostly absent, and
``quoted-ticker`` one whose ticker every CSV has to quote, and
``stacked-adjusted`` one ticker with three splits on the adjusted volume
basis, where the order in which stacked ratios multiply shows. A refactor
that changes one output byte fails here.

Regenerate the digests only for an intended output change:

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

import pytest

from splitstudy.ingest import write_bars, write_splits
from splitstudy.models import SplitEvent
from splitstudy.report import (
    RunConfig,
    RunParams,
    available_selectors,
    emit,
    run_pipeline,
)
from splitstudy.synthetic import ScenarioSpec, generate_history

DIGEST_FILE = Path(__file__).with_name("golden_digests.json")


def _edge_inputs() -> tuple[str, str]:
    """bars.csv and splits.csv under ./inputs: one ticker with no pre-split
    bar (so most metrics are absent) and a split of a ticker with no bars
    (excluded)."""
    bars, event = generate_history(
        ScenarioSpec(seed=4, n_days=400, daily_vol=0.0, volume_noise=0.0,
                     split_day=140, split_ratio=2.0)
    )
    Path("inputs").mkdir()
    paths = ("inputs/bars.csv", "inputs/splits.csv")
    write_bars(paths[0], [b for b in bars if b.date >= event.effective_date])
    write_splits(paths[1], [event, SplitEvent("GHST", event.effective_date, 2.0)])
    return paths


def _quoted_inputs() -> tuple[str, str]:
    """bars.csv and splits.csv under ./inputs: one ticker holding a comma
    and a quote."""
    bars, event = generate_history(
        ScenarioSpec(seed=4, n_days=400, split_day=140, split_ratio=2.0,
                     ticker='A,"B')
    )
    Path("inputs").mkdir()
    paths = ("inputs/bars.csv", "inputs/splits.csv")
    write_bars(paths[0], bars)
    write_splits(paths[1], [event])
    return paths


def _stacked_inputs() -> tuple[str, str]:
    """bars.csv and splits.csv under ./inputs: one ticker split three times
    with awkward ratios, the splits listed out of date order. Raw prices
    and volumes carry every split; ``adj_close`` is the feed's."""
    bars, first = generate_history(
        ScenarioSpec(seed=6, n_days=900, base_volume=3 * 10**15,
                     split_day=300, split_ratio=1.569)
    )
    events = [first]
    for day, ratio in ((420, 3.0), (560, 1.45)):
        events.append(SplitEvent(first.ticker, bars[day].date, ratio))
        bars[:day] = [
            replace(
                b,
                open=round(b.open * ratio, 4),
                high=round(b.high * ratio, 4),
                low=round(b.low * ratio, 4),
                close=round(b.close * ratio, 4),
                volume=max(1, round(b.volume / ratio)),
            )
            for b in bars[:day]
        ]
    Path("inputs").mkdir()
    paths = ("inputs/bars.csv", "inputs/splits.csv")
    write_bars(paths[0], bars)
    write_splits(paths[1], [events[2], events[0], events[1]])
    return paths


# case id -> (demo seed, or the function writing the inputs; RunParams fields)
CASES = {
    f"seed{seed}-{volume_basis}-{beta_variant}": (
        seed, {"volume_basis": volume_basis, "beta_variant": beta_variant}
    )
    for seed in (0, 1, 2)
    for volume_basis in ("raw", "adjusted")
    for beta_variant in ("cov", "corr")
}
CASES.update(
    {
        "seed0-h1": (0, {"hypothesis": "h1"}),
        "seed0-h2": (0, {"hypothesis": "h2"}),
        "seed0-h3": (0, {"hypothesis": "h3"}),
        "seed0-price-raw": (0, {"price_basis": "raw"}),
        "seed0-h2-price-raw": (0, {"hypothesis": "h2", "price_basis": "raw"}),
        "edge-absent-metrics": (_edge_inputs, {"min_coverage": 0.0}),
        "quoted-ticker": (_quoted_inputs, {}),
        "stacked-adjusted": (_stacked_inputs, {"volume_basis": "adjusted"}),
    }
)


def run_digests(case: str) -> dict[str, str]:
    """sha256 of each file one run of ``case`` writes into ./out."""
    source, fields = CASES[case]
    params = RunParams(**fields)
    if callable(source):
        bars, splits = source()
        config = RunConfig(out="out", bars=bars, splits=splits, params=params)
    else:
        config = RunConfig(out="out", seed=source, params=params)
    written = emit(run_pipeline(config), config.out)
    assert len(written) == 1 + len(available_selectors(config.params))
    return {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(written)
    }


@pytest.mark.parametrize("case", list(CASES))
def test_outputs_match_golden_digests(tmp_path, monkeypatch, case):
    expected = json.loads(DIGEST_FILE.read_text(encoding="utf-8"))
    monkeypatch.chdir(tmp_path)
    assert run_digests(case) == expected[case]


if __name__ == "__main__":
    digests = {}
    origin = os.getcwd()
    for case in CASES:
        with tempfile.TemporaryDirectory() as tmp:
            os.chdir(tmp)
            try:
                digests[case] = run_digests(case)
            finally:
                os.chdir(origin)
    DIGEST_FILE.write_text(json.dumps(digests, indent=1) + "\n", encoding="utf-8")
    sys.stdout.write(f"wrote {len(digests)} cases to {DIGEST_FILE}\n")
