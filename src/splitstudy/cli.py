"""Command-line entry point.

One command runs the whole pipeline: ingest (or synthesize with --seed),
analyze, and emit report.json plus figure/table CSVs. Configuration comes
from an optional JSON config file (explicit "version" key required) with
command-line flags taking precedence.

Exit codes: 0 success, 1 input, config or usage error (an unknown option
too), 2 no analyzable samples, 3 internal error. A path or timestamp key
that is not a string, and a selector given twice, are config errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import __version__
from .errors import ConfigError, DataError, NoSamplesError
from .report import (
    BETA_VARIANTS, HYPOTHESES, PRICE_BASES, RunConfig, RunParams, emit,
    run_pipeline,
)

CONFIG_VERSION = 1

_CONFIG_KEYS = {
    "version", "bars", "splits", "fundamentals", "rates", "out",
    "hypothesis", "basis", "volume_basis", "beta_variant", "month_days",
    "min_coverage", "seed", "emit", "timestamp",
}


def load_config_file(path: str) -> dict:
    """Read and validate the declarative JSON config file."""
    try:
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    except ValueError as exc:  # JSONDecodeError, or bytes that are not UTF-8
        raise ConfigError(f"config file {path} is not valid JSON: {exc}")
    if not isinstance(raw, dict):
        raise ConfigError("config file must hold a JSON object")
    unknown = set(raw) - _CONFIG_KEYS
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    version = raw.get("version")
    if isinstance(version, bool) or version != CONFIG_VERSION:  # True == 1
        raise ConfigError(f"config version must be {CONFIG_VERSION}, got {version!r}")
    return raw


def _integer(merged: dict, key: str, default: int | None) -> int | None:
    """``merged[key]`` as an int; a bool or a number with a fractional part
    is rejected rather than truncated, and a numeric string is parsed."""
    value = merged.get(key, default)
    if isinstance(value, bool) or (isinstance(value, float) and not value.is_integer()):
        raise ConfigError(f"{key} must be an integer, got {value!r}")
    return None if value is None else int(value)


def build_config(file_values: dict, flag_values: dict) -> RunConfig:
    """Merge config-file values with flag overrides into a RunConfig."""
    merged = dict(file_values)
    for key, value in flag_values.items():
        if value is not None:
            merged[key] = value

    emit_value = merged.get("emit")
    if isinstance(emit_value, str):
        emit_value = [e.strip() for e in emit_value.split(",") if e.strip()]
    if emit_value is not None and not isinstance(emit_value, list):
        raise ConfigError("emit must be a list of selector ids or 'all'")
    if emit_value == ["all"]:
        emit_value = None
    if isinstance(merged.get("min_coverage"), bool):
        raise ConfigError(
            f"min_coverage must be a number, got {merged['min_coverage']!r}"
        )
    for key in ("bars", "splits", "fundamentals", "rates", "out", "timestamp"):
        if merged.get(key) is not None and not isinstance(merged[key], str):
            raise ConfigError(f"{key} must be a string, got {merged[key]!r}")

    try:
        params = RunParams(
            hypothesis=merged.get("hypothesis", "all"),
            price_basis=merged.get("basis", "adjusted"),
            volume_basis=merged.get("volume_basis", "raw"),
            beta_variant=merged.get("beta_variant", "cov"),
            month_days=_integer(merged, "month_days", 21),
            min_coverage=float(merged.get("min_coverage", 0.95)),
        )
        seed = _integer(merged, "seed", None)
    except ConfigError:
        raise
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad parameter value: {exc}")

    return RunConfig(
        bars=merged.get("bars"),
        splits=merged.get("splits"),
        fundamentals=merged.get("fundamentals"),
        rates=merged.get("rates"),
        out=merged.get("out", "out"),
        params=params,
        seed=seed,
        emit=tuple(emit_value) if emit_value is not None else None,
        timestamp=merged.get("timestamp"),
    )


class _Parser(argparse.ArgumentParser):
    """Usage errors raise ConfigError (exit 1); exit 2 means "no samples"."""

    def error(self, message):
        raise ConfigError(message)


def _parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="splitstudy", add_help=False, allow_abbrev=False,
        description="Run the split event-study pipeline and emit its report.",
    )
    add = parser.add_argument
    add("--version", action="version", version=f"%(prog)s, version {__version__}",
        help="Show the version and exit.")
    add("--config", help="JSON config file; flags override its values.")
    add("--bars", help="bars.csv path.")
    add("--splits", help="splits.csv path.")
    add("--fundamentals", help="fundamentals.csv path.")
    add("--rates", help="rates.csv path.")
    add("--out", help="Output directory (default ./out).")
    add("--hypothesis", choices=HYPOTHESES,
        help="Which hypothesis sections to compute.")
    add("--basis", choices=PRICE_BASES,
        help="Price basis for price analytics (default adjusted).")
    add("--beta-variant", choices=BETA_VARIANTS,
        help="Beta formula variant (default cov).")
    add("--month-days", type=int, help="Trading days per month (default 21).")
    add("--min-coverage", type=float,
        help="Minimum window coverage fraction (default 0.95).")
    add("--seed", type=int,
        help="Synthetic mode: generate a seeded 9-sample universe "
             "under OUT/inputs and analyze it.")
    add("--emit", help="Comma-separated figure/table selectors, or 'all'.")
    add("--help", action="help", help="Show this message and exit.")
    return parser


def main(argv: list[str] | None = None) -> int:
    """Run the command on ``argv`` (default ``sys.argv[1:]``) and return its
    exit code."""
    try:
        flags = vars(_parser().parse_args(argv))
        config_path = flags.pop("config")
        file_values = load_config_file(config_path) if config_path else {}
        config = build_config(file_values, flags)
        report = run_pipeline(config)
        written = emit(report, config.out, formats=("json", "csv"),
                       selectors=config.emit)
        print(
            f"analyzed {len(report.samples)} sample(s), "
            f"{len(report.exclusions)} excluded; wrote {len(written)} file(s) "
            f"to {config.out}"
        )
        for note in (f"{s.sample_id}: {n}" for s in report.samples for n in s.notes):
            print(f"note: {note}", file=sys.stderr)
    except SystemExit as exc:  # --help and --version
        return exc.code
    except KeyboardInterrupt:
        print("\naborted", file=sys.stderr)
        return 1
    except (ConfigError, DataError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except NoSamplesError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # pragma: no cover - defensive
        print(f"internal error: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
