"""Command-line entry point.

One command runs the whole pipeline: ingest (or synthesize with --seed),
analyze, and emit report.json plus figure/table CSVs. Configuration comes
from an optional JSON config file (explicit "version" key required) with
command-line flags taking precedence. Its keys are the fields of RunConfig
and RunParams (``basis`` for ``price_basis``), which hold every default and
check every value; this module only maps flags and keys onto them.

Exit codes: 0 success, 1 input, config or usage error (a value the
dataclasses reject, a selector given twice or an unknown option too), 2 no
analyzable samples, 3 internal error.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import Field, fields
from pathlib import Path

from . import __version__
from .errors import ConfigError, DataError, NoSamplesError
from .report import (
    BETA_VARIANTS, HYPOTHESES, PRICE_BASES, RunConfig, RunParams, emit,
    run_pipeline,
)

CONFIG_VERSION = 1

# Each config key and the field it sets: a RunConfig or RunParams field by
# its own name, but "basis" for price_basis.
_FIELDS = {f.name: f for f in fields(RunConfig) + fields(RunParams)}
del _FIELDS["params"]
_FIELDS["basis"] = _FIELDS.pop("price_basis")
_CONFIG_KEYS = {"version", *_FIELDS}


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


def _typed(field: Field, value):
    """``value`` converted where JSON cannot type it: for an int field a
    numeric string or a whole float, for a float field anything but a bool."""
    if field.type in ("int", "int | None") and (
        isinstance(value, str) or isinstance(value, float) and value.is_integer()
    ):
        return int(value)
    if field.type == "float" and not isinstance(value, bool):
        return float(value)
    return value


def build_config(file_values: dict, flag_values: dict) -> RunConfig:
    """Merge config-file values with flag overrides into a RunConfig."""
    merged = {**file_values, **{k: v for k, v in flag_values.items() if v is not None}}
    merged.pop("version", None)

    emit_value = merged.get("emit")
    if isinstance(emit_value, str):
        emit_value = [e.strip() for e in emit_value.split(",") if e.strip()]
    if isinstance(emit_value, list):
        merged["emit"] = None if emit_value == ["all"] else tuple(emit_value)
    elif emit_value is not None:
        raise ConfigError("emit must be a list of selector ids or 'all'")

    try:
        values = {_FIELDS[k].name: _typed(_FIELDS[k], v) for k, v in merged.items()}
    except (TypeError, ValueError) as exc:  # int() or float() of a bad value
        raise ConfigError(f"bad parameter value: {exc}")
    params = RunParams(**{
        f.name: values.pop(f.name) for f in fields(RunParams) if f.name in values
    })
    return RunConfig(params=params, **values)


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
    add("--out", help=f"Output directory (default ./{RunConfig.out}).")
    add("--hypothesis", choices=HYPOTHESES,
        help="Which hypothesis sections to compute.")
    add("--basis", choices=PRICE_BASES,
        help=f"Price basis for price analytics (default {RunParams.price_basis}).")
    add("--beta-variant", choices=BETA_VARIANTS,
        help=f"Beta formula variant (default {RunParams.beta_variant}).")
    add("--month-days", type=int,
        help=f"Trading days per month (default {RunParams.month_days}).")
    add("--min-coverage", type=float,
        help=f"Minimum window coverage fraction (default {RunParams.min_coverage}).")
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
