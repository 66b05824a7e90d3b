"""Command-line entry point.

One command runs the whole pipeline: ingest (or synthesize with --seed),
analyze, and emit report.json plus figure/table CSVs. Configuration comes
from an optional JSON config file (explicit "version" key required) with
command-line flags taking precedence.

Exit codes: 0 success, 1 input/config error, 2 no analyzable samples,
3 internal error.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import click

from . import __version__
from .errors import ConfigError, DataError, NoSamplesError
from .report import RunConfig, RunParams, emit, run_pipeline

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
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}")
    if not isinstance(raw, dict):
        raise ConfigError("config file must hold a JSON object")
    unknown = set(raw) - _CONFIG_KEYS
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    if raw.get("version") != CONFIG_VERSION:
        raise ConfigError(
            f"config version must be {CONFIG_VERSION}, got {raw.get('version')!r}"
        )
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
    timestamp = merged.get("timestamp")
    if timestamp is not None and not isinstance(timestamp, str):
        raise ConfigError(f"timestamp must be a string, got {timestamp!r}")

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
        timestamp=timestamp,
    )


@click.command(name="splitstudy")
@click.version_option(version=__version__)
@click.option("--config", "config_path", default=None,
              help="JSON config file; flags override its values.")
@click.option("--bars", default=None, help="bars.csv path.")
@click.option("--splits", default=None, help="splits.csv path.")
@click.option("--fundamentals", default=None, help="fundamentals.csv path.")
@click.option("--rates", default=None, help="rates.csv path.")
@click.option("--out", default=None, help="Output directory (default ./out).")
@click.option("--hypothesis", type=click.Choice(["h1", "h2", "h3", "all"]),
              default=None, help="Which hypothesis sections to compute.")
@click.option("--basis", type=click.Choice(["raw", "adjusted"]), default=None,
              help="Price basis for price analytics (default adjusted).")
@click.option("--beta-variant", type=click.Choice(["cov", "corr"]), default=None,
              help="Beta formula variant (default cov).")
@click.option("--month-days", type=int, default=None,
              help="Trading days per month (default 21).")
@click.option("--min-coverage", type=float, default=None,
              help="Minimum window coverage fraction (default 0.95).")
@click.option("--seed", type=int, default=None,
              help="Synthetic mode: generate a seeded 9-sample universe "
                   "under OUT/inputs and analyze it.")
@click.option("--emit", "emit_", default=None,
              help="Comma-separated figure/table selectors, or 'all'.")
def cli(config_path, bars, splits, fundamentals, rates, out, hypothesis,
        basis, beta_variant, month_days, min_coverage, seed, emit_):
    """Run the split event-study pipeline and emit its report."""
    file_values = load_config_file(config_path) if config_path else {}
    flags = {
        "bars": bars,
        "splits": splits,
        "fundamentals": fundamentals,
        "rates": rates,
        "out": out,
        "hypothesis": hypothesis,
        "basis": basis,
        "beta_variant": beta_variant,
        "month_days": month_days,
        "min_coverage": min_coverage,
        "seed": seed,
        "emit": emit_,
    }
    config = build_config(file_values, flags)
    report = run_pipeline(config)
    written = emit(report, config.out, formats=("json", "csv"),
                   selectors=config.emit)
    click.echo(
        f"analyzed {len(report.samples)} sample(s), "
        f"{len(report.exclusions)} excluded; wrote {len(written)} file(s) "
        f"to {config.out}"
    )
    for note in (f"{s.sample_id}: {n}" for s in report.samples for n in s.notes):
        click.echo(f"note: {note}", err=True)


def main() -> int:
    try:
        cli.main(standalone_mode=False)
    except click.ClickException as exc:
        exc.show()
        return 1
    except click.Abort:
        click.echo("aborted", err=True)
        return 1
    except (ConfigError, DataError, OSError) as exc:
        click.echo(f"error: {exc}", err=True)
        return 1
    except NoSamplesError as exc:
        click.echo(f"error: {exc}", err=True)
        return 2
    except Exception as exc:  # pragma: no cover - defensive
        click.echo(f"internal error: {exc}", err=True)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
