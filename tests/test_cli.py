"""CLI surface: flags, config file, exit codes."""

import dataclasses
import json

import pytest

from splitstudy import __version__, cli
from splitstudy.cli import build_config, load_config_file, main
from splitstudy.errors import ConfigError
from splitstudy.ingest import write_bars, write_splits
from splitstudy.synthetic import ScenarioSpec, generate_history


def test_synthetic_run_succeeds(tmp_path, capsys):
    code = main(["--seed", "3", "--out", str(tmp_path), "--emit", "fig1,fig2,table1"])
    out = capsys.readouterr().out
    assert code == 0, out
    assert (tmp_path / "report.json").exists()
    assert (tmp_path / "fig1.csv").exists()
    assert not (tmp_path / "fig4.csv").exists()
    assert "analyzed 9 sample(s)" in out


def test_missing_inputs_exit_code_one(tmp_path, capsys):
    code = main(
        ["--bars", str(tmp_path / "none.csv"), "--splits", str(tmp_path / "s.csv")]
    )
    assert code == 1


def test_no_samples_exit_code_two(tmp_path):
    bars = tmp_path / "bars.csv"
    bars.write_text(
        "ticker,date,open,high,low,close,adj_close,volume\n"
        "X,2013-01-02,10,11,9,10,10,100\n"
    )
    splits = tmp_path / "splits.csv"
    splits.write_text("ticker,effective_date,ratio\n")
    code = main(
        ["--bars", str(bars), "--splits", str(splits), "--out", str(tmp_path)]
    )
    assert code == 2


def test_adjusted_volume_beyond_int64_exit_code_one(tmp_path, capsys):
    bars, event = generate_history(ScenarioSpec(seed=4, n_days=400, split_day=140))
    bars[100] = dataclasses.replace(bars[100], volume=2**63 - 2)  # doubled in-window
    write_bars(tmp_path / "bars.csv", bars)
    write_splits(tmp_path / "splits.csv", [event])
    config = tmp_path / "adjusted.json"
    config.write_text('{"version": 1, "volume_basis": "adjusted"}')
    code = main(
        ["--config", str(config), "--bars", str(tmp_path / "bars.csv"),
         "--splits", str(tmp_path / "splits.csv"), "--out", str(tmp_path / "out")]
    )
    assert code == 1
    err = capsys.readouterr().err
    assert "error: a split-adjusted volume exceeds the int64 range" in err


def test_metrics_that_overflow_are_absent_not_fatal(tmp_path, capsys):
    # Prices near the float maximum are finite input, but their sums and
    # differences overflow; such a metric is left absent with a note.
    bars, event = generate_history(
        ScenarioSpec(seed=4, n_days=400, split_day=140, split_ratio=2.0)
    )
    prices = ("open", "high", "low", "close", "adj_close")
    bars = [
        dataclasses.replace(b, **{f: getattr(b, f) * 1e306 for f in prices})
        for b in bars
    ]
    write_bars(tmp_path / "bars.csv", bars)
    write_splits(tmp_path / "splits.csv", [event])
    out = tmp_path / "out"
    code = main(
        ["--bars", str(tmp_path / "bars.csv"), "--splits", str(tmp_path / "splits.csv"),
         "--out", str(out)]
    )
    assert code == 0, capsys.readouterr().err

    def reject(constant):
        raise ValueError(f"report.json holds {constant}")

    (sample,) = json.loads(
        (out / "report.json").read_text(), parse_constant=reject
    )["samples"]
    overflowed = [
        note.split(":")[0] for note in sample["notes"]
        if note.endswith(": result is not finite")
    ]
    assert overflowed == [
        "period_averages", "price_change_3m", "price_change_6m", "price_change_9m",
        "price_change_12m", "price_change_pre_3m", "price_change_post_3m",
        "price_change_pre_4m", "gap_90_raw", "gap_half_year_raw",
        "gap_half_year_split_adjusted",
    ]
    assert sample["h1"]["period_averages"] is None
    assert sorted(sample["h2"]["price_changes_around"]) == ["-1", "-2", "1", "2", "4"]
    assert sample["h3"]["gap_half_year"] == {}
    csvs = sorted(out.glob("*.csv"))
    assert len(csvs) == 20
    for path in csvs:
        fields = path.read_text().replace("\n", ",").split(",")
        assert not {f.lower() for f in fields} & {"inf", "-inf", "nan"}, path.name
    # fig13 keeps the split-adjusted gaps; the absent raw gap's field is empty.
    adjusted = sample["h3"]["gap_90"]["split_adjusted"]["series"]
    rows = [row.split(",") for row in (out / "fig13.csv").read_text().splitlines()]
    assert len(rows) == 1 + 181
    assert [row[1:3] for row in rows[1:]] == [[str(o), ""] for o, _ in adjusted]
    assert all(row[3] for row in rows[1:])


def test_unknown_selector_exit_code_one(tmp_path):
    code = main(
        ["--seed", "3", "--out", str(tmp_path), "--emit", "fig99"]
    )
    assert code == 1


@pytest.mark.parametrize(
    "args",
    [
        ["--emit", "fig1,bogus"],
        ["--hypothesis", "h2", "--emit", "table1,fig1"],
        ["--emit", "fig1,fig1,table1"],
    ],
    ids=["unknown", "needs-h1", "repeated"],
)
def test_rejected_selector_writes_no_output(tmp_path, args):
    # Every selector is checked before report.json or any CSV is written.
    code = main(["--seed", "3", "--out", str(tmp_path)] + args)
    assert code == 1
    assert not (tmp_path / "report.json").exists()
    assert list(tmp_path.glob("*.csv")) == []


def test_config_file_with_flag_overrides(tmp_path, capsys):
    config_path = tmp_path / "run.json"
    config_path.write_text(
        json.dumps(
            {
                "version": 1,
                "seed": 5,
                "out": str(tmp_path / "a"),
                "hypothesis": "h1",
                "emit": ["fig1"],
            }
        )
    )
    code = main(["--config", str(config_path), "--out", str(tmp_path / "b")])
    assert code == 0, capsys.readouterr()
    assert (tmp_path / "b" / "fig1.csv").exists()  # flag overrode "out"
    report = json.loads((tmp_path / "b" / "report.json").read_text())
    assert report["params"]["hypothesis"] == "h1"


def test_config_file_validation(tmp_path):
    bad_version = tmp_path / "v.json"
    bad_version.write_text(json.dumps({"version": 9}))
    with pytest.raises(ConfigError, match="version"):
        load_config_file(str(bad_version))

    unknown = tmp_path / "u.json"
    unknown.write_text(json.dumps({"version": 1, "wat": True}))
    with pytest.raises(ConfigError, match="unknown config keys"):
        load_config_file(str(unknown))

    # A key is a RunConfig or RunParams field, but "basis" for price_basis.
    assert cli._CONFIG_KEYS == {
        "version", "bars", "splits", "fundamentals", "rates", "out",
        "hypothesis", "basis", "volume_basis", "beta_variant", "month_days",
        "min_coverage", "seed", "emit", "timestamp",
    }
    field_name = tmp_path / "f.json"
    field_name.write_text(json.dumps({"version": 1, "price_basis": "raw"}))
    with pytest.raises(ConfigError, match=r"unknown config keys: \['price_basis'\]"):
        load_config_file(str(field_name))

    not_json = tmp_path / "n.json"
    not_json.write_text("{nope")
    with pytest.raises(ConfigError, match="JSON"):
        load_config_file(str(not_json))

    with pytest.raises(ConfigError, match="not found"):
        load_config_file(str(tmp_path / "missing.json"))

    not_utf8 = tmp_path / "latin1.json"
    not_utf8.write_bytes(b'{"version": 1, "seed": 1, "out": "\xff"}')
    with pytest.raises(ConfigError, match="not valid JSON: 'utf-8' codec"):
        load_config_file(str(not_utf8))
    assert main(["--config", str(not_utf8)]) == 1


def test_config_version_true_is_rejected(tmp_path, capsys):
    # True == 1 in Python, but a bool is not the version number.
    config = tmp_path / "run.json"
    out = tmp_path / "o"
    config.write_text(json.dumps({"version": True, "seed": 1, "out": str(out)}))
    assert main(["--config", str(config)]) == 1
    assert capsys.readouterr().err == "error: config version must be 1, got True\n"
    assert not out.exists()


def test_build_config_emit_parsing():
    config = build_config({}, {"emit": "fig1, fig2"})
    assert config.emit == ("fig1", "fig2")
    config = build_config({"version": 1, "emit": ["table1"]}, {})
    assert config.emit == ("table1",)
    config = build_config({}, {"emit": "all"})
    assert config.emit is None
    with pytest.raises(ConfigError, match="hypothesis"):
        build_config({"hypothesis": "h9"}, {})


def test_timestamp_pinning(tmp_path, capsys):
    config_path = tmp_path / "run.json"
    config_path.write_text(
        json.dumps(
            {
                "version": 1,
                "seed": 2,
                "out": str(tmp_path / "o"),
                "timestamp": "2026-08-08T00:00:00Z",
                "emit": ["table1"],
            }
        )
    )
    assert main(["--config", str(config_path)]) == 0, capsys.readouterr()
    report = json.loads((tmp_path / "o" / "report.json").read_text())
    assert report["generated_at"] == "2026-08-08T00:00:00Z"


@pytest.mark.parametrize(
    "values, message",
    [
        ({"month_days": 21.7}, "month_days must be an integer, got 21.7"),
        ({"month_days": True}, "month_days must be an integer, got True"),
        ({"seed": 2.9}, "seed must be an integer, got 2.9"),
        ({"min_coverage": True}, "min_coverage must be a number, got True"),
        ({"timestamp": 5}, "timestamp must be a string, got 5"),
        ({"out": 5}, "out must be a string, got 5"),
        ({"bars": 7, "splits": "x"}, "bars must be a string, got 7"),
        ({"splits": ["s.csv"]}, "splits must be a string, got ['s.csv']"),
        ({"fundamentals": 1.5}, "fundamentals must be a string, got 1.5"),
        ({"rates": {}}, "rates must be a string, got {}"),
        ({"out": None}, "out must be a string, got None"),
    ],
)
def test_config_values_are_rejected_not_coerced(tmp_path, capsys, values, message):
    with pytest.raises(ConfigError) as exc_info:
        build_config({"version": 1, **values}, {})
    assert str(exc_info.value) == message
    config = tmp_path / "run.json"
    out = str(tmp_path / "o")  # in the file, so that "out" itself can be the bad value
    config.write_text(json.dumps({"version": 1, "seed": 1, "out": out, **values}))
    assert main(["--config", str(config)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "o").exists()


def test_config_numbers_given_as_whole_numbers_or_strings_are_accepted():
    config = build_config(
        {"version": 1, "month_days": 21.0, "seed": "7", "min_coverage": "0.9"}, {}
    )
    assert (config.params.month_days, config.seed) == (21, 7)
    assert config.params.min_coverage == 0.9
    config = build_config({"version": 1, "month_days": "20", "min_coverage": 1}, {})
    assert (config.params.month_days, config.params.min_coverage) == (20, 1.0)


@pytest.mark.parametrize(
    "args, message",
    [
        (["--bogus"], "unrecognized arguments: --bogus"),
        (["--hyp", "h1"], "unrecognized arguments: --hyp h1"),
        (["--hypothesis", "h9"], "argument --hypothesis: invalid choice: 'h9'"),
        (["--seed"], "argument --seed: expected one argument"),
        (["stray"], "unrecognized arguments: stray"),
    ],
    ids=["unknown", "abbreviated", "bad-choice", "missing-value", "positional"],
)
def test_usage_error_exit_code_one(tmp_path, capsys, args, message):
    # argparse would exit 2, which here means "no samples".
    assert main(["--seed", "1", "--out", str(tmp_path / "o")] + args) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: {message}")
    assert captured.out == ""
    assert not (tmp_path / "o").exists()


def test_version(capsys):
    assert main(["--version"]) == 0
    assert capsys.readouterr().out == f"splitstudy, version {__version__}\n"


def test_help_lists_every_option(capsys):
    assert main(["--help"]) == 0
    out = capsys.readouterr().out
    for option in (
        "--version", "--config", "--bars", "--splits", "--fundamentals",
        "--rates", "--out", "--hypothesis", "--basis", "--beta-variant",
        "--month-days", "--min-coverage", "--seed", "--emit", "--help",
    ):
        assert option in out
    assert "[-h]" not in out  # no short options


def test_ctrl_c_exits_one(tmp_path, capsys, monkeypatch):
    def interrupted(config):
        raise KeyboardInterrupt

    monkeypatch.setattr(cli, "run_pipeline", interrupted)
    assert main(["--seed", "1", "--out", str(tmp_path)]) == 1
    assert capsys.readouterr().err == "\naborted\n"
