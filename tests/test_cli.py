import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import cointkit.montecarlo as mc
from cointkit import cli
from cointkit.cli import SCHEMAS, RunConfig, main, parse_config_text, resolve_config
from cointkit.ecm import estimate_levels
from cointkit.errors import ConfigError, EmptyFile, GapInDates, NumericalError, ParseError
from cointkit.ingest import ingest_csv
from cointkit.series import TimeSeries


def write_series_csv(path, values, start=(2000, 1), quarterly=False):
    lines = ["date,value"]
    year, month = start
    for v in values:
        if quarterly:
            lines.append(f"{year:04d}Q{(month - 1) // 3 + 1},{v}")
            month += 3
        else:
            lines.append(f"{year:04d}-{month:02d},{v}")
            month += 1
        if month > 12:
            year, month = year + 1, month - 12
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_walk_pair(tmp_path, n=200, seed=1, offset=0.0):
    rng = np.random.default_rng(seed)
    a = np.cumsum(rng.standard_normal(n)) + offset
    b = np.cumsum(rng.standard_normal(n)) + offset
    pa, pb = tmp_path / "a.csv", tmp_path / "b.csv"
    write_series_csv(pa, a)
    write_series_csv(pb, b)
    return pa, pb


def write_cointegrated_pair(tmp_path, n=300, seed=2, beta=2.0, adjust=0.5):
    rng = np.random.default_rng(seed)
    u = rng.standard_normal(n + 100)
    e = rng.standard_normal(n + 100)
    x = np.cumsum(u)
    y = np.zeros(n + 100)
    for t in range(1, n + 100):
        y[t] = y[t - 1] + adjust * (beta * x[t - 1] - y[t - 1]) + e[t]
    px, py = tmp_path / "x.csv", tmp_path / "y.csv"
    write_series_csv(px, x[100:])
    write_series_csv(py, y[100:])
    return px, py


class TestIngest:
    def test_two_row_monthly_file(self, tmp_path):
        p = tmp_path / "s.csv"
        write_series_csv(p, [1.5, 2.5])
        series = ingest_csv(str(p))
        assert len(series) == 2
        assert series.start_label == "2000-01"
        assert series.lineage == ()
        assert series.name == "s"

    def test_quarterly_file(self, tmp_path):
        p = tmp_path / "q.csv"
        write_series_csv(p, [1.0, 2.0, 3.0], start=(2020, 4), quarterly=True)
        series = ingest_csv(str(p))
        assert series.frequency == 4
        assert series.start_label == "2020Q2"
        assert series.end_label == "2020Q4"

    def test_gap_names_missing_period(self, tmp_path):
        p = tmp_path / "g.csv"
        p.write_text("date,value\n2020-01,1\n2020-02,2\n2020-04,3\n", encoding="utf-8")
        with pytest.raises(GapInDates) as exc:
            ingest_csv(str(p))
        assert exc.value.expected == "2020-03"
        assert exc.value.found == "2020-04"

    def test_duplicate_period_is_a_gap_error(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("date,value\n2020-01,1\n2020-01,2\n", encoding="utf-8")
        with pytest.raises(GapInDates):
            ingest_csv(str(p))

    def test_bad_value_reports_line_number(self, tmp_path):
        p = tmp_path / "v.csv"
        rows = ["date,value"] + [f"2020-{m:02d},{m}" for m in range(1, 6)]
        rows.append("2020-06,N/A")
        p.write_text("\n".join(rows) + "\n", encoding="utf-8")
        with pytest.raises(ParseError) as exc:
            ingest_csv(str(p))
        assert exc.value.line == 7

    @pytest.mark.parametrize(
        "tail, line, message",
        [("2020-0x,2\n", 4, "date '2020-0x'"), ("\n", 4, "blank row")],
    )
    def test_lines_after_a_multiline_value_count_physical_lines(self, tmp_path, tail, line, message):
        p = tmp_path / "m.csv"
        p.write_text('date,value\n2020-01,"1\n"\n' + tail, encoding="utf-8")
        with pytest.raises(ParseError, match=message) as exc:
            ingest_csv(str(p))
        assert exc.value.line == line

    def test_bad_date_format(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("date,value\n01/2020,1\n", encoding="utf-8")
        with pytest.raises(ParseError):
            ingest_csv(str(p))

    def test_month_out_of_range(self, tmp_path, capsys):
        p = tmp_path / "m.csv"
        p.write_text("date,value\n2020-12,1\n2020-13,2\n", encoding="utf-8")
        assert main(["ingest-check", "--input", str(p)]) == 2
        record = _one_error_record(capsys)
        assert record == {"error": "ParseError", "message": "line 3: month 13 out of range in '2020-13'"}

    def test_frequency_switch_mid_file(self, tmp_path):
        p = tmp_path / "f.csv"
        p.write_text("date,value\n2020-01,1\n2020Q2,2\n", encoding="utf-8")
        with pytest.raises(ParseError):
            ingest_csv(str(p))

    def test_wrong_header(self, tmp_path):
        p = tmp_path / "h.csv"
        p.write_text("period,obs\n2020-01,1\n", encoding="utf-8")
        with pytest.raises(ParseError) as exc:
            ingest_csv(str(p))
        assert exc.value.line == 1

    def test_empty_file(self, tmp_path):
        p = tmp_path / "e.csv"
        p.write_text("date,value\n", encoding="utf-8")
        with pytest.raises(EmptyFile):
            ingest_csv(str(p))

    def test_nonfinite_value(self, tmp_path):
        p = tmp_path / "n.csv"
        p.write_text("date,value\n2020-01,inf\n", encoding="utf-8")
        with pytest.raises(ParseError):
            ingest_csv(str(p))

    def test_dates_take_only_ascii_digits(self, tmp_path, capsys):
        p = tmp_path / "u.csv"
        p.write_text("date,value\n\u0661\u0669\u0668\u0665-\u0660\u0661,1\n", encoding="utf-8")
        with pytest.raises(ParseError) as exc:
            ingest_csv(str(p))
        assert exc.value.line == 2
        assert main(["ingest-check", "--input", str(p)]) == 2
        assert _one_error_record(capsys)["error"] == "ParseError"

    def test_dates_take_only_ascii_spaces(self, tmp_path, capsys):
        # str.strip() alone removes the em space and the ideographic space.
        p = tmp_path / "s.csv"
        p.write_text("date,value\n\u20032020-01,5\n2020-02\u3000,6\n", encoding="utf-8")
        assert main(["ingest-check", "--input", str(p)]) == 2
        record = _one_error_record(capsys)
        assert record["message"] == "line 2: date '\\u20032020-01' is neither YYYY-MM nor YYYYQn"
        p.write_text("date,value\n2020-01,5\n2020-02\u3000,6\n", encoding="utf-8")
        with pytest.raises(ParseError) as exc:
            ingest_csv(str(p))
        assert exc.value.line == 3 and exc.value.reason.startswith("date '2020-02\\u3000' is neither")

    @pytest.mark.parametrize(
        "value", ["\u0661\u0662", "1_000", "\u20035"], ids=["arabic-indic-digits", "underscore", "em-space"]
    )
    def test_values_take_only_ascii_decimal_notation(self, tmp_path, capsys, value):
        # float() alone reads each of these; the value grammar does not.
        p = tmp_path / "v.csv"
        p.write_text(f"date,value\n2020-01,1\n2020-02,{value}\n2020-03,3\n", encoding="utf-8")
        assert main(["ingest-check", "--input", str(p)]) == 2
        record = _one_error_record(capsys)
        assert record["error"] == "ParseError"
        assert record["message"] == f"line 3: value {value!r} is not ASCII decimal or exponent notation"

    def test_invalid_utf8_names_file_offset_and_line(self, tmp_path, capsys):
        # Long enough that the byte lies past the decoder's first 8 KiB chunk.
        rows = [f"{1850 + k // 12:04d}-{k % 12 + 1:02d},{k % 80}.25" for k in range(2000)]
        data = ("date,value\n" + "\n".join(rows) + "\n").encode("ascii")
        assert data[:12000].count(b"\n") == 865 and data[12000:12001] != b"\n"
        p = tmp_path / "bad.csv"
        p.write_bytes(data[:12000] + b"\xff" + data[12000:])
        assert main(["ingest-check", "--input", str(p)]) == 2
        record = _one_error_record(capsys)
        assert record["error"] == "DataError"
        assert record["message"].startswith(f"cannot read {p}: ")
        assert "in position 12000:" in record["message"]
        assert record["message"].endswith("(line 866)")


def _one_error_record(capsys) -> dict:
    """The decoded record of stderr, which must be exactly one ``cointkit-error:`` line."""
    err = capsys.readouterr().err
    assert err.startswith("cointkit-error: ") and err.count("\n") == 1
    return json.loads(err[len("cointkit-error: ") :])


def _fresh_process(tmp_path, argv) -> subprocess.CompletedProcess:
    """A fresh ``cointkit`` process run on ``argv`` in ``tmp_path``, its output captured."""
    src = os.path.dirname(os.path.dirname(mc.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    return subprocess.run(
        [sys.executable, "-m", "cointkit.cli", *argv],
        capture_output=True, text=True, cwd=tmp_path, env=env,
    )


def _only_error_line(tmp_path, argv, code=2) -> dict:
    """The record of a fresh ``cointkit`` process that must exit ``code`` with one stderr line.

    numpy's overflow warnings would go to stderr ahead of the line.
    """
    proc = _fresh_process(tmp_path, argv)
    assert proc.returncode == code
    assert proc.stdout == ""
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("cointkit-error: ")
    return json.loads(lines[0].split("cointkit-error: ", 1)[1])


class TestExitCodes:
    def test_usage_error_is_exit_one_and_writes_nothing(self, tmp_path, capsys):
        pa, pb = write_walk_pair(tmp_path)
        out = tmp_path / "report"
        code = main(
            ["eg", "--input", str(pa), "--input2", str(pb), "--lags", "-1",
             "--output", str(out)]
        )
        assert code == 1
        assert not (tmp_path / "report.json").exists()
        err = capsys.readouterr().err
        assert err.startswith("cointkit-error: ")
        record = json.loads(err.split("cointkit-error: ", 1)[1])
        assert record["error"] == "UsageError"

    def test_missing_file_is_exit_two(self, tmp_path, capsys):
        code = main(["adf", "--input", str(tmp_path / "absent.csv")])
        assert code == 2
        assert "cointkit-error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "content, error, message",
        [
            (b"date,value\n2020-01,1\xff\n", "DataError", "cannot read "),
            (b'date,value\n2020-01,"' + b"1" * 140_000 + b'"\n', "ParseError", "line 2: "),
        ],
        ids=["invalid-utf8", "field-over-csv-limit"],
    )
    def test_malformed_input_bytes_are_exit_two(self, tmp_path, capsys, content, error, message):
        p = tmp_path / "m.csv"
        p.write_bytes(content)
        assert main(["adf", "--input", str(p)]) == 2
        record = _one_error_record(capsys)
        assert record["error"] == error
        assert record["message"].startswith(message)

    def test_config_file_not_utf8_is_exit_one(self, tmp_path, capsys):
        pa, _ = write_walk_pair(tmp_path)
        cfg = tmp_path / "run.cfg"
        cfg.write_bytes(b"lags = 2\xff\n")
        assert main(["adf", "--input", str(pa), "--config", str(cfg)]) == 1
        record = _one_error_record(capsys)
        assert record["error"] == "ConfigError"
        assert record["message"].startswith("cannot read config file: ")

    def test_data_error_is_exit_two(self, tmp_path, capsys):
        p = tmp_path / "g.csv"
        p.write_text("date,value\n2020-01,1\n2020-03,2\n", encoding="utf-8")
        code = main(["adf", "--input", str(p)])
        assert code == 2
        record = json.loads(capsys.readouterr().err.split("cointkit-error: ", 1)[1])
        assert record["error"] == "GapInDates"
        assert "2020-02" in record["message"]

    def test_numerical_error_is_exit_three(self, tmp_path, capsys):
        p = tmp_path / "c.csv"
        write_series_csv(p, [5.0] * 40)
        code = main(["adf", "--input", str(p)])
        assert code == 3
        record = json.loads(capsys.readouterr().err.split("cointkit-error: ", 1)[1])
        assert record["error"] == "DegenerateInput"

    def test_missing_guard_is_exit_three(self, monkeypatch, capsys):
        # A configuration check, so the record names no replication.
        monkeypatch.setattr("cointkit.cointegration.differencing_warning", lambda a, b: None)
        assert main(["mc-falsepos", "--n", "60", "--reps", "100"]) == 3
        record = json.loads(capsys.readouterr().err.split("cointkit-error: ", 1)[1])
        assert record == {
            "error": "MissingGuardWarning",
            "message": "differenced-input guard did not fire on differenced data",
        }

    def test_replication_error_names_replication_and_seed(self, capsys):
        argv = ["mc-size", "--n", "60", "--reps", "100", "--seed", "4", "--sd", "1e308"]
        assert main(argv) == 2
        record = json.loads(capsys.readouterr().err.split("cointkit-error: ", 1)[1])
        assert list(record) == ["error", "message", "replication", "seed"]
        assert record["error"] == "DataError"
        assert (record["replication"], record["seed"]) == (0, mc.replication_seed(4, 0))

    def test_overflowing_draw_prints_only_the_error_line(self, tmp_path):
        record = _only_error_line(tmp_path, ["mc-size", "--sd", "1e308", "--reps", "100", "--n", "60"])
        assert record["error"] == "DataError"
        assert record["message"].startswith("non-finite value at position ")
        assert (record["replication"], record["seed"]) == (0, mc.replication_seed(0, 0))

    @pytest.mark.parametrize("det", ["constant", "none"])
    def test_overflowing_adf_difference_prints_only_the_error_line(self, tmp_path, det):
        # Finite levels whose first differences overflow.
        path = tmp_path / "alt.csv"
        write_series_csv(path, [1.5e308, -1.5e308] * 60)
        assert _only_error_line(tmp_path, ["adf", "--input", str(path), "--det", det]) == {
            "error": "DataError",
            "message": "non-finite value at position 0",
        }

    @pytest.mark.parametrize("seed, position", [(0, 0), (2, 6)])
    def test_overflowing_difference_prints_only_the_error_line(self, tmp_path, seed, position):
        # Finite levels whose first differences overflow.
        argv = [
            "mc-size", "--test", "eg-differences", "--dgp", "white-noise-pair", "--sd", "6e307",
            "--n", "30", "--reps", "100", "--seed", str(seed),
        ]
        assert _only_error_line(tmp_path, argv) == {
            "error": "DataError",
            "message": f"non-finite value at position {position}",
            "replication": 0,
            "seed": mc.replication_seed(seed, 0),
        }

    @pytest.mark.parametrize(
        "command, scales, message",
        [
            ("eg", (5e161, 5e161), "design overflows"),
            ("eg", (5e161, 1.0), "residuals overflow"),
            ("ecm", (5e161, 1.0), "residuals overflow"),
            ("adf", (5e161,), "design overflows"),
            ("adf", (1e-160,), "design underflows"),
        ],
    )
    def test_overflowing_regression_is_a_numerical_error(self, tmp_path, capsys, command, scales, message):
        # Squares of values this large, or of the inverse R factor of values
        # this small, overflow: the error says so, instead of naming a column
        # that is not dependent, and numpy warns of nothing.
        rng = np.random.default_rng(1)
        argv = [command]
        for flag, scale in zip(("--input", "--input2"), scales):
            path = tmp_path / f"{flag[2:]}.csv"
            write_series_csv(path, (np.cumsum(rng.standard_normal(120)) + 50.0) * scale)
            argv += [flag, str(path)]
        assert main(argv) == 3
        record = _one_error_record(capsys)
        assert record["error"] == "NumericalError"
        assert record["message"].startswith(message + ": ")

    def test_huge_total_sum_of_squares_prints_the_report(self, tmp_path):
        # y = 1e160 x + 1e152 e: the stage-one design and residuals are in range,
        # squares of y are not, and R^2 is taken on y scaled by a power of two.
        # The noise e keeps the fit from being exact, which the degeneracy
        # screen would report.
        x = np.cumsum(np.random.default_rng(1).standard_normal(120)) + 50.0
        e = np.random.default_rng(2).standard_normal(120)
        write_series_csv(tmp_path / "x.csv", x)
        write_series_csv(tmp_path / "y.csv", x * 1e160 + e * 1e152)
        argv = ["eg", "--input", "y.csv", "--input2", "x.csv", "--format", "json", "--output", "eg"]
        proc = _fresh_process(tmp_path, argv)
        assert (proc.returncode, proc.stderr) == (0, "")
        report = json.loads((tmp_path / "eg.json").read_text(encoding="utf-8"))
        fit = estimate_levels(ingest_csv(tmp_path / "y.csv"), ingest_csv(tmp_path / "x.csv"))
        assert report["stage_one"]["r_squared"] == pytest.approx(fit.r_squared, rel=1e-11)
        assert math.isfinite(report["statistic"])

    def test_huge_total_sum_of_squares_in_the_levels_regression(self):
        x = np.cumsum(np.random.default_rng(1).standard_normal(120)) + 50.0
        fit = estimate_levels(TimeSeries((2000, 1), 12, x * 1e160), TimeSeries((2000, 1), 12, x))
        assert fit.r_squared == 1.0

    def test_bad_flag_choice_is_exit_one(self, tmp_path, capsys):
        pa, _ = write_walk_pair(tmp_path)
        code = main(["adf", "--input", str(pa), "--det", "quadratic"])
        assert code == 1

    def test_success_is_exit_zero(self, tmp_path):
        pa, _ = write_walk_pair(tmp_path)
        assert main(["adf", "--input", str(pa)]) == 0


class TestConfigFile:
    def test_round_trip_for_every_command(self, tmp_path):
        samples = {
            "ingest-check": {"input": "a.csv"},
            "adf": {"input": "a.csv", "lags": 3, "det": "constant-trend"},
            "eg": {
                "input": "a.csv",
                "input2": "b.csv",
                "transform": "logarithms",
                "normalize_on": "second",
                "lags": 12,
                "trend": True,
                "output": "out",
                "format": "both",
            },
            "grid": {"input": "a.csv", "input2": "b.csv"},
            "ecm": {"input": "y.csv", "input2": "x.csv", "gap": 4, "trend": True},
            "mc-falsepos": {"n": 120, "reps": 500, "level": 5, "seed": 9},
            "mc-size": {"test": "adf", "dgp": "white-noise-pair", "beta": 2.5},
        }
        for command, overrides in samples.items():
            values = {opt.name: opt.default for opt in SCHEMAS[command]}
            values.update(overrides)
            config = RunConfig(command=command, values=values)
            lines = [f"command = {command}"]
            lines += [
                f"{name} = {str(value).lower() if isinstance(value, bool) else value}"
                for name, value in values.items()
                if value is not None
            ]
            text = "\n".join(lines) + "\n"
            parsed = parse_config_text(text)
            assert parsed.pop("command") == command
            cfg = tmp_path / f"{command}.cfg"
            cfg.write_text(text, encoding="utf-8")
            rebuilt = resolve_config([command, "--config", str(cfg)])
            assert rebuilt == config

    def test_file_values_used_and_flags_override(self, tmp_path):
        pa, pb = write_walk_pair(tmp_path)
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            f"command = eg\ninput = {pa}\ninput2 = {pb}\nlags = 3\n", encoding="utf-8"
        )
        out1 = tmp_path / "r1"
        assert main(["eg", "--config", str(cfg), "--output", str(out1)]) == 0
        doc = json.loads((tmp_path / "r1.json").read_text())
        assert doc["spec"]["lags"] == 3

        out2 = tmp_path / "r2"
        assert (
            main(["eg", "--config", str(cfg), "--lags", "5", "--output", str(out2)]) == 0
        )
        doc = json.loads((tmp_path / "r2.json").read_text())
        assert doc["spec"]["lags"] == 5

    def test_unknown_key_rejected(self, tmp_path, capsys):
        pa, pb = write_walk_pair(tmp_path)
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"input = {pa}\ninput2 = {pb}\nmaxlag = 3\n", encoding="utf-8")
        assert main(["eg", "--config", str(cfg)]) == 1
        record = json.loads(capsys.readouterr().err.split("cointkit-error: ", 1)[1])
        assert "maxlag" in record["message"]

    def test_command_mismatch_rejected(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("command = grid\n", encoding="utf-8")
        assert main(["adf", "--config", str(cfg), "--input", "a.csv"]) == 1

    def test_comments_and_blanks_ignored(self):
        parsed = parse_config_text("# comment\n\nlags = 2\n")
        assert parsed == {"lags": "2"}

    def test_malformed_line_rejected(self):
        with pytest.raises(ConfigError):
            parse_config_text("lags 2\n")

    def test_empty_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("lags = 2\n = 3\n", encoding="utf-8")
        assert main(["adf", "--config", str(cfg), "--input", "a.csv"]) == 1
        assert _one_error_record(capsys) == {"error": "ConfigError", "message": "config line 2: empty key"}

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError):
            parse_config_text("lags = 1\nlags = 2\n")

    @pytest.mark.parametrize(
        "base, key, value, message",
        [
            (["eg", "--input2", "b.csv"], "lags", "x", "argument --lags: invalid int value: 'x'"),
            (["adf"], "det", "q", "argument --det: invalid choice: 'q' (choose from "),
            (["eg"], "trend", "yes", "argument --trend: invalid choice: 'yes' (choose from 'true', 'false')"),
        ],
        ids=["int", "choice", "bool"],
    )
    def test_bad_value_reads_the_same_from_file_and_flag(self, tmp_path, capsys, base, key, value, message):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{key} = {value}\n", encoding="utf-8")
        base = base + ["--input", "a.csv"]
        assert main(base + ["--config", str(cfg)]) == 1
        from_file = capsys.readouterr().err
        assert main(base + [f"--{key}", value]) == 1
        from_flag = capsys.readouterr().err
        assert from_file == from_flag
        assert json.loads(from_flag.split("cointkit-error: ", 1)[1])["message"].startswith(message)

    def test_missing_required_option(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("input = a.csv\n", encoding="utf-8")
        with pytest.raises(ConfigError, match="^missing required option 'input2'$"):
            resolve_config(["eg", "--config", str(cfg)])

    @pytest.mark.parametrize("command", sorted(SCHEMAS))
    def test_help_lists_every_option_help(self, command, capsys):
        with pytest.raises(SystemExit) as info:
            main([command, "--help"])
        assert info.value.code == 0
        text = " ".join(capsys.readouterr().out.split())  # argparse rewraps the help
        for opt in SCHEMAS[command]:
            assert "--" + opt.name.replace("_", "-") in text
            assert " ".join(opt.help.split()) in text, opt.name

    def test_argv_is_parsed_once_without_a_config_file(self, tmp_path, monkeypatch):
        pa, pb = write_walk_pair(tmp_path)
        calls = []
        parse_args = cli._Parser.parse_args

        def counted(self, *args, **kwargs):
            calls.append(args)
            return parse_args(self, *args, **kwargs)

        monkeypatch.setattr(cli._Parser, "parse_args", counted)
        assert main(["eg", "--input", str(pa), "--input2", str(pb)]) == 0
        assert len(calls) == 1
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"input = {pa}\ninput2 = {pb}\n", encoding="utf-8")
        assert main(["eg", "--config", str(cfg)]) == 0
        assert len(calls) == 3


class TestOutputs:
    def test_seeded_command_is_byte_identical_across_runs(self, tmp_path):
        args = ["mc-falsepos", "--n", "50", "--reps", "100", "--level", "1",
                "--seed", "42", "--format", "both"]
        out1, out2 = tmp_path / "one", tmp_path / "two"
        assert main(args + ["--output", str(out1)]) == 0
        assert main(args + ["--output", str(out2)]) == 0
        assert (tmp_path / "one.json").read_bytes() == (tmp_path / "two.json").read_bytes()
        assert (tmp_path / "one.csv").read_bytes() == (tmp_path / "two.csv").read_bytes()

    def test_csv_and_json_agree_to_emitted_precision(self, tmp_path):
        pa, pb = write_walk_pair(tmp_path)
        out = tmp_path / "eg"
        assert (
            main(
                ["eg", "--input", str(pa), "--input2", str(pb), "--format", "both",
                 "--output", str(out)]
            )
            == 0
        )
        doc = json.loads((tmp_path / "eg.json").read_text())
        csv_lines = (tmp_path / "eg.csv").read_text().splitlines()
        header = csv_lines[0].split(",")
        row = dict(zip(header, csv_lines[1].split(",")))
        assert f"{doc['statistic']:.12g}" == row["statistic"]
        for level, column in ((1, "cv1"), (5, "cv5"), (10, "cv10")):
            assert f"{doc['critical_values'][str(level)]:.12g}" == row[column]

    def test_warnings_pass_through_everywhere(self, tmp_path, capsys):
        pa, pb = write_walk_pair(tmp_path, n=40)
        out = tmp_path / "eg"
        assert (
            main(
                ["eg", "--input", str(pa), "--input2", str(pb), "--format", "both",
                 "--output", str(out)]
            )
            == 0
        )
        stdout = capsys.readouterr().out
        assert "warning [short_sample]" in stdout
        doc = json.loads((tmp_path / "eg.json").read_text())
        codes = [w["code"] for w in doc["warnings"]]
        assert "short_sample" in codes
        csv_text = (tmp_path / "eg.csv").read_text()
        assert "short_sample" in csv_text

    def test_output_dir_environment_variable(self, tmp_path, monkeypatch):
        pa, _ = write_walk_pair(tmp_path)
        outdir = tmp_path / "reports"
        monkeypatch.setenv("COINTKIT_OUTPUT_DIR", str(outdir))
        monkeypatch.chdir(tmp_path)
        assert main(["adf", "--input", str(pa), "--output", "adf_report"]) == 0
        assert (outdir / "adf_report.json").exists()

    def test_unwritable_output_is_exit_one(self, tmp_path, capsys):
        pa, _ = write_walk_pair(tmp_path)
        (tmp_path / "afile").write_text("", encoding="utf-8")
        out = tmp_path / "afile" / "out"
        assert main(["adf", "--input", str(pa), "--output", str(out)]) == 1
        record = json.loads(capsys.readouterr().err.split("cointkit-error: ", 1)[1])
        assert record["error"] == "UsageError"
        assert record["message"].startswith(f"cannot write {tmp_path / 'afile'}: ")

    @pytest.mark.parametrize("blocked", ["rename", "write"])
    def test_failing_csv_write_leaves_no_output(self, tmp_path, capsys, blocked):
        # A directory where the CSV (or its temporary file) must go: the JSON
        # is written first, and must not be left without its CSV.
        pa, _ = write_walk_pair(tmp_path)
        blocker = tmp_path / ("out.csv" if blocked == "rename" else f"out.csv.{os.getpid()}.tmp")
        blocker.mkdir()
        out = tmp_path / "out"
        code = main(["adf", "--input", str(pa), "--format", "both", "--output", str(out)])
        assert code == 1
        record = json.loads(capsys.readouterr().err.split("cointkit-error: ", 1)[1])
        assert record["error"] == "UsageError"
        assert record["message"].startswith(f"cannot write {tmp_path / 'out.csv'}: ")
        assert sorted(os.listdir(tmp_path)) == sorted(["a.csv", "b.csv", blocker.name])

    def test_known_extension_is_stripped_from_stem(self, tmp_path):
        pa, _ = write_walk_pair(tmp_path)
        out = tmp_path / "r.json"
        assert main(["adf", "--input", str(pa), "--output", str(out)]) == 0
        assert (tmp_path / "r.json").exists()
        assert not (tmp_path / "r.json.json").exists()


class TestCommands:
    def test_ingest_check_reports_summary(self, tmp_path, capsys):
        p = tmp_path / "s.csv"
        write_series_csv(p, np.arange(24.0))
        assert main(["ingest-check", "--input", str(p)]) == 0
        out = capsys.readouterr().out
        assert "24 monthly observations" in out
        assert "2000-01..2001-12" in out

    def test_grid_emits_twelve_cells(self, tmp_path):
        pa, pb = write_walk_pair(tmp_path, n=220, offset=1000.0)
        out = tmp_path / "grid"
        assert (
            main(
                ["grid", "--input", str(pa), "--input2", str(pb), "--format", "both",
                 "--output", str(out)]
            )
            == 0
        )
        lines = (tmp_path / "grid.csv").read_text().splitlines()
        assert len(lines) == 13
        assert lines[0] == "transform,normalized_on,lags,trend,statistic,stars,cv1,cv5,cv10,warnings"
        doc = json.loads((tmp_path / "grid.json").read_text())
        assert len(doc["cells"]) == 12
        assert doc["aggregates"]["cells_ok"] == 12

    def test_ecm_prints_caveat_without_cointegration(self, tmp_path, capsys):
        pa, pb = write_walk_pair(tmp_path, n=250, seed=8)
        assert main(["ecm", "--input", str(pa), "--input2", str(pb)]) == 0
        out = capsys.readouterr().out
        assert "does not reject" in out

    def test_ecm_records_a_companion_test_that_could_not_run(self, tmp_path, capsys):
        # y is 2x + 1 to within 1e-8 against levels near 1e6: the companion
        # Engle-Granger test's residuals are negligible, so it fails typed,
        # and the error-correction fit is still reported.
        rng = np.random.default_rng(11)
        x = 1e6 + np.cumsum(rng.standard_normal(240))
        y = 2 * x + 1 + 1e-8 * rng.standard_normal(240)
        px, py = tmp_path / "x.csv", tmp_path / "y.csv"
        write_series_csv(px, x.tolist())
        write_series_csv(py, y.tolist())
        out = tmp_path / "ecm"
        argv = ["ecm", "--input", str(py), "--input2", str(px), "--gap", "1", "--output", str(out)]
        assert main(argv) == 0
        assert (
            "warning: companion cointegration test could not be run; "
            "the error-correction term may be undefined"
        ) in capsys.readouterr().out.splitlines()
        doc = json.loads((tmp_path / "ecm.json").read_text(encoding="utf-8"))
        assert doc["cointegration_check"] == {"error": "DegenerateInput: input has zero innovation variance"}

    def test_ecm_no_caveat_for_cointegrated_inputs(self, tmp_path, capsys):
        py_, px = write_cointegrated_pair(tmp_path)
        assert main(["ecm", "--input", str(py_), "--input2", str(px)]) == 0
        out = capsys.readouterr().out
        assert "does not reject" not in out
        assert "error-correction coefficient" in out

    def test_mc_size_command(self, tmp_path):
        out = tmp_path / "size"
        assert (
            main(
                ["mc-size", "--test", "adf", "--dgp", "white-noise-pair", "--n", "60",
                 "--reps", "100", "--seed", "3", "--output", str(out)]
            )
            == 0
        )
        doc = json.loads((tmp_path / "size.json").read_text())
        assert doc["experiment"] == "size"
        assert doc["rejection_rate"]["5"] >= 0.99

    def test_mc_falsepos_human_line(self, capsys):
        assert main(["mc-falsepos", "--n", "50", "--reps", "100", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "false-positive rate at 1%" in out
        assert "guard fired in 100/100" in out
