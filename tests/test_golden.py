"""Golden outputs: every CLI command and Monte Carlo runner, byte for byte.

``tests/golden/inputs/`` holds small seeded CSV series. ``tests/golden/expected/``
holds, for each case below, the exact stdout of the CLI and the JSON and CSV it
writes with ``--format both`` (the temporary output directory shows as
``<out>``), the exit code and ``cointkit-error:`` stderr line of six failing
invocations, and the ``to_json_dict()`` of the runners the CLI does not expose,
rendered with full float precision. Each successful CLI case runs twice: with
its options as flags, and with every option read from a ``--config`` file.

Both directories were written by running ``PYTHONPATH=src python
tests/test_golden.py``, which regenerates the inputs from fixed seeds and then
records what the code produces on them. A golden changes only with a deliberate
change to an output contract; a refactor must leave every file byte-identical.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import re
import shlex
import shutil
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

import cointkit.ecm as ecm
import cointkit.montecarlo as mc
from cointkit import cli
from cointkit.cli import main

README = Path(__file__).parents[1] / "README.md"
GOLDEN = Path(__file__).with_name("golden")
INPUTS = GOLDEN / "inputs"
EXPECTED = GOLDEN / "expected"
OUT_PLACEHOLDER = "<out>"

# name -> argv with {in} standing for the inputs directory
CLI_CASES = {
    "ingest_check_monthly": ["ingest-check", "--input", "{in}/walk_a.csv"],
    "ingest_check_quarterly": ["ingest-check", "--input", "{in}/quarterly.csv"],
    "adf": ["adf", "--input", "{in}/walk_a.csv", "--lags", "2", "--det", "constant-trend"],
    "eg": ["eg", "--input", "{in}/walk_a.csv", "--input2", "{in}/walk_b.csv", "--lags", "1"],
    "eg_logs_trend": [
        "eg", "--input", "{in}/coint_x.csv", "--input2", "{in}/coint_y.csv",
        "--transform", "logarithms", "--normalize-on", "second", "--lags", "4", "--trend", "true",
    ],
    "eg_short_sample": ["eg", "--input", "{in}/short_a.csv", "--input2", "{in}/short_b.csv"],
    # walk_a and walk_b cross zero, so the six logarithms cells are error rows
    "grid": ["grid", "--input", "{in}/walk_a.csv", "--input2", "{in}/walk_b.csv"],
    # coint_x and coint_y stay positive, so all twelve cells succeed
    "grid_coint": ["grid", "--input", "{in}/coint_x.csv", "--input2", "{in}/coint_y.csv"],
    "ecm": ["ecm", "--input", "{in}/coint_y.csv", "--input2", "{in}/coint_x.csv"],
    "ecm_caveat": [
        "ecm", "--input", "{in}/walk_a.csv", "--input2", "{in}/walk_b.csv", "--gap", "1",
    ],
    # the companion check with a trend in its stage one
    "ecm_trend": [
        "ecm", "--input", "{in}/coint_y.csv", "--input2", "{in}/coint_x.csv", "--trend", "true",
        "--gap", "1", "--control-lags", "2", "--ect-lag", "2",
    ],
    "mc_falsepos": ["mc-falsepos", "--n", "60", "--reps", "100", "--seed", "7", "--level", "5"],
    "mc_size": ["mc-size", "--n", "60", "--reps", "100", "--seed", "3", "--lags", "1"],
    "mc_size_adf_cointegrated": [
        "mc-size", "--test", "adf", "--dgp", "cointegrated-pair", "--n", "80", "--reps", "100",
        "--seed", "4", "--det", "constant-trend", "--beta", "2.0", "--adjust", "0.25",
    ],
}

# The size cells of README "Finite-sample size and power": eg-levels on
# independent random walks, argv exactly as the README prints it.
SIZE_CELLS = {
    f"mc_size_n{n}_lags{lags}{'_trend' if trend == 'true' else ''}": [
        "mc-size", "--test", "eg-levels", "--dgp", "independent-random-walks", "--n", str(n),
        "--lags", str(lags), "--trend", trend, "--reps", "5000", "--seed", "11",
    ]
    for n in (281, 91)
    for lags, trend in ((0, "false"), (12, "false"), (12, "true"))
}
CLI_CASES.update(SIZE_CELLS)

ERROR_CASES = {
    "error_usage": [
        "eg", "--input", "{in}/walk_a.csv", "--input2", "{in}/walk_b.csv", "--lags", "-1",
    ],
    # the ADF lag rule, which is not the Engle-Granger one: no upper bound
    "error_usage_adf": ["adf", "--input", "{in}/walk_a.csv", "--lags", "-1"],
    "error_data": ["adf", "--input", "{in}/gap.csv"],
    "error_numerical": ["adf", "--input", "{in}/constant.csv"],
    # finite levels whose first differences overflow: one stderr line, no numpy warning
    "error_overflow": ["adf", "--input", "{in}/overflow.csv"],
    # finite levels whose stage-one Q'y overflows: one stderr line, no numpy warning
    "error_overflow_eg": ["eg", "--input", "{in}/overflow_y.csv", "--input2", "{in}/overflow_x.csv"],
}

EXPERIMENT_CASES = {
    "spurious_regression": lambda: mc.run_spurious_regression_experiment(
        n=60, reps=100, base_seed=5, include_trend=True
    ),
    "ect_unit_root": lambda: mc.run_ect_unit_root_experiment(
        n=120, reps=100, base_seed=6, lags=1
    ),
    "ect_recovery": lambda: mc.run_ect_recovery_experiment(n=120, reps=100, base_seed=8),
}


def _run_cli(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _argv(template: list[str]) -> list[str]:
    return [arg.replace("{in}", str(INPUTS)) for arg in template]


def _config_argv(argv: list[str], path: Path) -> list[str]:
    """``argv`` with every option moved into a config file written at ``path``."""
    command, *options = argv
    lines = [f"command = {command}"]
    lines += [f"{flag[2:].replace('-', '_')} = {value}" for flag, value in zip(options[::2], options[1::2])]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return [command, "--config", str(path)]


def _cli_outputs(
    name: str, out_dir: Path, config: Path | None = None, extra: tuple[str, ...] = ()
) -> dict[str, str]:
    """Golden file name -> text for one successful CLI case run with ``extra`` options
    too; with ``config``, every option is read from a config file written there."""
    argv = _argv(CLI_CASES[name]) + [*extra, "--output", str(out_dir / name), "--format", "both"]
    if config is not None:
        argv = _config_argv(argv, config)
    code, stdout, stderr = _run_cli(argv)
    assert code == 0, stderr
    return {
        f"{name}.stdout": stdout.replace(str(out_dir), OUT_PLACEHOLDER),
        f"{name}.json": _read(out_dir / f"{name}.json"),
        f"{name}.csv": _read(out_dir / f"{name}.csv"),
    }


def _error_output(name: str) -> str:
    code, stdout, stderr = _run_cli(_argv(ERROR_CASES[name]))
    assert stdout == ""
    return f"exit {code}\n{stderr}"


def _experiment_output(name: str) -> str:
    doc = EXPERIMENT_CASES[name]().to_json_dict()
    text = json.dumps(doc, indent=2) + "\n"
    # JSON-native already: string keys, lists rather than tuples
    assert json.loads(text) == doc
    return text


def _read(path: Path) -> str:
    return path.read_bytes().decode("utf-8")  # no newline translation


def _expected(file_name: str) -> str:
    return _read(EXPECTED / file_name)


@pytest.fixture(autouse=True)
def _no_output_dir(monkeypatch):
    monkeypatch.delenv("COINTKIT_OUTPUT_DIR", raising=False)


@pytest.mark.parametrize("name", sorted(CLI_CASES))
def test_cli_command_matches_golden(name, tmp_path):
    for file_name, text in _cli_outputs(name, tmp_path).items():
        assert text == _expected(file_name), file_name


@pytest.mark.parametrize("name", sorted(CLI_CASES))
def test_cli_command_from_a_config_file_matches_golden(name, tmp_path):
    for file_name, text in _cli_outputs(name, tmp_path, tmp_path / "run.cfg").items():
        assert text == _expected(file_name), file_name


@pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="two workers need two CPUs")
@pytest.mark.parametrize("name", ["mc_falsepos", "mc_size", "mc_size_adf_cointegrated"])
def test_two_worker_processes_match_golden(name, tmp_path):
    for file_name, text in _cli_outputs(name, tmp_path, extra=("--workers", "2")).items():
        assert text == _expected(file_name), file_name


def test_flags_beside_a_config_file_win_and_match_golden(tmp_path):
    """Options split between a file and flags; the flags that contradict the file win."""
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        f"command = eg\ninput = {INPUTS}/coint_x.csv\ninput2 = {INPUTS}/coint_y.csv\n"
        "transform = untransformed\nlags = 0\ntrend = true\nformat = json\n",
        encoding="utf-8",
    )
    out = tmp_path / "eg_logs_trend"
    argv = ["eg", "--transform", "logarithms", "--config", str(cfg), "--normalize-on", "second"]
    argv += ["--lags", "4", "--output", str(out), "--format", "both"]
    code, stdout, stderr = _run_cli(argv)
    assert code == 0, stderr
    assert stdout.replace(str(tmp_path), OUT_PLACEHOLDER) == _expected("eg_logs_trend.stdout")
    for suffix in (".json", ".csv"):
        assert _read(out.with_suffix(suffix)) == _expected(f"eg_logs_trend{suffix}")


@pytest.mark.parametrize("name", sorted(ERROR_CASES))
def test_cli_failure_matches_golden(name):
    assert _error_output(name) == _expected(f"{name}.stderr")


def test_one_process_serves_every_case_after_a_usage_error_and_help(tmp_path):
    """``main`` keeps one parser per process; a failed parse or ``--help`` leaves it as it was."""
    parser = cli._build_parser()
    code, stdout, stderr = _run_cli(["no-such-command"])
    assert (code, stdout) == (1, "")
    assert stderr.startswith('cointkit-error: {"error": "ConfigError", "message": "argument command: ')
    assert stderr.count("\n") == 1 and "no-such-command" in stderr
    with pytest.raises(SystemExit) as info, contextlib.redirect_stdout(io.StringIO()) as out:
        main(["--help"])
    assert info.value.code == 0 and out.getvalue().startswith("usage: cointkit ")
    for name in sorted(CLI_CASES):
        for file_name, text in _cli_outputs(name, tmp_path).items():
            assert text == _expected(file_name), file_name
    for name in sorted(ERROR_CASES):
        assert _error_output(name) == _expected(f"{name}.stderr"), name
    assert cli._build_parser() is parser


@pytest.mark.parametrize("name", sorted(EXPERIMENT_CASES))
def test_experiment_json_matches_golden(name):
    assert _experiment_output(name) == _expected(f"{name}.json")


def test_ect_unit_root_experiment_solves_no_ardl_stage(monkeypatch):
    """Its block is the levels regression plus ADF: the golden holds with the ECM kernel gone."""

    def no_ardl_stage(*args, **kwargs):
        raise AssertionError("the ECT unit-root experiment ran the ECM kernel")

    monkeypatch.setattr(ecm, "_ecm_regressions", no_ardl_stage)
    assert _experiment_output("ect_unit_root") == _expected("ect_unit_root.json")


def _readme_size_rows() -> list[tuple[list[str], list[str]]]:
    """The argv and the 1%, 5% and 10% figures of each row of README's size table."""
    table = _read(README).split("\nSize: ", 1)[1].split("\n\n")[1]
    rows = []
    for line in table.splitlines()[2:]:  # past the header and the rule
        cells = [cell.strip() for cell in line.strip().strip("|").split("|")]
        program, *argv = shlex.split(cells[-1].strip("`"))
        assert program == "cointkit", line
        rows.append((argv, cells[2:5]))
    return rows


def test_readme_size_table_is_printed_by_its_commands():
    """Each README size figure is the rate its command prints, as the golden stdout records."""
    rows = _readme_size_rows()
    assert len(rows) == len(SIZE_CELLS)
    case_of = {tuple(argv): name for name, argv in CLI_CASES.items()}
    for argv, figures in rows:
        name = case_of[tuple(argv)]
        rates = dict(re.findall(r"(\d+)%: ([\d.]+)", _expected(f"{name}.stdout").splitlines()[0]))
        assert [rates[str(level)] for level in (1, 5, 10)] == figures, name


def _write_series(path: Path, start: tuple[int, int], values, quarterly: bool = False) -> None:
    year, month = start
    step = 3 if quarterly else 1
    lines = ["date,value"]
    for v in values:
        label = f"{year:04d}Q{(month - 1) // 3 + 1}" if quarterly else f"{year:04d}-{month:02d}"
        lines.append(f"{label},{v:.6f}")
        month += step
        if month > 12:
            year, month = year + 1, month - 12
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _write_inputs() -> None:
    rng = np.random.default_rng(20251018)
    walks = np.cumsum(rng.standard_normal((2, 120)), axis=1)
    _write_series(INPUTS / "walk_a.csv", (2001, 1), walks[0])
    _write_series(INPUTS / "walk_b.csv", (2001, 1), walks[1])
    _write_series(INPUTS / "short_a.csv", (2001, 1), walks[0, :40])
    _write_series(INPUTS / "short_b.csv", (2001, 1), walks[1, :40])

    total, burn = 250, 100
    x = 50.0 + np.cumsum(rng.standard_normal(total))
    e = rng.standard_normal(total)
    y = np.empty(total)
    y[0] = x[0]
    for t in range(1, total):
        y[t] = y[t - 1] + 0.4 * (x[t - 1] - y[t - 1]) + e[t]
    _write_series(INPUTS / "coint_x.csv", (1995, 6), x[burn:])
    _write_series(INPUTS / "coint_y.csv", (1995, 6), y[burn:])

    quarterly = 100.0 + np.cumsum(rng.standard_normal(30))
    _write_series(INPUTS / "quarterly.csv", (1998, 7), quarterly, quarterly=True)
    _write_series(INPUTS / "constant.csv", (2010, 1), [5.0] * 40)
    # Finite levels, +-1.5e308 in turn, whose first differences overflow.
    rows = [f"{2010 + i // 12}-{i % 12 + 1:02d},{'-' if i % 2 else ''}1.5e308" for i in range(120)]
    (INPUTS / "overflow.csv").write_text("\n".join(["date,value", *rows]) + "\n", encoding="utf-8")
    # Finite levels, x about +-1e150 in turn and y = x * 2**525 (about 1.5e308),
    # whose levels regression overflows in Q'y.
    x = [(-1e150 if i % 2 else 1e150) + i * 1e148 for i in range(40)]
    for name, values in (("overflow_x", x), ("overflow_y", [math.ldexp(v, 525) for v in x])):
        rows = [f"{2010 + i // 12}-{i % 12 + 1:02d},{v!r}" for i, v in enumerate(values)]
        (INPUTS / f"{name}.csv").write_text("\n".join(["date,value", *rows]) + "\n", encoding="utf-8")
    (INPUTS / "gap.csv").write_text("date,value\n2020-01,1\n2020-03,2\n", encoding="utf-8")


def regenerate() -> None:
    """Rewrite the inputs, then every expected file from the current code."""
    for d in (INPUTS, EXPECTED):
        shutil.rmtree(d, ignore_errors=True)
        d.mkdir(parents=True)
    _write_inputs()
    files: dict[str, str] = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name in CLI_CASES:
            files.update(_cli_outputs(name, Path(tmp)))
    files.update({f"{name}.stderr": _error_output(name) for name in ERROR_CASES})
    files.update({f"{name}.json": _experiment_output(name) for name in EXPERIMENT_CASES})
    for file_name, text in files.items():
        (EXPECTED / file_name).write_bytes(text.encode("utf-8"))


if __name__ == "__main__":
    sys.exit(regenerate())
