"""Command-line front door: one command per invocation, deterministic output.

Commands: ingest-check, adf, eg, grid, ecm, mc-falsepos, mc-size. Options
can also come from a flat ``key = value`` config file (``--config PATH``),
whose lines are read as ``--key=value`` flags standing right after the
command: one argparse parser types and checks every value from either
source, and the last occurrence wins, so explicit flags win over file
values. Unknown file keys are rejected. Machine reports carry 12
significant digits; the human tables printed to stdout use 3 decimals and
significance stars (*** 1%, ** 5%, * 10%).

Exit codes: 0 success, 1 usage/config error (an unwritable --output
included), 2 data error, 3 numerical error or a broken experiment contract
(MissingGuardWarning). Every failure also emits one machine-parsable line
on stderr; an error from a Monte Carlo replication adds its index and seed.

The only environment variable consulted is COINTKIT_OUTPUT_DIR, which
redirects relative output paths.
"""

from __future__ import annotations

import argparse
import csv
import functools
import gc
import io
import json
import os
import sys
from dataclasses import dataclass

# Every analyst command reads a CSV, so ingest loads here; it needs no numpy.
# Each handler imports the layers it runs.
from cointkit.errors import (
    CointkitError,
    ConfigError,
    DataError,
    UsageError,
)
from cointkit.formats import json_dumps, significance_stars
from cointkit.ingest import IngestReport, _read, ingest_csv

OUTPUT_DIR_ENV = "COINTKIT_OUTPUT_DIR"


@dataclass(frozen=True)
class Opt:
    name: str
    type: type
    default: object = None
    required: bool = False
    choices: tuple | None = None
    help: str = ""


_DET_CHOICES = ("none", "constant", "constant-trend")
_OUTPUT_OPTS = (
    Opt("output", str, None, help="output path stem; .json/.csv suffixes are added"),
    Opt("format", str, "json", choices=("json", "csv", "both"), help="report format(s)"),
)
_WORKERS = Opt(
    "workers",
    int,
    1,
    help="worker processes; each run starts a new pool, which pays only for thousands of "
    "replications (n=600 ECT recovery, 2 CPUs: 200 reps 21 ms on 1 worker and 42 ms on 2, "
    "2000 reps 243 ms on 1 and 189 ms on 2); on Linux workers start by fork, which "
    "inherits the loaded modules, where forkserver and spawn took 415 and 537 ms on 2",
)

SCHEMAS: dict[str, tuple[Opt, ...]] = {
    "ingest-check": (Opt("input", str, required=True, help="CSV file to validate"),) + _OUTPUT_OPTS,
    "adf": (
        Opt("input", str, required=True),
        Opt("lags", int, 0),
        Opt("det", str, "constant", choices=_DET_CHOICES),
    )
    + _OUTPUT_OPTS,
    "eg": (
        Opt("input", str, required=True),
        Opt("input2", str, required=True),
        Opt("transform", str, "untransformed", choices=("logarithms", "untransformed")),
        Opt("normalize_on", str, "first", choices=("first", "second")),
        Opt("lags", int, 0),
        Opt("trend", bool, False),
    )
    + _OUTPUT_OPTS,
    "grid": (
        Opt("input", str, required=True),
        Opt("input2", str, required=True),
    )
    + _OUTPUT_OPTS,
    "ecm": (
        Opt("input", str, required=True, help="dependent (y) series"),
        Opt("input2", str, required=True, help="regressor (x) series"),
        Opt("gap", int, 12),
        Opt("ect_lag", int, 1),
        Opt("control_lags", int, 1),
        Opt("trend", bool, False),
    )
    + _OUTPUT_OPTS,
    "mc-falsepos": (
        Opt("n", int, 300),
        Opt("reps", int, 1000),
        Opt("level", int, 1, choices=(1, 5, 10)),
        Opt("seed", int, 0),
        _WORKERS,
    )
    + _OUTPUT_OPTS,
    "mc-size": (
        Opt("test", str, "eg-levels", choices=("eg-levels", "eg-differences", "adf")),
        Opt(
            "dgp",
            str,
            "independent-random-walks",
            choices=("independent-random-walks", "cointegrated-pair", "white-noise-pair"),
        ),
        Opt("n", int, 300),
        Opt("reps", int, 1000),
        Opt("seed", int, 0),
        Opt("lags", int, 0),
        Opt("trend", bool, False),
        Opt("det", str, "constant", choices=_DET_CHOICES),
        Opt("beta", float, 1.0),
        Opt("adjust", float, 0.5),
        Opt("sd", float, 1.0),
        _WORKERS,
    )
    + _OUTPUT_OPTS,
}


@dataclass(frozen=True)
class RunConfig:
    """One fully resolved invocation: the command plus every option value."""

    command: str
    values: dict


def parse_config_text(text: str) -> dict[str, str]:
    """Parse the flat key-value grammar: one ``key = value`` per line,
    blank lines and ``#`` comments ignored."""
    out: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"config line {lineno}: expected 'key = value', got {line!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if not key:
            raise ConfigError(f"config line {lineno}: empty key")
        if key in out:
            raise ConfigError(f"config line {lineno}: duplicate key {key!r}")
        out[key] = value
    return out


def _flag(text: str) -> bool:
    """The argparse type of a bool option: ``true`` or ``false``."""
    if text not in ("true", "false"):
        raise argparse.ArgumentTypeError(f"invalid choice: {text!r} (choose from 'true', 'false')")
    return text == "true"


def _config_args(command: str, path: str) -> list[str]:
    """The ``--key=value`` arguments that the config file at ``path`` stands for."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            file_values = parse_config_text(fh.read())
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file: {exc}") from None
    file_command = file_values.pop("command", None)
    if file_command is not None and file_command != command:
        raise ConfigError(f"config file is for command {file_command!r}, invoked as {command!r}")
    names = {opt.name for opt in SCHEMAS[command]}
    for key in file_values:
        if key not in names:
            raise ConfigError(f"unknown config key {key!r} for command {command!r}")
    return [f"--{key.replace('_', '-')}={value}" for key, value in file_values.items()]


def resolve_config(argv: list[str]) -> RunConfig:
    """The invocation that ``argv`` and the ``--config`` file it names stand for.

    One parser types and checks every value. A config file's lines are read
    as flags placed right after the command, so an explicit flag, which
    comes later, wins.
    """
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.config is not None:
        at = argv.index(args.command) + 1
        args = parser.parse_args(argv[:at] + _config_args(args.command, args.config) + argv[at:])
    values = {opt.name: getattr(args, opt.name) for opt in SCHEMAS[args.command]}
    for opt in SCHEMAS[args.command]:
        if opt.required and values[opt.name] is None:
            raise ConfigError(f"missing required option {opt.name!r}")
    return RunConfig(command=args.command, values=values)


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit(2); usage errors are exit 1
        raise ConfigError(message)


@functools.cache  # parse_args leaves the parser as it was, so one serves every call
def _build_parser() -> _Parser:
    parser = _Parser(prog="cointkit", description=__doc__, add_help=True)
    sub = parser.add_subparsers(dest="command", required=True)
    for command, opts in SCHEMAS.items():
        p = sub.add_parser(command, help=f"run the {command} operation")
        p.add_argument("--config", default=None, help="flat key=value config file")
        for opt in opts:
            p.add_argument(
                "--" + opt.name.replace("_", "-"),
                dest=opt.name,
                default=opt.default,
                type=_flag if opt.type is bool else opt.type,
                choices=opt.choices,
                metavar="{true,false}" if opt.type is bool else None,
                help=opt.help,
            )
    return parser


def _csv_text(rows: list[list[str]]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerows(rows)
    return buf.getvalue()


def _write_outputs(config: RunConfig, json_dict: dict, csv_rows: list[list[str]]) -> list[str]:
    output = config.values.get("output")
    if not output:
        return []
    stem, ext = os.path.splitext(output)
    if ext.lower() not in (".json", ".csv"):
        stem = output
    outdir = os.environ.get(OUTPUT_DIR_ENV)
    if outdir and not os.path.isabs(stem):
        stem = os.path.join(outdir, stem)
    fmt = config.values.get("format", "json")
    outputs = []
    if fmt in ("json", "both"):
        outputs.append((stem + ".json", json_dumps(json_dict)))
    if fmt in ("csv", "both"):
        outputs.append((stem + ".csv", _csv_text(csv_rows)))

    # Each output goes to a temporary file beside it, and only when every one
    # is written are they renamed into place; a failure removes what this run
    # wrote, so no output is left without its companion or half written.
    path = os.path.dirname(stem)  # then each file in turn; an error names the one that failed
    temps: list[str] = []
    placed: list[str] = []
    try:
        if path:
            os.makedirs(path, exist_ok=True)
        for path, text in outputs:
            temps.append(f"{path}.{os.getpid()}.tmp")
            with open(temps[-1], "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
        for (path, _), temp in zip(outputs, temps):
            os.replace(temp, path)
            placed.append(path)
    except OSError as exc:
        for leftover in temps + placed:
            if os.path.isfile(leftover):
                os.remove(leftover)
        raise UsageError(f"cannot write {path}: {exc}") from None
    return [path for path, _ in outputs]


def _stars_line(report) -> str:
    return f"{report.statistic:.3f}{significance_stars(report.reject_at)}"


def _warning_lines(warnings) -> list[str]:
    return [f"warning [{w.code}]: {w.message}" for w in warnings]


def _cmd_ingest_check(config: RunConfig) -> tuple[dict, list[list[str]], list[str]]:
    report = IngestReport.from_read(_read(config.values["input"]))
    human = [
        f"{report.name}: {report.observations} {report.frequency_label} observations, "
        f"{report.start}..{report.end}"
    ]
    return report.to_json_dict(), report.to_csv_rows(), human


def _cmd_adf(config: RunConfig) -> tuple[dict, list[list[str]], list[str]]:
    from cointkit.critvals import LEVELS, DeterministicSpec
    from cointkit.unitroot import adf_test

    series = ingest_csv(config.values["input"])
    det = DeterministicSpec.from_label(config.values["det"])
    report = adf_test(series, config.values["lags"], det)
    human = [
        f"ADF on {series.name}: statistic {_stars_line(report)} "
        f"(lags {report.lags}, {det.label()}, n_eff {report.n_effective})",
        "critical values: "
        + ", ".join(f"{l}%: {report.critical_values[l]:.3f}" for l in LEVELS),
    ]
    return report.to_json_dict(), report.to_csv_rows(), human


def _cmd_eg(config: RunConfig) -> tuple[dict, list[list[str]], list[str]]:
    from cointkit.cointegration import EgSpec, engle_granger_test
    from cointkit.critvals import LEVELS

    a = ingest_csv(config.values["input"])
    b = ingest_csv(config.values["input2"])
    spec = EgSpec(
        transform=config.values["transform"],
        normalize_on=config.values["normalize_on"],
        lags=config.values["lags"],
        trend_in_stage_one=config.values["trend"],
    )
    report = engle_granger_test(a, b, spec)
    slope = report.stage_one.coefficients["x"]
    human = [
        f"Engle-Granger ({spec.transform}, normalized on {spec.normalize_on}, "
        f"lags {spec.lags}, trend {str(spec.trend_in_stage_one).lower()})",
        f"stage-one slope: {slope:.3f}   statistic: "
        f"{_stars_line(report)} (n_eff {report.n_effective})",
        "critical values: "
        + ", ".join(f"{l}%: {report.critical_values[l]:.3f}" for l in LEVELS),
    ]
    human += _warning_lines(report.warnings)
    return report.to_json_dict(), report.to_csv_rows(), human


def _cmd_grid(config: RunConfig) -> tuple[dict, list[list[str]], list[str]]:
    from cointkit.cointegration import run_spec_grid
    from cointkit.critvals import LEVELS

    a = ingest_csv(config.values["input"])
    b = ingest_csv(config.values["input2"])
    grid = run_spec_grid(a, b)
    human = [f"{'transform':<14} {'norm':<7} {'lags':>4} {'trend':<6} {'statistic':>10}"]
    for cell in grid.cells:
        spec, report = cell.spec, cell.report
        stat = "error" if report is None else _stars_line(report)
        human.append(
            f"{spec.transform:<14} {spec.normalize_on:<7} {spec.lags:>4} "
            f"{str(spec.trend_in_stage_one).lower():<6} {stat:>10}"
        )
    if grid.cells_ok:
        human.append(
            f"aggregates: min {grid.min_statistic:.3f}, max {grid.max_statistic:.3f}, "
            f"median {grid.median_statistic:.3f}; rejections "
            + ", ".join(f"{l}%: {grid.reject_counts[l]}" for l in LEVELS)
        )
    reports = [cell.report for cell in grid.cells if cell.report is not None]
    human += sorted({line for report in reports for line in _warning_lines(report.warnings)})
    return grid.to_json_dict(), grid.to_csv_rows(), human


def _cmd_ecm(config: RunConfig) -> tuple[dict, list[list[str]], list[str]]:
    from cointkit.critvals import eg_critical_values, rejections
    from cointkit.ecm import EcmSpec, estimate_ecm
    from cointkit.regression import _eg_stage_two
    from cointkit.series import align

    y = ingest_csv(config.values["input"])
    x = ingest_csv(config.values["input2"])
    spec = EcmSpec(
        seasonal_gap=config.values["gap"],
        ect_lag=config.values["ect_lag"],
        ardl_control_lags=config.values["control_lags"],
        include_trend=config.values["trend"],
    )
    fit = estimate_ecm(y, x, spec)

    # The companion Engle-Granger test (untransformed, normalized on y, 0 lags,
    # the ECM's trend): its stage one is the ECM's levels regression.
    caveat = None
    try:
        stage_two, n_eff = _eg_stage_two(fit.levels_fit.residuals, align(y, x)[0].values, 0)
    except CointkitError as exc:
        check = {"error": f"{type(exc).__name__}: {exc}"}
        caveat = "companion cointegration test could not be run; the error-correction term may be undefined"
    else:
        statistic = float(stage_two.t_stats[0])
        reject = rejections(statistic, eg_critical_values(n_eff, spec.include_trend))[5]
        check = {"statistic": statistic, "reject_at_5": reject}
        if not reject:
            caveat = (
                "companion cointegration test does not reject no-cointegration at 5%; "
                "the error-correction term is then I(1) and this regression risks spurious results"
            )

    report = {
        "type": "ecm_report",
        "fit": fit.to_json_dict(),
        "cointegration_check": check,
        "caveat": caveat,
    }
    human = [
        f"levels slope: {fit.levels_fit.coefficients['x']:.3f}",
        f"error-correction coefficient (ect_l{spec.ect_lag}): "
        f"{fit.ect_coefficient:.3f} (t = {fit.ect_t_stat:.3f})",
        "controls: " + ", ".join(fit.control_manifest),
    ]
    if caveat:
        human.append(f"warning: {caveat}")
    return report, fit.to_csv_rows(), human


def _cmd_mc_falsepos(config: RunConfig) -> tuple[dict, list[list[str]], list[str]]:
    from cointkit import montecarlo

    result = montecarlo.run_false_positive_experiment(
        n=config.values["n"],
        reps=config.values["reps"],
        level=config.values["level"],
        base_seed=config.values["seed"],
        workers=config.values["workers"],
    )
    level = config.values["level"]
    human = [
        f"false-positive rate at {level}%: {result.rejection_rate[level]:.3f} "
        f"({result.rejections[level]}/{result.replications}); "
        f"differenced-input guard fired in {result.guard_warning_count}/{result.replications}",
    ]
    return result.to_json_dict(), result.to_csv_rows(), human


def _cmd_mc_size(config: RunConfig) -> tuple[dict, list[list[str]], list[str]]:
    from cointkit import montecarlo
    from cointkit.critvals import LEVELS, DeterministicSpec

    test = montecarlo.TestConfig(
        kind=config.values["test"],
        lags=config.values["lags"],
        trend=config.values["trend"],
        det=DeterministicSpec.from_label(config.values["det"]),
    )
    dgp = montecarlo.DgpSpec(
        kind=config.values["dgp"].replace("-", "_"),
        n=config.values["n"],
        innovation_sd=config.values["sd"],
        seed=0,
        beta=config.values["beta"],
        adjust=config.values["adjust"],
    )
    result = montecarlo.run_size_experiment(
        test=test,
        dgp=dgp,
        reps=config.values["reps"],
        base_seed=config.values["seed"],
        workers=config.values["workers"],
    )
    human = [
        f"{test.kind} on {dgp.kind}: rejection rates "
        + ", ".join(f"{l}%: {result.rejection_rate[l]:.3f}" for l in LEVELS)
    ]
    return result.to_json_dict(), result.to_csv_rows(), human


_HANDLERS = {
    "ingest-check": _cmd_ingest_check,
    "adf": _cmd_adf,
    "eg": _cmd_eg,
    "grid": _cmd_grid,
    "ecm": _cmd_ecm,
    "mc-falsepos": _cmd_mc_falsepos,
    "mc-size": _cmd_mc_size,
}


def _exit_code(exc: CointkitError) -> int:
    """UsageError 1, DataError 2, anything else (NumericalError, MissingGuardWarning) 3."""
    if isinstance(exc, UsageError):
        return 1
    if isinstance(exc, DataError):
        return 2
    return 3


def main(argv: list[str] | None = None) -> int:
    try:
        config = resolve_config(sys.argv[1:] if argv is None else list(argv))
        report, rows, human = _HANDLERS[config.command](config)
        for line in human:
            print(line)
        for path in _write_outputs(config, report, rows):
            print(f"wrote {path}")
        return 0
    except CointkitError as exc:
        record = {"error": type(exc).__name__, "message": str(exc).replace("\n", "; ")}
        for key in ("replication", "seed"):  # set on an error from a Monte Carlo replication
            if hasattr(exc, key):
                record[key] = getattr(exc, key)
        print("cointkit-error: " + json.dumps(record), file=sys.stderr)
        return _exit_code(exc)


def entrypoint() -> None:
    """The console script and ``python -m cointkit.cli``: ``main()``, then exit.

    The process ends here, so once ``main()`` has returned, every object
    left is moved to the collector's permanent generation: the collections
    at interpreter exit then walk none of what numpy and cointkit made. A
    caller of ``main()`` keeps its collector as it was.
    """
    code = main()
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    entrypoint()
