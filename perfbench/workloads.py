"""The benchmark's three workloads: inputs from a seed, one operation, checks.

A Monte Carlo workload's operation is one experiment call through the
public API; its input is the experiment's base seed. The CLI workload's
operation is one command of a five-command session on a seeded synthetic
monthly pair written as ``date,value`` CSVs.

Every operation is checked. For any seed, repeated operations must give
bitwise-equal results (compared as ``repr``-exact JSON text). For the
default seed the results must also equal the values recorded in
``expected.json`` at the commit that defined the benchmark.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import random
from dataclasses import dataclass

DEFAULT_SEED = 0
MC_REPS = 200
CLI_MONTHS = 480
CLI_START_YEAR = 1985

HERE = os.path.dirname(os.path.abspath(__file__))
EXPECTED_PATH = os.path.join(HERE, "expected.json")


def fingerprint(result) -> str:
    """Exact text of a Monte Carlo result: equal text means bitwise-equal floats."""
    return json.dumps(result.to_json_dict(), sort_keys=True)


@dataclass(frozen=True)
class McWorkload:
    """A seeded Monte Carlo experiment called through the public API."""

    name: str

    def run(self, seed: int, workers: int = 1):
        """One experiment call of ``MC_REPS`` replications with base seed ``seed``."""
        import cointkit as ck

        if self.name == "mc-size-eg":
            return ck.run_size_experiment(
                ck.TestConfig("eg-levels", lags=12),
                ck.DgpSpec("independent_random_walks", n=300),
                reps=MC_REPS,
                base_seed=seed,
                workers=workers,
            )
        return ck.run_ect_recovery_experiment(
            n=600,
            reps=MC_REPS,
            base_seed=seed,
            adjust=0.3,
            ecm_spec=ck.EcmSpec(seasonal_gap=1),
            workers=workers,
        )

    def recorded(self, result) -> dict:
        """The values compared against ``expected.json`` for the default seed."""
        from cointkit.formats import fmt12s

        if self.name == "mc-ecm-recovery":
            return {
                "config_digest": result.config_digest,
                "median_coefficient": fmt12s(result.median_coefficient),
                "median_t_stat": fmt12s(result.median_t_stat),
            }
        return {
            "config_digest": result.config_digest,
            "rejections": {str(level): count for level, count in result.rejections.items()},
        }


def make_pair_csv(seed: int) -> tuple[str, str]:
    """A seeded cointegrated monthly pair of ``CLI_MONTHS`` positive values, as CSV text.

    The log of the first series is a random walk with drift; the log of the
    second follows it with a stationary AR(1) gap, so every CLI command
    (logs included) runs on every seed.
    """
    rng = random.Random(seed)
    log_a, gap = 4.0, 0.0
    rows_a, rows_b = ["date,value"], ["date,value"]
    for i in range(CLI_MONTHS):
        log_a += 0.002 + rng.gauss(0.0, 0.03)
        gap = 0.6 * gap + rng.gauss(0.0, 0.02)
        date = f"{CLI_START_YEAR + i // 12:04d}-{i % 12 + 1:02d}"
        rows_a.append(f"{date},{100.0 * math.exp(log_a):.4f}")
        rows_b.append(f"{date},{50.0 * math.exp(0.8 * log_a + gap):.4f}")
    return "\n".join(rows_a) + "\n", "\n".join(rows_b) + "\n"


def cli_commands(workdir: str) -> list[tuple[str, list[str]]]:
    """The session's five commands, each writing JSON and CSV to ``workdir/out``."""
    a = os.path.join(workdir, "series_a.csv")
    b = os.path.join(workdir, "series_b.csv")
    out = os.path.join(workdir, "out")
    specs = [
        ("ingest-check", ["--input", a]),
        ("adf", ["--input", a, "--lags", "12", "--det", "constant-trend"]),
        (
            "eg",
            ["--input", a, "--input2", b, "--transform", "logarithms", "--lags", "12", "--trend", "true"],
        ),
        ("grid", ["--input", a, "--input2", b]),
        ("ecm", ["--input", b, "--input2", a, "--gap", "12"]),
    ]
    return [
        (cmd, [cmd, *args, "--format", "both", "--output", os.path.join(out, cmd)])
        for cmd, args in specs
    ]


def write_cli_inputs(workdir: str, seed: int) -> None:
    os.makedirs(os.path.join(workdir, "out"), exist_ok=True)
    text_a, text_b = make_pair_csv(seed)
    for name, text in (("series_a.csv", text_a), ("series_b.csv", text_b)):
        with open(os.path.join(workdir, name), "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def take_outputs(argv: list[str]) -> dict[str, bytes]:
    """Read and remove a command's output files, so the next run must rewrite them."""
    stem = argv[argv.index("--output") + 1]
    outputs = {}
    for path in (stem + ".json", stem + ".csv"):
        try:
            with open(path, "rb") as fh:
                outputs[os.path.basename(path)] = fh.read()
            os.remove(path)
        except FileNotFoundError:
            outputs[os.path.basename(path)] = b""
    return outputs


def run_in_process(argv: list[str]) -> tuple[int, str]:
    """``cointkit.cli.main(argv)`` with stdout captured: (exit code, stdout)."""
    from cointkit.cli import main

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    return code, buf.getvalue()


def output_hashes(outputs: dict[str, bytes]) -> dict[str, str]:
    return {name: hashlib.sha256(data).hexdigest() for name, data in sorted(outputs.items())}


def cli_session(workdir: str, seed: int):
    """Write the inputs and run the five commands once in-process.

    Returns the commands and, per command, its (exit code, stdout, outputs).
    """
    write_cli_inputs(workdir, seed)
    commands = cli_commands(workdir)
    results = {}
    for cmd, argv in commands:
        code, stdout = run_in_process(argv)
        results[cmd] = (code, stdout, take_outputs(argv))
    return commands, results


def session_hashes(results: dict) -> dict[str, str]:
    """SHA-256 of every JSON and CSV output of a session."""
    hashes = {}
    for _, _, outputs in results.values():
        hashes.update(output_hashes(outputs))
    return hashes


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def session_digest(results: dict) -> str:
    """One digest of a session's exit codes and outputs, for comparing processes."""
    return digest(json.dumps({cmd: [code, output_hashes(out)] for cmd, (code, _, out) in results.items()}))


MC_WORKLOADS = {
    name: McWorkload(name) for name in ("mc-size-eg", "mc-ecm-recovery")
}
CLI_WORKLOAD = "cli-session"
WORKLOADS = (*MC_WORKLOADS, CLI_WORKLOAD)


def load_expected() -> dict:
    with open(EXPECTED_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def recorded_errors(workload: str, recorded: dict, expected: dict) -> list[str]:
    """Differences between values recorded now and those in ``expected``."""
    want = expected.get(workload)
    if want is None:
        return [f"no recorded values for {workload}"]
    return [
        f"{workload}: {key} is {recorded.get(key)!r}, recorded {value!r}"
        for key, value in want.items()
        if recorded.get(key) != value
    ]
