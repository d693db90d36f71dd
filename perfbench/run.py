#!/usr/bin/env python3
"""cointkit benchmark: end-to-end metrics per workload, or per-layer metrics from a traced run.

Run from the repository root:

    python3 perfbench/run.py --workload mc-size-eg --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --trace 1

The program is imported from ``src/`` beside this directory; without it the
benchmark exits non-zero. BLAS threads are pinned to 1 and
``COINTKIT_OUTPUT_DIR`` is unset, for this process and every child. Scratch
files live under ``.bench_build/perfbench/`` and are removed at the end;
a traced run leaves its spans there as ``trace-<workload>-seed<seed>.json``.

``--trace 0`` measures end to end with nothing patched. ``--trace 1``
wraps each layer's entry points, runs the workload's operations traced and
untraced, and reports per-layer metrics. Both check every operation's
output. End-to-end times are scaled by ``calibration_seconds``, timed in
the same run, to the baseline host's speed. Human-readable lines come
first; the last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``. The exit code is 0 only when every check passed. See
README.md for what each metric means on each workload.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")

sys.path.insert(0, HERE)
import workloads  # noqa: E402
from tracer import Tracer, leftover_wrappers  # noqa: E402

END_TO_END = {
    "reps_per_s": "1/s",
    "cmd_ms_p50": "ms",
    "warm_cmd_ms_p50": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}

PER_LAYER = {
    "montecarlo.generate.calls": "count",
    "montecarlo.generate.self_s": "s",
    "montecarlo.replication_seed.self_s": "s",
    "montecarlo.runner.self_s": "s",
    "montecarlo.parallel_efficiency": "ratio",
    "series.TimeSeries.calls": "count",
    "series.TimeSeries.self_s": "s",
    "series.align.self_s": "s",
    "series.transforms.self_s": "s",
    "ingest.ingest_csv.self_s": "s",
    "ingest.rows_per_s": "1/s",
    "regression.ols_fit.calls": "count",
    "regression.ols_fit.self_s": "s",
    "regression.ols_fit.us_per_call": "us",
    "regression.ols_fit.flops_computed": "flop",
    "regression.ols_fit.gflops_computed": "GFLOP/s",
    "regression.ols_fit.rank_failures": "count",
    "regression.DesignMatrix.self_s": "s",
    "unitroot.adf_regression.calls": "count",
    "unitroot.adf_regression.self_s": "s",
    "cointegration.engle_granger_test.calls": "count",
    "cointegration.engle_granger_test.self_s": "s",
    "cointegration.collect_warnings.self_s": "s",
    "critvals.critical_value.calls": "count",
    "critvals.critical_value.self_s": "s",
    "ecm.estimate_ecm.self_s": "s",
    "ecm.estimate_levels.self_s": "s",
    "formats.json_dumps.self_s": "s",
    "formats.json_dumps.bytes": "bytes",
    "cli.main.self_s": "s",
    "cli.write_outputs.self_s": "s",
    "cli.write_outputs.bytes": "bytes",
    "cli.import_numpy_s": "s",
    "cli.import_cointkit_s": "s",
    "trace.overhead_ratio": "ratio",
}

# Fresh interpreters set up per run; setup_s is their median. On the Monte
# Carlo workloads they also give cmd_ms_p50.
PROBES = 15
# In-process CLI session passes after each fresh-interpreter pass. A fresh
# pass takes about 25 times as long as an in-process one, so three give
# three times as many in-process samples as fresh ones and still leave
# most of a run to the fresh commands, whose per-command medians need them.
WARM_PASSES = 3
# Median wall seconds of calibration_seconds() on the 2-vCPU Xeon host the
# baseline was recorded on. Every end-to-end time is scaled to it.
CALIBRATION_NOMINAL_S = 0.009
# Fresh interpreters per import timing, and calls per worker count for
# parallel efficiency, in a traced run.
IMPORT_SAMPLES = 5
PARALLEL_SAMPLES = 3


class Tally:
    """Operations attempted and failed, with the first few failure messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def record(self, errors: list[str]) -> bool:
        self.attempted += 1
        if errors:
            self.failed += 1
            if len(self.messages) < 10:
                self.messages.extend(errors)
        return not errors


def sample_line(kind: str, samples: list[float]) -> str:
    """Count, median and 95th percentile of one kind of timing sample.

    Only the median is a metric: on a shared host the 95th percentile of
    the same code spread past any usable bound between runs.
    """
    cuts = statistics.quantiles(samples, n=20, method="inclusive")
    return f"{len(samples)} {kind}: p50 {1e3 * cuts[9]:.3f} ms, p95 {1e3 * cuts[18]:.3f} ms"


def prepare_environment() -> None:
    """Pin BLAS to one thread, unset the output redirect, and put ``src`` first on the path."""
    if not os.path.isfile(os.path.join(SRC, "cointkit", "__init__.py")):
        sys.exit(f"perfbench: no cointkit sources under {SRC}")
    os.environ.update({"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"})
    os.environ.pop("COINTKIT_OUTPUT_DIR", None)
    os.environ["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
    sys.path.insert(0, SRC)
    import cointkit

    if os.path.dirname(os.path.dirname(os.path.abspath(cointkit.__file__))) != SRC:
        sys.exit(f"perfbench: imported cointkit from {cointkit.__file__}, not from {SRC}")


def environment_line() -> str:
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return (
        f"python {sys.version.split()[0]}, numpy {numpy.__version__}, "
        f"BLAS {blas.get('name')} {blas.get('version')} (1 thread), nproc {os.cpu_count()}"
    )


# -- calibration ---------------------------------------------------------------


def calibration_seconds() -> float:
    """Wall seconds of a fixed loop that never touches cointkit.

    The loop solves small least-squares problems and builds dicts, the two
    kinds of work the workloads spend their time on. The host is a shared
    virtual machine whose speed drifts by 10-30% over minutes, and every
    timing of a run moves with it. A run times this loop between its
    operations; dividing by the loop's median over the run, relative to
    ``CALIBRATION_NOMINAL_S``, takes most of that drift out of the
    end-to-end times and leaves any change in the program's own speed in
    them. A deep slow spell slows the workloads more than this loop, so
    part of it stays.
    """
    import numpy as np

    rng = np.random.default_rng(0)
    x, y = rng.standard_normal((300, 14)), rng.standard_normal(300)
    t0 = time.perf_counter()
    acc = 0.0
    for _ in range(50):
        acc += float(np.linalg.lstsq(x, y, rcond=None)[0][0])
        table = {j: j * 1.5 for j in range(200)}
        acc += sum(table.values())
    return time.perf_counter() - t0


def slowdown(calibration: list[float]) -> float:
    """How many times slower than nominal the host ran during a run; prints it."""
    factor = statistics.median(calibration) / CALIBRATION_NOMINAL_S
    print(f"calibration: {len(calibration)} loops, median {1e3 * statistics.median(calibration):.3f} ms "
          f"against {1e3 * CALIBRATION_NOMINAL_S:g} ms nominal; end-to-end times divided by {factor:.4f}")
    return factor


# -- set-up probes and fresh-interpreter timing ------------------------------


def run_probe(workload: str, seed: int, pdir: str, want_digest: str, tally: Tally):
    """Set the workload up in a fresh interpreter: (spawn-to-ready, spawn-to-exit) seconds.

    Returns None when the probe failed its check.
    """
    os.makedirs(pdir, exist_ok=True)
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, os.path.join(HERE, "probe.py"), workload, str(seed), pdir],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        cwd=pdir,
    )
    line = proc.stdout.readline()
    t_ready = time.perf_counter()
    try:
        _, err = proc.communicate(timeout=120)
    except subprocess.TimeoutExpired:
        proc.kill()
        _, err = proc.communicate()
    t_exit = time.perf_counter()
    try:
        digest = json.loads(line)["sha256"]
    except (ValueError, KeyError):
        digest = None
    ok = proc.returncode == 0 and digest == want_digest
    tally.record([] if ok else [f"probe: exit {proc.returncode}, digest {digest}, stderr {err.strip()[-300:]}"])
    return (t_ready - t0, t_exit - t0) if ok else None


def import_seconds(module: str) -> float:
    """Median wall time of ``import module`` in fresh interpreters."""
    code = (
        "import time; t = time.perf_counter(); import " + module + "; print(time.perf_counter() - t)"
    )
    samples = []
    for _ in range(IMPORT_SAMPLES):
        out = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, check=True, cwd=ROOT
        )
        samples.append(float(out.stdout))
    return statistics.median(samples)


# -- Monte Carlo workloads -------------------------------------------------


def mc_reference(wl, seed: int, tally: Tally):
    """The warm-up call: its result is the reference every later call must equal."""
    ref = wl.run(seed)
    errors = []
    if seed == workloads.DEFAULT_SEED:
        errors = workloads.recorded_errors(wl.name, wl.recorded(ref), workloads.load_expected())
    tally.record(errors)
    return workloads.fingerprint(ref)


def mc_call(wl, seed: int, ref: str, tally: Tally, workers: int = 1) -> float | None:
    """One checked experiment call; its wall seconds, or None when it failed."""
    t0 = time.perf_counter()
    try:
        result = wl.run(seed, workers)
    except Exception as exc:  # a failed operation is counted, the run goes on
        tally.record([f"{type(exc).__name__}: {exc}"])
        return None
    elapsed = time.perf_counter() - t0
    ok = tally.record([] if workloads.fingerprint(result) == ref else ["result differs from the first call"])
    return elapsed if ok else None


def mc_end_to_end(wl, seed: int, seconds: float, workdir: str, tally: Tally) -> dict:
    """Timed experiment calls for ``seconds``, with the set-up probes spread evenly among them.

    Spreading the probes makes both kinds of sample cover the same stretch
    of the machine's time, so a slow spell on a shared host skews neither.
    """
    ref = mc_reference(wl, seed, tally)
    digest = workloads.digest(ref)
    probes, warm, calibration, calls = [], [], [], 0
    start = time.perf_counter()
    while time.perf_counter() - start < seconds or len(probes) < PROBES or calls < PROBES:
        if len(probes) < PROBES and time.perf_counter() - start >= len(probes) * seconds / PROBES:
            pdir = os.path.join(workdir, f"probe-{len(probes)}")
            probes.append(run_probe(wl.name, seed, pdir, digest, tally))
            continue
        calls += 1
        calibration.append(calibration_seconds())
        elapsed = mc_call(wl, seed, ref, tally)
        if elapsed is not None:
            warm.append(elapsed)
    setup = [p[0] for p in probes if p]
    cold = [p[1] for p in probes if p]
    print("samples: " + sample_line(f"timed calls of {workloads.MC_REPS} replications", warm)
          + "; " + sample_line("fresh-interpreter calls", cold))
    slow = slowdown(calibration)
    return {
        "reps_per_s": slow * workloads.MC_REPS * len(warm) / sum(warm),
        "cmd_ms_p50": 1e3 * statistics.median(cold) / slow,
        "warm_cmd_ms_p50": 1e3 * statistics.median(warm) / slow,
        "setup_s": statistics.median(setup) / slow,
    }


def alternate(operation, seconds: float) -> tuple[Tracer, float, float]:
    """Run ``operation`` untraced and traced in turn for ``seconds``.

    Alternating makes both totals cover the same stretch of the machine's
    time. Returns the tracer and the traced and untraced wall seconds.
    """
    tracer = Tracer()
    traced = untraced = 0.0
    start = time.perf_counter()
    while time.perf_counter() - start < seconds:
        untraced += operation()
        with tracer:
            traced += operation()
    return tracer, traced, untraced


def mc_traced(wl, seed: int, seconds: float, tally: Tally) -> tuple[Tracer, float, float, float]:
    """Traced and untraced calls at one worker, then parallel efficiency.

    Spans recorded in forked pool workers would be lost, so every traced
    call runs at ``workers=1``; parallel efficiency is timed separately.
    """
    ref = mc_reference(wl, seed, tally)
    tracer, traced, untraced = alternate(lambda: mc_call(wl, seed, ref, tally) or 0.0, seconds)
    t1, t2 = [], []
    for _ in range(PARALLEL_SAMPLES):
        t1.append(mc_call(wl, seed, ref, tally) or float("nan"))
        t2.append(mc_call(wl, seed, ref, tally, workers=2) or float("nan"))
    efficiency = statistics.median(t1) / (2.0 * statistics.median(t2))
    return tracer, traced, untraced, efficiency


# -- CLI session -------------------------------------------------------------


def cli_reference(seed: int, workdir: str, tally: Tally):
    """The warm-up pass: its outputs are the reference every later command must equal."""
    commands, ref = workloads.cli_session(workdir, seed)
    errors = [f"{cmd} exited {code}" for cmd, (code, _, _) in ref.items() if code != 0]
    if seed == workloads.DEFAULT_SEED:
        errors += workloads.recorded_errors(
            workloads.CLI_WORKLOAD, workloads.session_hashes(ref), workloads.load_expected()
        )
    tally.record(errors)
    return commands, ref, workloads.session_digest(ref)


def cli_pass(commands, ref, workdir: str, tally: Tally, cold: bool) -> dict[str, float]:
    """One pass of the session; the wall seconds of each command that passed its check."""
    times = {}
    for cmd, argv in commands:
        t0 = time.perf_counter()
        if cold:
            proc = subprocess.run(
                [sys.executable, "-m", "cointkit.cli", *argv], capture_output=True, text=True, cwd=workdir
            )
            code, stdout = proc.returncode, proc.stdout
        else:
            try:
                code, stdout = workloads.run_in_process(argv)
            except Exception as exc:  # a failed operation is counted, the run goes on
                code, stdout = f"{type(exc).__name__}: {exc}", ""
        elapsed = time.perf_counter() - t0
        got = (code, stdout, workloads.take_outputs(argv))
        where = "fresh" if cold else "in-process"
        if tally.record([] if got == ref[cmd] else [f"{where} {cmd}: exit {code} or outputs differ"]):
            times[cmd] = elapsed
    return times


def per_command_ms(samples: dict[str, list[float]]) -> float:
    """Geometric mean over the commands of each command's median, in ms.

    The five commands take from about 7 to 28 ms in-process, so a median
    over all of them pooled falls in a gap between commands and jumps
    between runs; each command's own median does not.
    """
    return 1e3 * statistics.geometric_mean([statistics.median(times) for times in samples.values()])


def cli_end_to_end(seed: int, seconds: float, workdir: str, tally: Tally) -> dict:
    """Rounds of one fresh-interpreter pass and ``WARM_PASSES`` in-process
    passes for ``seconds``, with the set-up probes spread evenly among them,
    so that all three kinds of sample cover the same stretch of the
    machine's time."""
    commands, ref, digest = cli_reference(seed, workdir, tally)
    probes, passes, calibration, rounds = [], [], [], 0
    cold: dict[str, list[float]] = {cmd: [] for cmd, _ in commands}
    warm: dict[str, list[float]] = {cmd: [] for cmd, _ in commands}
    start = time.perf_counter()
    while time.perf_counter() - start < seconds or len(probes) < PROBES or rounds < 2:
        if len(probes) < PROBES and time.perf_counter() - start >= len(probes) * seconds / PROBES:
            pdir = os.path.join(workdir, f"probe-{len(probes)}")
            probes.append(run_probe(workloads.CLI_WORKLOAD, seed, pdir, digest, tally))
            continue
        rounds += 1
        calibration.append(calibration_seconds())
        for cmd, elapsed in cli_pass(commands, ref, workdir, tally, cold=True).items():
            cold[cmd].append(elapsed)
        for _ in range(WARM_PASSES):
            calibration.append(calibration_seconds())
            times = cli_pass(commands, ref, workdir, tally, cold=False)
            for cmd, elapsed in times.items():
                warm[cmd].append(elapsed)
            if len(times) == len(commands):
                passes.append(sum(times.values()))
    setup = [p[0] for p in probes if p]
    for cmd, _ in commands:
        print(f"samples, {cmd}: " + sample_line("fresh-interpreter runs", cold[cmd])
              + "; " + sample_line("in-process runs", warm[cmd]))
    print(f"samples: {len(passes)} complete in-process passes")
    slow = slowdown(calibration)
    return {
        "reps_per_s": slow / statistics.median(passes),
        "cmd_ms_p50": per_command_ms(cold) / slow,
        "warm_cmd_ms_p50": per_command_ms(warm) / slow,
        "setup_s": statistics.median(setup) / slow,
    }


def cli_traced(seed: int, seconds: float, workdir: str, tally: Tally) -> tuple[Tracer, float, float, float]:
    commands, ref, _ = cli_reference(seed, workdir, tally)
    tracer, traced, untraced = alternate(
        lambda: sum(cli_pass(commands, ref, workdir, tally, cold=False).values()), seconds
    )
    return tracer, traced, untraced, 0.0


# -- metrics -----------------------------------------------------------------


def layer_metrics(tracer: Tracer, traced_s: float, untraced_s: float, efficiency: float) -> dict:
    self_s, total_s, calls = tracer.layer_times()
    counts = tracer.counts
    ols_calls, ols_s = calls["regression.ols_fit"], total_s["regression.ols_fit"]
    ingest_s = total_s["ingest.ingest_csv"]
    metrics = {
        "montecarlo.generate.calls": calls["montecarlo.generate"],
        "montecarlo.parallel_efficiency": efficiency,
        "series.TimeSeries.calls": calls["series.TimeSeries"],
        "ingest.rows_per_s": counts["ingest_rows"] / ingest_s if ingest_s else 0.0,
        "regression.ols_fit.calls": ols_calls,
        "regression.ols_fit.us_per_call": 1e6 * ols_s / ols_calls if ols_calls else 0.0,
        "regression.ols_fit.flops_computed": counts["ols_flops"],
        "regression.ols_fit.gflops_computed": counts["ols_flops"] / ols_s / 1e9 if ols_s else 0.0,
        "regression.ols_fit.rank_failures": counts["rank_failures"],
        "unitroot.adf_regression.calls": calls["unitroot.adf_regression"],
        "cointegration.engle_granger_test.calls": calls["cointegration.engle_granger_test"],
        "critvals.critical_value.calls": calls["critvals.critical_value"],
        "formats.json_dumps.bytes": counts["json_bytes"],
        "cli.write_outputs.bytes": counts["written_bytes"],
        "cli.import_numpy_s": import_seconds("numpy"),
        "cli.import_cointkit_s": import_seconds("cointkit.cli"),
        "trace.overhead_ratio": traced_s / untraced_s,
    }
    for name in PER_LAYER:
        if name.endswith(".self_s"):
            metrics[name] = self_s[name[: -len(".self_s")]]
    covered = sum(self_s.values())
    print(f"self times sum to {covered:.6f} s of {traced_s:.6f} s traced wall ({100 * covered / traced_s:.2f}%)")
    return metrics


def peak_rss_mb() -> float:
    """Peak resident memory of this process plus that of its largest child, in MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> int:
    print(environment_line())
    print(f"workload {workload}, seed {seed}, {seconds:g} s, trace {int(trace)}")
    workdir = os.path.join(BUILD, f"{workload}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    tally = Tally()
    try:
        if trace:
            if workload == workloads.CLI_WORKLOAD:
                traced = cli_traced(seed, seconds, workdir, tally)
            else:
                traced = mc_traced(workloads.MC_WORKLOADS[workload], seed, seconds, tally)
            tracer = traced[0]
            leftovers = leftover_wrappers()
            tally.record([f"wrappers left installed: {leftovers}"] if leftovers else [])
            tracer.write(os.path.join(BUILD, f"trace-{workload}-seed{seed}.json"))
            values, units = layer_metrics(*traced), PER_LAYER
        else:
            if workload == workloads.CLI_WORKLOAD:
                values = cli_end_to_end(seed, seconds, workdir, tally)
            else:
                values = mc_end_to_end(workloads.MC_WORKLOADS[workload], seed, seconds, workdir, tally)
            values["peak_rss_mb"] = peak_rss_mb()
            units = END_TO_END
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for name, unit in units.items():
        print(f"{workload} {name} = {values[name]:.6g} {unit}")
    print(f"{workload} error_rate = {tally.failed / tally.attempted:.6g} ({tally.failed}/{tally.attempted} operations failed)")
    for message in tally.messages:
        print(f"check failed: {message}", file=sys.stderr)
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0 if tally.failed == 0 else 1


def run_all(args) -> int:
    """Every workload in its own interpreter, then one summary table."""
    rows, status = [], 0
    for workload in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, cwd=ROOT,
        )
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        status = status or proc.returncode
        lines = proc.stdout.strip().splitlines()
        if lines:
            rows.append((workload, json.loads(lines[-1])))
    print("\nworkload            metric                                       value  unit")
    for workload, result in rows:
        for name, metric in result["metrics"].items():
            print(f"{workload:<19} {name:<40} {metric['value']:>13.6g}  {metric['unit']}")
        print(f"{workload:<19} {'operations failed':<40} {result['failed']:>13d}  of {result['attempted']}")
    return status


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*workloads.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, help="measuring time; default run_seconds in BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2**63:
        parser.error("--seed must be a non-negative 63-bit integer")
    if args.seconds is None:
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
            args.seconds = float(json.load(fh)["run_seconds"])
    prepare_environment()
    if args.workload == "all":
        return run_all(args)
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
