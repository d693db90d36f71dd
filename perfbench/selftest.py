"""Tests of the benchmark itself.

Run from the repository root with ``python3 -m pytest -q perfbench/selftest.py``.
The file is not named ``test_*.py``, so the package's own test run does not
collect it.
"""

import copy
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


def _benchmark_json() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _run(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
        capture_output=True, text=True, cwd=cwd, timeout=170,
    )


def test_metric_tables_match_benchmark_json():
    bench = _benchmark_json()
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)


def test_emitted_metric_names_match_benchmark_json():
    bench = _benchmark_json()
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        proc = _run("--workload", "mc-size-eg", "--seed", "5", "--seconds", "0.5", "--trace", str(trace))
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        emitted = {name: m["unit"] for name, m in result["metrics"].items()}
        assert emitted == {m["name"]: m["unit"] for m in bench[key]}


def test_tracer_wraps_every_binding_and_restores_all():
    import cointkit
    import cointkit.cli  # noqa: F401

    modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "cointkit"]
    classes = (cointkit.TimeSeries, cointkit.DesignMatrix)
    before = {(m.__name__, k): v for m in modules for k, v in vars(m).items()}
    before_cls = {(c.__name__, k): v for c in classes for k, v in vars(c).items()}
    original_ols = cointkit.regression.ols_fit

    trace = tracer.Tracer()
    with trace:
        for module in (cointkit.unitroot, cointkit.cointegration, cointkit.ecm, cointkit):
            assert module.ols_fit is not original_ols
            assert getattr(module.ols_fit, tracer.WRAPPER_MARK)
        for module in (cointkit.unitroot, cointkit.cointegration, cointkit.montecarlo):
            assert getattr(module.critical_value, tracer.WRAPPER_MARK)
        workloads.MC_WORKLOADS["mc-size-eg"].run(1)
    assert tracer.leftover_wrappers() == []
    assert {(m.__name__, k): v for m in modules for k, v in vars(m).items()} == before
    assert {(c.__name__, k): v for c in classes for k, v in vars(c).items()} == before_cls

    self_s, total_s, calls = trace.layer_times()
    assert calls["montecarlo.runner"] == 1
    assert calls["regression.ols_fit"] == 2 * workloads.MC_REPS
    root = total_s["montecarlo.runner"]
    assert abs(sum(self_s.values()) - root) < 1e-9 * max(1.0, root) + 1e-12


def test_seed_changes_generated_inputs():
    assert workloads.make_pair_csv(1) == workloads.make_pair_csv(1)
    a1, b1 = workloads.make_pair_csv(1)
    a2, b2 = workloads.make_pair_csv(2)
    assert a1 != a2 and b1 != b2
    wl = workloads.MC_WORKLOADS["mc-ecm-recovery"]
    assert wl.recorded(wl.run(1)) != wl.recorded(wl.run(2))


def _copy_benchmark(dest, with_program: bool) -> None:
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), dest)
    shutil.copytree(HERE, dest / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    if with_program:
        shutil.copytree(os.path.join(ROOT, "src"), dest / "src", ignore=shutil.ignore_patterns("__pycache__"))


def test_wrong_recorded_value_fails_the_run(tmp_path):
    _copy_benchmark(tmp_path, with_program=True)
    path = tmp_path / "perfbench" / "expected.json"
    expected = json.loads(path.read_text())
    expected["mc-ecm-recovery"]["median_t_stat"] = "-1"
    path.write_text(json.dumps(expected))
    proc = _run("--workload", "mc-ecm-recovery", "--seed", str(workloads.DEFAULT_SEED),
                "--seconds", "0.5", "--trace", "0", cwd=str(tmp_path))
    assert proc.returncode == 1
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert not result["correct"] and result["failed"] == 1
    assert "median_t_stat" in proc.stderr


def test_cli_outputs_match_recorded_hashes(tmp_path):
    expected = workloads.load_expected()
    _, results = workloads.cli_session(str(tmp_path), workloads.DEFAULT_SEED)
    assert all(code == 0 for code, _, _ in results.values())
    hashes = workloads.session_hashes(results)
    assert workloads.recorded_errors(workloads.CLI_WORKLOAD, hashes, expected) == []
    wrong = copy.deepcopy(expected)
    wrong[workloads.CLI_WORKLOAD]["grid.json"] = "0" * 64
    assert workloads.recorded_errors(workloads.CLI_WORKLOAD, hashes, wrong)


def test_fails_without_the_program(tmp_path):
    _copy_benchmark(tmp_path, with_program=False)
    proc = _run("--workload", "mc-size-eg", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=str(tmp_path))
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
