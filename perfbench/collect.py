#!/usr/bin/env python3
"""Run the benchmark once per seed and report each metric's median and spread.

Run from the repository root:

    python3 perfbench/collect.py --workload mc-size-eg --seeds 1-10 --out results.json

Each run is ``run.py --workload W --seed S --seconds <run_seconds> --trace 0``
in its own interpreter, with ``run_seconds`` from BENCHMARK.json. For every
end-to-end metric this prints the median, the quartiles
(``statistics.quantiles(n=4)``) and their distance as a share of the median,
and flags a spread over the metric's bound in BENCHMARK.json or over a third
of it. ``--out`` keeps every run's values.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def summarize(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else float("nan")}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--out")
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seconds = str(bench["run_seconds"])

    runs: dict[str, list[dict]] = {}
    status = 0
    for workload in args.workload:
        for seed in parse_seeds(args.seeds):
            t0 = time.perf_counter()
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", seconds, "--trace", "0"],
                capture_output=True, text=True, cwd=ROOT,
            )
            wall = time.perf_counter() - t0
            result = json.loads(proc.stdout.strip().splitlines()[-1]) if proc.stdout.strip() else {}
            ok = proc.returncode == 0 and result.get("correct")
            status = status or (0 if ok else 1)
            runs.setdefault(workload, []).append(
                {"seed": seed, "exit": proc.returncode, "wall_s": wall, **result}
            )
            print(f"{workload} seed {seed}: exit {proc.returncode}, {wall:.1f} s wall, "
                  f"{result.get('failed')}/{result.get('attempted')} failed", flush=True)
            if proc.returncode:
                sys.stderr.write(proc.stderr)

    summary = {}
    for workload, results in runs.items():
        good = [r for r in results if r.get("metrics")]
        if len(good) < 2:
            continue
        print(f"\n{workload}: {len(good)} runs, median wall {statistics.median(r['wall_s'] for r in results):.1f} s")
        for name in good[0]["metrics"]:
            stats = summarize([r["metrics"][name]["value"] for r in good])
            summary.setdefault(workload, {})[name] = stats
            bound = bounds[name]
            flag = "  OVER BOUND" if stats["spread"] > bound else ("  over bound/3" if stats["spread"] > bound / 3 else "")
            print(f"  {name:<40} median {stats['median']:>12.6g}  q1 {stats['q1']:>12.6g}  "
                  f"q3 {stats['q3']:>12.6g}  spread {stats['spread']:.4f}  bound {bound}{flag}")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump({"runs": runs, "summary": summary}, fh, indent=1)
    return status


if __name__ == "__main__":
    sys.exit(main())
