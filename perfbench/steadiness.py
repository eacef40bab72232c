"""Steadiness report: run workloads repeatedly and summarise each metric.

    python3 perfbench/steadiness.py [--workloads NAME ...] [--runs 10]
                                    [--first-seed 1] [--seconds S] [--trace 0]

Each run is ``run.py`` in its own process with its own seed (first-seed,
first-seed + 1, ...).  For every metric the report prints the median, the
first and third quartiles (``statistics.quantiles(values, n=4)``) and their
distance as a share of the median, next to the metric's bound from
BENCHMARK.json.  A spread is steady when it stays below a third of the
bound.  The raw values go to ``.perfbench_out/steadiness-trace<T>.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    elapsed = time.perf_counter() - t0
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(lines[-1])
    result["elapsed_s"] = elapsed
    return result


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / abs(med) if med else float("inf")


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", nargs="+",
                        default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.runs < 2:
        parser.error("quartiles need at least two runs")

    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"] + spec["per_layer"]}
    raw = {}
    steady = True
    for workload in args.workloads:
        runs = []
        for i in range(args.runs):
            result = run_once(workload, args.first_seed + i, args.seconds, args.trace)
            if not result["correct"] or result["failed"]:
                raise SystemExit(f"{workload} seed {args.first_seed + i}: "
                                 f"incorrect run {result}")
            runs.append(result)
            print(f"  {workload} seed {args.first_seed + i}: {result['elapsed_s']:.1f} s",
                  file=sys.stderr, flush=True)
        raw[workload] = runs
        print(f"{workload} ({args.runs} runs, {args.seconds} s each, trace {args.trace}; "
              f"longest run {max(r['elapsed_s'] for r in runs):.1f} s)")
        print(f"  {'metric':<42} {'median':>12} {'q1':>12} {'q3':>12} {'iqr/med':>8} "
              f"{'bound/3':>8}")
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs]
            med, q1, q3, rel = spread(values)
            bound = bounds.get(name)
            flag = ""
            if bound is not None and name != "setup_s" and rel >= bound / 3:
                flag, steady = "  UNSTEADY", False
            limit = f"{bound / 3:8.4f}" if bound is not None else f"{'-':>8}"
            print(f"  {name:<42} {med:12.6g} {q1:12.6g} {q3:12.6g} {rel:8.4f} {limit}{flag}")
    out = ROOT / ".perfbench_out" / f"steadiness-trace{args.trace}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(raw, indent=1) + "\n")
    print(f"raw values in {out.relative_to(ROOT)}; "
          f"{'every spread' if steady else 'NOT every spread'} is below a third of its bound")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
