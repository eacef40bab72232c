"""Probe regime of each benchmark workload: the minor page faults and the
time of every speed-probe call.

    python3 tools/probe_regime.py [--root CHECKOUT] [--workload NAME ...]
                                  [--ops K] [--seed N] [--json PATH]

``perfbench`` scales every timed operation by ``calibration.probe_ms()``,
ten 128 x 128 FFT round trips timed in the measured process.  The probe's
256 KB temporaries come either fresh from ``mmap`` (about 6400 minor faults
per call) or from the heap (a few hundred or none), depending on the
allocations the process made before; that choice sets the probe's speed,
and with it every scaled figure.  A change that moves a workload from one
regime to the other moves its scaled ``unit_ms_p50`` by tens of percent
while the program runs no faster or slower.

Each workload runs in a fresh process, in the order ``perfbench/run.py``
uses: the reference checks, ``prepare()``, a probe, then K times the
operation's set-ups, the operation and a probe.  The script imports
``calibration``, ``tracing`` and ``workloads`` from the checkout's
``perfbench/`` and ``sbq`` from its ``src/`` and edits none of them;
``--root`` points it at another checkout (a parent commit, say).

    python3 tools/probe_regime.py --runs PARENT.json CHANGE.json

reads two result files of ``perfbench/run.py``
(``.perfbench_out/<workload>-seed<k>-trace0.json``) instead and prints, for
each side, the median raw time per unit (over the untraced operations'
``samples_ms`` medians) and per set-up, the median probe time of each, and
the scaled figures the file gates (``unit_ms_p50``, ``setup_s``), with the
change's ratio to the parent: a scaled move with an unmoved raw median and a
moved probe came from the probe, not from the program.
"""

from __future__ import annotations

import os

# one BLAS thread, as perfbench/run.py sets it before numpy's import
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

WORKLOADS = ("heun-n128-diag", "ito-n64-trunc", "ensemble-n64-hyper", "verify-ops-n64")


def _faults() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def probe_workload(root: Path, name: str, ops: int, seed: int) -> dict:
    """One workload's probe calls, in this process: [(faults, ms), ...]."""
    sys.path[:0] = [str(root / "perfbench"), str(root / "src")]
    import calibration
    from tracing import Patches
    from workloads import WORKLOADS as CLASSES

    def probe():
        before = _faults()
        ms = calibration.probe_ms()
        return _faults() - before, ms

    with tempfile.TemporaryDirectory(prefix=f"{name}-") as workdir:
        wl = CLASSES[name](seed, False, Path(workdir))
        checks = wl.reference_checks()
        wl.prepare()
        patches = Patches()
        if wl.clock is not None:
            wl.clock.attach(patches)
        calls = [probe()]
        try:
            for k in range(ops):
                for _ in range(wl.setup_repeats_per_op):
                    wl.setup()
                res = wl.op(k)
                calls.append(probe())
                res.finish()
                checks += res.checks
        finally:
            patches.undo()
    return {"workload": name, "calls": calls,
            "correct": all(ok for _, ok, _ in checks)}


def run_figures(path: Path) -> dict:
    """Raw, probe and scaled medians of one ``perfbench/run.py`` result file."""
    run = json.loads(path.read_text())
    ops = [op for op in run["operations"] if not op["traced"] and op["units"]]
    return {"workload": run["workload"], "seed": run["seed"],
            "unit raw ms": statistics.median(statistics.median(op["samples_ms"])
                                             for op in ops),
            "unit probe ms": statistics.median(op["probe_ms"] for op in ops),
            "unit_ms_p50": run["end_to_end"]["unit_ms_p50"],
            "setup raw ms": 1e3 * statistics.median(s["seconds"] for s in run["setups"]),
            "setup probe ms": statistics.median(s["probe_ms"] for s in run["setups"]),
            "setup_s": run["end_to_end"]["setup_s"]}


def compare_runs(parent: Path, change: Path) -> None:
    """Print the figures of two result files of one workload side by side."""
    a, b = run_figures(parent), run_figures(change)
    if a["workload"] != b["workload"]:
        raise SystemExit(f"different workloads: {a['workload']} and {b['workload']}")
    print(f"{a['workload']} (seeds {a['seed']} and {b['seed']})")
    print(f"  {'':<15} {'parent':>12} {'change':>12} {'change/parent':>14}")
    for key in list(a)[2:]:
        print(f"  {key:<15} {a[key]:12.5g} {b[key]:12.5g} {b[key] / a[key]:14.3f}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--root", type=Path, default=Path(__file__).resolve().parents[1],
                        help="checkout whose perfbench/ and src/ run (default: this one)")
    parser.add_argument("--workload", nargs="*", default=list(WORKLOADS), choices=WORKLOADS)
    parser.add_argument("--ops", type=int, default=4, help="operations per workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--json", type=Path, help="also write the results here")
    parser.add_argument("--runs", type=Path, nargs=2, metavar=("PARENT", "CHANGE"),
                        help="compare two perfbench/run.py result files instead")
    parser.add_argument("--child", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.runs:
        compare_runs(*args.runs)
        return 0
    root = args.root.resolve()
    if args.child:
        print(json.dumps(probe_workload(root, args.child, args.ops, args.seed)))
        return 0
    results = []
    for name in args.workload:
        out = subprocess.run(
            [sys.executable, __file__, "--root", str(root), "--ops", str(args.ops),
             "--seed", str(args.seed), "--child", name],
            capture_output=True, text=True, cwd=root, check=True)
        result = json.loads(out.stdout.splitlines()[-1])
        faults = [f for f, _ in result["calls"]]
        result["median_faults"] = statistics.median(faults)
        result["median_ms"] = statistics.median(ms for _, ms in result["calls"])
        results.append(result)
        print(f"{name}: median {result['median_faults']:g} minor faults, "
              f"{result['median_ms']:.3f} ms per probe call"
              f"{'' if result['correct'] else ' (a check failed)'}")
        for i, (f, ms) in enumerate(result["calls"]):
            print(f"  probe {i}: {f:6d} faults {ms:8.3f} ms")
    if args.json:
        args.json.write_text(json.dumps({"root": str(root), "ops": args.ops,
                                         "seed": args.seed, "workloads": results}, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
