"""Benchmark entry point for sbq.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload (see README.md in this directory) from the root of a
source checkout, using the package in ``src/``.  With ``--trace 0`` it
measures the end-to-end metrics with nothing but a per-step clock attached;
with ``--trace 1`` it alternates untraced and traced operations and derives
the per-layer metrics from the traced ones.  It checks every output, prints
a readable report, writes a results file (and, when tracing, the spans)
under ``.perfbench_out/``, and prints as its last line one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is 0
when every check passed and 1 when one failed; when the program cannot be
imported from ``src/`` it is nonzero and no result line is printed.
"""

from __future__ import annotations

import os

# One BLAS thread per process: the pool workers (forked from this process)
# then use at most workers x 1 <= nproc threads.  Must precede numpy's import.
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from importlib import metadata  # noqa: E402
from pathlib import Path  # noqa: E402

import calibration  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text()) \
    if (HERE.parent / "BENCHMARK.json").exists() else None
MIN_SETUP_REPEATS = 9
TRACED_SETUP_REPEATS = 3


def load_program():
    """Import sbq from this checkout's src/, never from anywhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import sbq
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import sbq from {src}: {exc}")
    if not Path(sbq.__file__).resolve().is_relative_to(src.resolve()):
        raise SystemExit(f"perfbench: sbq imported from {sbq.__file__}, not {src}")
    return sbq


def percentile_tail(samples):
    """Highest integer percentile with at least ten samples beyond it
    (nearest rank).  Returns (percentile, value, beyond, count) or None."""
    n = len(samples)
    if n < 11:
        return None
    ordered = sorted(samples)
    p = (100 * (n - 10)) // n
    rank = max(1, -(-p * n // 100))  # ceil(p n / 100)
    return p, ordered[rank - 1], n - rank, n


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0  # ru_maxrss is in KiB on Linux


def environment(sbq) -> dict:
    import numpy as np

    def version(dist):
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return "not installed"

    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                    capture_output=True, text=True, timeout=30,
                                    check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            commit = "unknown (git failed)"
    import multiprocessing
    from workloads import nproc
    fft_backends = ["numpy.fft (" + np.fft.fft2.__module__ + ")"]
    if "scipy.fft" in sys.modules:
        fft_backends.append("scipy.fft")
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": version("scipy"),
        "sbq": getattr(sbq, "__version__", "unknown"),
        "fft_backend": fft_backends,
        "nproc": nproc(),
        "blas_threads": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
        "start_method": multiprocessing.get_start_method(),
        "git_commit": commit,
        "machine": platform.machine(),
    }


def measure(wl, seconds: float, tracer, clock_patches):
    """Run operations until ``seconds`` have passed.  Before each: a speed
    probe and one untraced set-up, so set-up repetitions are spread over the
    run.  With a tracer, even operations run untraced and odd ones traced.
    Returns the operations and the (set-up seconds, probe ms) pairs."""
    wl.prepare()

    def attach_clock():
        if wl.clock is not None:
            wl.clock.attach(clock_patches)

    ops = {"untraced": [], "traced": []}
    setups = []
    attach_clock()
    deadline = time.perf_counter() + seconds
    k = 0
    probe = calibration.probe_ms()
    try:
        while True:
            setups += [(t, probe) for t in time_setup(wl, wl.setup_repeats_per_op)]
            traced = tracer is not None and k % 2 == 1
            if traced:
                clock_patches.undo()  # the tracer wraps the originals ...
                tracer.install()
                attach_clock()        # ... and the step clock wraps the tracer
            try:
                res = wl.op(k)
            finally:
                if traced:
                    clock_patches.undo()
                    tracer.uninstall()
                    attach_clock()
            after = calibration.probe_ms()
            res.probe_ms = 0.5 * (probe + after)
            probe = after
            if traced:
                tracer.merge_results(res.results)
            res.finish()
            ops["traced" if traced else "untraced"].append(res)
            k += 1
            enough = ops["untraced"] and (tracer is None or ops["traced"])
            if enough and time.perf_counter() >= deadline:
                break
    finally:
        clock_patches.undo()
    while len(setups) < MIN_SETUP_REPEATS:
        setups.append((time_setup(wl, 1)[0], calibration.probe_ms()))
    return ops, setups


def time_setup(wl, repeats: int) -> list:
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        wl.setup()
        times.append(time.perf_counter() - t0)
    return times


def scaled_unit_ms(ops) -> float:
    """Median over operations of the per-unit median, at reference speed."""
    return statistics.median(statistics.median(r.samples_ms) * calibration.scale(r.probe_ms)
                             for r in ops if r.units)


def end_to_end(setups, ops) -> dict:
    """The gated metrics: times scaled to reference machine speed."""
    return {
        "setup_s": statistics.median(t * calibration.scale(p) for t, p in setups),
        "unit_ms_p50": scaled_unit_ms(ops),
        "units_per_s": statistics.median(r.units / r.wall_s / calibration.scale(r.probe_ms)
                                         for r in ops if r.units),
        "peak_rss_mb": peak_rss_mb(),
    }


def run_figures(setups, ops) -> dict:
    """Figures as the whole run sees them, over every untraced operation."""
    samples = [s for r in ops for s in r.samples_ms]
    wall = sum(r.wall_s for r in ops)
    return {"samples": samples, "p50": statistics.median(samples),
            "tail": percentile_tail(samples),
            "per_s": sum(r.units for r in ops) / wall if wall > 0 else 0.0,
            "setup_s": statistics.median(t for t, _ in setups),
            "probe_ms": statistics.median(r.probe_ms for r in ops)}


def report_lines(wl, e2e, run, attempted, failed):
    """Every named end-to-end metric, by name with its unit, as
    the run sees it; then the gated figures at reference machine speed."""
    na = "n/a"
    stepping = wl.unit == "step"
    tail = run["tail"]
    no_clock = f"{na} (no per-step clock on this workload)"
    rows = [
        ("setup_s", f"{run['setup_s']:.6f} s (median of set-ups spread over the run)"),
        ("step_ms_p50", f"{run['p50']:.4f} ms ({len(run['samples'])} steps)"
         if stepping else no_clock),
        ("step_ms_tail",
         (f"{tail[1]:.4f} ms at p{tail[0]} ({tail[2]} of {tail[3]} samples beyond)"
          if tail else f"{na} (fewer than 11 step samples)") if stepping else no_clock),
        ("sim_steps_per_s", f"{run['per_s']:.4f} 1/s (steps / wall of every call)"
         if stepping else f"{na} (stepping workloads only)"),
        ("realizations_per_s", f"{run['per_s']:.4f} 1/s"
         if wl.unit == "realization" else f"{na} (ensemble workload only)"),
        ("verify_s", f"{run['p50'] / 1000.0:.6f} s (median pass)" if wl.unit == "pass"
         else f"{na} (verify workload only)"),
        ("peak_rss_mb", f"{e2e['peak_rss_mb']:.2f} MB (this process and pool workers)"),
        ("failed_frac", f"{failed / attempted:.6g} ({failed} of {attempted})"),
        ("speed probe", f"{run['probe_ms']:.4f} ms median (reference "
                        f"{calibration.REFERENCE_MS:g} ms)"),
        ("gated, at reference speed:", ""),
        ("setup_s", f"{e2e['setup_s']:.6f} s"),
        ("unit_ms_p50", f"{e2e['unit_ms_p50']:.4f} ms per {wl.unit}"),
        ("units_per_s", f"{e2e['units_per_s']:.4f} 1/s"),
    ]
    width = max(len(name) for name, _ in rows if _)
    return [f"  {name.ljust(width)}  {value}".rstrip() for name, value in rows]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny grids and few steps, for the benchmark's own tests")
    args = parser.parse_args(argv)
    if SPEC is None:
        raise SystemExit("perfbench: BENCHMARK.json not found next to perfbench/")

    sbq = load_program()
    import layers
    from tracing import Patches, Tracer
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        raise SystemExit(f"perfbench: unknown workload {args.workload!r}; "
                         f"choose from {sorted(WORKLOADS)}")
    outdir = ROOT / ".perfbench_out"
    outdir.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=outdir))
    wl = WORKLOADS[args.workload](args.seed, args.smoke, workdir)
    tracer = Tracer() if args.trace else None
    checks = []
    try:
        checks += wl.reference_checks()
        if tracer:
            tracer.install()
            time_setup(wl, TRACED_SETUP_REPEATS)
            tracer.uninstall()
            setup_spans = tracer.spans
            tracer.clear()
        ops, setups = measure(wl, args.seconds, tracer, Patches())
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    all_ops = ops["untraced"] + ops["traced"]
    for res in all_ops:
        checks += res.checks
    if tracer:
        checks.append(("FFT calls attributed to layers sum to the global count",
                       *tracer.fft_attribution()))
    attempted = sum(r.attempted for r in all_ops) + len(checks)
    failed = sum(r.failed for r in all_ops) + sum(1 for _, ok, _ in checks if not ok)
    correct = all(ok for _, ok, _ in checks) and failed == 0

    e2e = end_to_end(setups, ops["untraced"])
    run = run_figures(setups, ops["untraced"])
    env = environment(sbq)
    mode = "traced" if tracer else "untraced"
    print(f"workload {wl.name} (seed {args.seed}, {args.seconds:g} s, {mode}; "
          f"unit of work: one {wl.unit}; {len(all_ops)} operations)")
    print("  why: " + next(w["why"] for w in SPEC["workloads"] if w["name"] == wl.name))
    print("end-to-end (untraced operations, as the run sees them):")
    for line in report_lines(wl, e2e, run, attempted, failed):
        print(line)
    spec_units = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}
    results = {"workload": wl.name, "seed": args.seed, "seconds": args.seconds,
               "trace": args.trace, "smoke": args.smoke, "environment": env,
               "end_to_end": e2e, "checks": checks,
               "setups": [{"seconds": t, "probe_ms": p} for t, p in setups],
               "operations": [{"traced": traced, "wall_s": r.wall_s, "units": r.units,
                               "probe_ms": r.probe_ms, "samples_ms": r.samples_ms}
                              for traced in (False, True)
                              for r in ops["traced" if traced else "untraced"]]}
    if tracer:
        overhead = scaled_unit_ms(ops["traced"]) / e2e["unit_ms_p50"] - 1.0
        per_layer = layers.derive(wl, tracer.spans, setup_spans, ops["traced"], overhead)
        print(f"per-layer (traced operations; {len(tracer.spans)} spans, "
              f"{tracer.fft_global} FFT calls):")
        for line in layers.report_lines(per_layer):
            print(line)
        steps = sum(r.steps for r in ops["traced"])
        print(f"self time per {wl.unit} by layer (ms, every category):")
        for layer, ms in layers.layer_self_ms_per_step(tracer.spans, steps).items():
            print(f"  {layer:<12} {ms:10.4f}")
        results["per_layer"] = per_layer
        spans_path = outdir / f"{wl.name}-seed{args.seed}-spans.csv"
        tracer.write_spans(spans_path)
        print(f"  spans written to {spans_path.relative_to(ROOT)}")
        chosen = {m["name"]: per_layer[m["name"]][0] for m in SPEC["per_layer"]}
    else:
        chosen = {m["name"]: e2e[m["name"]] for m in SPEC["end_to_end"]}
    print("environment: " + json.dumps(env, sort_keys=True))
    for name, ok, detail in checks:
        if not ok:
            print(f"CHECK FAILED: {name} {detail}", file=sys.stderr)
    print(f"checks: {sum(ok for _, ok, _ in checks)} of {len(checks)} passed")
    line = {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": {name: {"value": value, "unit": spec_units[name]}
                        for name, value in chosen.items()}}
    results["result"] = line
    results_path = outdir / f"{wl.name}-seed{args.seed}-trace{args.trace}.json"
    results_path.write_text(json.dumps(results, indent=2, default=str) + "\n")
    print(f"results written to {results_path.relative_to(ROOT)}")
    print(json.dumps(line))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
