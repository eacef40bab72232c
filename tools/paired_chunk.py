"""Per-worker timing of ``sbq ensemble``: ``ensemble._run_chunk`` of the
``ensemble-n64-hyper`` benchmark config, for two checkouts in alternating
fresh processes.

    python3 tools/paired_chunk.py --parent CHECKOUT --change CHECKOUT
                                  [--pairs P] [--calls K] [--seed N] [--json PATH]

The benchmark's ``ensemble-n64-hyper`` runs its 8 realizations on a pool of
two workers, so its end-to-end figures also move with the pool's start-up
and with how the host shares its cores.  This script times what one worker
does, ``_run_chunk`` of 4 realizations as lanes, in a process of its own
with one BLAS thread and no pool.  Each pair runs one process per
checkout, the parent first in even-numbered pairs; a process makes one
untimed call, then K timed calls at master seeds N, N + 1, ..., and
reports the median wall and CPU time of its calls.  The script prints the
medians and quartiles of those per-process medians for each side and the
number of pairs in which the change was faster.

The config comes from this checkout's ``perfbench/workloads.py``
(``EnsembleHyper.config``, the benchmark's own), so both sides run the same
one; each side imports ``sbq`` from its own ``src/``.
"""

from __future__ import annotations

import os

# one BLAS thread, as perfbench/run.py sets it before numpy's import
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parents[1]
LANES = 4  # one worker's share: 8 realizations on 2 workers


def time_chunks(root: Path, calls: int, seed: int) -> dict:
    """K timed ``_run_chunk`` calls of ``root``'s sbq, in this process."""
    sys.path[:0] = [str(root / "src"), str(HERE / "perfbench")]
    from sbq import config, ensemble
    from workloads import EnsembleHyper

    wl = EnsembleHyper(seed, False, HERE)
    cfg = config.parse_config(wl.config(seed % 2**31, wl.steps, wl.n))
    indices = list(range(LANES))
    ensemble._run_chunk(cfg, seed, indices)  # imports, grid and basis caches
    wall, cpu = [], []
    for k in range(calls):
        w0, c0 = time.perf_counter(), time.process_time()
        results = ensemble._run_chunk(cfg, seed + 1 + k, indices)
        wall.append(1e3 * (time.perf_counter() - w0))
        cpu.append(1e3 * (time.process_time() - c0))
        if any(r.failed for r in results):
            raise RuntimeError(f"a realization failed: {results}")
    return {"wall_ms": statistics.median(wall), "cpu_ms": statistics.median(cpu)}


def _quartiles(xs: list) -> list:
    q = statistics.quantiles(xs, n=4, method="inclusive")
    return [q[0], q[2]]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, required=True, help="parent checkout")
    parser.add_argument("--change", type=Path, required=True, help="changed checkout")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--calls", type=int, default=15, help="timed calls per process")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--json", type=Path, help="also write the results here")
    parser.add_argument("--child", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        print(json.dumps(time_chunks(args.child.resolve(), args.calls, args.seed)))
        return 0
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    runs = {side: [] for side in sides}
    for pair in range(args.pairs):
        order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
        for side in order:
            out = subprocess.run(
                [sys.executable, __file__, "--parent", str(sides["parent"]),
                 "--change", str(sides["change"]), "--calls", str(args.calls),
                 "--seed", str(args.seed), "--child", str(sides[side])],
                capture_output=True, text=True, check=True)
            runs[side].append(json.loads(out.stdout.splitlines()[-1]))
        print(f"pair {pair}: " + ", ".join(
            f"{side} {runs[side][-1]['wall_ms']:.2f} ms wall "
            f"{runs[side][-1]['cpu_ms']:.2f} ms cpu" for side in sides), flush=True)
    summary = {}
    for metric in ("wall_ms", "cpu_ms"):
        parent = [r[metric] for r in runs["parent"]]
        change = [r[metric] for r in runs["change"]]
        wins = sum(c < p for p, c in zip(parent, change))
        summary[metric] = {
            "parent": statistics.median(parent), "parent_q": _quartiles(parent),
            "change": statistics.median(change), "change_q": _quartiles(change),
            "ratio": statistics.median(change) / statistics.median(parent),
            "change_better": f"{wins} of {len(parent)}"}
        s = summary[metric]
        print(f"{metric}: parent {s['parent']:.2f} [{s['parent_q'][0]:.2f}, "
              f"{s['parent_q'][1]:.2f}], change {s['change']:.2f} "
              f"[{s['change_q'][0]:.2f}, {s['change_q'][1]:.2f}], "
              f"ratio {s['ratio']:.3f}, change faster in {s['change_better']}")
    if args.json:
        args.json.write_text(json.dumps(
            {"sides": {k: str(v) for k, v in sides.items()}, "lanes": LANES,
             "calls": args.calls, "seed": args.seed, "runs": runs,
             "summary": summary}, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
