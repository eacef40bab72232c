"""SHA-256 hashes of everything a run writes or returns, to compare two
checkouts byte for byte.

    python3 tools/output_hashes.py [--root CHECKOUT] [--n N ...] [--quick]

For each n in 32/64/128, each scheme (Stratonovich Heun, Ito-Euler), each
variant (plain, truncated, hyper) and each initial state (``random_hs``,
which lies inside the 2/3 ball, and Taylor-Green, which does not) it prints
the hashes of:

* ``integrator.run``: the final state's ``half`` bytes and ``blowup_accum``
  and every record's fields as float64 bytes (signed zeros included);
* ``sbq simulate``: ``diagnostics.csv``, every snapshot file, and the
  manifest without its ``config.out`` path;
* ``sbq ensemble`` with 4 realizations: ``summary.csv`` on 1 and on 4
  workers (which must agree with each other), each realization's CSV, and
  the manifest without its ``out`` path and worker count.

The n = 64 cases record ``lp_grad_theta`` with p = 3.  A few extra cases
cover a blow-up abort (the snapshot schedule of ``sbq simulate``) and the
CFL guard passing and failing (the failure's message).  The last line
hashes the JSON report of a small operator battery,
``operators.run_verification(1, samples=5, pairs=5)``.  The script calls
only ``integrator.run`` (with ``rng``, ``diag_interval`` and ``p``),
``cli.main`` and ``operators.run_verification``, so the same file runs on
older checkouts too; ``--root`` imports ``sbq`` from that
checkout's ``src/``.  Two checkouts agree when the printed lines are
identical (``diff`` them).  ``--quick`` skips n = 128 and the ensembles.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import struct  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

NOISE = {"type": "default_family", "gamma": 5.0, "sigma": 0.1, "k_max": 4}
INITIAL = {"random_hs": {"type": "random_hs", "seed": 7},
           "taylor_green": {"type": "taylor_green", "amplitude": 1.0}}
VARIANT = {"plain": {}, "truncated": {"r": 0.15}, "hyper": {"r": 0.5, "nu": 1e-12}}
SCHEME = {"heun": "stratonovich_heun", "ito": "ito_euler"}
DT, STEPS = 1e-3, 8


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:24]


def _config(n, scheme, variant, initial, **extra) -> dict:
    return {"n": n, "T": STEPS * DT, "dt": DT, "scheme": SCHEME[scheme],
            "variant": variant, **VARIANT[variant], "seed": 11,
            "initial": INITIAL[initial], "noise": NOISE,
            "diagnostics_interval": 3, "snapshot_interval": 5, **extra}


def _run_hashes(raw: dict) -> list:
    import numpy as np
    from sbq import config, integrator, noise, spectral

    cfg = config.parse_config(raw)
    grid = spectral.Grid(cfg.n)
    state0 = config.build_initial_state(cfg, grid)
    rng = np.random.default_rng(noise.mix_seed(cfg.seed, 0))
    try:
        traj = integrator.run(state0, config.build_noise_basis(cfg, grid),
                              config.build_scheme(cfg), cfg.T, rng=rng,
                              diag_interval=cfg.diagnostics_interval, p=cfg.p)
    except Exception as exc:  # a guard that fails the run
        return [("run.error", f"{type(exc).__name__} {getattr(exc, 'step', None)} "
                              f"{_sha(str(exc).encode())}")]
    final = traj.final_state
    records = b"".join(struct.pack(f"<{len(vars(r))}d", *vars(r).values())
                       for r in traj.records)
    return [("run.final", _sha(final.omega.half.tobytes() + final.theta.half.tobytes()
                               + struct.pack("<dd", final.t, final.blowup_accum))),
            ("run.records", f"{len(traj.records)} {_sha(records)}"),
            ("run.flags", f"{traj.blowup_suspected} {traj.abort_step} {traj.steps_taken}")]


def _cli(argv: list) -> tuple[int, str]:
    from sbq import cli

    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, err.getvalue()


def _simulate_hashes(raw: dict, work: Path) -> list:
    out = work / "simulate"
    path = work / "simulate.json"
    path.write_text(json.dumps(raw))
    code, err = _cli(["simulate", "--config", str(path), "--out", str(out), "--quiet"])
    lines = [("simulate.exit", f"{code} {_sha(err.encode())}")]
    for name in ("diagnostics.csv",):
        if (out / name).exists():
            lines.append((f"simulate.{name}", _sha((out / name).read_bytes())))
    if (out / "manifest.json").exists():
        manifest = json.loads((out / "manifest.json").read_text())
        manifest["config"].pop("out", None)
        lines.append(("simulate.manifest",
                      _sha(json.dumps(manifest, sort_keys=True).encode())))
    for snap in sorted((out / "snapshots").glob("*.sbq")):
        lines.append((f"simulate.{snap.name}", _sha(snap.read_bytes())))
    return lines


def _ensemble_hashes(raw: dict, work: Path) -> list:
    path = work / "ensemble.json"
    path.write_text(json.dumps(raw))
    lines, summaries = [], []
    for workers in (1, 4):
        out = work / f"ensemble-{workers}"
        code, err = _cli(["ensemble", "--config", str(path), "--out", str(out),
                          "--realizations", "4", "--workers", str(workers), "--quiet"])
        summaries.append((out / "summary.csv").read_bytes())
        manifest = json.loads((out / "manifest.json").read_text())
        for key in ("out", "workers"):
            manifest["config"].pop(key, None)
        manifest.pop("workers")
        lines.append((f"ensemble.w{workers}.exit", f"{code} {_sha(err.encode())}"))
        lines.append((f"ensemble.w{workers}.manifest",
                      _sha(json.dumps(manifest, sort_keys=True).encode())))
        for csv in sorted(out.glob("run_*/diagnostics.csv")):
            lines.append((f"ensemble.w{workers}.{csv.parent.name}", _sha(csv.read_bytes())))
    lines.append(("ensemble.summary.csv", _sha(summaries[0])))
    lines.append(("ensemble.workers_agree", str(summaries[0] == summaries[1])))
    return lines


def _battery_hashes() -> list:
    from sbq import operators

    report = operators.run_verification(1, samples=5, pairs=5)
    return [("report", _sha(json.dumps(report, sort_keys=True, default=float).encode()))]


def cases(sizes: list) -> list:
    """(name, config, with the ensemble) for every case."""
    out = []
    for n in sizes:
        for scheme in SCHEME:
            for variant in VARIANT:
                for initial in INITIAL:
                    extra = {"p": 3.0} if n == 64 else {}
                    out.append((f"n{n}-{scheme}-{variant}-{initial}",
                                _config(n, scheme, variant, initial, **extra), True))
    out += [
        ("blowup", dict(_config(32, "heun", "plain", "random_hs"), dt=0.5, T=50.0,
                        initial={"type": "random_hs", "seed": 7, "amplitude": 40.0},
                        snapshot_interval=2, diagnostics_interval=1), True),
        ("cfl-pass", _config(32, "heun", "truncated", "taylor_green", cfl_guard=True,
                             cfl=0.5), True),
        ("cfl-fail", _config(32, "ito", "plain", "taylor_green", cfl_guard=True,
                             cfl=1e-4), False),
    ]
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--root", type=Path, default=Path(__file__).resolve().parents[1],
                        help="checkout whose src/ is imported (default: this one)")
    parser.add_argument("--n", type=int, nargs="*", default=[32, 64, 128])
    parser.add_argument("--quick", action="store_true",
                        help="skip n = 128 and the ensembles")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(args.root.resolve() / "src"))
    import sbq
    print(f"sbq from {Path(sbq.__file__).parent}", file=sys.stderr)
    sizes = [n for n in args.n if not (args.quick and n == 128)]
    for name, raw, with_ensemble in cases(sizes):
        with tempfile.TemporaryDirectory(prefix="sbq-hashes-") as tmp:
            work = Path(tmp)
            lines = _run_hashes(raw) + _simulate_hashes(raw, work)
            if with_ensemble and not args.quick:
                lines += _ensemble_hashes(raw, work)
        for key, value in lines:
            print(f"{name} {key} {value}", flush=True)
    for key, value in _battery_hashes():
        print(f"battery {key} {value}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
