"""Command line interface.

Subcommands:

* ``simulate``            one realization; snapshots + diagnostics CSV + manifest
* ``ensemble``            M realizations in parallel; per-run CSVs + summary
* ``verify-operators``    operator identity battery, JSON report
* ``verify-conservation`` deterministic conservation / refinement studies
* ``report``              render a diagnostics CSV as a plain-text summary

Exit codes: 0 success, 2 configuration error, 3 assertion failure,
4 blow-up-suspected abort (simulate only).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .config import (
    ConfigError,
    RunConfig,
    build_initial_state,
    build_noise_basis,
    build_scheme,
    config_to_dict,
    parse_config,
)
from .diagnostics import (
    RECORD_FIELDS,
    StoppingTimeReport,
    potential_term,
    update_stopping_report,
)
from .ensemble import EnsembleConfig, run_ensemble
from .integrator import TimeStepError, run
from .io import (
    SNAPSHOT_VERSION,
    read_diagnostics_csv,
    write_diagnostics_csv,
    write_manifest,
    write_snapshot,
    write_summary_csv,
)
from .noise import mix_seed
from .operators import run_verification
from .spectral import Grid
from .studies import run_conservation_battery

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_ASSERTION = 3
EXIT_BLOWUP = 4

CSV_FORMAT_VERSION = 1


def _load_config(args) -> RunConfig:
    if not args.config:
        raise ConfigError("config", "a --config file is required")
    try:
        with open(args.config) as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError("config", f"cannot read {args.config}: {exc}")
    except json.JSONDecodeError as exc:
        raise ConfigError("config", f"invalid JSON: {exc}")
    cfg = parse_config(raw)
    overrides = {}
    if args.out:
        overrides["out"] = args.out
    if getattr(args, "seed", None) is not None:
        overrides["seed"] = args.seed
    if getattr(args, "realizations", None) is not None:
        overrides["realizations"] = args.realizations
    if getattr(args, "workers", None) is not None:
        overrides["workers"] = args.workers
    if overrides:
        cfg = parse_config({**config_to_dict(cfg), **overrides})
    return cfg


def _manifest_base(cfg: RunConfig, seeds: list) -> dict:
    return {
        "config": config_to_dict(cfg),
        "master_seed": cfg.seed,
        "realization_seeds": seeds,
        "format_versions": {
            "snapshot": SNAPSHOT_VERSION,
            "diagnostics_csv": CSV_FORMAT_VERSION,
        },
        "package_version": __version__,
        "build_id": os.environ.get("SBQ_BUILD_ID", "unreleased"),
    }


def _cmd_simulate(args) -> int:
    cfg = _load_config(args)
    out = Path(cfg.out)
    out.mkdir(parents=True, exist_ok=True)
    grid = Grid(cfg.n)
    basis = build_noise_basis(cfg, grid)
    state0 = build_initial_state(cfg, grid)
    scheme = build_scheme(cfg)
    seed = mix_seed(cfg.seed, 0)
    rng = np.random.default_rng(seed)

    snapdir = out / "snapshots"
    snapdir.mkdir(exist_ok=True)

    def snapshot_observer(index, state, record):
        write_snapshot(snapdir / f"step_{index:08d}.sbq", state)

    snap_every = cfg.snapshot_interval if cfg.snapshot_interval > 0 else (1 << 62)
    try:
        traj = run(state0, basis, scheme, cfg.T, rng=rng,
                   observers=((snap_every, snapshot_observer),),
                   diag_interval=cfg.diagnostics_interval, p=cfg.p)
    except TimeStepError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except AssertionError as exc:  # the stepper's omega mean guard
        manifest = _manifest_base(cfg, [seed])
        manifest["abort_reason"] = str(exc)
        write_manifest(out / "manifest.json", manifest)
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ASSERTION

    write_diagnostics_csv(out / "diagnostics.csv", traj.records)
    stopping = StoppingTimeReport.new(cfg.stopping_levels)
    for record in traj.records:
        update_stopping_report(stopping, record)
    manifest = _manifest_base(cfg, [seed])
    manifest["blowup_suspected"] = traj.blowup_suspected
    manifest["abort_step"] = traj.abort_step
    manifest["steps_taken"] = traj.steps_taken
    manifest["stopping"] = stopping.as_dict()
    manifest["potential_term"] = {
        "initial": potential_term(state0),
        "final": potential_term(traj.final_state),
    }
    write_manifest(out / "manifest.json", manifest)
    if not args.quiet:
        last = traj.records[-1]
        print(f"simulate: {traj.steps_taken} steps to t={last.t:g}, "
              f"output in {out}")
        if traj.blowup_suspected:
            print(f"blow-up suspected at step {traj.abort_step}", file=sys.stderr)
    return EXIT_BLOWUP if traj.blowup_suspected else EXIT_OK


def _cmd_ensemble(args) -> int:
    cfg = _load_config(args)
    out = Path(cfg.out)
    out.mkdir(parents=True, exist_ok=True)
    ecfg = EnsembleConfig(cfg, cfg.realizations, cfg.seed, cfg.workers)
    summary, results = run_ensemble(ecfg)
    for res in results:
        rundir = out / f"run_{res.index}"
        rundir.mkdir(exist_ok=True)
        if not res.failed:
            write_diagnostics_csv(rundir / "diagnostics.csv", res.records)
    write_summary_csv(out / "summary.csv", summary)
    manifest = _manifest_base(cfg, summary.seeds)
    manifest["realizations"] = cfg.realizations
    manifest["workers"] = cfg.workers
    manifest["blowup_aborts"] = summary.blowup_aborts
    manifest["failed_realizations"] = summary.failed
    write_manifest(out / "manifest.json", manifest)
    if not args.quiet:
        print(f"ensemble: {cfg.realizations} realizations "
              f"({summary.blowup_aborts} blow-up aborts, "
              f"{len(summary.failed)} failed), output in {out}")
    if summary.failed:
        for res in results:
            if res.failed:
                print(f"realization {res.index} failed: {res.error}",
                      file=sys.stderr)
        return EXIT_ASSERTION
    # blow-up aborts are counted in the manifest, not fatal for an ensemble
    return EXIT_OK


def _emit_report(payload: dict, args) -> None:
    text = json.dumps(payload, indent=2, sort_keys=True, default=float)
    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        Path(args.out).write_text(text + "\n")
    if not args.quiet:
        print(text)


def _cmd_verify_operators(args) -> int:
    kwargs = {}
    if args.seed is not None:
        kwargs["seed"] = args.seed
    report = run_verification(**kwargs)
    _emit_report(report, args)
    if not report["pass"]:
        failures = [k for k, v in report["checks"].items() if not v["pass"]]
        print(f"verify-operators: FAILED checks: {failures}", file=sys.stderr)
        return EXIT_ASSERTION
    return EXIT_OK


def _cmd_verify_conservation(args) -> int:
    report = run_conservation_battery(fast=args.fast)
    _emit_report(report, args)
    if not report["pass"]:
        print("verify-conservation: FAILED", file=sys.stderr)
        return EXIT_ASSERTION
    return EXIT_OK


def _cmd_report(args) -> int:
    try:
        records = read_diagnostics_csv(args.csv)
    except OSError as exc:
        print(f"error: cannot read {args.csv}: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    if not records:
        print("error: empty series", file=sys.stderr)
        return EXIT_CONFIG
    fields = [f for f in RECORD_FIELDS if f != "t"]
    width = max(len(f) for f in fields)
    lines = [f"{len(records)} records, t in [{records[0].t:g}, {records[-1].t:g}]",
             f"{'field'.ljust(width)} {'first':>13} {'final':>13} "
             f"{'min':>13} {'max':>13}"]
    for f in fields:
        series = [getattr(r, f) for r in records]
        lines.append(f"{f.ljust(width)} {series[0]:>13.6g} {series[-1]:>13.6g} "
                     f"{min(series):>13.6g} {max(series):>13.6g}")
    stopping = (StoppingTimeReport.new(args.levels) if args.levels
                else StoppingTimeReport.new())
    for rec in records:
        update_stopping_report(stopping, rec)
    table = stopping.as_dict()
    lines.append(f"tau2 crossings:   {table['tau2'] or 'none'}")
    lines.append(f"tauinf crossings: {table['tauinf'] or 'none'}")
    print("\n".join(lines))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sbq",
        description="Stochastic 2D Boussinesq pseudospectral simulator and "
                    "operator verification toolkit")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, seed=True, workers=False):
        p.add_argument("--config", help="JSON run configuration")
        p.add_argument("--out", help="output directory (overrides config)")
        if seed:
            p.add_argument("--seed", type=int, help="seed override")
        if workers:
            p.add_argument("--realizations", type=int,
                           help="realization count override")
            p.add_argument("--workers", type=int, help="worker count override")
        p.add_argument("--quiet", action="store_true")

    common(sub.add_parser("simulate", help="run one realization"))
    common(sub.add_parser("ensemble", help="run a Monte Carlo ensemble"),
           workers=True)

    vo = sub.add_parser("verify-operators",
                        help="run the operator identity battery")
    vo.add_argument("--out", help="write the JSON report to this file")
    vo.add_argument("--seed", type=int, help="ensemble seed override")
    vo.add_argument("--quiet", action="store_true")

    vc = sub.add_parser("verify-conservation",
                        help="run the conservation refinement studies")
    vc.add_argument("--out", help="write the JSON report to this file")
    vc.add_argument("--fast", action="store_true",
                    help="shorter horizons / smaller dt ladder")
    vc.add_argument("--quiet", action="store_true")

    rp = sub.add_parser("report", help="summarize a diagnostics CSV")
    rp.add_argument("csv", help="path to diagnostics.csv")
    rp.add_argument("--levels", type=float, nargs="+",
                    help="stopping levels for the crossing table")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "simulate": _cmd_simulate,
        "ensemble": _cmd_ensemble,
        "verify-operators": _cmd_verify_operators,
        "verify-conservation": _cmd_verify_conservation,
        "report": _cmd_report,
    }
    try:
        return handlers[args.command](args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
